"""Tests of the benchmark itself: the smoke run passes on the working tree,
and each workload's check rejects a corrupted output.

Run with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from stub import StubServer  # noqa: E402


def test_smoke_run_passes():
    result = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"], capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, result.stdout + result.stderr


def _rewrite_jsonl(path: Path, edit) -> None:
    records = workloads.read_jsonl(path)
    edit(records)
    path.write_text(workloads.jsonl(records), encoding="utf-8")


def _run_once(workload, tmp_path: Path) -> None:
    with run.Launcher() as launcher:
        _, _, code = launcher.invoke(workload.args(), tmp_path / "cli.log")
    assert code == 0, (tmp_path / "cli.log").read_text()
    assert workload.check() == (0, [])


def _shift_first_span(records):
    doc = next(r for r in records if r["spans"])
    doc["spans"][0]["end"] -= 1


def test_project_drop_check_rejects_corruption(tmp_path):
    workload = workloads.ProjectDrop(tmp_path / "w", seed=5, n_docs=300)
    _run_once(workload, tmp_path)
    _rewrite_jsonl(tmp_path / "w" / "projected.jsonl", _shift_first_span)
    failed, problems = workload.check()
    assert failed >= 1 and problems


def test_project_drop_check_rejects_wrong_report(tmp_path):
    workload = workloads.ProjectDrop(tmp_path / "w", seed=5, n_docs=300)
    _run_once(workload, tmp_path)
    report_path = tmp_path / "w" / "report.json"
    report = json.loads(report_path.read_text())
    report["global"]["tp"] += 1
    report_path.write_text(json.dumps(report))
    assert workload.check()[0] == 300


@pytest.mark.parametrize("target", ["projected", "diagnostics"])
def test_project_http_check_rejects_corruption(tmp_path, target):
    with StubServer() as stub:
        workload = workloads.ProjectHttp(tmp_path / "w", seed=5, n_docs=300, endpoint=stub.endpoint, max_in_flight=2)
        _run_once(workload, tmp_path)
    if target == "projected":
        _rewrite_jsonl(tmp_path / "w" / "projected.jsonl", _shift_first_span)
    else:
        _rewrite_jsonl(tmp_path / "w" / "diagnostics.jsonl", lambda records: records.pop())
    failed, problems = workload.check()
    assert failed >= 1 and problems


def test_prep_check_rejects_corruption(tmp_path):
    workload = workloads.PrepMarkup(tmp_path / "w", seed=5, n_pairs=300)
    _run_once(workload, tmp_path)

    def swap_letters(records):
        records[0]["src_tagged"] = re.sub(r"<(/?)a(/?)>", r"<\1z\2>", records[0]["src_tagged"])

    _rewrite_jsonl(tmp_path / "w" / "corpus" / "train.jsonl", swap_letters)
    failed, problems = workload.check()
    assert failed >= 1 and problems
