from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import labelproj
from labelproj import DatasetFormat, DatasetHandle, Span, dump, load
from labelproj.cli import main, make_backend, make_scorer
from labelproj.backends import ConstantScorer, IdentityBackend, TagDropperBackend, TagShufflerBackend

from conftest import make_doc


def write_annotated(path, docs):
    dump(docs, DatasetHandle(DatasetFormat.ANNOTATED_JSONL, path=path))


DOCS = [
    make_doc("John lives in Paris", [Span("a", 0, 4), Span("b", 14, 19)], doc_id="1"),
    make_doc("plain sentence", [], doc_id="2"),
    make_doc("the Huguenot population", [Span("a", 0, 23), Span("b", 4, 12)], doc_id="3"),
]


# ------------------------------------------------------------ dependencies

def test_cli_import_loads_only_stdlib_modules():
    # Modules loaded at interpreter start (site hooks, .pth files) are left
    # out: only what importing the CLI adds is checked.
    script = (
        "import sys; before = set(sys.modules); import labelproj.cli; "
        "print(*{m.split('.')[0] for m in set(sys.modules) - before})"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(labelproj.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert "labelproj" in loaded
    assert sorted(loaded - set(sys.stdlib_module_names) - {"labelproj"}) == []


# ------------------------------------------------------------ flag parsing

def test_make_backend_parses_kinds():
    assert isinstance(make_backend("identity", 0, 1, 1), IdentityBackend)
    assert isinstance(make_backend("shuffle", 0, 1, 1), TagShufflerBackend)
    dropper = make_backend("drop:0.25", 7, 1, 1)
    assert isinstance(dropper, TagDropperBackend)
    assert dropper.q == 0.25 and dropper.seed == 7
    http = make_backend("http://host:9", 0, 8, 2)
    assert http.batch_size == 8 and http.max_in_flight == 2


def test_make_backend_env_default(monkeypatch):
    monkeypatch.setenv("LP_BACKEND_URL", "identity")
    assert isinstance(make_backend(None, 0, 1, 1), IdentityBackend)
    monkeypatch.delenv("LP_BACKEND_URL")
    from labelproj import LabelProjError

    with pytest.raises(LabelProjError):
        make_backend(None, 0, 1, 1)


def test_make_scorer_parses_kinds(monkeypatch):
    assert make_scorer(None) is None
    scorer = make_scorer("constant:83")
    assert isinstance(scorer, ConstantScorer) and scorer.value == 83
    monkeypatch.setenv("LP_SCORER_URL", "constant:15")
    assert make_scorer(None).value == 15


# ------------------------------------------------------------- subcommands

def test_encode_decode_round_trip(tmp_path):
    annotated = tmp_path / "in.jsonl"
    tagged = tmp_path / "tagged.jsonl"
    back = tmp_path / "back.jsonl"
    write_annotated(annotated, DOCS)

    assert main(["encode", "-i", str(annotated), "-o", str(tagged)]) == 0
    assert main(["decode", "-i", str(tagged), "-o", str(back)]) == 0

    docs, _ = load(DatasetHandle(DatasetFormat.ANNOTATED_JSONL, path=back))
    assert docs == DOCS
    diag_file = tmp_path / "back.jsonl.diagnostics.jsonl"
    assert diag_file.exists()
    assert diag_file.read_text() == ""


def test_project_identity_reports_perfect_scores(tmp_path, capsys):
    annotated = tmp_path / "in.jsonl"
    out = tmp_path / "projected.jsonl"
    report_path = tmp_path / "report.json"
    write_annotated(annotated, DOCS)

    code = main([
        "project",
        "-i", str(annotated),
        "-o", str(out),
        "--reference", str(annotated),
        "--backend", "identity",
        "--src-lang", "en",
        "--tgt-lang", "de",
        "--report", "json",
        "--report-out", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["global"]["f1"] == 1.0
    assert report["global"]["projection_rate"] == 1.0
    docs, _ = load(DatasetHandle(DatasetFormat.ANNOTATED_JSONL, path=out))
    assert [d.lang for d in docs] == ["de", "de", "de"]
    assert [d.spans for d in docs] == [d.spans for d in DOCS]


def test_project_keeps_source_span_labels(tmp_path):
    annotated = tmp_path / "in.jsonl"
    out = tmp_path / "projected.jsonl"
    doc = make_doc("John lives in Paris", [Span("a", 0, 4, "PER"), Span("b", 14, 19, "LOC")], doc_id="1")
    write_annotated(annotated, [doc])
    assert main([
        "project", "-i", str(annotated), "-o", str(out),
        "--backend", "identity", "--src-lang", "en", "--tgt-lang", "de",
    ]) == 0
    docs, _ = load(DatasetHandle(DatasetFormat.ANNOTATED_JSONL, path=out))
    assert docs[0].spans == doc.spans


def test_project_drop_backend_zeroes_projection_rate(tmp_path):
    annotated = tmp_path / "in.jsonl"
    report_path = tmp_path / "report.json"
    write_annotated(annotated, [d for d in DOCS if d.spans])

    code = main([
        "project",
        "-i", str(annotated),
        "-o", str(tmp_path / "projected.jsonl"),
        "--reference", str(annotated),
        "--backend", "drop:1.0",
        "--src-lang", "en",
        "--tgt-lang", "de",
        "--report", "json",
        "--report-out", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["global"]["projection_rate"] == 0.0


def test_project_uses_env_backend(tmp_path, monkeypatch):
    monkeypatch.setenv("LP_BACKEND_URL", "identity")
    annotated = tmp_path / "in.jsonl"
    write_annotated(annotated, DOCS)
    code = main([
        "project", "-i", str(annotated), "-o", str(tmp_path / "out.jsonl"),
        "--src-lang", "en", "--tgt-lang", "de",
    ])
    assert code == 0


def test_exit_codes(tmp_path):
    annotated = tmp_path / "in.jsonl"
    write_annotated(annotated, DOCS)
    # No backend configured anywhere -> terminal error.
    assert main([
        "project", "-i", str(annotated), "-o", str(tmp_path / "o.jsonl"),
        "--src-lang", "en", "--tgt-lang", "de",
    ]) == 1
    # Same language pair -> terminal error.
    assert main([
        "project", "-i", str(annotated), "-o", str(tmp_path / "o.jsonl"),
        "--backend", "identity", "--src-lang", "en", "--tgt-lang", "en",
    ]) == 1
    # Corrupt record beyond the budget -> exit 2.
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"id":"1","lang":"en","text":"ab","spans":[]}\n{"id":"2","lang":"en","text":"ab","spans":[{"tag":"a","start":0,"end":9}]}\n'
    )
    assert main([
        "project", "-i", str(bad), "-o", str(tmp_path / "o.jsonl"),
        "--backend", "identity", "--src-lang", "en", "--tgt-lang", "de",
    ]) == 2
    # Budget of one tolerates it.
    assert main([
        "project", "-i", str(bad), "-o", str(tmp_path / "o.jsonl"),
        "--backend", "identity", "--src-lang", "en", "--tgt-lang", "de",
        "--error-budget", "1",
    ]) == 0


@pytest.mark.parametrize("argv", [
    ["encode", "-i", "x", "-o", "y", "--seed", "1"],
    ["decode", "-i", "x", "-o", "y", "--seed", "1"],
    ["evaluate", "--projected", "x", "--reference", "y", "--seed", "1"],
    ["stats", "-i", "x", "--seed", "1"],
    ["synth", "-i", "x", "-o", "y", "--scheme", "xml"],
    ["synth", "-i", "x", "-o", "y", "--error-budget", "1"],
    ["translate", "-i", "x", "-o", "y", "--src-lang", "en", "--tgt-lang", "de", "--scheme", "xml"],
    ["sweep", "-i", "x", "--out-dir", "y", "--error-budget", "1"],
    ["tagswap", "-i", "x", "-o", "y", "--seed", "1"],
    ["tagswap", "-i", "x", "-o", "y", "--scheme", "xml"],
])
def test_flags_a_command_ignores_are_rejected(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


def test_synth_deterministic_and_modes(tmp_path):
    text = tmp_path / "plain.txt"
    text.write_text("one two three four\nfive six seven\n\neight\n")
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    for out in (out1, out2):
        assert main([
            "synth", "-i", str(text), "-o", str(out),
            "--mode", "simple", "--seed", "5", "--p-open", "0.8",
        ]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    docs, _ = load(DatasetHandle(DatasetFormat.ANNOTATED_JSONL, path=out1))
    assert len(docs) == 3  # blank line skipped
    assert docs[0].text == "one two three four"

    assert main([
        "synth", "-i", str(text), "-o", str(tmp_path / "single.jsonl"), "--mode", "single",
    ]) == 0
    docs, _ = load(DatasetHandle(DatasetFormat.ANNOTATED_JSONL, path=tmp_path / "single.jsonl"))
    assert all(len(d.spans) == 1 for d in docs)


def test_evaluate_csv_report(tmp_path, capsys):
    annotated = tmp_path / "in.jsonl"
    write_annotated(annotated, DOCS)
    code = main([
        "evaluate", "--projected", str(annotated), "--reference", str(annotated),
        "--report", "csv", "--dataset", "demo",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "language,dataset,examples,spans,tp,fp,fn,precision,recall,f1,projection_rate"
    assert lines[1].startswith("en,demo,3,4,")


def test_evaluate_tagged_inputs_honour_error_budget(tmp_path, capsys):
    annotated = tmp_path / "in.jsonl"
    write_annotated(annotated, DOCS)
    tagged = tmp_path / "tagged.jsonl"
    assert main(["encode", "-i", str(annotated), "-o", str(tagged)]) == 0
    broken = tmp_path / "broken.jsonl"
    broken.write_text(tagged.read_text() + "not json\n")
    argv = [
        "evaluate", "--projected", str(annotated), "--reference", str(annotated),
        "--source-tagged", str(broken), "--hypothesis-tagged", str(tagged), "--report", "csv",
    ]
    assert main(argv) == 2
    assert main(argv + ["--error-budget", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(",1.000000")


def test_tagswap_and_prep(tmp_path):
    raw = tmp_path / "raw.jsonl"
    records = []
    for i in range(10):
        records.append({
            "id": f"p{i}",
            "src_lang": "en",
            "tgt_lang": "de",
            "src_markup": f"<ph>hello{i}</ph> <b>x</b>" if i < 8 else f"plain {i}",
            "tgt_markup": f"<b>y</b> <ph>hallo{i}</ph>" if i < 8 else f"flach {i}",
        })
    raw.write_text("".join(json.dumps(r) + "\n" for r in records))

    swapped = tmp_path / "swapped.jsonl"
    assert main(["tagswap", "-i", str(raw), "-o", str(swapped)]) == 0
    first = json.loads(swapped.read_text().splitlines()[0])
    assert first["src_markup"] == "<a>hello0</a> <b>x</b>"
    assert first["tgt_markup"] == "<b>y</b> <a>hallo0</a>"

    out_dir = tmp_path / "corpus"
    assert main([
        "prep", "-i", str(raw), "--out-dir", str(out_dir), "--dev-fraction", "0.25", "--seed", "3",
    ]) == 0
    train = (out_dir / "train.jsonl").read_text().splitlines()
    dev = (out_dir / "dev.jsonl").read_text().splitlines()
    assert len(train) + len(dev) == 16
    assert len(dev) == 4
    provenance = json.loads((out_dir / "provenance.json").read_text())
    assert provenance["provenance"]["kept_pairs"] == 8
    assert provenance["provenance"]["dropped_untagged"] == 2
    assert {d["reason"] for d in provenance["dropped"]} == {"DROP_UNTAGGED"}


def test_tagswap_and_prep_honour_error_budget(tmp_path, capsys):
    good = {"id": "p1", "src_lang": "en", "tgt_lang": "de", "src_markup": "<b>x</b>", "tgt_markup": "<b>y</b>"}
    raw = tmp_path / "raw.jsonl"
    raw.write_text(json.dumps(good) + "\n{broken json\n")
    out_dir = tmp_path / "corpus"
    prep = ["prep", "-i", str(raw), "--out-dir", str(out_dir)]
    swap = ["tagswap", "-i", str(raw), "-o", str(tmp_path / "swapped.jsonl")]
    for argv in (prep, swap):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
        assert main(argv + ["--error-budget", "1"]) == 0

    read_diags = json.loads((out_dir / "provenance.json").read_text())["read_diagnostics"]
    assert [(d["code"], d["offset"]) for d in read_diags] == [("MALFORMED_RECORD", 2)]
    swap_diags = [json.loads(line) for line in (tmp_path / "swapped.jsonl.diagnostics.jsonl").read_text().splitlines()]
    assert [(d["code"], d["offset"]) for d in swap_diags] == [("MALFORMED_RECORD", 2)]
    assert len((tmp_path / "swapped.jsonl").read_text().splitlines()) == 1


@pytest.mark.parametrize("tree", [
    {"data": [{"paragraphs": [{"qas": []}]}]},
    {"data": [{"paragraphs": [{"context": "ab", "qas": [
        {"id": "q1", "answers": [{"text": "a", "answer_start": None}]},
    ]}]}]},
    {"data": [{"paragraphs": [{"context": "ab", "qas": [
        {"id": "q1", "answers": [{"text": "a", "answer_start": True}]},
    ]}]}]},
    {"data": ["x"]},
    7,
], ids=["no-context", "null-answer-start", "bool-answer-start", "non-object-article", "scalar-tree"])
def test_filter_qa_malformed_tree_exits_1(tmp_path, capsys, tree):
    good = {"data": [{"paragraphs": [{"context": "ab", "qas": []}]}]}
    src = tmp_path / "src.json"
    tgt = tmp_path / "tgt.json"
    src.write_text(json.dumps(tree))
    tgt.write_text(json.dumps(good))
    code = main([
        "filter-qa", "--src-json", str(src), "--tgt-json", str(tgt),
        "--src-lang", "en", "--tgt-lang", "de", "--out-dir", str(tmp_path / "qa"), "--no-score-filter",
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_filter_qa_command(tmp_path):
    def tree(lang_suffix, extra_answer=False):
        answers = [{"text": f"alpha{lang_suffix}", "answer_start": 0}]
        qas = [{"id": "q1", "question": "?", "answers": answers}]
        paragraphs = [{"context": f"alpha{lang_suffix} beta gamma", "qas": qas}]
        qas2 = [{"id": "q2", "question": "?", "answers": answers * (2 if extra_answer else 1)}]
        paragraphs.append({"context": f"alpha{lang_suffix} delta", "qas": qas2})
        return {"data": [{"title": "t", "paragraphs": paragraphs}]}

    src = tmp_path / "src.json"
    tgt = tmp_path / "tgt.json"
    src.write_text(json.dumps(tree("-en")))
    tgt.write_text(json.dumps(tree("-de", extra_answer=True)))

    out_dir = tmp_path / "qa"
    code = main([
        "filter-qa", "--src-json", str(src), "--tgt-json", str(tgt),
        "--src-lang", "en", "--tgt-lang", "de",
        "--out-dir", str(out_dir), "--scorer", "constant:85",
    ])
    assert code == 0
    kept_src = (out_dir / "kept.src.jsonl").read_text().splitlines()
    dropped = [json.loads(line) for line in (out_dir / "dropped.jsonl").read_text().splitlines()]
    assert len(kept_src) == 1  # q2 pair differs in answer count
    assert dropped == [{"id": "q2", "reason": "COUNT_MISMATCH"}]

    # A low constant score drops everything.
    out_dir2 = tmp_path / "qa2"
    assert main([
        "filter-qa", "--src-json", str(src), "--tgt-json", str(tgt),
        "--src-lang", "en", "--tgt-lang", "de",
        "--out-dir", str(out_dir2), "--scorer", "constant:10",
    ]) == 0
    assert (out_dir2 / "kept.src.jsonl").read_text() == ""

    # Scoring disabled keeps the aligned pair without a scorer.
    out_dir3 = tmp_path / "qa3"
    assert main([
        "filter-qa", "--src-json", str(src), "--tgt-json", str(tgt),
        "--src-lang", "en", "--tgt-lang", "de",
        "--out-dir", str(out_dir3), "--no-score-filter",
    ]) == 0
    assert len((out_dir3 / "kept.src.jsonl").read_text().splitlines()) == 1


def test_sweep_grid(tmp_path):
    text = tmp_path / "plain.txt"
    text.write_text("one two three\nfour five six\nseven eight nine\n")
    out_dir = tmp_path / "sweep"
    code = main([
        "sweep", "-i", str(text), "--out-dir", str(out_dir), "--seed", "2",
        "--p-open-min", "0.2", "--p-open-max", "0.4", "--p-open-step", "0.2",
        "--p-close-min", "0.5", "--p-close-max", "0.5", "--p-close-step", "0.1",
    ])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest["cells"]) == 2
    for cell in manifest["cells"]:
        lines = (out_dir / cell["path"]).read_text().splitlines()
        assert len(lines) == 3
        record = json.loads(lines[0])
        assert set(record) == {"id", "lang", "tagged_text"}


def test_stats_command(tmp_path, capsys):
    annotated = tmp_path / "in.jsonl"
    write_annotated(annotated, DOCS)
    assert main(["stats", "-i", str(annotated)]) == 0
    assert capsys.readouterr().out == (
        "language  examples  total_tags  min_tags  max_tags  avg_tags  max_unique_tags\n"
        "--------  --------  ----------  --------  --------  --------  ---------------\n"
        "en        3         4           0         2         1.3333    2              \n"
    )
    assert main(["stats", "-i", str(annotated), "--report", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows == [{
        "language": "en",
        "examples": 3,
        "total_tags": 4,
        "min_tags": 0,
        "max_tags": 2,
        "avg_tags": round(4 / 3, 4),
        "max_unique_tags": 2,
    }]
