from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

import labelproj
from labelproj import (
    DatasetFormat,
    RawMarkupPair,
    Span,
    TaggedText,
    cli,
    codec,
    corpus,
    dump,
    load,
    model,
    prepare_training_corpus,
    read_diagnostics,
)
from labelproj.cli import MAX_SWEEP_CELLS, WINDOW_ROUNDS, build_parser, main, make_backend, make_scorer
from labelproj.backends import (
    MAX_IN_FLIGHT, ConstantScorer, HttpScorerBackend, IdentityBackend, TagDropperBackend, TagShufflerBackend
)

from codec_oracle import oracle_project
from conftest import make_doc
from evaluation_oracle import oracle_cmd_evaluate
from test_acceptance import _random_doc
from test_codec import _Answering


def write_annotated(path, docs):
    dump(docs, path)


def write_raw(path):
    dump([RawMarkupPair("p1", "en", "de", "<b>x</b>", "<b>y</b>")], path)


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


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Every record is a NamedTuple: dataclasses would also pull in inspect, ast, dis and tokenize.
    script = (
        "import sys; before = set(sys.modules); import labelproj.cli; "
        "print(*sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(labelproj.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def test_cli_import_leaves_the_http_stack_unloaded():
    # Only an HTTP backend or scorer needs these; they load on the first request.
    heavy = ["http.client", "urllib.request", "ssl", "concurrent.futures", "_hashlib"]
    script = f"import sys; import labelproj.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(Path(labelproj.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


class _EchoTranslator(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802 (stdlib naming)
        texts = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["texts"]
        data = json.dumps({"translations": texts}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def test_http_project_run_leaves_the_http_stack_unloaded(tmp_path):
    # The client speaks HTTP/1.1 over socket: a plain http:// run needs neither
    # http.client (and email.parser under it) nor ssl.
    write_annotated(tmp_path / "in.jsonl", DOCS)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _EchoTranslator)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    argv = ["project", "-i", str(tmp_path / "in.jsonl"), "-o", str(tmp_path / "out.jsonl"),
            "--backend", f"http://127.0.0.1:{server.server_port}", "--src-lang", "en", "--tgt-lang", "de"]
    heavy = ["http.client", "email.parser", "ssl"]
    script = f"import sys; from labelproj.cli import main; assert main({argv!r}) == 0; print(*[m for m in {heavy!r} if m in sys.modules])"
    env = {key: value for key, value in os.environ.items() if not key.lower().endswith("_proxy")}
    env["PYTHONPATH"] = str(Path(labelproj.__file__).parents[1])
    try:
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    finally:
        server.shutdown()
        server.server_close()
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []
    assert [json.loads(line)["text"] for line in (tmp_path / "out.jsonl").read_text().splitlines()] == [d.text for d in DOCS]


@pytest.mark.parametrize("command", ["project", "synth"])
def test_offline_commands_leave_openssl_unloaded(tmp_path, command):
    # Importing hashlib maps OpenSSL's libcrypto, which only an HTTPS backend needs.
    plain, annotated = tmp_path / "plain.txt", tmp_path / "in.jsonl"
    plain.write_text("John lives in Paris\n")
    write_annotated(annotated, DOCS)
    argv = {
        "project": ["project", "-i", str(annotated), "-o", str(tmp_path / "out.jsonl"), "--backend", "drop:0.3",
                    "--src-lang", "en", "--tgt-lang", "de"],
        "synth": ["synth", "-i", str(plain), "-o", str(tmp_path / "out.jsonl")],
    }[command]
    script = f"import sys; from labelproj.cli import main; assert main({argv!r}) == 0; print('_hashlib' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(labelproj.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]


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


def test_make_scorer_builds_an_http_scorer_for_a_url():
    assert isinstance(make_scorer("http://127.0.0.1:9/v1"), HttpScorerBackend)
    assert isinstance(make_scorer("https://scorer.example"), HttpScorerBackend)


# ------------------------------------------------------------- subcommands

def test_encode_decode_round_trip(tmp_path):
    annotated = tmp_path / "in.jsonl"
    tagged = tmp_path / "tagged.jsonl"
    back = tmp_path / "back.jsonl"
    write_annotated(annotated, DOCS)

    assert main(["encode", "-i", str(annotated), "-o", str(tagged)]) == 0
    assert main(["decode", "-i", str(tagged), "-o", str(back)]) == 0

    docs, _ = load(back, DatasetFormat.ANNOTATED_JSONL)
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
    docs, _ = load(out, DatasetFormat.ANNOTATED_JSONL)
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
    docs, _ = load(out, DatasetFormat.ANNOTATED_JSONL)
    assert docs[0].spans == doc.spans


def test_project_drop_backend_zeroes_projection_rate(tmp_path):
    annotated = tmp_path / "in.jsonl"
    report_path = tmp_path / "report.json"
    write_annotated(annotated, [d for d in DOCS if d.spans])

    for scheme in ("xml", "brackets"):
        code = main([
            "project",
            "-i", str(annotated),
            "-o", str(tmp_path / "projected.jsonl"),
            "--reference", str(annotated),
            "--scheme", scheme,
            "--backend", "drop:1.0",
            "--src-lang", "en",
            "--tgt-lang", "de",
            "--report", "json",
            "--report-out", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["global"]["projection_rate"] == 0.0, scheme


def test_translate_drop_backend_strips_every_bracket(tmp_path):
    annotated, tagged, translated = tmp_path / "in.jsonl", tmp_path / "tagged.jsonl", tmp_path / "out.jsonl"
    write_annotated(annotated, DOCS)
    assert main(["encode", "-i", str(annotated), "-o", str(tagged), "--scheme", "brackets"]) == 0
    assert main([
        "translate", "-i", str(tagged), "-o", str(translated), "--scheme", "brackets",
        "--backend", "drop:1.0", "--src-lang", "en", "--tgt-lang", "de",
    ]) == 0
    before, _ = load(tagged, DatasetFormat.TAGGED_JSONL)
    after, _ = load(translated, DatasetFormat.TAGGED_JSONL)
    assert any("[" in t.tagged for t in before)
    assert not any("[" in t.tagged or "]" in t.tagged for t in after)


@pytest.mark.parametrize("backend", ["identity", "shuffle", "drop:0.5", "http"])
def test_translate_writes_the_target_language(tmp_path, failing_translator, backend):
    annotated, tagged, translated = tmp_path / "in.jsonl", tmp_path / "tagged.jsonl", tmp_path / "out.jsonl"
    write_annotated(annotated, DOCS)
    assert main(["encode", "-i", str(annotated), "-o", str(tagged)]) == 0
    if backend == "http":
        backend = f"http://127.0.0.1:{failing_translator.server_port}"
    assert main([
        "translate", "-i", str(tagged), "-o", str(translated), "--backend", backend, "--src-lang", "en",
        "--tgt-lang", "de",
    ]) == 0
    texts, _ = load(translated, DatasetFormat.TAGGED_JSONL)
    assert [(t.id, t.lang) for t in texts] == [(d.id, "de") for d in DOCS]


@pytest.mark.parametrize(
    "case",
    [
        "duplicate-ids",
        "bad-threshold",
        "missing-reference",
        "duplicate-ids-without-reference",
        "report-out-without-reference",
        "report-without-reference",
        "threshold-without-reference",
        "dataset-without-reference",
    ],
)
def test_project_failure_writes_nothing(tmp_path, capsys, monkeypatch, case):
    batches = []
    original = IdentityBackend.translate_batch
    monkeypatch.setattr(
        IdentityBackend, "translate_batch", lambda self, *args: batches.append(args) or original(self, *args)
    )
    annotated = tmp_path / "in.jsonl"
    write_annotated(annotated, DOCS + [DOCS[0]] if case.startswith("duplicate-ids") else DOCS)
    reference = tmp_path / "absent.jsonl" if case == "missing-reference" else annotated
    out, report = tmp_path / "out.jsonl", tmp_path / "report.json"
    reference_args = [] if case.endswith("without-reference") else ["--reference", str(reference)]
    case_args = {
        "bad-threshold": ["--threshold", "2"],
        # --report-out is named first, whatever else is given.
        "report-out-without-reference": ["--report", "json", "--report-out", str(report), "--threshold", "7"],
        "report-without-reference": ["--report", "json"],
        "threshold-without-reference": ["--threshold", "0.9"],
        "dataset-without-reference": ["--dataset", "foo"],
    }.get(case, [])
    assert main([
        "project", "-i", str(annotated), "-o", str(out), *reference_args,
        "--backend", "identity", "--src-lang", "en", "--tgt-lang", "de", *case_args,
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    if case.endswith("-without-reference") and not case.startswith("duplicate-ids"):
        flag = case.removesuffix("-without-reference")
        assert err == f"error: --{flag} needs --reference: project reports only against a reference\n"
    assert batches == []
    assert not out.exists()
    assert not report.exists()
    assert not (tmp_path / "out.jsonl.diagnostics.jsonl").exists()


@pytest.mark.parametrize("command, aliased", [
    ("decode", ["--diagnostics", "{dir}/./out.jsonl"]),
    ("tagswap", ["--diagnostics", "{dir}/out.jsonl"]),
    ("project", ["--diagnostics", "{dir}/out.jsonl"]),
    ("project", ["--reference", "{dir}/in.jsonl", "--report-out", "{dir}/out.jsonl"]),
    ("project", ["--reference", "{dir}/in.jsonl", "--report-out", "{dir}/out.jsonl.diagnostics.jsonl"]),
], ids=["decode", "tagswap", "project-diagnostics", "project-report-out", "project-report-out-default-diagnostics"])
def test_output_paths_naming_one_file_are_rejected(tmp_path, capsys, command, aliased):
    write_annotated(tmp_path / "in.jsonl", DOCS)
    dump([codec.encode(doc) for doc in DOCS], tmp_path / "tagged.jsonl")
    write_raw(tmp_path / "raw.jsonl")
    inputs = {"decode": "tagged.jsonl", "tagswap": "raw.jsonl", "project": "in.jsonl"}
    backend = ["--backend", "identity", "--src-lang", "en", "--tgt-lang", "de"] if command == "project" else []
    argv = [command, "-i", str(tmp_path / inputs[command]), "-o", str(tmp_path / "out.jsonl"), *backend]
    before = sorted(tmp_path.iterdir())
    assert main([*argv, *(arg.format(dir=tmp_path) for arg in aliased)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "name the same file" in err and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before
    assert main(argv) == 0  # the same run without the aliased path succeeds


def test_project_invalid_utf8_past_the_first_read_writes_nothing(tmp_path, capsys):
    annotated = tmp_path / "in.jsonl"
    write_annotated(annotated, [make_doc("John lives in Paris", [Span("a", 0, 4)], doc_id=str(i)) for i in range(1000)])
    assert annotated.stat().st_size > 64 * 1024
    with annotated.open("ab") as fh:
        fh.write(b'{"id":"x","lang":"en","text":"\xff","spans":[]}\n')
    out = tmp_path / "out.jsonl"
    assert main([
        "project", "-i", str(annotated), "-o", str(out),
        "--backend", "identity", "--src-lang", "en", "--tgt-lang", "de", "--error-budget", "1",
    ]) == 1
    assert f"error: {annotated}: not valid UTF-8" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "out.jsonl.diagnostics.jsonl").exists()


def _count_project_calls(tmp_path, monkeypatch, docs) -> dict[str, int]:
    """Calls of scan_markers and validate while ``project`` runs over ``docs``, with them as the reference too."""
    annotated = tmp_path / "in.jsonl"
    write_annotated(annotated, docs)
    calls = {"scan_markers": 0, "validate": 0}
    for defining, name in ((codec, "scan_markers"), (model, "validate")):
        original = getattr(defining, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in [m for key, m in sys.modules.items() if key.startswith("labelproj")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)

    assert main([
        "project", "-i", str(annotated), "-o", str(tmp_path / "projected.jsonl"),
        "--reference", str(annotated), "--backend", "drop:0.3", "--src-lang", "en", "--tgt-lang", "de",
        "--report", "json", "--report-out", str(tmp_path / "report.json"),
    ]) == 0
    return calls


def test_project_scans_and_validates_each_document_at_most_twice(tmp_path, monkeypatch):
    rng = random.Random(0x5CA7)
    docs = [_random_doc(rng, f"d{i}") for i in range(200)]
    calls = _count_project_calls(tmp_path, monkeypatch, docs)
    # One scan in the dropper and one in decode; one validation per record in
    # each load, of the input and of the reference.
    assert calls["scan_markers"] <= 2 * len(docs)
    assert calls["validate"] == 2 * len(docs)


@pytest.mark.parametrize("doc", [
    make_doc("John and Paris", [Span("a", 0, 4), Span("a", 9, 14), Span("b", 0, 14)]),
    make_doc("if x < y then", [Span("a", 3, 8)]),
    make_doc("John and Paris", [Span("a", 0, 4), Span("b", 9, 14)]),
], ids=["repeated-tag", "angle-bracket", "clean"])
def test_project_validates_each_record_that_may_have_diagnostics_once_per_load(tmp_path, monkeypatch, doc):
    docs = [doc._replace(id=f"d{i}") for i in range(200)]
    assert _count_project_calls(tmp_path, monkeypatch, docs)["validate"] == 2 * len(docs)


# ---------------------------------------------------------- project in windows

# --batch-size 2 --max-in-flight 3: one window, the documents project holds at a time.
WINDOW = 2 * 3 * WINDOW_ROUNDS
WINDOW_FLAGS = ["--batch-size", "2", "--max-in-flight", "3"]


@pytest.mark.parametrize("scheme", ["xml", "brackets"])
@pytest.mark.parametrize("backend", ["drop:0.3", "shuffle"])
def test_project_in_windows_gives_what_one_batch_gives(tmp_path, backend, scheme):
    # The seeded backends draw by each document's position in the whole run, not in its window.
    rng = random.Random(0x3D0C)
    docs = [_random_doc(rng, f"d{i}") for i in range(3 * WINDOW + 5)]
    annotated, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    for n in (WINDOW - 1, WINDOW, WINDOW + 1, 3 * WINDOW + 5):
        dump(docs[:n], annotated)
        assert main([
            "project", "-i", str(annotated), "-o", str(out), "--backend", backend, "--seed", "5", "--scheme", scheme,
            "--src-lang", "en", "--tgt-lang", "de", *WINDOW_FLAGS,
        ]) == 0
        translator = make_backend(backend, 5, 2, 3, codec.MarkerScheme(scheme))
        expected = oracle_project(docs[:n], translator, "en", "de", codec.MarkerScheme(scheme))
        assert load(out, DatasetFormat.ANNOTATED_JSONL)[0] == [doc for doc, *_ in expected]
        _, load_diags = load(annotated, DatasetFormat.ANNOTATED_JSONL)
        groups = [(None, load_diags)] * bool(load_diags) + [(doc.id, diags) for doc, diags, *_ in expected if diags]
        assert read_diagnostics(tmp_path / "out.jsonl.diagnostics.jsonl") == groups


# A small process that spawns its arguments, their stdout discarded, and prints their exit code and peak RSS in
# KiB. On Linux a child's ru_maxrss counts what its parent held when it was spawned, so pytest must not be that parent.
_SPAWN_AND_MEASURE = (
    "import os, sys; pid = os.posix_spawn(sys.executable, sys.argv[1:], os.environ, "
    "file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]); "
    "_, status, usage = os.wait4(pid, 0); print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


def _peak_mib(*cli_args: str) -> float:
    """The peak RSS of ``python -m labelproj.cli CLI_ARGS``, in MiB; the run must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(Path(labelproj.__file__).parents[1]))
    argv = [sys.executable, "-m", "labelproj.cli", *cli_args]
    run = subprocess.run([sys.executable, "-S", "-c", _SPAWN_AND_MEASURE, *argv], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    code, peak_kib = run.stdout.split()
    assert code == "0", run.stderr
    return int(peak_kib) / 1024


@pytest.fixture(scope="module")
def memory_inputs(tmp_path_factory):
    """The directory that holds, for n in 1,000 and 10,000, the first n of 10,000 seeded documents in
    ``{kind}{n}.jsonl``: annotated, encoded, translated by ``drop:0.3`` and as raw markup pairs."""
    root = tmp_path_factory.mktemp("memory")
    rng = random.Random(0x3E3)
    docs = [_random_doc(rng, f"d{i}") for i in range(10_000)]
    sources = [codec.encode(doc) for doc in docs]
    hypotheses = TagDropperBackend(0.3, 0).translate_batch(sources, "en", "de")
    pairs = [RawMarkupPair(s.id, "en", "de", f"<p>{s.tagged}</p>", f"<p>{h.tagged}</p>")
             for s, h in zip(sources, hypotheses)]
    for n in (1_000, 10_000):
        for kind, items in (("annotated", docs), ("source", sources), ("hypothesis", hypotheses), ("raw", pairs)):
            dump(items[:n], root / f"{kind}{n}.jsonl")
    return root


# Each command's argv over the inputs of size {n} in {d}; every one must hold a bounded part of its input.
MEMORY_RUNS = {
    "project": "project -i {d}/annotated{n}.jsonl -o {d}/out.jsonl --reference {d}/annotated{n}.jsonl "
               "--backend drop:0.3 --src-lang en --tgt-lang de --report-out {d}/report.txt --error-budget 0",
    "evaluate": "evaluate --projected {d}/annotated{n}.jsonl --reference {d}/annotated{n}.jsonl "
                "--source-tagged {d}/source{n}.jsonl --hypothesis-tagged {d}/hypothesis{n}.jsonl "
                "--report json --report-out {d}/report.json",
    "encode": "encode -i {d}/annotated{n}.jsonl -o {d}/out.jsonl",
    "decode": "decode -i {d}/hypothesis{n}.jsonl -o {d}/out.jsonl",
    "translate": "translate -i {d}/source{n}.jsonl -o {d}/out.jsonl --backend drop:0.3 --src-lang en --tgt-lang de",
    "stats": "stats -i {d}/annotated{n}.jsonl",
    "tagswap": "tagswap -i {d}/raw{n}.jsonl -o {d}/out.jsonl",
}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
@pytest.mark.parametrize("command", sorted(MEMORY_RUNS))
def test_peak_memory_does_not_grow_with_the_input(memory_inputs, command):
    peak_mib = {n: _peak_mib(*MEMORY_RUNS[command].format(d=memory_inputs, n=n).split()) for n in (1_000, 10_000)}
    # On a 2-core Linux host, holding every document grew project's peak by 32.5 MiB, and evaluate's by 27 MiB;
    # reading one record at a time grows a peak by about 1 MiB, mostly the ids a run keeps.
    assert peak_mib[10_000] - peak_mib[1_000] < 4.0, peak_mib


class _FailingTranslator(BaseHTTPRequestHandler):
    """Echoes each chunk, but answers 400 to a chunk with "FAIL" in a text; counts requests on the server."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802 (stdlib naming)
        texts = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["texts"]
        self.server.requests.append(texts)
        failed = any("FAIL" in text for text in texts)
        data = json.dumps({"error": "no"} if failed else {"translations": texts}).encode("utf-8")
        self.send_response(400 if failed else 200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def failing_translator():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FailingTranslator)
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


# Each class of error project can meet, in the order a run that read both files whole would meet them:
# (exit code, message) when it sits late, at document 13 of 16, in the last of four windows of four.
STREAM_ERRORS = {
    "input": (2, "1 rejected records exceed budget of 0"),
    "reference": (2, "1 rejected records exceed budget of 0"),
    "duplicate-id": (1, "duplicate ids among projected documents"),
    "backend": (1, 'backend returned HTTP 400: {"error": "no"}'),
}
# The same classes, and the report's alignment last, as they are planted early: at document 1, or at the
# reference's first line, where the reference's error is another one.
EARLY_ERRORS = ("reference", "duplicate-id", "backend", "alignment")


def _plant(kind: str, at: int, docs: list, reference: list) -> None:
    """Put an error of class ``kind`` at document ``at`` of ``docs`` and ``reference``, lists of JSONL lines."""
    if kind == "input":
        docs[at] = "not json\n"
    elif kind == "reference":
        reference[at] = '{"id": "x"}\n' if at == 0 else "not json\n"
    elif kind == "duplicate-id":
        docs[at] = docs[at].replace(f'"d{at}"', f'"d{at - 1}"')
    elif kind == "backend":
        docs[at] = docs[at].replace(f'"doc {at}"', f'"doc {at} FAIL"')
    else:
        reference[at] = ""


@pytest.mark.parametrize("late, early", [
    (late, early) for i, late in enumerate(STREAM_ERRORS) for early in EARLY_ERRORS[i:]
])
def test_a_streamed_project_run_reports_the_error_a_whole_read_would(tmp_path, capsys, failing_translator, late, early):
    # The lower-ranked error sits in the first window: the run translates no further window, reads both files to
    # their ends, and fails as a run that read them whole before translating would, leaving every output as it was.
    lines = [json.dumps({"id": f"d{i}", "lang": "en", "text": f"doc {i}", "spans": [{"tag": "a", "start": 0,
                                                                                     "end": 3}]}) + "\n"
             for i in range(16)]
    docs, reference = lines[:], lines[:]
    _plant(late, 13, docs, reference)
    _plant(early, 0 if early == "reference" else 1, docs, reference)
    (tmp_path / "in.jsonl").write_text("".join(docs))
    (tmp_path / "ref.jsonl").write_text("".join(reference))
    outputs = {name: f"old {name}\n".encode() for name in ("out.jsonl", "out.jsonl.diagnostics.jsonl", "report.json")}
    for name, data in outputs.items():
        (tmp_path / name).write_bytes(data)
    code, message = STREAM_ERRORS[late]
    assert main([
        "project", "-i", str(tmp_path / "in.jsonl"), "-o", str(tmp_path / "out.jsonl"),
        "--reference", str(tmp_path / "ref.jsonl"), "--report-out", str(tmp_path / "report.json"),
        "--backend", f"http://127.0.0.1:{failing_translator.server_port}", "--src-lang", "en", "--tgt-lang", "de",
        "--batch-size", "1", "--max-in-flight", "1",
    ]) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert {name: (tmp_path / name).read_bytes() for name in outputs} == outputs
    assert list(tmp_path.glob("*.tmp")) == []
    # After an error no window is translated; only the report's alignment is found after the backend has run.
    if early == "alignment":  # every window before the late error's; its own too if that is the backend's
        sent = {"input": 12, "reference": 0, "duplicate-id": 12, "backend": 14}[late]
    else:  # none, or the first window's up to the failing chunk
        sent = {"reference": 0, "duplicate-id": 0, "backend": 2}[early]
    assert sum(map(len, failing_translator.requests)) == sent


def test_project_sends_the_chunks_one_batch_would(tmp_path, failing_translator):
    rng = random.Random(0xC4)
    docs = [_random_doc(rng, f"d{i}") for i in range(2 * WINDOW + 1)]
    dump(docs, tmp_path / "in.jsonl")
    assert main([
        "project", "-i", str(tmp_path / "in.jsonl"), "-o", str(tmp_path / "out.jsonl"), *WINDOW_FLAGS,
        "--backend", f"http://127.0.0.1:{failing_translator.server_port}", "--src-lang", "en", "--tgt-lang", "de",
    ]) == 0
    texts = [codec.encode(doc).tagged for doc in docs]
    chunks = [texts[i : i + 2] for i in range(0, len(texts), 2)]
    assert sorted(failing_translator.requests) == sorted(chunks)


def _translate_windows(tmp_path, server, texts: list, lines=list) -> int:
    """Run ``translate`` on ``texts``, its input file's lines edited by ``lines``, in windows of ``WINDOW`` against
    ``server``; the exit code."""
    dump(texts, tmp_path / "in.jsonl")
    edited = lines((tmp_path / "in.jsonl").read_text(encoding="utf-8").splitlines(keepends=True))
    (tmp_path / "in.jsonl").write_text("".join(edited), encoding="utf-8")
    return main([
        "translate", "-i", str(tmp_path / "in.jsonl"), "-o", str(tmp_path / "out.jsonl"), *WINDOW_FLAGS,
        "--backend", f"http://127.0.0.1:{server.server_port}", "--src-lang", "en", "--tgt-lang", "de",
    ])


def _windows_of(chunks: list) -> list:
    """``chunks`` of two texts each, grouped by the window of ``WINDOW`` texts they fall in, each group sorted."""
    return [sorted(chunks[i : i + WINDOW // 2]) for i in range(0, len(chunks), WINDOW // 2)]


def test_translate_sends_the_chunks_one_batch_would_window_by_window(tmp_path, failing_translator):
    rng = random.Random(0x7A)
    texts = [codec.encode(_random_doc(rng, f"d{i}")) for i in range(2 * WINDOW + 1)]
    assert _translate_windows(tmp_path, failing_translator, texts) == 0
    chunks = [[t.tagged for t in texts[i : i + 2]] for i in range(0, len(texts), 2)]
    # A window's chunks go out concurrently, but every one of them before any chunk of the next window.
    assert _windows_of(failing_translator.requests) == _windows_of(chunks)
    assert load(tmp_path / "out.jsonl", DatasetFormat.TAGGED_JSONL)[0] == [t._replace(lang="de") for t in texts]


@pytest.mark.parametrize("malformed, code, message", [
    (True, 2, "1 rejected records exceed budget of 0"),
    (False, 1, 'backend returned HTTP 400: {"error": "no"}'),
])
def test_translate_sends_no_window_after_a_backend_error_and_a_later_input_error_wins(
    tmp_path, capsys, failing_translator, malformed, code, message
):
    rng = random.Random(0x7B)
    texts = [codec.encode(_random_doc(rng, f"d{i}")) for i in range(2 * WINDOW + 1)]
    texts[WINDOW + 3] = texts[WINDOW + 3]._replace(tagged=texts[WINDOW + 3].tagged + " FAIL")  # window 2 fails
    (tmp_path / "out.jsonl").write_text("old out.jsonl\n", encoding="utf-8")
    # With ``malformed``, a line that is not JSON opens window 3.
    edit = (lambda lines: [*lines[: 2 * WINDOW], "not json\n", *lines[2 * WINDOW :]]) if malformed else list
    assert _translate_windows(tmp_path, failing_translator, texts, edit) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert (tmp_path / "out.jsonl").read_text(encoding="utf-8") == "old out.jsonl\n"
    assert list(tmp_path.glob("*.tmp")) == []
    sent = [text for chunk in failing_translator.requests for text in chunk]
    assert sorted(sent[:WINDOW]) == sorted(t.tagged for t in texts[:WINDOW])  # window 1, whole
    assert texts[WINDOW + 3].tagged in sent[WINDOW:]  # window 2, up to its failing chunk
    assert texts[2 * WINDOW].tagged not in sent  # window 3, not at all


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
    ["sweep", "-i", "x", "--out-dir", "y", "--error-budget", "1"],
    ["tagswap", "-i", "x", "-o", "y", "--seed", "1"],
    ["tagswap", "-i", "x", "-o", "y", "--scheme", "xml"],
])
def test_flags_a_command_ignores_are_rejected(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


@pytest.mark.parametrize("backend", ["identity", "shuffle", "drop:0.5", "http://127.0.0.1:9"])
@pytest.mark.parametrize("command", ["translate", "project"])
@pytest.mark.parametrize("flag, value", [("--batch-size", "0"), ("--max-in-flight", "-3")])
def test_batch_flags_below_one_are_rejected_before_input_is_read(tmp_path, capsys, backend, command, flag, value):
    out = tmp_path / "out.jsonl"
    argv = [command, "-i", str(tmp_path / "missing.jsonl"), "-o", str(out), "--backend", backend,
            "--src-lang", "en", "--tgt-lang", "de", flag, value]
    assert main(argv) == 2  # as above the cap, and as argparse's own errors
    assert capsys.readouterr().err == f"error: {flag[2:].replace('-', '_')} must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("backend", ["identity", "shuffle", "drop:0.5", "http://127.0.0.1:9"])
@pytest.mark.parametrize("command", ["translate", "project"])
@pytest.mark.parametrize("value", [MAX_IN_FLIGHT + 1, 10**9])
def test_max_in_flight_above_the_cap_exits_2_before_input_is_read(tmp_path, capsys, backend, command, value):
    # Only the refusal is run: each slot of an HTTP backend would be one thread and one connection.
    assert MAX_IN_FLIGHT >= 2  # the benchmark's project-http runs with 2
    out = tmp_path / "out.jsonl"
    argv = [command, "-i", str(tmp_path / "missing.jsonl"), "-o", str(out), "--backend", backend,
            "--src-lang", "en", "--tgt-lang", "de", "--max-in-flight", str(value)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: max_in_flight must be <= {MAX_IN_FLIGHT}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["translate", "project"])
@pytest.mark.parametrize("backend", ["drop:abc", "drop:"])
def test_a_drop_backend_without_a_number_names_the_flag(tmp_path, capsys, command, backend):
    out = tmp_path / "out.jsonl"
    argv = [command, "-i", str(tmp_path / "missing.jsonl"), "-o", str(out), "--backend", backend,
            "--src-lang", "en", "--tgt-lang", "de"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: --backend drop:Q needs a number Q in [0, 1], got {backend!r}\n"
    assert not out.exists()


def test_a_constant_scorer_without_a_number_names_the_flag(tmp_path, capsys):
    qa = tmp_path / "qa.json"
    qa.write_text(json.dumps({"data": [{"paragraphs": [{"context": "ab", "qas": []}]}]}))
    assert main([
        "filter-qa", "--src-json", str(qa), "--tgt-json", str(qa), "--src-lang", "en", "--tgt-lang", "de",
        "--out-dir", str(tmp_path / "qa"), "--scorer", "constant:x",
    ]) == 1
    assert capsys.readouterr().err == "error: --scorer constant:S needs a number S, got 'constant:x'\n"
    assert not (tmp_path / "qa").exists()


def test_filter_qa_checks_its_scorer_before_reading_input(tmp_path, capsys):
    assert main([
        "filter-qa", "--src-json", str(tmp_path / "nope"), "--tgt-json", str(tmp_path / "nope"),
        "--src-lang", "en", "--tgt-lang", "de", "--out-dir", str(tmp_path / "qa"), "--scorer", "bogus:1",
    ]) == 1
    assert capsys.readouterr().err == "error: unrecognized scorer 'bogus:1'\n"
    assert not (tmp_path / "qa").exists()


def _exit_code(argv: list[str]) -> int:
    """``main(argv)``'s exit code, also when argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("case, code, message", [
    ("unrecognized-backend", 1, "error: unrecognized backend 'bogus'"),
    ("source-tagged-alone", 1, "error: --source-tagged and --hypothesis-tagged must be given together"),
    ("tagged-lengths-differ", 1, "error: source/hypothesis tagged files differ in length"),
    ("grid-step-zero", 1, "error: grid step must be positive"),
    ("grid-product-over-cap", 1, f"error: a 101 x 100 grid has more than {MAX_SWEEP_CELLS} cells"),
    ("error-budget-not-a-number", 2, "labelproj encode: error: argument --error-budget: invalid int value: 'x'"),
])
def test_a_refused_run_exits_with_one_error_line_and_writes_nothing(tmp_path, capsys, case, code, message):
    annotated, tagged, plain, out = (tmp_path / name for name in ("in.jsonl", "tagged.jsonl", "plain.txt", "out"))
    write_annotated(annotated, DOCS)
    assert main(["encode", "-i", str(annotated), "-o", str(tagged)]) == 0
    (tmp_path / "short.jsonl").write_text("".join(tagged.read_text().splitlines(keepends=True)[:2]))
    plain.write_text("one two three\n")
    capsys.readouterr()
    evaluate = ["evaluate", "--projected", str(annotated), "--reference", str(annotated), "--report-out", str(out)]
    sweep = ["sweep", "-i", str(plain), "--out-dir", str(out)]
    argv = {
        "unrecognized-backend": ["translate", "-i", str(tagged), "-o", str(out), "--backend", "bogus",
                                 "--src-lang", "en", "--tgt-lang", "de"],
        "source-tagged-alone": [*evaluate, "--source-tagged", str(tagged)],
        "tagged-lengths-differ": [*evaluate, "--source-tagged", str(tagged),
                                  "--hypothesis-tagged", str(tmp_path / "short.jsonl")],
        "grid-step-zero": [*sweep, "--p-open-step", "0"],
        # Each axis is under the cap, 101 and 100 values, but their product is not.
        "grid-product-over-cap": [*sweep, "--p-open-min", "0", "--p-open-max", "1", "--p-open-step", "0.01",
                                  "--p-close-min", "0.01", "--p-close-max", "1", "--p-close-step", "0.01"],
        "error-budget-not-a-number": ["encode", "-i", str(annotated), "-o", str(out), "--error-budget", "x"],
    }[case]
    assert _exit_code(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [message]
    assert not out.exists()


def test_project_ranks_a_short_answer_as_a_backend_error(tmp_path, capsys, monkeypatch):
    # The reference lacks a document too, which would be the report's alignment error, ranked after the backend's.
    annotated, reference, out = tmp_path / "in.jsonl", tmp_path / "ref.jsonl", tmp_path / "out.jsonl"
    write_annotated(annotated, DOCS)
    write_annotated(reference, DOCS[:2])
    monkeypatch.setattr("labelproj.cli.make_backend", lambda *args: _Answering(lambda out: out[:-1]))
    assert main([
        "project", "-i", str(annotated), "-o", str(out), "--reference", str(reference),
        "--backend", "identity", "--src-lang", "en", "--tgt-lang", "de",
    ]) == 1
    assert capsys.readouterr().err == "error: 2 translations returned for 3 texts\n"
    assert not out.exists()


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    [commands] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def _float_flags() -> list[tuple[str, str]]:
    """(command, flag) for every float-typed flag of every subcommand."""
    return [
        (command, max(action.option_strings, key=len))
        for command, parser in _subcommands().items()
        for action in parser._actions
        if action.type is float
    ]


def _valid_run(tmp_path: Path, command: str) -> list[str]:
    """Arguments for a tiny run of ``command`` that succeeds and writes only under tmp_path / "out"."""
    annotated, plain, raw, qa = (tmp_path / name for name in ("in.jsonl", "plain.txt", "raw.jsonl", "qa.json"))
    tagged = tmp_path / "tagged.jsonl"
    write_annotated(annotated, DOCS)
    dump([TaggedText("1", "en", "<a>John</a> lives in <b>Paris</b>")], tagged)
    plain.write_text("John lives in Paris\n")
    write_raw(raw)
    qa.write_text(json.dumps({"data": [{"paragraphs": [{"context": "ab", "qas": []}]}]}))
    out = tmp_path / "out"
    backend = ["--backend", "identity", "--src-lang", "en", "--tgt-lang", "de"]
    return [command, *map(str, {
        "encode": ["-i", annotated, "-o", out / "encoded.jsonl"],
        "decode": ["-i", tagged, "-o", out / "decoded.jsonl"],
        "translate": ["-i", tagged, "-o", out / "translated.jsonl", *backend],
        "tagswap": ["-i", raw, "-o", out / "swapped.jsonl"],
        "stats": ["-i", annotated],
        "synth": ["-i", plain, "-o", out / "synth.jsonl"],
        "prep": ["-i", raw, "--out-dir", out],
        "filter-qa": ["--src-json", qa, "--tgt-json", qa, "--src-lang", "en", "--tgt-lang", "de",
                      "--out-dir", out, "--scorer", "constant:90"],
        "evaluate": ["--projected", annotated, "--reference", annotated, "--report-out", out / "report.txt"],
        "project": ["-i", annotated, "-o", out / "projected.jsonl", "--reference", annotated, *backend],
        "sweep": ["-i", plain, "--out-dir", out],
    }[command])]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", _float_flags())
def test_every_float_flag_rejects_a_non_finite_value(tmp_path, capsys, command, flag, value):
    argv = _valid_run(tmp_path, command)
    assert main([*argv, f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("error:") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert main(argv) == 0  # the same run without the flag succeeds


@pytest.mark.parametrize(
    "command", [c for c, parser in _subcommands().items() if "--error-budget" in parser._option_string_actions]
)
def test_a_negative_error_budget_is_rejected_before_anything_is_written(tmp_path, capsys, command):
    argv = _valid_run(tmp_path, command)
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--error-budget", "-1"])
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"labelproj {command}: error: argument --error-budget: must be >= 0, got -1"
    ]
    assert not (tmp_path / "out").exists()
    assert main([*argv, "--error-budget", "0"]) == 0  # the same run with the least budget succeeds


@pytest.mark.parametrize("command, args, code, outputs", [
    ("encode", ["-i", "{e}", "-o", "{out}/o.jsonl"], 0, ["o.jsonl"]),
    ("decode", ["-i", "{e}", "-o", "{out}/o.jsonl"], 0, ["o.jsonl", "o.jsonl.diagnostics.jsonl"]),
    ("tagswap", ["-i", "{e}", "-o", "{out}/o.jsonl"], 0, ["o.jsonl", "o.jsonl.diagnostics.jsonl"]),
    ("prep", ["-i", "{e}", "--out-dir", "{out}"], 0, ["dev.jsonl", "train.jsonl"]),
    ("translate", ["-i", "{e}", "-o", "{out}/o.jsonl", "--backend", "identity", "--src-lang", "en",
                   "--tgt-lang", "de"], 0, ["o.jsonl"]),
    ("translate", ["-i", "{e}", "-o", "{out}/o.jsonl", "--backend", "http://127.0.0.1:9", "--src-lang", "en",
                   "--tgt-lang", "de"], 0, ["o.jsonl"]),
    ("project", ["-i", "{e}", "-o", "{out}/o.jsonl", "--backend", "drop:0.5", "--src-lang", "en",
                 "--tgt-lang", "de"], 0, ["o.jsonl", "o.jsonl.diagnostics.jsonl"]),
    ("project", ["-i", "{e}", "-o", "{out}/o.jsonl", "--backend", "identity", "--src-lang", "en",
                 "--tgt-lang", "de", "--reference", "{e}"], 1, []),
    ("evaluate", ["--projected", "{e}", "--reference", "{e}", "--report-out", "{out}/r.txt"], 1, []),
    ("stats", ["-i", "{e}"], 0, []),
    ("stats", ["-i", "{e}", "--format", "tagged"], 0, []),
], ids=["encode", "decode", "tagswap", "prep", "translate", "translate-http", "project", "project-reference",
        "evaluate", "stats", "stats-tagged"])
def test_empty_input_gives_empty_output(tmp_path, capsys, command, args, code, outputs):
    empty, out = tmp_path / "empty.jsonl", tmp_path / "out"
    empty.write_text("")
    assert main([command, *(arg.format(e=empty, out=out) for arg in args)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert err == "error: no groups to report on\n"
        assert not out.exists()
    else:
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
        assert [name for name in written if name != "provenance.json"] == outputs
        assert all((out / name).read_text() == "" for name in outputs)


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
    docs, _ = load(out1, DatasetFormat.ANNOTATED_JSONL)
    assert len(docs) == 3  # blank line skipped
    assert docs[0].text == "one two three four"

    assert main([
        "synth", "-i", str(text), "-o", str(tmp_path / "single.jsonl"), "--mode", "single",
    ]) == 0
    docs, _ = load(tmp_path / "single.jsonl", DatasetFormat.ANNOTATED_JSONL)
    assert all(len(d.spans) == 1 for d in docs)


@pytest.mark.parametrize("bad", [False, True], ids=["clean", "one-bad-line"])
@pytest.mark.parametrize("command", ["translate", "stats", "evaluate", "project"])
def test_a_reading_command_reports_its_skipped_records_on_stderr(tmp_path, capsys, command, bad):
    annotated, reference, tagged, out = (tmp_path / name for name in ("in.jsonl", "ref.jsonl", "t.jsonl", "o.jsonl"))
    write_annotated(annotated, DOCS)
    write_annotated(reference, DOCS)
    assert main(["encode", "-i", str(annotated), "-o", str(tagged)]) == 0
    argv, corrupted, err = {
        "translate": (
            ["translate", "-i", str(tagged), "-o", str(out), "--backend", "identity", "--src-lang", "en",
             "--tgt-lang", "de"],
            [tagged],
            f"translated 3 texts -> {out}\n",
        ),
        "stats": (["stats", "-i", str(annotated)], [annotated], ""),
        # project's -i diagnostics go to its sidecar; only the reference's are counted on stderr.
        "project": (
            ["project", "-i", str(annotated), "-o", str(out), "--reference", str(reference), "--backend",
             "identity", "--src-lang", "en", "--tgt-lang", "de"],
            [reference],
            f"projected 3 documents -> {out}\n",
        ),
        "evaluate": (
            ["evaluate", "--projected", str(annotated), "--reference", str(reference),
             "--source-tagged", str(tagged), "--hypothesis-tagged", str(tagged)],
            [annotated, tagged],
            "",
        ),
    }[command]
    if bad:
        for path in corrupted:
            path.write_text(path.read_text() + "not json\n")
        # evaluate reads the corrupted tagged file twice, as source and as hypothesis.
        err += f"{len(corrupted) + (command == 'evaluate')} input diagnostics\n"
    capsys.readouterr()
    assert main([*argv, "--error-budget", "1"]) == 0
    assert capsys.readouterr().err == err


MALFORMED_LINE_2 = (
    '{"severity":"error","code":"MALFORMED_RECORD","message":"line 2: Expecting value: line 1 column 1 (char 0)",'
    '"offset":2}\n'
)


@pytest.mark.parametrize("command, items, own_line", [
    (
        "decode",
        [TaggedText("t1", "en", "<a>John lives"), TaggedText("t2", "en", "<a>ok</a>")],
        '{"severity":"warning","code":"UNCLOSED_OPEN","message":"open marker for \'a\' never closed; span extended'
        ' to end of text","offset":0,"id":"t1"}\n',
    ),
    (
        "tagswap",
        [
            RawMarkupPair("p1", "en", "de", "<b>x</b>", "<b>y</b> <i>z</i>"),
            RawMarkupPair("p2", "en", "de", "<b>x</b>", "<b>y</b>"),
        ],
        '{"severity":"warning","code":"UNMAPPED_TYPE","message":"pair \'p1\': target tag type \'i\' does not occur in'
        ' the source","offset":null,"id":"p1"}\n',
    ),
    (
        "project",
        [make_doc("John <B> Paris", [Span("a", 0, 4)], doc_id="d1"), make_doc("plain", [], doc_id="d2")],
        '{"severity":"info","code":"IGNORED_LITERAL","message":"marker-like substring \'<B>\' left as literal text",'
        '"offset":12,"id":"d1"}\n',
    ),
])
def test_a_sidecar_holds_load_diagnostics_then_each_documents_own(tmp_path, command, items, own_line):
    # Line 2 of the input is unreadable; the first record's output carries its own diagnostic.
    source, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    dump(items, source)
    first, rest = source.read_text().split("\n", 1)
    source.write_text(f"{first}\nnot json\n{rest}")
    argv = [command, "-i", str(source), "-o", str(out), "--error-budget", "1"]
    if command == "project":
        argv += ["--backend", "identity", "--src-lang", "en", "--tgt-lang", "de"]
    assert main(argv) == 0
    assert (tmp_path / "out.jsonl.diagnostics.jsonl").read_text() == MALFORMED_LINE_2 + own_line


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


@pytest.mark.parametrize("flags, message", [
    (["--threshold", "2"], "threshold must be in [0, 1], got 2.0"),
    (["--source-tagged", "tagged.jsonl"], "--source-tagged and --hypothesis-tagged must be given together"),
    (["--hypothesis-tagged", "tagged.jsonl"], "--source-tagged and --hypothesis-tagged must be given together"),
], ids=["bad-threshold", "source-tagged-alone", "hypothesis-tagged-alone"])
def test_evaluate_checks_its_flags_before_it_reads_any_input(tmp_path, capsys, monkeypatch, flags, message):
    # --projected names no file, so a run that read its inputs first would report that instead.
    read = []
    monkeypatch.setattr("labelproj.cli.read_items", lambda path, *args: read.append(path) or iter(()))
    write_annotated(tmp_path / "ref.jsonl", DOCS)
    assert main([
        "evaluate", "--projected", str(tmp_path / "missing.jsonl"), "--reference", str(tmp_path / "ref.jsonl"), *flags,
    ]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert read == []


def test_synth_checks_its_flags_before_it_reads_its_input(tmp_path, capsys, monkeypatch):
    # -i names no file, so a run that read its input first would report that instead.
    loaded = []
    monkeypatch.setattr("labelproj.cli.read_items", lambda path, *args: loaded.append(path))
    assert main(["synth", "-i", str(tmp_path / "missing.txt"), "-o", str(tmp_path / "out.jsonl"), "--p-open", "2"]) == 1
    assert capsys.readouterr().err == "error: p_open must be in [0, 1], got 2.0\n"
    assert loaded == []


def test_prep_checks_its_flags_before_it_reads_its_input(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    assert main(["prep", "-i", str(tmp_path / "missing.jsonl"), "--out-dir", str(out_dir), "--dev-fraction", "1"]) == 1
    assert capsys.readouterr().err == "error: dev_fraction must be in [0, 1), got 1.0\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("second_lang", ["fr", "de"])
def test_evaluate_rejects_a_duplicate_reference_id(tmp_path, capsys, second_lang):
    projected, reference = tmp_path / "projected.jsonl", tmp_path / "reference.jsonl"
    doc = make_doc("John lives in Paris", [Span("a", 0, 4)], doc_id="1", lang="de")
    write_annotated(projected, [doc])
    write_annotated(reference, [doc, make_doc(doc.text, doc.spans, doc_id="1", lang=second_lang)])
    assert main(["evaluate", "--projected", str(projected), "--reference", str(reference)]) == 1
    assert "error: duplicate id '1' on the reference side" in capsys.readouterr().err


def test_evaluate_rejects_a_duplicate_pair_id(tmp_path, capsys):
    annotated, source, hypothesis = tmp_path / "in.jsonl", tmp_path / "source.jsonl", tmp_path / "hypothesis.jsonl"
    write_annotated(annotated, [make_doc("John lives", [Span("a", 0, 4)], doc_id="1")])
    tagged = lambda text: json.dumps({"id": "1", "lang": "en", "tagged_text": text}) + "\n"
    source.write_text(tagged("<a>John</a> lives") * 2)
    hypothesis.write_text(tagged("John lives") + tagged("<a>John</a> lives"))
    assert main([
        "evaluate", "--projected", str(annotated), "--reference", str(annotated),
        "--source-tagged", str(source), "--hypothesis-tagged", str(hypothesis),
    ]) == 1
    assert "error: duplicate ids among source/hypothesis pairs" in capsys.readouterr().err


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


def test_evaluate_checks_pair_ids_only_for_reference_ids(tmp_path, capsys):
    annotated = tmp_path / "in.jsonl"
    write_annotated(annotated, DOCS)
    tagged = tmp_path / "tagged.jsonl"
    assert main(["encode", "-i", str(annotated), "-o", str(tagged)]) == 0
    lines = tagged.read_text().splitlines()
    renamed = lambda line, new_id: json.dumps(dict(json.loads(line), id=new_id))
    source, hypothesis = tmp_path / "source.jsonl", tmp_path / "hypothesis.jsonl"
    argv = [
        "evaluate", "--projected", str(annotated), "--reference", str(annotated),
        "--source-tagged", str(source), "--hypothesis-tagged", str(hypothesis), "--report", "csv",
    ]
    # A pair whose ids differ but belong to no reference document is neither scored nor checked.
    source.write_text("\n".join([*lines, renamed(lines[0], "x1")]) + "\n")
    hypothesis.write_text("\n".join([*lines, renamed(lines[0], "x2")]) + "\n")
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(",1.000000")
    # The same mismatch on a reference id is an alignment error.
    hypothesis.write_text("\n".join([renamed(lines[0], "x2"), *lines[1:], renamed(lines[0], "x2")]) + "\n")
    assert main(argv) == 1
    assert "pair ids differ: '1' vs 'x2'" in capsys.readouterr().err


def _run(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


EVALUATE_FILES = ("projected.jsonl", "ref.jsonl", "src.tagged.jsonl", "hyp.tagged.jsonl")


def _edited(lines: list[str], kind: str, i: int, j: int) -> list[str]:
    """``lines`` with line ``i`` copied over line ``j``, dropped, swapped with line ``j``, the last two swapped, or
    a malformed line put after line ``i``; indices wrap around the file."""
    if kind == "malformed":
        i = i % len(lines) + 1 if lines else 0
        return [*lines[:i], "not json\n", *lines[i:]]
    if len(lines) < 2:
        return lines[:0] if kind == "drop" else lines
    i, j = (-1, -2) if kind == "swap-last" else (i % len(lines), j % len(lines))
    lines = list(lines)
    if kind == "copy":
        lines[j] = lines[i]
    elif kind == "drop":
        del lines[i]
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return lines


SOURCE, HYPOTHESIS = EVALUATE_FILES[2:]
# Each fault the oracle test can plant: the files it edits, alike, and how.
FAULTS = {
    "repeated-projected-id": (["projected.jsonl"], "copy"),
    "missing-projected-id": (["projected.jsonl"], "drop"),
    "repeated-reference-id": (["ref.jsonl"], "copy"),
    "missing-reference-id": (["ref.jsonl"], "drop"),
    "repeated-pair-id": ([SOURCE, HYPOTHESIS], "copy"),
    "short-source": ([SOURCE], "drop"),
    "short-hypothesis": ([HYPOTHESIS], "drop"),
    "pair-ids-differ": ([HYPOTHESIS], "swap"),
    "pair-ids-differ-last": ([HYPOTHESIS], "swap-last"),  # off the reference when the last two pairs are
    **{f"malformed-line-in-{name}": ([name], "malformed") for name in EVALUATE_FILES},
}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), off_reference=st.integers(0, 2),
       faults=st.lists(st.sampled_from(sorted(FAULTS)), max_size=4, unique=True), shuffled=st.booleans(),
       tagged=st.booleans(), budget=st.sampled_from([0, 1]), scheme=st.sampled_from(["xml", "brackets"]),
       report_out=st.booleans())
# Two faults of neighbouring ranks, each of which alone fails the run at seed 3.
@example(3, 5, 0, ["repeated-pair-id", "short-hypothesis"], False, True, 0, "xml", False)
@example(3, 5, 0, ["repeated-pair-id", "pair-ids-differ"], False, True, 0, "xml", False)
@example(3, 5, 0, ["repeated-pair-id", "malformed-line-in-hyp.tagged.jsonl"], False, True, 0, "xml", False)
@example(3, 5, 0, ["repeated-projected-id", "missing-reference-id"], False, True, 0, "xml", False)
def test_evaluate_gives_what_reading_each_input_whole_gave(seed, n, off_reference, faults, shuffled, tagged, budget,
                                                          scheme, report_out):
    # Four consistent files, then planted faults, each at seeded lines.
    rng = random.Random(seed)
    docs = [_random_doc(rng, f"d{i}") for i in range(n)]
    reference = [doc._replace(lang="de") for doc in docs]
    projected = [doc._replace(spans=doc.spans[:rng.randint(0, len(doc.spans))]) for doc in reference]
    extra = [_random_doc(rng, f"x{i}") for i in range(off_reference)]  # pairs with no reference document
    if shuffled:
        rng.shuffle(reference)
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp)
        encoded = lambda items: [codec.encode(doc, codec.MarkerScheme(scheme)) for doc in items]
        inputs = [projected, reference, encoded(docs + extra), encoded(projected + extra)]
        for name, items in zip(EVALUATE_FILES, inputs):
            dump(items, run_dir / name)
        for fault in faults:
            names, kind = FAULTS[fault]
            i, j = rng.randrange(10), rng.randrange(10)
            for name in names:
                lines = (run_dir / name).read_text(encoding="utf-8").splitlines(keepends=True)
                (run_dir / name).write_text("".join(_edited(lines, kind, i, j)), encoding="utf-8")
        paths = [str(run_dir / name) for name in EVALUATE_FILES]
        argv = ["evaluate", "--projected", paths[0], "--reference", paths[1], "--scheme", scheme,
                "--error-budget", str(budget), "--report", "json"]
        argv += ["--source-tagged", paths[2], "--hypothesis-tagged", paths[3]] * tagged
        argv += ["--report-out", str(run_dir / "report.json")] * report_out
        outcomes = []
        for evaluate in (None, oracle_cmd_evaluate):
            with contextlib.ExitStack() as stack:
                if evaluate:
                    stack.enter_context(mock.patch.object(cli, "cmd_evaluate", evaluate))
                outcome = _run(argv)
            written = run_dir / "report.json"
            outcomes.append((*outcome, written.read_text(encoding="utf-8") if written.exists() else None))
            written.unlink(missing_ok=True)
    assert outcomes[0] == outcomes[1]


LITERAL_PREFIXES = ["", "<1> ", "<ab> ", "[ ", "x ] y [ "]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       backend=st.sampled_from(["identity", "shuffle", "drop:0", "drop:0.3", "drop:0.7", "drop:1"]),
       scheme=st.sampled_from(["xml", "brackets"]), batch_size=st.integers(1, 3), max_in_flight=st.integers(1, 3),
       prefixes=st.lists(st.sampled_from(LITERAL_PREFIXES), min_size=12, max_size=12))
def test_staged_projection_scores_what_project_scores(seed, n, backend, scheme, batch_size, max_in_flight, prefixes):
    # project --reference against encode | translate | decode | evaluate --source-tagged --hypothesis-tagged.
    rng = random.Random(seed)
    docs = []
    for i, prefix in zip(range(n), prefixes):
        doc = _random_doc(rng, f"d{i}")
        spans = tuple(s._replace(start=s.start + len(prefix), end=s.end + len(prefix), label=rng.choice([None, "PER"]))
                      for s in doc.spans)
        docs.append(doc._replace(text=prefix + doc.text, spans=spans))
    with tempfile.TemporaryDirectory() as tmp:
        path = lambda name: str(Path(tmp) / name)
        dump(docs, Path(path("in.jsonl")))
        dump([doc._replace(lang="de") for doc in reversed(docs)], Path(path("ref.jsonl")))
        common = ["--scheme", scheme]
        backend_flags = ["--backend", backend, "--seed", "7", "--src-lang", "en", "--tgt-lang", "de",
                         "--batch-size", str(batch_size), "--max-in-flight", str(max_in_flight)]
        report = ["--reference", path("ref.jsonl"), "--report", "json"]
        runs = [
            ["project", "-i", path("in.jsonl"), "-o", path("fused.jsonl"), *backend_flags, *report,
             "--report-out", path("fused.json")],
            ["encode", "-i", path("in.jsonl"), "-o", path("src.tagged.jsonl")],
            ["translate", "-i", path("src.tagged.jsonl"), "-o", path("hyp.tagged.jsonl"), *backend_flags],
            ["decode", "-i", path("hyp.tagged.jsonl"), "-o", path("staged.jsonl")],
            ["evaluate", "--projected", path("staged.jsonl"), *report, "--report-out", path("staged.json"),
             "--source-tagged", path("src.tagged.jsonl"), "--hypothesis-tagged", path("hyp.tagged.jsonl")],
        ]
        for argv in runs:
            assert _run([*argv, *common])[0] == 0, argv
        assert Path(path("staged.json")).read_bytes() == Path(path("fused.json")).read_bytes()
        unlabelled = lambda name: [
            doc._replace(spans=tuple(s._replace(label=None) for s in doc.spans))
            for doc in load(Path(path(name)), DatasetFormat.ANNOTATED_JSONL)[0]
        ]
        assert unlabelled("staged.jsonl") == unlabelled("fused.jsonl")


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


def test_prep_output_loads_back_as_its_corpus(tmp_path):
    raw = tmp_path / "raw.jsonl"
    pairs = [RawMarkupPair(f"p{i}", "en", "de", f"<ph>é{i}</ph> <b>x</b>", f"<b>y</b> <ph>é{i}</ph>") for i in range(12)]
    dump(pairs, raw)
    out_dir = tmp_path / "corpus"
    assert main(["prep", "-i", str(raw), "--out-dir", str(out_dir), "--dev-fraction", "0.25", "--seed", "3"]) == 0
    corpus = prepare_training_corpus(pairs, dev_fraction=0.25, seed=3)
    for name, examples in (("train", corpus.train), ("dev", corpus.dev)):
        back, _ = load(out_dir / f"{name}.jsonl", DatasetFormat.PARALLEL_JSONL)
        assert tuple(back) == examples


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
    [(doc_id, swap_diags)] = read_diagnostics(tmp_path / "swapped.jsonl.diagnostics.jsonl")
    assert doc_id is None and [(d.code, d.offset) for d in swap_diags] == [("MALFORMED_RECORD", 2)]
    assert len((tmp_path / "swapped.jsonl").read_text().splitlines()) == 1


def test_prep_scans_each_markup_side_once(tmp_path, monkeypatch):
    pairs = [
        RawMarkupPair(f"{kind}{i}", "en", "de", src, tgt)
        for i in range(4)
        for kind, src, tgt in (
            ("kept", '<ph class="x">Click</ph> <br/>', "<br/> <ph>Klick</ph>"),
            ("untagged", "plain", "flach"),
            ("unmapped", "<ph>x</ph>", "<ph>y</ph> <extra>z</extra>"),
        )
    ]
    raw = tmp_path / "raw.jsonl"
    dump(pairs, raw)
    pattern, scans = corpus._RAW_TAG_RE, []

    class CountingPattern:
        """The tag pattern, counting each call of any of its methods as one scan."""

        def __getattr__(self, name):
            def counted(*args, **kwargs):
                scans.append(name)
                return getattr(pattern, name)(*args, **kwargs)

            return counted

    monkeypatch.setattr(corpus, "_RAW_TAG_RE", CountingPattern())
    assert main(["prep", "-i", str(raw), "--out-dir", str(tmp_path / "corpus")]) == 0
    assert len(scans) == 2 * len(pairs)


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


@pytest.mark.parametrize("damage", ["bad-byte", "truncated"])
def test_filter_qa_unreadable_tree_names_its_file(tmp_path, capsys, damage):
    good = json.dumps({"data": [{"paragraphs": [{"context": "ab", "qas": []}]}]}).encode()
    src, tgt = tmp_path / "src.json", tmp_path / "tgt.json"
    src.write_bytes(good)
    tgt.write_bytes(good.replace(b"ab", b"a\xffb") if damage == "bad-byte" else good[: len(good) // 2])
    code = main([
        "filter-qa", "--src-json", str(src), "--tgt-json", str(tgt),
        "--src-lang", "en", "--tgt-lang", "de", "--out-dir", str(tmp_path / "qa"), "--no-score-filter",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tgt}: ")
    assert ("not valid UTF-8" if damage == "bad-byte" else "QA JSON does not parse") in err
    assert not (tmp_path / "qa").exists()


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


def test_filter_qa_diagnostics_list_ingest_then_unaligned_then_filter(tmp_path):
    def tree(*paragraphs):
        return {"data": [{"title": "t", "paragraphs": [
            {"context": context, "qas": [{"id": qa_id, "answers": [{"text": text, "answer_start": start}
                                                                   for text, start in answers]}]}
            for qa_id, context, answers in paragraphs
        ]}]}

    src, tgt, out_dir = tmp_path / "src.json", tmp_path / "tgt.json", tmp_path / "qa"
    src.write_text(json.dumps(tree(
        ("q1", "one alpha", [("alpha", 2)]),  # repaired by +2
        ("q2", "two beta", [("beta", 4)]),
        ("qs", "source only", [("only", 7)]),
    )))
    tgt.write_text(json.dumps(tree(
        ("qt", "target only", [("only", 7)]),
        ("q2", "zwei beta", [("zwei", 0), ("beta", 5)]),  # two answers against one: COUNT_MISMATCH
        ("q1", "eins alpha", [("alpha", 9)]),  # repaired by -4
    )))
    assert main([
        "filter-qa", "--src-json", str(src), "--tgt-json", str(tgt), "--src-lang", "en", "--tgt-lang", "de",
        "--out-dir", str(out_dir), "--no-score-filter",
    ]) == 0
    assert (out_dir / "diagnostics.jsonl").read_text().splitlines() == [
        '{"severity":"info","code":"ANSWER_REPAIRED","message":"answer q1: offset shifted by +2","offset":4,'
        '"id":"q1"}',
        '{"severity":"info","code":"ANSWER_REPAIRED","message":"answer q1: offset shifted by -4","offset":5,'
        '"id":"q1"}',
        '{"severity":"warning","code":"UNALIGNED_CONTEXT","message":"no target-side context","offset":null,'
        '"id":"qs"}',
        '{"severity":"warning","code":"UNALIGNED_CONTEXT","message":"no source-side context","offset":null,'
        '"id":"qt"}',
        '{"severity":"warning","code":"COUNT_MISMATCH","message":"pair \'q2\': 1/1 questions/spans vs 1/2",'
        '"offset":null}',
    ]
    assert [json.loads(line)["id"] for line in (out_dir / "kept.src.jsonl").read_text().splitlines()] == ["q1"]


@pytest.mark.parametrize("side", ["source", "target"])
def test_filter_qa_rejects_a_repeated_context_id(tmp_path, capsys, side):
    def tree(*contexts):
        return {"data": [{"title": "X", "paragraphs": [{"context": c, "qas": []}]} for c in contexts]}

    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    once.write_text(json.dumps(tree("Gama one")))
    twice.write_text(json.dumps(tree("Alpha beta", "Gama delta")))  # both contexts get the id X#0
    src, tgt = (twice, once) if side == "source" else (once, twice)
    assert main([
        "filter-qa", "--src-json", str(src), "--tgt-json", str(tgt), "--src-lang", "en", "--tgt-lang", "de",
        "--out-dir", str(tmp_path / "qa"), "--no-score-filter",
    ]) == 1
    assert capsys.readouterr().err == f"error: duplicate context id 'X#0' on the {side} side\n"
    assert not (tmp_path / "qa").exists()


VALID_QA = {"data": [{"title": "t", "paragraphs": [{"context": "alpha beta", "qas": [
    {"id": "q1", "question": "?", "answers": [{"text": "beta", "answer_start": 6}]},
]}]}]}
# Each position in VALID_QA: its path of keys from the root, and the type its value has there.
_QUESTION = ("data", 0, "paragraphs", 0, "qas", 0)
QA_POSITIONS = {
    "tree": ((), dict),
    "data": (("data",), list),
    "article": (("data", 0), dict),
    "title": (("data", 0, "title"), str),
    "paragraphs": (("data", 0, "paragraphs"), list),
    "paragraph": (("data", 0, "paragraphs", 0), dict),
    "context": (("data", 0, "paragraphs", 0, "context"), str),
    "qas": (("data", 0, "paragraphs", 0, "qas"), list),
    "question": (_QUESTION, dict),
    "id": ((*_QUESTION, "id"), str),
    "answers": ((*_QUESTION, "answers"), list),
    "answer": ((*_QUESTION, "answers", 0), dict),
    "text": ((*_QUESTION, "answers", 0, "text"), str),
    "answer_start": ((*_QUESTION, "answers", 0, "answer_start"), int),
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(QA_POSITIONS)), JSON_VALUES, st.booleans())
def test_filter_qa_on_a_wrongly_typed_value_exits_0_or_1_without_a_traceback(
    tmp_path_factory, position, value, on_source
):
    path, expected = QA_POSITIONS[position]
    assume(type(value) is not expected)
    tree = copy.deepcopy(VALID_QA)
    if path:
        parent = tree
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        tree = value
    tmp = tmp_path_factory.mktemp("qa")
    src, tgt, out_dir = tmp / "src.json", tmp / "tgt.json", tmp / "out"
    src.write_text(json.dumps(tree if on_source else VALID_QA))
    tgt.write_text(json.dumps(VALID_QA if on_source else tree))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([
            "filter-qa", "--src-json", str(src), "--tgt-json", str(tgt), "--src-lang", "en", "--tgt-lang", "de",
            "--out-dir", str(out_dir), "--no-score-filter",
        ])
    err = stderr.getvalue()
    assert code in (0, 1)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_dir.exists()


@pytest.mark.parametrize("command", ["synth", "sweep"])
def test_marker_shaped_plain_text_is_reported_as_input_diagnostics(tmp_path, capsys, command):
    text = tmp_path / "plain.txt"
    text.write_text("x <a> y\nplain line\n</b> and <c>\n")
    if command == "synth":
        outputs = ["-o", str(tmp_path / "spans.jsonl")]
    else:
        outputs = ["--out-dir", str(tmp_path / "sweep"), "--p-open-max", "0.2", "--p-close-max", "0.2"]
    assert main([command, "-i", str(text), *outputs]) == 0
    assert capsys.readouterr().err.splitlines()[1:] == ["3 input diagnostics"]


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


def test_sweep_default_grid(tmp_path):
    text = tmp_path / "plain.txt"
    text.write_text("one two three\n")
    assert main(["sweep", "-i", str(text), "--out-dir", str(tmp_path / "sweep")]) == 0
    cells = json.loads((tmp_path / "sweep" / "manifest.json").read_text())["cells"]
    grid = [0.1, 0.2, 0.3, 0.4, 0.5]
    assert [(c["p_open"], c["p_close"]) for c in cells] == [(po, pc) for po in grid for pc in grid]
    assert cells[7]["path"] == "complex_po0.2_pc0.3.jsonl"


@pytest.mark.parametrize("grid", [
    ["--p-open-step", "1e-300"],
    ["--p-open-max", "1e9"],
    ["--p-open-min", "0.5", "--p-open-max", "1.5", "--p-open-step", "0.5"],
    ["--p-open-min", "0.1", "--p-open-max", "0.1000003", "--p-open-step", "0.0000001"],
    ["--p-close-min", "0", "--p-close-max", "0.2"],
], ids=["step-too-small", "bound-too-far", "out-of-range", "names-collide", "p-close-zero"])
def test_sweep_checks_its_whole_grid_before_writing(tmp_path, capsys, grid):
    text = tmp_path / "plain.txt"
    text.write_text("one two three\n")
    assert main(["sweep", "-i", str(text), "--out-dir", str(tmp_path / "sweep"), *grid]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("name", ["p_open", "p_close"])
def test_sweep_rejects_a_reversed_grid_before_reading_input(tmp_path, capsys, name):
    flag = "--" + name.replace("_", "-")
    argv = ["sweep", "-i", str(tmp_path / "missing.txt"), "--out-dir", str(tmp_path / "sweep")]
    assert main([*argv, f"{flag}-min", "0.5", f"{flag}-max", "0.1"]) == 1
    assert capsys.readouterr().err == f"error: {name}_min 0.5 is above {name}_max 0.1\n"
    assert not (tmp_path / "sweep").exists()


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


def test_stats_tagged_counts_markers_in_both_schemes(tmp_path, capsys):
    annotated = tmp_path / "in.jsonl"
    write_annotated(annotated, DOCS)
    rows = {}
    for scheme in ("xml", "brackets"):
        tagged = tmp_path / f"{scheme}.jsonl"
        assert main(["encode", "-i", str(annotated), "-o", str(tagged), "--scheme", scheme]) == 0
        capsys.readouterr()
        argv = ["stats", "-i", str(tagged), "--format", "tagged", "--scheme", scheme, "--report", "json"]
        assert main(argv) == 0
        [rows[scheme]] = json.loads(capsys.readouterr().out)
    annotated_row = {
        "language": "en", "examples": 3, "total_tags": 4, "min_tags": 0, "max_tags": 2,
        "avg_tags": round(4 / 3, 4), "max_unique_tags": 2,
    }
    # Bracket markers are anonymous: every span opens under the one name "".
    assert rows == {"xml": annotated_row, "brackets": {**annotated_row, "max_unique_tags": 1}}


# ------------------------------------------------------------ lone surrogates

LONE = "al\\ud800pha"  # the JSON escape of a lone surrogate, which UTF-8 cannot encode
LINES = {
    "annotated": ['{"id":"1","lang":"en","text":"alpha","spans":[]}', '{"id":"2","lang":"en","text":"%s","spans":[]}'],
    "tagged": ['{"id":"1","lang":"en","tagged_text":"alpha"}', '{"id":"2","lang":"en","tagged_text":"%s"}'],
    "raw": ['{"id":"p1","src_lang":"en","tgt_lang":"de","src_markup":"<b>x</b>","tgt_markup":"<b>y</b>"}',
            '{"id":"p2","src_lang":"en","tgt_lang":"de","src_markup":"%s","tgt_markup":"y"}'],
}
BACKEND = ["--backend", "identity", "--src-lang", "en", "--tgt-lang", "de"]
JSONL_COMMANDS = {
    "encode": ("annotated", ["encode", "-i", "IN", "-o", "OUT/e.jsonl"]),
    "decode": ("tagged", ["decode", "-i", "IN", "-o", "OUT/d.jsonl"]),
    "translate": ("tagged", ["translate", "-i", "IN", "-o", "OUT/t.jsonl", *BACKEND]),
    "project": ("annotated", ["project", "-i", "IN", "-o", "OUT/p.jsonl", *BACKEND]),
    "evaluate": ("annotated", ["evaluate", "--projected", "IN", "--reference", "REF", "--report-out", "OUT/r.txt"]),
    "stats": ("annotated", ["stats", "-i", "IN"]),
    "tagswap": ("raw", ["tagswap", "-i", "IN", "-o", "OUT/s.jsonl"]),
    "prep": ("raw", ["prep", "-i", "IN", "--out-dir", "OUT/corpus"]),
}


@pytest.mark.parametrize("command", sorted(JSONL_COMMANDS))
def test_a_lone_surrogate_in_a_jsonl_record_is_a_malformed_record(tmp_path, capsys, command):
    layout, argv = JSONL_COMMANDS[command]
    good, bad = LINES[layout]
    (tmp_path / "in.jsonl").write_text(f"{good}\n{bad % LONE}\n")
    (tmp_path / "ref.jsonl").write_text(f"{good}\n")
    paths = {"IN": str(tmp_path / "in.jsonl"), "REF": str(tmp_path / "ref.jsonl")}
    argv = [paths.get(a, a).replace("OUT", str(tmp_path / "out")) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: 1 rejected records exceed budget of 0\n"
    assert not (tmp_path / "out").exists()
    assert main([*argv, "--error-budget", "1"]) == 0
    for path in (tmp_path / "out").rglob("*") if (tmp_path / "out").exists() else []:
        if path.is_file():
            path.read_text(encoding="utf-8")  # every output is UTF-8
    assert "Traceback" not in capsys.readouterr().err


def test_a_lone_surrogate_in_a_qa_tree_names_its_file(tmp_path, capsys):
    src, tgt = tmp_path / "src.json", tmp_path / "tgt.json"
    src.write_text('{"data": [{"paragraphs": [{"context": "%s", "qas": []}]}]}' % LONE)
    tgt.write_text('{"data": [{"paragraphs": [{"context": "alpha", "qas": []}]}]}')
    code = main(["filter-qa", "--src-json", str(src), "--tgt-json", str(tgt), "--src-lang", "en", "--tgt-lang", "de",
                 "--out-dir", str(tmp_path / "out"), "--no-score-filter"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {src}: ") and "surrogates not allowed" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["synth", "sweep"])
def test_an_encoded_surrogate_in_plain_text_is_not_utf8(tmp_path, capsys, command):
    # A text file cannot hold a lone surrogate as a character: its UTF-8 form is refused on reading.
    (tmp_path / "in.txt").write_bytes(b"alpha\nal\xed\xa0\x80pha\n")
    out = ["-o", str(tmp_path / "out" / "s.jsonl")] if command == "synth" else ["--out-dir", str(tmp_path / "out")]
    assert main([command, "-i", str(tmp_path / "in.txt"), *out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'in.txt'}: not valid UTF-8") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
