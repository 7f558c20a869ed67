"""Golden runs: seeded CLI runs, each reduced to one sha256 over its exit code, stdout, stderr and every file in its
directory. ``tests/test_golden.py`` pins each digest.

Each run calls ``main()`` in-process, with relative paths, in a directory of its own that holds only the inputs
the run's table entry names. A refactor must leave every digest as it is; a change of behaviour re-pins only the
runs it names.

Run as a script, it compares this checkout with another one::

    python3 tests/golden_runs.py --against TREE

For each run it builds the inputs once, here, then runs the run here and again in a subprocess that imports
``labelproj`` from ``TREE/src``, each side in a temporary directory of its own. It prints the name of every run
whose two digests differ, and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import zlib
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

TESTS = Path(__file__).resolve().parent
if __name__ == "__main__":  # as a script, the package of this checkout
    sys.path.insert(0, str(TESTS.parent / "src"))

from labelproj import MarkerScheme, TagDropperBackend, dump, encode
from labelproj.cli import WINDOW_ROUNDS, main

# --batch-size 2 --max-in-flight 3: the documents project holds at a time.
W = 2 * 3 * WINDOW_ROUNDS
SMALL_WINDOWS = ["--batch-size", "2", "--max-in-flight", "3"]
LABELS = [None, "PER", "LOC"]


# Put before every fourth text: a lookalike the XML scheme leaves as literal text, and a bracket of the other.
LITERALS = "<1> [ "


def _docs(n: int) -> list:
    """``n`` seeded documents in English, each span labelled or not; the first ``n`` of any longer draw."""
    from test_acceptance import _random_doc  # not at the top: a run in another tree needs only ``digest``

    rng = random.Random(0x601D)
    docs = []
    for i in range(n):
        doc = _random_doc(rng, f"d{i}")
        shift = len(LITERALS) if i % 4 == 1 else 0
        spans = tuple(s._replace(start=s.start + shift, end=s.end + shift, label=rng.choice(LABELS)) for s in doc.spans)
        docs.append(doc._replace(text=LITERALS[:shift] + doc.text, spans=spans))
    return docs


def _reference(docs: list) -> list:
    """``docs`` in German with neighbours swapped, so the reference comes in a slightly different order."""
    swapped = [docs[i ^ 1] if i ^ 1 < len(docs) else docs[i] for i in range(len(docs))]
    return [doc._replace(lang="de") for doc in swapped]


def _inputs(run_dir, n: int = 40, reference: bool = True, plant: dict | None = None, old_outputs: bool = False):
    """``in.jsonl`` with ``n`` documents, line ``i`` replaced by ``plant[i]`` (an int: a copy of that line); unless
    not ``reference``, ``ref.jsonl`` with the reference of every document not replaced; with ``old_outputs``, the
    outputs of an earlier run, which a failing run must leave as they are."""
    plant = plant or {}
    docs = _docs(n)
    dump(docs, run_dir / "in.jsonl")
    lines = (run_dir / "in.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    for i, line in plant.items():
        lines[i] = lines[line] if isinstance(line, int) else line
    (run_dir / "in.jsonl").write_text("".join(lines), encoding="utf-8")
    if reference:
        dump(_reference([doc for i, doc in enumerate(docs) if i not in plant]), run_dir / "ref.jsonl")
    for name in ("out.jsonl", "out.jsonl.diagnostics.jsonl", "report.json") if old_outputs else ():
        (run_dir / name).write_text(f"old {name}\n", encoding="utf-8")


def _evaluate_inputs(run_dir) -> None:
    docs = _docs(30)
    dump(_reference(docs), run_dir / "ref.jsonl")
    # A projection that lost every third document's last span, in the reference's language.
    dump([doc._replace(lang="de", spans=doc.spans[:-1] if i % 3 == 0 else doc.spans) for i, doc in enumerate(docs)],
         run_dir / "projected.jsonl")
    dump([encode(doc) for doc in docs], run_dir / "src.tagged.jsonl")
    _hypothesis_inputs(run_dir)


def _tagged_inputs(run_dir, scheme: str = "xml", n: int = 30) -> None:
    """``in.tagged.jsonl``: ``n`` documents encoded in ``scheme``."""
    dump([encode(doc, MarkerScheme(scheme)) for doc in _docs(n)], run_dir / "in.tagged.jsonl")


def _qa_inputs(run_dir, count_mismatch: bool = False) -> None:
    """``src.json`` and ``tgt.json``: five contexts a side, four of them paired; with ``count_mismatch``, one pair's
    target holds a question more than its source."""
    def tree(lang: str, ids: list[str]) -> dict:
        paragraphs = []
        for i, context_id in enumerate(ids):
            context = f"{lang} alpha {i} beta gamma"
            extra = count_mismatch and lang == "de" and i == 2
            qas = [{"id": f"{context_id}-{k}", "question": "?", "answers": [{"text": "beta", "answer_start": 3}]}
                   for k in range(1 + (i % 2) + extra)]
            paragraphs.append({"context": context, "qas": qas})
        return {"data": [{"title": context_id, "paragraphs": [paragraph]}
                         for context_id, paragraph in zip(ids, paragraphs)]}

    (run_dir / "src.json").write_text(json.dumps(tree("en", ["a", "b", "c", "d", "s"])), encoding="utf-8")
    (run_dir / "tgt.json").write_text(json.dumps(tree("de", ["a", "b", "c", "d", "t"])), encoding="utf-8")


def _text_inputs(run_dir) -> None:
    """``in.txt``: twelve seeded lines of words, the fifth of them with a marker-shaped substring."""
    rng = random.Random(0x7E47)
    words = ["alpha", "beta", "gamma", "delta", "über", "straße", "东京", "x1", "loop", "<1>"]
    lines = [" ".join(rng.choice(words) for _ in range(rng.randint(1, 9))) for _ in range(12)]
    lines[4] = "see <a>here</a> and there"
    (run_dir / "in.txt").write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def _raw_inputs(run_dir) -> None:
    """``raw.jsonl``: ten raw markup pairs with attributes and self-closing tags, then one pair whose target has a
    tag type its source lacks and one with no tags."""
    pairs = [
        (f"p{i}", f'<b class="k{i}">alpha {i}</b> and <i>beta</i>' + "<br/>" * (i % 3),
         f"<i>beta</i> und <b>alpha {i}</b>" + "<br />" * (i % 3))
        for i in range(10)
    ]
    pairs += [("unmapped", "<b>x</b> y", "<u>x</u> y"), ("untagged", "plain", "schlicht")]
    records = [{"id": i, "src_lang": "en", "tgt_lang": "de", "src_markup": s, "tgt_markup": t} for i, s, t in pairs]
    (run_dir / "raw.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def _hypothesis_inputs(run_dir, scheme: str = "xml") -> None:
    """``hyp.tagged.jsonl``: 30 documents encoded in ``scheme``, with markers dropped by ``drop:0.3``."""
    sources = [encode(doc, MarkerScheme(scheme)) for doc in _docs(30)]
    hypotheses = TagDropperBackend(0.3, 0, MarkerScheme(scheme)).translate_batch(sources, "en", "de")
    dump(hypotheses, run_dir / "hyp.tagged.jsonl")


def _answer(path: str, body: dict) -> dict:
    """The loopback stub's answer, a function of each text alone so that concurrent requests cannot reorder it:
    ``/translate`` drops the first close marker of every text whose CRC-32 is a multiple of 3, and ``/score``
    scores a pair 10 + 20 × the sum of its source's digits."""
    if path == "/translate":
        return {"translations": [
            text.replace("</", "<", 1) if zlib.crc32(text.encode("utf-8")) % 3 == 0 else text for text in body["texts"]
        ]}
    return {"scores": [10.0 + 20.0 * sum(int(c) for c in pair["src"] if c.isdigit()) for pair in body["pairs"]]}


class _StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self) -> None:
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        data = json.dumps(_answer(self.path, body)).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args) -> None:  # a line on stderr would enter the digest
        pass


# An argv item naming the backend or scorer: the URL of a loopback stub started for the run.
STUB = "{stub}"


@contextmanager
def _served(argv: list[str]):
    """``argv`` with ``STUB`` replaced by the URL of a stub that serves for the run; ``argv`` as it is without it."""
    if STUB not in argv:
        yield argv
        return
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield [f"http://127.0.0.1:{server.server_port}" if arg == STUB else arg for arg in argv]
    finally:
        server.shutdown()
        server.server_close()


PROJECT = ["project", "-i", "in.jsonl", "-o", "out.jsonl", "--src-lang", "en", "--tgt-lang", "de", "--seed", "3"]
WITH_REFERENCE = ["--reference", "ref.jsonl"]
EVALUATE = ["evaluate", "--projected", "projected.jsonl", "--reference", "ref.jsonl"]
TAGGED = ["--source-tagged", "src.tagged.jsonl", "--hypothesis-tagged", "hyp.tagged.jsonl"]
TRANSLATE = ["translate", "-i", "in.tagged.jsonl", "-o", "out.tagged.jsonl", "--src-lang", "en", "--seed", "3"]
ENCODE = ["encode", "-i", "in.jsonl", "-o", "out.jsonl"]
DECODE = ["decode", "-i", "hyp.tagged.jsonl", "-o", "out.jsonl"]
SYNTH = ["synth", "-i", "in.txt", "-o", "out.jsonl", "--seed", "3"]
STATS = ["stats", "-i", "in.tagged.jsonl", "--format", "tagged"]
SWEEP = ["sweep", "-i", "in.txt", "--out-dir", "sweep", "--scheme", "brackets", "--seed", "2",
         "--p-open-min", "0.1", "--p-open-max", "0.2", "--p-open-step", "0.1",
         "--p-close-min", "0.3", "--p-close-max", "0.5", "--p-close-step", "0.2"]
FILTER_QA = ["filter-qa", "--src-json", "src.json", "--tgt-json", "tgt.json", "--src-lang", "en", "--tgt-lang", "de",
             "--out-dir", "qa"]

# name -> (argv, inputs): ``inputs(run_dir)`` writes the run's input files.
RUNS = {
    **{
        f"project-{backend}-{scheme}": (
            [*PROJECT, *WITH_REFERENCE, "--backend", backend, "--scheme", scheme], _inputs
        )
        for backend in ("identity", "shuffle", "drop:0.3") for scheme in ("xml", "brackets")
    },
    "project-report-json-file": (
        [*PROJECT, *WITH_REFERENCE, "--backend", "drop:0.3", "--report", "json", "--report-out", "report.json"], _inputs
    ),
    "project-report-csv-stdout": ([*PROJECT, *WITH_REFERENCE, "--backend", "drop:0.3", "--report", "csv"], _inputs),
    "project-report-table-threshold": (
        [*PROJECT, *WITH_REFERENCE, "--backend", "drop:0.3", "--report", "table", "--threshold", "0.8"], _inputs
    ),
    "project-no-reference": ([*PROJECT, "--backend", "drop:0.3"], lambda d: _inputs(d, reference=False)),
    **{
        f"project-size-{n}": (
            [*PROJECT, *WITH_REFERENCE, "--backend", "drop:0.3", *SMALL_WINDOWS], lambda d, n=n: _inputs(d, n)
        )
        for n in (0, W - 1, W, W + 1)
    },
    "project-empty-equal-languages": (
        ["project", "-i", "in.jsonl", "-o", "out.jsonl", "--backend", "identity", "--src-lang", "en", "--tgt-lang", "en"],
        lambda d: _inputs(d, 0, reference=False),
    ),
    "project-error-budget-1": (
        [*PROJECT, *WITH_REFERENCE, "--backend", "drop:0.3", "--error-budget", "1"],
        lambda d: _inputs(d, plant={5: "not json\n"}),
    ),
    "project-duplicate-id": (
        [*PROJECT, *WITH_REFERENCE, "--backend", "identity", *SMALL_WINDOWS],
        lambda d: _inputs(d, plant={W + 3: 3}),
    ),
    "project-late-input-error": (
        [*PROJECT, *WITH_REFERENCE, "--backend", "drop:0.3", *SMALL_WINDOWS, "--report-out", "report.json"],
        lambda d: _inputs(d, plant={W + 3: "not json\n"}, old_outputs=True),
    ),
    **{
        f"translate-{backend}-{scheme}": (
            [*TRANSLATE, "--tgt-lang", "de", "--backend", backend, "--scheme", scheme],
            lambda d, scheme=scheme: _tagged_inputs(d, scheme),
        )
        for backend, scheme in [("identity", "xml"), ("shuffle", "xml"), ("drop:0.3", "xml"), ("drop:0.3", "brackets")]
    },
    "translate-empty": ([*TRANSLATE, "--tgt-lang", "de", "--backend", "drop:0.3"], lambda d: _tagged_inputs(d, n=0)),
    "translate-equal-languages": ([*TRANSLATE, "--tgt-lang", "en", "--backend", "identity"], _tagged_inputs),
    # Both keep every pair, the first because each scores above the default bound, so both give the same bytes.
    "filter-qa-constant-90": ([*FILTER_QA, "--scorer", "constant:90"], _qa_inputs),
    "filter-qa-no-score-filter": ([*FILTER_QA, "--no-score-filter"], _qa_inputs),
    # Every pair that passes the count check scores below the bound.
    "filter-qa-count-mismatch": (
        [*FILTER_QA, "--scorer", "constant:90", "--min-score", "95"], lambda d: _qa_inputs(d, count_mismatch=True)
    ),
    **{
        f"encode-{scheme}": ([*ENCODE, "--scheme", scheme], lambda d: _inputs(d, reference=False))
        for scheme in ("xml", "brackets")
    },
    **{
        f"encode-error-budget-{budget}": (
            [*ENCODE, "--error-budget", str(budget)],
            lambda d: _inputs(d, reference=False, plant={5: "not json\n"}, old_outputs=True),
        )
        for budget in (0, 1)
    },
    "decode-drop:0.3-xml": (DECODE, _hypothesis_inputs),
    "decode-drop:0.3-brackets-diagnostics": (
        [*DECODE, "--scheme", "brackets", "--diagnostics", "diags.jsonl"], lambda d: _hypothesis_inputs(d, "brackets")
    ),
    "synth-single-sequential-lengths": ([*SYNTH, "--mode", "single", "--sequential-lengths"], _text_inputs),
    "synth-simple": ([*SYNTH, "--mode", "simple"], _text_inputs),
    "synth-complex": ([*SYNTH, "--mode", "complex"], _text_inputs),
    "tagswap": (["tagswap", "-i", "raw.jsonl", "-o", "out.jsonl"], _raw_inputs),
    "prep": (["prep", "-i", "raw.jsonl", "--out-dir", "prep", "--dev-fraction", "0.2", "--seed", "1"], _raw_inputs),
    "sweep-brackets": (SWEEP, _text_inputs),
    "stats-annotated-table": (["stats", "-i", "in.jsonl"], lambda d: _inputs(d, reference=False)),
    "stats-tagged-xml-json": ([*STATS, "--report", "json"], _tagged_inputs),
    "stats-tagged-brackets-table": ([*STATS, "--scheme", "brackets"], lambda d: _tagged_inputs(d, "brackets")),
    "project-http": (
        [*PROJECT, *WITH_REFERENCE, "--backend", STUB, *SMALL_WINDOWS, "--report", "json"], _inputs
    ),
    "filter-qa-http": ([*FILTER_QA, "--scorer", STUB, "--min-score", "40"], _qa_inputs),
    "evaluate-json": ([*EVALUATE, "--report", "json"], _evaluate_inputs),
    "evaluate-table": ([*EVALUATE, "--report", "table"], _evaluate_inputs),
    "evaluate-tagged-json": ([*EVALUATE, *TAGGED, "--report", "json"], _evaluate_inputs),
    "evaluate-tagged-table": ([*EVALUATE, *TAGGED, "--report", "table", "--threshold", "0.8"], _evaluate_inputs),
    "evaluate-missing-projected-bad-threshold": (
        ["evaluate", "--projected", "missing.jsonl", "--reference", "ref.jsonl", "--threshold", "2"],
        _evaluate_inputs,
    ),
    "evaluate-missing-projected-source-tagged-alone": (
        ["evaluate", "--projected", "missing.jsonl", "--reference", "ref.jsonl", "--source-tagged", "src.tagged.jsonl"],
        _evaluate_inputs,
    ),
}


def digest(run_dir: Path, argv: list[str]) -> str:
    """The sha256 of one run of ``main(argv)`` in ``run_dir``: its exit code, stdout, stderr, then each file's
    relative path and bytes, in path order."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(run_dir)
    try:
        with _served(argv) as argv, redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    sha = hashlib.sha256()
    for part in (str(code), out.getvalue(), err.getvalue()):
        sha.update(f"{len(part)}:{part}".encode("utf-8"))
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        sha.update(f"{path.relative_to(run_dir).as_posix()}:{len(data)}:".encode("utf-8") + data)
    return sha.hexdigest()


# The other tree's side of one run: the digest of the directory and the argv (as JSON) given after ``-c``.
_THERE = (
    "import json, sys; from pathlib import Path; from golden_runs import digest; "
    "print(digest(Path(sys.argv[1]), json.loads(sys.argv[2])))"
)


def differing_runs(tree: Path) -> list[str]:
    """The names of the runs whose digest in ``tree`` differs from this checkout's, in table order."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(TESTS)])}
    names = []
    for name, (argv, inputs) in RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            built, here, there = (Path(tmp) / side for side in ("inputs", "here", "there"))
            built.mkdir()
            inputs(built)
            for side in (here, there):
                shutil.copytree(built, side)
            ours = digest(here, argv)
            theirs = subprocess.run([sys.executable, "-c", _THERE, str(there), json.dumps(argv)], env=env,
                                    capture_output=True, text=True)
        if theirs.returncode != 0 or theirs.stdout.strip() != ours:
            names.append(name)
            print(name, flush=True)
            sys.stderr.write(theirs.stderr)  # empty unless the run could not be made there
    return names


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the golden runs whose outputs differ in another checkout.")
    parser.add_argument("--against", type=Path, required=True, help="the root of the other checkout")
    differ = differing_runs(parser.parse_args().against.resolve())
    print(f"{len(RUNS)} runs, {len(differ)} differ", file=sys.stderr)
    sys.exit(1 if differ else 0)
