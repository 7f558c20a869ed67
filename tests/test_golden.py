"""Golden pins: one sha256 per seeded CLI run, over its exit code, stdout, stderr and every file in its directory.

Each run calls ``main()`` in-process, with relative paths, in a directory of its own that holds only the inputs
the run's table entry names. A refactor must leave every digest as it is; a change of behaviour re-pins only the
runs it names.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from labelproj import MarkerScheme, TagDropperBackend, dump, encode
from labelproj.cli import WINDOW_ROUNDS, main

from test_acceptance import _random_doc

# --batch-size 2 --max-in-flight 3: the documents project holds at a time.
W = 2 * 3 * WINDOW_ROUNDS
SMALL_WINDOWS = ["--batch-size", "2", "--max-in-flight", "3"]
LABELS = [None, "PER", "LOC"]


# Put before every fourth text: a lookalike the XML scheme leaves as literal text, and a bracket of the other.
LITERALS = "<1> [ "


def _docs(n: int) -> list:
    """``n`` seeded documents in English, each span labelled or not; the first ``n`` of any longer draw."""
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
    sources = [encode(doc) for doc in docs]
    dump(sources, run_dir / "src.tagged.jsonl")
    dump(TagDropperBackend(0.3, 0, MarkerScheme.XML).translate_batch(sources, "en", "de"), run_dir / "hyp.tagged.jsonl")


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


PROJECT = ["project", "-i", "in.jsonl", "-o", "out.jsonl", "--src-lang", "en", "--tgt-lang", "de", "--seed", "3"]
WITH_REFERENCE = ["--reference", "ref.jsonl"]
EVALUATE = ["evaluate", "--projected", "projected.jsonl", "--reference", "ref.jsonl"]
TAGGED = ["--source-tagged", "src.tagged.jsonl", "--hypothesis-tagged", "hyp.tagged.jsonl"]
TRANSLATE = ["translate", "-i", "in.tagged.jsonl", "-o", "out.tagged.jsonl", "--src-lang", "en", "--seed", "3"]
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


PINS = {
    "evaluate-json": "4174de81392d2500a5b4accfb578ae7c24c4bf28b23c8d1c4c5a7a2b8234b15d",
    "evaluate-missing-projected-bad-threshold": "b24a4359ad6d1a40f8e980a57c5c92473c5718bda577277acef7e36e08d35453",
    "evaluate-missing-projected-source-tagged-alone": "4f2d85ad4db56878ac96f411abe65a1cd5a76ccfb167083666c3741b56c83784",
    "evaluate-table": "4baba4753b7496d3800d5a2abdd679deb816c9400608399e98594e6525b6535b",
    "evaluate-tagged-json": "e4bd3bb9bacfbd83fda317d861d9c3e4bcc85859df5ca1aae348cbe88078caff",
    "evaluate-tagged-table": "30fd63529b749f4876ce8fdbffc295fcf3a026ff3fbc4a17a5024e4891836240",
    "filter-qa-constant-90": "aeb9642f7b089ea1f8597b44756a2464a7ddba4c540cef1d72db4b57af9372dd",
    "filter-qa-count-mismatch": "c58f9e005f01862b0e9c94da64eb79d031ee2e71f8035fedd43b4a34d6d0258d",
    "filter-qa-no-score-filter": "aeb9642f7b089ea1f8597b44756a2464a7ddba4c540cef1d72db4b57af9372dd",
    "project-drop:0.3-brackets": "5e2dea28aa26bf78ae9825bafb3ea8f254baf3af297db8878e43b8c7363e9d17",
    "project-drop:0.3-xml": "63e834b9051aec3f6d3ade5c9e5cf7b2ca6b3bcf3d4281dda1d7256551fee3b4",
    "project-duplicate-id": "4b3a779cee090cd98ca2ece0a57ac09c7e921cc4ac72fa20465957d179d86768",
    "project-empty-equal-languages": "ed359bc099ad7272c0570ebf03f3bf83f0ff718cbdfca1393f2a7412e192f520",
    "project-error-budget-1": "643525226f91df0e395bd77907d148e05736bcb02be95ec4152fb3f52fa15011",
    "project-identity-brackets": "c128765acd8ddcab1111ff4bf1b3f59ec542b14dab8b9c2cd94660fdf2ab1d9e",
    "project-identity-xml": "24b81cd403d1503a6ea6ec33ffac452f35d114d03d080f868b995c30109828bd",
    "project-late-input-error": "909b9a859de6d4eb7ab7b73e3e5d61736b11db4768e2283850dba992c4c37cdc",
    "project-no-reference": "59f8728420c960aa0412f82747a3a98e02a11626fa9f8df13f506e3a5b1ac344",
    "project-report-csv-stdout": "0f08c64421651af6d228346d3930f60fc81be0dc8b0f6d14eb23b20d9645c984",
    "project-report-json-file": "1e267731ccccf76e6758438398a87abc200e9fdee2146f156e4d470fab15d16e",
    "project-report-table-threshold": "65912ad15bfec40afa14ce1d770f79fa8195bf5808d99494bcd428ae57fefd2c",
    "project-shuffle-brackets": "8f721cf4ed9568e51f772e80fc6f38b66e0b98c60b8ea48c405545b662ad2a7d",
    "project-shuffle-xml": "82d66f59216987ede82f3b5f57d4e28811cbf67aa74a024b2aa6c4e7ddb8e7af",
    "project-size-0": "11217c6189afbeef8877e9854a91df1523e0364549b5b905c483b30c83f6ef8e",
    "project-size-17": "90b217e833b767f8e34dfdfae0a0c7b233ed0608271bba15ddab9f2d70974751",
    "project-size-18": "8cfa536fb9339ac1c64b1abc4ff110160b306704755c6aaea3b4872430c22ab7",
    "project-size-19": "ea34afc9a90065c1c89ce46ad75688edbc763125a72fb7a1e49dd6abebb4ee66",
    "translate-drop:0.3-brackets": "ca0a6c812cc34e878fd3b0aa930bf1d8b565a27d0f72931ca76f227458c6c071",
    "translate-drop:0.3-xml": "9f519fdd42375c5380a66b25cd80b01096cadd24d1c658fd84417b0b9b6e623c",
    "translate-empty": "cb4b9e358bca7ac0c4285eecfc7bff493fe324ddffea79ac371619c6c825fe8e",
    "translate-equal-languages": "3abad1cd05011e92e78d107f9022eb6e4c6042ff85f060443a68c24171807ca1",
    "translate-identity-xml": "a30b785958523e62951f5b17e15841a710ea311a419864cf0af65849ed45b4b1",
    "translate-shuffle-xml": "13505410a89dd160d258ae88e23e8eb8caaceaee8f96df43c57c455fcda16d49",
}


def run_digest(run_dir, argv: list[str], capsys) -> str:
    """The sha256 of one run of ``main(argv)`` in ``run_dir``: its exit code, stdout, stderr, then each file's
    relative path and bytes, in path order."""
    code = main(argv)
    out, err = capsys.readouterr()
    digest = hashlib.sha256()
    for part in (str(code), out, err):
        digest.update(f"{len(part)}:{part}".encode("utf-8"))
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(run_dir).as_posix()}:{len(data)}:".encode("utf-8") + data)
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_run_is_pinned(tmp_path, monkeypatch, capsys, name):
    argv, inputs = RUNS[name]
    inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert run_digest(tmp_path, argv, capsys) == PINS.get(name), name


def test_every_run_is_pinned():
    assert sorted(PINS) == sorted(RUNS)
