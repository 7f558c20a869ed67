"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers. Runs entirely offline against the
deterministic local backends."""

from __future__ import annotations

import json
import math
import random
import time

from labelproj import (
    DatasetFormat,
    InsertionMode,
    MarkerConfig,
    MarkerScheme,
    Span,
    TaggedText,
    decode,
    dump,
    encode,
    gestalt_ratio,
    insert_markers,
    label_match_f1,
    prepare_training_corpus,
    tag_name,
    tag_swap,
    tokenize_boundaries,
    validate,
)
from labelproj.cli import main
from labelproj.corpus import RawMarkupPair
from labelproj.dataio import ingest_qa, read_qa_tree

from conftest import canon, evaluated_projection_rate, make_doc
from test_similarity import oracle_ratio


def _pass(criterion: int, detail: str) -> None:
    print(f"[PASS] acceptance criterion {criterion}: {detail}")


# Text alphabet without '<' so generated text never collides with the
# marker grammar (collision-bearing documents are excluded from the
# round-trip guarantee by design).
TEXT_ALPHABET = "abcdefgz XYZ0123.;>-éßñ中日ü"

WORDS = ["alpha", "beta", "gamma", "delta", "words", "über", "straße", "东京", "x1", "loop"]


def _assign_tags(rng: random.Random, intervals: list[tuple[int, int]]) -> list[Span]:
    """Random tags from a 24-name pool such that same-name spans stay
    disjoint or properly nested."""
    chosen: dict[str, list[tuple[int, int]]] = {}
    spans: list[Span] = []

    def partial(a, b):
        if not (a[0] < b[1] and b[0] < a[1]):
            return False
        return not (
            (a[0] <= b[0] and b[1] <= a[1]) or (b[0] <= a[0] and a[1] <= b[1])
        )

    for interval in intervals:
        names = [tag_name(i) for i in rng.sample(range(24), 24)]
        for name in names:
            if all(not partial(interval, other) for other in chosen.get(name, ())):
                chosen.setdefault(name, []).append(interval)
                spans.append(Span(name, interval[0], interval[1]))
                break
        # With 24 candidate names a conflict-free one practically always
        # exists; an unassignable interval is simply skipped.
    return spans


def _random_doc(rng: random.Random, doc_id: str):
    length = rng.randint(0, 60)
    text = "".join(rng.choice(TEXT_ALPHABET) for _ in range(length))
    n_random = rng.randint(12, 30) if rng.random() < 0.1 else rng.randint(0, 8)
    intervals = []
    for _ in range(n_random):
        start = rng.randint(0, length)
        end = rng.randint(start, length)
        intervals.append((start, end))
    # Guarantee the structural shapes of interest appear.
    if length >= 5:
        p = rng.randint(0, length - 5)
        shape = rng.randrange(5)
        if shape == 0:  # nesting
            intervals += [(p, p + 5), (p + 1, p + 4)]
        elif shape == 1:  # adjacency
            intervals += [(p, p + 2), (p + 2, p + 5)]
        elif shape == 2:  # distinct-name partial overlap
            intervals += [(p, p + 3), (p + 2, p + 5)]
        elif shape == 3:  # zero-width
            intervals += [(p, p), (p, p + 2)]
        else:  # repeated name, disjoint
            intervals += [(p, p + 1), (p + 3, p + 5)]
    spans = _assign_tags(rng, intervals)
    return make_doc(text, canon(spans), doc_id=doc_id)


def test_criterion_1_codec_round_trip_10k():
    rng = random.Random(0xC0DEC)
    started = time.monotonic()
    total_spans = 0
    for i in range(10_000):
        doc = _random_doc(rng, f"doc{i}")
        assert validate(doc) == []
        total_spans += len(doc.spans)
        back, diags = decode(encode(doc, MarkerScheme.XML), MarkerScheme.XML)
        assert diags == []
        assert back == doc
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _pass(1, f"10,000 documents ({total_spans} spans) round-tripped exactly in {elapsed:.2f}s")


def test_criterion_2_gestalt_matches_brute_force():
    assert gestalt_ratio("abcd", "bcde") == 0.75
    rng = random.Random(0x6E57A17)
    checked = 0
    for _ in range(1000):
        a = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 12)))
        b = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 12)))
        assert gestalt_ratio(a, b) == oracle_ratio(a, b)
        checked += 1
    _pass(2, f"{checked} sampled pairs agree exactly with the brute-force oracle")


def test_criterion_3_metric_fixtures(tmp_path):
    reference = make_doc(
        "Alpha beta gamma",
        [Span("a", 0, 5), Span("b", 6, 10), Span("c", 11, 16)],
        doc_id="r1",
    )
    projected = make_doc(
        "Alpha beta gamma",
        [Span("a", 0, 5), Span("b", 6, 10), Span("d", 0, 5)],
        doc_id="r1",
    )
    prf = label_match_f1([projected], [reference], threshold=0.5)
    assert (prf.tp, prf.fp, prf.fn) == (2, 1, 1)
    for value in (prf.precision, prf.recall, prf.f1):
        assert abs(value - 2 / 3) < 1e-9

    def tt(i, s):
        return TaggedText(str(i), "en", s)

    pairs = [
        (tt(1, "<a>x</a>"), tt(1, "<a>x</a>")),
        (tt(2, "<a>x</a>"), tt(2, "<a>x")),
        (tt(3, "<b>x</b>"), tt(3, "x")),
        (tt(4, "<a>x</a>"), tt(4, "<a>x</a>")),
    ]
    assert evaluated_projection_rate(tmp_path, pairs) == 0.5
    _pass(3, "label-match and projection-rate fixtures reproduced")


def test_criterion_4_sampler_statistics():
    started = time.monotonic()
    sentence = " ".join(f"tok{i}" for i in range(20))
    tmap = tokenize_boundaries(sentence)
    starts = {s: i for i, (s, _) in enumerate(tmap.tokens)}
    ends = {e: i + 1 for i, (_, e) in enumerate(tmap.tokens)}

    single_count = 0
    length_total = 0
    for seed in range(10_000):
        doc = insert_markers(sentence, MarkerConfig(InsertionMode.SINGLE, p_close=0.5, seed=seed))
        if len(doc.spans) == 1:
            single_count += 1
        span = doc.spans[0]
        length_total += ends[span.end] - starts[span.start]
    assert single_count == 10_000
    mean_length = length_total / 10_000
    assert 1.9 <= mean_length <= 2.1

    overlapping = 0
    for seed in range(10_000):
        config = MarkerConfig(InsertionMode.SIMPLE, p_open=0.5, p_close=0.4, seed=seed)
        doc = insert_markers(sentence, config)
        token_spans = [(starts[s.start], ends[s.end]) for s in doc.spans]
        for i in range(len(token_spans)):
            for j in range(i + 1, len(token_spans)):
                a, b = token_spans[i], token_spans[j]
                if a[0] < b[1] and b[0] < a[1]:
                    overlapping += 1
    assert overlapping == 0

    for seed in (0, 1, 2):
        doc = insert_markers(sentence, MarkerConfig(InsertionMode.COMPLEX, p_open=0.0, seed=seed))
        assert doc.spans == ()

    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _pass(
        4,
        f"single 10000/10000, mean length {mean_length:.3f}, zero simple overlaps, "
        f"complex p_open=0 empty, in {elapsed:.2f}s",
    )


def test_criterion_5_corpus_prep_fixture(tmp_path):
    pairs = []
    for i in range(80):
        pairs.append(
            RawMarkupPair(
                f"t{i}", "en", "de",
                f"<ph>word{i}</ph> and <uicontrol>btn</uicontrol>",
                f"<uicontrol>knopf</uicontrol> und <ph>wort{i}</ph>",
            )
        )
    for i in range(20):
        pairs.append(RawMarkupPair(f"u{i}", "en", "de", f"plain {i}", f"flach {i}"))

    runs = []
    for _ in range(2):
        corpus = prepare_training_corpus(pairs, dev_fraction=0.05, seed=13)
        assert corpus.provenance.kept_pairs == 80
        assert corpus.provenance.dropped_untagged == 20
        assert len(corpus.train) + len(corpus.dev) == 160
        assert len(corpus.dev) == 8  # ceil(.05 * 80) = 4 ids x 2 directions
        out = tmp_path / f"run{len(runs)}.jsonl"
        dump(corpus.train + corpus.dev, out)
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]

    swapped, diags = tag_swap(
        RawMarkupPair(
            "f1", "en", "de",
            "<ph>Click</ph> <uicontrol>Save</uicontrol> then <ph>exit</ph>",
            "<ph>Klicken</ph> <uicontrol>Speichern</uicontrol> dann <ph>beenden</ph>",
        )
    )
    assert swapped.src_markup == "<a>Click</a> <b>Save</b> then <a>exit</a>"
    assert swapped.tgt_markup == "<a>Klicken</a> <b>Speichern</b> dann <a>beenden</a>"
    assert diags == []
    _pass(5, "160 directed examples, 8 in dev, byte-identical reruns, tag swap exact")


def test_criterion_6_end_to_end_project(tmp_path):
    started = time.monotonic()
    rng = random.Random(0xE2E)
    docs = []
    for i in range(10_000):
        n_tokens = rng.randint(3, 12)
        sentence = " ".join(rng.choice(WORDS) for _ in range(n_tokens))
        config = MarkerConfig(
            InsertionMode.COMPLEX, p_open=0.2, p_close=0.5, seed=rng.getrandbits(48)
        )
        docs.append(insert_markers(sentence, config, doc_id=f"s{i}", lang="en"))

    annotated = tmp_path / "synthetic.jsonl"
    dump(docs, annotated)

    report_path = tmp_path / "identity.json"
    code = main([
        "project", "-i", str(annotated), "-o", str(tmp_path / "projected.jsonl"),
        "--reference", str(annotated), "--backend", "identity",
        "--src-lang", "en", "--tgt-lang", "de",
        "--report", "json", "--report-out", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["global"]["f1"] == 1.0
    assert report["global"]["projection_rate"] == 1.0

    q = 0.5
    drop_report = tmp_path / "drop.json"
    code = main([
        "project", "-i", str(annotated), "-o", str(tmp_path / "dropped.jsonl"),
        "--reference", str(annotated), "--backend", f"drop:{q}", "--seed", "99",
        "--src-lang", "en", "--tgt-lang", "de",
        "--report", "json", "--report-out", str(drop_report),
    ])
    assert code == 0
    measured = json.loads(drop_report.read_text())["global"]["projection_rate"]
    survive = [(1 - q) ** len(doc.spans) for doc in docs]
    expected = sum(survive) / len(survive)
    stderr = math.sqrt(sum(p * (1 - p) for p in survive)) / len(survive)
    assert abs(measured - expected) <= 3 * stderr

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _pass(
        6,
        f"identity F1=1.0 rate=1.0; drop(q=0.5) rate {measured:.4f} vs analytic "
        f"{expected:.4f} (3se={3 * stderr:.4f}), total {elapsed:.1f}s",
    )


def test_criterion_7_qa_ingestion_repair(tmp_path):
    tree = {
        "data": [{
            "title": "fixture",
            "paragraphs": [{
                "context": "The Eiffel Tower stands in Paris beside the Seine.",
                "qas": [
                    {"id": "q1", "question": "what?", "answers": [
                        {"text": "Eiffel Tower", "answer_start": 5}  # off by one
                    ]},
                    {"id": "q2", "question": "where?", "answers": [
                        {"text": "Paris", "answer_start": 27},
                        {"text": "Seine", "answer_start": 44},
                    ]},
                ],
            }],
        }]
    }
    path = tmp_path / "qa.json"
    path.write_text(json.dumps(tree))
    [(doc, _, diags)] = ingest_qa(read_qa_tree(path), "en")
    assert [s.tag for s in doc.spans] == ["a", "b", "c"]
    assert doc.span_text(doc.spans[0]) == "Eiffel Tower"
    assert doc.spans[0].start == 4  # repaired from the stated 5
    assert [d.code for d in diags] == ["ANSWER_REPAIRED"]
    assert doc.span_text(doc.spans[1]) == "Paris"
    assert doc.span_text(doc.spans[2]) == "Seine"
    _pass(7, "off-by-one answer repaired and flagged; tags follow answer order")
