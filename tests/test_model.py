from __future__ import annotations

import json
import re
import time
from collections import namedtuple

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from labelproj import (
    PRF,
    AnnotatedText,
    DatasetFormat,
    Diagnostic,
    DirectedExample,
    EvalReport,
    InsertionMode,
    MarkerConfig,
    PreparedCorpus,
    QaParallelPair,
    RawMarkupPair,
    Span,
    TaggedText,
    encode,
    load,
    validate,
)
from labelproj.corpus import CorpusProvenance
from labelproj.evaluation import ReportRow
from labelproj.model import has_errors, record_type
from labelproj.synth import TokenBoundaryMap

from conftest import make_doc
from model_oracle import oracle_validate


def codes(diags):
    return [d.code for d in diags]


def test_in_bounds_span_is_clean():
    assert validate(make_doc("ab", [Span("a", 0, 2)])) == []


def test_end_past_text_is_offset_oob():
    diags = validate(make_doc("ab", [Span("a", 0, 3)]))
    assert codes(diags) == ["OFFSET_OOB"]


def test_same_name_partial_overlap_is_rejected():
    diags = validate(make_doc("abcd", [Span("a", 0, 2), Span("a", 1, 3)]))
    assert codes(diags) == ["SAME_NAME_OVERLAP"]


@pytest.mark.parametrize(
    "spans",
    [
        [Span("a", 0, 4), Span("a", 1, 3)],  # properly nested
        [Span("a", 0, 2), Span("a", 2, 4)],  # adjacent
        [Span("a", 1, 3), Span("a", 1, 3)],  # identical duplicates
        [Span("a", 2, 2), Span("a", 2, 2)],  # zero-width at the same point
        [Span("a", 0, 3), Span("b", 2, 4)],  # distinct names may overlap
    ],
)
def test_allowed_same_and_distinct_name_layouts(spans):
    assert validate(make_doc("abcd", spans)) == []


def test_empty_and_malformed_tags():
    diags = validate(make_doc("abcd", [Span("", 0, 1), Span("A1", 1, 2)]))
    assert codes(diags) == ["EMPTY_TAG", "BAD_TAG_NAME"]


def test_uppercase_tags_are_rejected():
    doc = make_doc("abcd", [Span("PER", 0, 2), Span("Ab", 2, 4)])
    assert codes(validate(doc)) == ["BAD_TAG_NAME", "BAD_TAG_NAME"]


def test_marker_collision_is_a_warning_not_an_error():
    diags = validate(make_doc("keep <a> literal", []))
    assert codes(diags) == ["MARKER_COLLISION"]
    assert not has_errors(diags)


def test_validate_is_pure_and_deterministic():
    doc = make_doc("abcd", [Span("a", 0, 3), Span("a", 1, 4), Span("", 9, 9)])
    assert validate(doc) == validate(doc)


# Letters, marker punctuation and whole marker-shaped pieces, so texts hold a
# ``<`` that starts no marker as often as one that does.
_TEXT_PIECES = ["a", "b", "x", " ", "<", ">", "/", "<a>", "</a>", "<b>", "<A>", "</>", "<<a>"]


@st.composite
def span_layouts(draw):
    """A short text and up to twelve spans over few tags, so that repeated tags, equal starts and ends,
    zero-width, nested and partly overlapping spans are common; one span in four may fall out of bounds."""
    text = "".join(draw(st.lists(st.sampled_from(_TEXT_PIECES), max_size=10)))
    inside = st.lists(st.integers(0, len(text)), min_size=2, max_size=2).map(sorted)
    anywhere = st.lists(st.integers(-1, len(text) + 1), min_size=2, max_size=2)
    bounds = st.one_of(inside, inside, inside, anywhere)
    tags = st.sampled_from(["a", "a", "a", "b", "b", "ab", "", "A1", "a b"])
    spans = draw(st.lists(st.builds(lambda tag, ends: Span(tag, *ends), tags, bounds), max_size=12))
    return make_doc(text, spans)


@settings(max_examples=500)
@given(span_layouts())
@example(make_doc("abcdef", [Span("a", 0, 4), Span("a", 2, 6), Span("a", 1, 3), Span("a", 3, 5)]))
@example(make_doc("abcdef", [Span("a", 3, 6), Span("a", 0, 4), Span("a", 2, 2), Span("a", 2, 5), Span("a", 1, 5)]))
@example(make_doc("abcdef", [Span("a", 1, 4), Span("a", 1, 4), Span("a", 0, 2), Span("a", 3, 6), Span("a", 4, 4)]))
@example(make_doc("abcdef", [Span("a", 0, 6), Span("a", 1, 5), Span("a", 2, 4), Span("a", 3, 6), Span("a", 0, 3)]))
def test_validate_equals_its_pairwise_oracle(doc):
    assert validate(doc) == oracle_validate(doc)


# ------------------------------------------------- no quadratic work on one document

_SPANS = 40_000


def _seconds(call, *args):
    started = time.perf_counter()
    result = call(*args)
    return result, time.perf_counter() - started


def _load_one_line(tmp_path, doc):
    path = tmp_path / "in.jsonl"
    record = {"id": doc.id, "lang": doc.lang, "text": doc.text, "spans": [span._asdict() for span in doc.spans]}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return _seconds(load, path, DatasetFormat.ANNOTATED_JSONL)


def test_disjoint_same_tag_spans_load_and_encode_in_linear_time(tmp_path):
    doc = make_doc("ab" * _SPANS, [Span("a", 2 * i, 2 * i + 1) for i in range(_SPANS)])
    (items, diagnostics), seconds = _load_one_line(tmp_path, doc)
    assert items == [doc] and diagnostics == [] and seconds < 1
    tagged, seconds = _seconds(encode, doc)
    assert tagged.tagged == "<a>a</a>b" * _SPANS and seconds < 1


def test_nested_same_tag_spans_load_in_linear_time(tmp_path):
    doc = make_doc("ab" * _SPANS, [Span("a", i, 2 * _SPANS - i) for i in range(_SPANS)])
    (items, diagnostics), seconds = _load_one_line(tmp_path, doc)
    assert items == [doc] and diagnostics == [] and seconds < 1


def test_a_chain_of_overlaps_costs_one_step_per_pair():
    doc = make_doc("a" * (_SPANS + 1), [Span("a", i, i + 2) for i in range(_SPANS)])
    diagnostics, seconds = _seconds(validate, doc)
    assert seconds < 1
    assert [d.code for d in diagnostics] == ["SAME_NAME_OVERLAP"] * (_SPANS - 1)
    assert [d.offset for d in diagnostics] == list(range(1, _SPANS))
    assert diagnostics[0].message == "spans 'a' [0, 2) and [1, 3) partially overlap"


def test_clean_documents_always_encode():
    doc = make_doc("some text here", [Span("a", 0, 4), Span("b", 5, 9), Span("a", 5, 9)])
    assert validate(doc) == []
    encode(doc)  # must not raise


def test_spans_sequence_coerces_to_tuple():
    doc = AnnotatedText("d", "en", "ab", [Span("a", 0, 1)])
    assert type(doc.spans) is tuple and doc.spans == (Span("a", 0, 1),)
    assert type(AnnotatedText("d", "en", "ab", spans=iter([Span("a", 0, 1)])).spans) is tuple


def test_span_contract():
    span = Span("a", 0, 1)
    assert span == Span("a", 0, 1, None) and not span != Span("a", 0, 1)
    assert span != ("a", 0, 1, None) and ("a", 0, 1, None) != span
    assert not span == ("a", 0, 1, None) and not ("a", 0, 1, None) == span
    assert hash(span) == hash(("a", 0, 1, None))
    assert hash(Span("per", 2, 5, "PER")) == hash(("per", 2, 5, "PER"))
    with pytest.raises(AttributeError):
        span.start = 3
    assert repr(span) == "Span(tag='a', start=0, end=1, label=None)"
    assert {span, Span("a", 0, 1), Span("a", 0, 1, "PER")} == {Span("a", 0, 1), Span("a", 0, 1, "PER")}
    assert span.length() == 1 and len(span) == 4 and span[0] == "a"
    tag, start, end, label = span
    assert (tag, start, end, label) == ("a", 0, 1, None)


# ------------------------------------------------------------ the records

_PRF = PRF(1, 1, 1, 0.5, 0.5, 0.5)
_PRF_REPR = "PRF(tp=1, fp=1, fn=1, precision=0.5, recall=0.5, f1=0.5)"
_ROW = ReportRow("de", "ds", 1, 2, _PRF, None)
_ROW_REPR = f"ReportRow(language='de', dataset='ds', examples=1, spans=2, prf={_PRF_REPR}, projection_rate=None)"
_PROVENANCE = CorpusProvenance(1, 1, 0, 0, 2, 0, 0.05, 0, 1.0, 1, 1)
_PROVENANCE_REPR = (
    "CorpusProvenance(input_pairs=1, kept_pairs=1, dropped_untagged=0, dropped_unmapped=0, directed_examples=2,"
    " dev_ids=0, dev_fraction=0.05, seed=0, avg_tags_per_pair=1.0, max_tags_per_pair=1, max_unique_tags_per_pair=1)"
)

# Every record type with an instance and the repr a frozen dataclass gave it.
RECORDS = [
    (Span("a", 0, 4, "PER"), "Span(tag='a', start=0, end=4, label='PER')"),
    (
        Diagnostic("error", "OFFSET_OOB", "out of range", 3),
        "Diagnostic(severity='error', code='OFFSET_OOB', message='out of range', offset=3)",
    ),
    (
        AnnotatedText("d1", "en", "John", (Span("a", 0, 4),)),
        "AnnotatedText(id='d1', lang='en', text='John', spans=(Span(tag='a', start=0, end=4, label=None),))",
    ),
    (TaggedText("d1", "en", "<a>x</a>"), "TaggedText(id='d1', lang='en', tagged='<a>x</a>')"),
    (
        RawMarkupPair("p1", "en", "de", "<b>x</b>", "<b>y</b>"),
        "RawMarkupPair(id='p1', src_lang='en', tgt_lang='de', src_markup='<b>x</b>', tgt_markup='<b>y</b>')",
    ),
    (
        DirectedExample("p1", "forward", "en", "de", "x", "y"),
        "DirectedExample(id='p1', direction='forward', src_lang='en', tgt_lang='de', src_tagged='x', tgt_tagged='y')",
    ),
    (_PROVENANCE, _PROVENANCE_REPR),
    (
        PreparedCorpus((), (), (), _PROVENANCE),
        f"PreparedCorpus(train=(), dev=(), dropped=(), provenance={_PROVENANCE_REPR})",
    ),
    (
        QaParallelPair(AnnotatedText("q", "en", "x"), AnnotatedText("q", "de", "y"), 1, 1),
        "QaParallelPair(src=AnnotatedText(id='q', lang='en', text='x', spans=()),"
        " tgt=AnnotatedText(id='q', lang='de', text='y', spans=()), src_questions=1, tgt_questions=1)",
    ),
    (_PRF, _PRF_REPR),
    (_ROW, _ROW_REPR),
    (
        EvalReport((_ROW,), _ROW, 0.5, 0.5, 0.5),
        f"EvalReport(rows=({_ROW_REPR},), total={_ROW_REPR}, macro_precision=0.5, macro_recall=0.5, macro_f1=0.5)",
    ),
    (
        MarkerConfig(InsertionMode.SIMPLE, 0.3),
        "MarkerConfig(mode=<InsertionMode.SIMPLE: 'simple'>, p_open=0.3, p_close=0.5, seed=0, sequential_lengths=False)",
    ),
    (TokenBoundaryMap(((0, 4),)), "TokenBoundaryMap(tokens=((0, 4),))"),
]


@pytest.mark.parametrize("item, expected_repr", RECORDS, ids=[type(item).__name__ for item, _ in RECORDS])
def test_record_contract(item, expected_repr):
    fields = tuple(item)
    assert item == type(item)(*fields) and not item != type(item)(*fields)
    # Equal only to its own type: not to the plain tuple, nor to another record type with the same fields.
    lookalike = record_type(namedtuple(type(item).__name__, item._fields))(*fields)
    for other in (fields, lookalike):
        assert item != other and other != item
        assert not item == other and not other == item
    assert hash(item) == hash(fields)
    for name in (*item._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(item, name, None)
    assert repr(item) == expected_repr


def test_record_types_cover_every_record():
    assert {type(item) for item, _ in RECORDS} == {
        Span, Diagnostic, AnnotatedText, TaggedText, RawMarkupPair, DirectedExample, CorpusProvenance,
        PreparedCorpus, QaParallelPair, PRF, ReportRow, EvalReport, MarkerConfig, TokenBoundaryMap,
    }


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RawMarkupPair("p", "en", "de", "", "<b>y</b>"), "pair 'p': both sides must be non-empty"),
        (lambda: RawMarkupPair("p", "en", "de", "<b>x</b>", ""), "pair 'p': both sides must be non-empty"),
        (
            lambda: QaParallelPair(AnnotatedText("p", "en", "x"), AnnotatedText("q", "de", "y"), 1, 1),
            "sides of 'p' carry different ids",
        ),
        (
            lambda: QaParallelPair(AnnotatedText("p", "en", "x"), AnnotatedText("p", "en", "y"), 1, 1),
            "'p': source and target language are equal",
        ),
        (lambda: MarkerConfig(InsertionMode.SINGLE, 1.5), "p_open must be in [0, 1], got 1.5"),
        (lambda: MarkerConfig(InsertionMode.SINGLE, p_open=-0.1), "p_open must be in [0, 1], got -0.1"),
        (lambda: MarkerConfig(InsertionMode.SINGLE, p_close=0.0), "p_close must be in (0, 1], got 0.0"),
        (lambda: MarkerConfig(mode=InsertionMode.SINGLE, p_close=float("nan")), "p_close must be in (0, 1], got nan"),
        (lambda: MarkerConfig(InsertionMode.SINGLE)._replace(p_close=0.0), "p_close must be in (0, 1], got 0.0"),
        (
            lambda: RawMarkupPair("p", "en", "de", "<b>x</b>", "y")._replace(src_markup=""),
            "pair 'p': both sides must be non-empty",
        ),
        (
            lambda: QaParallelPair(AnnotatedText("p", "en", "x"), AnnotatedText("p", "de", "y"), 1, 1)._replace(
                tgt=AnnotatedText("p", "en", "y")
            ),
            "'p': source and target language are equal",
        ),
    ],
)
def test_validating_records_keep_their_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_replace_keeps_spans_a_tuple():
    doc = AnnotatedText("d", "en", "ab")._replace(spans=[Span("a", 0, 1)])
    assert type(doc.spans) is tuple and doc == AnnotatedText("d", "en", "ab", (Span("a", 0, 1),))
    assert hash(doc) == hash(tuple(doc)) and type(AnnotatedText._make(tuple(doc))) is AnnotatedText


def test_record_defaults():
    assert MarkerConfig(InsertionMode.SINGLE) == MarkerConfig(InsertionMode.SINGLE, 0.2, 0.5, 0, False)
    assert MarkerConfig(InsertionMode.SINGLE)._replace(seed=7).seed == 7
    assert AnnotatedText("d", "en", "t").spans == () and Diagnostic("info", "X", "m").offset is None
    assert Span("a", 0, 1).label is None
