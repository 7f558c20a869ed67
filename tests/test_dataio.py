from __future__ import annotations

import copy
import itertools
import json
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from labelproj import (
    AnnotatedText,
    DatasetFormat,
    Diagnostic,
    ErrorBudgetExceeded,
    DirectedExample,
    FormatError,
    RawMarkupPair,
    Span,
    TaggedText,
    dump,
    ingest_qa,
    load,
    read_diagnostics,
)
from labelproj import dataio
from labelproj.dataio import read_qa_tree

from conftest import make_doc
from dataio_oracle import oracle_parse_annotated


@pytest.fixture
def dataset_file(tmp_path):
    """Write ``content`` to a new file and return its path."""
    names = (tmp_path / f"in{i}.jsonl" for i in itertools.count())

    def make(content: str) -> Path:
        path = next(names)
        path.write_bytes(content.encode("utf-8"))
        return path

    return make


ANNOTATED_LINE = '{"id":"d1","lang":"en","text":"ab","spans":[{"tag":"a","start":0,"end":2,"label":null}]}'


# --------------------------------------------------------------------- load

def test_load_annotated_single_record(dataset_file):
    docs, diags = load(dataset_file(ANNOTATED_LINE + "\n"), DatasetFormat.ANNOTATED_JSONL)
    assert docs == [make_doc("ab", [Span("a", 0, 2)], doc_id="d1")]
    assert diags == []


def test_load_skips_invalid_span_record_within_budget(dataset_file):
    bad = '{"id":"d2","lang":"en","text":"ab","spans":[{"tag":"a","start":0,"end":9,"label":null}]}'
    docs, diags = load(dataset_file(ANNOTATED_LINE + "\n" + bad + "\n"), DatasetFormat.ANNOTATED_JSONL, error_budget=1)
    assert [d.id for d in docs] == ["d1"]
    assert [d.code for d in diags] == ["OFFSET_OOB"]
    assert diags[0].offset == 2  # line number of the failing record


def test_load_budget_zero_aborts_on_first_bad_record(dataset_file):
    bad = '{"id":"d2","lang":"en","text":"ab","spans":[{"tag":"a","start":0,"end":9}]}'
    with pytest.raises(ErrorBudgetExceeded):
        load(dataset_file(ANNOTATED_LINE + "\n" + bad + "\n"), DatasetFormat.ANNOTATED_JSONL)


DEEP_LINE = ANNOTATED_LINE.replace('"spans":[', '"spans":' + "[" * 5000 + "[").replace("]}", "]" * 5000 + "]}")


@pytest.mark.parametrize("bad", ["{oops", DEEP_LINE], ids=["truncated", "nested-too-deeply"])
def test_load_unparseable_line_counts_against_budget(dataset_file, bad):
    content = ANNOTATED_LINE + "\n" + bad + "\n" + ANNOTATED_LINE.replace("d1", "d3") + "\n"
    with pytest.raises(ErrorBudgetExceeded):
        load(dataset_file(content), DatasetFormat.ANNOTATED_JSONL)
    docs, diags = load(dataset_file(content), DatasetFormat.ANNOTATED_JSONL, error_budget=1)
    assert [d.id for d in docs] == ["d1", "d3"]
    assert [(d.code, d.offset) for d in diags] == [("MALFORMED_RECORD", 2)]


def test_load_rejects_wrong_format_on_first_record(dataset_file):
    with pytest.raises(FormatError):
        load(dataset_file('{"id":"x","tagged_text":"y"}\n'), DatasetFormat.ANNOTATED_JSONL)
    with pytest.raises(FormatError):
        load(dataset_file(ANNOTATED_LINE + "\n"), DatasetFormat.TAGGED_JSONL)


def test_load_plain_text_lines(dataset_file):
    items, diags = load(dataset_file("one\ntwo\n\nfour\n"), DatasetFormat.PLAIN_TEXT)
    assert [t.tagged for t in items] == ["one", "two", "", "four"]
    assert [t.id for t in items] == ["1", "2", "3", "4"]
    assert all(t.lang == "" for t in items)
    assert diags == []


def test_load_plain_text_warns_of_each_marker_shaped_substring_with_its_line(dataset_file):
    items, diags = load(dataset_file("x <a> y\nplain <1>\n</b><ab>\n"), DatasetFormat.PLAIN_TEXT)
    assert [t.tagged for t in items] == ["x <a> y", "plain <1>", "</b><ab>"]
    assert diags == [
        Diagnostic("warning", "MARKER_COLLISION", "line 1: text contains marker-shaped substring '<a>'", 1),
        Diagnostic("warning", "MARKER_COLLISION", "line 3: text contains marker-shaped substring '</b>'", 3),
        Diagnostic("warning", "MARKER_COLLISION", "line 3: text contains marker-shaped substring '<ab>'", 3),
    ]


def test_load_devtest_sized_plain_text_has_empty_signatures(dataset_file):
    from labelproj import signature

    content = "".join(f"sentence number {i}\n" for i in range(1012))
    items, _ = load(dataset_file(content), DatasetFormat.PLAIN_TEXT)
    assert len(items) == 1012
    assert all(signature(t).total() == 0 for t in items[:20])


PARALLEL_LINE = (
    '{"id":"p1","direction":"forward","src_lang":"en","tgt_lang":"de","src_tagged":"<a>x</a>","tgt_tagged":"<a>y</a>"}'
)


def test_load_parallel_records(dataset_file):
    items, _ = load(dataset_file(PARALLEL_LINE + "\n"), DatasetFormat.PARALLEL_JSONL)
    assert items == [DirectedExample("p1", "forward", "en", "de", "<a>x</a>", "<a>y</a>")]


def test_dump_parallel_writes_prep_field_order(tmp_path, dataset_file):
    items, _ = load(dataset_file(PARALLEL_LINE + "\n"), DatasetFormat.PARALLEL_JSONL)
    out = tmp_path / "out.jsonl"
    dump(items, out)
    assert out.read_text() == PARALLEL_LINE + "\n"


RAW_LINE = '{"id":"r1","src_lang":"en","tgt_lang":"de","src_markup":"<b>x</b>","tgt_markup":"<b>y</b>"}'


def test_load_raw_pairs_roundtrip_and_bad_line(dataset_file):
    content = RAW_LINE + "\n{broken json\n" + RAW_LINE.replace("r1", "r2") + "\n"
    pairs, diags = load(dataset_file(content), DatasetFormat.RAW_MARKUP_JSONL, error_budget=1)
    assert pairs == [RawMarkupPair(i, "en", "de", "<b>x</b>", "<b>y</b>") for i in ("r1", "r2")]
    assert [(d.code, d.offset) for d in diags] == [("MALFORMED_RECORD", 2)]


def test_load_raw_first_record_needs_every_field(dataset_file):
    with pytest.raises(FormatError):
        load(dataset_file(RAW_LINE.replace('"src_markup"', '"markup"') + "\n"), DatasetFormat.RAW_MARKUP_JSONL)


def test_load_raw_empty_side_counts_against_budget(dataset_file):
    content = RAW_LINE + "\n" + RAW_LINE.replace('"<b>y</b>"', '""') + "\n"
    with pytest.raises(ErrorBudgetExceeded):
        load(dataset_file(content), DatasetFormat.RAW_MARKUP_JSONL)
    pairs, diags = load(dataset_file(content), DatasetFormat.RAW_MARKUP_JSONL, error_budget=1)
    assert [p.id for p in pairs] == ["r1"]
    assert [(d.code, d.offset) for d in diags] == [("MALFORMED_RECORD", 2)]


def test_load_budget_counts_unreadable_and_invalid_records_alike(dataset_file):
    invalid = ANNOTATED_LINE.replace('"end":2', '"end":9')
    content = ANNOTATED_LINE + "\n[1]\n" + invalid + "\n"
    _, diags = load(dataset_file(content), DatasetFormat.ANNOTATED_JSONL, error_budget=2)
    assert [d.code for d in diags] == ["MALFORMED_RECORD", "OFFSET_OOB"]
    assert diags[0].message == "line 2: record is not a JSON object"
    with pytest.raises(ErrorBudgetExceeded, match="2 rejected records exceed budget of 1"):
        load(dataset_file(content), DatasetFormat.ANNOTATED_JSONL, error_budget=1)


TAGGED_LINE = '{"id":"t1","lang":"en","tagged_text":"<a>x</a>"}'


FIRST_LINES = {
    DatasetFormat.ANNOTATED_JSONL: ANNOTATED_LINE,
    DatasetFormat.TAGGED_JSONL: TAGGED_LINE,
    DatasetFormat.PARALLEL_JSONL: PARALLEL_LINE,
    DatasetFormat.RAW_MARKUP_JSONL: RAW_LINE,
}


@pytest.mark.parametrize(
    "fmt, key",
    [(fmt, key) for fmt, line in FIRST_LINES.items() for key in json.loads(line)],
    ids=lambda value: getattr(value, "value", value),
)
def test_first_record_must_hold_every_key_but_lang(dataset_file, fmt, key):
    record = json.loads(FIRST_LINES[fmt])
    del record[key]
    content = json.dumps(record) + "\n" + FIRST_LINES[fmt] + "\n"
    if key == "lang":
        items, diags = load(dataset_file(content), fmt)
        assert [item.lang for item in items] == ["", "en"] and diags == []
    else:
        with pytest.raises(FormatError) as raised:
            load(dataset_file(content), fmt)
        assert str(raised.value) == f"first record lacks [{key!r}]; not a {fmt.value} dataset"


@pytest.mark.parametrize("fmt, good, old, new", [
    (DatasetFormat.ANNOTATED_JSONL, ANNOTATED_LINE, '"text":"ab"', '"text":null'),
    (DatasetFormat.ANNOTATED_JSONL, ANNOTATED_LINE, '"id":"d1"', '"id":null'),
    (DatasetFormat.ANNOTATED_JSONL, ANNOTATED_LINE, '"id":"d1"', '"id":true'),
    (DatasetFormat.ANNOTATED_JSONL, ANNOTATED_LINE, '"lang":"en"', '"lang":3'),
    (DatasetFormat.ANNOTATED_JSONL, ANNOTATED_LINE, '"start":0', '"start":0.9'),
    (DatasetFormat.ANNOTATED_JSONL, ANNOTATED_LINE, '"end":2', '"end":true'),
    (DatasetFormat.ANNOTATED_JSONL, ANNOTATED_LINE, '"end":2', '"end":"2"'),
    (DatasetFormat.ANNOTATED_JSONL, ANNOTATED_LINE, '"tag":"a"', '"tag":1'),
    (DatasetFormat.ANNOTATED_JSONL, ANNOTATED_LINE, '"label":null', '"label":5'),
    (DatasetFormat.ANNOTATED_JSONL, ANNOTATED_LINE, '"label":null', '"label":["PER"]'),
    (DatasetFormat.TAGGED_JSONL, TAGGED_LINE, '"tagged_text":"<a>x</a>"', '"tagged_text":null'),
    (DatasetFormat.TAGGED_JSONL, TAGGED_LINE, '"id":"t1"', '"id":["t1"]'),
    (DatasetFormat.PARALLEL_JSONL, PARALLEL_LINE, '"src_tagged":"<a>x</a>"', '"src_tagged":null'),
    (DatasetFormat.PARALLEL_JSONL, PARALLEL_LINE, '"tgt_tagged":"<a>y</a>"', '"tgt_tagged":7'),
    (DatasetFormat.PARALLEL_JSONL, PARALLEL_LINE, '"tgt_lang":"de"', '"tgt_lang":null'),
    (DatasetFormat.PARALLEL_JSONL, PARALLEL_LINE, '"direction":"forward"', '"direction":1'),
    (DatasetFormat.RAW_MARKUP_JSONL, RAW_LINE, '"src_markup":"<b>x</b>"', '"src_markup":null'),
    (DatasetFormat.RAW_MARKUP_JSONL, RAW_LINE, '"src_lang":"en"', '"src_lang":{}'),
    (DatasetFormat.RAW_MARKUP_JSONL, RAW_LINE, '"id":"r1"', '"id":1.5'),
])
def test_load_rejects_non_json_typed_values(fmt, good, old, new, dataset_file):
    bad = good.replace(old, new)
    assert bad != good
    content = good + "\n" + bad + "\n"
    with pytest.raises(ErrorBudgetExceeded):
        load(dataset_file(content), fmt)
    items, diags = load(dataset_file(content), fmt, error_budget=1)
    assert len(items) == 1
    assert [(d.code, d.offset) for d in diags] == [("MALFORMED_RECORD", 2)]


def test_load_integer_id_is_read_as_text(dataset_file):
    docs, _ = load(dataset_file(ANNOTATED_LINE.replace('"d1"', "7") + "\n"), DatasetFormat.ANNOTATED_JSONL)
    assert docs[0].id == "7"


def test_load_blank_lines_are_not_records(dataset_file):
    docs, _ = load(dataset_file("\n" + ANNOTATED_LINE + "\n\n"), DatasetFormat.ANNOTATED_JSONL)
    assert len(docs) == 1


def test_load_truncated_record_message_counts_columns_without_the_terminator(dataset_file):
    _, diags = load(dataset_file('{"id":"1","tagged_text":"x"}\n{"id": "2"\n'), DatasetFormat.TAGGED_JSONL, error_budget=1)
    assert [d.message for d in diags] == ["line 2: Expecting ',' delimiter: line 1 column 11 (char 10)"]


@pytest.mark.parametrize("variant", ["crlf", "no-final-newline"])
def test_load_line_endings_do_not_change_records_or_line_numbers(tmp_path, variant):
    content = ANNOTATED_LINE + "\n\n{oops\n" + ANNOTATED_LINE.replace("d1", "d4") + "\n"
    lf, other = tmp_path / "lf.jsonl", tmp_path / "other.jsonl"
    lf.write_bytes(content.encode())
    other.write_bytes(content.replace("\n", "\r\n").encode() if variant == "crlf" else content[:-1].encode())
    expected = load(lf, DatasetFormat.ANNOTATED_JSONL, error_budget=1)
    assert load(other, DatasetFormat.ANNOTATED_JSONL, error_budget=1) == expected
    assert [d.id for d in expected[0]] == ["d1", "d4"] and expected[1][0].offset == 3


def tagged_texts(n):
    return [TaggedText(str(i), "en", f"<a>John {i}</a> lives in <b>Paris</b>, the capital of France") for i in range(n)]


def test_load_holds_one_line_at_a_time(tmp_path):
    path = tmp_path / "tagged.jsonl"
    dump(tagged_texts(20_000), path)
    tracemalloc.start()
    try:
        items, _ = load(path, DatasetFormat.TAGGED_JSONL)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(items) == 20_000
    assert peak - kept < 0.1 * path.stat().st_size


# --------------------------------------------------------------------- dump

def roundtrip(items, fmt, path):
    dump(items, path)
    return load(path, fmt)


def test_dump_load_identity_annotated(tmp_path):
    docs = [
        make_doc("ab", [Span("a", 0, 2)], doc_id="1"),
        make_doc("zéro", [Span("b", 0, 1, label="NUM"), Span("c", 2, 2)], doc_id="2"),
        make_doc("", [], doc_id="3"),
    ]
    back, diags = roundtrip(docs, DatasetFormat.ANNOTATED_JSONL, tmp_path / "out.jsonl")
    assert back == docs and diags == []


def test_dump_load_identity_tagged_and_parallel(tmp_path):
    tagged = [TaggedText("1", "en", "<a>x</a>"), TaggedText("2", "en", "plain")]
    back, _ = roundtrip(tagged, DatasetFormat.TAGGED_JSONL, tmp_path / "tagged.jsonl")
    assert back == tagged

    pairs = [
        DirectedExample("1", "forward", "en", "de", "<a>x</a>", "<a>y</a>"),
        DirectedExample("1", "reverse", "de", "en", "<a>y</a>", "<a>x</a>"),
    ]
    back, _ = roundtrip(pairs, DatasetFormat.PARALLEL_JSONL, tmp_path / "pairs.jsonl")
    assert back == pairs

    raw = [RawMarkupPair("1", "en", "de", '<b class="x">é</b>', "<b>y</b>"), RawMarkupPair("2", "en", "de", "x", "y")]
    back, _ = roundtrip(raw, DatasetFormat.RAW_MARKUP_JSONL, tmp_path / "raw.jsonl")
    assert back == raw


# Characters json.dumps(ensure_ascii=False) escapes (quotes, backslash, control
# characters) or writes raw (NEL, U+2028, U+2029, BOM, astral), which the line
# reader must not split on.
UNICODE = st.text(st.sampled_from('"\\\n\r\t\x00\x85\u2028\u2029\ufeffa\u00e9\U0001f600\U00010348 <>/')) | st.text()


@given(
    st.lists(st.builds(DirectedExample, UNICODE, UNICODE, UNICODE, UNICODE, UNICODE, UNICODE), max_size=4)
    | st.lists(
        st.builds(RawMarkupPair, UNICODE, UNICODE, UNICODE, UNICODE.filter(bool), UNICODE.filter(bool)), max_size=4
    )
    | st.lists(st.builds(TaggedText, UNICODE, UNICODE, UNICODE), min_size=1, max_size=4)
)
def test_flat_records_round_trip_any_unicode(tmp_path_factory, items):
    formats = {DirectedExample: DatasetFormat.PARALLEL_JSONL, TaggedText: DatasetFormat.TAGGED_JSONL}
    fmt = formats.get(type(items[0]), DatasetFormat.RAW_MARKUP_JSONL) if items else DatasetFormat.RAW_MARKUP_JSONL
    path = tmp_path_factory.mktemp("flat") / "out.jsonl"
    dump(items, path)
    first = path.read_bytes()
    assert load(path, fmt) == (items, [])
    dump(items, path)
    assert path.read_bytes() == first


def test_dump_is_byte_stable(tmp_path):
    docs = [make_doc("ab", [Span("a", 0, 2)], doc_id="1")]
    target = tmp_path / "out.jsonl"
    dump(docs, target)
    first = target.read_bytes()
    dump(docs, target)
    assert target.read_bytes() == first
    assert first.endswith(b"\n")
    assert not first.startswith(b"\xef\xbb\xbf")  # no BOM


def test_dump_empty_list(tmp_path):
    target = tmp_path / "empty.jsonl"
    dump([], target)
    assert target.read_text() == ""


def test_dump_tagged_record_schema(tmp_path):
    out = tmp_path / "out.jsonl"
    dump([TaggedText("t1", "de", "<a>x</a>")], out)
    record = json.loads(out.read_text())
    assert record == {"id": "t1", "lang": "de", "tagged_text": "<a>x</a>"}


class _SpanSubclass(Span):
    __slots__ = ()


def test_dump_writes_a_span_subclass_by_its_fields(tmp_path):
    doc = AnnotatedText("d1", "en", "ab", (_SpanSubclass("a", 0, 2, "PER"), Span("b", 1, 2)))
    dump([doc], tmp_path / "out.jsonl")
    line = '{"id":"d1","lang":"en","text":"ab","spans":[{"tag":"a","start":0,"end":2,"label":"PER"},'
    assert (tmp_path / "out.jsonl").read_text() == line + '{"tag":"b","start":1,"end":2,"label":null}]}\n'
    [back], _ = load(tmp_path / "out.jsonl", DatasetFormat.ANNOTATED_JSONL)
    assert back.spans == (Span("a", 0, 2, "PER"), Span("b", 1, 2)) and type(back.spans[0]) is Span


def test_dump_holds_one_line_at_a_time(tmp_path):
    items = tagged_texts(20_000)
    path = tmp_path / "tagged.jsonl"
    tracemalloc.start()
    try:
        dump(items, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * path.stat().st_size


@pytest.mark.parametrize("items", [
    [make_doc("ab"), TaggedText("2", "en", "x")],
    [RawMarkupPair("1", "en", "de", "x", "y"), DirectedExample("1", "forward", "en", "de", "x", "y")],
    [Span("a", 0, 1)],
    ["plain text"],
], ids=["mixed-annotated-tagged", "mixed-raw-parallel", "span", "str"])
def test_dump_refuses_items_outside_one_format_and_keeps_the_old_file(tmp_path, items):
    target = tmp_path / "out.jsonl"
    target.write_bytes(b"old\n")
    with pytest.raises(FormatError):
        dump(items, target)
    assert target.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


DIAGNOSTICS = st.builds(
    Diagnostic,
    st.sampled_from(["error", "warning", "info"]),
    st.sampled_from(["MALFORMED_RECORD", "ORPHAN_CLOSE", "X"]),
    st.text(max_size=8),
    st.one_of(st.none(), st.integers(0, 10**9)),
)


@settings(max_examples=200)
@given(st.lists(st.tuples(st.one_of(st.none(), st.text(max_size=3)), st.lists(DIAGNOSTICS, max_size=3)), max_size=6))
def test_read_diagnostics_inverts_write_diagnostics(tmp_path_factory, groups):
    path = tmp_path_factory.mktemp("sidecar") / "diagnostics.jsonl"
    dataio.write_diagnostics(path, groups)
    # A sidecar keeps no empty group, and one group's lines cannot be told from the next's when both have one id.
    merged: list = []
    for doc_id, diags in groups:
        if diags and merged and merged[-1][0] == doc_id:
            merged[-1][1].extend(diags)
        elif diags:
            merged.append((doc_id, list(diags)))
    assert read_diagnostics(path) == merged


def test_write_diagnostics_keeps_group_order_and_adds_an_id_only_to_a_document_group(tmp_path):
    out = tmp_path / "diagnostics.jsonl"
    dataio.write_diagnostics(out, [
        ("d1", [Diagnostic("info", "B", "b", offset=3), Diagnostic("warning", "A", "a")]),
        (None, [Diagnostic("error", "C", "c", offset=1)]),
        ("", [Diagnostic("info", "D", "d")]),  # an empty id is still an id
        ("d2", []),
    ])
    assert out.read_text() == (
        '{"severity":"info","code":"B","message":"b","offset":3,"id":"d1"}\n'
        '{"severity":"warning","code":"A","message":"a","offset":null,"id":"d1"}\n'
        '{"severity":"error","code":"C","message":"c","offset":1}\n'
        '{"severity":"info","code":"D","message":"d","offset":null,"id":""}\n'
    )


# ------------------------------------------- annotated records vs oracles

# JSON values of the wrong type for any field of an annotated record.
WRONG_JSON = st.sampled_from([None, True, False, 0, 0.9, 1.0, "1", [], ["a"], {}, {"tag": "a"}])
RECORD_FAULTS = [
    "id-wrong-type", "lang-wrong-type", "text-wrong-type", "field-missing", "marker-in-text", "spans-not-a-list",
    "span-not-an-object", "span-key-missing", "span-extra-key", "tag-wrong-type", "tag-bad-name",
    "offset-wrong-type", "offset-out-of-bounds", "label-wrong-type", "repeated-tag", "partial-overlap",
]


def _plant(draw, record: dict, fault: str) -> None:
    text = record.get("text")
    n = len(text) if isinstance(text, str) else 0
    if fault in ("id-wrong-type", "lang-wrong-type", "text-wrong-type"):
        record[fault.split("-")[0]] = draw(WRONG_JSON)
    elif fault == "field-missing":
        record.pop(draw(st.sampled_from(["id", "lang", "text", "spans"])), None)
    elif fault == "marker-in-text" and isinstance(text, str):
        at = draw(st.integers(0, n))
        record["text"] = text[:at] + draw(st.sampled_from(["<a>", "</b>", "<", "<A>", "< a>", "<ab>x</ab>"])) + text[at:]
    elif fault == "spans-not-a-list":
        record["spans"] = draw(st.sampled_from(["ab", "", {"tag": "a", "start": 0, "end": 0}, {}]))
    elif isinstance(record.get("spans"), list) and record["spans"]:
        spans = record["spans"]
        i = draw(st.integers(0, len(spans) - 1))
        span = spans[i]
        if fault == "span-not-an-object":
            spans[i] = draw(WRONG_JSON.filter(lambda value: not isinstance(value, dict)))
        elif not isinstance(span, dict):
            pass
        elif fault == "span-key-missing":
            span.pop(draw(st.sampled_from(["tag", "start", "end", "label"])), None)
        elif fault == "span-extra-key":
            span["extra"] = 1
        elif fault == "tag-wrong-type":
            span["tag"] = draw(WRONG_JSON)
        elif fault == "tag-bad-name":
            span["tag"] = draw(st.sampled_from(["", "A", "a1", "a\n", "é", " a"]))
        elif fault == "offset-wrong-type":
            span.update(start=0, end=min(n, 1))  # so that a bool or a float reads as an offset in bounds
            key = draw(st.sampled_from(["start", "end"]))
            span[key] = draw(st.sampled_from([bool(span[key]), float(span[key]), str(span[key]), None, 0.9]))
        elif fault == "offset-out-of-bounds":
            start, end = draw(st.sampled_from([(-1, 0), (0, n + 1), (n + 1, n + 1), (1, 0)]))
            span.update(start=start, end=end)
        elif fault == "label-wrong-type":
            span["label"] = draw(st.integers(-1, 1) | st.booleans() | st.just(["PER"]) | st.just({}))
        elif fault == "repeated-tag":
            start, end = sorted((draw(st.integers(0, n)), draw(st.integers(0, n))))
            spans.append(dict(span, start=start, end=end))
        elif fault == "partial-overlap" and n >= 3:
            span.update(start=0, end=2)
            spans.append(dict(span, start=1, end=3))


@st.composite
def valid_records(draw):
    pieces = st.sampled_from(["a", "b", " ", "é", "\U0001f600", "\u2028", ">", "/"])
    text = draw(st.lists(pieces, max_size=8).map("".join) | st.text(st.characters(exclude_characters="<"), max_size=6))
    bounds = st.integers(0, len(text))
    spans = []
    for tag in draw(st.lists(st.sampled_from(["a", "b", "c", "ab"]), unique=True, max_size=4)):
        start, end = sorted((draw(bounds), draw(bounds)))
        spans.append({"tag": tag, "start": start, "end": end, "label": draw(st.none() | st.just("PER"))})
    return {"id": draw(st.text(max_size=3) | st.integers(-5, 5)), "lang": "en", "text": text, "spans": spans}


@st.composite
def annotated_records(draw):
    """A valid record, with up to two faults planted in it."""
    record = draw(valid_records())
    # Mostly one fault: a second one often hides the first behind an earlier error.
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 2]))):
        _plant(draw, record, draw(st.sampled_from(RECORD_FAULTS)))
    return record


def _outcome(parse, *args, **kwargs):
    """What ``parse`` returns, or the type and message of what it raises."""
    try:
        return parse(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(valid_records(), st.data())
def test_annotated_record_reads_as_its_oracle_does(valid, data):
    # The valid record as it is, with each fault alone, and with two faults.
    pairs = data.draw(st.lists(st.sampled_from(RECORD_FAULTS), min_size=2, max_size=2))
    for faults in [[], *([fault] for fault in RECORD_FAULTS), pairs]:
        record = copy.deepcopy(valid)
        for fault in faults:
            _plant(data.draw, record, fault)
        got = _outcome(dataio._parse_record, DatasetFormat.ANNOTATED_JSONL, record)
        assert got == _outcome(oracle_parse_annotated, record), faults
        if isinstance(got[0], AnnotatedText):
            assert all(type(span) is Span for span in got[0].spans)


def _oracle_parse_record(fmt, record):
    assert fmt is DatasetFormat.ANNOTATED_JSONL
    return oracle_parse_annotated(record)


@given(
    st.lists(annotated_records().map(json.dumps) | st.sampled_from(["{oops", "[1]", "", "null"]), min_size=1, max_size=6),
    st.integers(0, 2),
)
def test_annotated_file_loads_as_its_oracle_does(tmp_path_factory, lines, error_budget):
    path = tmp_path_factory.mktemp("records") / "in.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    got = _outcome(load, path, DatasetFormat.ANNOTATED_JSONL, error_budget=error_budget)
    with mock.patch.object(dataio, "_parse_record", _oracle_parse_record):
        assert got == _outcome(load, path, DatasetFormat.ANNOTATED_JSONL, error_budget=error_budget)


# Field values a library-built document may hold: the JSON scalars a record
# writes directly, and values json.dumps writes in other forms.
PLAIN_FIELD = UNICODE | st.text(st.characters(), max_size=6) | st.integers() | st.none()
ODD_FIELD = st.booleans() | st.floats()


def _documents(field, span=Span):
    spans = st.lists(st.builds(span, field, field, field, field), max_size=3)
    return st.builds(AnnotatedText, field, field, field, spans)


def _json_dumps_line(doc: AnnotatedText) -> str:
    record = {"id": doc.id, "lang": doc.lang, "text": doc.text, "spans": [span._asdict() for span in doc.spans]}
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


@given(
    _documents(PLAIN_FIELD)
    | _documents(PLAIN_FIELD | ODD_FIELD)
    | _documents(PLAIN_FIELD, span=lambda *fields: fields).filter(lambda doc: doc.spans)
)
def test_annotated_line_equals_json_dumps_of_its_record(doc):
    assert _outcome(dataio._record_line, doc, AnnotatedText) == _outcome(_json_dumps_line, doc)


def _string_records(field):
    nonempty = field.filter(bool)
    return (
        st.builds(DirectedExample, field, field, field, field, field, field)
        | st.builds(RawMarkupPair, field, field, field, nonempty, nonempty)
        | st.builds(TaggedText, field, field, field)
    )


def _json_dumps_string_line(item) -> str:
    if type(item) is TaggedText:
        record = {"id": item.id, "lang": item.lang, "tagged_text": item.tagged}
    else:
        record = item._asdict()
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


# Lone surrogates, which a line may hold although no UTF-8 file can.
SURROGATES = st.text(st.sampled_from("\ud800\udbff\udc00\udfffa\U0001f600"), min_size=1)


@given(_string_records(UNICODE | SURROGATES) | _string_records(PLAIN_FIELD | ODD_FIELD))
def test_string_record_line_equals_json_dumps_of_its_record(item):
    assert dataio._record_line(item, type(item)) == _json_dumps_string_line(item)


@pytest.mark.parametrize("item, line", [
    (TaggedText("t1", True, 0.5), '{"id":"t1","lang":true,"tagged_text":0.5}'),
    (TaggedText(7, None, False), '{"id":7,"lang":null,"tagged_text":false}'),
    (
        DirectedExample("p1", 1.0, "en", float("nan"), "<a>é</a>\n", -0.0),
        '{"id":"p1","direction":1.0,"src_lang":"en","tgt_lang":NaN,"src_tagged":"<a>é</a>\\n","tgt_tagged":-0.0}',
    ),
    (
        RawMarkupPair(True, "en", float("-inf"), "<b>\u2028</b>", 1e300),
        '{"id":true,"src_lang":"en","tgt_lang":-Infinity,"src_markup":"<b>\u2028</b>","tgt_markup":1e+300}',
    ),
], ids=["tagged", "tagged-int-null-bool", "parallel", "raw"])
def test_string_record_with_a_bool_or_float_field_falls_back_to_json_dumps(item, line):
    assert dataio._record_line(item, type(item)) == line == _json_dumps_string_line(item)


@st.composite
def valid_documents(draw):
    text = draw(UNICODE)
    bounds = st.integers(0, len(text))
    tags = draw(st.lists(st.sampled_from(["a", "b", "c", "ab", "z"]), unique=True, max_size=4))
    spans = []
    for tag in tags:
        start, end = sorted((draw(bounds), draw(bounds)))
        spans.append(Span(tag, start, end, draw(st.none() | UNICODE)))
    return AnnotatedText(draw(UNICODE), draw(UNICODE), text, spans)


@given(st.lists(valid_documents(), max_size=4))
def test_annotated_documents_round_trip_any_unicode(tmp_path_factory, docs):
    path = tmp_path_factory.mktemp("annotated") / "out.jsonl"
    dump(docs, path)
    assert load(path, DatasetFormat.ANNOTATED_JSONL)[0] == docs


# ---------------------------------------------------------------- QA ingest

def qa_tree(paragraphs):
    return {"data": [{"title": "t", "paragraphs": paragraphs}]}


def test_ingest_direct_offset():
    tree = qa_tree([{"context": "Paris is big", "qas": [
        {"id": "q1", "question": "?", "answers": [{"text": "Paris", "answer_start": 0}]}
    ]}])
    assert ingest_qa(tree, "en") == [(AnnotatedText("q1", "en", "Paris is big", (Span("a", 0, 5),)), 1, [])]


def test_ingest_orders_tags_by_answer_order():
    tree = qa_tree([{"context": "alpha beta gamma", "qas": [
        {"id": "q1", "question": "?", "answers": [{"text": "beta", "answer_start": 6}]},
        {"id": "q2", "question": "?", "answers": [
            {"text": "alpha", "answer_start": 0},
            {"text": "gamma", "answer_start": 11},
        ]},
    ]}])
    [(doc, _, _)] = ingest_qa(tree, "en")
    assert doc.id == "q1"
    assert [s.tag for s in doc.spans] == ["a", "b", "c"]
    assert doc.span_text(doc.spans[0]) == "beta"
    assert doc.span_text(doc.spans[1]) == "alpha"
    assert doc.span_text(doc.spans[2]) == "gamma"


def test_ingest_repairs_off_by_one_offset():
    tree = qa_tree([{"context": "The Eiffel Tower stands.", "qas": [
        {"id": "q1", "question": "?", "answers": [{"text": "Eiffel", "answer_start": 5}]}
    ]}])
    [(doc, _, diags)] = ingest_qa(tree, "en")
    span = doc.spans[0]
    assert doc.span_text(span) == "Eiffel"
    assert span.start == 4
    assert [d.code for d in diags] == ["ANSWER_REPAIRED"]


def test_ingest_flags_unrepairable_answer():
    tree = qa_tree([{"context": "short text", "qas": [
        {"id": "q1", "question": "?", "answers": [{"text": "absent", "answer_start": 2}]}
    ]}])
    [(doc, _, diags)] = ingest_qa(tree, "en")
    assert [d.code for d in diags] == ["ANSWER_MISMATCH"]
    assert len(doc.spans) == 1  # kept, flagged


def test_ingest_repair_window_is_eight():
    context = "x" * 9 + "needle haystack"
    tree = qa_tree([{"context": context, "qas": [
        {"id": "q1", "question": "?", "answers": [{"text": "needle", "answer_start": 1}]}
    ]}])
    [(doc, _, diags)] = ingest_qa(tree, "en")
    assert [d.code for d in diags] == ["ANSWER_REPAIRED"]
    assert doc.spans[0].start == 9
    tree = qa_tree([{"context": context, "qas": [
        {"id": "q1", "question": "?", "answers": [{"text": "needle", "answer_start": 0}]}
    ]}])
    [(_, _, diags)] = ingest_qa(tree, "en")
    assert [d.code for d in diags] == ["ANSWER_MISMATCH"]


def test_ingest_multiple_contexts_and_counts():
    tree = qa_tree([
        {"context": "c1", "qas": [{"id": "p1", "question": "?", "answers": []},
                                  {"id": "p2", "question": "?", "answers": []}]},
        {"context": "c2", "qas": [{"id": "p3", "question": "?", "answers": []}]},
    ])
    assert [(doc.id, questions) for doc, questions, _ in ingest_qa(tree, "en")] == [("p1", 2), ("p3", 1)]


def test_ingest_requires_data_key():
    with pytest.raises(FormatError):
        ingest_qa({"paragraphs": []}, "en")


@pytest.mark.parametrize("paragraph", [
    {"context": None, "qas": []},
    {"context": 5, "qas": []},
    {"context": "ab", "qas": [{"id": "q1", "answers": [{"text": None, "answer_start": 0}]}]},
    {"context": "ab", "qas": [{"id": "q1", "answers": [{"text": "a", "answer_start": True}]}]},
    {"context": "ab", "qas": [{"id": "q1", "answers": [{"text": "a", "answer_start": 0.0}]}]},
    {"context": "ab", "qas": [{"id": "q1", "answers": [{"text": "a", "answer_start": "0"}]}]},
], ids=["null-context", "int-context", "null-answer-text", "bool-start", "float-start", "string-start"])
def test_ingest_rejects_non_json_typed_values(paragraph):
    with pytest.raises(FormatError):
        ingest_qa(qa_tree([paragraph]), "en")


@pytest.mark.parametrize(
    "content",
    [b'{"data": [', b'{"data": ["\xff"]}', b'{"data": ' + b"[" * 5000 + b"]" * 5000 + b"}"],
    ids=["truncated", "bad-byte", "nested-too-deeply"],
)
def test_read_qa_tree_error_names_the_file(tmp_path, content):
    path = tmp_path / "qa.json"
    path.write_bytes(content)
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: "):
        read_qa_tree(path)


# ------------------------------------------------------------ lone surrogates

@pytest.mark.parametrize("fmt, record", [
    (DatasetFormat.ANNOTATED_JSONL, '{"id":"2","lang":"en","text":"al\\ud800pha","spans":[]}'),
    (DatasetFormat.ANNOTATED_JSONL, '{"id":"2","lang":"en","text":"alpha","spans":[{"tag":"a","start":0,"end":1,"label":"\\uDFFF"}]}'),
    (DatasetFormat.TAGGED_JSONL, '{"id":"\\udc00","lang":"en","tagged_text":"x"}'),
    (DatasetFormat.RAW_MARKUP_JSONL, '{"id":"2","src_lang":"en","tgt_lang":"de","src_markup":"x","tgt_markup":"\\ud800"}'),
], ids=["text", "label", "id", "markup"])
def test_load_rejects_a_lone_surrogate_as_malformed(tmp_path, fmt, record):
    first = {
        DatasetFormat.ANNOTATED_JSONL: '{"id":"1","lang":"en","text":"x","spans":[]}',
        DatasetFormat.TAGGED_JSONL: '{"id":"1","lang":"en","tagged_text":"x"}',
        DatasetFormat.RAW_MARKUP_JSONL: '{"id":"1","src_lang":"en","tgt_lang":"de","src_markup":"x","tgt_markup":"y"}',
    }[fmt]
    path = tmp_path / "in.jsonl"
    path.write_text(f"{first}\n{record}\n", encoding="utf-8")
    items, diagnostics = load(path, fmt, error_budget=1)
    assert [item.id for item in items] == ["1"]
    [diag] = diagnostics
    assert (diag.code, diag.offset) == ("MALFORMED_RECORD", 2)
    assert "surrogates not allowed" in diag.message
    with pytest.raises(ErrorBudgetExceeded):
        load(path, fmt)


def test_load_rejects_a_lone_surrogate_in_the_first_record_under_the_budget(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text('{"id":"1","lang":"en","text":"\\ud800","spans":[]}\n{"id":"2","lang":"en","text":"x","spans":[]}\n')
    items, [diag] = load(path, DatasetFormat.ANNOTATED_JSONL, error_budget=1)
    assert [item.id for item in items] == ["2"] and diag.code == "MALFORMED_RECORD"


def test_load_keeps_a_surrogate_pair_and_an_escaped_backslash(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text('{"id":"1","lang":"en","text":"\\ud83d\\ude00 \\\\ud800","spans":[]}\n')
    [doc], diagnostics = load(path, DatasetFormat.ANNOTATED_JSONL)
    assert doc.text == "\U0001f600 \\ud800" and diagnostics == []


def test_a_lone_surrogate_is_named_with_no_position_in_text_never_read(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text('{"id":"1","lang":"en","text":"x","spans":[]}\n{"id":"2","lang":"en","text":"al\\ud800pha","spans":[]}\n')
    _, [diag] = load(path, DatasetFormat.ANNOTATED_JSONL, error_budget=1)
    assert diag.message == "line 2: a string holds the lone surrogate U+D800: surrogates not allowed"


@pytest.mark.parametrize("text, value", [
    ('"\\ud7ff\\ue000"', "\ud7ff\ue000"),  # the code points either side of the surrogates
    ('["\\ud83d\\ude00"]', ["\U0001f600"]),
    ('{"k": "\\\\ud800"}', {"k": "\\ud800"}),
])
def test_parse_json_keeps_every_scalar_value(text, value):
    assert dataio.parse_json(text) == value


@pytest.mark.parametrize("text, code_point", [
    ('["\\ud800"]', "U+D800"), ('{"k": "a\\uDBFFb"}', "U+DBFF"), ('"\\udc00\\ud800"', "U+DC00"),
])
def test_parse_json_names_a_lone_surrogate(text, code_point):
    with pytest.raises(UnicodeError, match=f"^a string holds the lone surrogate {re.escape(code_point)}: "):
        dataio.parse_json(text)


def test_parse_json_reports_nesting_too_deep_to_decode_as_a_value_error():
    with pytest.raises(ValueError, match="recursion"):
        dataio.parse_json("[" * 100_000 + "]" * 100_000)


def test_read_qa_tree_names_the_file_of_a_lone_surrogate(tmp_path):
    path = tmp_path / "qa.json"
    path.write_text('{"data": [{"paragraphs": [{"context": "al\\ud800pha", "qas": []}]}]}')
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .*surrogates not allowed"):
        read_qa_tree(path)


def test_atomic_write_removes_the_directories_it_made_when_the_write_fails(tmp_path):
    def lines():
        yield "one\n"
        raise ValueError("no second line")

    (tmp_path / "kept").mkdir()
    with pytest.raises(ValueError):
        dataio.atomic_write_text(tmp_path / "kept" / "new" / "deeper" / "out.txt", lines())
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["kept"]
    with pytest.raises(ValueError):
        dataio.atomic_write_text(tmp_path / "kept" / "out.txt", lines())
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["kept"]
