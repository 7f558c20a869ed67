from __future__ import annotations

import io
import json

import pytest

from labelproj import (
    AnnotatedText,
    DatasetFormat,
    DatasetHandle,
    ErrorBudgetExceeded,
    FormatError,
    ParallelExample,
    RawMarkupPair,
    Span,
    TaggedText,
    dump,
    ingest_qa,
    load,
)
from labelproj.dataio import qa_question_counts

from conftest import make_doc


def handle(fmt: DatasetFormat, content: str | None = None, path=None, lang: str = "en") -> DatasetHandle:
    if path is not None:
        return DatasetHandle(fmt, path=path, lang=lang)
    return DatasetHandle(fmt, stream=io.StringIO(content), lang=lang)


ANNOTATED_LINE = '{"id":"d1","lang":"en","text":"ab","spans":[{"tag":"a","start":0,"end":2,"label":null}]}'


# --------------------------------------------------------------------- load

def test_load_annotated_single_record():
    docs, diags = load(handle(DatasetFormat.ANNOTATED_JSONL, ANNOTATED_LINE + "\n"))
    assert docs == [make_doc("ab", [Span("a", 0, 2)], doc_id="d1")]
    assert diags == []


def test_load_skips_invalid_span_record_within_budget():
    bad = '{"id":"d2","lang":"en","text":"ab","spans":[{"tag":"a","start":0,"end":9,"label":null}]}'
    docs, diags = load(handle(DatasetFormat.ANNOTATED_JSONL, ANNOTATED_LINE + "\n" + bad + "\n"), error_budget=1)
    assert [d.id for d in docs] == ["d1"]
    assert [d.code for d in diags] == ["OFFSET_OOB"]
    assert diags[0].offset == 2  # line number of the failing record


def test_load_budget_zero_aborts_on_first_bad_record():
    bad = '{"id":"d2","lang":"en","text":"ab","spans":[{"tag":"a","start":0,"end":9}]}'
    with pytest.raises(ErrorBudgetExceeded):
        load(handle(DatasetFormat.ANNOTATED_JSONL, ANNOTATED_LINE + "\n" + bad + "\n"))


def test_load_unparseable_line_counts_against_budget():
    content = ANNOTATED_LINE + "\n{oops\n" + ANNOTATED_LINE.replace("d1", "d3") + "\n"
    docs, diags = load(handle(DatasetFormat.ANNOTATED_JSONL, content), error_budget=1)
    assert [d.id for d in docs] == ["d1", "d3"]
    assert [d.code for d in diags] == ["MALFORMED_RECORD"]


def test_load_rejects_wrong_format_on_first_record():
    with pytest.raises(FormatError):
        load(handle(DatasetFormat.ANNOTATED_JSONL, '{"id":"x","tagged_text":"y"}\n'))
    with pytest.raises(FormatError):
        load(handle(DatasetFormat.TAGGED_JSONL, ANNOTATED_LINE + "\n"))


def test_load_plain_text_lines():
    items, diags = load(handle(DatasetFormat.PLAIN_TEXT, "one\ntwo\n\nfour\n", lang="eng_Latn"))
    assert [t.tagged for t in items] == ["one", "two", "", "four"]
    assert [t.id for t in items] == ["1", "2", "3", "4"]
    assert all(t.lang == "eng_Latn" for t in items)
    assert diags == []


def test_load_devtest_sized_plain_text_has_empty_signatures():
    from labelproj import signature

    content = "".join(f"sentence number {i}\n" for i in range(1012))
    items, _ = load(handle(DatasetFormat.PLAIN_TEXT, content, lang="eng_Latn"))
    assert len(items) == 1012
    assert all(signature(t).total() == 0 for t in items[:20])


def test_load_parallel_records():
    line = '{"id":"p1","src_lang":"en","tgt_lang":"de","src_tagged":"<a>x</a>","tgt_tagged":"<a>y</a>"}'
    items, _ = load(handle(DatasetFormat.PARALLEL_JSONL, line + "\n"))
    example = items[0]
    assert isinstance(example, ParallelExample)
    assert example.src.tagged == "<a>x</a>"
    assert example.tgt_lang == "de"


RAW_LINE = '{"id":"r1","src_lang":"en","tgt_lang":"de","src_markup":"<b>x</b>","tgt_markup":"<b>y</b>"}'


def test_load_raw_pairs_roundtrip_and_bad_line():
    content = RAW_LINE + "\n{broken json\n" + RAW_LINE.replace("r1", "r2") + "\n"
    pairs, diags = load(handle(DatasetFormat.RAW_MARKUP_JSONL, content), error_budget=1)
    assert pairs == [RawMarkupPair(i, "en", "de", "<b>x</b>", "<b>y</b>") for i in ("r1", "r2")]
    assert [(d.code, d.offset) for d in diags] == [("MALFORMED_RECORD", 2)]


def test_load_raw_first_record_needs_every_field():
    with pytest.raises(FormatError):
        load(handle(DatasetFormat.RAW_MARKUP_JSONL, RAW_LINE.replace('"src_markup"', '"markup"') + "\n"))


def test_load_raw_empty_side_counts_against_budget():
    content = RAW_LINE + "\n" + RAW_LINE.replace('"<b>y</b>"', '""') + "\n"
    with pytest.raises(ErrorBudgetExceeded):
        load(handle(DatasetFormat.RAW_MARKUP_JSONL, content))
    pairs, diags = load(handle(DatasetFormat.RAW_MARKUP_JSONL, content), error_budget=1)
    assert [p.id for p in pairs] == ["r1"]
    assert [(d.code, d.offset) for d in diags] == [("MALFORMED_RECORD", 2)]


def test_load_budget_counts_unreadable_and_invalid_records_alike():
    invalid = ANNOTATED_LINE.replace('"end":2', '"end":9')
    content = ANNOTATED_LINE + "\n[1]\n" + invalid + "\n"
    _, diags = load(handle(DatasetFormat.ANNOTATED_JSONL, content), error_budget=2)
    assert [d.code for d in diags] == ["MALFORMED_RECORD", "OFFSET_OOB"]
    assert diags[0].message == "line 2: record is not a JSON object"
    with pytest.raises(ErrorBudgetExceeded, match="2 rejected records exceed budget of 1"):
        load(handle(DatasetFormat.ANNOTATED_JSONL, content), error_budget=1)


TAGGED_LINE = '{"id":"t1","lang":"en","tagged_text":"<a>x</a>"}'
PARALLEL_LINE = '{"id":"p1","src_lang":"en","tgt_lang":"de","src_tagged":"<a>x</a>","tgt_tagged":"<a>y</a>"}'


@pytest.mark.parametrize("fmt, good, old, new", [
    (DatasetFormat.ANNOTATED_JSONL, ANNOTATED_LINE, '"text":"ab"', '"text":null'),
    (DatasetFormat.ANNOTATED_JSONL, ANNOTATED_LINE, '"id":"d1"', '"id":null'),
    (DatasetFormat.ANNOTATED_JSONL, ANNOTATED_LINE, '"id":"d1"', '"id":true'),
    (DatasetFormat.ANNOTATED_JSONL, ANNOTATED_LINE, '"lang":"en"', '"lang":3'),
    (DatasetFormat.ANNOTATED_JSONL, ANNOTATED_LINE, '"start":0', '"start":0.9'),
    (DatasetFormat.ANNOTATED_JSONL, ANNOTATED_LINE, '"end":2', '"end":true'),
    (DatasetFormat.ANNOTATED_JSONL, ANNOTATED_LINE, '"end":2', '"end":"2"'),
    (DatasetFormat.ANNOTATED_JSONL, ANNOTATED_LINE, '"tag":"a"', '"tag":1'),
    (DatasetFormat.TAGGED_JSONL, TAGGED_LINE, '"tagged_text":"<a>x</a>"', '"tagged_text":null'),
    (DatasetFormat.TAGGED_JSONL, TAGGED_LINE, '"id":"t1"', '"id":["t1"]'),
    (DatasetFormat.PARALLEL_JSONL, PARALLEL_LINE, '"src_tagged":"<a>x</a>"', '"src_tagged":null'),
    (DatasetFormat.PARALLEL_JSONL, PARALLEL_LINE, '"tgt_tagged":"<a>y</a>"', '"tgt_tagged":7'),
    (DatasetFormat.PARALLEL_JSONL, PARALLEL_LINE, '"tgt_lang":"de"', '"tgt_lang":null'),
    (DatasetFormat.RAW_MARKUP_JSONL, RAW_LINE, '"src_markup":"<b>x</b>"', '"src_markup":null'),
    (DatasetFormat.RAW_MARKUP_JSONL, RAW_LINE, '"src_lang":"en"', '"src_lang":{}'),
    (DatasetFormat.RAW_MARKUP_JSONL, RAW_LINE, '"id":"r1"', '"id":1.5'),
])
def test_load_rejects_non_json_typed_values(fmt, good, old, new):
    bad = good.replace(old, new)
    assert bad != good
    content = good + "\n" + bad + "\n"
    with pytest.raises(ErrorBudgetExceeded):
        load(handle(fmt, content))
    items, diags = load(handle(fmt, content), error_budget=1)
    assert len(items) == 1
    assert [(d.code, d.offset) for d in diags] == [("MALFORMED_RECORD", 2)]


def test_load_integer_id_is_read_as_text():
    docs, _ = load(handle(DatasetFormat.ANNOTATED_JSONL, ANNOTATED_LINE.replace('"d1"', "7") + "\n"))
    assert docs[0].id == "7"


def test_load_blank_lines_are_not_records():
    docs, _ = load(handle(DatasetFormat.ANNOTATED_JSONL, "\n" + ANNOTATED_LINE + "\n\n"))
    assert len(docs) == 1


# --------------------------------------------------------------------- dump

def roundtrip(items, fmt, lang="en"):
    out = io.StringIO()
    dump(items, DatasetHandle(fmt, stream=out, lang=lang))
    return load(DatasetHandle(fmt, stream=io.StringIO(out.getvalue()), lang=lang))


def test_dump_load_identity_annotated():
    docs = [
        make_doc("ab", [Span("a", 0, 2)], doc_id="1"),
        make_doc("zéro", [Span("b", 0, 1, label="NUM"), Span("c", 2, 2)], doc_id="2"),
        make_doc("", [], doc_id="3"),
    ]
    back, diags = roundtrip(docs, DatasetFormat.ANNOTATED_JSONL)
    assert back == docs and diags == []


def test_dump_load_identity_tagged_and_parallel():
    tagged = [TaggedText("1", "en", "<a>x</a>"), TaggedText("2", "en", "plain")]
    back, _ = roundtrip(tagged, DatasetFormat.TAGGED_JSONL)
    assert back == tagged

    pairs = [
        ParallelExample("1", TaggedText("1", "en", "<a>x</a>"), TaggedText("1", "de", "<a>y</a>"))
    ]
    back, _ = roundtrip(pairs, DatasetFormat.PARALLEL_JSONL)
    assert back == pairs

    raw = [RawMarkupPair("1", "en", "de", '<b class="x">é</b>', "<b>y</b>"), RawMarkupPair("2", "en", "de", "x", "y")]
    back, _ = roundtrip(raw, DatasetFormat.RAW_MARKUP_JSONL)
    assert back == raw


def test_dump_is_byte_stable(tmp_path):
    docs = [make_doc("ab", [Span("a", 0, 2)], doc_id="1")]
    target = tmp_path / "out.jsonl"
    dump(docs, DatasetHandle(DatasetFormat.ANNOTATED_JSONL, path=target))
    first = target.read_bytes()
    dump(docs, DatasetHandle(DatasetFormat.ANNOTATED_JSONL, path=target))
    assert target.read_bytes() == first
    assert first.endswith(b"\n")
    assert not first.startswith(b"\xef\xbb\xbf")  # no BOM


def test_dump_empty_list(tmp_path):
    target = tmp_path / "empty.jsonl"
    summary = dump([], DatasetHandle(DatasetFormat.ANNOTATED_JSONL, path=target))
    assert summary.count == 0
    assert target.read_text() == ""


def test_dump_tagged_record_schema():
    out = io.StringIO()
    dump([TaggedText("t1", "de", "<a>x</a>")], DatasetHandle(DatasetFormat.TAGGED_JSONL, stream=out))
    record = json.loads(out.getvalue())
    assert record == {"id": "t1", "lang": "de", "tagged_text": "<a>x</a>"}


def test_dump_rejects_mismatched_items():
    with pytest.raises(FormatError):
        dump([TaggedText("1", "en", "x")], handle(DatasetFormat.ANNOTATED_JSONL, ""))
    with pytest.raises(FormatError):
        dump([TaggedText("1", "en", "x")], handle(DatasetFormat.RAW_MARKUP_JSONL, ""))
    with pytest.raises(FormatError):
        dump([make_doc("ab")], DatasetHandle(DatasetFormat.QA_JSON, stream=io.StringIO()))


def test_handle_requires_exactly_one_source():
    with pytest.raises(ValueError):
        DatasetHandle(DatasetFormat.PLAIN_TEXT)


# ---------------------------------------------------------------- QA ingest

def qa_tree(paragraphs):
    return {"data": [{"title": "t", "paragraphs": paragraphs}]}


def test_ingest_direct_offset():
    tree = qa_tree([{"context": "Paris is big", "qas": [
        {"id": "q1", "question": "?", "answers": [{"text": "Paris", "answer_start": 0}]}
    ]}])
    docs, diags = ingest_qa(tree, "en")
    assert docs == [AnnotatedText("q1", "en", "Paris is big", (Span("a", 0, 5),))]
    assert diags == []


def test_ingest_orders_tags_by_answer_order():
    tree = qa_tree([{"context": "alpha beta gamma", "qas": [
        {"id": "q1", "question": "?", "answers": [{"text": "beta", "answer_start": 6}]},
        {"id": "q2", "question": "?", "answers": [
            {"text": "alpha", "answer_start": 0},
            {"text": "gamma", "answer_start": 11},
        ]},
    ]}])
    docs, _ = ingest_qa(tree, "en")
    doc = docs[0]
    assert doc.id == "q1"
    assert [s.tag for s in doc.spans] == ["a", "b", "c"]
    assert doc.span_text(doc.spans[0]) == "beta"
    assert doc.span_text(doc.spans[1]) == "alpha"
    assert doc.span_text(doc.spans[2]) == "gamma"


def test_ingest_repairs_off_by_one_offset():
    tree = qa_tree([{"context": "The Eiffel Tower stands.", "qas": [
        {"id": "q1", "question": "?", "answers": [{"text": "Eiffel", "answer_start": 5}]}
    ]}])
    docs, diags = ingest_qa(tree, "en")
    span = docs[0].spans[0]
    assert docs[0].span_text(span) == "Eiffel"
    assert span.start == 4
    assert [d.code for d in diags] == ["ANSWER_REPAIRED"]


def test_ingest_flags_unrepairable_answer():
    tree = qa_tree([{"context": "short text", "qas": [
        {"id": "q1", "question": "?", "answers": [{"text": "absent", "answer_start": 2}]}
    ]}])
    docs, diags = ingest_qa(tree, "en")
    assert [d.code for d in diags] == ["ANSWER_MISMATCH"]
    assert len(docs[0].spans) == 1  # kept, flagged


def test_ingest_repair_window_is_eight():
    context = "x" * 9 + "needle haystack"
    tree = qa_tree([{"context": context, "qas": [
        {"id": "q1", "question": "?", "answers": [{"text": "needle", "answer_start": 1}]}
    ]}])
    docs, diags = ingest_qa(tree, "en")
    assert [d.code for d in diags] == ["ANSWER_REPAIRED"]
    assert docs[0].spans[0].start == 9
    tree = qa_tree([{"context": context, "qas": [
        {"id": "q1", "question": "?", "answers": [{"text": "needle", "answer_start": 0}]}
    ]}])
    _, diags = ingest_qa(tree, "en")
    assert [d.code for d in diags] == ["ANSWER_MISMATCH"]


def test_ingest_multiple_contexts_and_counts():
    tree = qa_tree([
        {"context": "c1", "qas": [{"id": "p1", "question": "?", "answers": []},
                                  {"id": "p2", "question": "?", "answers": []}]},
        {"context": "c2", "qas": [{"id": "p3", "question": "?", "answers": []}]},
    ])
    docs, _ = ingest_qa(tree, "en")
    assert [d.id for d in docs] == ["p1", "p3"]
    assert qa_question_counts(tree) == {"p1": 2, "p3": 1}


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


def test_load_qa_json_handle():
    tree = qa_tree([{"context": "Paris is big", "qas": [
        {"id": "q1", "question": "?", "answers": [{"text": "Paris", "answer_start": 0}]}
    ]}])
    docs, diags = load(handle(DatasetFormat.QA_JSON, json.dumps(tree), lang="en"))
    assert docs[0].spans == (Span("a", 0, 5),)
