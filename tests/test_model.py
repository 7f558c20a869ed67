from __future__ import annotations

import pytest

from labelproj import AnnotatedText, Span, TaggedText, encode, validate
from labelproj.model import has_errors

from conftest import make_doc


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


def test_clean_documents_always_encode():
    doc = make_doc("some text here", [Span("a", 0, 4), Span("b", 5, 9), Span("a", 5, 9)])
    assert validate(doc) == []
    encode(doc)  # must not raise


def test_spans_sequence_coerces_to_tuple():
    doc = AnnotatedText("d", "en", "ab", [Span("a", 0, 1)])
    assert isinstance(doc.spans, tuple)


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
