from __future__ import annotations

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from labelproj import (
    AlignmentError,
    EmptyInputError,
    PRF,
    Span,
    TaggedText,
    build_report,
    gestalt_ratio,
    label_match_f1,
    projection_rate,
)

from labelproj.codec import occurrences
from labelproj.evaluation import _doc_counts

from conftest import make_doc
from evaluation_oracle import oracle_doc_counts


# -------------------------------------------------------------------- PRF

def test_prf_plain_counts():
    prf = PRF.from_counts(2, 1, 1)
    assert prf.precision == pytest.approx(2 / 3)
    assert prf.recall == pytest.approx(2 / 3)
    assert prf.f1 == pytest.approx(2 / 3)


def test_prf_zero_denominators_default_to_one():
    prf = PRF.from_counts(0, 0, 0)
    assert (prf.precision, prf.recall) == (1.0, 1.0)
    assert prf.f1 == 1.0


def test_prf_f1_zero_when_both_rates_zero():
    prf = PRF.from_counts(0, 3, 4)
    assert (prf.precision, prf.recall, prf.f1) == (0.0, 0.0, 0.0)


# --------------------------------------------------------- label match F1

REF_DOC = make_doc(
    "Alpha beta gamma",
    [Span("a", 0, 5), Span("b", 6, 10), Span("c", 11, 16)],
    doc_id="r1",
)


def test_identity_projection_scores_one():
    prf = label_match_f1([REF_DOC], [REF_DOC])
    assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)


def test_hand_fixture_two_thirds():
    projected = make_doc(
        "Alpha beta gamma",
        [Span("a", 0, 5), Span("b", 6, 10), Span("d", 0, 5)],
        doc_id="r1",
    )
    prf = label_match_f1([projected], [REF_DOC])
    assert (prf.tp, prf.fp, prf.fn) == (2, 1, 1)
    assert abs(prf.precision - 2 / 3) < 1e-9
    assert abs(prf.recall - 2 / 3) < 1e-9
    assert abs(prf.f1 - 2 / 3) < 1e-9


def test_all_empty_projected_spans_score_zero():
    projected = make_doc("Alpha beta gamma", [Span("a", 0, 0), Span("b", 0, 0)], doc_id="r1")
    reference = make_doc("Alpha beta gamma", [Span("a", 0, 5), Span("b", 6, 10)], doc_id="r1")
    prf = label_match_f1([projected], [reference])
    assert prf.f1 == 0.0


def test_threshold_one_keeps_only_exact_matches():
    projected = make_doc("Alphas beta", [Span("a", 0, 6), Span("b", 7, 11)], doc_id="r1")
    reference = make_doc("Alpha beta x", [Span("a", 0, 5), Span("b", 6, 10)], doc_id="r1")
    loose = label_match_f1([projected], [reference], threshold=0.5)
    strict = label_match_f1([projected], [reference], threshold=1.0)
    assert loose.tp == 2  # "Alphas" vs "Alpha" is well above half similar
    assert strict.tp == 1  # only "beta" is an exact match


def test_threshold_zero_makes_every_pair_match():
    projected = make_doc("xy", [Span("a", 0, 1)], doc_id="r1")
    reference = make_doc("zw", [Span("a", 0, 1)], doc_id="r1")
    assert label_match_f1([projected], [reference], threshold=0.0).tp == 1


def test_occurrence_pairing_is_by_text_order_not_list_order():
    reference = make_doc("aa bb", [Span("a", 0, 2), Span("a", 3, 5)], doc_id="r1")
    shuffled = make_doc("aa bb", [Span("a", 3, 5), Span("a", 0, 2)], doc_id="r1")
    prf = label_match_f1([shuffled], [reference])
    assert (prf.tp, prf.fp, prf.fn) == (2, 0, 0)


def test_surplus_projected_occurrences_are_false_positives():
    projected = make_doc("aa bb", [Span("a", 0, 2), Span("a", 3, 5)], doc_id="r1")
    reference = make_doc("aa bb", [Span("a", 0, 2)], doc_id="r1")
    prf = label_match_f1([projected], [reference])
    assert (prf.tp, prf.fp, prf.fn) == (1, 1, 0)


@st.composite
def scored_docs(draw, doc_id: str = "d"):
    """A document over a small alphabet whose spans repeat a few tags, in any order; possibly no spans."""
    text = draw(st.text(alphabet="ab é", max_size=12))
    bounds = st.tuples(st.integers(0, len(text)), st.integers(0, len(text))).map(sorted)
    spans = draw(st.lists(st.tuples(st.sampled_from("abc"), bounds), max_size=7))
    return make_doc(text, [Span(tag, start, end) for tag, (start, end) in spans], doc_id=doc_id)


THRESHOLDS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@given(scored_docs(), scored_docs(), THRESHOLDS)
@example(make_doc("ab", []), make_doc("ab", []), 0.5)
@example(make_doc("ab", [Span("a", 0, 1)] * 3), make_doc("ab", []), 0.0)
@example(make_doc("ab", []), make_doc("ab", [Span("b", 0, 2), Span("b", 1, 2)]), 1.0)
@example(make_doc("aab", [Span("a", 0, 1), Span("a", 1, 2)]), make_doc("ab", [Span("a", 0, 1)]), 1.0)
def test_doc_counts_equal_the_per_occurrence_tally(projected, reference, threshold):
    by_tag = occurrences(projected.spans)
    assert _doc_counts(projected, by_tag, reference, threshold) == oracle_doc_counts(projected, reference, threshold)


def test_document_reordering_is_invariant():
    doc2 = make_doc("second", [Span("a", 0, 6)], doc_id="r2")
    forward = label_match_f1([REF_DOC, doc2], [REF_DOC, doc2])
    backward = label_match_f1([doc2, REF_DOC], [REF_DOC, doc2])
    assert forward == backward


def test_alignment_errors():
    with pytest.raises(AlignmentError):
        label_match_f1([REF_DOC], [])
    with pytest.raises(AlignmentError):
        label_match_f1([], [REF_DOC])
    with pytest.raises(AlignmentError):
        label_match_f1([REF_DOC, REF_DOC], [REF_DOC])
    with pytest.raises(AlignmentError, match="duplicate id 'r1' on the reference side"):
        label_match_f1([REF_DOC], [REF_DOC, REF_DOC])


def test_threshold_out_of_range():
    with pytest.raises(ValueError):
        label_match_f1([REF_DOC], [REF_DOC], threshold=1.5)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=5))
def test_micro_additivity(span_counts):
    docs = []
    projs = []
    for i, k in enumerate(span_counts):
        text = "tok " * 4
        ref_spans = [Span("a", j * 4, j * 4 + 3) for j in range(k)]
        # Degrade the last span of odd documents to force some mismatches.
        proj_spans = list(ref_spans)
        if k and i % 2:
            proj_spans[-1] = Span("a", 0, 0)
        docs.append(make_doc(text, ref_spans, doc_id=f"d{i}"))
        projs.append(make_doc(text, proj_spans, doc_id=f"d{i}"))
    whole = label_match_f1(projs, docs)
    tp = fp = fn = 0
    for proj, ref in zip(projs, docs):
        part = label_match_f1([proj], [ref])
        tp, fp, fn = tp + part.tp, fp + part.fp, fn + part.fn
    assert whole == PRF.from_counts(tp, fp, fn)


SEGMENTS = st.text(alphabet="abe\u0301\u0308é", max_size=10)


@given(st.lists(st.tuples(SEGMENTS, SEGMENTS), min_size=1, max_size=4), st.floats(0.0, 1.0), st.integers(0, 8))
def test_counts_equal_the_thresholded_gestalt_ratio(pairs, threshold, pick):
    def doc(texts):
        starts = [sum(len(t) + 1 for t in texts[:k]) for k in range(len(texts))]
        return make_doc("|".join(texts), [Span("a", s, s + len(t)) for s, t in zip(starts, texts)], doc_id="r1")

    ratios = [gestalt_ratio(p, r) for p, r in pairs]
    if pick:  # a threshold at some pair's exact ratio is the boundary case
        threshold = ratios[pick % len(ratios)]
    prf = label_match_f1([doc([p for p, _ in pairs])], [doc([r for _, r in pairs])], threshold)
    hits = sum(ratio >= threshold for ratio in ratios)
    assert (prf.tp, prf.fp, prf.fn) == (hits, len(pairs) - hits, len(pairs) - hits)


# ---------------------------------------------------------- projection rate

def tt(doc_id: str, tagged: str, lang: str = "en") -> TaggedText:
    return TaggedText(doc_id, lang, tagged)


def test_projection_rate_identity_is_one():
    pairs = [(tt("1", "<a>x</a>"), tt("1", "<a>x</a>")), (tt("2", "y"), tt("2", "y"))]
    assert projection_rate(pairs) == 1.0


def test_projection_rate_half_broken():
    pairs = [
        (tt("1", "<a>x</a>"), tt("1", "<a>x</a>")),
        (tt("2", "<a>x</a>"), tt("2", "<a>x")),      # close dropped
        (tt("3", "<b>x</b>"), tt("3", "<b>u</b>")),  # text change only
        (tt("4", "<a>x</a>"), tt("4", "x</a>")),     # open dropped
    ]
    assert projection_rate(pairs) == 0.5


def test_projection_rate_ignores_non_marker_text():
    pairs = [(tt("1", "<a>x</a> tail"), tt("1", "prefix <a>completely different</a>"))]
    assert projection_rate(pairs) == 1.0


def test_projection_rate_empty_input():
    with pytest.raises(EmptyInputError):
        projection_rate([])


def test_projection_rate_id_mismatch():
    with pytest.raises(AlignmentError):
        projection_rate([(tt("1", "x"), tt("2", "x"))])


# ------------------------------------------------------------------ report

def group_for(prefix: str, language: str, spec: list[tuple[int, int, int]]) -> tuple[list, list]:
    """Build (projected, reference) documents whose micro counts equal the requested (tp, fp, fn)."""
    projected = []
    reference = []
    for i, (tp, fp, fn) in enumerate(spec):
        text = "tok " * max(tp + fp + fn, 1)
        ref = [Span("a", j * 4, j * 4 + 3) for j in range(tp)]
        proj = list(ref)
        ref += [Span("b", j * 4, j * 4 + 3) for j in range(fn)]
        proj += [Span("c", j * 4, j * 4 + 3) for j in range(fp)]
        reference.append(make_doc(text, ref, doc_id=f"{prefix}{i}", lang=language))
        projected.append(make_doc(text, proj, doc_id=f"{prefix}{i}", lang=language))
    return projected, reference


def test_report_identity_group():
    report = build_report([REF_DOC], [REF_DOC], {"r1": True}, dataset="demo")
    assert report.total.prf.f1 == 1.0
    assert report.total.projection_rate == 1.0


def test_report_projection_rate_sums_match_flags():
    docs = [make_doc("x", doc_id="d1", lang="de"), make_doc("x", doc_id="d2", lang="de"), make_doc("x", doc_id="e1", lang="es")]
    report = build_report(docs, docs, {"d1": True, "d2": False, "e1": True})
    assert [r.projection_rate for r in report.rows] == [0.5, 1.0]
    assert report.total.projection_rate == 2 / 3


def test_report_global_micro_sum():
    x_proj, x_ref = group_for("x", "de", [(2, 1, 1)])
    y_proj, y_ref = group_for("y", "es", [(3, 0, 0)])
    report = build_report(y_proj + x_proj, y_ref + x_ref)
    assert [r.language for r in report.rows] == ["de", "es"]  # sorted, not input order
    assert report.total.prf.tp == 5
    assert report.total.prf.precision == pytest.approx(5 / 6)
    assert report.total.prf.recall == pytest.approx(5 / 6)
    assert report.total.projection_rate is None


def test_report_macro_differs_from_micro():
    x_proj, x_ref = group_for("x", "de", [(2, 1, 1)])
    y_proj, y_ref = group_for("y", "es", [(3, 0, 0)])
    report = build_report(x_proj + y_proj, x_ref + y_ref)
    assert report.macro_precision == pytest.approx((2 / 3 + 1.0) / 2)
    assert report.macro_f1 == pytest.approx((2 / 3 + 1.0) / 2)


def test_report_rejects_empty_groups():
    with pytest.raises(EmptyInputError):
        build_report([], [])


def test_report_csv_shape():
    report = build_report(*group_for("x", "de", [(2, 1, 1)]), dataset="d1")
    lines = report.to_csv().splitlines()
    assert lines[0] == "language,dataset,examples,spans,tp,fp,fn,precision,recall,f1,projection_rate"
    assert len(lines) == 3  # header, one row, global
    assert lines[1].startswith("de,d1,1,3,2,1,1,")
    assert lines[2].startswith("(all),(all),")
    assert lines[1].endswith(",")  # no marker pairs -> empty projection rate


def test_report_json_and_table_render():
    report = build_report(*group_for("x", "de", [(1, 0, 0)]))
    payload = report.to_json_dict()
    assert payload["global"]["tp"] == 1
    assert set(payload["macro"]) == {"precision", "recall", "f1"}
    table = report.to_table()
    assert "language" in table and "(all)" in table


def test_report_span_count_is_reference_side():
    report = build_report(*group_for("x", "de", [(1, 2, 3)]))
    assert report.rows[0].spans == 4  # 1 matched + 3 missed reference spans
    assert report.rows[0].examples == 1
