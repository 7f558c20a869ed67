"""Direct span-projection metrics and report aggregation.

The headline metric scores each projected span against the reference span
it corresponds to. Correspondence (:func:`labelproj.codec.corresponding`)
is (tag name, occurrence index): the k-th span with tag ``a`` in a projected
document is compared against the k-th span with tag ``a`` in the reference
document, occurrences ordered by position in the text. A pair counts as a
match when the gestalt similarity of the two surface strings reaches the
threshold (default 0.5); counts are micro-aggregated across all documents
into a global precision/recall/F1.

The projection rate is the fraction of translation pairs whose hypothesis
contains exactly the same multiset of markers as its source: the sum of
one match flag per pair (:func:`markers_match`) over the number of pairs.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Mapping, NamedTuple, Sequence

from .codec import MarkerScheme, corresponding, signature
from .errors import AlignmentError, EmptyInputError
from .model import AnnotatedText, TaggedText, record_type
from .similarity import _reaches

DEFAULT_THRESHOLD = 0.5


@record_type
class PRF(NamedTuple):
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "PRF":
        # No predictions (or no references) counts as vacuously perfect.
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 1.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return cls(tp, fp, fn, precision, recall, f1)


def _align(projected: Sequence[AnnotatedText], reference: Sequence[AnnotatedText]) -> list[AnnotatedText]:
    """The projected document for each reference document, in reference order.

    Raises :class:`AlignmentError` on a duplicate id on either side and on
    an id present on one side only.
    """
    by_id = {doc.id: doc for doc in projected}
    if len(by_id) != len(projected):
        raise AlignmentError("duplicate ids among projected documents")
    aligned: dict[str, AnnotatedText] = {}
    for ref in reference:
        if ref.id in aligned:
            raise AlignmentError(f"duplicate id {ref.id!r} on the reference side")
        if ref.id not in by_id:
            raise AlignmentError(f"reference id {ref.id!r} has no projected document")
        aligned[ref.id] = by_id[ref.id]
    if len(aligned) != len(by_id):
        raise AlignmentError(f"projected ids with no reference: {sorted(by_id.keys() - aligned.keys())[:5]}")
    return list(aligned.values())


def _doc_counts(projected: AnnotatedText, reference: AnnotatedText, threshold: float) -> tuple[int, int, int]:
    """(tp, fp, fn): a true positive is a corresponding pair whose surface strings reach the threshold."""
    tp = sum(
        _reaches(projected.span_text(projected.spans[i]), reference.span_text(reference.spans[j]), threshold)
        for i, j in corresponding(projected.spans, reference.spans)
    )
    return tp, len(projected.spans) - tp, len(reference.spans) - tp


def check_threshold(threshold: float) -> None:
    """Raise ValueError unless ``threshold`` is a similarity in [0, 1]."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")


def _prf(pairs: Iterable[tuple[AnnotatedText, AnnotatedText]], threshold: float) -> PRF:
    """Micro-aggregated counts over aligned (projected, reference) pairs."""
    check_threshold(threshold)
    tp = fp = fn = 0
    for projected, reference in pairs:
        dt, dp, dn = _doc_counts(projected, reference, threshold)
        tp += dt
        fp += dp
        fn += dn
    return PRF.from_counts(tp, fp, fn)


def label_match_f1(
    projected: Sequence[AnnotatedText],
    reference: Sequence[AnnotatedText],
    threshold: float = DEFAULT_THRESHOLD,
) -> PRF:
    """Global F1 over individually matched spans, micro-aggregated.

    Documents align by id: a duplicate id, or an id present on one side
    only, raises :class:`AlignmentError`. A projected span with no
    corresponding reference span, or whose similarity falls below the
    threshold, is a false positive; the mirror cases are false negatives.
    """
    return _prf(zip(_align(projected, reference), reference), threshold)


def markers_match(source: TaggedText, hypothesis: TaggedText, scheme: MarkerScheme = MarkerScheme.XML) -> bool:
    """One pair's match flag: do both sides carry the same marker multiset?"""
    if source.id != hypothesis.id:
        raise AlignmentError(f"pair ids differ: {source.id!r} vs {hypothesis.id!r}")
    return signature(source, scheme) == signature(hypothesis, scheme)


def projection_rate(
    pairs: Sequence[tuple[TaggedText, TaggedText]], scheme: MarkerScheme = MarkerScheme.XML
) -> float:
    """Fraction of pairs whose two sides carry identical marker multisets."""
    if not pairs:
        raise EmptyInputError("projection rate is undefined on an empty pair list")
    return sum(markers_match(source, hyp, scheme) for source, hyp in pairs) / len(pairs)


@record_type
class ReportRow(NamedTuple):
    language: str
    dataset: str
    examples: int
    spans: int
    prf: PRF
    projection_rate: float | None


def render_table(header: Sequence[str], body: Sequence[Sequence[str]]) -> str:
    """Left-aligned columns two spaces apart, with a dashed rule under the header."""
    widths = [max(map(len, column)) for column in zip(header, *body)]
    lines = [header, ["-" * w for w in widths], *body]
    return "".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths)) + "\n" for line in lines)


def _cell(value: object) -> str:
    """A report value as CSV or table text: a float to six places, ``None`` empty."""
    if value is None:
        return ""
    return f"{value:.6f}" if isinstance(value, float) else str(value)


@record_type
class EvalReport(NamedTuple):
    """Per-group rows plus a global micro-aggregated row.

    The global row sums raw counts; macro averages over rows are carried
    separately as supplementary figures.
    """

    rows: tuple[ReportRow, ...]
    total: ReportRow
    macro_precision: float
    macro_recall: float
    macro_f1: float

    def _row_dict(self, row: ReportRow) -> dict:
        """One row's columns in report order: JSON writes it as is, CSV and the table through ``_cell``."""
        return {
            "language": row.language,
            "dataset": row.dataset,
            "examples": row.examples,
            "spans": row.spans,
            **row.prf._asdict(),
            "projection_rate": row.projection_rate,
        }

    def _cells(self) -> list[list[str]]:
        """The header, then every row as text with the global row last."""
        rows = [self._row_dict(r) for r in (*self.rows, self.total)]
        return [list(rows[0]), *([_cell(v) for v in row.values()] for row in rows)]

    def to_csv(self) -> str:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(self._cells())
        return buffer.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "rows": [self._row_dict(r) for r in self.rows],
            "global": self._row_dict(self.total),
            "macro": {
                "precision": self.macro_precision,
                "recall": self.macro_recall,
                "f1": self.macro_f1,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), ensure_ascii=False, indent=2) + "\n"

    def to_table(self) -> str:
        header, *body = self._cells()
        return render_table(header, body)


def build_report(
    projected: Sequence[AnnotatedText],
    reference: Sequence[AnnotatedText],
    marker_matches: Mapping[str, bool] | None = None,
    *,
    dataset: str = "dataset",
    threshold: float = DEFAULT_THRESHOLD,
) -> EvalReport:
    """Score projected documents against their references in one row per reference language.

    Documents align by id as in :func:`label_match_f1`. ``marker_matches``
    maps a pair's id to its match flag; a row's projection rate sums the
    flags of its reference ids, and is ``None`` when it has none. Rows sort
    by language. Raises :class:`EmptyInputError` with no reference documents.
    """
    by_lang: dict[str, list[tuple[AnnotatedText, AnnotatedText]]] = {}
    for proj, ref in zip(_align(projected, reference), reference):
        by_lang.setdefault(ref.lang, []).append((proj, ref))
    if not by_lang:
        raise EmptyInputError("no groups to report on")

    flags_by_id = marker_matches or {}
    rows: list[ReportRow] = []
    matches = n_pairs = 0
    for lang in sorted(by_lang):
        pairs = by_lang[lang]
        flags = [flags_by_id[ref.id] for _, ref in pairs if ref.id in flags_by_id]
        rate = sum(flags) / len(flags) if flags else None
        matches += sum(flags)
        n_pairs += len(flags)
        n_spans = sum(len(ref.spans) for _, ref in pairs)
        rows.append(ReportRow(lang, dataset, len(pairs), n_spans, _prf(pairs, threshold), rate))

    prf = PRF.from_counts(sum(r.prf.tp for r in rows), sum(r.prf.fp for r in rows), sum(r.prf.fn for r in rows))
    global_rate = matches / n_pairs if n_pairs else None
    total = ReportRow("(all)", "(all)", sum(r.examples for r in rows), sum(r.spans for r in rows), prf, global_rate)
    macro_p = sum(r.prf.precision for r in rows) / len(rows)
    macro_r = sum(r.prf.recall for r in rows) / len(rows)
    macro_f = sum(r.prf.f1 for r in rows) / len(rows)
    return EvalReport(tuple(rows), total, macro_p, macro_r, macro_f)
