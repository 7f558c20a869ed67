"""Direct span-projection metrics and report aggregation.

The headline metric scores each projected span against the reference span
it corresponds to. Correspondence is (tag name, occurrence index): the k-th
span with tag ``a`` in a projected document is compared against the k-th
span with tag ``a`` in the reference document, occurrences ordered by
position in the text. A pair counts as a match when the gestalt similarity
of the two surface strings reaches the threshold (default 0.5); counts are
micro-aggregated across all documents into a global precision/recall/F1.

The projection rate is the fraction of translation pairs whose hypothesis
contains exactly the same multiset of markers as its source: the sum of
one match flag per pair (:func:`markers_match`) over the number of pairs.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .codec import MarkerScheme, occurrences, signature
from .errors import AlignmentError, EmptyInputError
from .model import AnnotatedText, TaggedText
from .similarity import gestalt_ratio

DEFAULT_THRESHOLD = 0.5


@dataclass(frozen=True)
class PRF:
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


def _index_by_id(docs: Sequence[AnnotatedText], side: str) -> dict[str, AnnotatedText]:
    index: dict[str, AnnotatedText] = {}
    for doc in docs:
        if doc.id in index:
            raise AlignmentError(f"duplicate id {doc.id!r} on the {side} side")
        index[doc.id] = doc
    return index


def _doc_counts(
    projected: AnnotatedText, reference: AnnotatedText, threshold: float, normalize: bool
) -> tuple[int, int, int]:
    proj_by_tag = occurrences(projected.spans)
    ref_by_tag = occurrences(reference.spans)

    tp = fp = fn = 0
    for tag in set(proj_by_tag) | set(ref_by_tag):
        proj_spans = proj_by_tag.get(tag, ())
        ref_spans = ref_by_tag.get(tag, ())
        for k in range(max(len(proj_spans), len(ref_spans))):
            if k >= len(ref_spans):
                fp += 1
            elif k >= len(proj_spans):
                fn += 1
            else:
                ratio = gestalt_ratio(
                    projected.span_text(projected.spans[proj_spans[k]]),
                    reference.span_text(reference.spans[ref_spans[k]]),
                    normalize=normalize,
                )
                if ratio >= threshold:
                    tp += 1
                else:
                    fp += 1
                    fn += 1
    return tp, fp, fn


def label_match_f1(
    projected: Sequence[AnnotatedText],
    reference: Sequence[AnnotatedText],
    threshold: float = DEFAULT_THRESHOLD,
    *,
    normalize: bool = True,
) -> PRF:
    """Global F1 over individually matched spans, micro-aggregated.

    Documents align by id; an id present on only one side raises
    :class:`AlignmentError`. A projected span with no corresponding
    reference span, or whose similarity falls below the threshold, is a
    false positive; the mirror cases are false negatives.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    proj_index = _index_by_id(projected, "projected")
    ref_index = _index_by_id(reference, "reference")
    missing = sorted(set(proj_index) ^ set(ref_index))
    if missing:
        raise AlignmentError(f"ids present on one side only: {missing[:5]}")

    tp = fp = fn = 0
    for doc_id in proj_index:
        dt, dp, dn = _doc_counts(proj_index[doc_id], ref_index[doc_id], threshold, normalize)
        tp += dt
        fp += dp
        fn += dn
    return PRF.from_counts(tp, fp, fn)


def markers_match(
    source: TaggedText, hypothesis: TaggedText, scheme: MarkerScheme = MarkerScheme.XML, allow_uppercase: bool = False
) -> bool:
    """One pair's match flag: do both sides carry the same marker multiset?"""
    if source.id != hypothesis.id:
        raise AlignmentError(f"pair ids differ: {source.id!r} vs {hypothesis.id!r}")
    return signature(source, scheme, allow_uppercase) == signature(hypothesis, scheme, allow_uppercase)


def projection_rate(
    pairs: Sequence[tuple[TaggedText, TaggedText]],
    scheme: MarkerScheme = MarkerScheme.XML,
    allow_uppercase: bool = False,
) -> float:
    """Fraction of pairs whose two sides carry identical marker multisets."""
    if not pairs:
        raise EmptyInputError("projection rate is undefined on an empty pair list")
    return sum(markers_match(source, hyp, scheme, allow_uppercase) for source, hyp in pairs) / len(pairs)


@dataclass(frozen=True)
class EvalGroup:
    """Inputs for one (language, dataset) row of a report, with a match flag per translation pair."""

    language: str
    dataset: str
    projected: tuple[AnnotatedText, ...]
    reference: tuple[AnnotatedText, ...]
    marker_matches: tuple[bool, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.projected, tuple):
            object.__setattr__(self, "projected", tuple(self.projected))
        if not isinstance(self.reference, tuple):
            object.__setattr__(self, "reference", tuple(self.reference))
        if self.marker_matches is not None and not isinstance(self.marker_matches, tuple):
            object.__setattr__(self, "marker_matches", tuple(self.marker_matches))


@dataclass(frozen=True)
class ReportRow:
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


@dataclass(frozen=True)
class EvalReport:
    """Per-group rows plus a global micro-aggregated row.

    The global row sums raw counts; macro averages over rows are carried
    separately as supplementary figures.
    """

    rows: tuple[ReportRow, ...]
    total: ReportRow
    macro_precision: float
    macro_recall: float
    macro_f1: float

    CSV_COLUMNS = (
        "language",
        "dataset",
        "examples",
        "spans",
        "tp",
        "fp",
        "fn",
        "precision",
        "recall",
        "f1",
        "projection_rate",
    )

    def _row_values(self, row: ReportRow) -> list[str]:
        rate = "" if row.projection_rate is None else f"{row.projection_rate:.6f}"
        return [
            row.language,
            row.dataset,
            str(row.examples),
            str(row.spans),
            str(row.prf.tp),
            str(row.prf.fp),
            str(row.prf.fn),
            f"{row.prf.precision:.6f}",
            f"{row.prf.recall:.6f}",
            f"{row.prf.f1:.6f}",
            rate,
        ]

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.CSV_COLUMNS)
        for row in self.rows:
            writer.writerow(self._row_values(row))
        writer.writerow(self._row_values(self.total))
        return buffer.getvalue()

    def to_json_dict(self) -> dict:
        def row_dict(row: ReportRow) -> dict:
            return {
                "language": row.language,
                "dataset": row.dataset,
                "examples": row.examples,
                "spans": row.spans,
                "tp": row.prf.tp,
                "fp": row.prf.fp,
                "fn": row.prf.fn,
                "precision": row.prf.precision,
                "recall": row.prf.recall,
                "f1": row.prf.f1,
                "projection_rate": row.projection_rate,
            }

        return {
            "rows": [row_dict(r) for r in self.rows],
            "global": row_dict(self.total),
            "macro": {
                "precision": self.macro_precision,
                "recall": self.macro_recall,
                "f1": self.macro_f1,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), ensure_ascii=False, indent=2) + "\n"

    def to_table(self) -> str:
        body = [self._row_values(r) for r in self.rows] + [self._row_values(self.total)]
        return render_table(self.CSV_COLUMNS, body)


def build_report(
    groups: Iterable[EvalGroup],
    threshold: float = DEFAULT_THRESHOLD,
    *,
    normalize: bool = True,
) -> EvalReport:
    """Score every group and aggregate a deterministic report.

    Rows sort by (language, dataset). Raises :class:`EmptyInputError` for a
    group with no reference documents or an empty tuple of match flags.
    """
    ordered = sorted(groups, key=lambda g: (g.language, g.dataset))
    if not ordered:
        raise EmptyInputError("no groups to report on")

    rows: list[ReportRow] = []
    tp = fp = fn = 0
    examples = spans = 0
    matches = n_pairs = 0
    for group in ordered:
        if not group.reference:
            raise EmptyInputError(f"group ({group.language!r}, {group.dataset!r}) is empty")
        prf = label_match_f1(group.projected, group.reference, threshold, normalize=normalize)
        rate = None
        if group.marker_matches is not None:
            if not group.marker_matches:
                raise EmptyInputError("projection rate is undefined on an empty pair list")
            group_matches = sum(group.marker_matches)
            rate = group_matches / len(group.marker_matches)
            matches += group_matches
            n_pairs += len(group.marker_matches)
        n_spans = sum(len(doc.spans) for doc in group.reference)
        rows.append(ReportRow(group.language, group.dataset, len(group.reference), n_spans, prf, rate))
        tp += prf.tp
        fp += prf.fp
        fn += prf.fn
        examples += len(group.reference)
        spans += n_spans

    global_rate = matches / n_pairs if n_pairs else None
    total = ReportRow("(all)", "(all)", examples, spans, PRF.from_counts(tp, fp, fn), global_rate)
    macro_p = sum(r.prf.precision for r in rows) / len(rows)
    macro_r = sum(r.prf.recall for r in rows) / len(rows)
    macro_f = sum(r.prf.f1 for r in rows) / len(rows)
    return EvalReport(tuple(rows), total, macro_p, macro_r, macro_f)
