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

from .codec import MarkerScheme, corresponding, occurrences, signature
from .errors import AlignmentError, EmptyInputError
from .model import AnnotatedText, TaggedText, record_type
from .similarity import _reaches

DEFAULT_THRESHOLD = 0.5
DEFAULT_DATASET = "dataset"


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


def _doc_counts(projected: AnnotatedText, by_tag: dict, reference: AnnotatedText, threshold: float) -> tuple:
    """(tp, fp, fn), ``by_tag`` grouping the projected spans: a true positive is a pair reaching the threshold."""
    tp = sum(
        _reaches(projected.span_text(projected.spans[i]), reference.span_text(reference.spans[j]), threshold)
        for i, j in corresponding(by_tag, reference.spans)
    )
    return tp, len(projected.spans) - tp, len(reference.spans) - tp


def check_threshold(threshold: float) -> None:
    """Raise ValueError unless ``threshold`` is a similarity in [0, 1]."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")


def _tally(projected: Iterable, reference: Iterable, marker_matches: Mapping, **options) -> ReportAccumulator:
    """A :class:`ReportAccumulator` fed every projected document that has a reference, then checked."""
    counts = ReportAccumulator(reference, **options)
    for doc in projected:
        ref = counts.reference_for(doc.id)
        if ref is not None:
            counts.add(doc, occurrences(doc.spans), ref, marker_matches.get(doc.id))
    counts.check()
    return counts


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
    return _tally(projected, reference, {}, threshold=threshold).prf()


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


class ReportAccumulator:
    """A report fed one projected document at a time, paired with the reference document of its id, read in step:
    one read before it is asked for waits in an index by id, empty while both sides come in one order. With no
    reference (None) it only refuses a repeated projected id. A threshold outside [0, 1] is refused at once."""

    def __init__(self, reference: Iterable | None, dataset: str = DEFAULT_DATASET, threshold: float = DEFAULT_THRESHOLD):
        check_threshold(threshold)
        self.dataset = dataset
        self.threshold = threshold
        self.has_reference = reference is not None
        self._reference = enumerate(reference or ())
        self._ahead: dict[str, tuple[int, AnnotatedText]] = {}  # id -> (position, document), not yet asked for
        self._asked: dict[str, bool] = {}  # each projected id -> whether the reference has it
        self._repeat: tuple[int, str] | None = None  # the first repeated reference id's position and message
        self._rows: dict[str, list[int]] = {}  # language -> [examples, spans, tp, fp, fn, flags, true flags]

    def __len__(self) -> int:
        """The number of projected ids asked for so far."""
        return len(self._asked)

    def _read_until(self, doc_id: str | None) -> AnnotatedText | None:
        """Read the reference up to the document with id ``doc_id``, indexing every other document read."""
        for position, ref in self._reference:
            if ref.id in self._ahead or ref.id in self._asked:
                self._repeat = self._repeat or (position, f"duplicate id {ref.id!r} on the reference side")
            elif ref.id == doc_id:
                return ref
            else:
                self._ahead[ref.id] = (position, ref)
        return None

    def reference_for(self, doc_id: str) -> AnnotatedText | None:
        """The reference document with id ``doc_id``, or None; an id asked for twice is an AlignmentError."""
        if doc_id in self._asked:
            raise AlignmentError("duplicate ids among projected documents")
        found = self._ahead.pop(doc_id, None)
        ref = found[1] if found else self._read_until(doc_id)
        self._asked[doc_id] = ref is not None
        return ref

    def add(self, projected: AnnotatedText, by_tag: dict, reference: AnnotatedText, matched: bool | None) -> None:
        """Count one pair: ``by_tag`` is ``occurrences(projected.spans)``, ``matched`` its match flag or None."""
        tp, fp, fn = _doc_counts(projected, by_tag, reference, self.threshold)
        row = self._rows.setdefault(reference.lang, [0] * 7)
        row[0] += 1
        row[1] += len(reference.spans)
        row[2] += tp
        row[3] += fp
        row[4] += fn
        if matched is not None:
            row[5] += 1
            row[6] += bool(matched)

    def check(self) -> None:
        """Read the rest of the reference, then raise :class:`AlignmentError` on the first reference document,
        in reference order, whose id repeats or was never asked for, else on projected ids with no reference."""
        self._read_until(None)
        problems = [self._repeat] if self._repeat else []
        problems += [(at, f"reference id {i!r} has no projected document") for i, (at, _) in self._ahead.items()]
        if problems:
            raise AlignmentError(min(problems)[1])
        missing = sorted(doc_id for doc_id, found in self._asked.items() if not found)
        if missing:
            raise AlignmentError(f"projected ids with no reference: {missing[:5]}")

    def prf(self) -> PRF:
        """The micro-aggregated counts of every pair."""
        _, _, tp, fp, fn, _, _ = map(sum, zip(*self._rows.values(), [0] * 7))
        return PRF.from_counts(tp, fp, fn)

    def report(self) -> EvalReport:
        """One row per language, sorted; :class:`EmptyInputError` with no pairs."""
        if not self._rows:
            raise EmptyInputError("no groups to report on")
        rows = [
            ReportRow(lang, self.dataset, examples, spans, PRF.from_counts(tp, fp, fn), true / flags if flags else None)
            for lang, (examples, spans, tp, fp, fn, flags, true) in sorted(self._rows.items())
        ]
        examples, spans, _, _, _, flags, true = map(sum, zip(*self._rows.values()))
        total = ReportRow("(all)", "(all)", examples, spans, self.prf(), true / flags if flags else None)
        macro_p = sum(r.prf.precision for r in rows) / len(rows)
        macro_r = sum(r.prf.recall for r in rows) / len(rows)
        macro_f = sum(r.prf.f1 for r in rows) / len(rows)
        return EvalReport(tuple(rows), total, macro_p, macro_r, macro_f)


def build_report(
    projected: Sequence[AnnotatedText],
    reference: Sequence[AnnotatedText],
    marker_matches: Mapping[str, bool] | None = None,
    *,
    dataset: str = DEFAULT_DATASET,
    threshold: float = DEFAULT_THRESHOLD,
) -> EvalReport:
    """Score projected documents against their references in one row per reference language.

    Documents align by id as in :func:`label_match_f1`. ``marker_matches``
    maps a pair's id to its match flag; a row's projection rate sums the
    flags of its reference ids, and is ``None`` when it has none. Rows sort
    by language. Raises :class:`EmptyInputError` with no reference documents.
    """
    return _tally(projected, reference, marker_matches or {}, dataset=dataset, threshold=threshold).report()
