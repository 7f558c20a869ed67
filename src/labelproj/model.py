"""Span-annotated text data model and well-formedness validation.

Offsets throughout the toolkit are indices into the sequence of Unicode
scalar values of the owning text (which is what Python string indexing
gives), never bytes or UTF-16 units.
"""

from __future__ import annotations

import re
from typing import NamedTuple

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITY_INFO = "info"

# Inline marker grammar, shared with the codec. Bit-exact:
# open = "<" name ">", close = "</" name ">" with name one or more ASCII
# lowercase letters.
MARKER_RE = re.compile(r"<(/?)([a-z]+)>")
_TAG_NAME_RE = re.compile(r"[a-z]+")


def record_type(cls):
    """Make a ``NamedTuple`` class equal only to its own type, hashed as the plain tuple
    of its fields. A subclass that validates in ``__new__`` declares ``__slots__ = ()``;
    its ``_make``, and so ``_replace``, goes through that ``__new__``."""

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    cls.__eq__, cls.__ne__, cls.__hash__ = __eq__, __ne__, tuple.__hash__
    if "_fields" not in vars(cls):
        cls._make = classmethod(lambda cls, fields: cls(*fields))
    return cls


@record_type
class Diagnostic(NamedTuple):
    """One validation or decoding anomaly: never raised, always reported."""

    severity: str
    code: str
    message: str
    offset: int | None = None


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity == SEVERITY_ERROR for d in diagnostics)


@record_type
class Span(NamedTuple):
    """One labeled region of text, half-open on scalar-value offsets.

    Zero-width spans (start == end) are permitted. The optional label
    carries free-text semantic information (e.g. an entity type) and is
    never serialized into markers.
    """

    tag: str
    start: int
    end: int
    label: str | None = None


class _AnnotatedFields(NamedTuple):
    id: str
    lang: str
    text: str
    spans: tuple[Span, ...] = ()


@record_type
class AnnotatedText(_AnnotatedFields):
    """Text plus a multiset of spans; nesting and overlap are allowed."""

    __slots__ = ()

    def __new__(cls, id: str, lang: str, text: str, spans: tuple[Span, ...] = ()):
        return tuple.__new__(cls, (id, lang, text, tuple(spans)))

    def span_text(self, span: Span) -> str:
        return self.text[span.start : span.end]


@record_type
class TaggedText(NamedTuple):
    """A single string with inline markers, plus a language code."""

    id: str
    lang: str
    tagged: str


def _partial_overlaps(group: list[Span]) -> list[tuple[int, int]]:
    """The pairs ``(i, j)``, ``i < j``, of ``group``'s spans that partially overlap, in ascending order. Taken
    by ``(start, -end)``, a span partially overlaps exactly the still-open spans that end strictly inside it."""
    pairs = []
    still_open: list[int] = []  # the spans that end after the current start, by descending end
    for j, (_, start, end, _) in sorted(enumerate(group), key=lambda item: (item[1].start, -item[1].end)):
        while still_open and group[still_open[-1]].end <= start:
            still_open.pop()
        k = len(still_open)
        while k and group[still_open[k - 1]].end < end:
            k -= 1
        pairs += [(i, j) if i < j else (j, i) for i in still_open[k:]]
        still_open.insert(k, j)  # a nested or disjoint span lands at the tail
    return sorted(pairs)


def validate(doc: AnnotatedText) -> list[Diagnostic]:
    """Check an AnnotatedText against its invariants.

    Returns one record per violation; an empty list means the document is
    well-formed. Error codes:

    * ``OFFSET_OOB``: a span's offsets fall outside the text.
    * ``EMPTY_TAG``: a span has an empty tag name.
    * ``BAD_TAG_NAME``: a tag does not match the marker grammar.
    * ``SAME_NAME_OVERLAP``: two spans with the same tag partially
      overlap (same-name spans must be disjoint or properly nested,
      otherwise pairing open/close markers by name cannot recover them).

    Additionally emits a ``MARKER_COLLISION`` warning when the text itself
    contains a substring matching the marker grammar; such documents still
    encode, but are excluded from round-trip guarantees.

    One loop over the spans groups the in-bounds ones by tag; each repeated
    tag gets one sort and sweep, O(k log k) plus one step per reported pair.
    Only a text that holds a ``<`` is searched for markers.
    """
    diagnostics: list[Diagnostic] = []
    n = len(doc.text)
    by_tag: dict[str, list[Span]] = {}
    for span in doc.spans:
        if not span.tag:
            diagnostics.append(
                Diagnostic(SEVERITY_ERROR, "EMPTY_TAG", f"span {span.start}:{span.end} has an empty tag")
            )
        elif not _TAG_NAME_RE.fullmatch(span.tag):
            diagnostics.append(
                Diagnostic(
                    SEVERITY_ERROR,
                    "BAD_TAG_NAME",
                    f"tag {span.tag!r} does not match the marker name grammar",
                )
            )
        if not (0 <= span.start <= span.end <= n):
            diagnostics.append(
                Diagnostic(
                    SEVERITY_ERROR,
                    "OFFSET_OOB",
                    f"span {span.tag!r} [{span.start}, {span.end}) outside text of length {n}",
                )
            )
        else:
            by_tag.setdefault(span.tag, []).append(span)

    for tag, group in by_tag.items():
        if len(group) > 1:
            for i, j in _partial_overlaps(group):
                a, b = group[i], group[j]
                diagnostics.append(
                    Diagnostic(
                        SEVERITY_ERROR,
                        "SAME_NAME_OVERLAP",
                        f"spans {tag!r} [{a.start}, {a.end}) and [{b.start}, {b.end}) partially overlap",
                        offset=max(a.start, b.start),
                    )
                )

    if "<" in doc.text:
        for match in MARKER_RE.finditer(doc.text):
            diagnostics.append(
                Diagnostic(
                    SEVERITY_WARNING,
                    "MARKER_COLLISION",
                    f"text contains marker-shaped substring {match.group(0)!r}",
                    offset=match.start(),
                )
            )
    return diagnostics
