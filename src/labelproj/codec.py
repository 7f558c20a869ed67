"""Inline-marker codec: annotated spans to tagged strings and back.

Two schemes are supported. The XML-style scheme writes ``<a>span</a>``
markers whose names identify which source span each translated span came
from; it is the primary scheme and round-trips exactly. The square-bracket
scheme writes anonymous ``[`` / ``]`` markers for baseline comparisons and
claims no correspondence between input and recovered spans.

Decoding is a lenient left-to-right scan rather than a strict XML parse:
tagged text coming back from a translation model may interleave markers in
ways that are not well-formed XML (overlapping spans, dropped or duplicated
markers), and every such anomaly must be reported instead of failing.
"""

from __future__ import annotations

import re
from collections import Counter
from enum import Enum
from functools import cache
from itertools import count, islice
from typing import TYPE_CHECKING, Iterable, Iterator, Literal, NamedTuple, Sequence

from .errors import AlignmentError, InvalidAnnotationError, LabelProjError
from .model import (
    MARKER_RE,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    AnnotatedText,
    Diagnostic,
    Span,
    TaggedText,
    has_errors,
    validate,
)

if TYPE_CHECKING:  # backends and evaluation import this module
    from .backends import TranslationBackend
    from .evaluation import ReportAccumulator

MarkerKind = Literal["open", "close"]

# The marker grammar, else any other angle-bracketed substring (e.g. "<1>"
# or "<PER>"), reported as a literal lookalike. Both alternatives end at the
# first ">", so a grammar match spans exactly the lookalike it would
# otherwise be. The bracket scanner has the same groups: 1 is set on a close,
# and 2 is the name, empty for a bracket and None only for a lookalike.
# ``signature`` counts the same two groups with ``findall`` (a lookalike's
# name reads "" there), so a change to the groups changes both readers.
_SCANNER = re.compile(MARKER_RE.pattern + r"|</?[^<>]*>")
_BRACKET_SCANNER = re.compile(r"(?:(\])|\[)()")

_ALPHA = "abcdefghijklmnopqrstuvwxyz"


class MarkerScheme(str, Enum):
    XML = "xml"
    BRACKETS = "brackets"


@cache
def tag_name(index: int) -> str:
    """Return the tag for a zero-based span index: a, b, ..., z, aa, ab, ...

    Bijective base-26 numeration in lowercase; stable across runs, and
    computed once per index.
    """
    if index < 0:
        raise ValueError("tag index must be non-negative")
    n = index + 1
    out: list[str] = []
    while n:
        n, rem = divmod(n - 1, 26)
        out.append(_ALPHA[rem])
    return "".join(reversed(out))


class MarkerToken(NamedTuple):
    """One recognized marker: its offsets in the raw tagged string, and ``at``, its offset once every
    marker is stripped."""

    name: str
    kind: MarkerKind
    start: int
    end: int
    at: int


class MarkerScan(NamedTuple):
    """Everything one left-to-right pass over a tagged string finds. Opens pair with closes per name,
    last-opened-first-closed; an open's rank is its position among the opens."""

    text: str  # the string with every recognized marker stripped
    tokens: list[MarkerToken]  # every recognized marker, in text order
    pairs: list[tuple[int, MarkerToken, MarkerToken]]  # (rank, open, close), in opening order
    orphans: list[MarkerToken]  # closes with no open to pair with, in text order
    unclosed: list[tuple[int, MarkerToken]]  # (rank, open) never closed, in text order
    diagnostics: list[Diagnostic]  # IGNORED_LITERAL, for each lookalike left in ``text``


def scan_markers(tagged: str, scheme: MarkerScheme = MarkerScheme.XML) -> MarkerScan:
    """Scan, pair and strip the markers of ``tagged`` in one loop over the scanner's matches."""
    pieces: list[str] = []
    tokens: list[MarkerToken] = []
    stacks: dict[str, list[tuple[int, MarkerToken]]] = {}
    pairs: list[tuple[int, MarkerToken, MarkerToken]] = []
    orphans: list[MarkerToken] = []
    diagnostics: list[Diagnostic] = []
    cursor = removed = rank = 0
    for match in (_SCANNER if scheme is MarkerScheme.XML else _BRACKET_SCANNER).finditer(tagged):
        slash, name = match.group(1, 2)
        start, end = match.span()
        if name is None:
            message = f"marker-like substring {match.group()!r} left as literal text"
            diagnostics.append(Diagnostic(SEVERITY_INFO, "IGNORED_LITERAL", message, offset=start))
            continue
        pieces.append(tagged[cursor:start])
        cursor = end
        token = tuple.__new__(MarkerToken, (name, "close" if slash else "open", start, end, start - removed))
        removed += end - start
        tokens.append(token)
        if not slash:
            stacks.setdefault(name, []).append((rank, token))
            rank += 1
        elif stack := stacks.get(name):
            opened_rank, opened = stack.pop()
            pairs.append((opened_rank, opened, token))
        else:
            orphans.append(token)
    pieces.append(tagged[cursor:])
    pairs.sort()  # ranks are unique, so no token is compared
    unclosed = sorted(entry for stack in stacks.values() for entry in stack)
    return MarkerScan("".join(pieces), tokens, pairs, orphans, unclosed, diagnostics)


def _strip(raw: str, tokens: list[MarkerToken]) -> str:
    pieces = []
    cursor = 0
    for token in tokens:
        pieces.append(raw[cursor : token.start])
        cursor = token.end
    pieces.append(raw[cursor:])
    return "".join(pieces)


def encode(doc: AnnotatedText, scheme: MarkerScheme = MarkerScheme.XML) -> TaggedText:
    """Serialize spans into inline markers around the unchanged text.

    Every span contributes an open marker at its start offset and a close
    marker at its end offset. When several markers share an offset, closes
    of earlier-opened spans come first (most recently opened closing first),
    then opens (longest span first, ties by tag sequence order); zero-width
    spans close immediately after the opens at that offset. Stripping all
    markers from the output reproduces ``doc.text`` exactly.
    """
    diagnostics = validate(doc)
    if has_errors(diagnostics):
        codes = ", ".join(sorted({d.code for d in diagnostics if d.severity == "error"}))
        raise InvalidAnnotationError(f"document {doc.id!r} fails validation: {codes}")
    return _place_markers(doc, scheme)


def _place_markers(doc: AnnotatedText, scheme: MarkerScheme) -> TaggedText:
    """:func:`encode` without its check, for a document that passed ``validate``."""
    # Opening order: by start, then longest span first, then tag sequence
    # order; spans that tie on all of these write the same markers.
    opening = sorted([(start, start - end, len(tag), tag, end) for tag, start, end, _ in doc.spans])
    # (offset, phase, rank, marker): at one offset, closes (phase 0) precede
    # opens (1), which precede zero-width closes (2); closes go in reverse
    # opening order. Ranks are unique, so the marker is never compared.
    events: list[tuple[int, int, int, str]] = []
    xml = scheme is MarkerScheme.XML
    for rank, (start, _, _, tag, end) in enumerate(opening):
        open_marker, close_marker = (f"<{tag}>", f"</{tag}>") if xml else ("[", "]")
        events.append((start, 1, rank, open_marker))
        events.append((end, 2 if start == end else 0, -rank, close_marker))
    events.sort()

    pieces: list[str] = []
    cursor = 0
    for offset, _, _, marker in events:
        pieces.append(doc.text[cursor:offset])
        pieces.append(marker)
        cursor = offset
    pieces.append(doc.text[cursor:])
    return TaggedText(id=doc.id, lang=doc.lang, tagged="".join(pieces))


def decode(tagged: TaggedText, scheme: MarkerScheme = MarkerScheme.XML) -> tuple[AnnotatedText, list[Diagnostic]]:
    """Recover spans from a tagged string; total over all inputs.

    Recognized markers are stripped from the text; recovered offsets index
    the stripped text. Opens and closes pair per tag name with a
    last-opened-first-closed discipline (square brackets pair under one
    anonymous name and yield spans tagged a, b, ... in opening order).
    Anomalies become diagnostics, never exceptions: closes without a
    matching open are dropped (ORPHAN_CLOSE), opens without a close extend
    to the end of the text (UNCLOSED_OPEN), and marker lookalikes such as
    "<1>" stay literal (IGNORED_LITERAL).

    Output spans are sorted by (start, longest first, tag sequence order).
    """
    return _decode(tagged, scheme)[:2]


def _decode(tagged: TaggedText, scheme: MarkerScheme) -> tuple[AnnotatedText, list[Diagnostic], MarkerScan]:
    """:func:`decode`, plus the scan it made: its tokens are what ``signature`` counts."""
    scan = scan_markers(tagged.tagged, scheme)
    end = len(scan.text)
    xml = scheme is MarkerScheme.XML  # bracket spans are named in opening order
    # (start, -end, len(tag), tag): the output order, which also fixes the span, as every label is None.
    tags = [o.name if xml else tag_name(rank) for rank, o, _ in scan.pairs]
    keys = [(o.at, -c.at, len(tag), tag) for (_, o, c), tag in zip(scan.pairs, tags)]
    diagnostics = list(scan.diagnostics)
    for token in scan.orphans:
        message = f"close marker {tagged.tagged[token.start:token.end]!r} without a matching open"
        diagnostics.append(Diagnostic(SEVERITY_WARNING, "ORPHAN_CLOSE", message, offset=token.start))
    for rank, token in scan.unclosed:
        shown = token.name if xml else tag_name(rank)
        keys.append((token.at, -end, len(shown), shown))
        message = f"open marker for {shown!r} never closed; span extended to end of text"
        diagnostics.append(Diagnostic(SEVERITY_WARNING, "UNCLOSED_OPEN", message, offset=token.start))
    keys.sort()
    spans = tuple([tuple.__new__(Span, (tag, start, -neg_end, None)) for start, neg_end, _, tag in keys])
    diagnostics.sort(key=lambda d: d.offset)  # every one has an offset, and no two the same
    return tuple.__new__(AnnotatedText, (tagged.id, tagged.lang, scan.text, spans)), diagnostics, scan


def signature(tagged: TaggedText, scheme: MarkerScheme = MarkerScheme.XML) -> Counter[tuple[str, MarkerKind]]:
    """Count every recognized marker, orphans included, keyed by ``(name, "open"|"close")``.

    Square-bracket markers count under the anonymous name ``""``. The scanner's matches are counted as
    ``(close slash, name)`` group pairs, with no stripping or pairing; in the XML scheme a lookalike's name is ``""``.
    """
    xml = scheme is MarkerScheme.XML
    found = Counter((_SCANNER if xml else _BRACKET_SCANNER).findall(tagged.tagged))
    return Counter({(name, "close" if slash else "open"): n for (slash, name), n in found.items() if name or not xml})


def _match_flag(doc: AnnotatedText, encoded: TaggedText, scan: MarkerScan, scheme: MarkerScheme) -> bool:
    """``signature(encoded, scheme) == signature(hypothesis, scheme)`` for ``encoded = encode(doc, scheme)`` and
    ``scan`` the hypothesis's scan. Brackets have one name, and the text's own brackets count too. An inserted
    marker can split a marker-shaped substring of an XML text, so such a text's encoding is scanned; any other
    text's encoding has exactly one open and one close per span, so the hypothesis must have the span tags as the
    names of its opens and of its closes."""
    tokens = scan.tokens
    if scheme is MarkerScheme.BRACKETS:
        opens = sum([t.kind == "open" for t in tokens])
        n = len(doc.spans)
        return opens == n + doc.text.count("[") and len(tokens) - opens == n + doc.text.count("]")
    if "<" in doc.text and MARKER_RE.search(doc.text):
        return signature(encoded, scheme) == Counter((t.name, t.kind) for t in tokens)
    if len(tokens) != 2 * len(doc.spans):
        return False
    opens = sorted([t.name for t in tokens if t.kind == "open"])
    closes = sorted([t.name for t in tokens if t.kind == "close"])
    return opens == closes == sorted([span.tag for span in doc.spans])


def occurrences(spans: Sequence[Span]) -> dict[str, list[int]]:
    """Positions in ``spans`` grouped by tag, each group in text order.

    The k-th position under a tag is that tag's occurrence k: the
    correspondence key between a projected and a reference document.
    """
    by_tag: dict[str, list[int]] = {}
    for _, _, i, tag in sorted([(span.start, span.end, i, span.tag) for i, span in enumerate(spans)]):
        by_tag.setdefault(tag, []).append(i)
    return by_tag


def corresponding(a_by_tag: dict[str, list[int]], b_spans: Sequence[Span]) -> list[tuple[int, int]]:
    """Position pairs ``(i, j)`` of corresponding spans, for ``a_by_tag = occurrences(a_spans)``: the k-th span
    with a tag in ``a_spans`` and the k-th span with that tag in ``b_spans``. A span with no counterpart appears
    in no pair."""
    b_by_tag = occurrences(b_spans)
    return [pair for tag, positions in a_by_tag.items() for pair in zip(positions, b_by_tag.get(tag, ()))]


def _with_source_labels(doc: AnnotatedText, by_tag: dict[str, list[int]], source: AnnotatedText) -> AnnotatedText:
    """Give each span of ``doc``, which has no labels and whose spans ``by_tag`` groups, the label of its
    corresponding source span; ``doc`` itself when the source has no labels either."""
    if all(span.label is None for span in source.spans):
        return doc
    labels = {i: source.spans[j].label for i, j in corresponding(by_tag, source.spans)}
    spans = tuple(span._replace(label=labels.get(i)) for i, span in enumerate(doc.spans))
    return AnnotatedText(doc.id, doc.lang, doc.text, spans)


def _ranked(failures: dict[int, Exception], alignment_rank: int, call, *args):
    """``call(*args)``, or None once its error is in ``failures``: AlignmentError at ``alignment_rank``, else at 2."""
    try:
        return call(*args)
    except AlignmentError as exc:
        failures.setdefault(alignment_rank, exc)
    except (LabelProjError, OSError) as exc:
        failures.setdefault(2, exc)


def windows(items: Iterable, size: int) -> Iterator[tuple[int, list]]:
    """``items`` in lists of ``size``, each with its first item's position in the run. The last list is shorter, and
    yielded even when empty, so an empty run refuses what a full one does."""
    if size < 1:
        raise ValueError(f"window must be >= 1, got {size}")
    items = iter(items)  # each window reads on from the last, a list as well as a reader
    for position in count(0, size):
        window = list(islice(items, size))
        yield position, window
        if len(window) < size:
            return


def project(
    docs: Iterable[AnnotatedText],
    backend: TranslationBackend,
    src_lang: str,
    tgt_lang: str,
    counts: ReportAccumulator,
    diagnostics: list[tuple[str, list[Diagnostic]]],
    window: int,
    scheme: MarkerScheme = MarkerScheme.XML,
) -> Iterator[AnnotatedText]:
    """Project validated ``docs`` in windows of ``window``. Per window: ask ``counts`` for each reference (a repeated
    id is refused), encode, and translate at the window's position in the run, which refuses an answer that is not
    one text per input (:class:`AlignmentError`). Per document: decode, append any diagnostics to
    ``diagnostics`` as ``(id, diagnostics)``, count it against its reference, yield it (XML spans keep source labels).
    After an error no window is translated, but both inputs are read to their ends, and the error raised is the one
    a whole read meets first: reading ``docs`` (raised at once), the reference, a repeated id, the backend, then the
    report's alignment or an empty report."""
    failures: dict[int, Exception] = {}  # the first error of each rank above, counted from 1
    for position, batch in windows(docs, window):
        references = [_ranked(failures, 3, counts.reference_for, doc.id) for doc in batch]
        if not failures:
            try:
                sources = [_place_markers(doc, scheme) for doc in batch]
                hypotheses = backend.translate_batch(sources, src_lang, tgt_lang, position)
            except (LabelProjError, OSError, ValueError) as exc:
                failures.setdefault(4, exc)
        if not failures:  # the window is translated
            for doc, encoded, hypothesis, reference in zip(batch, sources, hypotheses, references):
                projected, found, scan = _decode(hypothesis, scheme)
                by_tag = occurrences(projected.spans)
                if scheme is MarkerScheme.XML:
                    projected = _with_source_labels(projected, by_tag, doc)
                if found:
                    diagnostics.append((doc.id, found))
                if reference is not None:
                    counts.add(projected, by_tag, reference, _match_flag(doc, encoded, scan, scheme))
                yield projected
    if counts.has_reference:
        _ranked(failures, 5, counts.check)
    if failures:
        raise failures[min(failures)]
    if counts.has_reference:
        counts.report()  # a report with no pair is an error too
