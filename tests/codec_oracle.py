"""Reference codec: the character-by-character encoder and the two-step
scanner with its own pairing loop that ``labelproj.codec`` replaced, and
``project`` composed from the public codec calls.

Kept only as an oracle: tests require the production codec to give
byte-equal tagged strings and equal (document, diagnostics) results.
``strip_markers``, once public in the codec, is the oracle for the text
``decode`` recovers. ``oracle_signature`` is ``signature`` as it was before
it counted the scanner's matches itself: a Counter over ``scan_markers``'s
tokens. ``oracle_match_flag`` compares two of them, as ``project``'s match
flag once did. ``oracle_occurrences`` is ``occurrences`` with its old
key function.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple

from labelproj import AnnotatedText, MarkerScheme, Span, TaggedText, decode, encode, tag_name
from labelproj.codec import scan_markers
from labelproj.errors import InvalidAnnotationError
from labelproj.model import MARKER_RE, SEVERITY_INFO, SEVERITY_WARNING, Diagnostic, has_errors, validate

_LOOKALIKE_RE = re.compile(r"</?[^<>]*>")
_Token = namedtuple("_Token", "name kind start end")


def _tag_sort_key(tag: str) -> tuple[int, str]:
    return (len(tag), tag)


def oracle_scan_markers(tagged, scheme=MarkerScheme.XML):
    tokens, diagnostics = [], []
    if scheme is MarkerScheme.BRACKETS:
        for i, ch in enumerate(tagged):
            if ch == "[":
                tokens.append(_Token("", "open", i, i + 1))
            elif ch == "]":
                tokens.append(_Token("", "close", i, i + 1))
        return tokens, diagnostics

    for match in _LOOKALIKE_RE.finditer(tagged):
        token = match.group(0)
        exact = MARKER_RE.fullmatch(token)
        if exact is None:
            diagnostics.append(
                Diagnostic(
                    SEVERITY_INFO,
                    "IGNORED_LITERAL",
                    f"marker-like substring {token!r} left as literal text",
                    offset=match.start(),
                )
            )
            continue
        kind = "close" if exact.group(1) else "open"
        tokens.append(_Token(exact.group(2), kind, match.start(), match.end()))
    return tokens, diagnostics


def oracle_occurrences(spans) -> dict[str, list[int]]:
    by_tag: dict[str, list[int]] = {}
    for i in sorted(range(len(spans)), key=lambda i: (spans[i].start, spans[i].end)):
        by_tag.setdefault(spans[i].tag, []).append(i)
    return by_tag


def oracle_signature(tagged: TaggedText, scheme=MarkerScheme.XML) -> Counter:
    return Counter((t.name, t.kind) for t in scan_markers(tagged.tagged, scheme).tokens)


def oracle_match_flag(encoded: TaggedText, hypothesis: TaggedText, scheme=MarkerScheme.XML) -> bool:
    """Does ``hypothesis`` carry the marker multiset of ``encoded``, the encoding of its source?"""
    return oracle_signature(encoded, scheme) == oracle_signature(hypothesis, scheme)


def strip_markers(tagged, scheme=MarkerScheme.XML) -> str:
    """Remove every recognized marker, keeping everything else verbatim."""
    raw = tagged.tagged if isinstance(tagged, TaggedText) else tagged
    tokens, _ = oracle_scan_markers(raw, scheme)
    pieces, cursor = [], 0
    for token in tokens:
        pieces.append(raw[cursor : token.start])
        cursor = token.end
    return "".join(pieces) + raw[cursor:]


def oracle_encode(doc: AnnotatedText, scheme=MarkerScheme.XML) -> TaggedText:
    diagnostics = validate(doc)
    if has_errors(diagnostics):
        codes = ", ".join(sorted({d.code for d in diagnostics if d.severity == "error"}))
        raise InvalidAnnotationError(f"document {doc.id!r} fails validation: {codes}")

    opens = list(enumerate(doc.spans))
    opens.sort(key=lambda item: (item[1].start, -(item[1].end - item[1].start), _tag_sort_key(item[1].tag), item[0]))
    open_rank = {idx: rank for rank, (idx, _) in enumerate(opens)}

    opens_at: dict[int, list[int]] = {}
    closes_at: dict[int, list[int]] = {}
    zero_width_at: dict[int, list[int]] = {}
    for idx, span in opens:
        opens_at.setdefault(span.start, []).append(idx)
        if span.start == span.end:
            zero_width_at.setdefault(span.end, []).append(idx)
        else:
            closes_at.setdefault(span.end, []).append(idx)

    if scheme is MarkerScheme.BRACKETS:
        def open_marker(span):
            return "["

        def close_marker(span):
            return "]"
    else:
        def open_marker(span):
            return f"<{span.tag}>"

        def close_marker(span):
            return f"</{span.tag}>"

    pieces = []
    for pos in range(len(doc.text) + 1):
        for idx in sorted(closes_at.get(pos, ()), key=lambda i: -open_rank[i]):
            pieces.append(close_marker(doc.spans[idx]))
        for idx in opens_at.get(pos, ()):
            pieces.append(open_marker(doc.spans[idx]))
        for idx in sorted(zero_width_at.get(pos, ()), key=lambda i: -open_rank[i]):
            pieces.append(close_marker(doc.spans[idx]))
        if pos < len(doc.text):
            pieces.append(doc.text[pos])
    return TaggedText(id=doc.id, lang=doc.lang, tagged="".join(pieces))


def oracle_decode(tagged, scheme=MarkerScheme.XML, *, doc_id="", lang=""):
    if isinstance(tagged, TaggedText):
        raw, doc_id, lang = tagged.tagged, tagged.id, tagged.lang
    else:
        raw = tagged

    tokens, diagnostics = oracle_scan_markers(raw, scheme)
    out = []
    out_len = 0
    cursor = 0
    stacks: dict[str, list[tuple[int, int, int]]] = {}
    open_count = 0
    spans = []

    for token in tokens:
        if cursor < token.start:
            chunk = raw[cursor : token.start]
            out.append(chunk)
            out_len += len(chunk)
        cursor = token.end
        if token.kind == "open":
            stacks.setdefault(token.name, []).append((out_len, token.start, open_count))
            open_count += 1
        else:
            stack = stacks.get(token.name)
            if stack:
                start, _, order = stack.pop()
                name = token.name if scheme is MarkerScheme.XML else tag_name(order)
                spans.append(Span(name, start, out_len))
            else:
                diagnostics.append(
                    Diagnostic(
                        SEVERITY_WARNING,
                        "ORPHAN_CLOSE",
                        f"close marker {raw[token.start:token.end]!r} without a matching open",
                        offset=token.start,
                    )
                )
    if cursor < len(raw):
        chunk = raw[cursor:]
        out.append(chunk)
        out_len += len(chunk)

    leftovers = [
        (raw_pos, order, name, start)
        for name, stack in stacks.items()
        for (start, raw_pos, order) in stack
    ]
    for raw_pos, order, name, start in sorted(leftovers):
        shown = name if scheme is MarkerScheme.XML else tag_name(order)
        spans.append(Span(shown, start, out_len))
        diagnostics.append(
            Diagnostic(
                SEVERITY_WARNING,
                "UNCLOSED_OPEN",
                f"open marker for {shown!r} never closed; span extended to end of text",
                offset=raw_pos,
            )
        )

    spans.sort(key=lambda s: (s.start, -s.end, _tag_sort_key(s.tag)))
    diagnostics.sort(key=lambda d: (d.offset if d.offset is not None else 1 << 62))
    text = "".join(out)
    return AnnotatedText(id=doc_id, lang=lang, text=text, spans=tuple(spans)), diagnostics


def oracle_with_source_labels(doc: AnnotatedText, source: AnnotatedText) -> AnnotatedText:
    """Every span of ``doc`` rebuilt with the label of the source span with the same (tag, occurrence index)."""
    labels = [None] * len(doc.spans)
    source_positions = oracle_occurrences(source.spans)
    for tag, positions in oracle_occurrences(doc.spans).items():
        for i, j in zip(positions, source_positions.get(tag, ())):
            labels[i] = source.spans[j].label
    return doc._replace(spans=tuple(Span(s.tag, s.start, s.end, label) for s, label in zip(doc.spans, labels)))


def oracle_project(docs, backend, src_lang, tgt_lang, scheme=MarkerScheme.XML):
    """What ``project`` gives per document, one step at a time over every document in one batch: encode,
    translate, decode in the hypothesis's language, relabel every span (XML only), then move the document to
    ``tgt_lang``. Each item is (the document it yields, its decode diagnostics, the match flag and the span
    positions grouped by tag that it feeds the report); the match flag compares signatures."""
    sources = [encode(doc, scheme) for doc in docs]
    hypotheses = backend.translate_batch(sources, src_lang, tgt_lang)
    results = []
    for doc, encoded, hypothesis in zip(docs, sources, hypotheses):
        projected, diagnostics = decode(hypothesis, scheme)
        if scheme is MarkerScheme.XML:
            projected = oracle_with_source_labels(projected, doc)
        matched = oracle_match_flag(encoded, hypothesis, scheme)
        results.append((projected._replace(lang=tgt_lang), diagnostics, matched, oracle_occurrences(projected.spans)))
    return results
