"""Reference span check: the pairwise same-name overlap loop that
``labelproj.model.validate`` replaced with one sort-and-sweep per repeated tag.

Kept only as an oracle: tests require ``validate`` to give an equal list of
diagnostics (codes, messages, offsets and order) for every document.
"""

from __future__ import annotations

from labelproj import AnnotatedText, Span
from labelproj.model import _TAG_NAME_RE, MARKER_RE, SEVERITY_ERROR, SEVERITY_WARNING, Diagnostic


def partially_overlap(a: Span, b: Span) -> bool:
    # Half-open intervals: they intersect but neither contains the other.
    if not (a.start < b.end and b.start < a.end):
        return False
    a_contains_b = a.start <= b.start and b.end <= a.end
    b_contains_a = b.start <= a.start and a.end <= b.end
    return not (a_contains_b or b_contains_a)


def oracle_validate(doc: AnnotatedText) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    n = len(doc.text)
    in_bounds: list[Span] = []
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
            in_bounds.append(span)

    by_tag: dict[str, list[Span]] = {}
    for span in in_bounds:
        by_tag.setdefault(span.tag, []).append(span)
    for tag, group in by_tag.items():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                if partially_overlap(group[i], group[j]):
                    a, b = group[i], group[j]
                    diagnostics.append(
                        Diagnostic(
                            SEVERITY_ERROR,
                            "SAME_NAME_OVERLAP",
                            f"spans {tag!r} [{a.start}, {a.end}) and [{b.start}, {b.end}) partially overlap",
                            offset=max(a.start, b.start),
                        )
                    )

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
