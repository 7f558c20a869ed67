"""Reference tally for one (projected, reference) document pair: a loop over
each tag's occurrence indices with a separate branch for a surplus projected
span, a surplus reference span, a match and a miss.
``labelproj.evaluation`` counts true positives over ``codec.corresponding``'s
pairs and takes every other span on either side as a false positive or
negative.

Kept only as an oracle: tests require the production tally to give equal
(tp, fp, fn) counts for every document pair and threshold.
"""

from __future__ import annotations

from labelproj import AnnotatedText
from labelproj.similarity import _reaches

from codec_oracle import oracle_occurrences


def oracle_doc_counts(projected: AnnotatedText, reference: AnnotatedText, threshold: float) -> tuple[int, int, int]:
    proj_by_tag = oracle_occurrences(projected.spans)
    ref_by_tag = oracle_occurrences(reference.spans)

    tp = fp = fn = 0
    for tag in set(proj_by_tag) | set(ref_by_tag):
        proj_spans = proj_by_tag.get(tag, ())
        ref_spans = ref_by_tag.get(tag, ())
        for k in range(max(len(proj_spans), len(ref_spans))):
            if k >= len(ref_spans):
                fp += 1
            elif k >= len(proj_spans):
                fn += 1
            elif _reaches(
                projected.span_text(projected.spans[proj_spans[k]]),
                reference.span_text(reference.spans[ref_spans[k]]),
                threshold,
            ):
                tp += 1
            else:
                fp += 1
                fn += 1
    return tp, fp, fn
