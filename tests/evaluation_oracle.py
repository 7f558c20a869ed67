"""Oracles for ``labelproj.evaluation`` and ``labelproj evaluate``.

``oracle_doc_counts`` tallies one (projected, reference) document pair with a
loop over each tag's occurrence indices and a separate branch for a surplus
projected span, a surplus reference span, a match and a miss.
``labelproj.evaluation`` counts true positives over ``codec.corresponding``'s
pairs and takes every other span on either side as a false positive or
negative. Tests require equal (tp, fp, fn) counts for every document pair and
threshold.

``oracle_cmd_evaluate`` is ``evaluate`` as it was when it read every input
whole, with ``oracle_markers_match`` as its match flag and the report loop
that raised each error at once. Tests require the streaming command to give
the same exit code, stdout, stderr and report file.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from labelproj import AlignmentError, AnnotatedText, DatasetFormat, LabelProjError, MarkerScheme, TaggedText
from labelproj.cli import _emit_report, _note_input_diagnostics, _report_options
from labelproj.codec import occurrences, signature
from labelproj.dataio import read_items
from labelproj.evaluation import ReportAccumulator
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


def oracle_markers_match(source: TaggedText, hypothesis: TaggedText, scheme: MarkerScheme = MarkerScheme.XML) -> bool:
    """One pair's match flag: do both sides carry the same marker multiset? Unequal ids are an AlignmentError."""
    if source.id != hypothesis.id:
        raise AlignmentError(f"pair ids differ: {source.id!r} vs {hypothesis.id!r}")
    return signature(source, scheme) == signature(hypothesis, scheme)


def oracle_cmd_evaluate(args: argparse.Namespace) -> int:
    """``labelproj evaluate`` reading each input whole, in the order projected, reference, source, hypothesis,
    then checking the pair files and scoring the projected documents, each step raising its first error."""
    if args.threshold is not None and not 0.0 <= args.threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {args.threshold}")
    if bool(args.source_tagged) != bool(args.hypothesis_tagged):
        raise LabelProjError("--source-tagged and --hypothesis-tagged must be given together")
    diagnostics: list = []

    def read(fmt: DatasetFormat, path: str) -> list:
        return list(read_items(Path(path), fmt, args.error_budget, diagnostics))

    projected = read(DatasetFormat.ANNOTATED_JSONL, args.projected)
    reference = read(DatasetFormat.ANNOTATED_JSONL, args.reference)
    marker_matches = {}
    if args.source_tagged:
        sources, hypotheses = (
            read(DatasetFormat.TAGGED_JSONL, path) for path in (args.source_tagged, args.hypothesis_tagged)
        )
        if len(sources) != len(hypotheses):
            raise AlignmentError("source/hypothesis tagged files differ in length")
        pairs = {s.id: (s, h) for s, h in zip(sources, hypotheses)}
        if len(pairs) != len(sources):
            raise AlignmentError("duplicate ids among source/hypothesis pairs")
        scheme = MarkerScheme(args.scheme)
        marker_matches = {r.id: oracle_markers_match(*pairs[r.id], scheme) for r in reference if r.id in pairs}

    counts = ReportAccumulator(reference, **_report_options(args))  # fed as build_report fed it, each error at once
    for doc in projected:
        ref = counts.reference_for(doc.id)
        if ref is not None:
            counts.add(doc, occurrences(doc.spans), ref, marker_matches.get(doc.id))
    counts.check()
    _emit_report(counts.report(), args.report, args.report_out)
    _note_input_diagnostics(diagnostics)
    return 0
