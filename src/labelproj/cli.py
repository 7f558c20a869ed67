"""Command-line entry point.

Each subcommand is one re-runnable pipeline stage; intermediate artifacts
are plain JSONL so any stage can be cached or swapped out. All outputs are
written atomically. Exit codes: 0 on success, 1 on any terminal error, 2
when the malformed-record budget is exhausted or a batch flag is out of range.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

from .backends import (
    MAX_IN_FLIGHT,
    ConstantScorer,
    HttpScorerBackend,
    HttpTranslationBackend,
    IdentityBackend,
    ScorerBackend,
    TagDropperBackend,
    TagShufflerBackend,
    TranslationBackend,
)
from .codec import MarkerScheme, _place_markers, decode, encode, project, signature
from .corpus import filter_parallel_qa, pair_qa_contexts, prepare_training_corpus, tag_swap
from .dataio import (
    DatasetFormat,
    atomic_write_text,
    dump,
    ingest_qa,
    load,
    read_items,
    read_qa_tree,
    write_diagnostics,
    write_records,
)
from .errors import AlignmentError, ErrorBudgetExceeded, LabelProjError, UsageError
from .evaluation import (
    DEFAULT_DATASET, DEFAULT_THRESHOLD, ReportAccumulator, build_report, check_threshold, markers_match, render_table
)
from .model import Diagnostic
from .synth import InsertionMode, MarkerConfig, derive_seed, sample_corpus

ENV_BACKEND_URL = "LP_BACKEND_URL"
ENV_SCORER_URL = "LP_SCORER_URL"
ENV_BEARER_TOKEN = "LP_BEARER_TOKEN"


def _number(value: str, form: str) -> float:
    """The number after the ':' of a ``kind:number`` flag value; ``form`` says what the flag expects."""
    try:
        return float(value.partition(":")[2])
    except ValueError:
        raise LabelProjError(f"{form}, got {value!r}") from None


def make_backend(
    value: str | None, seed: int, batch_size: int, max_in_flight: int, scheme: MarkerScheme = MarkerScheme.XML
) -> TranslationBackend:
    """Parse a --backend value: identity | shuffle | drop:Q | http(s) URL.

    ``shuffle`` and ``drop:Q`` move or drop markers of ``scheme``; any backend refuses sizes below 1 or above the cap.
    """
    for name, number in (("batch_size", batch_size), ("max_in_flight", max_in_flight)):
        if number < 1:
            raise UsageError(f"{name} must be >= 1")
    if max_in_flight > MAX_IN_FLIGHT:  # each slot of an HTTP backend is one thread and one connection
        raise UsageError(f"max_in_flight must be <= {MAX_IN_FLIGHT}")
    value = value or os.environ.get(ENV_BACKEND_URL)
    if not value:
        raise LabelProjError(f"no backend given and {ENV_BACKEND_URL} is unset")
    if value == "identity":
        return IdentityBackend()
    if value == "shuffle":
        return TagShufflerBackend(seed, scheme)
    if value.startswith("drop:"):
        return TagDropperBackend(_number(value, "--backend drop:Q needs a number Q in [0, 1]"), seed, scheme)
    if value.startswith(("http:", "https:")):
        return HttpTranslationBackend(
            value,
            batch_size=batch_size,
            max_in_flight=max_in_flight,
            bearer_token=os.environ.get(ENV_BEARER_TOKEN),
        )
    raise LabelProjError(f"unrecognized backend {value!r}")


def make_scorer(value: str | None) -> ScorerBackend | None:
    value = value or os.environ.get(ENV_SCORER_URL)
    if not value:
        return None
    if value.startswith("constant:"):
        return ConstantScorer(_number(value, "--scorer constant:S needs a number S"))
    if value.startswith(("http:", "https:")):
        return HttpScorerBackend(value, bearer_token=os.environ.get(ENV_BEARER_TOKEN))
    raise LabelProjError(f"unrecognized scorer {value!r}")


def _emit_report(report, fmt: str | None, out_path: str | None) -> None:
    if fmt == "csv":
        text = report.to_csv()
    elif fmt == "json":
        text = report.to_json()
    else:
        text = report.to_table()
    if out_path:
        atomic_write_text(Path(out_path), text)
    else:
        sys.stdout.write(text)


def _scheme(args: argparse.Namespace) -> MarkerScheme:
    return MarkerScheme(args.scheme)


def _diagnostics_path(args: argparse.Namespace) -> Path:
    if args.diagnostics:
        return Path(args.diagnostics)
    return Path(str(args.output) + ".diagnostics.jsonl")


def _check_distinct_outputs(args: argparse.Namespace) -> None:
    """Raise unless -o, the diagnostics sidecar and project's --report-out name different files."""
    seen: dict[Path, str] = {}
    report_out = getattr(args, "report_out", None)
    for flag, path in (("-o", args.output), ("--diagnostics", _diagnostics_path(args)), ("--report-out", report_out)):
        if path:
            resolved = Path(path).resolve()
            if resolved in seen:
                raise LabelProjError(f"{seen[resolved]} and {flag} name the same file {path}")
            seen[resolved] = flag


def _note_input_diagnostics(diagnostics: list[Diagnostic]) -> None:
    """Say on stderr how many diagnostics reading the inputs gave, when there were any."""
    if diagnostics:
        print(f"{len(diagnostics)} input diagnostics", file=sys.stderr)


def _report_options(args: argparse.Namespace) -> dict:
    """The --dataset and --threshold values given; ``build_report`` supplies the defaults."""
    return {key: getattr(args, key) for key in ("dataset", "threshold") if getattr(args, key) is not None}


def cmd_encode(args: argparse.Namespace) -> int:
    docs, diagnostics = load(Path(args.input), DatasetFormat.ANNOTATED_JSONL, args.error_budget)
    tagged = [_place_markers(doc, _scheme(args)) for doc in docs]  # load has validated each one
    dump(tagged, Path(args.output))
    print(f"encoded {len(tagged)} documents -> {Path(args.output)}", file=sys.stderr)
    _note_input_diagnostics(diagnostics)
    return 0


def _map_records(args: argparse.Namespace, fmt: DatasetFormat, convert: Callable) -> int:
    """Load -i and map each item to (output, diagnostics): dump the outputs to -o and write load's
    diagnostics, then each item's under its id, to the sidecar. Returns the number of items."""
    _check_distinct_outputs(args)
    items, load_diags = load(Path(args.input), fmt, args.error_budget)
    results = [convert(item) for item in items]
    dump([output for output, _ in results], Path(args.output))
    write_diagnostics(
        _diagnostics_path(args), [(None, load_diags), *((item.id, diags) for item, (_, diags) in zip(items, results))]
    )
    return len(results)


def cmd_decode(args: argparse.Namespace) -> int:
    count = _map_records(args, DatasetFormat.TAGGED_JSONL, lambda text: decode(text, _scheme(args)))
    print(f"decoded {count} documents -> {Path(args.output)}", file=sys.stderr)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    config = MarkerConfig(InsertionMode(args.mode), args.p_open, args.p_close, args.seed, args.sequential_lengths)
    lines, diagnostics = load(Path(args.input), DatasetFormat.PLAIN_TEXT)
    docs = sample_corpus(lines, config, args.src_lang)
    dump(docs, Path(args.output))
    print(f"sampled spans for {len(docs)} sentences -> {Path(args.output)}", file=sys.stderr)
    _note_input_diagnostics(diagnostics)
    return 0


def cmd_tagswap(args: argparse.Namespace) -> int:
    count = _map_records(args, DatasetFormat.RAW_MARKUP_JSONL, tag_swap)
    print(f"normalized {count} pairs -> {args.output}", file=sys.stderr)
    return 0


def cmd_prep(args: argparse.Namespace) -> int:
    read_diags: list[Diagnostic] = []
    pairs = read_items(Path(args.input), DatasetFormat.RAW_MARKUP_JSONL, args.error_budget, read_diags)
    corpus = prepare_training_corpus(pairs, dev_fraction=args.dev_fraction, seed=args.seed)
    out_dir = Path(args.out_dir)
    dump(corpus.train, out_dir / "train.jsonl")
    dump(corpus.dev, out_dir / "dev.jsonl")
    provenance = {
        "provenance": corpus.provenance._asdict(),
        "dropped": [{"id": pair.id, "reason": reason} for pair, reason in corpus.dropped],
        "read_diagnostics": [d._asdict() for d in read_diags],
    }
    atomic_write_text(out_dir / "provenance.json", json.dumps(provenance, ensure_ascii=False, indent=2) + "\n")
    print(
        f"prepared {len(corpus.train)} train / {len(corpus.dev)} dev examples -> {out_dir}",
        file=sys.stderr,
    )
    return 0


def cmd_filter_qa(args: argparse.Namespace) -> int:
    min_score = None if args.no_score_filter else args.min_score
    scorer = make_scorer(args.scorer) if min_score is not None else None
    src_tree = read_qa_tree(Path(args.src_json))
    tgt_tree = read_qa_tree(Path(args.tgt_json))
    src, tgt = ingest_qa(src_tree, args.src_lang), ingest_qa(tgt_tree, args.tgt_lang)
    pairs, unaligned = pair_qa_contexts(src, tgt)
    kept, dropped, filter_diags = filter_parallel_qa(pairs, scorer, min_score)

    out_dir = Path(args.out_dir)
    dump([pair.src for pair in kept], out_dir / "kept.src.jsonl")
    dump([pair.tgt for pair in kept], out_dir / "kept.tgt.jsonl")
    write_records(out_dir / "dropped.jsonl", [{"id": pair.id, "reason": reason} for pair, reason in dropped])
    ingest_groups = [(doc.id, diags) for doc, _, diags in src + tgt]
    write_diagnostics(out_dir / "diagnostics.jsonl", [*ingest_groups, *unaligned, (None, filter_diags)])
    print(f"kept {len(kept)} / dropped {len(dropped)} context pairs -> {out_dir}", file=sys.stderr)
    return 0


def cmd_translate(args: argparse.Namespace) -> int:
    backend = make_backend(args.backend, args.seed, args.batch_size, args.max_in_flight, _scheme(args))
    texts, diagnostics = load(Path(args.input), DatasetFormat.TAGGED_JSONL, args.error_budget)
    translated = backend.translate_batch(texts, args.src_lang, args.tgt_lang)
    dump(translated, Path(args.output))
    print(f"translated {len(translated)} texts -> {Path(args.output)}", file=sys.stderr)
    _note_input_diagnostics(diagnostics)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.threshold is not None:
        check_threshold(args.threshold)
    if bool(args.source_tagged) != bool(args.hypothesis_tagged):
        raise LabelProjError("--source-tagged and --hypothesis-tagged must be given together")
    diagnostics: list[Diagnostic] = []

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
        pairs = {s.id: (s, h) for s, h in zip(sources, hypotheses)}  # only reference ids are scored and checked
        if len(pairs) != len(sources):
            raise AlignmentError("duplicate ids among source/hypothesis pairs")
        marker_matches = {r.id: markers_match(*pairs[r.id], _scheme(args)) for r in reference if r.id in pairs}

    report = build_report(projected, reference, marker_matches, **_report_options(args))
    _emit_report(report, args.report, args.report_out)
    _note_input_diagnostics(diagnostics)
    return 0


# project takes this many times --batch-size × --max-in-flight documents at a time: whole chunks, so requests
# are those of one batch, with every slot busy. Slots idle while a window is decoded, so a larger one loses less
# speed but holds more. At 3, on a 2-core host, project-drop peaked 17% lower and project-http ran 5% slower.
WINDOW_ROUNDS = 3


def cmd_project(args: argparse.Namespace) -> int:
    if not args.reference:
        for flag in ("report_out", "report", "threshold", "dataset"):
            if getattr(args, flag) is not None:
                raise LabelProjError(
                    f"--{flag.replace('_', '-')} needs --reference: project reports only against a reference"
                )
    load_diags, reference_diags, decode_groups = [], [], []
    annotated = DatasetFormat.ANNOTATED_JSONL
    docs = read_items(Path(args.input), annotated, args.error_budget, load_diags)
    gold = read_items(Path(args.reference), annotated, args.error_budget, reference_diags) if args.reference else None
    counts = ReportAccumulator(gold, **_report_options(args))
    _check_distinct_outputs(args)
    backend = make_backend(args.backend, args.seed, args.batch_size, args.max_in_flight, _scheme(args))
    window = args.batch_size * args.max_in_flight * WINDOW_ROUNDS
    with backend:
        projected = project(docs, backend, args.src_lang, args.tgt_lang, counts, decode_groups, window, _scheme(args))
        dump(projected, Path(args.output))
    write_diagnostics(_diagnostics_path(args), [(None, load_diags), *decode_groups])
    print(f"projected {len(counts)} documents -> {Path(args.output)}", file=sys.stderr)
    if args.reference:
        _emit_report(counts.report(), args.report, args.report_out)
    _note_input_diagnostics(reference_diags)
    return 0


# sweep writes one corpus per cell, and refuses a larger grid before it writes any.
MAX_SWEEP_CELLS = 10_000


def _grid(args: argparse.Namespace, name: str) -> list[float]:
    """NAME_min, NAME_min + NAME_step, ... up to NAME_max (give or take 1e-9), each rounded to 10 places."""
    lo, hi, step = (getattr(args, f"{name}_{end}") for end in ("min", "max", "step"))
    if not all(map(math.isfinite, (lo, hi, step))):
        raise LabelProjError("grid bounds and step must be finite numbers")
    if step <= 0:
        raise LabelProjError("grid step must be positive")
    if lo > hi:
        raise LabelProjError(f"{name}_min {lo:g} is above {name}_max {hi:g}")
    count = (hi - lo + 1e-9) / step + 1
    if count > MAX_SWEEP_CELLS:
        raise LabelProjError(f"a grid from {lo:g} to {hi:g} by {step:g} has more than {MAX_SWEEP_CELLS} values")
    return [round(lo + i * step, 10) for i in range(math.floor(count))]


def cmd_sweep(args: argparse.Namespace) -> int:
    # Every cell's corpus name and sampler settings are made and checked before any corpus is written.
    p_opens = _grid(args, "p_open")
    p_closes = _grid(args, "p_close")
    if len(p_opens) * len(p_closes) > MAX_SWEEP_CELLS:
        raise LabelProjError(f"a {len(p_opens)} x {len(p_closes)} grid has more than {MAX_SWEEP_CELLS} cells")
    cells: dict[str, MarkerConfig] = {}
    for p_open in p_opens:
        for p_close in p_closes:
            cell_seed = derive_seed(args.seed, f"{p_open}:{p_close}")
            config = MarkerConfig(InsertionMode(args.mode), p_open, p_close, cell_seed)
            name = f"{args.mode}_po{p_open:g}_pc{p_close:g}.jsonl"
            other = cells.setdefault(name, config)
            if other is not config:
                raise LabelProjError(f"cells ({other.p_open}, {other.p_close}) and ({p_open}, {p_close}) share {name}")
    lines, diagnostics = load(Path(args.input), DatasetFormat.PLAIN_TEXT)
    out_dir = Path(args.out_dir)
    scheme = _scheme(args)
    manifest = {
        "mode": args.mode,
        "seed": args.seed,
        "source": str(args.input),
        "cells": [],
    }
    for name, cell in cells.items():
        tagged = [encode(doc, scheme) for doc in sample_corpus(lines, cell, args.src_lang)]
        dump(tagged, out_dir / name)
        manifest["cells"].append(
            {"p_open": cell.p_open, "p_close": cell.p_close, "path": name, "examples": len(tagged)}
        )
    atomic_write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(manifest['cells'])} corpora -> {out_dir}", file=sys.stderr)
    _note_input_diagnostics(diagnostics)
    return 0


STATS_COLUMNS = ("language", "examples", "total_tags", "min_tags", "max_tags", "avg_tags", "max_unique_tags")


def cmd_stats(args: argparse.Namespace) -> int:
    fmt = DatasetFormat(args.format)
    items, diagnostics = load(Path(args.input), fmt, args.error_budget)
    per_lang: dict[str, list[tuple[int, int]]] = {}
    for item in items:
        if fmt is DatasetFormat.ANNOTATED_JSONL:
            tags = len(item.spans)
            unique = len({span.tag for span in item.spans})
        else:
            sig = signature(item, _scheme(args))
            opens = [(name, n) for (name, kind), n in sig.items() if kind == "open"]
            tags = sum(n for _, n in opens)
            unique = len(opens)
        per_lang.setdefault(item.lang, []).append((tags, unique))

    rows = []
    for lang in sorted(per_lang):
        counts = per_lang[lang]
        totals = [c[0] for c in counts]
        average = round(sum(totals) / len(counts), 4)
        rows.append((lang, len(counts), sum(totals), min(totals), max(totals), average, max(c[1] for c in counts)))
    if args.report == "json":
        sys.stdout.write(json.dumps([dict(zip(STATS_COLUMNS, row)) for row in rows], indent=2) + "\n")
    else:
        sys.stdout.write(render_table(STATS_COLUMNS, [[str(value) for value in row] for row in rows]))
    _note_input_diagnostics(diagnostics)
    return 0


def _add_io(parser: argparse.ArgumentParser, output: bool = True) -> None:
    parser.add_argument("--input", "-i", required=True, help="input dataset path")
    if output:
        parser.add_argument("--output", "-o", required=True, help="output dataset path")


def _error_budget(value: str) -> int:
    """An ``--error-budget`` value: a whole number of records, not below 0."""
    try:
        budget = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if budget < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {budget}")
    return budget


_SHARED_FLAGS = {
    "--scheme": dict(choices=["xml", "brackets"], default="xml"),
    "--seed": dict(type=int, default=0),
    "--error-budget": dict(type=_error_budget, default=0, help="malformed records tolerated before aborting"),
}


def _add_shared(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Register the named shared flags; a command registers only those it reads."""
    for flag in flags:
        parser.add_argument(flag, **_SHARED_FLAGS[flag])


def _add_backend(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default=None,
        help=f"identity | shuffle | drop:Q | an http(s) URL (default ${ENV_BACKEND_URL})",
    )
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--max-in-flight", type=int, default=4)
    parser.add_argument("--src-lang", required=True)
    parser.add_argument("--tgt-lang", required=True)


def _add_report(parser: argparse.ArgumentParser) -> None:
    # Defaults are resolved where the report is built, so project can tell a given flag from a default.
    parser.add_argument("--report", choices=["csv", "json", "table"], default=None, help="default table")
    parser.add_argument("--report-out", default=None, help="write the report here instead of stdout")
    parser.add_argument("--threshold", type=float, default=None, help=f"default {DEFAULT_THRESHOLD}")
    parser.add_argument("--dataset", default=None, help=f"dataset name for report rows (default {DEFAULT_DATASET})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="labelproj", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="annotated JSONL -> tagged JSONL")
    _add_io(p)
    _add_shared(p, "--scheme", "--error-budget")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="tagged JSONL -> annotated JSONL plus diagnostics")
    _add_io(p)
    _add_shared(p, "--scheme", "--error-budget")
    p.add_argument("--diagnostics", default=None, help="diagnostics sidecar path")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("synth", help="plain text -> annotated JSONL with sampled spans")
    _add_io(p)
    _add_shared(p, "--seed")
    p.add_argument("--mode", choices=[m.value for m in InsertionMode], default="complex")
    p.add_argument("--p-open", type=float, default=0.2)
    p.add_argument("--p-close", type=float, default=0.5)
    p.add_argument("--sequential-lengths", action="store_true")
    p.add_argument("--src-lang", default="eng_Latn")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("tagswap", help="normalize raw markup pairs to lettered tags")
    _add_io(p)
    _add_shared(p, "--error-budget")
    p.add_argument("--diagnostics", default=None)
    p.set_defaults(func=cmd_tagswap)

    p = sub.add_parser("prep", help="raw markup pairs -> bidirectional train/dev corpus")
    _add_io(p, output=False)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--dev-fraction", type=float, default=0.05)
    _add_shared(p, "--seed", "--error-budget")
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("filter-qa", help="keep parallel QA contexts with matching counts and score")
    p.add_argument("--src-json", required=True)
    p.add_argument("--tgt-json", required=True)
    p.add_argument("--src-lang", required=True)
    p.add_argument("--tgt-lang", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--min-score", type=float, default=80.0)
    p.add_argument("--no-score-filter", action="store_true")
    p.add_argument("--scorer", default=None, help=f"constant:V | http(s) URL (default ${ENV_SCORER_URL})")
    p.set_defaults(func=cmd_filter_qa)

    p = sub.add_parser("translate", help="tagged JSONL -> tagged JSONL through a backend")
    _add_io(p)
    _add_shared(p, "--scheme", "--error-budget", "--seed")
    _add_backend(p)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("evaluate", help="score projected spans against a reference")
    p.add_argument("--projected", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--source-tagged", default=None)
    p.add_argument("--hypothesis-tagged", default=None)
    _add_shared(p, "--scheme", "--error-budget")
    _add_report(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("project", help="encode, translate, decode, and optionally evaluate")
    _add_io(p)
    _add_shared(p, "--scheme", "--error-budget", "--seed")
    _add_backend(p)
    _add_report(p)
    p.add_argument("--reference", default=None, help="gold annotated JSONL in the target language")
    p.add_argument("--diagnostics", default=None)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("sweep", help="generate tagged corpora over a (p_open, p_close) grid")
    _add_io(p, output=False)
    p.add_argument("--out-dir", required=True)
    _add_shared(p, "--scheme", "--seed")
    p.add_argument("--mode", choices=[m.value for m in InsertionMode], default="complex")
    p.add_argument("--src-lang", default="eng_Latn")
    p.add_argument("--p-open-min", type=float, default=0.1)
    p.add_argument("--p-open-max", type=float, default=0.5)
    p.add_argument("--p-open-step", type=float, default=0.1)
    p.add_argument("--p-close-min", type=float, default=0.1)
    p.add_argument("--p-close-max", type=float, default=0.5)
    p.add_argument("--p-close-step", type=float, default=0.1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stats", help="per-language tag statistics for a dataset")
    _add_io(p, output=False)
    p.add_argument("--format", choices=["annotated", "tagged"], default="annotated")
    p.add_argument("--report", choices=["table", "json"], default="table")
    _add_shared(p, "--scheme", "--error-budget")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ErrorBudgetExceeded, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LabelProjError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
