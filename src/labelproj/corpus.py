"""Training-corpus normalization and parallel QA filtering.

Raw markup corpora carry arbitrary tag vocabularies (UI and styling
elements, attributes, self-closing forms). The tag swap renames every tag
type to a nondescript letter by order of first appearance on the source
side, strips attributes, and applies the same mapping to the target side,
so a translation model sees only the generic marker vocabulary.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .codec import tag_name
from .errors import AlignmentError, BackendError, BackendUnreachableError, ScorerUnavailableError
from .model import SEVERITY_WARNING, AnnotatedText, Diagnostic, record_type

# Markup as found in the wild: optional attributes, self-closing when the tail
# ends in a slash. Attribute values containing angle brackets are not supported.
_RAW_TAG_RE = re.compile(r"<(/?)([A-Za-z_][A-Za-z0-9_.:-]*)([^<>]*)>")


class _RawMarkupFields(NamedTuple):
    id: str
    src_lang: str
    tgt_lang: str
    src_markup: str
    tgt_markup: str


@record_type
class RawMarkupPair(_RawMarkupFields):
    __slots__ = ()

    def __new__(cls, id: str, src_lang: str, tgt_lang: str, src_markup: str, tgt_markup: str):
        if not src_markup or not tgt_markup:
            raise ValueError(f"pair {id!r}: both sides must be non-empty")
        return tuple.__new__(cls, (id, src_lang, tgt_lang, src_markup, tgt_markup))


@record_type
class DirectedExample(NamedTuple):
    """One translation direction of a training pair; the ``parallel`` dataset item."""

    id: str
    direction: str  # "forward" (src -> tgt) or "reverse"
    src_lang: str
    tgt_lang: str
    src_tagged: str
    tgt_tagged: str


@record_type
class CorpusProvenance(NamedTuple):
    input_pairs: int
    kept_pairs: int
    dropped_untagged: int
    dropped_unmapped: int
    directed_examples: int
    dev_ids: int
    dev_fraction: float
    seed: int
    avg_tags_per_pair: float
    max_tags_per_pair: int
    max_unique_tags_per_pair: int


@record_type
class PreparedCorpus(NamedTuple):
    train: tuple[DirectedExample, ...]
    dev: tuple[DirectedExample, ...]
    dropped: tuple[tuple[RawMarkupPair, str], ...]
    provenance: CorpusProvenance


def _swap_side(markup: str, mapping: dict[str, str], extend: bool) -> tuple[str, int, set[str]]:
    """Rewrite tags through the type->letter map, in one split of ``markup``.

    When ``extend`` is set, unseen types are assigned the next letter;
    otherwise they are left untouched and reported back. Returns the
    rewritten text, the number of tag instances (opens plus self-closing),
    and the set of unmapped types.
    """
    parts = _RAW_TAG_RE.split(markup)
    out = [parts[0]]
    unmapped: set[str] = set()
    instances = 0
    # After the leading text, each tag is four parts: closing slash, name, tail, following text.
    for closing, name, tail, text in zip(parts[1::4], parts[2::4], parts[3::4], parts[4::4]):
        letter = mapping.get(name)
        if letter is None and extend:
            letter = mapping[name] = tag_name(len(mapping))
        if letter is None:
            unmapped.add(name)
            out.append(f"<{closing}{name}{tail}>")
        elif closing:
            out.append(f"</{letter}>")
        else:
            instances += 1
            out.append(f"<{letter}/>" if tail.endswith("/") else f"<{letter}>")
        out.append(text)
    return "".join(out), instances, unmapped


def _tag_swap(pair: RawMarkupPair) -> tuple[RawMarkupPair, list[Diagnostic], int, int]:
    """``tag_swap``'s result, then the tag instances and the distinct letters on the normalized source."""
    mapping: dict[str, str] = {}
    src_norm, src_count, _ = _swap_side(pair.src_markup, mapping, extend=True)
    src_letters = len(mapping)
    tgt_norm, tgt_count, unmapped = _swap_side(pair.tgt_markup, mapping, extend=False)

    diagnostics = [
        Diagnostic(
            SEVERITY_WARNING, "UNMAPPED_TYPE", f"pair {pair.id!r}: target tag type {name!r} does not occur in the source"
        )
        for name in sorted(unmapped)
    ]
    if src_count == 0 or tgt_count == 0:
        side = "either side" if src_count == 0 and tgt_count == 0 else ("source" if src_count == 0 else "target")
        diagnostics.append(Diagnostic(SEVERITY_WARNING, "DROP_UNTAGGED", f"pair {pair.id!r}: no tags on {side}"))
    normalized = RawMarkupPair(pair.id, pair.src_lang, pair.tgt_lang, src_norm, tgt_norm)
    return normalized, diagnostics, src_count, src_letters


def tag_swap(pair: RawMarkupPair) -> tuple[RawMarkupPair, list[Diagnostic]]:
    """Normalize one pair's tag vocabulary to letters a, b, c, ...

    The source side defines the mapping by order of first appearance; all
    occurrences of one type (open, close, self-closing) share a letter and
    attributes are stripped. Target-side types absent from the source leave
    the pair flagged UNMAPPED_TYPE; a pair without tags on both sides is
    flagged DROP_UNTAGGED. Flags are diagnostics, never exceptions.
    """
    normalized, diagnostics, _, _ = _tag_swap(pair)
    return normalized, diagnostics


def prepare_training_corpus(
    pairs: Iterable[RawMarkupPair], dev_fraction: float = 0.05, seed: int = 0
) -> PreparedCorpus:
    """Tag-swap, filter, duplicate into both directions, and split.

    ``pairs`` is read once, after ``dev_fraction`` is checked. Untagged and
    unmappable pairs are dropped; every kept pair yields a forward and a
    reverse directed example, and both land in the same split. The dev split
    takes ceil(dev_fraction * kept) ids chosen by a seeded shuffle, so reruns
    with the same seed reproduce the split exactly.
    """
    if not 0.0 <= dev_fraction < 1.0:
        raise ValueError(f"dev_fraction must be in [0, 1), got {dev_fraction}")

    kept: list[RawMarkupPair] = []
    dropped: list[tuple[RawMarkupPair, str]] = []
    read = untagged = unmapped = 0
    total_tags = max_tags = max_unique = 0
    for read, pair in enumerate(pairs, 1):
        normalized, diagnostics, instances, unique = _tag_swap(pair)
        codes = {d.code for d in diagnostics}
        if "UNMAPPED_TYPE" in codes:
            dropped.append((pair, "UNMAPPED_TYPE"))
            unmapped += 1
        elif "DROP_UNTAGGED" in codes:
            dropped.append((pair, "DROP_UNTAGGED"))
            untagged += 1
        else:
            kept.append(normalized)
            total_tags += instances
            max_tags = max(max_tags, instances)
            max_unique = max(max_unique, unique)

    ids = [pair.id for pair in kept]
    shuffled = list(ids)
    random.Random(seed).shuffle(shuffled)
    n_dev = math.ceil(dev_fraction * len(ids))
    dev_ids = set(shuffled[:n_dev])

    train: list[DirectedExample] = []
    dev: list[DirectedExample] = []
    for pair in kept:
        forward = DirectedExample(pair.id, "forward", pair.src_lang, pair.tgt_lang, pair.src_markup, pair.tgt_markup)
        reverse = DirectedExample(pair.id, "reverse", pair.tgt_lang, pair.src_lang, pair.tgt_markup, pair.src_markup)
        bucket = dev if pair.id in dev_ids else train
        bucket.append(forward)
        bucket.append(reverse)

    provenance = CorpusProvenance(
        input_pairs=read,
        kept_pairs=len(kept),
        dropped_untagged=untagged,
        dropped_unmapped=unmapped,
        directed_examples=len(train) + len(dev),
        dev_ids=n_dev,
        dev_fraction=dev_fraction,
        seed=seed,
        avg_tags_per_pair=(total_tags / len(kept)) if kept else 0.0,
        max_tags_per_pair=max_tags,
        max_unique_tags_per_pair=max_unique,
    )
    return PreparedCorpus(tuple(train), tuple(dev), tuple(dropped), provenance)


class _QaPairFields(NamedTuple):
    src: AnnotatedText
    tgt: AnnotatedText
    src_questions: int
    tgt_questions: int


@record_type
class QaParallelPair(_QaPairFields):
    """A parallel QA context pair sharing one id, plus its per-side question counts."""

    __slots__ = ()

    def __new__(cls, src: AnnotatedText, tgt: AnnotatedText, src_questions: int, tgt_questions: int):
        if src.id != tgt.id:
            raise ValueError(f"sides of {src.id!r} carry different ids")
        if src.lang == tgt.lang:
            raise ValueError(f"{src.id!r}: source and target language are equal")
        return tuple.__new__(cls, (src, tgt, src_questions, tgt_questions))

    @property
    def id(self) -> str:
        return self.src.id


def pair_qa_contexts(
    src: Sequence[tuple[AnnotatedText, int, list[Diagnostic]]],
    tgt: Sequence[tuple[AnnotatedText, int, list[Diagnostic]]],
) -> tuple[list[QaParallelPair], list[tuple[str, list[Diagnostic]]]]:
    """Pair ``ingest_qa``'s source and target contexts by id, in source order, with their question counts.

    A context id repeated on one side is an :class:`AlignmentError`. ``unaligned`` holds a ``(context id,
    [UNALIGNED_CONTEXT warning])`` group per context with no partner, source-only ones first.
    """
    for side, contexts in (("source", src), ("target", tgt)):
        repeated = [doc_id for doc_id, n in Counter(doc.id for doc, _, _ in contexts).items() if n > 1]
        if repeated:
            raise AlignmentError(f"duplicate context id {repeated[0]!r} on the {side} side")
    tgt_by_id = {doc.id: (doc, questions) for doc, questions, _ in tgt}
    pairs = [
        QaParallelPair(doc, tgt_by_id[doc.id][0], questions, tgt_by_id[doc.id][1])
        for doc, questions, _ in src
        if doc.id in tgt_by_id
    ]
    paired = {pair.id for pair in pairs}
    unaligned = [
        (doc.id, [Diagnostic(SEVERITY_WARNING, "UNALIGNED_CONTEXT", f"no {other}-side context")])
        for contexts, other in ((src, "target"), (tgt, "source"))
        for doc, _, _ in contexts
        if doc.id not in paired
    ]
    return pairs, unaligned


def filter_parallel_qa(
    pairs: Sequence[QaParallelPair],
    scorer=None,
    min_score: float | None = 80.0,
) -> tuple[list[QaParallelPair], list[tuple[QaParallelPair, str]], list[Diagnostic]]:
    """Keep only context pairs that are plausibly direct translations.

    A pair is dropped when its two sides disagree on the number of
    questions or answer spans (COUNT_MISMATCH), and, when ``min_score`` is
    set, when the scorer backend rates it strictly below the threshold
    (LOW_SCORE). Dropped pairs come back with their reason; text is never
    mutated. Scoring failures abort with no partial output.
    """
    if min_score is not None and not math.isfinite(min_score):
        raise ValueError(f"min_score must be a finite number, got {min_score}")
    kept: list[QaParallelPair] = []
    dropped: list[tuple[QaParallelPair, str]] = []
    diagnostics: list[Diagnostic] = []
    survivors: list[QaParallelPair] = []
    for pair in pairs:
        src, tgt = pair.src, pair.tgt
        if pair.src_questions != pair.tgt_questions or len(src.spans) != len(tgt.spans):
            dropped.append((pair, "COUNT_MISMATCH"))
            diagnostics.append(
                Diagnostic(
                    SEVERITY_WARNING,
                    "COUNT_MISMATCH",
                    f"pair {pair.id!r}: {pair.src_questions}/{len(src.spans)} questions/spans"
                    f" vs {pair.tgt_questions}/{len(tgt.spans)}",
                )
            )
        else:
            survivors.append(pair)

    if min_score is None:
        kept.extend(survivors)
        return kept, dropped, diagnostics

    if scorer is None:
        raise ScorerUnavailableError("score filtering enabled but no scorer configured")
    if survivors:
        try:
            scores = scorer.score_batch([(p.src.text, p.tgt.text, None) for p in survivors])
        except (BackendUnreachableError, BackendError) as exc:
            raise ScorerUnavailableError(f"scorer failed: {exc}") from exc
        for pair, score in zip(survivors, scores):
            if score < min_score:
                dropped.append((pair, "LOW_SCORE"))
                diagnostics.append(
                    Diagnostic(
                        SEVERITY_WARNING,
                        "LOW_SCORE",
                        f"pair {pair.id!r}: score {score} below {min_score}",
                    )
                )
            else:
                kept.append(pair)
    return kept, dropped, diagnostics
