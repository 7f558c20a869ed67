"""Reference tag swap and corpus preparation: a substitution with a callback
per tag, and a second scan of every kept normalized source side for its
statistics, which ``labelproj.corpus`` now gets from one split per side.

Kept only as an oracle: tests require the production ``tag_swap`` and
``prepare_training_corpus`` to give equal results for any markup.
"""

from __future__ import annotations

import math
import random
import re
from typing import Sequence

from labelproj.codec import tag_name
from labelproj.corpus import CorpusProvenance, DirectedExample, PreparedCorpus, RawMarkupPair
from labelproj.model import SEVERITY_WARNING, Diagnostic

_RAW_TAG_RE = re.compile(r"<(/?)([A-Za-z_][A-Za-z0-9_.:-]*)([^<>]*?)(/?)>")


def _swap_side(markup: str, mapping: dict[str, str], extend: bool) -> tuple[str, int, set[str]]:
    unmapped: set[str] = set()
    instances = 0

    def replace(match: re.Match[str]) -> str:
        nonlocal instances
        closing, name, _attrs, self_closing = match.groups()
        letter = mapping.get(name)
        if letter is None:
            if not extend:
                unmapped.add(name)
                return match.group(0)
            letter = tag_name(len(mapping))
            mapping[name] = letter
        if closing:
            return f"</{letter}>"
        instances += 1
        if self_closing:
            return f"<{letter}/>"
        return f"<{letter}>"

    rewritten = _RAW_TAG_RE.sub(replace, markup)
    return rewritten, instances, unmapped


def oracle_tag_swap(pair: RawMarkupPair) -> tuple[RawMarkupPair, list[Diagnostic]]:
    mapping: dict[str, str] = {}
    src_norm, src_count, _ = _swap_side(pair.src_markup, mapping, extend=True)
    tgt_norm, tgt_count, unmapped = _swap_side(pair.tgt_markup, mapping, extend=False)

    diagnostics: list[Diagnostic] = []
    for name in sorted(unmapped):
        diagnostics.append(
            Diagnostic(
                SEVERITY_WARNING,
                "UNMAPPED_TYPE",
                f"pair {pair.id!r}: target tag type {name!r} does not occur in the source",
            )
        )
    if src_count == 0 or tgt_count == 0:
        side = "either side" if src_count == 0 and tgt_count == 0 else ("source" if src_count == 0 else "target")
        diagnostics.append(
            Diagnostic(SEVERITY_WARNING, "DROP_UNTAGGED", f"pair {pair.id!r}: no tags on {side}")
        )
    normalized = RawMarkupPair(pair.id, pair.src_lang, pair.tgt_lang, src_norm, tgt_norm)
    return normalized, diagnostics


def _pair_stats(pair: RawMarkupPair) -> tuple[int, int]:
    instances = 0
    letters: set[str] = set()
    for match in _RAW_TAG_RE.finditer(pair.src_markup):
        closing, name, _attrs, _self = match.groups()
        if not closing:
            instances += 1
        letters.add(name)
    return instances, len(letters)


def oracle_prepare_training_corpus(
    pairs: Sequence[RawMarkupPair], dev_fraction: float = 0.05, seed: int = 0
) -> PreparedCorpus:
    if not 0.0 <= dev_fraction < 1.0:
        raise ValueError(f"dev_fraction must be in [0, 1), got {dev_fraction}")

    kept: list[RawMarkupPair] = []
    dropped: list[tuple[RawMarkupPair, str]] = []
    untagged = unmapped = 0
    for pair in pairs:
        normalized, diagnostics = oracle_tag_swap(pair)
        codes = {d.code for d in diagnostics}
        if "UNMAPPED_TYPE" in codes:
            dropped.append((pair, "UNMAPPED_TYPE"))
            unmapped += 1
        elif "DROP_UNTAGGED" in codes:
            dropped.append((pair, "DROP_UNTAGGED"))
            untagged += 1
        else:
            kept.append(normalized)

    ids = [pair.id for pair in kept]
    shuffled = list(ids)
    random.Random(seed).shuffle(shuffled)
    n_dev = math.ceil(dev_fraction * len(ids))
    dev_ids = set(shuffled[:n_dev])

    train: list[DirectedExample] = []
    dev: list[DirectedExample] = []
    total_tags = 0
    max_tags = 0
    max_unique = 0
    for pair in kept:
        instances, unique = _pair_stats(pair)
        total_tags += instances
        max_tags = max(max_tags, instances)
        max_unique = max(max_unique, unique)
        forward = DirectedExample(pair.id, "forward", pair.src_lang, pair.tgt_lang, pair.src_markup, pair.tgt_markup)
        reverse = DirectedExample(pair.id, "reverse", pair.tgt_lang, pair.src_lang, pair.tgt_markup, pair.src_markup)
        bucket = dev if pair.id in dev_ids else train
        bucket.append(forward)
        bucket.append(reverse)

    provenance = CorpusProvenance(
        input_pairs=len(pairs),
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
