"""Gestalt (Ratcliff/Obershelp) string similarity.

The ratio is 2*M / (|a| + |b|) where M counts the characters covered by
recursively locating the longest matching block between the two strings
and recursing on the left and right remainders. Ties between equally long
blocks resolve to the one starting earliest in ``a``, then earliest in
``b``, so results are deterministic and comparable against a direct
implementation of the definition. No junk heuristics are applied.
"""

from __future__ import annotations

import unicodedata


def gestalt_ratio(a: str, b: str) -> float:
    """Similarity of two strings in [0, 1]; both empty compares as 1.0.

    Operates on Unicode scalar values. Inputs are NFC-normalized first so
    composed and decomposed forms of the same text compare equal. No case
    folding. Note the measure is not symmetric in general: callers fix an
    argument order.
    """
    a = unicodedata.normalize("NFC", a)
    b = unicodedata.normalize("NFC", b)
    if a == b:  # exact: every character matches; also covers two empty strings
        return 1.0
    return 2.0 * _matched_total(a, b) / (len(a) + len(b))


def _reaches(a: str, b: str, threshold: float) -> bool:
    """``gestalt_ratio(a, b) >= threshold``, normalizing each string once; the lengths alone decide when they can.

    The matched count is at most the shorter normalized length, and float
    division is monotone, so 2*min/(|a|+|b|) < threshold is an exact miss.
    """
    a = unicodedata.normalize("NFC", a)
    b = unicodedata.normalize("NFC", b)
    if a == b:  # every character matches, as in gestalt_ratio
        return 1.0 >= threshold
    n = len(a) + len(b)
    return 2.0 * min(len(a), len(b)) / n >= threshold and 2.0 * _matched_total(a, b) / n >= threshold


def _matched_total(a: str, b: str) -> int:
    b_index: dict[str, list[int]] = {}
    for j, ch in enumerate(b):
        b_index.setdefault(ch, []).append(j)

    total = 0
    regions = [(0, len(a), 0, len(b))]
    while regions:
        alo, ahi, blo, bhi = regions.pop()
        if alo >= ahi or blo >= bhi:
            continue
        i, j, size = _longest_match(a, b_index, alo, ahi, blo, bhi)
        if size:
            total += size
            regions.append((alo, i, blo, j))
            regions.append((i + size, ahi, j + size, bhi))
    return total


def _longest_match(
    a: str, b_index: dict[str, list[int]], alo: int, ahi: int, blo: int, bhi: int
) -> tuple[int, int, int]:
    """Longest block a[i:i+k] == b[j:j+k] within the window; earliest i, then j."""
    best_i, best_j, best_size = alo, blo, 0
    # lengths[j] = length of the common run ending at a[i], b[j]. A block of
    # length k completes on the row of its final character, so among equal
    # sizes the earliest-starting block is found first and strict ">" keeps it.
    lengths: dict[int, int] = {}
    for i in range(alo, ahi):
        new_lengths: dict[int, int] = {}
        for j in b_index.get(a[i], ()):
            if j < blo:
                continue
            if j >= bhi:
                break
            k = lengths.get(j - 1, 0) + 1
            new_lengths[j] = k
            if k > best_size:
                best_i, best_j, best_size = i - k + 1, j - k + 1, k
        lengths = new_lengths
    return best_i, best_j, best_size
