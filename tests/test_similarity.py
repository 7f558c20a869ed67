from __future__ import annotations

import math
import random
import unicodedata

import pytest
from hypothesis import given
import hypothesis.strategies as st

from labelproj import gestalt_ratio
from labelproj import similarity
from labelproj.similarity import _reaches


def oracle_longest_block(a: str, b: str) -> tuple[int, int, int]:
    """Reference longest common block by full enumeration: maximal length,
    ties going to the earliest start in a, then the earliest in b."""
    best_i = best_j = best_k = 0
    for i in range(len(a)):
        for j in range(len(b)):
            k = 0
            while i + k < len(a) and j + k < len(b) and a[i + k] == b[j + k]:
                k += 1
            if k > best_k:
                best_i, best_j, best_k = i, j, k
    return best_i, best_j, best_k


def oracle_matched(a: str, b: str) -> int:
    if not a or not b:
        return 0
    i, j, k = oracle_longest_block(a, b)
    if k == 0:
        return 0
    return k + oracle_matched(a[:i], b[:j]) + oracle_matched(a[i + k :], b[j + k :])


def oracle_ratio(a: str, b: str) -> float:
    if not a and not b:
        return 1.0
    return 2.0 * oracle_matched(a, b) / (len(a) + len(b))


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ("Paris", "Paris", 1.0),
        ("abcd", "bcde", 0.75),
        ("ab", "xy", 0.0),
        ("", "", 1.0),
        ("", "x", 0.0),
        ("x", "", 0.0),
    ],
)
def test_fixtures(a, b, expected):
    assert gestalt_ratio(a, b) == expected


def test_identical_strings_score_one():
    for s in ("", "a", "répétition", "一些中文文本", "spaced out words"):
        assert gestalt_ratio(s, s) == 1.0


def test_not_symmetric_in_general():
    # Classic asymmetry witness for the recursive block decomposition.
    a, b = "bcbabab", "abababc"
    assert gestalt_ratio(a, b) == oracle_ratio(a, b)
    assert gestalt_ratio(b, a) == oracle_ratio(b, a)


def test_nfc_normalization_default_on():
    composed = "café"
    decomposed = "café"
    assert unicodedata.normalize("NFC", decomposed) == composed
    assert gestalt_ratio(composed, decomposed) == 1.0
    assert oracle_ratio(composed, decomposed) < 1.0  # the raw strings differ


def test_equal_and_nfc_equivalent_inputs_agree_with_oracle():
    rng = random.Random(0xE0)
    for _ in range(300):
        a = "".join(rng.choice("abcé\u0301e\u0308中") for _ in range(rng.randint(0, 10)))
        b = unicodedata.normalize(rng.choice(["NFC", "NFD"]), a)
        nfc = unicodedata.normalize("NFC", a)
        assert gestalt_ratio(a, a) == oracle_ratio(nfc, nfc) == 1.0
        assert gestalt_ratio(a, b) == oracle_ratio(nfc, unicodedata.normalize("NFC", b)) == 1.0


# "e" followed by U+0301 composes to "é" under NFC.
@given(st.text(alphabet="abce\u0301é", max_size=12), st.text(alphabet="abce\u0301é", max_size=12))
def test_matches_brute_force_oracle(a, b):
    assert gestalt_ratio(a, b) == oracle_ratio(unicodedata.normalize("NFC", a), unicodedata.normalize("NFC", b))


def test_matches_oracle_on_seeded_sample():
    rng = random.Random(20240817)
    for _ in range(1000):
        a = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 12)))
        b = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 12)))
        assert gestalt_ratio(a, b) == oracle_ratio(a, b)


@given(st.text(max_size=30), st.text(max_size=30))
def test_output_in_unit_interval_and_deterministic(a, b):
    r = gestalt_ratio(a, b)
    assert 0.0 <= r <= 1.0
    assert gestalt_ratio(a, b) == r


def length_bound(a: str, b: str) -> float:
    """2*min/(|a|+|b|) over the NFC forms: no ratio of the pair exceeds it."""
    a, b = unicodedata.normalize("NFC", a), unicodedata.normalize("NFC", b)
    return 2.0 * min(len(a), len(b)) / (len(a) + len(b)) if a or b else 1.0


# Decomposed marks ("e" + U+0301 composes to "é") next to arbitrary Unicode.
STRINGS = st.text(alphabet="abce\u0301\u0308é ", max_size=16) | st.text(max_size=16)


@given(STRINGS, STRINGS, st.floats(0.0, 1.0))
def test_reaches_is_the_thresholded_ratio(a, b, threshold):
    ratio = gestalt_ratio(a, b)
    assert ratio <= length_bound(a, b)
    # The ratio and the bound themselves, and the floats either side of them, are the boundary cases.
    edges = [edge for t in (ratio, length_bound(a, b)) for edge in (t, math.nextafter(t, 0.0), math.nextafter(t, 1.0))]
    for t in (threshold, *edges):
        assert _reaches(a, b, t) == (ratio >= t)


@pytest.mark.parametrize("a, b, threshold", [("abc", "abd", 0.5), ("e\u0301a", "\u00e9a", 1.0), ("", "", 1.0)])
def test_reaches_normalises_each_string_once(monkeypatch, a, b, threshold):
    calls = []
    normalize = unicodedata.normalize
    monkeypatch.setattr(unicodedata, "normalize", lambda form, text: calls.append(text) or normalize(form, text))
    assert _reaches(a, b, threshold)
    assert calls == [a, b]


def test_reaches_rejects_on_lengths_without_matching(monkeypatch):
    long = "x" * 4000 + "é"
    assert _reaches("e\u0301", long, 2 / 4002) and _reaches("", "", 1.0)
    monkeypatch.setattr(similarity, "_matched_total", None)  # any call would raise
    assert not _reaches("e\u0301", long, 0.001)  # NFC: one scalar against 4001
    assert not _reaches("ab", "abcdef", 0.6)
