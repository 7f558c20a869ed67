from __future__ import annotations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from labelproj import (
    InsertionMode,
    MarkerConfig,
    NoTokensError,
    TaggedText,
    derive_seed,
    insert_markers,
    tokenize_boundaries,
    validate,
)
from labelproj.synth import sample_corpus

SENTENCE_20 = " ".join(f"tok{i}" for i in range(20))


def spans_in_tokens(doc, sentence):
    """Translate char spans back to (start boundary, end boundary)."""
    tmap = tokenize_boundaries(sentence)
    starts = {s: i for i, (s, _) in enumerate(tmap.tokens)}
    ends = {e: i + 1 for i, (_, e) in enumerate(tmap.tokens)}
    return [(starts[s.start], ends[s.end]) for s in doc.spans]


# ---------------------------------------------------------------- tokenizer

def test_tokenize_three_words():
    tmap = tokenize_boundaries("a b c")
    assert tmap.tokens == ((0, 1), (2, 3), (4, 5))


def test_tokenize_surrounding_whitespace():
    tmap = tokenize_boundaries("  x  ")
    assert tmap.tokens == ((2, 3),)


def test_tokenize_empty():
    tmap = tokenize_boundaries("")
    assert tmap.tokens == ()


def test_tokenize_tabs_and_newlines_delimit():
    assert len(tokenize_boundaries("a\tb\nc d").tokens) == 4


# ------------------------------------------------------------------- config

def test_config_validates_probabilities():
    with pytest.raises(ValueError):
        MarkerConfig(InsertionMode.COMPLEX, p_open=1.5)
    with pytest.raises(ValueError):
        MarkerConfig(InsertionMode.COMPLEX, p_close=0.0)
    MarkerConfig(InsertionMode.COMPLEX, p_open=0.0, p_close=1.0)  # closed bounds ok


# ------------------------------------------------------------------- single

def test_single_always_one_span():
    for seed in range(200):
        doc = insert_markers(SENTENCE_20, MarkerConfig(InsertionMode.SINGLE, seed=seed))
        assert len(doc.spans) == 1
        assert doc.spans[0].tag == "a"
        assert doc.text == SENTENCE_20


def test_single_needs_tokens():
    with pytest.raises(NoTokensError):
        insert_markers("   ", MarkerConfig(InsertionMode.SINGLE, seed=1))


def test_single_length_clamped_to_token_count():
    # p_close = 1 under the written law grows without bound; the clamp must cap it.
    doc = insert_markers("a b c", MarkerConfig(InsertionMode.SINGLE, p_close=1.0, seed=5))
    assert spans_in_tokens(doc, "a b c") == [(0, 3)]


def test_single_mean_length_follows_geometric_law():
    total = 0
    n = 4000
    for seed in range(n):
        doc = insert_markers(SENTENCE_20, MarkerConfig(InsertionMode.SINGLE, p_close=0.5, seed=seed))
        start_b, end_b = spans_in_tokens(doc, SENTENCE_20)[0]
        total += end_b - start_b
    assert 1.85 <= total / n <= 2.15


def test_single_sequential_variant_changes_the_length_law():
    # At p_close = 0.8 the written law has mean 5 tokens, the sequential
    # variant mean 1.25; 2000 draws separate them decisively.
    def mean_length(sequential: bool) -> float:
        total = 0
        for seed in range(2000):
            config = MarkerConfig(
                InsertionMode.SINGLE, p_close=0.8, seed=seed, sequential_lengths=sequential
            )
            start_b, end_b = spans_in_tokens(insert_markers(SENTENCE_20, config), SENTENCE_20)[0]
            total += end_b - start_b
        return total / 2000

    assert mean_length(sequential=False) > 3.5
    assert mean_length(sequential=True) < 2.0


# ------------------------------------------------------------------- simple

def overlapping_or_nested(a, b) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def test_simple_spans_are_disjoint_and_non_nested():
    for seed in range(500):
        config = MarkerConfig(InsertionMode.SIMPLE, p_open=0.5, p_close=0.3, seed=seed)
        doc = insert_markers(SENTENCE_20, config)
        token_spans = spans_in_tokens(doc, SENTENCE_20)
        for i in range(len(token_spans)):
            for j in range(i + 1, len(token_spans)):
                assert not overlapping_or_nested(token_spans[i], token_spans[j])


def test_simple_saturated_covers_every_token_once():
    config = MarkerConfig(InsertionMode.SIMPLE, p_open=1.0, p_close=1.0, seed=3)
    doc = insert_markers(SENTENCE_20, config)
    assert spans_in_tokens(doc, SENTENCE_20) == [(i, i + 1) for i in range(20)]


# ------------------------------------------------------------------ complex

def test_complex_zero_open_probability_yields_no_spans():
    for seed in (0, 7, 99):
        for sentence in ("", "one", SENTENCE_20):
            doc = insert_markers(sentence, MarkerConfig(InsertionMode.COMPLEX, p_open=0.0, seed=seed))
            assert doc.spans == ()


def test_complex_tags_follow_opening_order():
    config = MarkerConfig(InsertionMode.COMPLEX, p_open=0.9, p_close=0.4, seed=11)
    doc = insert_markers(SENTENCE_20, config)
    assert [s.tag for s in doc.spans][:4] == ["a", "b", "c", "d"][: min(4, len(doc.spans))]
    starts = [s.start for s in doc.spans]
    assert starts == sorted(starts)


def test_complex_output_validates():
    for seed in range(200):
        config = MarkerConfig(InsertionMode.COMPLEX, p_open=0.6, p_close=0.3, seed=seed)
        assert validate(insert_markers(SENTENCE_20, config)) == []


def test_complex_open_frequency_converges_to_p_open():
    # 10,000 draws x 20 boundaries with an open draw each.
    p_open = 0.2
    opens = 0
    draws = 0
    for seed in range(10_000):
        config = MarkerConfig(InsertionMode.COMPLEX, p_open=p_open, p_close=0.5, seed=seed)
        doc = insert_markers(SENTENCE_20, config)
        opens += len(doc.spans)
        draws += 20
    se = (p_open * (1 - p_open) / draws) ** 0.5
    assert abs(opens / draws - p_open) <= 3 * se


# --------------------------------------------------------------- generic

@given(st.integers(0, 10_000), st.sampled_from(list(InsertionMode)))
@settings(max_examples=60)
def test_deterministic_given_seed(seed, mode):
    config = MarkerConfig(mode, seed=seed)
    assert insert_markers(SENTENCE_20, config) == insert_markers(SENTENCE_20, config)


@given(st.integers(0, 10_000))
@settings(max_examples=60)
def test_span_offsets_snap_to_token_edges(seed):
    sentence = "  irregular   spacing\tand\nbreaks  here "
    tmap = tokenize_boundaries(sentence)
    starts = {s for s, _ in tmap.tokens}
    ends = {e for _, e in tmap.tokens}
    for mode in (InsertionMode.SIMPLE, InsertionMode.COMPLEX):
        doc = insert_markers(sentence, MarkerConfig(mode, p_open=0.7, p_close=0.4, seed=seed))
        for span in doc.spans:
            assert span.start in starts
            assert span.end in ends
            assert span.label is None


def test_insert_markers_sets_id_and_lang():
    doc = insert_markers("a b", MarkerConfig(InsertionMode.COMPLEX, seed=1), doc_id="s7", lang="eng_Latn")
    assert (doc.id, doc.lang) == ("s7", "eng_Latn")


def test_derive_seed_is_stable_and_key_sensitive():
    assert derive_seed(42, "doc-1") == derive_seed(42, "doc-1")
    assert derive_seed(42, "doc-1") != derive_seed(42, "doc-2")
    assert derive_seed(42, "doc-1") != derive_seed(43, "doc-1")
    assert 0 <= derive_seed(0, "x") < 2**63
    assert derive_seed(0, "x") == 5395104992458594383
    assert derive_seed(7, "0:d1") == 812124045941337242


@pytest.mark.parametrize("mode", list(InsertionMode))
def test_sample_corpus_seeds_each_non_blank_line_from_its_id(mode):
    texts = ["John lives in Paris", "", "  \t ", "the Huguenot population", " a b c "]
    lines = [TaggedText(str(i), "", text) for i, text in enumerate(texts, start=1)]
    config = MarkerConfig(mode, p_open=0.6, p_close=0.4, seed=11)
    docs = list(sample_corpus(lines, config, "eng_Latn"))
    assert [doc.id for doc in docs] == ["1", "4", "5"]
    assert docs == [
        insert_markers(line.tagged, config._replace(seed=derive_seed(11, line.id)), doc_id=line.id, lang="eng_Latn")
        for line in lines
        if line.id in ("1", "4", "5")
    ]
