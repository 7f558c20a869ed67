from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from labelproj import (
    AlignmentError,
    AnnotatedText,
    BackendError,
    BackendUnreachableError,
    ConstantScorer,
    Diagnostic,
    QaParallelPair,
    RawMarkupPair,
    ScorerBackend,
    ScorerUnavailableError,
    Span,
    filter_parallel_qa,
    prepare_training_corpus,
    tag_swap,
)
from labelproj.corpus import pair_qa_contexts

from corpus_oracle import oracle_prepare_training_corpus, oracle_tag_swap


def pair(src: str, tgt: str, pair_id: str = "p1") -> RawMarkupPair:
    return RawMarkupPair(pair_id, "en", "de", src, tgt)


def codes(diags):
    return [d.code for d in diags]


# ----------------------------------------------------------------- tag swap

def test_tag_swap_order_of_appearance():
    raw = pair(
        "<ph>Click</ph> <uicontrol>Save</uicontrol> then <ph>exit</ph>",
        "<ph>Klicken</ph> <uicontrol>Speichern</uicontrol> dann <ph>beenden</ph>",
    )
    swapped, diags = tag_swap(raw)
    assert swapped.src_markup == "<a>Click</a> <b>Save</b> then <a>exit</a>"
    assert swapped.tgt_markup == "<a>Klicken</a> <b>Speichern</b> dann <a>beenden</a>"
    assert diags == []


def test_tag_swap_untagged_pair_is_flagged_and_unchanged():
    raw = pair("no tags here", "keine tags hier")
    swapped, diags = tag_swap(raw)
    assert swapped.src_markup == "no tags here"
    assert swapped.tgt_markup == "keine tags hier"
    assert codes(diags) == ["DROP_UNTAGGED"]


def test_tag_swap_unmapped_target_type():
    raw = pair("<ph>Click</ph>", "<ph>Klicken</ph> <menucascade>Menü</menucascade>")
    _, diags = tag_swap(raw)
    assert "UNMAPPED_TYPE" in codes(diags)


def test_tag_swap_one_sided_tags_are_flagged():
    _, diags = tag_swap(pair("<ph>Click</ph>", "Klicken"))
    assert codes(diags) == ["DROP_UNTAGGED"]


def test_tag_swap_strips_attributes_and_keeps_self_closing():
    raw = pair('<ph class="x">Click</ph> <img src="i.png"/>', '<img src="i.png"/> <ph>Klick</ph>')
    swapped, diags = tag_swap(raw)
    assert swapped.src_markup == "<a>Click</a> <b/>"
    assert swapped.tgt_markup == "<b/> <a>Klick</a>"
    assert diags == []


def test_tag_swap_idempotent_on_normalized_pairs():
    raw = pair("<a>x</a> <b>y</b>", "<b>v</b> <a>u</a>")
    once, _ = tag_swap(raw)
    twice, _ = tag_swap(once)
    assert once == twice


def test_tag_swap_source_side_defines_letters():
    # Target-side order differs; letters still follow source appearance.
    raw = pair("<one>x</one> <two>y</two>", "<two>v</two> <one>u</one>")
    swapped, _ = tag_swap(raw)
    assert swapped.src_markup == "<a>x</a> <b>y</b>"
    assert swapped.tgt_markup == "<b>v</b> <a>u</a>"


def test_tag_swap_injective_beyond_26_types():
    import re

    names = [f"t{i}" for i in range(28)]
    src = " ".join(f"<{n}>x</{n}>" for n in names)
    swapped, _ = tag_swap(pair(src, src))
    assert "<aa>" in swapped.src_markup and "<ab>" in swapped.src_markup
    letters = re.findall(r"<([a-z]+)>", swapped.src_markup)
    assert len(letters) == 28
    assert len(set(letters)) == 28


def test_tag_swap_number_like_markup_is_not_a_tag():
    swapped, diags = tag_swap(pair("x <1> y <ph>z</ph>", "<ph>w</ph>"))
    assert "<1>" in swapped.src_markup
    assert diags == []


# ------------------------------------------------------------ corpus prep

def corpus_pairs(n_tagged: int, n_untagged: int) -> list[RawMarkupPair]:
    pairs = []
    for i in range(n_tagged):
        pairs.append(
            RawMarkupPair(f"t{i}", "en", "de", f"<ph>word{i}</ph> tail", f"kopf <ph>wort{i}</ph>")
        )
    for i in range(n_untagged):
        pairs.append(RawMarkupPair(f"u{i}", "en", "de", f"plain {i}", f"flach {i}"))
    return pairs


def test_prepare_counts_and_directions():
    corpus = prepare_training_corpus(corpus_pairs(8, 2), dev_fraction=0.25, seed=1)
    assert corpus.provenance.kept_pairs == 8
    assert corpus.provenance.dropped_untagged == 2
    assert len(corpus.train) + len(corpus.dev) == 16
    assert len(corpus.dev) == 4  # ceil(.25 * 8) = 2 ids x 2 directions
    assert {e.direction for e in corpus.train} == {"forward", "reverse"}
    assert [r for p, r in corpus.dropped] == ["DROP_UNTAGGED", "DROP_UNTAGGED"]


def test_prepare_both_directions_share_the_split():
    corpus = prepare_training_corpus(corpus_pairs(10, 0), dev_fraction=0.3, seed=9)
    dev_ids = {e.id for e in corpus.dev}
    train_ids = {e.id for e in corpus.train}
    assert dev_ids.isdisjoint(train_ids)
    for bucket in (corpus.dev, corpus.train):
        per_id = {}
        for example in bucket:
            per_id.setdefault(example.id, []).append(example.direction)
        assert all(sorted(dirs) == ["forward", "reverse"] for dirs in per_id.values())


def test_prepare_reverse_swaps_sides():
    corpus = prepare_training_corpus(corpus_pairs(1, 0), dev_fraction=0.0, seed=0)
    forward, reverse = corpus.train
    assert forward.src_lang == "en" and forward.tgt_lang == "de"
    assert reverse.src_lang == "de" and reverse.tgt_lang == "en"
    assert forward.src_tagged == reverse.tgt_tagged and forward.tgt_tagged == reverse.src_tagged


def test_prepare_zero_dev_fraction():
    corpus = prepare_training_corpus(corpus_pairs(5, 0), dev_fraction=0.0, seed=0)
    assert corpus.dev == ()


def test_prepare_deterministic_for_a_seed():
    pairs = corpus_pairs(30, 5)
    a = prepare_training_corpus(pairs, dev_fraction=0.1, seed=7)
    b = prepare_training_corpus(pairs, dev_fraction=0.1, seed=7)
    assert a == b
    c = prepare_training_corpus(pairs, dev_fraction=0.1, seed=8)
    assert {e.id for e in a.dev} != {e.id for e in c.dev}


def test_prepare_drops_unmapped_pairs():
    pairs = corpus_pairs(2, 0) + [
        RawMarkupPair("m1", "en", "de", "<ph>x</ph>", "<ph>y</ph> <extra>z</extra>")
    ]
    corpus = prepare_training_corpus(pairs, dev_fraction=0.0, seed=0)
    assert corpus.provenance.dropped_unmapped == 1
    assert corpus.provenance.kept_pairs == 2


def test_prepare_tag_statistics():
    pairs = [
        RawMarkupPair("a", "en", "de", "<ph>x</ph> <b>y</b> <ph>z</ph>", "<ph>u</ph> <b>v</b> <ph>w</ph>"),
        RawMarkupPair("b", "en", "de", "<ph>x</ph>", "<ph>y</ph>"),
    ]
    corpus = prepare_training_corpus(pairs, dev_fraction=0.0, seed=0)
    assert corpus.provenance.avg_tags_per_pair == 2.0  # (3 + 1) / 2
    assert corpus.provenance.max_tags_per_pair == 3
    assert corpus.provenance.max_unique_tags_per_pair == 2


def test_invalid_dev_fraction():
    with pytest.raises(ValueError):
        prepare_training_corpus(corpus_pairs(1, 0), dev_fraction=1.0)


# --------------------------------------------------- swap against its oracle

# Markup heavy in what the tag grammar turns on: angle brackets, slashes,
# quotes, spaces, digits, name punctuation, ASCII and non-ASCII letters.
MARKUP_CHARS = "<<<>>>///\"\"''  09_.:-abzAZé漢"
TAG_NAMES = st.sampled_from(["a", "b", "ph", "A", "_u", "x:y.z-w_1", "t9", "é", "1a", ""])
TAGS = st.builds(
    "<{}{}{}{}>".format,
    st.sampled_from(["", "/", " "]),
    TAG_NAMES,
    st.text(st.sampled_from(" =\"'/x1é<"), max_size=4),
    st.sampled_from(["", "/", " /", "//"]),
)
FRAGMENTS = st.lists(st.text(MARKUP_CHARS, max_size=5) | TAGS, min_size=1, max_size=10)


@st.composite
def raw_pairs(draw, pair_id="p"):
    src = draw(FRAGMENTS)
    # A permutation of the source often keeps every type mapped; a fresh draw often does not.
    tgt = draw(st.permutations(src) | FRAGMENTS)
    return RawMarkupPair(pair_id, "en", "de", "".join(src) or "x", "".join(tgt) or "y")


SEED_MARKUP = ["<a/>", "</a/>", "<a / >", '<a b="/">', "<a//>", "<<a>>", "<1a>", "< a>", "<a", "<é>"]
MANY_TYPES = "".join(f"<t{i} k='v'>x</t{i}><v{i}/>" for i in range(20))  # 40 types
SEED_PAIRS = [
    RawMarkupPair(f"s{i}", "en", "de", src, tgt)
    for i, (src, tgt) in enumerate(
        [(markup, markup) for markup in SEED_MARKUP]
        + [(f"<b>x</b>{markup}", f"{markup}<b>y</b>") for markup in SEED_MARKUP]
        + [("<b>x</b>", f"<b>y</b>{markup}") for markup in SEED_MARKUP]
        + [(MANY_TYPES * 2, "".join(f"<v{i}/><t{i}>y</t{i}>" for i in reversed(range(20))))]
    )
]


def _seeded(test):
    for seed_pair in SEED_PAIRS:
        test = example(seed_pair)(test)
    return test


@given(raw_pairs())
@_seeded
def test_tag_swap_equals_its_oracle(raw):
    assert tag_swap(raw) == oracle_tag_swap(raw)


@given(
    st.lists(st.integers(0, 10**6).flatmap(lambda i: raw_pairs(f"p{i}")), max_size=8),
    st.sampled_from([0.0, 0.05, 0.5, 0.9]),
    st.integers(0, 3),
)
@example(SEED_PAIRS, 0.3, 1)
def test_prepare_training_corpus_equals_its_oracle(pairs, dev_fraction, seed):
    assert prepare_training_corpus(pairs, dev_fraction, seed) == oracle_prepare_training_corpus(
        pairs, dev_fraction, seed
    )


# -------------------------------------------------------------- QA filter

def qa_pair(pair_id: str, src_spans: int, tgt_spans: int, questions=(1, 1)) -> QaParallelPair:
    src = AnnotatedText(pair_id, "en", "word " * 6, tuple(Span("a", i, i + 2) for i in range(src_spans)))
    tgt = AnnotatedText(pair_id, "de", "wort " * 6, tuple(Span("a", i, i + 2) for i in range(tgt_spans)))
    return QaParallelPair(src, tgt, questions[0], questions[1])


def test_qa_parallel_pair_invariants():
    src = AnnotatedText("p", "en", "x")
    assert QaParallelPair(src, AnnotatedText("p", "de", "y"), 1, 1).id == "p"
    with pytest.raises(ValueError, match="^sides of 'p' carry different ids$"):
        QaParallelPair(src, AnnotatedText("other", "de", "y"), 1, 1)
    with pytest.raises(ValueError, match="^'p': source and target language are equal$"):
        QaParallelPair(src, AnnotatedText("p", "en", "y"), 1, 1)


def contexts(lang: str, *ids: str, questions: dict[str, int] | None = None) -> list[tuple[AnnotatedText, int, list]]:
    """An ``ingest_qa`` result: (document, question count, no diagnostics) for each id."""
    return [(AnnotatedText(i, lang, f"context {i}"), (questions or {}).get(i, 0), []) for i in ids]


def test_pair_qa_contexts_pairs_by_id_in_source_order():
    pairs, unaligned = pair_qa_contexts(
        contexts("en", "b", "s1", "a", "s2", questions={"a": 1, "b": 2}),
        contexts("de", "t1", "a", "b", "t2", questions={"a": 3, "b": 4}),
    )
    assert [(p.id, p.src.lang, p.tgt.lang, p.src_questions, p.tgt_questions) for p in pairs] == [
        ("b", "en", "de", 2, 4), ("a", "en", "de", 1, 3)
    ]
    assert unaligned == [
        ("s1", [Diagnostic("warning", "UNALIGNED_CONTEXT", "no target-side context")]),
        ("s2", [Diagnostic("warning", "UNALIGNED_CONTEXT", "no target-side context")]),
        ("t1", [Diagnostic("warning", "UNALIGNED_CONTEXT", "no source-side context")]),
        ("t2", [Diagnostic("warning", "UNALIGNED_CONTEXT", "no source-side context")]),
    ]


@pytest.mark.parametrize("side", ["source", "target"])
def test_pair_qa_contexts_names_the_first_repeated_id_and_its_side(side):
    # B repeats first, but A is the first id of those that repeat.
    repeated, single = contexts("en", "A", "B", "B", "A"), contexts("en", "A", "B")
    src, tgt = (repeated, single) if side == "source" else (single, repeated)
    with pytest.raises(AlignmentError, match=f"^duplicate context id 'A' on the {side} side$"):
        pair_qa_contexts(src, [(AnnotatedText(d.id, "de", d.text), n, diags) for d, n, diags in tgt])


def test_filter_drops_span_count_mismatch():
    kept, dropped, diags = filter_parallel_qa([qa_pair("p", 3, 2)], ConstantScorer(90))
    assert kept == []
    assert [(p.id, r) for p, r in dropped] == [("p", "COUNT_MISMATCH")]
    assert codes(diags) == ["COUNT_MISMATCH"]


def test_filter_drops_question_count_mismatch():
    kept, dropped, _ = filter_parallel_qa([qa_pair("p", 2, 2, questions=(2, 1))], ConstantScorer(90))
    assert kept == [] and len(dropped) == 1


def test_filter_score_threshold_is_strict_less_than():
    kept, dropped, _ = filter_parallel_qa([qa_pair("p", 1, 1)], ConstantScorer(79.9), min_score=80)
    assert kept == [] and [(p.id, r) for p, r in dropped] == [("p", "LOW_SCORE")]
    kept, dropped, _ = filter_parallel_qa([qa_pair("p", 1, 1)], ConstantScorer(80.0), min_score=80)
    assert len(kept) == 1 and dropped == []


def test_filter_score_disabled_skips_scorer():
    kept, dropped, _ = filter_parallel_qa([qa_pair("p", 1, 1)], scorer=None, min_score=None)
    assert len(kept) == 1 and dropped == []


@pytest.mark.parametrize("min_score", [float("nan"), float("inf"), float("-inf")])
def test_filter_rejects_a_non_finite_min_score(min_score):
    with pytest.raises(ValueError, match="min_score must be a finite number"):
        filter_parallel_qa([qa_pair("p", 1, 1)], ConstantScorer(0), min_score=min_score)


def test_filter_requires_scorer_when_enabled():
    with pytest.raises(ScorerUnavailableError):
        filter_parallel_qa([qa_pair("p", 1, 1)], scorer=None, min_score=80)


class _FailingScorer(ScorerBackend):
    def __init__(self, error: Exception):
        self.error = error

    def _score(self, pairs):
        raise self.error


@pytest.mark.parametrize("error", [BackendError(503, "busy"), BackendUnreachableError("http://x: giving up")])
def test_filter_reports_a_failing_scorer_as_unavailable(error):
    with pytest.raises(ScorerUnavailableError) as excinfo:
        filter_parallel_qa([qa_pair("p", 1, 1)], _FailingScorer(error), min_score=80)
    assert str(excinfo.value) == f"scorer failed: {error}" and excinfo.value.__cause__ is error


class _Scoring(ScorerBackend):
    """Answers every batch with ``scores``."""

    def __init__(self, scores: list):
        self.scores = scores

    def _score(self, pairs):
        return self.scores


@pytest.mark.parametrize("scores, error, message", [
    ([90.0, 90.0], AlignmentError, "2 scores returned for 3 pairs"),
    ([90.0] * 4, AlignmentError, "4 scores returned for 3 pairs"),
    ([90.0, float("nan"), 90.0], ValueError, "score nan is not a finite number"),
    ([90.0, True, 90.0], ValueError, "score True is not a finite number"),
], ids=["short", "long", "nan", "bool"])
def test_filter_refuses_a_scorer_answer_that_is_not_one_finite_score_per_pair(scores, error, message):
    # Zipped with the pairs, a short answer would lose a pair, a long one hide the fault, NaN keep every pair and
    # True score as 1.
    with pytest.raises(error) as excinfo:
        filter_parallel_qa([qa_pair(f"p{i}", 1, 1) for i in range(3)], _Scoring(scores), min_score=80)
    assert str(excinfo.value) == message
