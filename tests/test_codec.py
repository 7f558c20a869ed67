from __future__ import annotations

import functools
import hashlib
import random
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, assume, settings
import hypothesis.strategies as st

from labelproj import (
    AlignmentError,
    IdentityBackend,
    InvalidAnnotationError,
    MarkerScheme,
    Span,
    TagDropperBackend,
    TagShufflerBackend,
    TaggedText,
    decode,
    encode,
    project,
    signature,
    tag_name,
    validate,
)
from labelproj.codec import _decode, _match_flag, occurrences, scan_markers
from labelproj.evaluation import ReportAccumulator
from labelproj.model import has_errors

from codec_oracle import (
    oracle_decode, oracle_encode, oracle_match_flag, oracle_occurrences, oracle_project, oracle_scan_markers,
    strip_markers,
)
from conftest import canon, make_doc
from model_oracle import partially_overlap
from test_acceptance import _random_doc

XML = MarkerScheme.XML
BRACKETS = MarkerScheme.BRACKETS


def bare(raw: str) -> TaggedText:
    """``raw`` as a tagged text with an empty id and language."""
    return TaggedText("", "", raw)


# ---------------------------------------------------------------- tag names

# First 30 names written out by hand.
FIRST_30 = [
    "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m",
    "n", "o", "p", "q", "r", "s", "t", "u", "v", "w", "x", "y", "z",
    "aa", "ab", "ac", "ad",
]


def test_tag_name_first_thirty():
    assert [tag_name(i) for i in range(30)] == FIRST_30


@pytest.mark.parametrize("index,name", [(0, "a"), (23, "x"), (25, "z"), (26, "aa"), (51, "az"), (52, "ba"), (701, "zz"), (702, "aaa")])
def test_tag_name_fixtures(index, name):
    assert tag_name(index) == name


def test_tag_name_rejects_negative():
    for _ in range(2):  # a cached name must not stand in for the error
        with pytest.raises(ValueError):
            tag_name(-1)


# ------------------------------------------------------------------- encode

def test_encode_two_flat_spans():
    doc = make_doc("John lives in Paris", [Span("a", 0, 4), Span("b", 14, 19)])
    assert encode(doc, XML).tagged == "<a>John</a> lives in <b>Paris</b>"


def test_encode_no_spans_is_identity():
    for scheme in (XML, BRACKETS):
        assert encode(make_doc("ab"), scheme).tagged == "ab"


def test_encode_nested_spans():
    doc = make_doc("the Huguenot population", [Span("c", 0, 23), Span("d", 4, 12)])
    assert encode(doc, XML).tagged == "<c>the <d>Huguenot</d> population</c>"


def test_encode_brackets():
    doc = make_doc("John lives in Paris", [Span("a", 0, 4), Span("b", 14, 19)])
    assert encode(doc, BRACKETS).tagged == "[John] lives in [Paris]"


def test_encode_closes_before_opens_at_shared_offset():
    doc = make_doc("abcd", [Span("a", 0, 2), Span("a", 2, 4)])
    assert encode(doc, XML).tagged == "<a>ab</a><a>cd</a>"


def test_encode_shared_offset_opens_longest_first():
    doc = make_doc("abcd", [Span("b", 0, 2), Span("a", 0, 4)])
    assert encode(doc, XML).tagged == "<a><b>ab</b>cd</a>"


def test_encode_shared_offset_ties_by_tag_sequence():
    doc = make_doc("ab", [Span("b", 0, 2), Span("a", 0, 2)])
    assert encode(doc, XML).tagged == "<a><b>ab</b></a>"


def test_encode_zero_width_span():
    doc = make_doc("abcd", [Span("a", 2, 2)])
    assert encode(doc, XML).tagged == "ab<a></a>cd"


def test_encode_zero_width_next_to_closing_same_name():
    doc = make_doc("ab", [Span("a", 0, 2), Span("a", 2, 2)])
    assert encode(doc, XML).tagged == "<a>ab</a><a></a>"


def test_encode_preserves_id_and_lang():
    tagged = encode(make_doc("ab", [], doc_id="doc9", lang="deu_Latn"), XML)
    assert (tagged.id, tagged.lang) == ("doc9", "deu_Latn")


def test_encode_rejects_invalid_annotation():
    with pytest.raises(InvalidAnnotationError):
        encode(make_doc("ab", [Span("a", 0, 5)]), XML)


def test_encode_deterministic():
    doc = make_doc("one two three", [Span("a", 0, 3), Span("b", 4, 7), Span("a", 8, 13)])
    assert encode(doc, XML) == encode(doc, XML)


def test_encode_rejects_uppercase_tags():
    doc = make_doc("Paris", [Span("PER", 0, 5)])
    for scheme in (XML, BRACKETS):
        with pytest.raises(InvalidAnnotationError, match="BAD_TAG_NAME"):
            encode(doc, scheme)


def test_encode_succeeds_on_marker_collision_text():
    # Collision with the marker grammar is a warning: such documents still
    # encode, they just lose the round-trip guarantee.
    doc = make_doc("literal <a> stays", [Span("b", 0, 7)])
    assert encode(doc, XML).tagged == "<b>literal</b> <a> stays"


# ------------------------------------------------------------------- decode

def test_decode_inverse_of_flat_example():
    doc, diags = decode(bare("<a>John</a> lives in <b>Paris</b>"))
    assert doc.text == "John lives in Paris"
    assert doc.spans == (Span("a", 0, 4), Span("b", 14, 19))
    assert diags == []


def test_decode_plain_text():
    doc, diags = decode(bare("plain text"))
    assert (doc.text, doc.spans, diags) == ("plain text", (), [])


def test_decode_overlapping_pair():
    doc, diags = decode(bare("<a>x <b>y</a> z</b>"))
    assert doc.text == "x y z"
    assert doc.spans == (Span("a", 0, 3), Span("b", 2, 5))
    assert diags == []


def test_decode_orphan_close_removed_and_reported():
    doc, diags = decode(bare("x </a> y"))
    assert doc.text == "x  y"
    assert doc.spans == ()
    assert [d.code for d in diags] == ["ORPHAN_CLOSE"]


def test_decode_unclosed_open_extends_to_end():
    doc, diags = decode(bare("a <b>bc d"))
    assert doc.text == "a bc d"
    assert doc.spans == (Span("b", 2, 6),)
    assert [d.code for d in diags] == ["UNCLOSED_OPEN"]


def test_decode_marker_lookalike_stays_literal():
    doc, diags = decode(bare("x <1> y"))
    assert doc.text == "x <1> y"
    assert [d.code for d in diags] == ["IGNORED_LITERAL"]


def test_decode_leaves_uppercase_markers_literal():
    doc, diags = decode(bare("<PER>Paris</PER> <a>x</a>"))
    assert (doc.text, doc.spans) == ("<PER>Paris</PER> x", (Span("a", 17, 18),))
    assert [(d.code, d.offset) for d in diags] == [("IGNORED_LITERAL", 0), ("IGNORED_LITERAL", 10)]
    assert signature(bare("<PER>Paris</PER>")) == Counter()


def test_decode_brackets_names_spans_in_open_order():
    doc, diags = decode(bare("[John] lives in [Paris]"), BRACKETS)
    assert doc.text == "John lives in Paris"
    assert doc.spans == (Span("a", 0, 4), Span("b", 14, 19))
    assert diags == []


def test_decode_brackets_nested_lifo():
    doc, diags = decode(bare("[x [y] z]"), BRACKETS)
    assert doc.text == "x y z"
    assert canon(doc.spans) == (Span("a", 0, 5), Span("b", 2, 3))
    assert diags == []


def test_decode_takes_tagged_text_value():
    doc, _ = decode(TaggedText("t3", "de", "<a>x</a>"))
    assert (doc.id, doc.lang, doc.text) == ("t3", "de", "x")


def test_decode_repeated_tag_pairs_innermost_first():
    doc, diags = decode(bare("<a>outer <a>inner</a> rest</a>"))
    assert doc.text == "outer inner rest"
    assert canon(doc.spans) == (Span("a", 0, 16), Span("a", 6, 11))
    assert diags == []


# ---------------------------------------------------------------- signature

def test_signature_single_pair():
    assert signature(bare("<a>x</a>")) == Counter([("a", "open"), ("a", "close")])


def test_signature_repeated_tag():
    sig = signature(bare("<a>x</a> <a>y</a>"))
    assert isinstance(sig, Counter)
    assert sig[("a", "open")] == 2
    assert sig[("a", "close")] == 2
    assert sig.total() == 4


def test_signature_brackets():
    sig = signature(bare("x [y] z"), BRACKETS)
    assert sig == Counter([("", "open"), ("", "close")])


def test_signature_counts_orphans_and_ignores_text():
    assert signature(bare("</b> text <a>")) == Counter([("b", "close"), ("a", "open")])
    assert signature(bare("<a>x</a>")) == signature(bare("<a>completely different</a>"))


def test_signature_inequality():
    assert signature(bare("<a>x</a>")) != signature(bare("<a>x"))
    assert signature(bare("<a>x</a>")) != signature(bare("<b>x</b>"))


# ------------------------------------------------------- scanner and pairing

def test_scan_markers_positions():
    scan = scan_markers("ab<a>cd</a><1>")
    assert scan.tokens == [("a", "open", 2, 5, 2), ("a", "close", 7, 11, 4)]
    assert scan.text == "abcd<1>"
    assert [(d.code, d.offset) for d in scan.diagnostics] == [("IGNORED_LITERAL", 11)]


def test_scan_markers_pairs_lifo_and_reports_orphans():
    scan = scan_markers("</a><a>x<a>y</a></a><b>")
    assert [(rank, o.start, c.start) for rank, o, c in scan.pairs] == [(0, 4, 16), (1, 8, 12)]
    assert [t.start for t in scan.orphans] == [0]
    assert [(rank, t.name, t.at) for rank, t in scan.unclosed] == [(2, "b", 2)]
    assert scan.text == "xy"


def test_scan_markers_brackets_pair_under_one_name():
    scan = scan_markers("[x[y]z]]<a>[", BRACKETS)
    assert [(t.name, t.kind, t.at) for t in scan.tokens] == [
        ("", "open", 0), ("", "open", 1), ("", "close", 2), ("", "close", 3), ("", "close", 3), ("", "open", 6),
    ]
    assert [(rank, o.start, c.start) for rank, o, c in scan.pairs] == [(0, 0, 6), (1, 2, 4)]
    assert [t.start for t in scan.orphans] == [7]
    assert [(rank, t.start) for rank, t in scan.unclosed] == [(2, 11)]
    assert (scan.text, scan.diagnostics) == ("xyz<a>", [])


# --------------------------------------------------------------- properties

# '<' is excluded so generated text cannot collide with the marker grammar;
# '>' and brackets are fine for the XML scheme.
SAFE_ALPHABET = list("abz XY019é中>.-")


@st.composite
def valid_docs(draw):
    text = draw(st.text(alphabet=st.sampled_from(SAFE_ALPHABET), max_size=30))
    n_spans = draw(st.integers(0, 6))
    spans = []
    for _ in range(n_spans):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, len(text)))
        spans.append(Span(tag_name(draw(st.integers(0, 23))), start, end))
    doc = make_doc(text, canon(spans))
    assume(not has_errors(validate(doc)))
    return doc


@given(valid_docs())
def test_roundtrip_property(doc):
    tagged = encode(doc, XML)
    back, diags = decode(tagged, XML)
    assert diags == []
    assert back == doc


@given(valid_docs())
def test_strip_consistency(doc):
    assert strip_markers(encode(doc, XML), XML) == doc.text


@given(valid_docs())
def test_signature_has_one_open_and_close_per_span(doc):
    sig = signature(encode(doc, XML), XML)
    opens = sum(n for (name, kind), n in sig.items() if kind == "open")
    closes = sum(n for (name, kind), n in sig.items() if kind == "close")
    assert opens == len(doc.spans)
    assert closes == len(doc.spans)


@given(st.text(max_size=60))
@settings(max_examples=300)
def test_decode_is_total(raw):
    for scheme in (XML, BRACKETS):
        doc, _ = decode(bare(raw), scheme)
        assert isinstance(doc.text, str)


@given(st.text(max_size=60))
def test_strip_decode_agreement(raw):
    doc, _ = decode(bare(raw), XML)
    assert doc.text == strip_markers(raw, XML)


# ------------------------------------------------------------------ oracles

@functools.cache
def _criterion_1_docs() -> tuple:
    # The same seed and draws as acceptance criterion 1: the same 10k documents.
    rng = random.Random(0xC0DEC)
    return tuple(_random_doc(rng, f"doc{i}") for i in range(10_000))


def test_encode_matches_oracle_on_criterion_1_documents():
    for doc in _criterion_1_docs():
        for scheme in (XML, BRACKETS):
            assert encode(doc, scheme) == oracle_encode(doc, scheme)


# Fragments that break, duplicate or imitate markers in either scheme,
# uppercase lookalikes included.
NOISE = [
    "<", ">", "/", "[", "]", "a", "A", " ", "<1>", "< a>", "<>", "</>", "</a", "<a b>",
    "<b>", "</b>", "<aa>", "</z>", "<A>", "</B>", "<PER>", "</PER>", "<<a>>",
]


def _mutate(rng: random.Random, tagged: str) -> str:
    for _ in range(rng.randint(1, 4)):
        pos = rng.randint(0, len(tagged))
        op = rng.randrange(3)
        if op == 0:  # delete a short slice, possibly part of a marker
            tagged = tagged[:pos] + tagged[pos + rng.randint(1, 4) :]
        elif op == 1:
            tagged = tagged[:pos] + rng.choice(NOISE) + tagged[pos:]
        else:  # duplicate a short slice elsewhere
            i = rng.randint(0, len(tagged))
            tagged = tagged[:pos] + tagged[i : i + rng.randint(1, 6)] + tagged[pos:]
    return tagged


def _mutated_strings():
    """(document, scheme, mutated encoding): 3,000 seeded documents, both schemes."""
    rng = random.Random(0xDEC0DE)
    for i in range(3_000):
        doc = _random_doc(rng, f"doc{i}")
        for scheme in (XML, BRACKETS):
            yield doc, scheme, _mutate(rng, encode(doc, scheme).tagged)


def test_decode_matches_oracle_on_mutated_strings():
    codes: Counter = Counter()
    for doc, scheme, raw in _mutated_strings():
        got = decode(TaggedText(doc.id, doc.lang, raw), scheme)
        assert got == oracle_decode(raw, scheme, doc_id=doc.id, lang=doc.lang)
        codes.update((scheme, d.code) for d in got[1])
    for code in ("IGNORED_LITERAL", "ORPHAN_CLOSE", "UNCLOSED_OPEN"):
        assert codes[(XML, code)] > 0
    for code in ("ORPHAN_CLOSE", "UNCLOSED_OPEN"):
        assert codes[(BRACKETS, code)] > 0


# Strings drawn from NOISE and letters: most hold several markers, lookalikes and broken markers of both schemes.
marker_soup = st.lists(st.sampled_from([*NOISE, "<a>", "</a>", "x", "y", "é"]), max_size=24).map("".join)


@settings(max_examples=500)
@given(marker_soup, st.sampled_from([XML, BRACKETS]))
def test_decode_over_marker_soup_equals_the_oracle(raw, scheme):
    assert decode(TaggedText("d", "de", raw), scheme) == oracle_decode(raw, scheme, doc_id="d", lang="de")
    scan = scan_markers(raw, scheme)
    oracle_tokens, _ = oracle_scan_markers(raw, scheme)
    counts = Counter((t.name, t.kind) for t in scan.tokens)
    assert counts == signature(bare(raw), scheme) == Counter((t.name, t.kind) for t in oracle_tokens)
    assert scan.text == strip_markers(raw, scheme)
    assert [t.at for t in scan.tokens] == [len(strip_markers(raw[: t.start], scheme)) for t in scan.tokens]
    # Every token is in exactly one pair, orphan or unclosed open.
    paired = [t for _, o, c in scan.pairs for t in (o, c)] + scan.orphans + [t for _, t in scan.unclosed]
    assert sorted(paired) == sorted(scan.tokens)


def test_decode_tokens_are_the_signature_on_mutated_strings():
    for _, scheme, raw in _mutated_strings():
        _, _, scan = _decode(bare(raw), scheme)
        assert Counter((t.name, t.kind) for t in scan.tokens) == signature(bare(raw), scheme)


@given(st.lists(st.builds(Span, st.sampled_from(["a", "b", "aa"]), st.integers(0, 4), st.integers(0, 4),
                          st.sampled_from([None, "PER"])), max_size=8))
def test_occurrences_equals_the_oracle(spans):
    # Key order too: the tags come in the text order of their first span.
    assert list(occurrences(spans).items()) == list(oracle_occurrences(spans).items())


# Marker-shaped and bracket substrings for document texts: an inserted marker
# can split one, so it may or may not survive encoding as a scanned marker.
COLLISIONS = ["<ab>", "</a>", "<b>", "<z>", "</ab>", "[", "]", "[]", "<<a>>", "<a", "a>", "<1>"]


def _colliding_doc(rng: random.Random, doc_id: str):
    """A seeded document with 1-3 such substrings spliced into its text, each
    with a zero-width span somewhere in it."""
    doc = _random_doc(rng, doc_id)
    text, spans = doc.text, list(doc.spans)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randint(0, len(text))
        extra = rng.choice(COLLISIONS)
        text = text[:pos] + extra + text[pos:]
        n = len(extra)
        spans = [Span(s.tag, s.start + n * (s.start > pos), s.end + n * (s.end >= pos)) for s in spans]
        at = pos + rng.randint(0, n)
        spans.append(Span(tag_name(rng.randrange(24)), at, at))
    return make_doc(text, canon(spans), doc_id=doc_id)


def test_match_flag_holds_for_the_encoding_itself():
    rng = random.Random(0x51C)
    docs = [*_criterion_1_docs(), *(_colliding_doc(rng, f"col{i}") for i in range(3_000))]
    collisions = 0
    for doc in docs:
        diagnostics = validate(doc)
        if has_errors(diagnostics):
            continue
        collisions += any(d.code == "MARKER_COLLISION" for d in diagnostics)
        for scheme in (XML, BRACKETS):
            encoded = encode(doc, scheme)
            assert _match_flag(doc, encoded, scan_markers(encoded.tagged, scheme), scheme)
    assert collisions > 1_000


# -------------------------------------------------------- seeded backends

# sha256 of the seeded backends' outputs over the criterion-1 documents, one tagged string per line, as first
# recorded: a change to the marker scan or to how the backends draw must leave these bytes as they are.
SEEDED_OUTPUT_SHA256 = {
    (XML, "drop:0.3"): "2de9dfd58ec81273a76e60a7a4b385a7c75d383515b59618534c6977549dea2f",
    (XML, "shuffle"): "8d686992c1e4578343e5a7c4468e233a45202f68c5f0c675f76fc46bf1f8b272",
    (BRACKETS, "drop:0.3"): "7ce3d3e1393be05cdae35dda1b75d23449e837b78238e309ebd78186ceb4b1eb",
    (BRACKETS, "shuffle"): "b94595e6f44a5216ce40dfb110e6007c4c0e31eadefff67ae253c8a0331bdcb2",
}


def test_seeded_backends_output_is_pinned():
    docs = _criterion_1_docs()
    for (scheme, name), digest in SEEDED_OUTPUT_SHA256.items():
        backend = TagDropperBackend(0.3, 0, scheme) if name == "drop:0.3" else TagShufflerBackend(0, scheme)
        sources = [encode(doc, scheme) for doc in docs]
        out = backend.translate_batch(sources, "en", "de")
        assert hashlib.sha256("\n".join(t.tagged for t in out).encode("utf-8")).hexdigest() == digest, (scheme, name)


# ------------------------------------------------------------------ project

# '<', '/' and brackets let texts hold marker-shaped substrings of both schemes.
PROJECT_ALPHABET = list("ab <>/[]z中")
BACKENDS = {
    "identity": lambda seed, scheme: IdentityBackend(),
    "shuffle": TagShufflerBackend,
    "drop:0.3": lambda seed, scheme: TagDropperBackend(0.3, seed, scheme),
    "drop:1.0": lambda seed, scheme: TagDropperBackend(1.0, seed, scheme),
}


@st.composite
def project_batches(draw, max_docs: int = 3):
    """One to ``max_docs`` valid documents; spans carry labels only when the batch is labelled."""
    labelled = draw(st.booleans())
    docs = []
    for i in range(draw(st.integers(1, max_docs))):
        text = draw(st.text(alphabet=st.sampled_from(PROJECT_ALPHABET), max_size=24))
        spans: list[Span] = []
        for _ in range(draw(st.integers(0, 6))):
            start = draw(st.integers(0, len(text)))
            end = draw(st.integers(start, len(text)))
            label = draw(st.sampled_from([None, "PER", "LOC"])) if labelled else None
            span = Span(tag_name(draw(st.integers(0, 3))), start, end, label)
            if not any(s.tag == span.tag and partially_overlap(s, span) for s in spans):
                spans.append(span)
        docs.append(make_doc(text, spans, doc_id=f"d{i}"))
    return docs


class _Recorder(ReportAccumulator):
    """A report that also records what it is fed: (projected document, match flag, occurrences) per pair."""

    def __init__(self, reference):
        super().__init__(reference)
        self.fed = []

    def add(self, projected, by_tag, reference, matched):
        self.fed.append((projected, matched, by_tag))
        super().add(projected, by_tag, reference, matched)


def _project_all(docs, translator, scheme, window, reference):
    """``project`` over ``docs`` in windows of ``window``, against ``reference``: the documents it yields, the
    diagnostic groups it appends, what it feeds the report, and the report."""
    counts, groups = _Recorder(reference), []
    projected = list(project(docs, translator, "en", "de", counts, groups, window, scheme))
    return projected, groups, counts.fed, counts.report()


@settings(max_examples=300)
@given(project_batches(), st.sampled_from(sorted(BACKENDS)), st.sampled_from([XML, BRACKETS]), st.integers(0, 3))
def test_project_equals_its_step_by_step_oracle(docs, backend, scheme, seed):
    assert not any(has_errors(validate(doc)) for doc in docs)
    translator = BACKENDS[backend](seed, scheme)
    expected = oracle_project(docs, translator, "en", "de", scheme)
    reference = [doc for doc, *_ in expected]
    projected, groups, fed, _ = _project_all(docs, translator, scheme, len(docs), reference)
    assert projected == reference
    assert groups == [(doc.id, diagnostics) for doc, diagnostics, *_ in expected if diagnostics]
    assert fed == [(doc, matched, by_tag) for doc, _, matched, by_tag in expected]


@settings(max_examples=150)
@given(project_batches(max_docs=12), st.sampled_from(["shuffle", "drop:0.3"]), st.sampled_from([XML, BRACKETS]),
       st.integers(0, 3), st.sampled_from([1, 2, 5, None]))
def test_project_in_any_window_gives_what_one_batch_gives(docs, backend, scheme, seed, window):
    # The seeded backends draw by each document's position in the run, not in its window. A window of 1 divides
    # every input exactly, and None stands for one window of every document. The windowed run reads a list, the
    # one-batch run an iterator: a list is read once, not from its start again in each window.
    translator = BACKENDS[backend](seed, scheme)
    reference = [doc._replace(lang="de") for doc in docs]
    one_batch = _project_all(iter(docs), translator, scheme, len(docs), reference)
    assert _project_all(docs, translator, scheme, window or len(docs), reference) == one_batch


class _Answering(IdentityBackend):
    """The identity backend's strings for each batch, rewritten by ``answer``."""

    def __init__(self, answer):
        self.answer = answer

    def _translate(self, texts, src_lang, tgt_lang, start):
        return self.answer(super()._translate(texts, src_lang, tgt_lang, start))


@pytest.mark.parametrize("answer, message", [
    (lambda out: out[:1], "1 translations returned for 2 texts"),
    (lambda out: out + out[:1], "3 translations returned for 2 texts"),
], ids=["short", "long"])
def test_project_refuses_an_answer_that_is_not_one_text_per_input_in_the_target_language(answer, message):
    # Five documents fill the first window, which is answered in full; the second window's two strings are
    # rewritten. A backend answers with strings alone, so the id and the language cannot be wrong.
    docs = [make_doc("plain", [], doc_id=f"p{i}") for i in range(5)]
    docs += [make_doc("John here", [Span("a", 0, 4)], doc_id="d1"), make_doc("plain", [], doc_id="d2")]
    backend = _Answering(lambda out: answer(out) if len(out) == 2 else out)
    run = project(iter(docs), backend, "en", "de", ReportAccumulator(None), [], 5)
    assert [doc.id for doc in islice(run, 5)] == [doc.id for doc in docs[:5]]
    with pytest.raises(AlignmentError) as excinfo:
        next(run)  # raised before any document of the second window is decoded
    assert str(excinfo.value) == message


def test_project_translates_nothing_for_a_report_with_a_bad_threshold():
    windows = []
    backend = _Answering(lambda out: windows.append(out) or out)
    docs = [make_doc("John here", [Span("a", 0, 4)], doc_id=f"d{i}") for i in range(10)]
    with pytest.raises(ValueError, match=r"^threshold must be in \[0, 1\], got 2.0$"):
        counts = ReportAccumulator(iter([doc._replace(lang="de") for doc in docs]), threshold=2.0)
        list(project(iter(docs), backend, "en", "de", counts, [], 3))
        counts.report()
    assert windows == []


def test_project_refuses_a_window_below_one():
    with pytest.raises(ValueError, match="window must be >= 1, got 0"):
        next(project(iter([]), IdentityBackend(), "en", "de", ReportAccumulator(None), [], 0))


# ------------------------------------------------------------- match flag

@st.composite
def _edited_markers(draw, tagged: str, scheme: MarkerScheme) -> str:
    """``tagged`` with up to three of its recognized markers dropped, duplicated or renamed (in the bracket
    scheme a rename turns an open into a close and back), and a piece of marker soup spliced in somewhere."""
    tokens = scan_markers(tagged, scheme).tokens
    edits = dict(draw(st.lists(
        st.tuples(st.integers(0, max(len(tokens) - 1, 0)), st.sampled_from(["drop", "duplicate", "rename"])),
        max_size=3,
    )))
    pieces, cursor = [], 0
    for i, token in enumerate(tokens):
        pieces.append(tagged[cursor : token.start])
        cursor = token.end
        marker = tagged[token.start : token.end]
        edit = edits.get(i)
        if edit == "rename" and scheme is XML:
            slash = "/" if token.kind == "close" else ""
            marker = f"<{slash}{draw(st.sampled_from(['a', 'b', 'z', 'aa']))}>"
        elif edit == "rename":
            marker = "[" if marker == "]" else "]"
        pieces.append({"drop": "", "duplicate": marker * 2}.get(edit, marker))
    pieces.append(tagged[cursor:])
    edited = "".join(pieces)
    at = draw(st.integers(0, len(edited)))
    return edited[:at] + draw(st.sampled_from(["", "", *NOISE, "<a>", "</a>"])) + edited[at:]


def _valid_colliding_doc(seed: int):
    doc = _colliding_doc(random.Random(seed), "c")
    assume(not has_errors(validate(doc)))
    return doc


# Texts with no '<' (the flag's fast path), texts with marker-shaped substrings of both schemes, and
# ``_colliding_doc``'s texts, whose markers an inserted marker can split.
match_flag_docs = st.one_of(
    valid_docs(),
    project_batches(max_docs=1).map(lambda docs: docs[0]),
    st.integers(0, 2**32).map(_valid_colliding_doc),
)


@settings(max_examples=500)
@given(match_flag_docs, st.sampled_from([XML, BRACKETS]), st.data())
def test_match_flag_equals_the_signature_comparison(doc, scheme, data):
    encoded = encode(doc, scheme)
    hypothesis = TaggedText(doc.id, "de", data.draw(_edited_markers(encoded.tagged, scheme)))
    scan = scan_markers(hypothesis.tagged, scheme)
    assert _match_flag(doc, encoded, scan, scheme) == oracle_match_flag(encoded, hypothesis, scheme)


@pytest.mark.parametrize("hypothesis, matched", [
    ("x <a>y</a>", True),
    ("</a> x <a>", True),  # an orphan close and an unclosed open: the same multiset all the same
    ("<a>x y", False),
    ("<a>x</a> <a>y</a>", False),
    ("<b>x</b> y", False),
    ("<a>x</b> y", False),  # the opens match, the closes do not
    ("<a>x</a> <1>", True),  # a lookalike is no marker
])
def test_match_flag_compares_multisets_not_pairs(hypothesis, matched):
    doc = make_doc("x y", [Span("a", 0, 1)])
    encoded = encode(doc, XML)
    hyp = TaggedText(doc.id, "de", hypothesis)
    assert _match_flag(doc, encoded, scan_markers(hyp.tagged, XML), XML) is matched
    assert oracle_match_flag(encoded, hyp, XML) is matched


@pytest.mark.parametrize("text, at, scheme, hypothesis, matched", [
    ("x < y", 0, XML, "<a></a>x < y", True),  # a '<' that starts no marker
    ("x < y", 0, XML, "<a>x < y", False),
    ("<ab>", 0, XML, "<a></a><ab>", True),  # the text's own marker stays whole in the encoding
    ("<ab>", 0, XML, "<a></a>", False),
    ("<ab>", 2, XML, "<a></a>", True),  # the inserted markers split it: "<a<a></a>b>"
    ("<ab>", 2, XML, "<a></a><ab>", False),
    ("x [y", 0, BRACKETS, "[]x [y", True),  # the text's own bracket counts
    ("x [y", 0, BRACKETS, "[]x y", False),
])
def test_match_flag_on_texts_with_marker_characters(text, at, scheme, hypothesis, matched):
    doc = make_doc(text, [Span("a", at, at)])
    encoded = encode(doc, scheme)
    hyp = TaggedText(doc.id, "de", hypothesis)
    assert _match_flag(doc, encoded, scan_markers(hyp.tagged, scheme), scheme) is matched
    assert oracle_match_flag(encoded, hyp, scheme) is matched
