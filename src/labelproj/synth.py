"""Synthetic span samplers over word boundaries.

Three insertion modes cover different annotation shapes: ``single`` always
emits exactly one span, ``simple`` emits disjoint non-nested spans, and
``complex`` allows nesting and overlap. Spans always snap to token edges.
"""

from __future__ import annotations

import random
import re
from enum import Enum
from typing import Iterable, Iterator, NamedTuple

try:  # hashlib would also load OpenSSL's libcrypto, which only HTTPS needs
    from _blake2 import blake2b
except ImportError:  # CPython built without _blake2
    from hashlib import blake2b

from .codec import tag_name
from .errors import NoTokensError
from .model import AnnotatedText, Span, TaggedText, record_type

_TOKEN_RE = re.compile(r"\S+")


class InsertionMode(str, Enum):
    SINGLE = "single"
    SIMPLE = "simple"
    COMPLEX = "complex"


class _MarkerConfigFields(NamedTuple):
    mode: InsertionMode
    p_open: float = 0.2
    p_close: float = 0.5
    seed: int = 0
    sequential_lengths: bool = False


@record_type
class MarkerConfig(_MarkerConfigFields):
    """Sampler parameters.

    ``p_open`` is the per-boundary probability of starting a new span and
    ``p_close`` the per-boundary probability of closing an open one. In
    single mode the span length in tokens is drawn from the geometric law
    with P(L=k) = p_close**(k-1) * (1-p_close), mean 1/(1-p_close); set
    ``sequential_lengths`` to instead use P(L=k) = (1-p_close)**(k-1) *
    p_close, the length law the boundary-by-boundary closing process
    implies. The two coincide at p_close = 0.5, the default.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 <= self.p_open <= 1.0:
            raise ValueError(f"p_open must be in [0, 1], got {self.p_open}")
        if not 0.0 < self.p_close <= 1.0:
            raise ValueError(f"p_close must be in (0, 1], got {self.p_close}")
        return self


@record_type
class TokenBoundaryMap(NamedTuple):
    """Whitespace-delimited tokens; boundary k lies before token k, boundary n after the last."""

    tokens: tuple[tuple[int, int], ...]

    def char_start(self, boundary: int) -> int:
        return self.tokens[boundary][0]

    def char_end(self, boundary: int) -> int:
        return self.tokens[boundary - 1][1]


def tokenize_boundaries(sentence: str) -> TokenBoundaryMap:
    """Tokens are maximal runs of non-whitespace scalar values."""
    tokens = tuple((m.start(), m.end()) for m in _TOKEN_RE.finditer(sentence))
    return TokenBoundaryMap(tokens)


def derive_seed(seed: int, key: str) -> int:
    """Stable per-item seed for corpus-level generation: seed XOR hash(key)."""
    digest = blake2b(key.encode("utf-8"), digest_size=8).digest()
    return (seed ^ int.from_bytes(digest, "big")) & (2**63 - 1)


def insert_markers(sentence: str, config: MarkerConfig, *, doc_id: str = "", lang: str = "") -> AnnotatedText:
    """Sample spans onto a sentence; the text itself is never modified.

    Tags are assigned a, b, ... in opening order and spans carry no
    semantic labels. Output is deterministic for a fixed (sentence, config).
    """
    tmap = tokenize_boundaries(sentence)
    n = len(tmap.tokens)
    rng = random.Random(config.seed)

    if config.mode is InsertionMode.SINGLE:
        if n == 0:
            raise NoTokensError(f"document {doc_id!r}: single mode needs at least one token")
        spans = [_sample_single(tmap, n, rng, config)]
    else:
        spans = _sample_walk(tmap, n, rng, config)
    return AnnotatedText(id=doc_id, lang=lang, text=sentence, spans=tuple(spans))


def sample_corpus(lines: Iterable[TaggedText], config: MarkerConfig, lang: str) -> Iterator[AnnotatedText]:
    """``insert_markers`` on each non-blank line, yielded in order, seeded by ``derive_seed(config.seed, line.id)``."""
    return (
        insert_markers(line.tagged, config._replace(seed=derive_seed(config.seed, line.id)), doc_id=line.id, lang=lang)
        for line in lines
        if line.tagged.strip()
    )


def _sample_single(tmap: TokenBoundaryMap, n: int, rng: random.Random, config: MarkerConfig) -> Span:
    # Growing the length until the first "stop" draw realizes the geometric
    # law; capping mid-walk at n is equivalent to sampling then clamping.
    grow_p = (1.0 - config.p_close) if config.sequential_lengths else config.p_close
    length = 1
    while length < n and rng.random() < grow_p:
        length += 1
    start = rng.randrange(n - length + 1)
    return Span(tag_name(0), tmap.char_start(start), tmap.char_end(start + length))


def _sample_walk(tmap: TokenBoundaryMap, n: int, rng: random.Random, config: MarkerConfig) -> list[Span]:
    simple = config.mode is InsertionMode.SIMPLE
    open_spans: list[tuple[int, int]] = []  # (open boundary, tag index), opening order
    closed: list[tuple[int, int, int]] = []  # (tag index, open boundary, close boundary)
    next_tag = 0
    for boundary in range(n):
        still_open: list[tuple[int, int]] = []
        for opened_at, tag_i in open_spans:
            if opened_at < boundary and rng.random() < config.p_close:
                closed.append((tag_i, opened_at, boundary))
            else:
                still_open.append((opened_at, tag_i))
        open_spans = still_open
        if simple and open_spans:
            continue
        if rng.random() < config.p_open:
            open_spans.append((boundary, next_tag))
            next_tag += 1
    # Whatever is still open closes at the final boundary unconditionally.
    for opened_at, tag_i in open_spans:
        closed.append((tag_i, opened_at, n))
    closed.sort()
    return [
        Span(tag_name(tag_i), tmap.char_start(opened_at), tmap.char_end(closed_at))
        for tag_i, opened_at, closed_at in closed
    ]
