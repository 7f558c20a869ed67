"""Translation and quality-scoring backends.

The HTTP clients speak a minimal model-agnostic wire protocol so any
translation server (a fine-tuned NMT model, an LLM, a stub) can serve the
pipeline:

* ``POST {endpoint}/translate`` with ``{"src_lang": str, "tgt_lang": str,
  "texts": [str]}`` returning ``{"translations": [str]}``.
* ``POST {endpoint}/score`` with ``{"pairs": [{"src": str, "hyp": str,
  "ref": str|null}]}`` returning ``{"scores": [number]}``.

Both are UTF-8 JSON over the standard library's ``urllib.request``: HTTPS
verifies against the system CA store (``SSL_CERT_FILE``), and proxies come
from ``http_proxy``/``https_proxy``/``no_proxy``. The deterministic local
backends (identity, tag shuffler, tag dropper) are part of the shipped
toolkit, not test-only code: they make every pipeline runnable with no
model at all.
"""

from __future__ import annotations

import abc
import http.client
import json
import random
import sys
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from .codec import MarkerScheme, _strip, pair_markers, scan_markers
from .errors import AlignmentError, BackendError, BackendUnreachableError, EmptyInputError
from .model import TaggedText
from .synth import derive_seed


def _check_translate_inputs(texts: Sequence[TaggedText], src_lang: str, tgt_lang: str) -> None:
    if not texts:
        raise EmptyInputError("translate_batch requires at least one text")
    if src_lang == tgt_lang:
        raise ValueError(f"source and target language are both {src_lang!r}")


class TranslationBackend(abc.ABC):
    """Order-preserving batch translator: output[i] corresponds to input[i]."""

    @abc.abstractmethod
    def translate_batch(
        self, texts: Sequence[TaggedText], src_lang: str, tgt_lang: str
    ) -> list[TaggedText]: ...


class IdentityBackend(TranslationBackend):
    """Returns its inputs verbatim; the no-model reference backend."""

    def translate_batch(
        self, texts: Sequence[TaggedText], src_lang: str, tgt_lang: str
    ) -> list[TaggedText]:
        _check_translate_inputs(texts, src_lang, tgt_lang)
        return list(texts)


class TagShufflerBackend(TranslationBackend):
    """Permutes whole tagged segments within each sentence.

    A segment is a maximal region covered by marker pairs (overlapping or
    nested pair regions merge into one block), so pairs always stay intact
    and the marker signature never changes.
    """

    def __init__(self, seed: int = 0, scheme: MarkerScheme = MarkerScheme.XML):
        self.seed = seed
        self.scheme = scheme

    def _shuffle_one(self, text: TaggedText, rng: random.Random) -> TaggedText:
        raw = text.tagged
        tokens, _ = scan_markers(raw, self.scheme)
        pairs, _, _ = pair_markers(tokens)
        if len(pairs) < 2:
            return text
        regions = sorted((open_t.start, close_t.end) for open_t, close_t in pairs)
        blocks: list[list[int]] = []
        for start, end in regions:
            if blocks and start < blocks[-1][1]:
                blocks[-1][1] = max(blocks[-1][1], end)
            else:
                blocks.append([start, end])
        if len(blocks) < 2:
            return text
        segments = [raw[s:e] for s, e in blocks]
        rng.shuffle(segments)
        pieces: list[str] = []
        cursor = 0
        for (start, end), segment in zip(blocks, segments):
            pieces.append(raw[cursor:start])
            pieces.append(segment)
            cursor = end
        pieces.append(raw[cursor:])
        return TaggedText(text.id, text.lang, "".join(pieces))

    def translate_batch(
        self, texts: Sequence[TaggedText], src_lang: str, tgt_lang: str
    ) -> list[TaggedText]:
        _check_translate_inputs(texts, src_lang, tgt_lang)
        return [
            self._shuffle_one(text, random.Random(derive_seed(self.seed, f"{i}:{text.id}")))
            for i, text in enumerate(texts)
        ]


class TagDropperBackend(TranslationBackend):
    """Removes each marker pair independently with probability q."""

    def __init__(self, q: float, seed: int = 0, scheme: MarkerScheme = MarkerScheme.XML):
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"drop probability must be in [0, 1], got {q}")
        self.q = q
        self.seed = seed
        self.scheme = scheme

    def _drop_one(self, text: TaggedText, rng: random.Random) -> TaggedText:
        raw = text.tagged
        tokens, _ = scan_markers(raw, self.scheme)
        pairs, _, _ = pair_markers(tokens)
        # One draw per pair, in opening order: seeded outputs depend on it.
        doomed = sorted((t for pair in pairs if rng.random() < self.q for t in pair), key=lambda t: t.start)
        return TaggedText(text.id, text.lang, _strip(raw, doomed)) if doomed else text

    def translate_batch(
        self, texts: Sequence[TaggedText], src_lang: str, tgt_lang: str
    ) -> list[TaggedText]:
        _check_translate_inputs(texts, src_lang, tgt_lang)
        return [
            self._drop_one(text, random.Random(derive_seed(self.seed, f"{i}:{text.id}")))
            for i, text in enumerate(texts)
        ]


class _HttpJsonClient:
    """POSTs JSON with retries: transport errors and 5xx back off
    exponentially, 4xx is terminal so a malformed payload is never re-sent."""

    def __init__(
        self,
        endpoint: str,
        timeout: float,
        max_retries: int,
        bearer_token: str | None,
        backoff_base: float,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.timeout = timeout
        self.max_retries = max_retries
        self.bearer_token = bearer_token
        self.backoff_base = backoff_base

    def post(self, path: str, payload: dict) -> tuple[int, dict]:
        """Return the status and the JSON object of the first non-error response."""
        url = f"{self.endpoint}{path}"
        headers = {"Content-Type": "application/json"}
        if self.bearer_token:
            headers["Authorization"] = f"Bearer {self.bearer_token}"
        request = urllib.request.Request(url, json.dumps(payload).encode("utf-8"), headers, method="POST")
        last_error: str | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff_base * (2 ** (attempt - 1)))
            try:
                try:
                    response = urllib.request.urlopen(request, timeout=self.timeout)
                except urllib.error.HTTPError as exc:
                    response = exc  # an error status still carries a body to read
                with response:
                    status, data = response.status, response.read()
            except (OSError, http.client.HTTPException) as exc:
                last_error = str(exc)
                continue
            if status >= 500:
                last_error = f"HTTP {status}"
                continue
            if status >= 400:
                raise BackendError(status, data.decode("utf-8", "replace")[:200])
            try:
                body = json.loads(data)
            except ValueError as exc:
                raise BackendError(status, f"unparseable body: {exc}")
            if not isinstance(body, dict):
                raise BackendError(status, f"body is a JSON {type(body).__name__}, not an object")
            return status, body
        raise BackendUnreachableError(f"{url}: giving up after {self.max_retries + 1} attempts ({last_error})")


class HttpTranslationBackend(TranslationBackend):
    """Batched HTTP client with bounded concurrency and order preservation.

    Requests go out in chunks of ``batch_size`` with at most
    ``max_in_flight`` concurrent requests; responses are reassembled in
    input order regardless of completion order.
    """

    def __init__(
        self,
        endpoint: str,
        *,
        timeout: float = 30.0,
        max_retries: int = 3,
        batch_size: int = 32,
        max_in_flight: int = 4,
        bearer_token: str | None = None,
        backoff_base: float = 0.5,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.batch_size = batch_size
        self.max_in_flight = max_in_flight
        self._client = _HttpJsonClient(endpoint, timeout, max_retries, bearer_token, backoff_base)

    def _translate_chunk(self, chunk: Sequence[TaggedText], src_lang: str, tgt_lang: str) -> list[str]:
        payload = {
            "src_lang": src_lang,
            "tgt_lang": tgt_lang,
            "texts": [t.tagged for t in chunk],
        }
        status, body = self._client.post("/translate", payload)
        translations = body.get("translations")
        if not isinstance(translations, list) or len(translations) != len(chunk):
            got = len(translations) if isinstance(translations, list) else "no"
            raise AlignmentError(f"{got} translations returned for {len(chunk)} texts")
        for t in translations:
            if not isinstance(t, str):
                raise BackendError(status, f"translation {t!r} is not a string")
        return translations

    def translate_batch(
        self, texts: Sequence[TaggedText], src_lang: str, tgt_lang: str
    ) -> list[TaggedText]:
        _check_translate_inputs(texts, src_lang, tgt_lang)
        chunks = [texts[i : i + self.batch_size] for i in range(0, len(texts), self.batch_size)]
        with ThreadPoolExecutor(max_workers=self.max_in_flight) as pool:
            results = list(pool.map(lambda c: self._translate_chunk(c, src_lang, tgt_lang), chunks))
        out: list[TaggedText] = []
        for chunk, translations in zip(chunks, results):
            for text, translation in zip(chunk, translations):
                out.append(TaggedText(text.id, tgt_lang, translation))
        return out


class ScorerBackend(abc.ABC):
    """Order-preserving batch scorer for (source, hypothesis, reference)."""

    @abc.abstractmethod
    def score_batch(self, pairs: Sequence[tuple[str, str, str | None]]) -> list[float]: ...


class ConstantScorer(ScorerBackend):
    def __init__(self, value: float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError("constant score must be finite")
        self.value = float(value)

    def score_batch(self, pairs: Sequence[tuple[str, str, str | None]]) -> list[float]:
        if not pairs:
            raise EmptyInputError("score_batch requires at least one pair")
        return [self.value] * len(pairs)


class HttpScorerBackend(ScorerBackend):
    def __init__(
        self,
        endpoint: str,
        *,
        timeout: float = 30.0,
        max_retries: int = 3,
        bearer_token: str | None = None,
        backoff_base: float = 0.5,
    ):
        self._client = _HttpJsonClient(endpoint, timeout, max_retries, bearer_token, backoff_base)

    def score_batch(self, pairs: Sequence[tuple[str, str, str | None]]) -> list[float]:
        if not pairs:
            raise EmptyInputError("score_batch requires at least one pair")
        payload = {"pairs": [{"src": src, "hyp": hyp, "ref": ref} for src, hyp, ref in pairs]}
        status, body = self._client.post("/score", payload)
        scores = body.get("scores")
        if not isinstance(scores, list) or len(scores) != len(pairs):
            got = len(scores) if isinstance(scores, list) else "no"
            raise AlignmentError(f"{got} scores returned for {len(pairs)} pairs")
        for s in scores:
            # type() excludes bool; the bounds also reject NaN, infinities and
            # integers too large for a float.
            if type(s) not in (int, float) or not -sys.float_info.max <= s <= sys.float_info.max:
                raise BackendError(status, f"score {s!r} is not a finite number")
        return [float(s) for s in scores]
