"""Translation and quality-scoring backends.

The HTTP clients speak a minimal model-agnostic wire protocol so any
translation server (a fine-tuned NMT model, an LLM, a stub) can serve the
pipeline:

* ``POST {endpoint}/translate`` with ``{"src_lang": str, "tgt_lang": str,
  "texts": [str]}`` returning ``{"translations": [str]}``.
* ``POST {endpoint}/score`` with ``{"pairs": [{"src": str, "hyp": str,
  "ref": str|null}]}`` returning ``{"scores": [number]}``.

Both are UTF-8 JSON over a small HTTP/1.1 client on ``socket``, which reads a
body by ``Content-Length``, in chunks, or up to the close. A translation batch
keeps one connection alive per in-flight slot until it returns, or its backend's
``with`` block ends; a score batch sends chunks of 32 pairs over one connection.
No redirect is followed. Only https loads ``ssl``, to verify against the system
CA store (``SSL_CERT_FILE``). Proxies come from ``http_proxy``/``https_proxy``/
``no_proxy``. The deterministic local backends (identity, tag shuffler, tag
dropper) are part of the shipped toolkit, not test-only code: they make every
pipeline runnable with no model at all.
"""

from __future__ import annotations

import abc
import json
import os
import random
import sys
import time
from contextlib import suppress
from typing import Sequence

from .codec import MarkerScheme, MarkerToken, _strip, scan_markers
from .dataio import parse_json
from .errors import AlignmentError, BackendError, BackendUnreachableError, EmptyInputError
from .model import TaggedText
from .synth import derive_seed


# Texts per translation request by default, and pairs per score request.
_BATCH_SIZE = 32
# The most translation requests in flight at once, each with its own connection and thread.
MAX_IN_FLIGHT = 64
# The seconds an HTTP connection may take to connect, and to send or read each piece of data.
_TIMEOUT = 30.0
# Retries after a request's first attempt: the first waits _BACKOFF_BASE seconds, and each later one twice as long.
_MAX_RETRIES = 3
_BACKOFF_BASE = 0.5


class TranslationBackend(abc.ABC):
    """Order-preserving batch translator: ``translate_batch``'s output[i] is input[i] translated, with its id, in
    ``tgt_lang``; no input gives no output. A backend implements only ``_translate``, one tagged string per input in
    order. ``start`` is ``texts[0]``'s position in the run. In a ``with`` block, a backend may keep what its batches
    open."""

    def translate_batch(
        self, texts: Sequence[TaggedText], src_lang: str, tgt_lang: str, start: int = 0
    ) -> list[TaggedText]:
        if src_lang == tgt_lang:
            raise ValueError(f"source and target language are both {src_lang!r}")
        answer = self._translate(texts, src_lang, tgt_lang, start)
        if len(answer) != len(texts):
            raise AlignmentError(f"{len(answer)} translations returned for {len(texts)} texts")
        return [TaggedText(text.id, tgt_lang, tagged) for text, tagged in zip(texts, answer)]

    @abc.abstractmethod
    def _translate(self, texts: Sequence[TaggedText], src_lang: str, tgt_lang: str, start: int) -> list[str]: ...

    def __enter__(self) -> TranslationBackend:
        return self

    def __exit__(self, *exc) -> None:
        pass


class IdentityBackend(TranslationBackend):
    """Returns its inputs' texts verbatim; the no-model reference backend."""

    def _translate(self, texts: Sequence[TaggedText], src_lang: str, tgt_lang: str, start: int) -> list[str]:
        return [text.tagged for text in texts]


_Pair = tuple[int, MarkerToken, MarkerToken]  # (rank, open, close), as ``scan_markers`` pairs them


class _SeededMarkerBackend(TranslationBackend):
    """Rewrites the marker pairs of ``scheme`` in each tagged string, drawing from
    a generator seeded by ``seed``, the text's position in the run and its id."""

    def __init__(self, seed: int = 0, scheme: MarkerScheme = MarkerScheme.XML):
        self.seed = seed
        self.scheme = scheme

    @abc.abstractmethod
    def _rewrite(self, tagged: str, pairs: list[_Pair], rng: random.Random) -> str: ...

    def _translate(self, texts: Sequence[TaggedText], src_lang: str, tgt_lang: str, start: int) -> list[str]:
        out = []
        for i, text in enumerate(texts, start):
            rng = random.Random(derive_seed(self.seed, f"{i}:{text.id}"))
            out.append(self._rewrite(text.tagged, scan_markers(text.tagged, self.scheme).pairs, rng))
        return out


class TagShufflerBackend(_SeededMarkerBackend):
    """Permutes whole tagged segments within each sentence.

    A segment is a maximal region covered by marker pairs (overlapping or
    nested pair regions merge into one block), so pairs always stay intact
    and the marker signature never changes.
    """

    def _rewrite(self, tagged: str, pairs: list[_Pair], rng: random.Random) -> str:
        if len(pairs) < 2:
            return tagged
        regions = [(open_t.start, close_t.end) for _, open_t, close_t in pairs]  # in opening order
        blocks: list[list[int]] = []
        for start, end in regions:
            if blocks and start < blocks[-1][1]:
                blocks[-1][1] = max(blocks[-1][1], end)
            else:
                blocks.append([start, end])
        if len(blocks) < 2:
            return tagged
        segments = [tagged[s:e] for s, e in blocks]
        rng.shuffle(segments)
        pieces: list[str] = []
        cursor = 0
        for (start, end), segment in zip(blocks, segments):
            pieces.append(tagged[cursor:start])
            pieces.append(segment)
            cursor = end
        pieces.append(tagged[cursor:])
        return "".join(pieces)


class TagDropperBackend(_SeededMarkerBackend):
    """Removes each marker pair independently with probability q."""

    def __init__(self, q: float, seed: int = 0, scheme: MarkerScheme = MarkerScheme.XML):
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"drop probability must be in [0, 1], got {q}")
        super().__init__(seed, scheme)
        self.q = q

    def _rewrite(self, tagged: str, pairs: list[_Pair], rng: random.Random) -> str:
        # One draw per pair, in opening order: seeded outputs depend on it.
        doomed = sorted((t for _, o, c in pairs if rng.random() < self.q for t in (o, c)), key=lambda t: t.start)
        return _strip(tagged, doomed)


def _hostport(netloc: str, default: int) -> tuple[str, int]:
    """``host[:port]`` split as ``http.client`` splits it, IPv6 brackets off; no port or an empty one is ``default``."""
    host, colon, port = netloc.rpartition(":")
    if not colon or "]" in port:  # no port, or the last colon is inside an IPv6 address
        host, port = netloc, ""
    if port and not (port.isdecimal() and int(port) < 65536):
        raise ValueError(f"invalid port in {netloc!r}")
    return host[1:-1] if host[:1] == "[" and host[-1:] == "]" else host, int(port) if port else default


def _read_line(stream) -> str:
    """The next line of a response, stripped; an unended or overlong line is a transport error."""
    line = stream.readline(65537)  # one byte over ``http.client``'s longest line
    if not line.endswith(b"\n"):
        raise ConnectionError(f"response truncated, or a line too long: {line[:80]!r}")
    return line.decode("latin-1").strip()


def _read_head(stream) -> tuple[str, int, dict[str, str]]:
    """The version, status and header fields (names in lower case) of the next final response."""
    status = "100"
    while status < "200":  # a 1xx (three digits, so compared as text) is interim: the final response follows
        line = _read_line(stream)
        version, status, *_ = line.split(None, 2) + [""]
        if not (version.startswith("HTTP/") and status.isdecimal() and len(status) == 3 and status[0] != "0"):
            raise ConnectionError(f"malformed status line {line[:80]!r}")
        headers = {}
        while line := _read_line(stream):
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    return version, int(status), headers


def _read_exactly(stream, size: int) -> bytes:
    """``size`` bytes, read in steps so that a huge claimed size reserves no memory."""
    parts = []
    while size > 0 and (part := stream.read(min(size, 1 << 20))):
        parts.append(part)
        size -= len(part)
    if size > 0:
        raise ConnectionError(f"response truncated: {size} more bytes expected")
    return b"".join(parts)


def _read_body(stream, headers: dict[str, str]) -> bytes | None:
    """A body by its ``Content-Length`` or in chunks (a bad length raises ``ValueError``); None if a close ends it."""
    if headers.get("transfer-encoding", "").lower() == "chunked":
        parts = []
        while (size := int(_read_line(stream).partition(";")[0], 16)) > 0:
            parts.append(_read_exactly(stream, size + 2)[:-2])  # each chunk ends with CRLF
        while _read_line(stream):  # trailer fields
            pass
        return b"".join(parts)
    length = headers.get("content-length")
    return None if length is None else _read_exactly(stream, int(length))


class _Connection:
    """An HTTP/1.1 connection's socket and buffered reader, None until it opens and after it closes."""

    sock = stream = None

    def close(self) -> None:
        for part in (self.stream, self.sock):
            if part is not None:
                part.close()
        self.sock = self.stream = None


class _HttpJsonClient:
    """POSTs JSON over HTTP/1.1 connections that stay open between requests.

    The route is fixed once: the address, any CONNECT tunnel and TLS context,
    and each request's target prefix and header lines, through the proxy that
    ``http_proxy``/``https_proxy`` names for the endpoint unless ``no_proxy``
    lists it. Transport errors (a malformed or truncated response among them)
    and 5xx back off exponentially; a transport error also closes the
    connection, so the next attempt opens a fresh one. A 3xx is terminal (a
    redirect is never followed), 4xx is terminal so a malformed payload is
    never re-sent, and so is a TLS certificate that fails verification.
    """

    def __init__(self, endpoint: str, bearer_token: str | None):
        from urllib.parse import unquote

        self.endpoint = endpoint.rstrip("/")
        if {"\r", "\n"} & set(self.endpoint + (bearer_token or "")):
            raise ValueError("a line break in the endpoint or the bearer token")
        scheme, _, rest = self.endpoint.partition("://")
        netloc, slash, path = rest.partition("/")
        tls = scheme == "https"
        host, port = self._address = _hostport(unquote(netloc), 443 if tls else 80)
        authority = f"[{host}]" if ":" in host else host
        host_field = authority if port == (443 if tls else 80) else f"{authority}:{port}"
        self._target, self._tunnel = slash + path, None
        header = "Accept-Encoding: identity\r\nContent-Type: application/json\r\n"
        if bearer_token:
            header += f"Authorization: Bearer {bearer_token}\r\n"
        proxy = None
        # Outside macOS and Windows, urllib reads proxies from *_proxy variables
        # alone, so with none set it need not be loaded.
        proxy_variables = any(v and k.lower().endswith("_proxy") for k, v in os.environ.items())
        if proxy_variables or sys.platform in ("darwin", "win32"):
            import urllib.request

            proxy = urllib.request.getproxies().get(scheme)
            if proxy and urllib.request.proxy_bypass(unquote(netloc)):
                proxy = None
        if proxy:
            proxy_scheme, _, proxy_authority = proxy.rpartition("://")
            userinfo, _, proxy_host = proxy_authority.split("/", 1)[0].rpartition("@")
            user, _, password = userinfo.partition(":")
            auth = ""
            if user and password:
                from base64 import b64encode

                credentials = b64encode(f"{unquote(user)}:{unquote(password)}".encode()).decode("ascii")
                auth = f"Proxy-Authorization: Basic {credentials}\r\n"
            if tls:  # CONNECT through the proxy, then TLS with the endpoint itself
                self._tunnel = f"CONNECT {authority}:{port} HTTP/1.0\r\n{auth}\r\n".encode("latin-1")
            else:  # the whole URL goes to the proxy, which may itself speak TLS
                self._target, tls, host_field = self.endpoint, proxy_scheme == "https", netloc
                header += auth
            self._address = _hostport(unquote(proxy_host), 443 if tls else 80)
        self._server_hostname = host if self._tunnel else self._address[0]
        self._header = f"Host: {host_field if host_field.isascii() else host_field.encode('idna').decode()}\r\n{header}"
        self._tls, self._cert_error = None, ()  # ``except ()`` catches nothing
        if tls:
            import ssl

            self._tls, self._cert_error = ssl.create_default_context(), ssl.SSLCertVerificationError

    def _exchange(self, connection: _Connection, request: bytes) -> tuple[int, str | None, bytes]:
        """Send ``request`` whole on ``connection``; return its response's status, ``Location`` and body."""
        import socket

        if connection.sock is None:
            connection.sock = socket.create_connection(self._address, _TIMEOUT)
            connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tunnel:
                connection.sock.sendall(self._tunnel)
                connection.stream = connection.sock.makefile("rb")  # the proxy sends no more before TLS starts
                if (status := _read_head(connection.stream)[1]) != 200:
                    raise ConnectionError(f"Tunnel connection failed: {status}")
            if self._tls:
                connection.sock = self._tls.wrap_socket(connection.sock, server_hostname=self._server_hostname)
            connection.stream = connection.sock.makefile("rb")
        connection.sock.sendall(request)
        # Linux only. A server that leaves Nagle's algorithm on and sends a
        # response's headers and body apart holds the body back until the
        # headers are ACKed, which a kept-alive connection delays by about
        # 40 ms. The kernel clears the option again, so it is set per request.
        quick_ack = getattr(socket, "TCP_QUICKACK", None)
        if quick_ack is not None:
            with suppress(OSError):  # a failure brings back only the stall; under TLS it is set on the TCP socket
                connection.sock.setsockopt(socket.IPPROTO_TCP, quick_ack, 1)
        version, status, headers = _read_head(connection.stream)
        body = b"" if status in (204, 304) else _read_body(connection.stream, headers)
        if body is None or version != "HTTP/1.1" or "close" in headers.get("connection", "").lower():
            body = connection.stream.read() if body is None else body  # the server's close ends it
            connection.close()
        return status, headers.get("location"), body

    def post(self, connection: _Connection, path: str, payload: dict) -> tuple[int, dict]:
        """Send on ``connection``, which one thread uses at a time, and return
        the status and the JSON object of the first non-error response."""
        url = f"{self.endpoint}{path}"
        data = json.dumps(payload).encode("utf-8")
        head = f"POST {self._target}{path} HTTP/1.1\r\n{self._header}Content-Length: {len(data)}\r\n\r\n"
        request = head.encode("latin-1") + data
        last_error: str | None = None
        for attempt in range(_MAX_RETRIES + 1):
            if attempt:
                time.sleep(_BACKOFF_BASE * (2 ** (attempt - 1)))
            try:
                status, location, raw = self._exchange(connection, request)
            except self._cert_error as exc:
                raise BackendUnreachableError(f"{url}: not retried: {exc}") from exc
            except (OSError, ValueError) as exc:  # ValueError: a length in the response is not a number
                connection.close()
                last_error = str(exc)
                continue
            if status >= 500:
                last_error = f"HTTP {status}"
                continue
            if status >= 400:
                raise BackendError(status, raw.decode("utf-8", "replace")[:200])
            if status >= 300:
                raise BackendError(status, f"redirect to {location} not followed; give the endpoint's final URL")
            try:
                body = parse_json(raw.decode("utf-8"))
            except ValueError as exc:
                raise BackendError(status, f"unparseable body: {exc}")
            if not isinstance(body, dict):
                raise BackendError(status, f"body is a JSON {type(body).__name__}, not an object")
            return status, body
        raise BackendUnreachableError(f"{url}: giving up after {_MAX_RETRIES + 1} attempts ({last_error})")


class HttpTranslationBackend(TranslationBackend):
    """Batched HTTP client with bounded concurrency and order preservation.

    Requests go out in chunks of ``batch_size`` with at most
    ``max_in_flight`` concurrent requests, each slot a worker thread with its
    own kept-alive connection, which serve every batch of a ``with`` block;
    responses are reassembled in input order regardless of completion order.
    Once a chunk fails, no further chunk of its batch is sent.
    """

    def __init__(
        self, endpoint: str, *, batch_size: int = _BATCH_SIZE, max_in_flight: int = 4, bearer_token: str | None = None
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 1 <= max_in_flight <= MAX_IN_FLIGHT:
            raise ValueError(f"max_in_flight must be in [1, {MAX_IN_FLIGHT}]")
        self.batch_size = batch_size
        self.max_in_flight = max_in_flight
        self._client = _HttpJsonClient(endpoint, bearer_token)
        self._tasks = None  # the workers' queue, inside a with block

    def __enter__(self) -> HttpTranslationBackend:
        import queue

        self._tasks, self._workers = queue.SimpleQueue(), []
        return self

    def __exit__(self, *exc) -> None:
        for _ in self._workers:
            self._tasks.put(None)
        for worker in self._workers:
            worker.join()
        self._tasks = None

    def _work(self) -> None:
        """One slot: translate chunks from the queue on one kept-alive connection, skipping those of a failed batch."""
        connection = _Connection()
        while (task := self._tasks.get()) is not None:
            i, chunk, languages, stop, done = task
            try:
                done.put((i, None if stop.is_set() else self._translate_chunk(connection, chunk, *languages)))
            except BaseException as exc:  # handed back, to be raised in the caller's thread
                stop.set()
                done.put((i, exc))
        connection.close()

    def _translate_chunk(self, connection, chunk: Sequence[TaggedText], src_lang: str, tgt_lang: str) -> list[str]:
        payload = {
            "src_lang": src_lang,
            "tgt_lang": tgt_lang,
            "texts": [t.tagged for t in chunk],
        }
        status, body = self._client.post(connection, "/translate", payload)
        translations = body.get("translations")
        if not isinstance(translations, list) or len(translations) != len(chunk):
            got = len(translations) if isinstance(translations, list) else "no"
            raise AlignmentError(f"{got} translations returned for {len(chunk)} texts")
        for t in translations:
            if not isinstance(t, str):
                raise BackendError(status, f"translation {t!r} is not a string")
        return translations

    def _translate(self, texts: Sequence[TaggedText], src_lang: str, tgt_lang: str, start: int) -> list[str]:
        if self._tasks is None:
            with self:
                return self._translate(texts, src_lang, tgt_lang, start)
        chunks = [texts[i : i + self.batch_size] for i in range(0, len(texts), self.batch_size)]
        import queue
        import threading

        while len(self._workers) < min(self.max_in_flight, len(chunks)):
            self._workers.append(threading.Thread(target=self._work))
            self._workers[-1].start()
        stop, done = threading.Event(), queue.SimpleQueue()
        for i, chunk in enumerate(chunks):
            self._tasks.put((i, chunk, (src_lang, tgt_lang), stop, done))
        results: list = [None] * len(chunks)
        try:
            for _ in chunks:
                i, results[i] = done.get()
        except BaseException:  # interrupted: send no further chunk; the with block waits out those in flight
            stop.set()
            raise
        for failure in results:
            if isinstance(failure, BaseException):
                raise failure  # the first failed chunk in input order, as a serial run would report
        return [translation for translations in results for translation in translations]


class ScorerBackend(abc.ABC):
    """Order-preserving batch scorer for (source, hypothesis, reference): ``score_batch``'s output[i] is pair i's
    finite score. A scorer implements only ``_score``, one number per pair in order."""

    def score_batch(self, pairs: Sequence[tuple[str, str, str | None]]) -> list[float]:
        if not pairs:
            raise EmptyInputError("score_batch requires at least one pair")
        scores = self._score(pairs)
        if len(scores) != len(pairs):
            raise AlignmentError(f"{len(scores)} scores returned for {len(pairs)} pairs")
        for score in scores:
            # A bool is an int but no score. The bounds also reject NaN, infinities and integers too large for a float.
            real = isinstance(score, (int, float)) and not isinstance(score, bool)
            if not (real and -sys.float_info.max <= score <= sys.float_info.max):
                raise ValueError(f"score {score!r} is not a finite number")
        return scores

    @abc.abstractmethod
    def _score(self, pairs: Sequence[tuple[str, str, str | None]]) -> list[float]: ...


class ConstantScorer(ScorerBackend):
    def __init__(self, value: float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError("constant score must be finite")
        self.value = float(value)

    def _score(self, pairs: Sequence[tuple[str, str, str | None]]) -> list[float]:
        return [self.value] * len(pairs)


class HttpScorerBackend(ScorerBackend):
    def __init__(self, endpoint: str, *, bearer_token: str | None = None):
        self._client = _HttpJsonClient(endpoint, bearer_token)

    def _score(self, pairs: Sequence[tuple[str, str, str | None]]) -> list[float]:
        connection = _Connection()
        try:
            chunks = (pairs[i : i + _BATCH_SIZE] for i in range(0, len(pairs), _BATCH_SIZE))
            return [score for chunk in chunks for score in self._score_chunk(connection, chunk)]
        finally:
            connection.close()

    def _score_chunk(self, connection, chunk: Sequence[tuple[str, str, str | None]]) -> list[float]:
        payload = {"pairs": [{"src": src, "hyp": hyp, "ref": ref} for src, hyp, ref in chunk]}
        status, body = self._client.post(connection, "/score", payload)
        scores = body.get("scores")
        if not isinstance(scores, list) or len(scores) != len(chunk):
            got = len(scores) if isinstance(scores, list) else "no"
            raise AlignmentError(f"{got} scores returned for {len(chunk)} pairs")
        for s in scores:
            # type() excludes bool; the bounds also reject NaN, infinities and
            # integers too large for a float.
            if type(s) not in (int, float) or not -sys.float_info.max <= s <= sys.float_info.max:
                raise BackendError(status, f"score {s!r} is not a finite number")
        return [float(s) for s in scores]
