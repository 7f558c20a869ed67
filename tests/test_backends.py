from __future__ import annotations

import json
import socket
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from labelproj import (
    AlignmentError,
    BackendError,
    BackendUnreachableError,
    ConstantScorer,
    EmptyInputError,
    HttpScorerBackend,
    HttpTranslationBackend,
    IdentityBackend,
    TagDropperBackend,
    TagShufflerBackend,
    TaggedText,
    decode,
    signature,
)


def tt(doc_id: str, tagged: str) -> TaggedText:
    return TaggedText(doc_id, "en", tagged)


TEXTS = [tt("1", "<a>John</a> here"), tt("2", "plain"), tt("3", "<a>x</a> <b>y</b>")]


# ------------------------------------------------------------------- mocks

def test_identity_returns_inputs_verbatim():
    assert IdentityBackend().translate_batch(TEXTS, "en", "de") == TEXTS


def test_backends_reject_empty_and_same_language():
    with pytest.raises(EmptyInputError):
        IdentityBackend().translate_batch([], "en", "de")
    with pytest.raises(ValueError):
        IdentityBackend().translate_batch(TEXTS, "en", "en")


def test_dropper_q1_removes_every_pair():
    out = TagDropperBackend(q=1.0).translate_batch([tt("1", "<a>x</a> y")], "en", "de")
    assert out[0].tagged == "x y"


def test_dropper_q0_is_identity():
    out = TagDropperBackend(q=0.0).translate_batch(TEXTS, "en", "de")
    assert [t.tagged for t in out] == [t.tagged for t in TEXTS]


def test_dropper_keeps_nested_content():
    out = TagDropperBackend(q=1.0).translate_batch([tt("1", "<a>x <b>y</b> z</a>")], "en", "de")
    assert out[0].tagged == "x y z"


def test_dropper_deterministic_and_seed_sensitive():
    texts = [tt(str(i), "<a>x</a> <b>y</b> <c>z</c>") for i in range(40)]
    first = TagDropperBackend(q=0.5, seed=1).translate_batch(texts, "en", "de")
    again = TagDropperBackend(q=0.5, seed=1).translate_batch(texts, "en", "de")
    other = TagDropperBackend(q=0.5, seed=2).translate_batch(texts, "en", "de")
    assert first == again
    assert first != other


def test_dropper_validates_probability():
    with pytest.raises(ValueError):
        TagDropperBackend(q=1.5)


def test_shuffler_preserves_signature_and_decodability():
    texts = [tt(str(i), "<a>one</a> mid <b>two</b> end <c>three</c>") for i in range(20)]
    out = TagShufflerBackend(seed=3).translate_batch(texts, "en", "de")
    moved = 0
    for before, after in zip(texts, out):
        assert signature(before) == signature(after)
        doc, diags = decode(after)
        assert diags == []
        assert sorted(s.tag for s in doc.spans) == ["a", "b", "c"]
        assert {doc.span_text(s) for s in doc.spans} == {"one", "two", "three"}
        moved += before.tagged != after.tagged
    assert moved > 0  # with 20 sentences some permutation must be non-trivial


def test_shuffler_keeps_overlapping_block_intact():
    text = tt("1", "<a>x <b>y</a> z</b> tail <c>solo</c>")
    out = TagShufflerBackend(seed=1).translate_batch([text], "en", "de")[0]
    assert signature(text) == signature(out)
    doc, diags = decode(out)
    assert diags == []
    assert len(doc.spans) == 3


def test_constant_scorer():
    assert ConstantScorer(85).score_batch([("a", "b", None)] * 3) == [85, 85, 85]
    with pytest.raises(EmptyInputError):
        ConstantScorer(85).score_batch([])
    with pytest.raises(ValueError):
        ConstantScorer(float("nan"))


# -------------------------------------------------------------- HTTP layer

class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 (stdlib naming)
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        status, payload = self.server.behavior(self.path, body, dict(self.headers))
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@contextmanager
def http_server(behavior):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.behavior = behavior
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()


def test_http_translate_wire_format_and_result():
    seen = []

    def behavior(path, body, headers):
        seen.append((path, body, headers.get("Authorization")))
        return 200, {"translations": [t.upper() for t in body["texts"]]}

    with http_server(behavior) as url:
        backend = HttpTranslationBackend(url, batch_size=2, bearer_token="sekrit")
        out = backend.translate_batch(TEXTS, "en", "de")

    assert [t.tagged for t in out] == ["<A>JOHN</A> HERE", "PLAIN", "<A>X</A> <B>Y</B>"]
    assert [t.id for t in out] == ["1", "2", "3"]
    assert all(t.lang == "de" for t in out)
    # Both chunks are in flight at once, so they may arrive in either order.
    assert len(seen) == 2  # two chunks of batch_size 2
    assert all(path == "/translate" and auth == "Bearer sekrit" for path, _, auth in seen)
    bodies = sorted((body for _, body, _ in seen), key=lambda body: body["texts"])
    assert bodies == [
        {"src_lang": "en", "tgt_lang": "de", "texts": ["<a>John</a> here", "plain"]},
        {"src_lang": "en", "tgt_lang": "de", "texts": ["<a>x</a> <b>y</b>"]},
    ]


def test_http_translate_order_preserved_under_concurrency():
    lock = threading.Lock()

    def behavior(path, body, headers):
        # Later chunks answer faster, so completion order inverts send order.
        with lock:
            delay = 0.05 if body["texts"][0].endswith("0") else 0.0
        time.sleep(delay)
        return 200, {"translations": [f"out:{t}" for t in body["texts"]]}

    texts = [tt(str(i), f"text{i}") for i in range(12)]
    with http_server(behavior) as url:
        backend = HttpTranslationBackend(url, batch_size=1, max_in_flight=6)
        out = backend.translate_batch(texts, "en", "de")
    assert [t.tagged for t in out] == [f"out:text{i}" for i in range(12)]


def test_http_retries_on_500_then_succeeds():
    calls = []

    def behavior(path, body, headers):
        calls.append(1)
        if len(calls) < 3:
            return 503, {"error": "warming up"}
        return 200, {"translations": body["texts"]}

    with http_server(behavior) as url:
        backend = HttpTranslationBackend(url, max_retries=3, backoff_base=0.01)
        out = backend.translate_batch([tt("1", "x")], "en", "de")
    assert len(calls) == 3
    assert out[0].tagged == "x"


def test_http_4xx_is_terminal_without_retry():
    calls = []

    def behavior(path, body, headers):
        calls.append(1)
        return 400, {"error": "bad request"}

    with http_server(behavior) as url:
        backend = HttpTranslationBackend(url, max_retries=3, backoff_base=0.01)
        with pytest.raises(BackendError) as excinfo:
            backend.translate_batch([tt("1", "x")], "en", "de")
    assert len(calls) == 1
    assert excinfo.value.status == 400


def test_http_count_mismatch_is_alignment_error():
    def behavior(path, body, headers):
        return 200, {"translations": ["only one"]}

    with http_server(behavior) as url:
        backend = HttpTranslationBackend(url)
        with pytest.raises(AlignmentError):
            backend.translate_batch([tt("1", "x"), tt("2", "y")], "en", "de")


def test_http_non_object_body_is_backend_error():
    def behavior(path, body, headers):
        return 200, ["x"]

    with http_server(behavior) as url:
        with pytest.raises(BackendError):
            HttpTranslationBackend(url).translate_batch([tt("1", "x")], "en", "de")


def test_http_non_string_translation_is_backend_error():
    def behavior(path, body, headers):
        return 200, {"translations": [None]}

    with http_server(behavior) as url:
        with pytest.raises(BackendError):
            HttpTranslationBackend(url).translate_batch([tt("1", "x")], "en", "de")


def test_http_unreachable_backend():
    backend = HttpTranslationBackend("http://127.0.0.1:1", max_retries=1, backoff_base=0.01, timeout=0.3)
    with pytest.raises(BackendUnreachableError):
        backend.translate_batch([tt("1", "x")], "en", "de")


def test_http_scorer_wire_format():
    def behavior(path, body, headers):
        assert path == "/score"
        return 200, {"scores": [82.5 for _ in body["pairs"]]}

    with http_server(behavior) as url:
        scorer = HttpScorerBackend(url)
        scores = scorer.score_batch([("s", "h", None), ("s2", "h2", "r2")])
    assert scores == [82.5, 82.5]


def test_http_scorer_count_mismatch():
    def behavior(path, body, headers):
        return 200, {"scores": [1.0]}

    with http_server(behavior) as url:
        with pytest.raises(AlignmentError):
            HttpScorerBackend(url).score_batch([("a", "b", None), ("c", "d", None)])


@pytest.mark.parametrize("bad", [None, True, "85", float("nan"), float("inf"), 10**400])
def test_http_scorer_rejects_non_finite_or_non_numeric_score(bad):
    def behavior(path, body, headers):
        return 200, {"scores": [90.0, bad]}

    with http_server(behavior) as url:
        with pytest.raises(BackendError):
            HttpScorerBackend(url).score_batch([("a", "b", None), ("c", "d", None)])


# ------------------------------------------------- raw socket boundary

@contextmanager
def raw_server(reply: bytes | None):
    """Answer every request with the literal bytes ``reply`` and close, or
    stall without answering when ``reply`` is None. Yields (url, calls)."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.1)
    calls: list[bytes] = []
    done = threading.Event()

    def serve(conn: socket.socket) -> None:
        conn.settimeout(10)
        with conn, conn.makefile("rb") as stream:
            length = 0
            while (line := stream.readline()) not in (b"\r\n", b""):
                name, _, value = line.partition(b":")
                if name.lower() == b"content-length":
                    length = int(value)
            calls.append(stream.read(length))
            if reply is None:
                done.wait(10)
            else:
                conn.sendall(reply)

    def accept_loop() -> None:
        while not done.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            threading.Thread(target=serve, args=(conn,), daemon=True).start()

    thread = threading.Thread(target=accept_loop, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}", calls
    finally:
        done.set()
        thread.join(timeout=5)
        listener.close()
        assert not thread.is_alive()


def http_reply(status: str, body: bytes, length: int | None = None) -> bytes:
    size = len(body) if length is None else length
    return (
        f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {size}\r\nConnection: close\r\n\r\n"
    ).encode("ascii") + body


def test_http_stalled_server_is_unreachable():
    with raw_server(None) as (url, calls):
        backend = HttpTranslationBackend(url, max_retries=1, backoff_base=0.01, timeout=0.3)
        with pytest.raises(BackendUnreachableError):
            backend.translate_batch([tt("1", "x")], "en", "de")
    assert len(calls) == 2


def test_http_truncated_body_is_retried_then_unreachable():
    # The partial body is itself valid JSON: only the length check can catch it.
    body = b'{"translations": ["x"]}'
    with raw_server(http_reply("200 OK", body, length=len(body) + 50)) as (url, calls):
        backend = HttpTranslationBackend(url, max_retries=2, backoff_base=0.01, timeout=5)
        with pytest.raises(BackendUnreachableError):
            backend.translate_batch([tt("1", "x")], "en", "de")
    assert len(calls) == 3


def test_http_non_json_200_is_sent_once():
    with raw_server(http_reply("200 OK", b"<html>not json</html>")) as (url, calls):
        backend = HttpTranslationBackend(url, max_retries=3, backoff_base=0.01, timeout=5)
        with pytest.raises(BackendError) as excinfo:
            backend.translate_batch([tt("1", "x")], "en", "de")
    assert excinfo.value.status == 200
    assert len(calls) == 1
    assert json.loads(calls[0]) == {"src_lang": "en", "tgt_lang": "de", "texts": ["x"]}


def test_http_400_message_carries_the_body():
    with raw_server(http_reply("400 Bad Request", b'{"error": "texts must be a list"}')) as (url, calls):
        backend = HttpTranslationBackend(url, max_retries=3, backoff_base=0.01, timeout=5)
        with pytest.raises(BackendError, match="texts must be a list") as excinfo:
            backend.translate_batch([tt("1", "x")], "en", "de")
    assert excinfo.value.status == 400
    assert len(calls) == 1
