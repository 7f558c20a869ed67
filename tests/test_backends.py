from __future__ import annotations

import _thread
import base64
import gc
import inspect
import json
import os
import re
import socket
import ssl
import subprocess
import sys
import threading
import time
import warnings
from contextlib import contextmanager, suppress
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest

import labelproj
from labelproj import backends, cli
from labelproj.backends import MAX_IN_FLIGHT, _hostport
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

from test_codec import _Answering


def tt(doc_id: str, tagged: str) -> TaggedText:
    return TaggedText(doc_id, "en", tagged)


TEXTS = [tt("1", "<a>John</a> here"), tt("2", "plain"), tt("3", "<a>x</a> <b>y</b>")]


# ------------------------------------------------------------------- mocks

def test_identity_returns_inputs_verbatim():
    assert IdentityBackend().translate_batch(TEXTS, "en", "de") == [t._replace(lang="de") for t in TEXTS]


# Every built-in translation backend, given the URL of a translation server.
BUILT_IN = [
    lambda url: IdentityBackend(),
    lambda url: TagShufflerBackend(),
    lambda url: TagDropperBackend(0.5),
    lambda url: HttpTranslationBackend(url, batch_size=2),
]


def _echo(requests: list):
    """A translation server's behavior: record each request's body and answer with its texts."""
    def behavior(path, body, headers):
        requests.append(body)
        return 200, {"translations": body["texts"]}

    return behavior


@pytest.mark.parametrize("make", BUILT_IN)
def test_backends_return_empty_for_empty_and_reject_same_language(make):
    requests = []
    with http_server(_echo(requests)) as url:
        assert make(url).translate_batch([], "en", "de") == []
        with pytest.raises(ValueError, match="^source and target language are both 'en'$"):
            make(url).translate_batch(TEXTS, "en", "en")
    assert requests == []


@pytest.mark.parametrize("make", [*BUILT_IN, lambda url: _Answering(lambda out: out[::-1])])
def test_backends_answer_with_each_input_id_in_order_in_the_target_language(make):
    texts = [tt(f"t{i}", f"<a>{i}</a> <b>x</b>") for i in range(5)]
    with http_server(_echo([])) as url:
        out = make(url).translate_batch(texts, "en", "de", 7)
    assert [(t.id, t.lang) for t in out] == [(t.id, "de") for t in texts]


def test_only_the_two_bases_define_the_batch_methods():
    # A backend implements _translate or _score; the base's batch method checks its answer and builds the output.
    definers = [name for name, cls in vars(backends).items()
                if isinstance(cls, type) and {"translate_batch", "score_batch"} & set(vars(cls))]
    assert sorted(definers) == ["ScorerBackend", "TranslationBackend"]


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
    def setup(self):
        super().setup()
        self.server.connections.append(("open", self.client_address))

    def finish(self):
        super().finish()
        self.server.connections.append(("closed", self.client_address))

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


class _KeepAliveHandler(_Handler):
    protocol_version = "HTTP/1.1"  # the connection stays open after each response


# A self-signed certificate for 127.0.0.1 and localhost, valid 2000-2100.
LOOPBACK_CERT = Path(__file__).with_name("loopback_cert.pem")


class _IPv6Server(ThreadingHTTPServer):
    address_family = socket.AF_INET6


@contextmanager
def http_server(behavior, tls=False, keep_alive=False, connections=None, ipv6=False):
    """Serve ``behavior`` over HTTP/1.0, or HTTP/1.1 with ``keep_alive``, on
    127.0.0.1, or on ::1 with ``ipv6``. Each connection appends ("open", client
    address) to ``connections`` when it is accepted and ("closed", client
    address) when the server is done with it."""
    kind, host = (_IPv6Server, "::1") if ipv6 else (ThreadingHTTPServer, "127.0.0.1")
    server = kind((host, 0), _KeepAliveHandler if keep_alive else _Handler)
    server.behavior = behavior
    server.connections = [] if connections is None else connections
    if tls:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(LOOPBACK_CERT, LOOPBACK_CERT.with_name("loopback_key.pem"))
        server.socket = context.wrap_socket(server.socket, server_side=True)
    # shutdown() waits up to one poll interval for serve_forever to notice.
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield f"{'https' if tls else 'http'}://{'[::1]' if ipv6 else '127.0.0.1'}:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def client_policy(monkeypatch):
    """Set the HTTP client's timeout, retry count and back-off base for one test; what is not given is unchanged."""
    def set_policy(timeout=None, max_retries=None, backoff_base=None) -> None:
        for name, value in (("_TIMEOUT", timeout), ("_MAX_RETRIES", max_retries), ("_BACKOFF_BASE", backoff_base)):
            if value is not None:
                monkeypatch.setattr(backends, name, value)

    return set_policy


def test_http_backends_take_only_what_a_command_passes(monkeypatch):
    # A keyword that no command passes would be a setting that nothing sets.
    passed = {}
    for cls in (HttpTranslationBackend, HttpScorerBackend):
        monkeypatch.setattr(cli, cls.__name__, lambda endpoint, cls=cls, **kwargs: passed.update({cls: list(kwargs)}))
    cli.make_backend("http://127.0.0.1:9", 0, 2, 3)
    cli.make_scorer("http://127.0.0.1:9")
    assert passed == {
        HttpTranslationBackend: ["batch_size", "max_in_flight", "bearer_token"], HttpScorerBackend: ["bearer_token"]
    }
    P, defaults = inspect.Parameter, {"batch_size": 32, "max_in_flight": 4, "bearer_token": None}
    for cls, keywords in passed.items():
        expected = [("endpoint", P.POSITIONAL_OR_KEYWORD, P.empty), *((k, P.KEYWORD_ONLY, defaults[k]) for k in keywords)]
        assert [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()] == expected


def test_http_translate_of_no_texts_sends_no_request():
    seen = []

    def behavior(path, body, headers):
        seen.append(path)
        return 200, {"translations": []}

    with http_server(behavior) as url:
        assert HttpTranslationBackend(url).translate_batch([], "en", "de") == []
    assert seen == []


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


@contextmanager
def no_unclosed_sockets():
    """Fail if a socket is left for the garbage collector to close."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def _wait_until_all_closed(connections: list) -> tuple[list, list]:
    """Wait up to 5 s for the server to see every connection close; return (opened, closed)."""
    deadline = time.monotonic() + 5
    while True:
        opened, closed = ([address for event, address in connections if event == kind] for kind in ("open", "closed"))
        if sorted(closed) == sorted(opened) or time.monotonic() > deadline:
            return opened, closed
        time.sleep(0.01)


@pytest.mark.parametrize("n_chunks, slots, delay", [(12, 3, 0.01), (120, 6, 0.0)])
def test_http_translate_keeps_one_connection_alive_per_slot(n_chunks, slots, delay, client_policy):
    def behavior(path, body, headers):
        time.sleep(delay)  # slow enough that every slot is used
        return 200, {"translations": [f"out:{t}" for t in body["texts"]]}

    connections: list = []
    texts = [tt(str(i), f"text{i}") for i in range(n_chunks)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more thread switches: two threads on one connection would break a request
    try:
        with http_server(behavior, keep_alive=True, connections=connections) as url:
            client_policy(timeout=10)
            backend = HttpTranslationBackend(url, batch_size=1, max_in_flight=slots)
            with no_unclosed_sockets():
                out = backend.translate_batch(texts, "en", "de")
            opened, closed = _wait_until_all_closed(connections)
    finally:
        sys.setswitchinterval(interval)
    assert [t.tagged for t in out] == [f"out:text{i}" for i in range(n_chunks)]
    assert 1 <= len(opened) <= slots  # one request per chunk
    assert sorted(closed) == sorted(opened)  # the batch closes its connections when it returns


def test_http_translate_closes_its_connections_when_a_chunk_fails():
    def behavior(path, body, headers):
        if body["texts"] == ["text5"]:
            return 400, {"error": "no"}
        return 200, {"translations": body["texts"]}

    connections: list = []
    texts = [tt(str(i), f"text{i}") for i in range(12)]
    with http_server(behavior, keep_alive=True, connections=connections) as url:
        with no_unclosed_sockets(), pytest.raises(BackendError):
            HttpTranslationBackend(url, batch_size=1, max_in_flight=3).translate_batch(texts, "en", "de")
        opened, closed = _wait_until_all_closed(connections)
    assert 1 <= len(opened) <= 3
    assert sorted(closed) == sorted(opened)


@pytest.mark.parametrize("fail", [False, True], ids=["clean", "failing-batch"])
def test_http_translate_keeps_its_slots_for_a_with_block_and_then_closes_them(fail, client_policy):
    def behavior(path, body, headers):
        if body["texts"] == ["text9"] and fail:
            return 400, {"error": "no"}
        return 200, {"translations": [f"out:{t}" for t in body["texts"]]}

    connections: list = []
    texts = [tt(str(i), f"text{i}") for i in range(12)]
    outs = []
    with http_server(behavior, keep_alive=True, connections=connections) as url:
        client_policy(timeout=10)
        backend = HttpTranslationBackend(url, batch_size=1, max_in_flight=3)
        with no_unclosed_sockets(), suppress(BackendError):
            with backend:
                for start in range(0, 12, 4):
                    outs += backend.translate_batch(texts[start : start + 4], "en", "de", start)
                    opened_before_exit = len([event for event, _ in connections if event == "open"])
        opened, closed = _wait_until_all_closed(connections)
    assert [t.tagged for t in outs] == [f"out:text{i}" for i in range(8 if fail else 12)]
    assert 1 <= opened_before_exit == len(opened) <= 3  # three batches, and no slot opened a second connection
    assert sorted(closed) == sorted(opened)  # leaving the block closes them, whether or not a batch failed


@pytest.mark.parametrize("slots", [1, 3])
def test_http_translate_sends_no_chunk_after_one_fails(slots):
    seen = []
    failed = threading.Event()

    def behavior(path, body, headers):
        text = body["texts"][0]
        seen.append(text)
        if text == "text3":
            failed.set()
            return 400, {"error": text}
        if int(text[4:]) > 3:  # answer only once the client has had the 400
            failed.wait(5)
            time.sleep(0.05)
        return 200, {"translations": body["texts"]}

    texts = [tt(str(i), f"text{i}") for i in range(40)]
    with http_server(behavior, keep_alive=True) as url:
        with pytest.raises(BackendError, match="text3"):
            HttpTranslationBackend(url, batch_size=1, max_in_flight=slots).translate_batch(texts, "en", "de")
    # Chunks 0-3 free a slot before the failure is known, so each slot may
    # hold one more chunk; none is taken after.
    assert sorted(seen, key=lambda t: int(t[4:])) == [f"text{i}" for i in range(len(seen))]
    assert 4 <= len(seen) <= 3 + slots


@pytest.mark.parametrize("slots", [1, 3])
def test_http_translate_interrupted_sends_no_further_chunk_and_waits_for_those_in_flight(slots, client_policy):
    seen, answered = [], []
    interrupted = threading.Event()

    def behavior(path, body, headers):
        text = body["texts"][0]
        seen.append(text)
        if text == "text0":
            time.sleep(0.05)  # the caller is waiting for results by now
            _thread.interrupt_main()
            interrupted.set()
        else:
            interrupted.wait(5)
            time.sleep(0.2)  # still in flight when the caller handles the interrupt
        answered.append(text)
        return 200, {"translations": body["texts"]}

    texts = [tt(str(i), f"text{i}") for i in range(40)]
    with http_server(behavior, keep_alive=True) as url:
        client_policy(timeout=10)
        backend = HttpTranslationBackend(url, batch_size=1, max_in_flight=slots)
        with pytest.raises(KeyboardInterrupt), backend:
            backend.translate_batch(texts, "en", "de")
        # The with block has waited for every chunk in flight, and each slot's thread has ended.
        assert sorted(answered) == sorted(seen)
        assert not any(worker.is_alive() for worker in backend._workers)
    # Each slot held one chunk when the interrupt came, and the slot that answered first may have taken one more
    # before the caller saw it; none is taken after.
    assert sorted(seen, key=lambda t: int(t[4:])) == [f"text{i}" for i in range(len(seen))]
    assert slots <= len(seen) <= slots + 1


LINE_BREAK = "a line break in the endpoint or the bearer token"


@pytest.mark.parametrize("make, message", [
    (lambda url: HttpTranslationBackend(url, batch_size=0), "batch_size must be >= 1"),
    (lambda url: HttpTranslationBackend(url, bearer_token="a\nb"), LINE_BREAK),
    (lambda url: HttpTranslationBackend(url + "/x\r\nX-Injected: 1"), LINE_BREAK),
    (lambda url: HttpScorerBackend(url, bearer_token="a\r"), LINE_BREAK),
    (lambda url: HttpScorerBackend(url + "\n"), LINE_BREAK),
], ids=["batch-size-0", "token-newline", "endpoint-crlf", "scorer-token-cr", "scorer-endpoint-newline"])
def test_http_backends_refuse_a_bad_setting_before_any_request(make, message):
    with pytest.raises(ValueError) as excinfo:
        make("http://127.0.0.1:9")
    assert str(excinfo.value) == message


def test_http_scorer_refuses_no_pairs_before_any_request():
    with pytest.raises(EmptyInputError, match="^score_batch requires at least one pair$"):
        HttpScorerBackend("http://127.0.0.1:9").score_batch([])


def test_http_retries_on_500_then_succeeds(client_policy):
    calls = []

    def behavior(path, body, headers):
        calls.append(1)
        if len(calls) < 3:
            return 503, {"error": "warming up"}
        return 200, {"translations": body["texts"]}

    with http_server(behavior) as url:
        client_policy(max_retries=3, backoff_base=0.01)
        backend = HttpTranslationBackend(url)
        out = backend.translate_batch([tt("1", "x")], "en", "de")
    assert len(calls) == 3
    assert out[0].tagged == "x"


def test_http_4xx_is_terminal_without_retry(client_policy):
    calls = []

    def behavior(path, body, headers):
        calls.append(1)
        return 400, {"error": "bad request"}

    with http_server(behavior) as url:
        client_policy(max_retries=3, backoff_base=0.01)
        backend = HttpTranslationBackend(url)
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


def test_http_unreachable_backend(client_policy):
    client_policy(max_retries=1, backoff_base=0.01, timeout=0.3)
    backend = HttpTranslationBackend("http://127.0.0.1:1")
    with pytest.raises(BackendUnreachableError):
        backend.translate_batch([tt("1", "x")], "en", "de")


@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="quick ACKs are Linux-only")
@pytest.mark.parametrize("kind", ["translate", "score"])
def test_http_kept_alive_requests_do_not_wait_for_a_delayed_ack(kind):
    # The stdlib handler leaves Nagle's algorithm on and sends headers and body
    # apart: unless the client ACKs at once, each request waits about 40 ms.
    paths = []

    def behavior(path, body, headers):
        paths.append(path)
        if path == "/translate":
            return 200, {"translations": body["texts"]}
        return 200, {"scores": [1.0 for _ in body["pairs"]]}

    n = 63 * 32
    connections: list = []
    with http_server(behavior, keep_alive=True, connections=connections) as url:
        start = time.perf_counter()
        if kind == "translate":
            texts = [tt(str(i), f"<a>text</a> {i}") for i in range(n)]
            out = HttpTranslationBackend(url, max_in_flight=1).translate_batch(texts, "en", "de")
            assert [t.tagged for t in out] == [t.tagged for t in texts]
        else:
            assert HttpScorerBackend(url).score_batch([(str(i), "h", None) for i in range(n)]) == [1.0] * n
        elapsed = time.perf_counter() - start
    assert paths == [f"/{kind}"] * 63
    assert len([event for event, _ in connections if event == "open"]) == 1
    assert elapsed < 1.0


def test_http_scorer_wire_format():
    def behavior(path, body, headers):
        assert path == "/score"
        return 200, {"scores": [82.5 for _ in body["pairs"]]}

    with http_server(behavior) as url:
        scorer = HttpScorerBackend(url)
        scores = scorer.score_batch([("s", "h", None), ("s2", "h2", "r2")])
    assert scores == [82.5, 82.5]


def test_http_scorer_sends_chunks_of_32_in_order_over_one_connection():
    sizes = []

    def behavior(path, body, headers):
        sizes.append(len(body["pairs"]))
        return 200, {"scores": [float(pair["src"]) for pair in body["pairs"]]}

    connections: list = []
    with http_server(behavior, keep_alive=True, connections=connections) as url:
        with no_unclosed_sockets():
            scores = HttpScorerBackend(url).score_batch([(str(i), "h", None) for i in range(300)])
        opened, closed = _wait_until_all_closed(connections)
    assert scores == [float(i) for i in range(300)]
    assert sizes == [32] * 9 + [12]
    assert len(opened) == 1 and closed == opened


def test_http_scorer_retries_only_the_failed_chunk(client_policy):
    firsts = []

    def behavior(path, body, headers):
        firsts.append(body["pairs"][0]["src"])
        if firsts.count("32") == 1 and firsts[-1] == "32":
            return 503, {}
        return 200, {"scores": [1.0] * len(body["pairs"])}

    with http_server(behavior, keep_alive=True) as url:
        client_policy(backoff_base=0)
        scores = HttpScorerBackend(url).score_batch([(str(i), "h", None) for i in range(70)])
    assert scores == [1.0] * 70
    assert firsts == ["0", "32", "32", "64"]


def test_http_scorer_short_chunk_is_alignment_error():
    firsts = []

    def behavior(path, body, headers):
        firsts.append(body["pairs"][0]["src"])
        short = body["pairs"][0]["src"] == "32"
        return 200, {"scores": [1.0] * (len(body["pairs"]) - short)}

    with http_server(behavior, keep_alive=True) as url:
        with pytest.raises(AlignmentError, match="^31 scores returned for 32 pairs$"):
            HttpScorerBackend(url).score_batch([(str(i), "h", None) for i in range(100)])
    assert firsts == ["0", "32"]  # no chunk is sent after one fails


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


def test_https_verifies_against_ssl_cert_file(monkeypatch):
    calls = []

    def behavior(path, body, headers):
        calls.append(path)
        return 200, {"translations": body["texts"]}

    monkeypatch.setenv("SSL_CERT_FILE", str(LOOPBACK_CERT))
    with http_server(behavior, tls=True) as url:
        out = HttpTranslationBackend(url).translate_batch([tt("1", "<a>x</a>")], "en", "de")
    assert [t.tagged for t in out] == ["<a>x</a>"]
    assert calls == ["/translate"]


def test_https_unverified_certificate_is_terminal(tmp_path, monkeypatch, capsys):
    from labelproj import backends, cli
    from labelproj.cli import main

    monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    monkeypatch.delenv("SSL_CERT_DIR", raising=False)
    backoffs = []
    monkeypatch.setattr(backends, "time", SimpleNamespace(sleep=backoffs.append))
    (tmp_path / "in.jsonl").write_text('{"id":"1","lang":"en","tagged_text":"<a>x</a>"}\n')
    with http_server(lambda path, body, headers: pytest.fail("request sent"), tls=True) as url:
        code = main([
            "translate", "-i", str(tmp_path / "in.jsonl"), "-o", str(tmp_path / "out.jsonl"),
            "--backend", url, "--src-lang", "en", "--tgt-lang", "de",
        ])
    assert code == 1
    assert backoffs == []  # one attempt: a retry would back off first
    assert "CERTIFICATE_VERIFY_FAILED" in capsys.readouterr().err


# ------------------------------------------------- raw socket boundary

@contextmanager
def raw_server(reply: bytes | None, step: int | None = None):
    """Answer every request with the literal bytes ``reply`` and close, or
    stall without answering when ``reply`` is None. With ``step``, ``reply``
    goes out ``step`` bytes at a time, 1 ms apart. Yields (url, calls)."""
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
            elif step is None:
                conn.sendall(reply)
            else:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for i in range(0, len(reply), step):
                    conn.sendall(reply[i : i + step])
                    time.sleep(0.001)

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


def test_http_stalled_server_is_unreachable(client_policy):
    with raw_server(None) as (url, calls):
        client_policy(max_retries=1, backoff_base=0.01, timeout=0.3)
        backend = HttpTranslationBackend(url)
        with pytest.raises(BackendUnreachableError):
            backend.translate_batch([tt("1", "x")], "en", "de")
    assert len(calls) == 2


def test_http_truncated_body_is_retried_then_unreachable(client_policy):
    # The partial body is itself valid JSON: only the length check can catch it.
    body = b'{"translations": ["x"]}'
    with raw_server(http_reply("200 OK", body, length=len(body) + 50)) as (url, calls):
        client_policy(max_retries=2, backoff_base=0.01, timeout=5)
        backend = HttpTranslationBackend(url)
        with pytest.raises(BackendUnreachableError):
            backend.translate_batch([tt("1", "x")], "en", "de")
    assert len(calls) == 3


def test_http_non_json_200_is_sent_once(client_policy):
    with raw_server(http_reply("200 OK", b"<html>not json</html>")) as (url, calls):
        client_policy(max_retries=3, backoff_base=0.01, timeout=5)
        backend = HttpTranslationBackend(url)
        with pytest.raises(BackendError) as excinfo:
            backend.translate_batch([tt("1", "x")], "en", "de")
    assert excinfo.value.status == 200
    assert len(calls) == 1
    assert json.loads(calls[0]) == {"src_lang": "en", "tgt_lang": "de", "texts": ["x"]}


def test_http_too_deeply_nested_200_is_backend_error(client_policy):
    body = b'{"translations": ' + b"[" * 5000 + b"]" * 5000 + b"}"
    with raw_server(http_reply("200 OK", body)) as (url, calls):
        client_policy(max_retries=3, backoff_base=0.01, timeout=5)
        backend = HttpTranslationBackend(url)
        with pytest.raises(BackendError, match="unparseable body") as excinfo:
            backend.translate_batch([tt("1", "x")], "en", "de")
    assert excinfo.value.status == 200
    assert len(calls) == 1


def test_http_400_message_carries_the_body(client_policy):
    with raw_server(http_reply("400 Bad Request", b'{"error": "texts must be a list"}')) as (url, calls):
        client_policy(max_retries=3, backoff_base=0.01, timeout=5)
        backend = HttpTranslationBackend(url)
        with pytest.raises(BackendError, match="texts must be a list") as excinfo:
            backend.translate_batch([tt("1", "x")], "en", "de")
    assert excinfo.value.status == 400
    assert len(calls) == 1


@pytest.mark.parametrize(
    "status", ["301 Moved Permanently", "302 Found", "307 Temporary Redirect", "308 Permanent Redirect"]
)
def test_http_redirect_is_terminal_after_one_request(status, client_policy):
    # The body is a well-formed result, so only the status can refuse it.
    body = b'{"translations": ["x"]}'
    reply = (
        f"HTTP/1.1 {status}\r\nLocation: http://127.0.0.1:9/v2\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode("ascii") + body
    with raw_server(reply) as (url, calls):
        client_policy(max_retries=3, backoff_base=0.01, timeout=5)
        backend = HttpTranslationBackend(url)
        with pytest.raises(BackendError, match="redirect to http://127.0.0.1:9/v2 not followed") as excinfo:
            backend.translate_batch([tt("1", "x")], "en", "de")
    assert excinfo.value.status == int(status[:3])
    assert len(calls) == 1


RESULT = b'{"translations": ["<a>x</a>"]}'


@pytest.fixture
def translate_one(client_policy):
    def translate(url: str, max_retries: int = 0) -> list[str]:
        client_policy(max_retries=max_retries, backoff_base=0.01, timeout=5)
        backend = HttpTranslationBackend(url)
        return [t.tagged for t in backend.translate_batch([tt("1", "<a>x</a>")], "en", "de")]

    return translate


def chunked(body: bytes, *cuts: int) -> bytes:
    """``body`` in chunks that end at ``cuts``, each size line with an extension, then a trailer field."""
    edges = [0, *cuts, len(body)]
    parts = [body[a:b] for a, b in zip(edges, edges[1:])]
    return b"".join(b"%x;note=1\r\n%s\r\n" % (len(part), part) for part in parts) + b"0\r\nX-Done: 1\r\n\r\n"


@pytest.mark.parametrize("step", [None, 2])
def test_http_chunked_body_is_reassembled(step, translate_one):
    reply = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n" + chunked(RESULT, 1, 10)
    with raw_server(reply, step) as (url, calls):
        assert translate_one(url) == ["<a>x</a>"]
    assert len(calls) == 1


@pytest.mark.parametrize("version", ["HTTP/1.1", "HTTP/1.0"])
def test_http_body_without_a_length_runs_to_the_close(version, translate_one):
    with raw_server(f"{version} 200 OK\r\nContent-Type: application/json\r\n\r\n".encode() + RESULT) as (url, calls):
        assert translate_one(url) == ["<a>x</a>"]
    assert len(calls) == 1


def test_http_response_written_a_few_bytes_at_a_time(translate_one):
    with raw_server(http_reply("200 OK", RESULT), step=3) as (url, calls):
        assert translate_one(url) == ["<a>x</a>"]
    assert len(calls) == 1


@pytest.mark.parametrize("head", [
    b"HTTP/1.1 200 OK\r\ncOnTeNt-LeNgTh: %d\r\nCONNECTION: Close\r\n\r\n" % len(RESULT),
    b"HTTP/1.1 200 OK\r\nTRANSFER-encoding: Chunked\r\nconnection: CLOSE\r\n\r\n",
], ids=["content-length", "transfer-encoding"])
def test_http_header_names_are_case_insensitive(head, translate_one):
    reply = head + (chunked(RESULT, 7) if b"Chunked" in head else RESULT)
    with raw_server(reply) as (url, calls):
        assert translate_one(url) == ["<a>x</a>"]
    assert len(calls) == 1


def test_http_lower_case_location_is_reported(translate_one):
    reply = b"HTTP/1.1 302 Found\r\nlocation: http://127.0.0.1:9/v2\r\ncontent-length: 0\r\n\r\n"
    with raw_server(reply) as (url, calls):
        with pytest.raises(BackendError, match="redirect to http://127.0.0.1:9/v2 not followed"):
            translate_one(url, max_retries=3)
    assert len(calls) == 1


@pytest.mark.parametrize("version, closing", [("HTTP/1.0", ""), ("HTTP/1.1", "Connection: close\r\n")])
def test_http_opens_a_new_connection_after_a_closing_response(version, closing, client_policy):
    # The server closes after each reply: a request sent on the old connection
    # would fail, and with no retry the batch would fail with it.
    body = b'{"translations": ["y"]}'
    reply = f"{version} 200 OK\r\n{closing}Content-Length: {len(body)}\r\n\r\n".encode() + body
    with raw_server(reply) as (url, calls):
        client_policy(max_retries=0, timeout=5)
        backend = HttpTranslationBackend(url, batch_size=1, max_in_flight=1)
        out = backend.translate_batch([tt("1", "a"), tt("2", "b")], "en", "de")
    assert [t.tagged for t in out] == ["y", "y"]
    assert len(calls) == 2


@pytest.mark.parametrize("reply, reason", [
    (b"HTPT/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}", "malformed status line"),
    (b"HTTP/1.1 2OO OK\r\nContent-Length: 2\r\n\r\n{}", "malformed status line"),
    (b"HTTP/1.1 200 OK\r\nContent-Length: two\r\n\r\n{}", "two"),
    (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n{}\r\n0\r\n\r\n", "zz"),
    (b"HTTP/1.1 200 OK\r\nContent-Length: 2", "truncated"),
], ids=["bad-version", "bad-status", "non-integer-length", "bad-chunk-size", "unended-head"])
def test_http_malformed_response_is_retried_then_unreachable(reply, reason, translate_one):
    with raw_server(reply) as (url, calls):
        with pytest.raises(BackendUnreachableError, match=f"giving up after 3 attempts .*{reason}"):
            translate_one(url, max_retries=2)
    assert len(calls) == 3


@pytest.mark.parametrize("kind, body", [
    ("translate", b'{"translations": ["al\\ud800pha"]}'),
    ("translate", b'{"translations": ["al\\uDFFFpha"]}'),
    ("score", b'{"scores": ["\\udc00"]}'),
], ids=["high-surrogate", "low-surrogate-in-capitals", "score"])
def test_http_lone_surrogate_in_a_response_is_terminal(kind, body, client_policy, translate_one):
    with raw_server(http_reply("200 OK", body)) as (url, calls):
        with pytest.raises(BackendError, match="surrogates not allowed") as excinfo:
            if kind == "translate":
                translate_one(url, max_retries=3)
            else:
                client_policy(max_retries=3, timeout=5)
                HttpScorerBackend(url).score_batch([("a", "b", None)])
    assert excinfo.value.status == 200
    assert len(calls) == 1


@pytest.mark.parametrize("body, reason", [
    (b'{"translations": ["al\\ud800pha"]}', "a string holds the lone surrogate U+D800: surrogates not allowed"),
    (b'{"translations": ["\xed\xa0\x80"]}', "'utf-8' codec can't decode byte 0xed in position 19"),
    (b'{"translations": ["\xff"]}', "'utf-8' codec can't decode byte 0xff in position 19"),
], ids=["escaped-surrogate", "encoded-surrogate", "not-utf8"])
def test_http_body_must_be_utf8_json_without_a_lone_surrogate(body, reason, translate_one):
    # The same rule as for a JSONL line; an encoded surrogate is refused as invalid UTF-8.
    with raw_server(http_reply("200 OK", body)) as (url, calls):
        with pytest.raises(BackendError, match=f"unparseable body: {re.escape(reason)}"):
            translate_one(url, max_retries=3)
    assert len(calls) == 1


def test_http_surrogate_pair_in_a_response_is_one_character(translate_one):
    with raw_server(http_reply("200 OK", b'{"translations": ["<a>\\ud83d\\ude00</a>"]}')) as (url, calls):
        assert translate_one(url) == ["<a>\U0001f600</a>"]


@pytest.mark.parametrize("slots", [0, MAX_IN_FLIGHT + 1, 10**9])
def test_http_translate_refuses_slots_outside_the_cap(slots):
    # Refused in the constructor: no connection is made and no thread started.
    with pytest.raises(ValueError, match=f"max_in_flight must be in \\[1, {MAX_IN_FLIGHT}\\]"):
        HttpTranslationBackend("http://127.0.0.1:9", max_in_flight=slots)


@pytest.mark.parametrize("netloc, default, expected", [
    ("example.org", 80, ("example.org", 80)),
    ("example.org:", 443, ("example.org", 443)),
    ("example.org:8080", 443, ("example.org", 8080)),
    ("[::1]", 443, ("::1", 443)),
    ("[::1]:8443", 80, ("::1", 8443)),
    ("[fe80::1%25eth0]:80", 443, ("fe80::1%25eth0", 80)),
])
def test_hostport_splits_as_http_client_does(netloc, default, expected):
    assert _hostport(netloc, default) == expected


@pytest.mark.parametrize("endpoint", ["http://127.0.0.1:abc", "http://127.0.0.1:70000", "https://[::1]:-1"])
def test_http_endpoint_with_an_invalid_port_is_refused(endpoint):
    with pytest.raises(ValueError, match="invalid port"):
        HttpTranslationBackend(endpoint)


def test_http_reaches_an_ipv6_endpoint_in_brackets():
    try:
        socket.create_server(("::1", 0), family=socket.AF_INET6).close()
    except OSError:
        pytest.skip("no IPv6 loopback")
    seen: list = []
    with http_server(echo(seen), ipv6=True) as url:
        out = HttpTranslationBackend(f"{url}/v1").translate_batch([tt("1", "<a>x</a>")], "en", "de")
    assert [t.tagged for t in out] == ["<a>x</a>"]
    assert seen == [("/v1/translate", url.removeprefix("http://"), None)]


# ------------------------------------------------------------------ proxies

def run_translate(tmp_path: Path, endpoint: str, **env: str) -> subprocess.CompletedProcess:
    """Run ``labelproj translate`` on one text in a fresh interpreter whose only
    proxy settings are ``env``, so the proxy environment is read from scratch."""
    (tmp_path / "in.jsonl").write_text('{"id":"1","lang":"en","tagged_text":"<a>x</a>"}\n')
    clean = {key: value for key, value in os.environ.items() if not key.lower().endswith("_proxy")}
    clean["PYTHONPATH"] = str(Path(labelproj.__file__).parents[1])
    argv = [sys.executable, "-m", "labelproj.cli", "translate", "-i", str(tmp_path / "in.jsonl"),
            "-o", str(tmp_path / "out.jsonl"), "--backend", endpoint, "--src-lang", "en", "--tgt-lang", "de"]
    return subprocess.run(argv, env={**clean, **env}, capture_output=True, text=True, timeout=60)


def echo(seen: list):
    def behavior(path, body, headers):
        seen.append((path, headers.get("Host"), headers.get("Proxy-Authorization")))
        return 200, {"translations": body["texts"]}

    return behavior


def test_http_goes_through_the_proxy_with_the_whole_url(tmp_path):
    seen: list = []
    with http_server(echo(seen)) as proxy:
        address = proxy.removeprefix("http://")
        # The host is never resolved: only the proxy is contacted.
        proxy_url = f"http://us%65r:p%40ss@{address}"
        done = run_translate(tmp_path, "http://labelproj.invalid:8000/v1", http_proxy=proxy_url)
    assert done.returncode == 0, done.stderr
    credentials = base64.b64encode(b"user:p@ss").decode("ascii")
    assert seen == [("http://labelproj.invalid:8000/v1/translate", "labelproj.invalid:8000", f"Basic {credentials}")]
    assert json.loads((tmp_path / "out.jsonl").read_text())["tagged_text"] == "<a>x</a>"


def test_no_proxy_sends_straight_to_the_endpoint(tmp_path):
    through_proxy: list = []
    direct: list = []
    with http_server(echo(through_proxy)) as proxy, http_server(echo(direct)) as endpoint:
        done = run_translate(tmp_path, f"{endpoint}/v1", http_proxy=proxy, no_proxy="localhost,127.0.0.1")
    assert done.returncode == 0, done.stderr
    assert through_proxy == []
    assert direct == [("/v1/translate", endpoint.removeprefix("http://"), None)]


@contextmanager
def connect_proxy():
    """A proxy that answers one CONNECT with 200 and then relays bytes both
    ways. Yields (url, requests): each request's head, as text."""
    listener = socket.create_server(("127.0.0.1", 0))
    requests: list[str] = []

    def relay(source: socket.socket, sink: socket.socket) -> None:
        with suppress(OSError):
            while data := source.recv(65536):
                sink.sendall(data)
        with suppress(OSError):
            sink.shutdown(socket.SHUT_WR)

    def serve() -> None:
        client, _ = listener.accept()
        with client, client.makefile("rb") as stream:
            head = b"".join(iter(lambda: stream.readline(), b"\r\n")).decode("latin-1")
            requests.append(head)
            host, port = head.split()[1].rsplit(":", 1)
            with socket.create_connection((host, int(port))) as upstream:
                client.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
                back = threading.Thread(target=relay, args=(upstream, client), daemon=True)
                back.start()
                relay(client, upstream)
                back.join(timeout=10)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}", requests
    finally:
        listener.close()
        thread.join(timeout=10)


def test_https_goes_through_the_proxy_in_a_tunnel(tmp_path):
    seen: list = []
    with http_server(echo(seen), tls=True) as endpoint, connect_proxy() as (proxy, requests):
        target = endpoint.removeprefix("https://")
        address = proxy.removeprefix("http://")
        done = run_translate(tmp_path, f"{endpoint}/v1", https_proxy=f"http://user:pw@{address}",
                             SSL_CERT_FILE=str(LOOPBACK_CERT))
    assert done.returncode == 0, done.stderr
    [head] = requests
    assert head.startswith(f"CONNECT {target} HTTP/1.")
    assert f"Proxy-Authorization: Basic {base64.b64encode(b'user:pw').decode('ascii')}" in head
    assert seen == [("/v1/translate", target, None)]  # the credentials stay with the proxy
