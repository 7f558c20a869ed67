"""Loopback stub translation server for the ``project-http`` workload.

It speaks the toolkit's wire protocol (``POST /translate``), rewrites words
through the fixed dictionary in ``workloads``, keeps markers, and plants the
marker faults and surface-form variants that ``workloads.ProjectHttp``
expects. It answers only with 200, so the client's retry back-off never
sets the wall time.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from workloads import (
    DROP_CLOSE,
    DUP_CLOSE,
    LOOKALIKE,
    LOOKALIKE_LITERAL,
    VARIANT,
    doc_class,
    span_form,
    translate_word,
)

_SPLIT_RE = re.compile(r"(</?[a-z]+>)")
_WORD_RE = re.compile(r"[^ ]+")


def stub_translate(tagged: str) -> str:
    pieces = _SPLIT_RE.split(tagged)
    plain = "".join(pieces[0::2])
    cls = doc_class(plain)
    out: list[str] = []
    current = None
    first_close = None
    for i, piece in enumerate(pieces):
        if i % 2:
            if piece.startswith("</"):
                current = None
                if first_close is None:
                    first_close = len(out)
            else:
                current = piece[1:-1]
            out.append(piece)
            continue
        form = span_form(plain, current) if cls == VARIANT and current is not None else "ref"
        out.append(_WORD_RE.sub(lambda m: translate_word(m.group(0), form), piece))
    if cls == DROP_CLOSE and first_close is not None:
        out[first_close] = ""
    elif cls == DUP_CLOSE and first_close is not None:
        out[first_close] *= 2
    elif cls == LOOKALIKE:
        out.insert(0, LOOKALIKE_LITERAL)
    return "".join(out)


class StubCounters:
    """Per-invocation counts: requests, re-sent bodies, bytes and busy time."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.requests = 0
            self.retries = 0
            self.bytes_in = 0
            self.bytes_out = 0
            self.busy_s = 0.0
            self._seen: set[bytes] = set()

    def add(self, body: bytes, sent: int, busy: float) -> None:
        digest = hashlib.blake2b(body, digest_size=16).digest()
        with self._lock:
            self.requests += 1
            self.retries += digest in self._seen
            self._seen.add(digest)
            self.bytes_in += len(body)
            self.bytes_out += sent
            self.busy_s += busy


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive: one connection per client thread
    disable_nagle_algorithm = True  # no delayed-ACK stall between header and body

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        started = time.perf_counter()
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path.rstrip("/").endswith("/translate"):
            texts = json.loads(body)["texts"]
            payload = json.dumps({"translations": [stub_translate(t) for t in texts]}).encode()
            status = 200
        else:
            payload, status = b'{"error": "unknown path"}', 404
        head = (
            f"HTTP/1.1 {status} {'OK' if status == 200 else 'Not Found'}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n\r\n"
        ).encode()
        self.wfile.write(head + payload)  # one write per response
        self.server.counters.add(body, len(payload), time.perf_counter() - started)

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass


class StubServer:
    """Context manager: serve on an ephemeral loopback port in a thread."""

    def __init__(self) -> None:
        self.counters = StubCounters()
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._server.daemon_threads = True
        self._server.counters = self.counters
        self._thread = threading.Thread(target=self._server.serve_forever, name="stub", daemon=True)

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self) -> "StubServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
