"""The probe server: routes, the refusal codes ``http.server`` gives,
and an import that leaves the ``http.server`` stack out."""

import http.client
import io
import os
import socket
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.obs import http as obs_http
from repro.obs.http import ObsHttpServer

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.fixture()
def probes():
    state = {"ready": True}
    registry = MetricsRegistry()
    registry.counter("probe_hits_total", "hits").inc(3)
    srv = ObsHttpServer(
        readiness=lambda: (state["ready"], "memory budget exhausted"),
        registry=registry,
    ).start()
    srv.state = state
    yield srv
    srv.stop()


def _get(port, path, method="GET"):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(method, path)
        response = conn.getresponse()
        return (
            response.status,
            response.getheader("Content-Type"),
            response.read().decode(),
        )
    finally:
        conn.close()


def _raw(port, request):
    """The status code the server answers ``request`` bytes with."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    status_line = reply.split(b"\r\n", 1)[0].split()
    assert status_line[0] == b"HTTP/1.0", reply[:80]
    return int(status_line[1])


def test_routes_answer_as_before(probes):
    assert _get(probes.port, "/healthz") == (200, "text/plain", "ok\n")
    assert _get(probes.port, "/readyz") == (200, "text/plain", "ready\n")
    probes.state["ready"] = False
    assert _get(probes.port, "/readyz") == (
        503, "text/plain", "not ready: memory budget exhausted\n"
    )
    status, content_type, body = _get(probes.port, "/metrics")
    assert (status, content_type) == (200, "text/plain; version=0.0.4")
    assert "probe_hits_total 3" in body
    assert _get(probes.port, "/nope")[0] == 404


@pytest.mark.parametrize(
    "request_bytes, status",
    [
        (b"NONSENSE\r\n\r\n", 400),
        (b"GET / HTTP/one\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.\xb2\r\n\r\n", 400),
        (b"POST /healthz HTTP/1.0\r\nContent-Length: 0\r\n\r\n", 501),
        (b"GET /nope HTTP/1.0\r\n\r\n", 404),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.0\r\n\r\n", 414),
        (b"GET /healthz HTTP/1.0\r\n" + b"X-A: b\r\n" * 101 + b"\r\n", 431),
        (b"GET /healthz HTTP/1.0\r\nX-A: " + b"b" * 70_000 + b"\r\n\r\n", 431),
        (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
        (b"GET /healthz HTTP/1.1\r\n" + b"X-A: b\r\n" * 98 + b"\r\n", 200),
    ],
    ids=[
        "malformed", "bad-version", "superscript-version", "post",
        "unknown-path", "long-line", "101-headers", "long-header", "http2",
        "98-headers",
    ],
)
def test_a_refused_request_gets_its_code_and_the_server_keeps_serving(
    probes, request_bytes, status
):
    assert _raw(probes.port, request_bytes) == status
    assert _get(probes.port, "/healthz")[0] == 200


#: One side of ``HTTP/<major>.<minor>``: digits (``\xb2`` is ``'²'``,
#: which ``str.isdigit`` accepts and ``int`` refuses) or any Latin-1 text.
_VERSION_PART = st.one_of(
    st.text(st.sampled_from("019\xb2\xb3\xb9\xbc"), max_size=3),
    st.text(st.characters(max_codepoint=0xFF), max_size=4),
).map(lambda text: text.encode("latin-1"))
_REQUEST_LINE = st.tuples(
    st.sampled_from([b"GET /healthz", b"GET /readyz", b"POST /", b"G\xe9T /"]),
    _VERSION_PART,
    _VERSION_PART,
).map(lambda p: p[0] + b" HTTP/" + p[1] + b"." + p[2])


@settings(max_examples=300, deadline=None)
@given(
    line=st.one_of(st.binary(max_size=64), _REQUEST_LINE),
    rest=st.sampled_from([b"\r\n\r\n", b"\r\nX-A: b\r\n\r\n", b"\n", b""]),
)
def test_arbitrary_request_bytes_get_a_status_line_or_a_close(line, rest):
    """``handle`` never raises, whatever bytes arrive: the client reads
    an ``HTTP/1.0`` status line or nothing."""
    handler = obs_http._Handler.__new__(obs_http._Handler)
    handler.rfile = io.BytesIO(line + rest)
    handler.wfile = io.BytesIO()
    handler.server = SimpleNamespace(owner=ObsHttpServer())
    handler.handle()
    reply = handler.wfile.getvalue()
    assert reply == b"" or reply.startswith(b"HTTP/1.0 ")


def test_a_client_that_sends_nothing_gets_nothing(probes):
    with socket.create_connection(("127.0.0.1", probes.port), timeout=10) as sock:
        sock.shutdown(socket.SHUT_WR)
        assert sock.recv(100) == b""
    assert _get(probes.port, "/healthz")[0] == 200


def test_a_stalled_client_is_disconnected_after_the_read_timeout(
    probes, monkeypatch, capfd
):
    assert obs_http._Handler.timeout == obs_http._READ_TIMEOUT_S
    timeout = 0.5
    monkeypatch.setattr(obs_http._Handler, "timeout", timeout)
    with socket.create_connection(("127.0.0.1", probes.port), timeout=10) as sock:
        sock.sendall(b"GET /healthz\r\n")  # the headers never end
        started = time.monotonic()
        assert _get(probes.port, "/healthz")[0] == 200
        assert sock.recv(100) == b""
        assert time.monotonic() - started < timeout + 2.0
    assert _get(probes.port, "/healthz")[0] == 200
    assert "Traceback" not in capfd.readouterr().err


def test_service_import_leaves_out_the_http_server_stack():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli, repro.service.server\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('email', 'ssl') or m in ('http.server', 'http.client')))",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert loaded == "[]\n"
