"""Liveness/readiness probes and a ``/metrics`` scrape endpoint.

A production detection service needs three answers a load balancer (or a
human with ``curl``) can get without attaching a debugger:

* ``/healthz`` — liveness: the process is up and serving requests
  (200 always, by construction of answering at all);
* ``/readyz``  — readiness: the service is willing to take *new* work
  (200 when the readiness callback says yes, 503 with the refusal
  reason when it says no — e.g. tenant budget or memory budget
  exhausted, server shutting down);
* ``/metrics`` — the active :class:`repro.obs.MetricsRegistry` in
  Prometheus text exposition format.

Stdlib-only: a ``socketserver.ThreadingTCPServer`` on a daemon thread
answers one HTTP/1.0 GET per connection.  ``http.server`` is not used
because its import chain (``http.client``, ``email``, ``ssl``, …) costs
the service about 6 MB of resident memory for three fixed paths.  A
request is refused with the code ``http.server`` gives it: 400 for a
malformed request line, 414 for a request line over 65,536 bytes, 431
for a header line over 65,536 bytes or more than 100 header lines (the
blank line that ends them counted), 505 for HTTP/2 or later and 501 for
a method other than GET.  Every read is bounded, so an oversized
request is refused, never buffered, and times out after
``_READ_TIMEOUT_S``: a client that stalls mid-request is disconnected
without an answer instead of holding a handler thread.  A missing
registry serves an empty exposition rather than failing the scrape.
"""

from __future__ import annotations

import socketserver
import threading
from typing import Callable, Optional, Tuple

from repro.obs.export import render_prometheus
from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = ["ObsHttpServer"]

#: Returns ``(ready, reason)``; the reason is served in the 503 body.
ReadinessProbe = Callable[[], Tuple[bool, str]]

#: ``http.client``'s limits: the longest line read, and the most lines
#: a header block may hold.
_MAX_LINE = 65536
_MAX_HEADERS = 100

#: Seconds a handler waits on one socket read or write.
_READ_TIMEOUT_S = 10.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    414: "URI Too Long",
    431: "Request Header Fields Too Large",
    501: "Not Implemented",
    503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}


class _Refused(Exception):
    """A request answered with an error status instead of a route."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status


def _parse_version(word: str) -> Tuple[int, int]:
    """``HTTP/<major>.<minor>``, as ``http.server`` accepts it."""
    if not word.startswith("HTTP/"):
        raise _Refused(400, f"bad request version {word!r}")
    parts = word[5:].split(".")
    # Not ``isdigit``: it accepts ``'²'``, which ``int`` refuses.
    if len(parts) != 2 or not all(
        part.isdecimal() and len(part) <= 10 for part in parts
    ):
        raise _Refused(400, f"bad request version {word!r}")
    return int(parts[0]), int(parts[1])


class _Handler(socketserver.StreamRequestHandler):
    timeout = _READ_TIMEOUT_S

    def handle(self) -> None:
        try:
            path = self._read_request()
        except _Refused as refused:
            self._respond(refused.status, f"{refused}\n".encode())
            return
        except TimeoutError:
            return  # a stalled client: closed quietly, nothing answered
        if path is None:
            return  # an empty or blank request line: nothing to answer
        owner: "ObsHttpServer" = self.server.owner  # type: ignore[attr-defined]
        if path == "/healthz":
            self._respond(200, b"ok\n")
        elif path == "/readyz":
            ready, reason = owner.readiness()
            if ready:
                self._respond(200, b"ready\n")
            else:
                self._respond(503, f"not ready: {reason}\n".encode())
        elif path == "/metrics":
            registry = owner.registry or get_registry()
            body = b""
            if isinstance(registry, MetricsRegistry):
                body = render_prometheus(registry).encode()
            self._respond(200, body, content_type="text/plain; version=0.0.4")
        else:
            self._respond(404, b"not found\n")

    def _read_request(self) -> Optional[str]:
        """The path of a GET whose request line and headers are read
        in full; raises :class:`_Refused` for anything else."""
        line = self.rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _Refused(414, "request line too long")
        words = line.decode("iso-8859-1").rstrip("\r\n").split()
        if not words:
            return None
        if len(words) >= 3 and _parse_version(words[-1]) >= (2, 0):
            raise _Refused(505, f"invalid HTTP version {words[-1]}")
        if len(words) not in (2, 3):
            raise _Refused(400, "bad request syntax")
        method, path = words[0], words[1]
        if len(words) == 2 and method != "GET":
            raise _Refused(400, "bad HTTP/0.9 request type")
        for _ in range(_MAX_HEADERS):
            header = self.rfile.readline(_MAX_LINE + 1)
            if len(header) > _MAX_LINE:
                raise _Refused(431, "header line too long")
            if header in (b"\r\n", b"\n", b""):
                break
        else:
            raise _Refused(431, "too many headers")
        if method != "GET":
            raise _Refused(501, f"unsupported method {method!r}")
        return path

    def _respond(
        self, status: int, body: bytes, content_type: str = "text/plain"
    ) -> None:
        head = (
            f"HTTP/1.0 {status} {_REASONS[status]}\r\n"
            "Server: repro-obs/1\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        self.wfile.write(head.encode("latin-1") + body)


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ObsHttpServer:
    """Serve probes + metrics on a daemon thread.

    ``port=0`` binds an ephemeral port (read it back from ``.port``
    after ``start()``).  ``readiness`` defaults to always-ready; the
    detection service installs its admission-based probe."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        readiness: Optional[ReadinessProbe] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.registry = registry
        self._readiness = readiness
        self._httpd: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None

    def readiness(self) -> Tuple[bool, str]:
        if self._readiness is None:
            return True, ""
        return self._readiness()

    def start(self) -> "ObsHttpServer":
        self._httpd = _Server((self.host, self.port), _Handler)
        self._httpd.owner = self  # type: ignore[attr-defined]
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="obs-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
