"""Client for the detection service: ship a WAL directory, get a report.

The client owns the *robustness* half of the contract:

* **reconnect + re-hello** across server restarts — every transport
  error tears down the socket and the next request redials and
  re-declares the session (the server answers ``resumed=True``);
* **full-jitter backoff** on transient refusals (``over_queue``,
  ``over_capacity``) and transport errors, reusing
  :func:`repro.runtime.rpc.backoff_delay` scaled to wall-clock — the
  server suggests ``retry_after_s`` and the jitter disperses a fleet
  of tenants retrying at once;
* **idempotent shipping** — segments are sent in per-stream index
  order; a retransmit after a lost ACK is answered ``duplicate: true``
  and costs nothing, which is what makes "retry on any doubt" safe.

``ship_wal_dir`` round-robins across the WAL's streams (so the server's
k-way merge is never starved by one stream running far ahead) and
records a per-segment ingest latency sample for the benchmark.
Transient refusals (``over_queue``) skip to the next stream
rather than blocking the round-robin — paired with the server's
starvation-relief carve-out, that is what makes credit backpressure
deadlock-free even when a tenant has more streams than queue credits.
"""

from __future__ import annotations

import json
import os
import socket
import time
from typing import Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.framing import seal_count
from repro.runtime.rpc import backoff_delay
from repro.service import protocol
from repro.trace.wal import list_stream_segments

__all__ = ["ServiceClient", "ShipResult"]

#: Wall-clock seconds per backoff_delay step for client retries.
_BACKOFF_STEP_S = 0.05

#: Share of the socket timeout a ``report`` may ask the server to hold
#: its answer for, so the reply lands before the socket gives up.
_REPORT_WAIT_SHARE = 0.5


class ShipResult:
    """Outcome of ``ship_wal_dir``: what went over the wire, how fast,
    and how often the server pushed back."""

    def __init__(self) -> None:
        self.segments_shipped = 0
        self.segments_duplicate = 0
        self.records_shipped = 0
        self.bytes_shipped = 0
        self.backpressure_waits = 0
        self.reconnects = 0
        self.ingest_latencies_s: List[float] = []
        self.elapsed_s = 0.0

    def latency_quantile(self, q: float) -> float:
        if not self.ingest_latencies_s:
            return 0.0
        ordered = sorted(self.ingest_latencies_s)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]


class ServiceClient:
    """One tenant's connection to a :class:`DetectionServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str,
        timeout: float = 30.0,
        retry_deadline_s: float = 120.0,
    ) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout = timeout
        self.retry_deadline_s = retry_deadline_s
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._wfile = None
        self._streams: Optional[List[Tuple[str, int]]] = None
        self._totals: Optional[Dict[str, int]] = None
        self.reconnects = 0
        self.backpressure_waits = 0

    # -- transport ---------------------------------------------------------

    def close(self) -> None:
        for closer in (self._rfile, self._wfile, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._sock = self._rfile = self._wfile = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _dial(self) -> None:
        self.close()
        self._sock = protocol.connect(self.host, self.port, self.timeout)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")
        if self._streams is not None:
            # Re-establish the session on the (possibly restarted)
            # server before replaying the interrupted request.
            self._roundtrip(self._hello_doc())

    def _roundtrip(
        self, doc: Dict[str, object], body: bytes = b""
    ) -> Dict[str, object]:
        protocol.send_frame(self._wfile, doc, body)
        frame = protocol.recv_frame(self._rfile)
        if frame is None:
            raise ConnectionError("server closed the connection")
        response, response_body = frame
        if response_body:
            # On the wire "body" is the byte count; hand the caller the
            # bytes it announced.
            response["body"] = response_body
        return protocol.raise_for_error(response)

    def request(
        self,
        doc: Dict[str, object],
        body: bytes = b"",
        retry_transient: bool = True,
        deadline: Optional[float] = None,
    ) -> Dict[str, object]:
        """One verb round-trip with reconnect + full-jitter retry.

        Transport errors redial (surviving server restarts); transient
        structured errors honour the server's ``retry_after_s`` plus a
        jittered spread.  Gives up after ``retry_deadline_s``, or at
        ``deadline`` (a ``time.monotonic()`` instant) if that is
        sooner.  With ``retry_transient=False`` transient refusals
        raise immediately (transport errors still redial) — the
        shipping loop uses this to move on to another stream instead
        of blocking on one."""
        give_up = time.monotonic() + self.retry_deadline_s
        deadline = give_up if deadline is None else min(deadline, give_up)
        attempt = 0
        while True:
            try:
                if self._sock is None:
                    self._dial()
                return self._roundtrip(doc, body)
            except ServiceError as exc:
                if exc.code not in protocol.RETRYABLE_ERRORS:
                    raise
                if not retry_transient:
                    raise
                if time.monotonic() >= deadline:
                    raise
                if exc.code == "over_queue":
                    self.backpressure_waits += 1
                pause = exc.retry_after_s or 0.1
            except (ConnectionError, socket.timeout, OSError):
                self.close()
                self.reconnects += 1
                if time.monotonic() >= deadline:
                    raise
                pause = 0.0
            pause += _BACKOFF_STEP_S * backoff_delay(
                min(attempt, 6),
                key=f"{self.tenant}:{os.getpid()}:{doc.get('verb')}",
            )
            attempt += 1
            time.sleep(min(pause, max(0.0, deadline - time.monotonic())))

    # -- session verbs -----------------------------------------------------

    def _hello_doc(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "verb": "hello",
            "tenant": self.tenant,
            "streams": [list(k) for k in (self._streams or [])],
        }
        if self._totals:
            doc["totals"] = dict(self._totals)
        return doc

    def hello(
        self,
        streams: List[Tuple[str, int]],
        totals: Optional[Dict[Tuple[str, int], int]] = None,
    ) -> Dict[str, object]:
        """Open/resume the session.  ``totals`` (final per-stream
        segment counts, keyed by ``(node, tid)``) lets the server close
        fully-shipped streams mid-session — see the protocol docs."""
        self._streams = sorted((str(n), int(t)) for n, t in streams)
        self._totals = (
            {protocol.stream_key_str(k): int(c) for k, c in totals.items()}
            if totals
            else None
        )
        return self.request(self._hello_doc())

    def send_segment(
        self,
        node: str,
        tid: int,
        index: int,
        data: bytes,
        retry_transient: bool = True,
    ) -> Dict[str, object]:
        return self.request(
            {
                "verb": "segment",
                "tenant": self.tenant,
                "node": node,
                "tid": tid,
                "index": index,
            },
            body=data,
            retry_transient=retry_transient,
        )

    def finalize(self, counts: Dict[str, int]) -> Dict[str, object]:
        return self.request(
            {"verb": "finalize", "tenant": self.tenant, "counts": counts}
        )

    def status(self) -> Dict[str, object]:
        return self.request({"verb": "status"})

    def wait_report(self, timeout_s: float = 120.0) -> Dict[str, object]:
        """The tenant's report, once its detection finishes.  Each
        ``report`` asks the server to hold the answer until the report
        is published (``wait_s``: what is left of ``timeout_s``, capped
        below the socket timeout), so it arrives as soon as it exists.
        A ``not_ready`` answer is asked again until ``timeout_s`` has
        gone by; then it, or the transport error that ended the last
        redial, is raised."""
        deadline = time.monotonic() + timeout_s
        while True:
            wait_s = min(
                deadline - time.monotonic(), self.timeout * _REPORT_WAIT_SHARE
            )
            try:
                response = self.request(
                    {
                        "verb": "report",
                        "tenant": self.tenant,
                        "wait_s": round(max(0.0, wait_s), 3),
                    },
                    retry_transient=False,
                    deadline=deadline,
                )
                return json.loads(response["body"])
            except ServiceError as exc:
                if exc.code != "not_ready" or time.monotonic() >= deadline:
                    raise

    # -- shipping ----------------------------------------------------------

    def ship_wal_dir(self, wal_dir: str) -> ShipResult:
        """Ship every sealed segment of a WAL directory, round-robin
        across streams, then finalize.  Safe to re-run after any
        failure: already-spooled segments ACK as duplicates."""
        segments = list_stream_segments(wal_dir)
        if not segments:
            raise ServiceError(f"no WAL streams under {wal_dir}", code="empty")
        # Declaring totals upfront is the third leg of deadlock
        # freedom: without it the merge starves on a fully-shipped
        # short stream until finalize, which may be unreachable while
        # longer streams are queue-blocked.
        self.hello(
            sorted(segments),
            totals={key: len(paths) for key, paths in segments.items()},
        )
        result = ShipResult()
        started = time.monotonic()
        cursors = {key: 0 for key in segments}
        # Backpressure must never block the round-robin on a single
        # refused stream: the server always admits the segment its
        # merge is starved on, but only if we get around to offering
        # it.  So transient refusals skip to the next stream, and only
        # a full pass with zero progress sleeps (jittered, honouring
        # the server's retry_after_s).
        stalled_since: Optional[float] = None
        stall_pass = 0
        remaining = True
        while remaining:
            remaining = False
            progressed = False
            retry_after = 0.0
            last_refusal: Optional[ServiceError] = None
            for key in sorted(segments):
                index = cursors[key]
                paths = segments[key]
                if index >= len(paths):
                    continue
                remaining = True
                with open(paths[index], "rb") as fh:
                    data = fh.read()
                node, tid = key
                # The server verifies the segment; its seal is enough
                # to count what was shipped.
                count = seal_count(data)
                sent_at = time.monotonic()
                try:
                    response = self.send_segment(
                        node, tid, index, data, retry_transient=False
                    )
                except ServiceError as exc:
                    if exc.code not in protocol.RETRYABLE_ERRORS:
                        raise
                    if exc.code == "over_queue":
                        self.backpressure_waits += 1
                    retry_after = max(retry_after, exc.retry_after_s or 0.1)
                    last_refusal = exc
                    continue
                result.ingest_latencies_s.append(
                    time.monotonic() - sent_at
                )
                cursors[key] = index + 1
                result.segments_shipped += 1
                result.records_shipped += count
                result.bytes_shipped += len(data)
                if response.get("duplicate"):
                    result.segments_duplicate += 1
                progressed = True
            if not remaining or progressed:
                stalled_since = None
                stall_pass = 0
                continue
            now = time.monotonic()
            if stalled_since is None:
                stalled_since = now
            elif now - stalled_since > self.retry_deadline_s:
                raise last_refusal  # zero progress for the whole window
            time.sleep(
                retry_after
                + _BACKOFF_STEP_S
                * backoff_delay(
                    min(stall_pass, 6),
                    key=f"{self.tenant}:{os.getpid()}:ship",
                )
            )
            stall_pass += 1
        self.finalize(
            {protocol.stream_key_str(k): len(paths)
             for k, paths in segments.items()}
        )
        result.reconnects = self.reconnects
        result.backpressure_waits = self.backpressure_waits
        result.elapsed_s = time.monotonic() - started
        return result
