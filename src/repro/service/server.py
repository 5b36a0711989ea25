"""The always-on multi-tenant detection server.

One process, many tenants: each tenant ships WAL segments over TCP
(:mod:`repro.service.protocol`), the server spools them durably, a
per-tenant pump thread merges spooled segments into that tenant's
:class:`StreamingDetector` in global seq order, and a canonical report
is published when the tenant finalizes.  The moving parts:

* **admission control** — :class:`FleetBudget` decides whether a new
  ``hello`` fits (tenant count, RSS below 92% of the memory budget);
  refusals are structured ``over_capacity`` errors with a
  ``retry_after_s`` the client honours;
* **credit-based backpressure** — every segment ACK carries the
  tenant's remaining queue credits (``queue_segments`` minus spooled-
  but-unpumped segments); at zero the next upload gets ``over_queue``
  + retry-after instead of unbounded buffering.  One carve-out keeps
  the scheme deadlock-free: a segment for a stream the merge is
  *starved* on is always admitted, because it is the only thing that
  lets the backlog drain.  Nothing is sampled under load: an ACKed
  segment lives on disk, the pump parses at most one segment per
  stream ahead of the merge, and credits pace ingest, so every report
  covers every record it was sent;
* **circuit breaker** — per-tenant quarantine after a streak of
  torn/CRC-bad segment uploads, evidence preserved on disk;
* **crash recovery** — ingestion ACKs only after the segment is
  atomically published (``repro.framing.atomic_write``) in the spool;
  the pump checkpoints its detector with a raw-merge watermark;
  on restart every tenant directory is recovered and resumed.  Because
  the merge order is deterministic, ``kill -9`` + restart loses no
  acknowledged segment and re-produces byte-identical reports.

The transport is real TCP on localhost rather than the simulated
``repro.runtime.sockets`` layer: crash recovery must survive an OS
``kill -9``, which requires the server to be a real process reachable
across process boundaries.  The *discipline* is inherited, though —
verb-tagged frames and WAL-grade CRC framing on every message.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro import obs
from repro.analysis.governor import maybe_stall, process_rss_mb
from repro.framing import atomic_write
from repro.obs.http import ObsHttpServer
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.service import protocol
from repro.service.protocol import error_frame, ok_frame
from repro.service.tenants import Tenant
from repro.trace.wal import verify_segment_bytes

__all__ = [
    "DetectionServer",
    "FleetBudget",
    "SERVICE_FILE",
    "load_service_file",
]

SERVICE_FILE = "service.json"

#: Suggested client sleep for each transient refusal, seconds.
RETRY_AFTER = {"over_capacity": 1.0, "over_queue": 0.1, "not_ready": 0.1}

#: RSS fraction of the memory budget above which no new tenant is
#: admitted (a new tenant means a new detector).
ADMISSION_RSS_FRACTION = 0.92

#: Longest a ``report`` carrying ``wait_s`` is held, seconds; a client
#: still waiting then asks again.
REPORT_WAIT_CAP_S = 30.0

#: Raw records one pump() call may advance before yielding (keeps the
#: pump preemptible for checkpoints and, with
#: ``DCATCH_STALL=service_pump:<s>``, gives the backpressure demos a way
#: to make ingest outrun detection).
PUMP_BATCH = 4096


@dataclass
class FleetBudget:
    """Aggregate budgets for a multi-tenant detection service.

    One process serves many tenant streams; the budget governs the
    *sum*: how many tenants may be admitted at all, how much process
    RSS the fleet may use before new tenants are refused, and how many
    ingested-but-unprocessed segments may queue per tenant (credits)."""

    max_tenants: int = 16
    memory_budget_mb: Optional[int] = None
    queue_segments: int = 64

    def admit_tenant(self, active_tenants: int) -> Optional[str]:
        """None when a new tenant fits, else a refusal reason."""
        if active_tenants >= self.max_tenants:
            return (
                f"tenant budget exhausted "
                f"({active_tenants}/{self.max_tenants} active)"
            )
        if self.memory_budget_mb is not None:
            rss = process_rss_mb()
            if rss > self.memory_budget_mb * ADMISSION_RSS_FRACTION:
                return (
                    f"memory budget exhausted "
                    f"(RSS {rss:.0f} MB of {self.memory_budget_mb} MB)"
                )
        return None


def _pending_gauge():
    """The fleet's spooled-but-unpumped segments.  A tenant's count
    joins the sum when its pump starts and leaves it when the pump ends;
    in between, each ACK and each pump call move it by what they changed."""
    return obs.gauge(
        "service_pending_segments",
        "spooled-but-unpumped segments across the fleet",
    )


def _segment_counts(raw: object) -> Optional[Dict[str, int]]:
    """An untrusted ``{"node/tid": n}`` map, or None when it is not a
    map of JSON integers."""
    if not isinstance(raw, dict):
        return None
    try:
        return {str(k): protocol.wire_int(v) for k, v in raw.items()}
    except (TypeError, ValueError):
        return None


def load_service_file(data_dir: str) -> Dict[str, object]:
    with open(os.path.join(data_dir, SERVICE_FILE)) as fh:
        return json.load(fh)


class DetectionServer:
    """Long-running detection service over a data directory."""

    def __init__(
        self,
        data_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        limits: Optional[FleetBudget] = None,
        window: Optional[int] = None,
        http_port: Optional[int] = None,
    ) -> None:
        self.data_dir = os.path.abspath(data_dir)
        self.host = host
        self.port = port
        self.limits = limits if limits is not None else FleetBudget()
        self.window = window
        self.http_port = http_port
        self.tenants: Dict[str, Tenant] = {}
        self._pumps: Dict[str, threading.Thread] = {}
        self._lock = threading.RLock()
        self._stopping = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self.http: Optional[ObsHttpServer] = None
        self.registry = MetricsRegistry()
        #: The process-wide registry ``start`` replaced; ``stop`` puts
        #: it back.
        self._replaced_registry: Optional[MetricsRegistry] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def tenants_dir(self) -> str:
        return os.path.join(self.data_dir, "tenants")

    def start(self) -> "DetectionServer":
        os.makedirs(self.tenants_dir, exist_ok=True)
        self._replaced_registry = set_registry(self.registry)
        self._recover_tenants()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.host, self.port))
        self._listener.listen(64)
        self.port = self._listener.getsockname()[1]
        if self.http_port is not None:
            self.http = ObsHttpServer(
                host=self.host,
                port=self.http_port,
                readiness=self._readiness,
                registry=self.registry,
            ).start()
        self._write_service_file()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="service-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _close_listener(self) -> None:
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                # close() alone does not wake a thread blocked in
                # accept(); shutdown() does.
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            listener.close()

    def stop(self) -> None:
        self._stopping.set()
        self._close_listener()
        with self._lock:
            tenants = list(self.tenants.values())
            pumps = list(self._pumps.values())
        for tenant in tenants:
            tenant.wakeup.set()
            tenant.settled.set()  # releases every held ``report``
        for pump in pumps:
            pump.join(timeout=10)
        for tenant in tenants:
            if not tenant.done:
                with tenant.lock:
                    tenant.maybe_checkpoint(force=True)
        if self.http is not None:
            self.http.stop()
            self.http = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None
        if self._replaced_registry is not None:
            set_registry(self._replaced_registry)
            self._replaced_registry = None

    @property
    def stopping(self) -> bool:
        return self._stopping.is_set()

    def _write_service_file(self) -> None:
        doc = {
            "format": "repro-service",
            "version": protocol.PROTOCOL_VERSION,
            "host": self.host,
            "port": self.port,
            "pid": os.getpid(),
            "http_port": self.http.port if self.http is not None else None,
            "data_dir": self.data_dir,
        }
        atomic_write(
            os.path.join(self.data_dir, SERVICE_FILE),
            json.dumps(doc, indent=2, sort_keys=True).encode(),
        )

    # -- recovery ----------------------------------------------------------

    def _recover_tenants(self) -> None:
        """Rebuild every tenant found under the data directory and
        restart pumps for the unfinished ones.  The spool (durable,
        ACK-ordered) is the source of truth; see ``Tenant.recover``."""
        for entry in sorted(os.listdir(self.tenants_dir)):
            root = os.path.join(self.tenants_dir, entry)
            if not os.path.isfile(os.path.join(root, "state.json")):
                continue
            try:
                tenant = Tenant.recover(entry, root, window=self.window)
            except (OSError, ValueError, KeyError) as exc:
                obs.counter(
                    "service_recover_failures_total",
                    "tenant directories that failed recovery",
                ).labels(tenant=entry).inc()
                # Leave the directory for the operator; do not serve it.
                print(f"service: tenant {entry} failed recovery: {exc}")
                continue
            self.tenants[entry] = tenant
            obs.counter(
                "service_tenants_recovered_total",
                "tenants rebuilt from disk at startup",
            ).inc()
            if not tenant.done and not tenant.breaker.quarantined:
                self._start_pump(tenant)

    # -- pumps -------------------------------------------------------------

    def _start_pump(self, tenant: Tenant) -> None:
        _pending_gauge().inc(tenant.pending_segments())  # a recovered spool
        thread = threading.Thread(
            target=self._pump_loop,
            args=(tenant,),
            name=f"pump-{tenant.tenant_id}",
            daemon=True,
        )
        self._pumps[tenant.tenant_id] = thread
        thread.start()

    def _pump_loop(self, tenant: Tenant) -> None:
        gauge = _pending_gauge()
        while not self._stopping.is_set():
            if tenant.breaker.quarantined:
                break
            with tenant.lock:
                pending = tenant.pending_segments()
                advanced = tenant.pump(limit=PUMP_BATCH)
                tenant.maybe_checkpoint()
                drained = tenant.drained
                gauge.dec(pending - tenant.pending_segments())
            if advanced:
                maybe_stall("service_pump")
            if drained:
                with tenant.lock:
                    tenant.write_report()
                break
            if advanced == 0:
                tenant.wakeup.wait(0.05)
                tenant.wakeup.clear()
        with tenant.lock:
            gauge.dec(tenant.pending_segments())

    def _active_tenants(self) -> list:
        return [
            t
            for t in self.tenants.values()
            if not t.done and not t.breaker.quarantined
        ]

    def _readiness(self) -> Tuple[bool, str]:
        if self._stopping.is_set():
            return False, "shutting down"
        with self._lock:
            refusal = self.limits.admit_tenant(len(self._active_tenants()))
        if refusal:
            return False, refusal
        return True, ""

    # -- connections -------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stopping.is_set():
            try:
                conn, _addr = listener.accept()
            except OSError:
                return  # listener closed
            conn.settimeout(60.0)
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        try:
            while not self._stopping.is_set():
                try:
                    frame = protocol.recv_frame(rfile)
                except protocol.ProtocolError as exc:
                    try:
                        protocol.send_frame(
                            wfile, error_frame("protocol", str(exc))
                        )
                    except OSError:
                        pass
                    return
                except (OSError, socket.timeout):
                    return
                if frame is None:
                    return
                doc, body = frame
                started = time.perf_counter()
                response, response_body = self._dispatch(doc, body)
                obs.histogram(
                    "service_request_seconds",
                    "server-side request handling latency",
                ).labels(verb=str(doc.get("verb", "?"))).observe(
                    time.perf_counter() - started
                )
                try:
                    protocol.send_frame(wfile, response, response_body)
                except (OSError, socket.timeout):
                    return
        finally:
            for closer in (rfile.close, wfile.close, conn.close):
                try:
                    closer()
                except OSError:
                    pass

    # -- verb handlers -----------------------------------------------------

    def _dispatch(
        self, doc: Dict[str, object], body: bytes
    ) -> Tuple[Dict[str, object], bytes]:
        """Run one verb; returns the response doc and its body (a
        handler that has one — only ``report`` — returns the pair)."""
        verb = doc.get("verb")
        handler = {
            "hello": self._handle_hello,
            "segment": self._handle_segment,
            "finalize": self._handle_finalize,
            "report": self._handle_report,
            "status": self._handle_status,
        }.get(verb)  # type: ignore[arg-type]
        if handler is None:
            return error_frame("bad_request", f"unknown verb {verb!r}"), b""
        try:
            response = handler(doc, body)
        except Exception as exc:  # never kill the connection loop
            obs.counter(
                "service_handler_errors_total",
                "unexpected exceptions inside verb handlers",
            ).labels(verb=str(verb)).inc()
            return error_frame("internal", f"{type(exc).__name__}: {exc}"), b""
        return response if isinstance(response, tuple) else (response, b"")

    def _tenant_or_error(
        self, doc: Dict[str, object]
    ) -> Tuple[Optional[Tenant], Optional[Dict[str, object]]]:
        tenant_id = doc.get("tenant")
        if not isinstance(tenant_id, str) or not protocol.valid_name(
            tenant_id
        ):
            return None, error_frame("bad_request", "bad tenant id")
        tenant = self.tenants.get(tenant_id)
        if tenant is None:
            return None, error_frame(
                "bad_request", f"unknown tenant {tenant_id!r}; hello first"
            )
        return tenant, None

    def _credits(self, tenant: Tenant) -> int:
        return max(
            0, self.limits.queue_segments - tenant.pending_segments()
        )

    def _session_fields(self, tenant: Tenant) -> Dict[str, object]:
        return {"credits": self._credits(tenant)}

    def _handle_hello(
        self, doc: Dict[str, object], body: bytes
    ) -> Dict[str, object]:
        tenant_id = doc.get("tenant")
        if not isinstance(tenant_id, str) or not protocol.valid_name(
            tenant_id
        ):
            return error_frame("bad_request", "bad tenant id")
        raw_streams = doc.get("streams")
        if not isinstance(raw_streams, list) or not raw_streams:
            return error_frame(
                "bad_request", "hello must declare streams=[[node, tid], ...]"
            )
        try:
            streams = sorted((str(n), protocol.wire_int(t)) for n, t in raw_streams)
        except (TypeError, ValueError):
            return error_frame("bad_request", "malformed stream declaration")
        if not all(protocol.valid_name(node) for node, _tid in streams):
            # Node names become spool path components, like tenant ids.
            return error_frame("bad_request", "bad node name")
        totals = _segment_counts(doc.get("totals") or {})
        if totals is None:
            return error_frame("bad_request", "malformed totals declaration")
        with self._lock:
            tenant = self.tenants.get(tenant_id)
            if tenant is not None:
                if tenant.breaker.quarantined:
                    return error_frame(
                        "quarantined",
                        f"tenant {tenant_id} is quarantined "
                        f"(evidence under {tenant.breaker.quarantine_dir})",
                    )
                if streams != tenant.stream_keys():
                    return error_frame(
                        "bad_request",
                        "hello stream set does not match the existing "
                        "session (sessions are immutable once declared)",
                    )
                problem = tenant.declare_totals(totals)
                if problem is not None:
                    return error_frame("bad_request", problem)
                if totals:
                    tenant.save_state()
                    tenant.wakeup.set()
                return ok_frame(
                    resumed=True,
                    report_ready=tenant.done,
                    **self._session_fields(tenant),
                )
            refusal = self.limits.admit_tenant(len(self._active_tenants()))
            if refusal:
                obs.counter(
                    "service_admission_refusals_total",
                    "hello attempts refused by admission control",
                ).inc()
                return error_frame(
                    "over_capacity",
                    refusal,
                    retry_after_s=RETRY_AFTER["over_capacity"],
                )
            root = os.path.join(self.tenants_dir, tenant_id)
            os.makedirs(root, exist_ok=True)
            tenant = Tenant(tenant_id, root, window=self.window)
            tenant.declare_streams(streams)
            tenant.declare_totals(totals)
            tenant.save_state()
            self.tenants[tenant_id] = tenant
            self._start_pump(tenant)
            obs.gauge(
                "service_tenants_active", "admitted, unfinished tenants"
            ).set(len(self._active_tenants()))
        return ok_frame(resumed=False, **self._session_fields(tenant))

    def _handle_segment(
        self, doc: Dict[str, object], body: bytes
    ) -> Dict[str, object]:
        tenant, err = self._tenant_or_error(doc)
        if err is not None:
            return err
        if tenant.breaker.quarantined:
            return error_frame(
                "quarantined", f"tenant {tenant.tenant_id} is quarantined"
            )
        try:
            node = str(doc["node"])
            tid = protocol.wire_int(doc["tid"])
            index = protocol.wire_int(doc["index"])
        except (KeyError, TypeError, ValueError):
            return error_frame(
                "bad_request", "segment needs node, tid, index"
            )
        if index < 0:
            return error_frame("bad_request", "negative segment index")
        stream = tenant.streams.get((node, tid))
        if stream is None:
            return error_frame(
                "unknown_stream",
                f"stream {node}/{tid} was not declared in hello",
            )
        with tenant.lock:
            if index < stream.received:
                # Duplicate of a durably-spooled segment (client retried
                # across a lost ACK or a server restart): idempotent ok
                # even after finalize, so a full re-ship is always safe.
                return ok_frame(
                    duplicate=True, **self._session_fields(tenant)
                )
            if tenant.finalized:
                return error_frame(
                    "bad_request",
                    "tenant already finalized; no new segments",
                )
            if index > stream.received:
                return error_frame(
                    "out_of_order",
                    f"expected segment {stream.received} for "
                    f"{node}/{tid}, got {index}",
                    expected=stream.received,
                )
            if stream.declared is not None and index >= stream.declared:
                return error_frame(
                    "bad_request",
                    f"stream {node}/{tid} declared {stream.declared} "
                    f"segments; segment {index} is beyond that",
                )
            # Starvation relief bypasses credits: a segment the merge is
            # starved on is the only way the backlog can drain, so
            # refusing it would deadlock the tenant.
            hungry = stream.hungry
        if (
            not hungry
            and tenant.pending_segments() >= self.limits.queue_segments
        ):
            obs.counter(
                "service_backpressure_total",
                "segment uploads deferred by queue backpressure",
            ).labels(tenant=tenant.tenant_id).inc()
            return error_frame(
                "over_queue",
                "tenant ingest queue is full; wait for credits",
                retry_after_s=RETRY_AFTER["over_queue"],
            )
        _count, sealed, reason = verify_segment_bytes(body)
        if reason is not None or not sealed:
            reason = reason or "unsealed segment on the wire"
            tripped = tenant.breaker.record_bad(
                f"{node}-{tid}-{index:04d}.wal", body, reason
            )
            if tripped:
                tenant.save_state()
                tenant.wakeup.set()
                tenant.settled.set()
                return error_frame(
                    "quarantined",
                    f"tenant {tenant.tenant_id} quarantined after "
                    f"{tenant.breaker.bad_streak} damaged segments "
                    f"({reason})",
                )
            return error_frame("bad_segment", reason)
        tenant.breaker.record_good()
        started = time.perf_counter()
        with tenant.lock:
            if index < stream.received:  # raced with a duplicate
                return ok_frame(duplicate=True, **self._session_fields(tenant))
            if index == 0:
                os.makedirs(stream.directory, exist_ok=True)
            atomic_write(stream.segment_path(index), body)
            unparsed = stream.unparsed
            stream.received = index + 1
            _pending_gauge().inc(stream.unparsed - unparsed)
        tenant.wakeup.set()
        obs.counter(
            "service_segments_ingested_total",
            "WAL segments durably spooled",
        ).labels(tenant=tenant.tenant_id).inc()
        obs.histogram(
            "service_ingest_seconds",
            "durable spool latency per segment (server side)",
        ).labels(tenant=tenant.tenant_id).observe(
            time.perf_counter() - started
        )
        return ok_frame(**self._session_fields(tenant))

    def _handle_finalize(
        self, doc: Dict[str, object], body: bytes
    ) -> Dict[str, object]:
        tenant, err = self._tenant_or_error(doc)
        if err is not None:
            return err
        if tenant.breaker.quarantined:
            return error_frame(
                "quarantined", f"tenant {tenant.tenant_id} is quarantined"
            )
        counts = _segment_counts(doc.get("counts"))
        if counts is None:
            return error_frame(
                "bad_request", 'finalize needs counts={"node/tid": n}'
            )
        with tenant.lock:
            # Totals declared at hello are immutable, as on a re-hello.
            problem = tenant.declare_totals(counts)
            if problem is not None:
                return error_frame("bad_request", problem)
            problem = tenant.finalize(counts)
        if problem is not None:
            return error_frame("incomplete", problem)
        tenant.wakeup.set()
        return ok_frame(**self._session_fields(tenant))

    def _handle_report(
        self, doc: Dict[str, object], body: bytes
    ) -> Union[Dict[str, object], Tuple[Dict[str, object], bytes]]:
        tenant, err = self._tenant_or_error(doc)
        if err is not None:
            return err
        wait_s = doc.get("wait_s")
        if (
            isinstance(wait_s, (int, float))
            and wait_s > 0
            and not (tenant.done or tenant.breaker.quarantined)
            and not self._stopping.is_set()
        ):
            # Hold the answer until the report is published (or the
            # tenant is quarantined, or the server stops) rather than
            # have the client poll for it.
            tenant.settled.wait(min(wait_s, REPORT_WAIT_CAP_S))
        if tenant.breaker.quarantined:
            return error_frame(
                "quarantined",
                f"tenant {tenant.tenant_id} is quarantined; no report",
            )
        if not tenant.done:
            return error_frame(
                "not_ready",
                "detection still running",
                retry_after_s=RETRY_AFTER["not_ready"],
            )
        # The canonical report.json bytes ride as the body, verbatim:
        # the frame-JSON size cap does not apply to them and nothing is
        # parsed or re-serialized here.
        with open(tenant.report_path, "rb") as fh:
            return ok_frame(), fh.read()

    def _handle_status(
        self, doc: Dict[str, object], body: bytes
    ) -> Dict[str, object]:
        with self._lock:
            tenants = {
                t.tenant_id: {
                    "done": t.done,
                    "quarantined": t.breaker.quarantined,
                    "finalized": t.finalized,
                    "pending_segments": t.pending_segments(),
                    "received_segments": sum(
                        s.received for s in t.streams.values()
                    ),
                    "records_consumed": (
                        t.session.detector.records_consumed
                        if t.session.detector is not None
                        else 0
                    ),
                }
                for t in self.tenants.values()
            }
        return ok_frame(pid=os.getpid(), tenants=tenants)
