"""Per-tenant state for the detection service.

Each admitted tenant owns a directory under ``<data_dir>/tenants/<id>``::

    state.json            durable session state (streams, finalize, quarantine)
    spool/<node>/thread-<tid>/seg-NNNN.wal    ingested segment bytes
    stream.ckpt           the stream session's checkpoint (an optimisation)
    report.json           canonical detection report, written once
    quarantine/           evidence bytes kept by the circuit breaker

The **spool is the WAL directory layout** — byte-for-byte the segments
the tenant's tracer wrote.  That is what makes the acceptance check
cheap: an offline ``repro stream <tenant>/spool`` pass over the spool
must produce the same canonical report the service did.

Ingestion is crash-ordered: a segment is ACKed only after its bytes are
durably in the spool (``repro.framing.atomic_write``), and everything
else — ``state.json``, the detector checkpoint — is reconstructible from the
spool plus the deterministic merge.  ``kill -9`` therefore loses
nothing that was ever acknowledged.

The detector pass — merge by ``seq``, raw-record watermark,
checkpoint, replay on resume, confidence — is the offline ``stream``
pass's (unsampled): one :class:`repro.detect.streaming.StreamSession` over
:func:`~repro.detect.streaming.merge_by_seq`.  The tenant feeds it
:class:`_SpoolStream` cursors, which *starve* (segments arrive
interleaved across streams); the merge then stalls rather than pop out
of order, so the consumed prefix is deterministic whatever the timing.
"""

from __future__ import annotations

import json
import os
import threading
from collections import Counter, deque
from functools import cached_property
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.detect.streaming import (
    DEFAULT_WINDOW,
    STARVED,
    StreamSession,
    merge_by_seq,
)
from repro.errors import CheckpointError
from repro.framing import atomic_write, read_document, write_document
from repro.hb.model import FULL_MODEL
from repro.runtime.ops import OpEvent
from repro.service.breaker import CircuitBreaker
from repro.service.protocol import stream_key_str
from repro.service.report import render_report, report_from_stream_result
from repro.trace.wal import (
    WalStreamReader,
    list_stream_segments,
    segment_name,
    stream_dir,
)

__all__ = ["Tenant", "StreamKey", "TENANT_STATE_FORMAT"]

StreamKey = Tuple[str, int]  # (node, tid)

TENANT_STATE_FORMAT = "repro-service-tenant"
#: Version 2 moved ``state.json`` into the ``write_document`` envelope;
#: version 3 dropped the sampling flag (a tenant is never sampled).  An
#: older directory is refused at recovery: a version-2 tenant may hold a
#: sampled checkpoint, and replaying it unsampled would mix the two.
TENANT_STATE_VERSION = 3


class _SpoolStream:
    """One (node, tid) stream: spooled segment files plus the parse
    cursor feeding the merge."""

    def __init__(
        self, node: str, tid: int, directory: str, damage: Counter
    ) -> None:
        self.tid = tid
        self.key: StreamKey = (node, tid)
        self.directory = directory
        #: The same verified, truncate-at-first-damage reader the
        #: offline ``stream`` pass uses: a segment that rots after its
        #: ACK ends this stream exactly where offline would end it.
        self.reader = WalStreamReader(damage)
        #: Segments durably spooled (next expected upload index).
        self.received = 0
        #: Segments fully parsed into the merge buffer.
        self.consumed_segments = 0
        #: Final segment count, set by ``finalize``.
        self.declared: Optional[int] = None
        self.pending: Deque[OpEvent] = deque()
        self.closed = False  # the merge has seen this stream end

    def segment_path(self, index: int) -> str:
        return os.path.join(self.directory, segment_name(index))

    @property
    def unparsed(self) -> int:
        """Spooled segments still to be parsed into the merge buffer
        (none once damage has truncated the stream)."""
        if self.reader.truncated:
            return 0
        return self.received - self.consumed_segments

    @property
    def hungry(self) -> bool:
        """Nothing buffered (but the head the merge may hold) and
        nothing spooled to parse: the k-way merge is starved on this
        stream, or one pop from it, so backpressure must *never* refuse
        its next segment.  Without this carve-out a tenant with more
        streams than queue credits deadlocks — the credits fill with
        segments parked behind non-empty buffers while the merge starves
        on streams that were never allowed to ship, and the backlog can
        then never drain."""
        return not self.pending and self.unparsed == 0 and not self.closed

    def poll(self) -> object:
        """The merge's cursor: the next record (parsing the next spooled
        segment when the buffer is empty), ``STARVED`` while more may
        come, ``None`` at the declared total or the first damage."""
        while not self.pending and self.unparsed:
            path = self.segment_path(self.consumed_segments)
            self.pending.extend(self.reader.segment(path))
            self.consumed_segments += 1
        if self.pending:
            return self.pending.popleft()
        if not self.reader.truncated and (
            self.declared is None or self.consumed_segments < self.declared
        ):
            return STARVED
        self.closed = True
        return None


class Tenant:
    """One tenant's full lifecycle: ingest -> merge -> detect -> report."""

    def __init__(
        self,
        tenant_id: str,
        root: str,
        window: Optional[int] = None,
    ) -> None:
        self.tenant_id = tenant_id
        self.root = root
        self.window = window if window is not None else DEFAULT_WINDOW
        self.streams: Dict[StreamKey, _SpoolStream] = {}
        self.finalized = False
        self.done = False
        self.session = StreamSession(
            FULL_MODEL,
            self.window,
            f"service:{tenant_id}",
            self.checkpoint_path,
        )
        self.damage = self.session.damage
        self.breaker = CircuitBreaker(
            tenant=tenant_id,
            quarantine_dir=os.path.join(root, "quarantine"),
        )
        self.lock = threading.RLock()
        #: Pump wakeup: set on new segments / finalize / shutdown.
        self.wakeup = threading.Event()
        #: Set once ``report`` has its final answer — the report is
        #: published or the tenant quarantined — or the server is
        #: stopping; a ``report`` carrying ``wait_s`` waits on it.
        self.settled = threading.Event()

    # -- paths -------------------------------------------------------------

    @property
    def spool_dir(self) -> str:
        return os.path.join(self.root, "spool")

    @property
    def state_path(self) -> str:
        return os.path.join(self.root, "state.json")

    @property
    def checkpoint_path(self) -> str:
        return os.path.join(self.root, "stream.ckpt")

    @property
    def report_path(self) -> str:
        return os.path.join(self.root, "report.json")

    @property
    def consumed_raw(self) -> int:
        return self.session.consumed_raw

    # -- durable state -----------------------------------------------------

    def save_state(self) -> None:
        doc = {
            "format": TENANT_STATE_FORMAT,
            "version": TENANT_STATE_VERSION,
            "tenant": self.tenant_id,
            "streams": [[node, tid] for node, tid in sorted(self.streams)],
            "finalized": self.finalized,
            "declared": {
                stream_key_str(s.key): s.declared
                for s in self.streams.values()
                if s.declared is not None
            },
            "quarantined": self.breaker.quarantined,
            "bad_total": self.breaker.bad_total,
            "window": self.window,
        }
        write_document(self.state_path, doc)

    @classmethod
    def recover(
        cls, tenant_id: str, root: str, window: Optional[int] = None
    ) -> "Tenant":
        """Rebuild a tenant from its directory after a restart.

        ``state.json`` restores the session (streams, finalize,
        quarantine); the **spool is the source of truth** for what was
        durably ingested — received counts are re-derived by listing
        it, never trusted from state.  The session checkpoint only
        saves already-retired work: one that cannot be used is
        discarded (and counted) and the spool is replayed from record
        0.  ``window=None`` means the window in ``state.json``."""
        doc = read_document(os.path.join(root, "state.json"))
        if (
            not isinstance(doc, dict)
            or doc.get("format") != TENANT_STATE_FORMAT
            or doc.get("version") != TENANT_STATE_VERSION
        ):
            raise ValueError(
                f"{root}: not a version-{TENANT_STATE_VERSION} tenant "
                "state document; a directory from an older server is "
                "not recovered"
            )
        if window is None:
            window = doc.get("window")
        self = cls(tenant_id, root, window=window)
        self.declare_streams(
            [(str(n), int(t)) for n, t in doc.get("streams", [])]
        )
        self.breaker.quarantined = bool(doc.get("quarantined"))
        self.breaker.bad_total = int(doc.get("bad_total", 0))
        for key, paths in list_stream_segments(self.spool_dir).items():
            stream = self.streams.get(key)
            if stream is not None:
                stream.received = len(paths)
        declared = {
            key: int(count)
            for key, count in (doc.get("declared") or {}).items()
        }
        # Totals may have been declared at hello, before finalize; they
        # gate mid-session stream closes, so restore them either way.
        self.declare_totals(declared)
        if doc.get("finalized"):
            self.finalize(
                {
                    stream_key_str(s.key): declared.get(
                        stream_key_str(s.key), s.received
                    )
                    for s in self.streams.values()
                },
                persist=False,
            )
        if os.path.exists(self.report_path):
            self.done = True
            self.settled.set()
        else:
            try:
                self.session.resume()
            except CheckpointError as exc:
                obs.counter(
                    "service_checkpoints_discarded_total",
                    "unusable tenant checkpoints discarded at recovery",
                ).labels(tenant=tenant_id).inc()
                print(f"service: tenant {tenant_id} checkpoint discarded: {exc}")
        return self

    # -- session -----------------------------------------------------------

    def declare_streams(self, keys: List[StreamKey]) -> None:
        for node, tid in keys:
            key = (node, tid)
            if key in self.streams:
                continue
            self.streams[key] = _SpoolStream(
                node, tid, stream_dir(self.spool_dir, node, tid), self.damage
            )

    def stream_keys(self) -> List[StreamKey]:
        return sorted(self.streams)

    def pending_segments(self) -> int:
        """Spooled-but-unparsed segments across all streams (the
        tenant's queue depth, governing credits)."""
        return sum(s.unparsed for s in self.streams.values())

    def declare_totals(self, totals: Dict[str, int]) -> Optional[str]:
        """Record final per-stream segment counts announced at hello.

        Lets the merge close a fully-shipped stream without waiting
        for finalize — otherwise a short stream starves the merge (and
        freezes the queue drain) until every other stream finishes.
        Returns an error message, and changes nothing, on a negative
        total or a conflicting re-declaration."""
        with self.lock:
            declared = {}
            for stream in self.streams.values():
                total = totals.get(stream_key_str(stream.key))
                if total is None:
                    continue
                if total < 0:
                    return "negative segment total"
                if stream.declared is not None and stream.declared != total:
                    return (
                        f"stream {stream_key_str(stream.key)} total changed "
                        f"({stream.declared} -> {total}); sessions are "
                        "immutable once declared"
                    )
                declared[stream] = total
            for stream, total in declared.items():
                stream.declared = total
        return None

    def finalize(
        self, counts: Dict[str, int], persist: bool = True
    ) -> Optional[str]:
        """Record the tenant's declared final segment counts.  Returns
        an error message when a declared stream is still missing
        segments (the client should re-ship and retry)."""
        for stream in self.streams.values():
            declared = counts.get(stream_key_str(stream.key))
            if declared is None:
                return f"finalize missing stream {stream_key_str(stream.key)}"
            if stream.received < declared:
                return (
                    f"stream {stream_key_str(stream.key)} has "
                    f"{stream.received}/{declared} segments; re-ship"
                )
        for stream in self.streams.values():
            stream.declared = counts[stream_key_str(stream.key)]
        self.finalized = True
        if persist:
            self.save_state()
        return None

    # -- the pump ----------------------------------------------------------

    @cached_property
    def _merged(self) -> Iterator[Optional[OpEvent]]:
        """Built on the first pump: every stream is declared by then."""
        detector = self.session.open([tid for _, tid in self.streams])
        return merge_by_seq(
            [(s.tid, s.poll) for s in self.streams.values()],
            detector.close_stream,
        )

    def pump(self, limit: Optional[int] = None) -> int:
        """Drain the merge into the session as far as seq order
        allows, up to ``limit`` raw records (keeps the pump
        preemptible).  Returns the number of raw records advanced
        (0 means the merge is starved — waiting on more segments)."""
        return self.session.pump(self._merged, limit)

    def maybe_checkpoint(self, force: bool = False) -> bool:
        """Save the session checkpoint when its cadence says so."""
        saved = self.session.maybe_checkpoint(force)
        if saved:
            obs.counter(
                "service_checkpoints_total", "per-tenant detector checkpoints"
            ).labels(tenant=self.tenant_id).inc()
        return saved

    @property
    def drained(self) -> bool:
        """Every declared stream parsed, merged, and closed."""
        return self.finalized and all(
            s.closed for s in self.streams.values()
        )

    def write_report(self) -> Dict[str, object]:
        """Finish the session and atomically publish the canonical
        report.  Idempotent: an existing report is returned as-is."""
        if os.path.exists(self.report_path):
            with open(self.report_path) as fh:
                return json.load(fh)
        result = self.session.finish()
        doc = report_from_stream_result(self.tenant_id, result)
        atomic_write(self.report_path, render_report(doc))
        self.done = True
        self.settled.set()
        obs.counter(
            "service_reports_total", "tenant reports published"
        ).labels(tenant=self.tenant_id, confidence=result.confidence).inc()
        return doc
