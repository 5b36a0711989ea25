"""Trace container: per-thread record streams plus whole-run views.

The paper writes one trace file per thread of every process of every node
(Section 3.1); the analyzer then merges them.  ``Trace`` keeps both views:
``per_thread`` preserves the file structure, while ``records`` is the
merged, seq-ordered stream the HB analysis consumes.  On disk a trace is
a WAL directory (``repro.trace.wal``): one segment stream per thread.
"""

from __future__ import annotations

import bisect
import os
from collections import Counter, defaultdict
from typing import Any, Dict, List, Optional

from repro.errors import TraceFormatError
from repro.framing import Damage, read_document, write_document
from repro.runtime.ops import MEM_KINDS, OpEvent, OpKind
from repro.trace.records import category_of, dump_records
from repro.trace.wal import WalSink, is_segment_header, list_stream_segments, stream_key


class Trace:
    """All records of one run, ordered by global sequence number."""

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self.records: List[OpEvent] = []
        self._by_thread: Dict[int, List[OpEvent]] = defaultdict(list)
        #: True when this trace is known to be incomplete (rebuilt by
        #: WAL salvage with quarantined/lost records).  The HB analysis
        #: reads it to mark downstream results ``confidence: "partial"``.
        self.partial = False
        #: Memory accesses rejected by the scope policy (selective
        #: tracing loss).
        self.dropped_mem = 0
        #: Events skipped because their node was absent from the bound
        #: cluster dict (pre-``bind()`` emission or unknown substrate).
        self.skipped_unbound = 0
        #: Events skipped from nodes marked untraced (the uninstrumented
        #: coordination-service contract).
        self.skipped_untraced = 0

    def append(self, event: OpEvent) -> None:
        # Records are *emitted* slightly out of order (a thread records its
        # operation after yielding to the scheduler), so keep the merged
        # stream sorted by sequence number on insert.  Inserts are near the
        # tail, so this stays cheap.
        if self.records and self.records[-1].seq > event.seq:
            bisect.insort(self.records, event, key=lambda r: r.seq)
        else:
            self.records.append(event)
        self._by_thread[event.tid].append(event)

    # -- views ---------------------------------------------------------------

    @property
    def per_thread(self) -> Dict[int, List[OpEvent]]:
        return dict(self._by_thread)

    def mem_accesses(self) -> List[OpEvent]:
        return [r for r in self.records if r.kind in MEM_KINDS]

    def of_kind(self, *kinds: OpKind) -> List[OpEvent]:
        wanted = set(kinds)
        return [r for r in self.records if r.kind in wanted]

    def by_seq(self, seq: int) -> Optional[OpEvent]:
        i = bisect.bisect_left(self.records, seq, key=lambda r: r.seq)
        if i < len(self.records) and self.records[i].seq == seq:
            return self.records[i]
        return None

    # -- statistics (Tables 6 and 7) ------------------------------------------

    def category_counts(self) -> Counter:
        return Counter(category_of(r.kind) for r in self.records)

    def size_bytes(self) -> int:
        """Serialized size — the paper's 'trace size' metric."""
        return sum(len(dump_records(recs)) + 1 for recs in self._by_thread.values())

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # -- serialization ---------------------------------------------------------

    def save(self, directory: str) -> None:
        """Write the trace as a WAL directory, one sealed segment per
        stream, plus ``meta.json`` (loss counters, records per stream),
        replacing any trace in ``directory``; all of it is fsynced."""
        sink = WalSink(directory, len(self.records) + 1, on_seal=_fsync)
        for record in self.records:
            sink.append(record)
        sink.close()
        meta = {key: getattr(self, key) for key in _META}
        meta["streams"] = Counter(stream_key(r.node, r.tid) for r in self.records)
        write_document(os.path.join(directory, "meta.json"), meta)

    @classmethod
    def load(cls, directory: str, name: str = "trace") -> "Trace":
        """Read a trace :meth:`save` wrote.  Strict: any damage, a missing
        file included, raises ``TraceFormatError`` naming the file and
        byte offset; ``salvage_trace`` is the tolerant reader."""
        from repro.trace.salvage import salvage_trace

        meta = read_meta(directory) or {}
        streams = list_stream_segments(directory)
        trace, report = cls(name), None
        if streams:  # an empty trace is a bare meta.json
            trace, report = salvage_trace(directory, name)
        damage = _first_damage(directory, streams, report, meta.get("streams"))
        if damage is not None:
            raise TraceFormatError(f"damaged trace {directory}: {damage}")
        for key in _META:
            setattr(trace, key, meta[key])
        return trace


#: Loss counters no record can tell; ``save`` keeps them beside the streams.
_META = ("partial", "dropped_mem", "skipped_unbound", "skipped_untraced")


def read_meta(directory: str) -> Optional[Dict[str, Any]]:
    """A saved trace's loss counters and records per stream; None when a
    WAL has none (the tracer's).  ``TraceFormatError`` if damaged, or if
    it marks a trace whose memory accesses were sampled when recorded:
    such a trace is not complete, and nothing here can say what it lost."""
    path = os.path.join(directory, "meta.json")
    if not os.path.exists(path):
        return None
    meta = read_document(path)
    if isinstance(meta, Damage):
        raise TraceFormatError(
            f"damaged trace {directory}: meta.json byte 0: {meta.detail}"
        )
    if meta.get("sampled"):
        raise TraceFormatError(
            f"sampled trace {directory}: meta.json says its memory accesses "
            "were sampled when traced; re-record it in full and sample with "
            "`dcatch stream --sampling`"
        )
    return meta


def _fsync(_node: str, _tid: int, _index: int, path: str) -> None:
    with open(path, "rb") as fh:
        os.fsync(fh.fileno())


def _first_damage(directory: str, streams: Dict, report, expected) -> Optional[str]:
    """Where a strict reader stops: a quarantined line, no ``meta.json``,
    a stream that is not one sealed ``seg-0000.wal`` under its own
    header, or streams and record counts other than ``meta.json``'s."""
    if report is not None and report.quarantined:
        first = report.quarantined[0]
        return f"{first.path} byte {first.byte_start}: {first.reason}"
    if expected is None:
        return "meta.json byte 0: no such file"
    for (node, tid), paths in streams.items():
        key = stream_key(node, tid)
        thread = report.threads[key]
        if len(paths) != 1 or thread.missing_segments:
            return f"{key} byte 0: not one segment seg-0000.wal"
        where = os.path.relpath(paths[0], directory)
        if thread.unsealed_segments:
            return f"{where} byte {os.path.getsize(paths[0])}: segment is not sealed"
        with open(paths[0], "rb") as fh:
            if not is_segment_header(fh.readline(), node, tid, 0):
                return f"{where} byte 0: not this segment's header"
        listed = expected.pop(key, 0)
        if thread.records_recovered != listed:
            return f"{where} byte 0: not the {listed} records meta.json lists"
    if expected:
        return f"{min(expected)} byte 0: missing stream meta.json lists"
    return None
