"""Incremental happens-before state for single-pass streaming analysis.

The batch pipeline builds a whole-trace :class:`repro.hb.graph.HBGraph`
plus a reachability closure before the detector asks a single query.
That is the memory cliff the ROADMAP's streaming item targets: the
closure grows quadratically with trace length.  This module keeps HB
state *per open segment* instead, in the style of Roemer & Bond's
online set-based engine:

* every segment carries a sparse vector clock ``{segment: count}`` —
  its knowledge of how far into each other segment it is ordered after;
* an HB *source* op (sock send, thread create/end, rpc create/end,
  zk update, event create) files a snapshot of its segment's clock
  under its pairing tag; the matching *sink* op (recv, begin, join,
  pushed) joins that snapshot into its own segment's clock;
* a *frontier* — the componentwise minimum over every live segment
  clock and every unconsumed snapshot — bounds what any future record
  can still be concurrent with.  Accesses at-or-below the frontier can
  be retired and clock entries at the frontier pruned, which is what
  keeps memory bounded on unbounded streams.

Two deliberate restrictions versus the batch graph (both recorded on
the state and surfaced by the streaming detector):

* pairing is **exactly-once**: a snapshot is consumed by its first
  matching sink.  Batch rules allow one send to order multiple
  recvs/joins; online, an unconsumed snapshot would pin the frontier
  forever.  Later sinks for a consumed tag count as ``unmatched``.
* the ``eserial`` and ``pull`` rule families are whole-trace
  inferences and are dropped (``model.without("eserial", "pull")``).

Within those restrictions the ordering relation is *exactly* the batch
graph's ``happens_before`` (the property test in
``tests/detect/test_streaming.py`` cross-checks them), and the
eviction cadence — the ``window`` — affects memory only, never the
candidate set.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.hb.model import FULL_MODEL, HBModel
from repro.runtime.ops import OpEvent, OpKind
from repro.trace.records import _jsonable, _untuple

__all__ = ["StreamingHBState", "STREAM_UNSUPPORTED_FAMILIES"]

#: Rule families the online engine cannot honor (whole-trace inference).
STREAM_UNSUPPORTED_FAMILIES = ("eserial", "pull")

#: Frontier value meaning "no live clock can still race with anything".
_NO_LIVE_CLOCKS = 1 << 62

#: kind -> (channel it is a sink of, channel it is a source of, model
#: family, whether it ends its segment: no further record uses its clock)
_ROLES = {
    OpKind.THREAD_CREATE: (None, "fork", "fork_join", False),
    OpKind.THREAD_BEGIN: ("fork", None, "fork_join", False),
    OpKind.THREAD_END: (None, "thread_join", "fork_join", True),
    OpKind.THREAD_JOIN: ("thread_join", None, "fork_join", False),
    OpKind.EVENT_CREATE: (None, "event", "event", False),
    OpKind.EVENT_BEGIN: ("event", None, "event", False),
    OpKind.EVENT_END: (None, None, "event", True),
    OpKind.RPC_CREATE: (None, "rpc", "rpc", False),
    OpKind.RPC_BEGIN: ("rpc", None, "rpc", False),
    OpKind.RPC_END: (None, "rpc_join", "rpc", True),
    OpKind.RPC_JOIN: ("rpc_join", None, "rpc", False),
    OpKind.SOCK_SEND: (None, "sock", "socket", False),
    OpKind.SOCK_RECV: ("sock", None, "socket", False),
    OpKind.ZK_UPDATE: (None, "zk", "push", False),
    OpKind.ZK_PUSHED: ("zk", None, "push", False),
}


class StreamingHBState:
    """Bounded-memory happens-before over a seq-ordered record stream."""

    def __init__(
        self,
        model: HBModel = FULL_MODEL,
        expected_streams: Optional[Iterable[int]] = None,
    ) -> None:
        if not model.program_order:
            raise ValueError(
                "StreamingHBState requires program_order=True (segment "
                "clocks assume in-segment ordering)"
            )
        self.model = model.without(*STREAM_UNSUPPORTED_FAMILIES)
        #: kind -> (sink channel, source channel, ends its segment):
        #: ``_ROLES`` for every kind with the model applied once, so
        #: ``observe`` makes one lookup per record (``Enum.__hash__``
        #: runs in Python).  A family switched off pairs nothing; its
        #: kinds still end their segments.
        self._roles = {kind: (None, None, False) for kind in OpKind}
        for kind, (sink, source, family, ends) in _ROLES.items():
            if not getattr(self.model, family):
                sink = source = None
            self._roles[kind] = (sink, source, ends)
        #: segment -> sparse clock {segment: count} (includes own count).
        self._clocks: Dict[int, Dict[int, int]] = {}
        #: (channel, tag) -> clock snapshot of the source, pending a sink.
        self._pending: Dict[Tuple[str, object], Dict[int, int]] = {}
        #: stream (tid) -> its currently open segments.
        self._open: Dict[int, Set[int]] = {}
        self._started: Set[int] = set()
        self._closed_streams: Set[int] = set()
        #: High-water frontier per segment (monotone; retirement floor).
        self._floor: Dict[int, int] = {}
        self._expected: Optional[Set[int]] = (
            set(expected_streams) if expected_streams is not None else None
        )
        self.unmatched: Counter = Counter()
        #: Segments that appeared mid-stream with no matched creating
        #: snapshot — retirement before their birth may have been unsound.
        self.rootless_segments = 0
        self.records_observed = 0
        self._retirement_begun = False

    # -- ingestion ---------------------------------------------------------

    def observe(self, event: OpEvent) -> Tuple[int, int]:
        """Fold one record (next in global seq order) into the state.

        Returns ``(segment, count)`` — the record's logical position,
        which the detector stores for retired-clock-free comparisons.
        """
        self.records_observed += 1
        seg = event.segment
        tid = event.tid
        started_prior = tid in self._started
        clock = self._clocks.get(seg)
        if clock is None:
            clock = {}
            self._clocks[seg] = clock
            self._open.setdefault(tid, set()).add(seg)
            fresh = True
        else:
            fresh = False
        self._started.add(tid)

        kind = event.kind
        sink, source, ends_segment = self._roles[kind]
        joined = False
        if sink is not None:
            snapshot = self._pending.pop((sink, event.obj_id), None)
            if snapshot is None:
                self.unmatched[f"{kind.value}_without_source"] += 1
            else:
                joined = True
                if clock:
                    for s, c in snapshot.items():
                        if clock.get(s, 0) < c:
                            clock[s] = c
                else:
                    clock.update(snapshot)
        if (
            fresh
            and not joined
            and self._retirement_begun
            and (
                started_prior
                or self._expected is None
                or tid not in self._expected
            )
        ):
            # A segment born without an ordering root after retirement
            # has begun: earlier retirements assumed no such segment
            # could appear, so already-retired accesses may in fact be
            # concurrent with it.  Surfaced as reduced confidence.
            self.rootless_segments += 1

        count = clock.get(seg, 0) + 1
        clock[seg] = count

        if source is not None:
            key = (source, event.obj_id)
            if key in self._pending:
                self.unmatched[f"{kind.value}_replaced_pending"] += 1
            self._pending[key] = dict(clock)

        if ends_segment:
            self._close_segment(tid, seg)
        return seg, count

    def _close_segment(self, tid: int, seg: int) -> None:
        open_segs = self._open.get(tid)
        if open_segs is not None:
            open_segs.discard(seg)
        # The clock is no longer a frontier constraint and no future
        # record will extend it; drop it.
        self._clocks.pop(seg, None)

    def close_stream(self, tid: int) -> None:
        """Mark a stream exhausted (its WAL reader hit end-of-stream):
        its segments stop constraining the frontier."""
        self._closed_streams.add(tid)
        self._started.add(tid)
        if self._expected is not None:
            self._expected.add(tid)
        for seg in self._open.pop(tid, set()):
            self._clocks.pop(seg, None)

    # -- queries -----------------------------------------------------------

    def ordered_before(self, a_seg: int, a_count: int, b_event_seg: int) -> bool:
        """Was position ``(a_seg, a_count)`` ordered before the record
        most recently observed in ``b_event_seg``?  Call immediately
        after ``observe`` for that record."""
        if a_seg == b_event_seg:
            return True  # program order: a_count < current count
        clock = self._clocks.get(b_event_seg)
        if clock is None:
            return False
        return clock.get(a_seg, 0) >= a_count

    def frontier(self, segments: Iterable[int]) -> Dict[int, int]:
        """Componentwise-minimum clock over everything still live, for
        the given segments.  Any position at-or-below the frontier is
        ordered before every future record; the floor is monotone."""
        segments = list(segments)
        if self._expected is not None and (self._expected - self._started):
            # A stream we know about has not produced its first record:
            # it could still be concurrent with everything.
            return {s: self._floor.get(s, 0) for s in segments}
        live: List[Dict[int, int]] = []
        for tid, open_segs in self._open.items():
            if tid in self._closed_streams:
                continue
            for seg in open_segs:
                clock = self._clocks.get(seg)
                if clock is not None:
                    live.append(clock)
        live.extend(self._pending.values())
        out: Dict[int, int] = {}
        for s in segments:
            floor = self._floor.get(s, 0)
            if live:
                m = min(c.get(s, floor) for c in live)
                if m < floor:
                    m = floor
            else:
                m = _NO_LIVE_CLOCKS
            self._floor[s] = m
            if m > 0:
                self._retirement_begun = True
            out[s] = m
        return out

    def prune(self, frontier: Dict[int, int]) -> int:
        """Drop clock entries at-or-below the frontier (only entries for
        segments the frontier was computed over).  Returns entries
        removed."""
        removed = 0
        for seg, clock in self._clocks.items():
            for s in [
                s
                for s, v in clock.items()
                if s != seg and s in frontier and v <= frontier[s]
            ]:
                del clock[s]
                removed += 1
        for snapshot in self._pending.values():
            for s in [
                s
                for s, v in snapshot.items()
                if s in frontier and v <= frontier[s]
            ]:
                del snapshot[s]
                removed += 1
        return removed

    def stats(self) -> Dict[str, int]:
        return {
            "segments_live": len(self._clocks),
            "clock_entries": sum(len(c) for c in self._clocks.values()),
            "pending_snapshots": len(self._pending),
            "pending_entries": sum(len(c) for c in self._pending.values()),
            "streams_started": len(self._started),
            "streams_closed": len(self._closed_streams),
            "rootless_segments": self.rootless_segments,
            "records_observed": self.records_observed,
        }

    # -- checkpointing -----------------------------------------------------

    def to_snapshot(self) -> Dict[str, object]:
        return {
            "model": self.model.describe(),
            "clocks": {
                str(seg): {str(s): c for s, c in clock.items()}
                for seg, clock in self._clocks.items()
            },
            "pending": [
                [channel, _jsonable(tag), {str(s): c for s, c in snap.items()}]
                for (channel, tag), snap in self._pending.items()
            ],
            "open": {
                str(tid): sorted(segs) for tid, segs in self._open.items()
            },
            "started": sorted(self._started),
            "closed_streams": sorted(self._closed_streams),
            "floor": {str(s): v for s, v in self._floor.items()},
            "expected": (
                sorted(self._expected) if self._expected is not None else None
            ),
            "unmatched": dict(self.unmatched),
            "rootless_segments": self.rootless_segments,
            "records_observed": self.records_observed,
        }

    @classmethod
    def from_snapshot(
        cls, snapshot: Dict[str, object], model: HBModel = FULL_MODEL
    ) -> "StreamingHBState":
        self = cls(model=model)
        self._clocks = {
            int(seg): {int(s): c for s, c in clock.items()}
            for seg, clock in snapshot["clocks"].items()
        }
        self._pending = {
            (channel, _untuple(tag)): {int(s): c for s, c in snap.items()}
            for channel, tag, snap in snapshot["pending"]
        }
        self._open = {
            int(tid): set(segs) for tid, segs in snapshot["open"].items()
        }
        self._started = set(snapshot["started"])
        self._closed_streams = set(snapshot["closed_streams"])
        self._floor = {int(s): v for s, v in snapshot["floor"].items()}
        expected = snapshot.get("expected")
        self._expected = set(expected) if expected is not None else None
        self.unmatched = Counter(snapshot.get("unmatched", {}))
        self.rootless_segments = int(snapshot.get("rootless_segments", 0))
        self.records_observed = int(snapshot.get("records_observed", 0))
        self._retirement_begun = any(v > 0 for v in self._floor.values())
        return self
