"""Incremental happens-before state for single-pass streaming analysis.

The batch pipeline builds a whole-trace :class:`repro.hb.graph.HBGraph`
plus a reachability closure before the detector asks a single query.
That is the memory cliff the ROADMAP's streaming item targets: the
closure grows quadratically with trace length.  This module keeps HB
state *per open segment* instead, in the style of Roemer & Bond's
online set-based engine:

* every segment carries a vector clock — its knowledge of how far into
  each other segment it is ordered after — stored copy-on-write so a
  record costs what changes, not how wide the clock is: the segment's
  own count is a scalar, and the other segments' counts are a shared,
  never-mutated *base* plus a small private *delta* of the entries
  that exceed it.  A base remembers the segment that *folded* it (its
  origin) and when (its version);
* an HB *source* op (sock send, thread create/end, rpc create/end,
  zk update, event create) files a snapshot of its segment's clock
  under its pairing tag: the own count, a reference to the base and a
  copy of the delta (folded into a new base first once the delta has
  outgrown ``FOLD_THRESHOLD`` entries);
* the matching *sink* op (recv, begin, join, pushed) joins that
  snapshot into its own segment's clock.  When the snapshot's base is
  empty, is the sink's own base or an older fold from the same origin,
  or was folded by the sink's segment itself, the sink already knows
  it and applies only the snapshot's delta and own count; when the
  sink's base is empty or an older fold from the snapshot base's
  origin, the sink adopts the snapshot's base and keeps the delta
  entries that exceed it.  Only a join across two unrelated non-empty
  bases (say two hubs feeding each other) still costs O(width): the
  sink then adopts the snapshot's base and carries its own excess in
  the delta until its next fold;
* a *frontier* — the componentwise minimum over every live segment
  clock and every unconsumed snapshot — bounds what any future record
  can still be concurrent with.  Accesses at-or-below the frontier can
  be retired and clock entries at the frontier pruned (each shared
  base once), which is what keeps memory bounded on unbounded streams.

Every query, the statistics and the snapshot see the *logical* clock
— the pointwise maximum of base, delta and own count — so the sharing
never shows outside this module.

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
from repro.runtime.ops import MEM_WRITE, OpEvent, OpKind
from repro.trace.records import _jsonable

__all__ = ["StreamingHBState", "STREAM_UNSUPPORTED_FAMILIES"]

#: Rule families the online engine cannot honor (whole-trace inference).
STREAM_UNSUPPORTED_FAMILIES = ("eserial", "pull")

#: Frontier value meaning "no live clock can still race with anything".
_NO_LIVE_CLOCKS = 1 << 62

#: A source whose private delta has more entries than this folds it
#: into a new shared base before filing its snapshot.
FOLD_THRESHOLD = 32

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


class _Base(dict):
    """A shared clock base ``{segment: count}``; never mutated once
    published.  ``origin`` is the uid of the clock that folded it and
    ``version`` orders the folds: a later fold from the same origin
    dominates an earlier one pointwise, since clocks only grow (and
    pruning shrinks every clock and base alike)."""

    __slots__ = ("origin", "version")

    def __init__(self, entries: Dict[int, int], origin: int, version: int):
        super().__init__(entries)
        self.origin = origin
        self.version = version


_EMPTY = _Base({}, 0, 0)


class _Clock:
    """One open segment's clock: logically ``{**base, **delta, own
    segment: own}``.  Invariant: every delta entry exceeds the base's
    entry for its segment, and the delta never holds the own segment
    (``own`` dominates any base entry for it)."""

    __slots__ = ("uid", "own", "base", "delta")

    def __init__(self, uid: int, own: int = 0, base: _Base = _EMPTY) -> None:
        self.uid = uid
        self.own = own
        self.base = base
        self.delta: Dict[int, int] = {}


#: A pending source snapshot: (source segment, its count then — 0 once
#: pruned —, base, private delta).
_Snapshot = Tuple[int, int, _Base, Dict[int, int]]


def _entries(own_seg: int, own: int, base: _Base, delta) -> int:
    """Size of the logical clock ``{**base, **delta, own_seg: own}``."""
    size = len(base) + sum(1 for s in delta if s not in base)
    if own and own_seg not in base:
        size += 1
    return size


def _logical(own_seg, own: int, base: _Base, delta) -> Dict[int, int]:
    clock = dict(base)
    clock.update(delta)
    if own:
        clock[own_seg] = own
    return clock


def _prune_delta(delta: Dict[int, int], frontier: Dict[int, int]) -> None:
    for s in [s for s, v in delta.items() if s in frontier and v <= frontier[s]]:
        del delta[s]


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
        #: segment -> its clock.
        self._clocks: Dict[int, _Clock] = {}
        #: (channel, tag) -> clock snapshot of the source, pending a sink.
        self._pending: Dict[Tuple[str, object], _Snapshot] = {}
        #: Clock uids and base versions (0 is the empty base's).
        self._uids = 0
        self._folds = 0
        #: Sinks that took the O(width) join across unrelated bases.
        self.general_joins = 0
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

    def _uid(self) -> int:
        self._uids += 1
        return self._uids

    def _fold(self, entries: Dict[int, int], origin: int) -> _Base:
        self._folds += 1
        return _Base(entries, origin, self._folds)

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
            clock = _Clock(self._uid())
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
                self._join(clock, seg, snapshot)
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

        count = clock.own + 1
        clock.own = count

        if source is not None:
            key = (source, event.obj_id)
            if key in self._pending:
                self.unmatched[f"{kind.value}_replaced_pending"] += 1
            delta = clock.delta
            if len(delta) > FOLD_THRESHOLD:
                entries = dict(clock.base)
                entries.update(delta)
                clock.base = self._fold(entries, clock.uid)
                delta = clock.delta = {}
            self._pending[key] = (seg, count, clock.base, dict(delta))

        if ends_segment:
            self._close_segment(tid, seg)
        return seg, count

    def _join(self, clock: _Clock, seg: int, snapshot: _Snapshot) -> None:
        """``clock`` := pointwise max(clock, snapshot)."""
        src, src_count, sbase, sdelta = snapshot
        base = clock.base
        if not (
            sbase is base
            or not sbase
            or sbase.origin == clock.uid
            or (sbase.origin == base.origin and sbase.version <= base.version)
        ):
            # The sink does not already know the snapshot's base, so it
            # adopts it.  Cheap when its own base is empty or an older
            # fold of the same origin (dominated by the new base);
            # otherwise every entry of the old base is compared.
            if base and sbase.origin != base.origin:
                self.general_joins += 1
                old = dict(base)
                old.update(clock.delta)
            else:
                old = clock.delta
            clock.delta = {s: v for s, v in old.items() if v > sbase.get(s, 0)}
            clock.base = base = sbase
            own = base.get(seg, 0)
            if own > clock.own:
                clock.own = own
        delta = clock.delta
        for s, v in sdelta.items():
            if v > (delta.get(s) or base.get(s, 0)):
                delta[s] = v
        if src_count > (delta.get(src) or base.get(src, 0)):
            delta[src] = src_count
        own = delta.pop(seg, 0)
        if own > clock.own:
            clock.own = own

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

    def concurrent_accesses(
        self,
        seg: int,
        accesses: List[Tuple[int, int, OpEvent]],
        is_write: bool,
    ) -> Tuple[List[OpEvent], int]:
        """The accesses, of one location's ``(segment, count, record)``
        list, that conflict with and are concurrent with the record most
        recently observed in ``seg`` (a write iff ``is_write``): call
        immediately after ``observe`` for that record.  Returns them in
        list order, plus the number of conflicting pairs examined —
        every entry in another segment, and a write unless ``is_write``
        (same-segment entries are ordered by program order).  The
        segment's clock is looked up once; each pair is then one probe,
        and with no clock every examined pair is concurrent."""
        clock = self._clocks.get(seg)
        if clock is None:
            dget = bget = _EMPTY.get
        else:
            dget, bget = clock.delta.get, clock.base.get
        if is_write:
            examined = [a for a in accesses if a[0] != seg]
        else:
            examined = [
                a for a in accesses if a[0] != seg and a[2].kind is MEM_WRITE
            ]
        found = [
            a_event
            for a_seg, a_count, a_event in examined
            if (dget(a_seg) or bget(a_seg, 0)) < a_count
        ]
        return found, len(examined)

    def frontier(self, segments: Iterable[int]) -> Dict[int, int]:
        """Componentwise-minimum clock over everything still live, for
        the given segments.  Any position at-or-below the frontier is
        ordered before every future record; the floor is monotone."""
        segments = list(segments)
        if self._expected is not None and (self._expected - self._started):
            # A stream we know about has not produced its first record:
            # it could still be concurrent with everything.
            return {s: self._floor.get(s, 0) for s in segments}
        live: List[_Snapshot] = []
        for tid, open_segs in self._open.items():
            if tid in self._closed_streams:
                continue
            for seg in open_segs:
                clock = self._clocks.get(seg)
                if clock is not None:
                    live.append((seg, clock.own, clock.base, clock.delta))
        live.extend(self._pending.values())
        out: Dict[int, int] = {}
        for s in segments:
            floor = self._floor.get(s, 0)
            if live:
                m = min(
                    (own or floor)
                    if s == own_seg
                    else (delta.get(s) or base.get(s) or floor)
                    for own_seg, own, base, delta in live
                )
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
        # id(base) -> (base, its pruned copy): each shared base once.
        pruned: Dict[int, Tuple[_Base, _Base]] = {}

        def prune_base(base: _Base) -> _Base:
            hit = pruned.get(id(base))
            if hit is not None:
                return hit[1]
            drop = [
                s for s, v in base.items() if s in frontier and v <= frontier[s]
            ]
            new = base
            if drop:
                new = _Base(base, base.origin, base.version)
                for s in drop:
                    del new[s]
            pruned[id(base)] = (base, new)
            return new

        removed = 0
        for seg, clock in self._clocks.items():
            removed += _entries(seg, clock.own, clock.base, clock.delta)
            clock.base = prune_base(clock.base)
            _prune_delta(clock.delta, frontier)
            removed -= _entries(seg, clock.own, clock.base, clock.delta)
        for key, (src, count, base, delta) in list(self._pending.items()):
            removed += _entries(src, count, base, delta)
            if count and src in frontier and count <= frontier[src]:
                count = 0
            base = prune_base(base)
            _prune_delta(delta, frontier)
            removed -= _entries(src, count, base, delta)
            self._pending[key] = (src, count, base, delta)
        return removed

    def stats(self) -> Dict[str, int]:
        return {
            "segments_live": len(self._clocks),
            "clock_entries": sum(
                _entries(seg, c.own, c.base, c.delta)
                for seg, c in self._clocks.items()
            ),
            "pending_snapshots": len(self._pending),
            "pending_entries": sum(
                _entries(*snap) for snap in self._pending.values()
            ),
            "streams_started": len(self._started),
            "streams_closed": len(self._closed_streams),
            "rootless_segments": self.rootless_segments,
            "records_observed": self.records_observed,
        }

    # Kept for the perf probe ``probe_feed`` (save_stream_checkpoint); nothing loads it.
    def to_snapshot(self) -> Dict[str, object]:
        return {
            "model": self.model.describe(),
            "clocks": {
                str(seg): {
                    str(s): c
                    for s, c in _logical(
                        seg, clock.own, clock.base, clock.delta
                    ).items()
                }
                for seg, clock in self._clocks.items()
            },
            "pending": [
                [
                    channel,
                    _jsonable(tag),
                    {str(s): c for s, c in _logical(*snap).items()},
                ]
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
