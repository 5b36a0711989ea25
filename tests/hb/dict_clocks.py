"""Reference segment clocks: the plain dict-of-dicts streaming HB state.

Every segment's clock is one ``{segment: count}`` dict, a source files
a full copy of it and a sink walks the whole snapshot.  This is the
representation :class:`repro.hb.incremental.StreamingHBState` had
before its clocks became copy-on-write; the differential tests in
``test_segment_clocks.py`` hold the production engine's *logical*
clocks, pending snapshots, statistics and checkpoint to it after every
step, and its batch pair query to the per-pair ``ordered_before``
here.  Obviously correct, O(width) per source and per sink.
"""

from collections import Counter

from repro.hb.incremental import _ROLES, STREAM_UNSUPPORTED_FAMILIES
from repro.hb.model import FULL_MODEL
from repro.runtime.ops import OpKind
from repro.trace.records import _jsonable

_NO_LIVE_CLOCKS = 1 << 62


class DictClockState:
    def __init__(self, model=FULL_MODEL, expected_streams=None):
        self.model = model.without(*STREAM_UNSUPPORTED_FAMILIES)
        self.roles = {kind: (None, None, False) for kind in OpKind}
        for kind, (sink, source, family, ends) in _ROLES.items():
            on = getattr(self.model, family)
            self.roles[kind] = (sink if on else None, source if on else None, ends)
        self.clocks = {}  # segment -> {segment: count}
        self.pending = {}  # (channel, tag) -> {segment: count}
        self.open = {}  # tid -> {segment}
        self.started = set()
        self.closed_streams = set()
        self.floor = {}
        self.expected = set(expected_streams) if expected_streams is not None else None
        self.unmatched = Counter()
        self.rootless_segments = 0
        self.records_observed = 0
        self.retirement_begun = False

    def observe(self, event):
        self.records_observed += 1
        seg, tid = event.segment, event.tid
        started_prior = tid in self.started
        fresh = seg not in self.clocks
        clock = self.clocks.setdefault(seg, {})
        if fresh:
            self.open.setdefault(tid, set()).add(seg)
        self.started.add(tid)
        sink, source, ends = self.roles[event.kind]
        joined = False
        if sink is not None:
            snapshot = self.pending.pop((sink, event.obj_id), None)
            if snapshot is None:
                self.unmatched[f"{event.kind.value}_without_source"] += 1
            else:
                joined = True
                for s, c in snapshot.items():
                    clock[s] = max(clock.get(s, 0), c)
        if fresh and not joined and self.retirement_begun and (
            started_prior or self.expected is None or tid not in self.expected
        ):
            self.rootless_segments += 1
        count = clock[seg] = clock.get(seg, 0) + 1
        if source is not None:
            key = (source, event.obj_id)
            if key in self.pending:
                self.unmatched[f"{event.kind.value}_replaced_pending"] += 1
            self.pending[key] = dict(clock)
        if ends:
            self.open.get(tid, set()).discard(seg)
            self.clocks.pop(seg, None)
        return seg, count

    def close_stream(self, tid):
        self.closed_streams.add(tid)
        self.started.add(tid)
        if self.expected is not None:
            self.expected.add(tid)
        for seg in self.open.pop(tid, set()):
            self.clocks.pop(seg, None)

    def ordered_before(self, a_seg, a_count, b_seg):
        if a_seg == b_seg:
            return True
        return self.clocks.get(b_seg, {}).get(a_seg, 0) >= a_count

    def frontier(self, segments):
        if self.expected is not None and self.expected - self.started:
            return {s: self.floor.get(s, 0) for s in segments}
        live = [
            self.clocks[seg]
            for tid, segs in self.open.items()
            if tid not in self.closed_streams
            for seg in segs
            if seg in self.clocks
        ] + list(self.pending.values())
        out = {}
        for s in segments:
            floor = self.floor.get(s, 0)
            m = max(min(c.get(s, floor) for c in live), floor) if live else _NO_LIVE_CLOCKS
            self.floor[s] = out[s] = m
            self.retirement_begun |= m > 0
        return out

    def prune(self, frontier):
        def dropped(clock, keep):
            gone = [s for s, v in clock.items() if s != keep and v <= frontier.get(s, -1)]
            for s in gone:
                del clock[s]
            return len(gone)

        return sum(dropped(c, seg) for seg, c in self.clocks.items()) + sum(
            dropped(c, None) for c in self.pending.values()
        )

    def stats(self):
        return {
            "segments_live": len(self.clocks),
            "clock_entries": sum(len(c) for c in self.clocks.values()),
            "pending_snapshots": len(self.pending),
            "pending_entries": sum(len(c) for c in self.pending.values()),
            "streams_started": len(self.started),
            "streams_closed": len(self.closed_streams),
            "rootless_segments": self.rootless_segments,
            "records_observed": self.records_observed,
        }

    def to_snapshot(self):
        def strs(clock):
            return {str(s): c for s, c in clock.items()}

        return {
            "model": self.model.describe(),
            "clocks": {str(seg): strs(c) for seg, c in self.clocks.items()},
            "pending": [
                [channel, _jsonable(tag), strs(c)]
                for (channel, tag), c in self.pending.items()
            ],
            "open": {str(tid): sorted(segs) for tid, segs in self.open.items()},
            "started": sorted(self.started),
            "closed_streams": sorted(self.closed_streams),
            "floor": {str(s): v for s, v in self.floor.items()},
            "expected": sorted(self.expected) if self.expected is not None else None,
            "unmatched": dict(self.unmatched),
            "rootless_segments": self.rootless_segments,
            "records_observed": self.records_observed,
        }
