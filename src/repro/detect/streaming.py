"""Single-pass streaming race detection over WAL segments.

The batch path loads the whole trace, builds an HB graph and a
reachability closure, then enumerates pairs.  ``detect_races_streaming``
instead consumes records *once*, in global ``seq`` order, holding only:

* the incremental HB state (:class:`repro.hb.incremental.StreamingHBState`
  — sparse per-segment clocks, pending source snapshots);
* per-location **active access sets** — accesses that could still pair
  with a future record.  Every ``window`` records a compaction step
  computes the HB frontier, retires accesses no future record can be
  concurrent with, and prunes clock entries below the frontier.

Memory therefore tracks the *concurrency width* of the trace, not its
length, and the window size trades compaction frequency against peak
memory without ever changing the candidate set (equivalence with batch
detection is property-tested for every window size).

Input is either a WAL directory (segments are parsed incrementally and
merged by ``seq`` across streams; damage truncates the damaged stream
and degrades ``confidence`` to ``"partial"``, matching salvage
semantics) or any in-memory iterable of records (the pipeline's
``detect_mode="streaming"``).

How per-thread streams become one optionally sampled pass is decided
here once, for the offline ``stream`` command and the detection
service's tenants alike: :func:`merge_by_seq` and :class:`StreamSession`.
A pass keeps no checkpoint: its state is a deterministic function of the
merged prefix, so a stopped pass is re-run and a recovered tenant
replays its spool from record 0.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import islice, repeat
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro import obs
from repro.analysis.governor import StageBudget, process_rss_mb
from repro.detect.races import (
    Candidate,
    DetectionResult,
    candidates_metric,
    weaken_confidence,
)
from repro.framing import write_document
from repro.hb.incremental import StreamingHBState
from repro.hb.model import FULL_MODEL, HBModel
from repro.runtime.ops import MEM_READ, MEM_WRITE, OpEvent
from repro.trace.records import _jsonable, record_to_dict
from repro.trace.store import Trace, read_meta
from repro.trace.wal import WalStreamReader, require_stream_segments

__all__ = [
    "DEFAULT_WINDOW",
    "STREAM_CHECKPOINT_FORMAT",
    "STREAM_CHECKPOINT_VERSION",
    "STARVED",
    "StreamResult",
    "StreamSession",
    "StreamingDetector",
    "detect_races_streaming",
    "iter_wal_records",
    "merge_by_seq",
    "save_stream_checkpoint",
    "stream_fingerprint",
]

#: Records between compaction (frontier + retirement) passes.  Purely a
#: memory/CPU cadence knob: the candidate set is identical for every
#: window size.
DEFAULT_WINDOW = 8192

# Read only by the perf probe ``probe_feed``, which times one save.
STREAM_CHECKPOINT_FORMAT = "repro-stream-checkpoint"
STREAM_CHECKPOINT_VERSION = 1


class _CandidateView:
    """Read-only candidates over two parallel record lists: candidate
    ``i`` is ``(firsts[i], seconds[i])``.  A :class:`Candidate` is built
    only when iteration reaches it; ``len`` builds none."""

    __slots__ = ("_firsts", "_seconds")

    def __init__(self, firsts: List[OpEvent], seconds: List[OpEvent]) -> None:
        self._firsts = firsts
        self._seconds = seconds

    def __len__(self) -> int:
        return len(self._firsts)

    def __iter__(self) -> Iterator[Candidate]:
        return map(Candidate, self._firsts, self._seconds)


@dataclass
class StreamResult:
    """Outcome of one streaming pass.  Candidate ``i`` is the pair
    ``(firsts[i], seconds[i])``, ordered by ``(first.seq, second.seq)``
    (the detector's lists, shared, not copied)."""

    firsts: List[OpEvent]
    seconds: List[OpEvent]
    records_consumed: int
    analysis_seconds: float
    pairs_examined: int
    evictions: int
    compactions: int
    active_high_water: int
    confidence: str
    model: str
    window: int
    streams_seen: int
    #: Both measured by the offline driver, not the session.
    rss_high_water_mb: float = 0.0
    stopped_early: bool = False
    damage: Dict[str, int] = field(default_factory=dict)
    #: Records dropped by the sampling filter, by record kind;
    #: ``records_consumed`` plus these is every record merged.
    sampled_dropped: Dict[str, int] = field(default_factory=dict)

    @property
    def records_per_second(self) -> float:
        if self.analysis_seconds <= 0:
            return 0.0
        return self.records_consumed / self.analysis_seconds

    @property
    def candidates(self) -> _CandidateView:
        return _CandidateView(self.firsts, self.seconds)

    def candidate_seq_pairs(self) -> Iterator[Tuple[int, int]]:
        """A fresh iterator of ``(first.seq, second.seq)`` in candidate
        order; the caller builds whatever container it needs."""
        return (
            (first.seq, second.seq)
            for first, second in zip(self.firsts, self.seconds)
        )

    def to_detection(self, trace: Trace) -> DetectionResult:
        """Adapt to the batch result type (``graph=None``: downstream
        stages that want reachability rebuild it on demand), adding the
        loss ``trace`` already carried to the confidence."""
        return DetectionResult(
            trace=trace,
            graph=None,
            candidates=list(map(Candidate, self.firsts, self.seconds)),
            analysis_seconds=self.analysis_seconds,
            pairs_examined=self.pairs_examined,
            stopped_early=self.stopped_early,
            confidence=weaken_confidence(self.confidence, trace.partial),
        )


class StreamingDetector:
    """Incremental detector: feed records in seq order, then finish().

    A candidate is held as two references, one in each of the parallel
    lists ``firsts`` (the earlier access) and ``seconds`` (the record
    that found it): no object is built per pair.  ``feed`` appends in
    discovery order; ``finish`` orders both by ``(first.seq,
    second.seq)``.  ``candidates`` is a read-only view over them."""

    def __init__(
        self,
        model: HBModel = FULL_MODEL,
        window: int = DEFAULT_WINDOW,
        expected_streams: Optional[Iterable[int]] = None,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1 (got {window})")
        self.window = window
        self.state = StreamingHBState(model, expected_streams=expected_streams)
        #: location -> [(segment, count, record), ...] still able to race.
        self._active: Dict[Tuple[int, str], List[Tuple[int, int, OpEvent]]] = {}
        #: location -> the one segment all its live accesses are in, from
        #: its first live access until another segment's arrives; a
        #: location missing here is paired like one that spans segments.
        self._solo: Dict[Tuple[int, str], int] = {}
        self._active_size = 0
        self.firsts: List[OpEvent] = []
        self.seconds: List[OpEvent] = []
        self.records_consumed = 0
        self.pairs_examined = 0
        self.evictions = 0
        self.compactions = 0
        self.active_high_water = 0
        self._candidates_metric = candidates_metric()
        self._evictions_metric = obs.counter(
            "stream_window_evictions_total",
            "Active accesses retired at window compaction",
        )
        self._compactions_metric = obs.counter(
            "stream_compactions_total", "Streaming compaction passes"
        )
        self._active_gauge = obs.gauge(
            "stream_active_accesses", "Active (unretired) accesses held in memory"
        )

    def feed(self, event: OpEvent) -> None:
        """Consume the next record (must arrive in global seq order)."""
        seg, count = self.state.observe(event)
        kind = event.kind
        location = event.location
        if (kind is MEM_WRITE or kind is MEM_READ) and location is not None:
            accesses = self._active.get(location)
            if accesses:
                # Every live access in this record's own segment is
                # ordered by program order: only another segment's can
                # pair, so a private location makes no query.
                if self._solo.get(location) != seg:
                    self._solo.pop(location, None)
                    found, examined = self.state.concurrent_accesses(
                        seg, accesses, kind is MEM_WRITE
                    )
                    self.pairs_examined += examined
                    if found:
                        self.firsts.extend(found)
                        self.seconds.extend(repeat(event, len(found)))
                        self._candidates_metric.inc(len(found))
                accesses.append((seg, count, event))
            else:
                self._active[location] = [(seg, count, event)]
                self._solo[location] = seg
            self._active_size += 1
            if self._active_size > self.active_high_water:
                self.active_high_water = self._active_size
        self.records_consumed += 1
        if self.records_consumed % self.window == 0:
            self.compact()

    @property
    def candidates(self) -> _CandidateView:
        return _CandidateView(self.firsts, self.seconds)

    def close_stream(self, tid: int) -> None:
        self.state.close_stream(tid)

    def compact(self) -> int:
        """Retire accesses behind the HB frontier; prune clock entries.
        Returns the number of accesses retired."""
        segments = {
            a_seg
            for accesses in self._active.values()
            for (a_seg, _, _) in accesses
        }
        if not segments:
            self.compactions += 1
            self._compactions_metric.inc()
            return 0
        frontier = self.state.frontier(segments)
        retired = 0
        for location in list(self._active):
            accesses = self._active[location]
            kept = [
                entry
                for entry in accesses
                if entry[1] > frontier.get(entry[0], 0)
            ]
            retired += len(accesses) - len(kept)
            if kept:
                self._active[location] = kept
            else:
                del self._active[location]
                self._solo.pop(location, None)
        self._active_size -= retired
        self.state.prune(frontier)
        self.evictions += retired
        self.compactions += 1
        self._evictions_metric.inc(retired)
        self._compactions_metric.inc()
        self._active_gauge.set(self._active_size)
        return retired

    def finish(self) -> None:
        """Final compaction; candidates are then stable and sorted."""
        self.compact()
        # ``seconds`` is in feed order, which is seq order, so one stable
        # sort by first seq orders by (first.seq, second.seq).  Both
        # lists get the same permutation from the same keys: ``list.sort``
        # computes keys in list order, so ``seconds`` reads its keys off
        # the still unsorted ``firsts``.
        firsts = iter(self.firsts)
        self.seconds.sort(key=lambda _second: next(firsts).seq)
        self.firsts.sort(key=attrgetter("seq"))

    # Kept for the perf probe ``probe_feed`` (save_stream_checkpoint); nothing loads it.
    def to_snapshot(self) -> Dict[str, object]:
        return {
            "window": self.window,
            "state": self.state.to_snapshot(),
            "active": [
                [
                    _jsonable(location),
                    [
                        [seg, count, record_to_dict(event)]
                        for seg, count, event in accesses
                    ],
                ]
                for location, accesses in self._active.items()
            ],
            "candidates": [
                [record_to_dict(first), record_to_dict(second)]
                for first, second in zip(self.firsts, self.seconds)
            ],
            "records_consumed": self.records_consumed,
            "pairs_examined": self.pairs_examined,
            "evictions": self.evictions,
            "compactions": self.compactions,
            "active_high_water": self.active_high_water,
        }


# -- the seq merge ---------------------------------------------------------

#: A cursor's answer while its stream is open but has nothing buffered.
STARVED = object()


def merge_by_seq(
    cursors: Iterable[Tuple[int, Callable[[], object]]],
    on_stream_end: Optional[Callable[[int], None]] = None,
) -> Iterator[Optional[OpEvent]]:
    """K-way merge of ``(tid, poll)`` stream cursors into global ``seq``
    order.  ``poll()`` answers the stream's next record, ``None`` once
    it has ended (``on_stream_end(tid)`` then fires, exactly once, so
    the detector can release the stream's HB state) or :data:`STARVED`.
    A record is popped only while every open stream has its head in the
    heap, so the order is the total ``seq`` order whatever the arrival
    timing; while a cursor is starved the merge yields ``None`` instead,
    and the next ``next()`` polls it again."""
    # ``index`` breaks seq ties, so entries never compare past it.
    heap: List[Tuple[int, int, OpEvent, Tuple[int, Callable[[], object]]]] = []
    unpolled = list(enumerate(cursors))
    while unpolled or heap:
        polling, unpolled = unpolled, []
        for index, cursor in polling:
            head = cursor[1]()
            if head is STARVED:
                unpolled.append((index, cursor))
            elif head is None:
                if on_stream_end is not None:
                    on_stream_end(cursor[0])
            else:
                heapq.heappush(heap, (head.seq, index, head, cursor))
        if unpolled:
            yield None
        elif heap:
            _seq, index, event, cursor = heapq.heappop(heap)
            unpolled.append((index, cursor))
            yield event


def iter_wal_records(
    wal_dir: str,
    damage: Optional[Counter] = None,
    on_stream_end: Optional[Callable[[int], None]] = None,
) -> Iterator[OpEvent]:
    """Merge a WAL directory's streams into one seq-ordered record
    stream, reading segments incrementally.  Any damage — torn /
    CRC-bad / malformed record, lying seal, unsealed or missing segment
    — truncates the damaged stream there and is counted in ``damage``
    (see :class:`repro.trace.wal.WalStreamReader`).  The cursors are
    whole-stream iterators, which end but never starve."""
    damage = damage if damage is not None else Counter()
    return merge_by_seq(
        [
            (tid, partial(next, WalStreamReader(damage).stream(paths), None))
            for (_node, tid), paths in require_stream_segments(wal_dir).items()
        ],
        on_stream_end,
    )


def wal_stream_tids(wal_dir: str) -> List[int]:
    """The stream (tid) set of a WAL directory, discovered upfront."""
    return [tid for _node, tid in require_stream_segments(wal_dir)]


# -- the perf probe's checkpoint file --------------------------------------


# Called only by the perf probe ``probe_feed``, which times one save.
def save_stream_checkpoint(
    path: str,
    detector: StreamingDetector,
    fingerprint: str,
    extra: Optional[Dict[str, object]] = None,
) -> None:
    """Atomically publish the detector's snapshot as a CRC-enveloped
    document.  ``extra`` is the session's sidecar state: the raw-record
    watermark and what the sampler had dropped by then."""
    doc: Dict[str, object] = {
        "format": STREAM_CHECKPOINT_FORMAT,
        "version": STREAM_CHECKPOINT_VERSION,
        "fingerprint": fingerprint,
        "snapshot": detector.to_snapshot(),
    }
    if extra:
        doc["extra"] = extra
    write_document(path, doc)


# Called only by the perf probe ``probe_feed``, for its one save.
def stream_fingerprint(model: HBModel, window: int, source: str) -> str:
    return f"{model.describe()}|window={window}|source={source}"


# -- the stream session ----------------------------------------------------


class StreamSession:
    """One optionally sampled detector pass over merged records: what
    the offline ``stream`` pass and a service tenant both run, differing
    in where the records come from.

    ``consumed_raw`` counts every merged record, kept or sampled away."""

    def __init__(
        self,
        model: HBModel,
        window: int,
        sampler: Optional[object] = None,
    ) -> None:
        self.model = model
        self.window = window
        #: A ``repro.trace.sampling.Sampler``, or None.
        self.sampler = sampler
        self.damage: Counter = Counter()  # counted by the segment readers
        self.detector: Optional[StreamingDetector] = None
        self.consumed_raw = 0
        self.sampled_dropped: Dict[str, int] = {}
        self._started = time.perf_counter()

    def open(
        self, expected_streams: Optional[Iterable[int]] = None
    ) -> StreamingDetector:
        """The detector, built on first use."""
        if self.detector is None:
            self.detector = StreamingDetector(
                self.model, self.window, expected_streams
            )
            self._records_metric = obs.counter(
                "stream_records_total",
                "Records consumed by the streaming detector",
            )
        return self.detector

    def pump(
        self, merged: Iterator[Optional[OpEvent]], limit: Optional[int] = None
    ) -> int:
        """Consume ``merged`` until it ends or starves (yields ``None``)
        or ``limit`` raw records; returns how many were consumed."""
        start = raw = self.consumed_raw
        detector = self.detector
        fed = detector.records_consumed
        for event in islice(merged, limit):
            if event is None:
                break
            raw += 1
            if self.sampler is not None and not self.sampler.observe(event)[0]:
                kind = event.kind.value
                self.sampled_dropped[kind] = self.sampled_dropped.get(kind, 0) + 1
                continue
            detector.feed(event)
        self.consumed_raw = raw
        # One metric update per call, not one per record.
        self._records_metric.inc(detector.records_consumed - fed)
        return raw - start

    def finish(self) -> StreamResult:
        """Final compaction, and the outcome."""
        detector = self.open()
        detector.finish()
        state = detector.state
        # "sampled" iff records were actually dropped: a sampler that
        # was engaged but thinned nothing must not taint the report.
        confidence = weaken_confidence(
            "full",
            bool(self.damage or state.rootless_segments),
            bool(self.sampled_dropped),
        )
        return StreamResult(
            firsts=detector.firsts,
            seconds=detector.seconds,
            records_consumed=detector.records_consumed,
            analysis_seconds=time.perf_counter() - self._started,
            pairs_examined=detector.pairs_examined,
            evictions=detector.evictions,
            compactions=detector.compactions,
            active_high_water=detector.active_high_water,
            confidence=confidence,
            model=state.model.describe(),
            window=detector.window,
            streams_seen=state.stats()["streams_started"],
            damage=dict(self.damage),
            sampled_dropped=dict(self.sampled_dropped),
        )


# -- the offline driver ----------------------------------------------------


def detect_races_streaming(
    records: Optional[Iterable[OpEvent]] = None,
    wal_dir: Optional[str] = None,
    model: HBModel = FULL_MODEL,
    window: int = DEFAULT_WINDOW,
    expected_streams: Optional[Iterable[int]] = None,
    max_seconds: Optional[float] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    sampler: Optional[object] = None,
) -> StreamResult:
    """One single-pass streaming detection run.

    Exactly one of ``records`` (an in-memory seq-ordered iterable) or
    ``wal_dir`` (a WAL directory, parsed incrementally; a saved trace's
    ``meta.json`` adds the loss it was saved with) must be given.  Every
    ``window`` raw records the pass probes:
    ``max_seconds``/``should_stop`` stop it early
    (``stopped_early=True``, candidates found so far are kept), and
    process RSS is sampled for ``rss_high_water_mb``.  ``sampler``
    (a ``repro.trace.sampling.Sampler``) thins the memory accesses; the
    result reads ``confidence="sampled"`` once anything was dropped.
    """
    if (records is None) == (wal_dir is None):
        raise ValueError("pass exactly one of records= or wal_dir=")

    # Read first: a meta.json that refuses the trace stops the pass
    # before it has read a record.
    meta = read_meta(wal_dir) if wal_dir is not None else None
    session = StreamSession(model, window, sampler=sampler)
    if wal_dir is not None:
        detector = session.open(expected_streams or wal_stream_tids(wal_dir))
        stream = iter_wal_records(wal_dir, session.damage, detector.close_stream)
    else:
        session.open(expected_streams)
        stream = iter(records)

    budget = StageBudget("stream", time.perf_counter(), max_seconds)
    rss_gauge = obs.gauge("stream_rss_high_water_mb", "Streaming detector RSS high water")
    rss_high = process_rss_mb()
    stopped_early = False
    while session.pump(stream, limit=window) == window:
        rss_high = max(rss_high, process_rss_mb())
        if budget.exceeded() or (should_stop is not None and should_stop()):
            stopped_early = True
            break
    result = session.finish()
    if meta:
        result.confidence = weaken_confidence(result.confidence, meta["partial"])
    result.stopped_early = stopped_early
    result.rss_high_water_mb = round(max(rss_high, process_rss_mb()), 1)
    rss_gauge.set(result.rss_high_water_mb)
    return result
