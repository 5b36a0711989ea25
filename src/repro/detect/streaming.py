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
``detect_mode="streaming"``).  Progress checkpoints — the stream offset
plus the HB state — make a million-record pass resumable the same way
PR-5 made the batch stages resumable.
"""

from __future__ import annotations

import heapq
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field
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
from repro.analysis.governor import StageBudget, maybe_stall, process_rss_mb
from repro.detect.races import Candidate, DetectionResult
from repro.errors import CheckpointError
from repro.framing import Damage, atomic_write, decode_document, encode_document
from repro.hb.incremental import StreamingHBState
from repro.hb.model import FULL_MODEL, HBModel
from repro.runtime.ops import OpEvent
from repro.trace.records import (
    _jsonable,
    _untuple,
    record_from_dict,
    record_to_dict,
)
from repro.trace.store import Trace
from repro.trace.wal import WalStreamReader, require_stream_segments

__all__ = [
    "DEFAULT_WINDOW",
    "STREAM_CHECKPOINT_FORMAT",
    "STREAM_CHECKPOINT_VERSION",
    "StreamResult",
    "StreamingDetector",
    "detect_races_streaming",
    "iter_wal_records",
    "load_stream_checkpoint",
    "save_stream_checkpoint",
    "stream_fingerprint",
]

#: Records between compaction (frontier + retirement) passes.  Purely a
#: memory/CPU cadence knob: the candidate set is identical for every
#: window size.
DEFAULT_WINDOW = 8192

STREAM_CHECKPOINT_FORMAT = "repro-stream-checkpoint"
STREAM_CHECKPOINT_VERSION = 1

_METRIC_RECORDS = "stream_records_total"
_METRIC_EVICTIONS = "stream_window_evictions_total"
_METRIC_COMPACTIONS = "stream_compactions_total"
_METRIC_RSS = "stream_rss_high_water_mb"
_METRIC_ACTIVE = "stream_active_accesses"


@dataclass
class StreamResult:
    """Outcome of one streaming pass."""

    candidates: List[Candidate]
    records_consumed: int
    analysis_seconds: float
    pairs_examined: int
    evictions: int
    compactions: int
    active_high_water: int
    rss_high_water_mb: float
    stopped_early: bool
    confidence: str
    model: str
    window: int
    streams_seen: int
    unmatched: Dict[str, int] = field(default_factory=dict)
    damage: Dict[str, int] = field(default_factory=dict)
    #: Records dropped by the sampling filter, by record kind (empty
    #: when no sampler was attached).
    sampled_dropped: Dict[str, int] = field(default_factory=dict)
    #: Record offset the pass resumed from (0 = started fresh) — lets
    #: callers assert already-retired windows were not reprocessed.
    resumed_at: int = 0

    @property
    def records_per_second(self) -> float:
        if self.analysis_seconds <= 0:
            return 0.0
        return self.records_consumed / self.analysis_seconds

    def candidate_seq_pairs(self) -> List[Tuple[int, int]]:
        return [(c.first.seq, c.second.seq) for c in self.candidates]

    def to_detection(self, trace: Trace) -> DetectionResult:
        """Adapt to the batch result type (``graph=None``: downstream
        stages that want reachability rebuild it on demand)."""
        return DetectionResult(
            trace=trace,
            graph=None,
            candidates=list(self.candidates),
            analysis_seconds=self.analysis_seconds,
            pairs_examined=self.pairs_examined,
            truncated_locations=[],
            stopped_early=self.stopped_early,
            confidence=self.confidence,
        )


class StreamingDetector:
    """Incremental detector: feed records in seq order, then finish()."""

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
        self._active_size = 0
        self.candidates: List[Candidate] = []
        self.records_consumed = 0
        self.pairs_examined = 0
        self.evictions = 0
        self.compactions = 0
        self.active_high_water = 0
        self._candidates_metric = obs.counter(
            "detect_candidates_total", "Candidate pairs found"
        )
        self._records_metric = obs.counter(
            _METRIC_RECORDS, "Records consumed by the streaming detector"
        )
        self._evictions_metric = obs.counter(
            _METRIC_EVICTIONS, "Active accesses retired at window compaction"
        )
        self._compactions_metric = obs.counter(
            _METRIC_COMPACTIONS, "Streaming compaction passes"
        )
        self._active_gauge = obs.gauge(
            _METRIC_ACTIVE, "Active (unretired) accesses held in memory"
        )

    def feed(self, event: OpEvent) -> None:
        """Consume the next record (must arrive in global seq order)."""
        seg, count = self.state.observe(event)
        if event.is_mem and event.location is not None:
            accesses = self._active.get(event.location)
            if accesses is None:
                accesses = []
                self._active[event.location] = accesses
            event_is_write = event.is_write
            for a_seg, a_count, a_event in accesses:
                if not (event_is_write or a_event.is_write):
                    continue
                if a_seg == seg:
                    continue  # program order
                self.pairs_examined += 1
                if not self.state.ordered_before(a_seg, a_count, seg):
                    self.candidates.append(Candidate(a_event, event))
                    self._candidates_metric.inc()
            accesses.append((seg, count, event))
            self._active_size += 1
            if self._active_size > self.active_high_water:
                self.active_high_water = self._active_size
        self.records_consumed += 1
        self._records_metric.inc()
        if self.records_consumed % self.window == 0:
            self.compact()

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
        self.candidates.sort(key=lambda c: (c.first.seq, c.second.seq))

    # -- checkpointing -----------------------------------------------------

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
                [record_to_dict(c.first), record_to_dict(c.second)]
                for c in self.candidates
            ],
            "records_consumed": self.records_consumed,
            "pairs_examined": self.pairs_examined,
            "evictions": self.evictions,
            "compactions": self.compactions,
            "active_high_water": self.active_high_water,
        }

    @classmethod
    def from_snapshot(
        cls, snapshot: Dict[str, object], model: HBModel = FULL_MODEL
    ) -> "StreamingDetector":
        self = cls(model=model, window=int(snapshot["window"]))
        self.state = StreamingHBState.from_snapshot(snapshot["state"], model)
        self._active = {}
        self._active_size = 0
        for location, accesses in snapshot["active"]:
            entries = [
                (seg, count, record_from_dict(record))
                for seg, count, record in accesses
            ]
            self._active[_untuple(location)] = entries
            self._active_size += len(entries)
        self.candidates = [
            Candidate(record_from_dict(first), record_from_dict(second))
            for first, second in snapshot["candidates"]
        ]
        self.records_consumed = int(snapshot["records_consumed"])
        self.pairs_examined = int(snapshot["pairs_examined"])
        self.evictions = int(snapshot["evictions"])
        self.compactions = int(snapshot["compactions"])
        self.active_high_water = int(snapshot["active_high_water"])
        return self


# -- WAL segment streaming -------------------------------------------------


def iter_wal_records(
    wal_dir: str,
    damage: Optional[Counter] = None,
    on_stream_end: Optional[Callable[[int], None]] = None,
) -> Iterator[OpEvent]:
    """Merge a WAL directory's streams into one seq-ordered record
    stream, reading segments incrementally.  Any damage — torn /
    CRC-bad / malformed record, lying seal, unsealed or missing segment
    — truncates the damaged stream there and is counted in ``damage``
    (see :class:`repro.trace.wal.WalStreamReader`).  ``on_stream_end``
    fires with the stream's tid the moment it is exhausted (that is
    what lets the detector release the stream's HB state)."""
    damage = damage if damage is not None else Counter()
    # ``index`` breaks seq ties, so entries never compare past it.
    heap: List[Tuple[int, int, OpEvent, Iterator[OpEvent], int]] = []
    streams = require_stream_segments(wal_dir)
    for index, ((_node, tid), paths) in enumerate(streams.items()):
        iterator = WalStreamReader(damage).stream(paths)
        first = next(iterator, None)
        if first is None:
            if on_stream_end is not None:
                on_stream_end(tid)
            continue
        heap.append((first.seq, index, first, iterator, tid))
    heapq.heapify(heap)
    while heap:
        _seq, index, event, iterator, tid = heapq.heappop(heap)
        yield event
        following = next(iterator, None)
        if following is None:
            if on_stream_end is not None:
                on_stream_end(tid)
        else:
            heapq.heappush(
                heap, (following.seq, index, following, iterator, tid)
            )


def wal_stream_tids(wal_dir: str) -> List[int]:
    """The stream (tid) set of a WAL directory, discovered upfront."""
    return [tid for _node, tid in require_stream_segments(wal_dir)]


# -- checkpoint files ------------------------------------------------------


def save_stream_checkpoint(
    path: str,
    detector: StreamingDetector,
    fingerprint: str,
    extra: Optional[Dict[str, object]] = None,
) -> None:
    """Atomically publish the detector's snapshot as a CRC-enveloped
    document (the detection service checkpoints per-tenant detectors
    with the same format the offline ``stream`` pass uses)."""
    doc: Dict[str, object] = {
        "format": STREAM_CHECKPOINT_FORMAT,
        "version": STREAM_CHECKPOINT_VERSION,
        "fingerprint": fingerprint,
        "snapshot": detector.to_snapshot(),
    }
    if extra:
        # Caller-owned sidecar state (the detection service stores its
        # raw-merge watermark here so sampled tenants resume correctly).
        doc["extra"] = extra
    payload = json.dumps(doc, sort_keys=True).encode("utf-8")
    atomic_write(path, encode_document(payload))


def load_stream_checkpoint(path: str) -> Dict[str, object]:
    """Load and CRC-verify a streaming checkpoint file."""
    with open(path, "rb") as fh:
        payload = decode_document(fh.read())
    if isinstance(payload, Damage):
        raise CheckpointError(f"{path}: stream checkpoint {payload.detail}")
    doc = json.loads(payload)
    if doc.get("format") != STREAM_CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a {STREAM_CHECKPOINT_FORMAT} file")
    if doc.get("version") != STREAM_CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: stream checkpoint version {doc.get('version')!r} "
            f"unsupported (expected {STREAM_CHECKPOINT_VERSION})"
        )
    return doc


def stream_fingerprint(
    model: HBModel, window: int, source: str, sampler: Optional[object] = None
) -> str:
    base = f"{model.describe()}|window={window}|source={source}"
    if sampler is not None:
        # Resuming a sampled pass under a different policy/seed would
        # silently change which records the detector ever saw.
        base += f"|sampling={sampler.describe()}"
    return base


def _sampled_stream(stream, sampler):
    """Apply a ``repro.trace.sampling.Sampler`` to a record stream.

    Pure filter: HB/lock records always pass, memory accesses pass when
    the policy admits them.  Reservoir *evictions* cannot be honoured
    here — an already-fed record is part of the detector state — so a
    reservoir policy degrades to admit-only in streaming mode (first-K
    plus probabilistic later admits).  Decisions are deterministic in
    ``(policy, seed)``, which is what makes checkpoint resume (which
    replays the raw stream through the same sampler) reproducible.
    """
    for event in stream:
        keep, _evictions = sampler.observe(event)
        if keep:
            yield event


# -- driver ----------------------------------------------------------------


def detect_races_streaming(
    records: Optional[Iterable[OpEvent]] = None,
    wal_dir: Optional[str] = None,
    model: HBModel = FULL_MODEL,
    window: int = DEFAULT_WINDOW,
    expected_streams: Optional[Iterable[int]] = None,
    max_seconds: Optional[float] = None,
    memory_budget_mb: Optional[int] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 8,
    resume: bool = False,
    sampler: Optional[object] = None,
) -> StreamResult:
    """One single-pass streaming detection run.

    Exactly one of ``records`` (an in-memory seq-ordered iterable) or
    ``wal_dir`` (a PR-4 WAL directory, parsed incrementally) must be
    given.  ``max_seconds``/``should_stop`` stop the pass early
    (``stopped_early=True``, candidates found so far are kept);
    ``memory_budget_mb`` forces an extra compaction whenever process
    RSS crosses 90% of the budget — the detector degrades by compacting
    harder, never by abandoning.  ``checkpoint_path`` (with
    ``checkpoint_every`` windows between saves) makes the pass
    resumable via ``resume=True``.  ``sampler`` (a
    ``repro.trace.sampling.Sampler``) thins the memory-access stream
    before it reaches the detector — the streaming analog of sampled
    tracing; results then carry ``confidence="sampled"``.
    """
    if (records is None) == (wal_dir is None):
        raise ValueError("pass exactly one of records= or wal_dir=")

    damage: Counter = Counter()
    detector: Optional[StreamingDetector] = None
    source = os.path.abspath(wal_dir) if wal_dir is not None else "<records>"
    fingerprint = stream_fingerprint(model, window, source, sampler)
    if resume:
        if checkpoint_path is None:
            raise CheckpointError("resume=True requires checkpoint_path")
        if os.path.exists(checkpoint_path):
            doc = load_stream_checkpoint(checkpoint_path)
            if doc.get("fingerprint") != fingerprint:
                raise CheckpointError(
                    f"{checkpoint_path}: checkpoint was written for a "
                    "different source/model/window; refusing to resume "
                    "(delete it to start over)"
                )
            detector = StreamingDetector.from_snapshot(doc["snapshot"], model)

    if detector is None:
        if wal_dir is not None and expected_streams is None:
            expected_streams = wal_stream_tids(wal_dir)
        detector = StreamingDetector(
            model=model, window=window, expected_streams=expected_streams
        )
    resumed_at = detector.records_consumed
    skip = detector.records_consumed

    if wal_dir is not None:
        stream = iter_wal_records(
            wal_dir, damage=damage, on_stream_end=detector.close_stream
        )
    else:
        stream = iter(records)
    if sampler is not None:
        stream = _sampled_stream(stream, sampler)

    budget = StageBudget("stream", time.perf_counter(), max_seconds)
    rss_gauge = obs.gauge(_METRIC_RSS, "Streaming detector RSS high water")
    rss_high = process_rss_mb()
    pressure_threshold = (
        memory_budget_mb * 0.9 if memory_budget_mb is not None else None
    )
    stopped_early = False
    started = time.perf_counter()
    windows_since_save = 0
    next_probe = detector.records_consumed + detector.window

    for event in stream:
        if skip > 0:
            skip -= 1
            continue
        detector.feed(event)
        if detector.records_consumed >= next_probe:
            next_probe = detector.records_consumed + detector.window
            maybe_stall("stream_window")
            rss = process_rss_mb()
            if rss > rss_high:
                rss_high = rss
                rss_gauge.set(round(rss_high, 1))
            if pressure_threshold is not None and rss > pressure_threshold:
                detector.compact()
            windows_since_save += 1
            if (
                checkpoint_path is not None
                and windows_since_save >= checkpoint_every
            ):
                save_stream_checkpoint(checkpoint_path, detector, fingerprint)
                windows_since_save = 0
            if budget.exceeded() or (should_stop is not None and should_stop()):
                stopped_early = True
                break
    if skip > 0:
        raise CheckpointError(
            f"stream ended {skip} records before the checkpoint offset; "
            "the source shrank since the checkpoint was written"
        )

    detector.finish()
    elapsed = time.perf_counter() - started
    rss = process_rss_mb()
    if rss > rss_high:
        rss_high = rss
    rss_gauge.set(round(rss_high, 1))
    if checkpoint_path is not None:
        save_stream_checkpoint(checkpoint_path, detector, fingerprint)

    state = detector.state
    confidence = "full"
    if damage or state.rootless_segments:
        confidence = "partial"
    if sampler is not None and sampler.can_drop:
        confidence = "sampled"  # deliberate loss wins over accidental
    return StreamResult(
        candidates=detector.candidates,
        records_consumed=detector.records_consumed,
        analysis_seconds=elapsed,
        pairs_examined=detector.pairs_examined,
        evictions=detector.evictions,
        compactions=detector.compactions,
        active_high_water=detector.active_high_water,
        rss_high_water_mb=round(rss_high, 1),
        stopped_early=stopped_early,
        confidence=confidence,
        model=state.model.describe(),
        window=detector.window,
        streams_seen=state.stats()["streams_started"],
        unmatched=dict(state.unmatched),
        damage=dict(damage),
        sampled_dropped=dict(sampler.dropped) if sampler is not None else {},
        resumed_at=resumed_at,
    )
