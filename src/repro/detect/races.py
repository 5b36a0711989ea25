"""DCbug candidate detection (paper Section 3.2.2).

A candidate is a pair of memory accesses ``(s, t)`` that touch the same
location, with at least one write, and are *concurrent* (no HB path either
way).  Enumeration is per-location and segment-grouped: same-segment
pairs (which program order always orders) are excluded wholesale
instead of being skipped one pair at a time, so a location dominated by
one hot handler loop costs O(cross-segment pairs), not O(accesses²).
The HB graph answers the surviving pairs in constant time per query.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.hb.graph import DEFAULT_MEMORY_BUDGET, HBGraph
from repro.hb.model import FULL_MODEL, HBModel
from repro.runtime.ops import Location, OpEvent, OpKind
from repro.trace.store import Trace


#: Confidence levels, strongest first.  ``full``: every in-scope record
#: was traced.  ``partial``: the trace was damaged and salvaged — loss
#: is accidental and unquantified.  ``sampled``: a stream pass thinned
#: the memory accesses *by policy* (``dcatch stream --sampling``) — loss
#: is deliberate and rate-bounded, but a missed access means a missed
#: race, so sampled evidence ranks below both.
CONFIDENCE_LEVELS = ("full", "partial", "sampled")

CONFIDENCE_RANK = {level: rank for rank, level in enumerate(CONFIDENCE_LEVELS)}


def weaken_confidence(confidence: str, partial: bool, sampled: bool = False) -> str:
    """``confidence`` weakened by a source that lost records by accident
    (``partial``) or by policy (``sampled``).  "sampled" wins over
    "partial": deliberate, rate-bounded loss is the weaker (and more
    specific) claim, and it is what the operator asked for."""
    loss = "sampled" if sampled else "partial" if partial else "full"
    return max(confidence, loss, key=CONFIDENCE_RANK.__getitem__)


def candidates_metric():
    """The counter both detectors (batch and streaming) add to."""
    return obs.counter("detect_candidates_total", "concurrent conflicting pairs found")


@dataclass(slots=True)
class Candidate:
    """One dynamic pair of conflicting concurrent accesses."""

    first: OpEvent
    second: OpEvent

    @property
    def location(self) -> Location:
        return self.first.location

    @property
    def static_pair(self) -> frozenset:
        """Dedup key for the paper's 'static instruction pair' counts."""
        return frozenset((self.first.site, self.second.site))

    @property
    def callstack_pair(self) -> frozenset:
        """Dedup key for the paper's 'callstack pair' counts."""
        return frozenset((self.first.callstack, self.second.callstack))

    @property
    def variable(self) -> str:
        return str(self.first.obj_id)

    def accesses(self) -> Tuple[OpEvent, OpEvent]:
        return (self.first, self.second)

    def __str__(self) -> str:
        return (
            f"{self.variable}[{self.location[1]}]: "
            f"{self.first.kind.value}@{self.first.site} ({self.first.node}) <-> "
            f"{self.second.kind.value}@{self.second.site} ({self.second.node})"
        )


@dataclass
class DetectionResult:
    """Output of trace analysis: the raw candidate list plus statistics."""

    trace: Trace
    #: None when detection ran in streaming mode (no whole-trace graph
    #: exists); stages that need reachability rebuild one on demand.
    graph: Optional[HBGraph]
    candidates: List[Candidate]
    analysis_seconds: float
    pairs_examined: int
    #: ``"full"`` when the trace was complete; ``"partial"`` when the HB
    #: graph was built from a damaged/salvaged trace — candidates are
    #: still sound for the records that survived, but pairs involving
    #: lost records are missing and some orderings may be unproven.
    confidence: str = "full"
    #: ``(first.seq, second.seq)`` of candidates still concurrent under
    #: the sync-preserving order (``repro.detect.syncpres``) — always a
    #: subset of the candidate pairs.  None when SP annotation did not
    #: run (streaming mode, or an SP closure over the memory budget).
    sp_pairs: Optional[set] = None

    def candidate_soundness(self, candidate: Candidate) -> str:
        """The soundness tier of one candidate: ``"sp-sound"`` when a
        sync-preserving witness exists, else ``"hb-predicted"``."""
        if (
            self.sp_pairs is not None
            and (candidate.first.seq, candidate.second.seq) in self.sp_pairs
        ):
            return "sp-sound"
        return "hb-predicted"

    def static_pairs(self) -> Dict[frozenset, List[Candidate]]:
        grouped: Dict[frozenset, List[Candidate]] = defaultdict(list)
        for candidate in self.candidates:
            grouped[candidate.static_pair].append(candidate)
        return dict(grouped)

    def callstack_pairs(self) -> Dict[frozenset, List[Candidate]]:
        grouped: Dict[frozenset, List[Candidate]] = defaultdict(list)
        for candidate in self.candidates:
            grouped[candidate.callstack_pair].append(candidate)
        return dict(grouped)

    def static_count(self) -> int:
        return len(self.static_pairs())

    def callstack_count(self) -> int:
        return len(self.callstack_pairs())


def _conflicting_pairs_at(
    accesses: List[OpEvent], graph: HBGraph
) -> Tuple[List[Tuple[OpEvent, OpEvent]], int]:
    """Enumerate one location's conflicting concurrent pairs.

    Pairs are visited in ``(i, j)`` index order (ascending ``seq``),
    exactly like the original nested loop, but the inner loop only ever
    touches *eligible* partners: accesses in other segments, writes
    only when ``a`` is a read.  Hot single-segment loops therefore cost
    nothing per skipped pair.  Returns ``(found, pairs)`` where
    ``pairs`` counts the eligible pairs examined.
    """
    by_segment_all: Dict[int, List[int]] = defaultdict(list)
    by_segment_writes: Dict[int, List[int]] = defaultdict(list)
    for index, access in enumerate(accesses):
        by_segment_all[access.segment].append(index)
        if access.kind is OpKind.MEM_WRITE:
            by_segment_writes[access.segment].append(index)

    found: List[Tuple[OpEvent, OpEvent]] = []
    pairs = 0
    for i, a in enumerate(accesses):
        groups = (
            by_segment_writes
            if a.kind is OpKind.MEM_READ
            else by_segment_all
        )
        eligible: List[int] = []
        for segment, indices in groups.items():
            if segment == a.segment:
                continue  # program order covers same-segment pairs
            k = bisect_right(indices, i)
            eligible.extend(indices[k:])
        eligible.sort()
        pairs += len(eligible)
        for j in eligible:
            b = accesses[j]
            if graph.concurrent(a, b):
                found.append((a, b))
    return found, pairs


def detect_races(
    trace: Trace,
    model: HBModel = FULL_MODEL,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
    graph: Optional[HBGraph] = None,
) -> DetectionResult:
    """Run trace analysis: build the HB graph, enumerate candidates."""
    started = time.perf_counter()
    if graph is None:
        graph = HBGraph(trace, model=model, memory_budget=memory_budget)

    by_location: Dict[Location, List[OpEvent]] = defaultdict(list)
    for record in trace.records:
        if record.is_mem and record.location is not None:
            by_location[record.location].append(record)

    candidates: List[Candidate] = []
    examined = 0
    with obs.span("detect.enumerate", locations=len(by_location)):
        for accesses in by_location.values():
            # Only locations with at least one write can produce candidates.
            if not any(a.kind is OpKind.MEM_WRITE for a in accesses):
                continue
            found, pairs = _conflicting_pairs_at(accesses, graph)
            examined += pairs
            candidates.extend(Candidate(a, b) for a, b in found)

    obs.counter("detect_pairs_examined_total", "access pairs HB-checked").inc(
        examined
    )
    candidates_metric().inc(len(candidates))
    elapsed = time.perf_counter() - started
    return DetectionResult(
        trace=trace,
        graph=graph,
        candidates=candidates,
        analysis_seconds=elapsed,
        pairs_examined=examined,
        confidence=weaken_confidence("full", graph.partial),
    )
