"""Sync-preserving (SP) race prediction: the sound detection tier.

The HB model (paper Section 3.2) *predicts* races: two conflicting
accesses with no HB path either way are reported even when every real
reordering that would make them adjacent also changes a lock-acquisition
order or a message match — reorderings no correct re-execution can take.
That is why the paper needs the trigger stage at all.

"Optimal Prediction of Synchronization-Preserving Races" (Mathur et al.)
and "Fast, Sound and Effectively Complete Dynamic Race Prediction"
(Pavlogiannis) show that restricting prediction to *synchronization-
preserving* reorderings — every lock is acquired in the observed order,
every message pairs with its observed partner, only data-independent
reorderings are allowed — keeps prediction sound while staying
near-linear.

This module realizes that tier on top of the existing machinery.  The
SP order is the HB order **plus the sync-preserving closure**: for each
lock, an edge from every critical section's release to the next
observed acquisition of that lock.  Two properties follow directly:

* **SP ⊆ HB** — the SP order is a superset of the HB order, so every
  SP-concurrent pair is HB-concurrent.  The SP tier only ever *removes*
  candidates; it cannot invent one the HB detector missed.
* **Common-lock pairs are ordered** — if both accesses run under a
  common lock, the closure chains ``a₁ → release₁ → acquire₂ → a₂``,
  so the pair drops out of the SP-concurrent set without a separate
  lockset filter.

Pairs that survive (``DetectionResult.sp_pairs``) are *sound
witnesses*: a sync-preserving reordering exists that makes them race,
so the report tier ``sp-sound`` outranks plain ``hb-predicted``
candidates in pruning and trigger order (``repro.detect.report``).

Lock acquire/release records are not HB operations (``HB_KINDS``
excludes them), so they normally never reach the graph backbone; the
builder promotes exactly the lock endpoints that carry closure edges
via ``HBGraph(extra_backbone=...)``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.detect.races import DetectionResult
from repro.detect.report import count_soundness
from repro.hb.graph import DEFAULT_MEMORY_BUDGET, HBGraph
from repro.hb.model import FULL_MODEL, HBModel
from repro.runtime.ops import OpKind
from repro.trace.store import Trace

__all__ = [
    "SP_LOCK_RULE",
    "lock_section_edges",
    "build_sp_graph",
    "annotate_sync_preserving",
]

#: Edge-count label for sync-preserving closure edges on the SP graph.
SP_LOCK_RULE = "SPlock"


def lock_section_edges(trace: Trace) -> List[Tuple[int, int]]:
    """The sync-preserving closure: ``(release_seq, acquire_seq)`` pairs
    ordering each lock's critical sections as observed.

    Sections are *outermost* acquire..release spans per ``(lock,
    thread)`` — reentrant re-acquisitions deepen the section instead of
    splitting it.  A release with no matching acquire (lost record on a
    salvaged trace; already counted as damage by the HB graph) is
    skipped; an acquire never released (holder crashed or the run
    ended) opens a final section that still receives its predecessor
    edge but emits none.
    """
    depth: Dict[Tuple[object, int], int] = defaultdict(int)
    open_acquire: Dict[Tuple[object, int], int] = {}
    sections: Dict[object, List[Tuple[int, Optional[int]]]] = defaultdict(list)
    for record in trace.records:
        if record.kind is OpKind.LOCK_ACQUIRE:
            key = (record.obj_id, record.tid)
            if depth[key] == 0:
                open_acquire[key] = record.seq
            depth[key] += 1
        elif record.kind is OpKind.LOCK_RELEASE:
            key = (record.obj_id, record.tid)
            if depth[key] == 0:
                continue  # orphan release: damaged trace, no section
            depth[key] -= 1
            if depth[key] == 0:
                sections[record.obj_id].append(
                    (open_acquire.pop(key), record.seq)
                )
    for (obj_id, _tid), acquire_seq in open_acquire.items():
        sections[obj_id].append((acquire_seq, None))

    edges: List[Tuple[int, int]] = []
    for spans in sections.values():
        spans.sort()
        for (_a1, release), (acquire, _r2) in zip(spans, spans[1:]):
            # release < acquire always holds on a valid trace (sections
            # of one lock cannot overlap); a damaged trace can violate
            # it, and a backward edge would corrupt reachability.
            if release is not None and release < acquire:
                edges.append((release, acquire))
    return edges


def build_sp_graph(
    trace: Trace,
    model: HBModel = FULL_MODEL,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> HBGraph:
    """The SP order as a graph: all HB edges plus the closure edges.

    Built on the *full* model (same as the batch HB graph) so the SP
    order is a true superset of the HB order — that containment is what
    makes ``sp_pairs ⊆ candidates`` hold by construction.
    """
    closure = lock_section_edges(trace)
    promoted = {seq for edge in closure for seq in edge}
    graph = HBGraph(
        trace,
        model=model,
        memory_budget=memory_budget,
        extra_backbone=promoted,
    )
    for release_seq, acquire_seq in closure:
        graph.add_edge(release_seq, acquire_seq, SP_LOCK_RULE)
    return graph


def annotate_sync_preserving(
    detection: DetectionResult,
    model: HBModel = FULL_MODEL,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
    sp_graph: Optional[HBGraph] = None,
) -> DetectionResult:
    """Replay the HB candidate set against the SP order and record which
    pairs stay concurrent (``detection.sp_pairs``).

    The candidate list itself is untouched: HB-only pairs keep flowing
    to pruning/triggering at the ``hb-predicted`` tier, SP survivors are
    promoted to ``sp-sound``.  Publishes the tier metrics
    (``detect_sp_candidates_total``, ``detect_soundness_tier_total``).
    """
    started = time.perf_counter()
    with obs.span("detect.sync_preserving", candidates=len(detection.candidates)):
        if sp_graph is None:
            sp_graph = build_sp_graph(
                detection.trace, model=model, memory_budget=memory_budget
            )
        sp_pairs = {
            (c.first.seq, c.second.seq)
            for c in detection.candidates
            if sp_graph.concurrent(c.first, c.second)
        }
    detection.sp_pairs = sp_pairs
    detection.analysis_seconds += time.perf_counter() - started
    obs.counter(
        "detect_sp_candidates_total",
        "candidates still concurrent under the sync-preserving order",
    ).inc(len(sp_pairs))
    count_soundness("sp-sound", len(sp_pairs))
    count_soundness("hb-predicted", len(detection.candidates) - len(sp_pairs))
    return detection
