"""Unit coverage for the sync-preserving closure and SP graph."""

from repro import obs
from repro.detect.races import detect_races
from repro.detect.syncpres import (
    SP_LOCK_RULE,
    annotate_sync_preserving,
    build_sp_graph,
    lock_section_edges,
)
from repro.ids import CallStack
from repro.runtime.ops import OpEvent, OpKind
from repro.trace.store import Trace


def _trace(steps):
    """steps: (segment, kind, obj) tuples; mem kinds get a location."""
    trace = Trace(name="sp-unit")
    for seq, (segment, kind, obj) in enumerate(steps):
        mem = kind in (OpKind.MEM_READ, OpKind.MEM_WRITE)
        trace.append(
            OpEvent(
                seq=seq,
                kind=kind,
                obj_id=obj,
                node="n",
                tid=segment,
                thread_name=f"t{segment}",
                segment=segment,
                callstack=CallStack(),
                location=(1, str(obj)) if mem else None,
            )
        )
    return trace


A, R, W = OpKind.LOCK_ACQUIRE, OpKind.LOCK_RELEASE, OpKind.MEM_WRITE


def test_closure_orders_sections_in_observed_order():
    trace = _trace(
        [
            (0, A, "l"),
            (0, W, "x"),
            (0, R, "l"),
            (1, A, "l"),
            (1, W, "x"),
            (1, R, "l"),
        ]
    )
    assert lock_section_edges(trace) == [(2, 3)]


def test_reentrant_acquires_deepen_one_section():
    trace = _trace(
        [
            (0, A, "l"),
            (0, A, "l"),
            (0, R, "l"),
            (0, R, "l"),  # outermost span is seq 0..3
            (1, A, "l"),
            (1, R, "l"),
        ]
    )
    assert lock_section_edges(trace) == [(3, 4)]


def test_orphan_release_is_skipped():
    trace = _trace(
        [
            (0, R, "l"),  # no matching acquire: damaged trace
            (1, A, "l"),
            (1, R, "l"),
        ]
    )
    assert lock_section_edges(trace) == []


def test_unclosed_acquire_receives_but_never_emits():
    trace = _trace(
        [
            (0, A, "l"),
            (0, R, "l"),
            (1, A, "l"),  # holder never releases (crash / run end)
            (2, A, "l"),  # ...so the next section gets no edge
        ]
    )
    assert lock_section_edges(trace) == [(1, 2)]


def test_locks_are_independent():
    trace = _trace(
        [
            (0, A, "l1"),
            (0, R, "l1"),
            (1, A, "l2"),
            (1, R, "l2"),
            (2, A, "l1"),
            (2, R, "l1"),
        ]
    )
    assert lock_section_edges(trace) == [(1, 4)]


def test_sp_graph_promotes_lock_endpoints_and_counts_rule():
    trace = _trace(
        [
            (0, A, "l"),
            (0, W, "x"),
            (0, R, "l"),
            (1, A, "l"),
            (1, W, "x"),
            (1, R, "l"),
        ]
    )
    graph = build_sp_graph(trace)
    assert graph.edge_counts[SP_LOCK_RULE] == 1
    # The closure transitively orders the two writes.
    first, second = trace.records[1], trace.records[4]
    assert graph.happens_before(first, second)
    assert not graph.concurrent(first, second)


def test_annotate_publishes_tier_metrics():
    trace = _trace(
        [
            (0, A, "l"),
            (0, W, "x"),
            (0, R, "l"),
            (1, A, "l"),
            (1, W, "x"),
            (1, R, "l"),
            (2, W, "y"),
            (3, W, "y"),  # unprotected pair: stays sp-sound
        ]
    )
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        detection = annotate_sync_preserving(detect_races(trace))
    assert detection.sp_pairs == {(6, 7)}
    snap = registry.snapshot()
    assert snap["detect_sp_candidates_total"]["value"] == 1
    tiers = snap["detect_soundness_tier_total"]["series"]
    assert tiers["tier=sp-sound"]["value"] == 1
    assert tiers["tier=hb-predicted"]["value"] == 1
