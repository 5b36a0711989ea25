"""Unified differential harness: four engines, one HB relation, SP ⊆ HB.

Random valid schedules (``tests/hb/conftest.py``: threads, exactly-once
messages, well-nested locks) drive every reachability engine the
detector can use — the bit-set graph, the naive DFS, vector clocks,
and the streaming segment-clock state — plus the sync-preserving order
on top.  The invariants:

* all four engines agree on ``happens_before`` for every record pair
  (on lock-free schedules, where the SP order adds nothing);
* the SP order *contains* the HB order, so SP-concurrent ⇒
  HB-concurrent: the sound tier can only shrink the candidate set;
* on lock-free schedules SP and HB coincide exactly;
* SP detection keeps the HB candidate list and marks a subset sound;
* the SP tier still recalls every planted race of a generated workload
  (the soundness restriction never drops a real, planted bug).
"""

import itertools

import pytest
from conftest import STEPS, build_trace, lockfree, pair_set
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect import build_sp_graph, detect_races
from repro.detect.streaming import detect_races_streaming
from repro.detect.syncpres import annotate_sync_preserving
from repro.hb import HBGraph, NaiveReachability, VectorClockEngine
from repro.hb.incremental import (
    FOLD_THRESHOLD,
    STREAM_UNSUPPORTED_FAMILIES,
    StreamingHBState,
)
from repro.hb.model import FULL_MODEL
from repro.ids import CallStack
from repro.runtime.ops import OpEvent, OpKind
from repro.trace.store import Trace
from repro.workload import generate_workload

#: Whole-trace inference rules (eserial, pull) are out: the streaming
#: engine cannot run them, and pull would let the generator's memory
#: accesses manufacture HB edges behind the schedule's back.
HARNESS_MODEL = FULL_MODEL.without(*STREAM_UNSUPPORTED_FAMILIES)


@settings(max_examples=200, deadline=None)
@given(recipe=STEPS)
def test_five_engines_agree_on_shared_relation(recipe):
    """bitset == naive DFS == vector clocks == streaming clocks ==
    SP graph, pairwise, on lock-free schedules."""
    trace = build_trace(lockfree(recipe))
    bitset = HBGraph(trace, model=HARNESS_MODEL)
    naive = NaiveReachability(bitset)
    vc = VectorClockEngine(bitset)
    sp = build_sp_graph(trace, model=HARNESS_MODEL)  # no locks: SP == HB

    for x, y in itertools.permutations(trace.records, 2):
        expected = naive.happens_before(x, y)
        assert bitset.happens_before(x, y) == expected, (x.seq, y.seq)
        assert vc.happens_before(x, y) == expected, (x.seq, y.seq)
        assert sp.happens_before(x, y) == expected, (x.seq, y.seq)

    _assert_streaming_clocks_match(trace, bitset, HARNESS_MODEL)


def _assert_streaming_clocks_match(trace, graph, model):
    """The streaming engine answers online: right after a record
    arrives, ``concurrent_accesses`` over every earlier record x (at
    its streamed position) must return exactly the conflicting x in
    other segments the offline graph does not order before the new
    record, in seq order, and count every conflicting x examined."""
    state = StreamingHBState(
        model=model,
        expected_streams={r.tid for r in trace.records},
    )
    earlier = []  # (segment, count, record) of every record so far
    for record in trace.records:
        seg, count = state.observe(record)
        for is_write in (False, True):
            examined = [
                x
                for _, _, x in earlier
                if x.segment != record.segment
                and (is_write or x.kind is OpKind.MEM_WRITE)
            ]
            concurrent = [
                x for x in examined if not graph.happens_before(x, record)
            ]
            assert state.concurrent_accesses(seg, earlier, is_write) == (
                concurrent,
                len(examined),
            ), (record.seq, is_write)
        earlier.append((seg, count, record))
    return state


def _star_recipe(workers, phases):
    """Segment 0 opens each phase with a message to every worker, each
    worker writes and reports back, segment 0 collects the reports."""
    recipe = []
    for _ in range(phases):
        recipe += [(0, "send", 0)] * workers
        for w in range(1, workers + 1):
            recipe += [(w, "recv", 0), (w, "write", w % 2), (w, "send", 0)]
        recipe += [(0, "recv", 0)] * workers
    return recipe


@pytest.mark.parametrize("workers", [3, 40])
def test_streaming_clocks_on_a_star_barrier(workers):
    """Wider than ``FOLD_THRESHOLD`` (40 workers), the hub folds its
    delta into a shared base every phase and the workers adopt it: the
    shared clocks must still answer exactly as the graph does."""
    trace = build_trace(_star_recipe(workers, phases=3))
    graph = HBGraph(trace, model=HARNESS_MODEL)
    state = _assert_streaming_clocks_match(trace, graph, HARNESS_MODEL)
    assert (state._folds > 0) == (workers > FOLD_THRESHOLD)


@pytest.mark.parametrize("family", ["socket", "fork_join"])
@settings(max_examples=100, deadline=None)
@given(recipe=STEPS)
def test_streaming_clocks_honour_a_switched_off_family(family, recipe):
    """``observe`` reads a per-kind role table with the model applied
    when the state is built; it must drop exactly the edges the batch
    rules drop under the same model (``socket`` off leaves these
    schedules with program order only, ``fork_join`` off leaves them
    whole)."""
    model = HARNESS_MODEL.without(family)
    trace = build_trace(lockfree(recipe))
    _assert_streaming_clocks_match(trace, HBGraph(trace, model=model), model)


#: family -> the (source, sink) kinds whose edge is the only thing
#: ordering one pair of writes in ``_one_edge_per_family``.
_FAMILY_EDGES = {
    "fork_join": (OpKind.THREAD_CREATE, OpKind.THREAD_BEGIN),
    "event": (OpKind.EVENT_CREATE, OpKind.EVENT_BEGIN),
    "rpc": (OpKind.RPC_CREATE, OpKind.RPC_BEGIN),
    "socket": (OpKind.SOCK_SEND, OpKind.SOCK_RECV),
    "push": (OpKind.ZK_UPDATE, OpKind.ZK_PUSHED),
}


def _one_edge_per_family():
    """Per family, two segments: write x; source || sink; write x."""
    trace = Trace(name="families")
    writes = {}
    for index, (family, (source, sink)) in enumerate(_FAMILY_EDGES.items()):
        steps = [
            (2 * index, OpKind.MEM_WRITE, family),
            (2 * index, source, f"tag-{family}"),
            (2 * index + 1, sink, f"tag-{family}"),
            (2 * index + 1, OpKind.MEM_WRITE, family),
        ]
        for segment, kind, obj in steps:
            seq = len(trace.records)
            mem = kind is OpKind.MEM_WRITE
            trace.append(
                OpEvent(
                    seq=seq, kind=kind, obj_id=obj, node="n", tid=segment,
                    thread_name=f"t{segment}", segment=segment,
                    callstack=CallStack(),
                    location=(index, family) if mem else None,
                )
            )
            if mem:
                writes.setdefault(family, []).append(seq)
    return trace, {family: tuple(seqs) for family, seqs in writes.items()}


@pytest.mark.parametrize("off", [None, *_FAMILY_EDGES])
def test_each_family_switch_removes_its_own_edge_and_no_other(off):
    trace, writes = _one_edge_per_family()
    model = HARNESS_MODEL if off is None else HARNESS_MODEL.without(off)
    expected = set() if off is None else {writes[off]}
    assert pair_set(detect_races(trace, model=model).candidates) == expected
    stream = detect_races_streaming(
        records=trace.records,
        model=model,
        window=3,
        expected_streams={r.tid for r in trace.records},
    )
    assert pair_set(stream.candidates) == expected
    _assert_streaming_clocks_match(trace, HBGraph(trace, model=model), model)


@settings(max_examples=200, deadline=None)
@given(recipe=STEPS)
def test_sp_order_contains_hb_order(recipe):
    """With locks in play: HB-ordered ⇒ SP-ordered for every pair, so
    SP-concurrent ⇒ HB-concurrent (SP ⊆ HB on the race side)."""
    trace = build_trace(recipe)
    hb = HBGraph(trace, model=HARNESS_MODEL)
    sp = build_sp_graph(trace, model=HARNESS_MODEL)
    for x, y in itertools.permutations(trace.records, 2):
        if hb.happens_before(x, y):
            assert sp.happens_before(x, y), (x.seq, y.seq)
    for x, y in itertools.combinations(trace.records, 2):
        if sp.concurrent(x, y):
            assert hb.concurrent(x, y), (x.seq, y.seq)


@settings(max_examples=200, deadline=None)
@given(recipe=STEPS)
def test_sp_detection_marks_a_subset_sound(recipe):
    """SP detection returns the *same* candidate list as HB detection
    and flags a subset as sp-sound; on lock-free schedules the subset
    is everything."""
    trace = build_trace(recipe)
    hb = detect_races(trace, model=HARNESS_MODEL)
    sp = annotate_sync_preserving(
        detect_races(trace, model=HARNESS_MODEL), model=HARNESS_MODEL
    )
    hb_pairs = pair_set(hb.candidates)
    assert pair_set(sp.candidates) == hb_pairs
    assert sp.sp_pairs <= hb_pairs

    free = build_trace(lockfree(recipe))
    sp_free = annotate_sync_preserving(
        detect_races(free, model=HARNESS_MODEL), model=HARNESS_MODEL
    )
    assert sp_free.sp_pairs == pair_set(sp_free.candidates)


@settings(max_examples=50, deadline=None)
@given(
    recipe=STEPS,
    windows=st.tuples(
        st.sampled_from([1, 3]), st.sampled_from([7, 10_000])
    ),
)
def test_sp_subset_is_window_invariant(recipe, windows):
    """The sound subset is a property of the trace, not of how it was
    streamed: annotating streaming results obtained under different
    compaction windows yields the identical sp_pairs set."""
    trace = build_trace(recipe)
    streams = {r.tid for r in trace.records}
    subsets = []
    for window in windows:
        result = detect_races_streaming(
            records=trace.records,
            model=HARNESS_MODEL,
            window=window,
            expected_streams=streams,
        )
        detection = result.to_detection(trace)
        annotate_sync_preserving(detection, model=HARNESS_MODEL)
        subsets.append(detection.sp_pairs)
    assert subsets[0] == subsets[1]


def test_common_lock_pair_is_hb_candidate_but_not_sp():
    """The deterministic core of the tier: both writes under the same
    lock — DCatch's HB model reports the pair (locks are not ordering),
    the SP closure orders it out of the sound set."""
    recipe = [
        (0, "acquire", 0),
        (0, "write", 0),
        (0, "release", 0),
        (1, "acquire", 0),
        (1, "write", 0),
        (1, "release", 0),
    ]
    trace = build_trace(recipe)
    detection = annotate_sync_preserving(
        detect_races(trace, model=HARNESS_MODEL), model=HARNESS_MODEL
    )
    writes = {(1, 4)}  # the two MEM_WRITE seqs
    assert pair_set(detection.candidates) == writes
    assert detection.sp_pairs == set()
    assert detection.candidate_soundness(detection.candidates[0]) == (
        "hb-predicted"
    )


@pytest.fixture(scope="module")
def generated_minizk(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen-sp")
    return generate_workload("minizk", "small", 7, str(out))


def test_sp_recalls_planted_races(generated_minizk):
    """SP ⊇ ground truth: every race the generator planted survives the
    sync-preserving restriction — soundness costs no planted recall."""
    from repro.trace.salvage import salvage_trace

    trace, _report = salvage_trace(generated_minizk.wal_dir)
    detection = annotate_sync_preserving(detect_races(trace))
    planted = {
        frozenset((r["first_seq"], r["second_seq"]))
        for r in generated_minizk.planted_races
    }
    sound = {frozenset(p) for p in detection.sp_pairs}
    assert planted <= sound
