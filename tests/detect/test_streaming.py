"""Streaming detection: batch equivalence, damage handling.

The core property: for any trace the streaming detector can express
(exactly-once message pairing, no whole-trace inference rules), the
single-pass candidate set equals batch detection under the same HB
model — for ANY compaction window, including window=1 (compact after
every record).  The window is a memory knob, never a soundness knob.
"""

import hashlib
import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect.races import detect_races
from repro.detect.streaming import (
    detect_races_streaming,
    iter_wal_records,
)
from repro.hb.incremental import STREAM_UNSUPPORTED_FAMILIES
from repro.hb.model import FULL_MODEL
from repro.ids import CallStack
from repro.runtime.ops import OpEvent, OpKind
from repro.trace.store import Trace
from repro.trace.wal import list_stream_segments
from repro.workload import WorkloadSpec, generate_workload

#: The model streaming actually runs: everything except the families
#: that need the whole trace at once.
STREAM_MODEL = FULL_MODEL.without(*STREAM_UNSUPPORTED_FAMILIES)


# -- random exactly-once traces ----------------------------------------------------

#: One step per entry: (segment 0-3, action).  Actions: a memory access
#: on one of two locations, a send (fresh unique tag), or a recv of the
#: oldest outstanding tag — so every (send, recv) pair is exactly-once
#: and the recv always appears after its send, like a real timeline.
STEPS = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.sampled_from(["read", "write", "send", "recv"]),
        st.integers(0, 1),
    ),
    min_size=2,
    max_size=30,
)


def _build(recipe):
    trace = Trace(name="stream-prop")
    outstanding = []
    fresh = 0
    for i, (segment, action, loc) in enumerate(recipe):
        if action == "send":
            kind, obj = OpKind.SOCK_SEND, f"m{fresh}"
            outstanding.append(obj)
            fresh += 1
        elif action == "recv":
            if not outstanding:
                continue
            kind, obj = OpKind.SOCK_RECV, outstanding.pop(0)
        else:
            kind = OpKind.MEM_READ if action == "read" else OpKind.MEM_WRITE
            obj = f"x{loc}"
        trace.append(
            OpEvent(
                seq=i,
                kind=kind,
                obj_id=obj,
                node="n",
                tid=segment,
                thread_name=f"t{segment}",
                segment=segment,
                callstack=CallStack(),
                location=(1, f"x{loc}") if kind.value.startswith("mem") else None,
            )
        )
    return trace


def _pair_set(candidates):
    return {(c.first.seq, c.second.seq) for c in candidates}


@settings(max_examples=200, deadline=None)
@given(recipe=STEPS, window=st.sampled_from([1, 3, 7, 10_000]))
def test_streaming_matches_batch_any_window(recipe, window):
    trace = _build(recipe)
    batch = detect_races(trace, model=STREAM_MODEL)
    stream = detect_races_streaming(
        records=trace.records,
        model=STREAM_MODEL,
        window=window,
        expected_streams={r.tid for r in trace.records},
    )
    assert _pair_set(stream.candidates) == _pair_set(batch.candidates)
    assert stream.confidence == "full"


@settings(max_examples=50, deadline=None)
@given(recipe=STEPS)
def test_window_one_retires_state(recipe):
    """The tightest window must actually bound the active-access set:
    high water can never exceed the unbounded (huge-window) run's."""
    trace = _build(recipe)
    streams = {r.tid for r in trace.records}
    tight = detect_races_streaming(
        records=trace.records, model=STREAM_MODEL, window=1,
        expected_streams=streams,
    )
    loose = detect_races_streaming(
        records=trace.records, model=STREAM_MODEL, window=10_000,
        expected_streams=streams,
    )
    assert tight.active_high_water <= loose.active_high_water
    assert _pair_set(tight.candidates) == _pair_set(loose.candidates)


# -- generated workloads: damage, ground truth ------------------------------------


@pytest.fixture(scope="module")
def small_workload(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    return generate_workload("minizk", "small", 7, str(out))


def _planted_set(generated):
    return {
        frozenset((r["first_seq"], r["second_seq"]))
        for r in generated.planted_races
    }


def test_wal_streaming_finds_planted_races(small_workload):
    result = detect_races_streaming(wal_dir=small_workload.wal_dir, window=64)
    found = {frozenset(p) for p in result.candidate_seq_pairs()}
    assert found == _planted_set(small_workload)
    assert result.records_consumed == small_workload.records
    assert result.confidence == "full"
    assert result.records_per_second > 0


@pytest.mark.parametrize(
    "window, compactions, active_high_water", [(64, 8, 60), (8192, 1, 168)]
)
def test_detector_counters_are_pinned(
    tmp_path, window, compactions, active_high_water
):
    """Literals taken before the reader and the hot loops were rewritten
    (decode once, per-kind role table, reordered pair loop): the work
    the detector does for a trace is not allowed to move with them."""
    generated = generate_workload("minimr", "small", 0, str(tmp_path))
    result = detect_races_streaming(wal_dir=generated.wal_dir, window=window)
    assert result.records_consumed == 456
    assert result.pairs_examined == 32
    assert result.evictions == 168
    assert result.compactions == compactions
    assert result.active_high_water == active_high_water
    digest = hashlib.sha256(repr(list(result.candidate_seq_pairs())).encode())
    assert digest.hexdigest() == (
        "388bf24230fcdc99446018d19691bcf19a45c41ff8ba756f834912cec676e1bb"
    )


def test_offline_merge_reads_ahead_one_buffer_per_stream(tmp_path):
    """Every stream of the k-way merge is open at once, so what the
    reader holds per stream is multiplied by the stream count.  Line by
    line that is one OS buffer each; a segment at a time it is the
    whole WAL twice over (its bytes and their lines)."""
    spec = WorkloadSpec(
        preset="wide", workers=64, phases=24, local_ops=6, chain_len=3,
        segment_records=4096,
    )
    generated = generate_workload("minimr", spec, 0, str(tmp_path))
    streams = list_stream_segments(generated.wal_dir)
    assert len(streams) >= 64
    assert all(len(paths) == 1 for paths in streams.values())
    wal_bytes = sum(os.path.getsize(p) for ps in streams.values() for p in ps)

    tracemalloc.start()
    try:
        records = sum(1 for _ in iter_wal_records(generated.wal_dir))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert records == generated.records
    assert peak < wal_bytes / 2, (peak, wal_bytes)


def test_streaming_completes_where_whole_graph_ooms():
    """The paper's §7.2 scenario on the engine that answers it here: on
    an unselective trace the per-vertex closure blows the Table 8
    budget, while the single pass completes and — having no chunk
    boundaries to lose pairs at — equals whole-graph detection under
    the same model, pair for pair."""
    from repro.bench.runner import FULL_TRACING_BUDGET
    from repro.errors import TraceAnalysisOOM
    from repro.hb import HBGraph
    from repro.systems import workload_by_id
    from repro.trace import FullScope, Tracer

    cluster = workload_by_id("CA-1011").cluster(0)  # churn on: the big trace
    tracer = Tracer(scope=FullScope()).bind(cluster)
    cluster.run()
    trace = tracer.trace

    graph = HBGraph(
        trace, memory_budget=FULL_TRACING_BUDGET, compress_mem=False
    )
    with pytest.raises(TraceAnalysisOOM) as info:
        detect_races(trace, graph=graph)
    assert info.value.required_bytes > FULL_TRACING_BUDGET

    streamed = detect_races_streaming(
        records=trace.records, expected_streams=trace.per_thread.keys()
    )
    # The root-cause race of CA-1011.
    assert any("tokens" in c.variable for c in streamed.candidates)
    whole = detect_races(
        trace, model=FULL_MODEL.without(*STREAM_UNSUPPORTED_FAMILIES)
    )
    assert sorted(streamed.candidate_seq_pairs()) == sorted(
        (c.first.seq, c.second.seq) for c in whole.candidates
    )


def test_damaged_wal_degrades_to_partial(tmp_path):
    generated = generate_workload("minimr", "small", 3, str(tmp_path / "g"))
    # Corrupt one record mid-segment: the rest of that stream is
    # truncated, the other streams still parse.
    victim = None
    for root, _dirs, files in os.walk(generated.wal_dir):
        for name in sorted(files):
            if name.endswith(".wal"):
                victim = os.path.join(root, name)
                break
        if victim:
            break
    lines = open(victim).read().splitlines(keepends=True)
    body = [i for i, l in enumerate(lines) if l.startswith("R ")]
    middle = body[len(body) // 2]
    lines[middle] = "R 00000bad deadbeef {broken\n"
    open(victim, "w").writelines(lines)

    result = detect_races_streaming(wal_dir=generated.wal_dir)
    assert result.confidence == "partial"
    assert result.damage
    assert result.records_consumed < generated.records


def _drop_seal(lines):
    return [l for l in lines if not l.startswith(b"S ")]


def _drop_record(lines):
    victim = next(i for i, l in enumerate(lines) if l.startswith(b"R "))
    return lines[:victim] + lines[victim + 1:]


def _tear_tail(lines):
    return lines[:-2] + [lines[-2][: len(lines[-2]) // 2]]


@pytest.mark.parametrize(
    "edit, damage",
    [
        (_drop_seal, {"unsealed_segments": 1}),
        (_tear_tail, {"damaged_records": 1}),
        # Only the seal's count/CRC can tell a whole line went missing;
        # the reader used to accept any S line and report "full".
        (_drop_record, {"damaged_records": 1}),
        (None, {"missing_segments": 1}),
    ],
)
def test_wal_damage_taxonomy(tmp_path, edit, damage):
    generated = generate_workload(
        "minimr", "small", 3, str(tmp_path / "g"), segment_records=16
    )
    paths = max(list_stream_segments(generated.wal_dir).values(), key=len)
    if edit is None:
        os.remove(paths[0])
    else:
        with open(paths[0], "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        with open(paths[0], "wb") as fh:
            fh.write(b"".join(edit(lines)))
    result = detect_races_streaming(wal_dir=generated.wal_dir)
    assert result.confidence == "partial"
    assert result.damage == damage


def test_exactly_one_source_required():
    with pytest.raises(ValueError):
        detect_races_streaming()
    with pytest.raises(ValueError):
        detect_races_streaming(records=[], wal_dir="/nonexistent")


def test_streaming_with_sampler_marks_sampled(small_workload):
    from repro.trace.sampling import build_sampler

    result = detect_races_streaming(
        wal_dir=small_workload.wal_dir,
        window=64,
        sampler=build_sampler("rate:0.0"),
    )
    # All memory accesses were cut; the HB stream still parsed whole.
    assert result.confidence == "sampled"
    assert not result.candidates
    assert result.sampled_dropped
    assert set(result.sampled_dropped) <= {"mem_read", "mem_write"}


def test_streaming_budgeted_sampling_keeps_planted_races(small_workload):
    from repro.trace.sampling import build_sampler

    result = detect_races_streaming(
        wal_dir=small_workload.wal_dir,
        window=64,
        sampler=build_sampler("0.1"),
    )
    assert result.confidence == "sampled"
    found = {frozenset(p) for p in result.candidate_seq_pairs()}
    # The per-location budget keeps cold (racing) locations whole.
    assert found >= _planted_set(small_workload)


def test_streaming_rate_one_sampler_is_noop(small_workload):
    from repro.trace.sampling import build_sampler

    plain = detect_races_streaming(wal_dir=small_workload.wal_dir, window=64)
    sampled = detect_races_streaming(
        wal_dir=small_workload.wal_dir,
        window=64,
        sampler=build_sampler("1.0"),
    )
    assert sampled.confidence == "full"
    assert list(sampled.candidate_seq_pairs()) == list(plain.candidate_seq_pairs())
    assert sampled.records_consumed == plain.records_consumed
