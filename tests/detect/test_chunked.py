"""Chunked trace analysis (the paper's OOM fallback)."""

import pickle

import pytest

from repro.detect import detect_races
from repro.detect.chunked import (
    MAX_CHUNK_RECORDS,
    chunk_trace,
    derive_chunk_geometry,
    detect_races_chunked,
)
from repro.errors import TraceAnalysisOOM
from repro.runtime import Cluster
from repro.trace import FullScope, Tracer


def _racy_trace(seed=0, writers=3):
    cluster = Cluster(seed=seed)
    tracer = Tracer(scope=FullScope()).bind(cluster)
    node = cluster.add_node("n")
    var = node.shared_var("x", 0)
    for i in range(writers):
        node.spawn(lambda: var.set(1), name=f"w{i}")
    cluster.run()
    return tracer.trace


def test_chunk_trace_partitions_all_records():
    trace = _racy_trace()
    chunks = chunk_trace(trace, chunk_size=7)
    assert sum(len(c) for c in chunks) >= len(trace)  # overlap >= 0
    seqs = set()
    for chunk in chunks:
        seqs |= {r.seq for r in chunk.records}
    assert seqs == {r.seq for r in trace.records}


def test_chunk_parameters_validated():
    trace = _racy_trace()
    with pytest.raises(ValueError):
        chunk_trace(trace, chunk_size=0)
    with pytest.raises(ValueError):
        chunk_trace(trace, chunk_size=5, overlap=5)


def test_chunked_detection_finds_close_races():
    trace = _racy_trace()
    whole = detect_races(trace)
    chunked = detect_races_chunked(trace, chunk_size=len(trace), overlap=0)
    # One chunk == whole-trace analysis.
    assert chunked.chunks == 1
    assert {c.static_pair for c in chunked.candidates} == {
        c.static_pair for c in whole.candidates
    }


def test_small_chunks_lose_cross_chunk_pairs():
    trace = _racy_trace(writers=4)
    whole = detect_races(trace)
    tiny = detect_races_chunked(trace, chunk_size=4, overlap=0)
    # Fewer or equal dynamic pairs: spanning pairs are missed.
    assert len(tiny.candidates) <= len(whole.candidates)
    assert tiny.chunks > 1


def test_overlap_recovers_some_pairs():
    trace = _racy_trace(writers=4)
    no_overlap = detect_races_chunked(trace, chunk_size=6, overlap=0)
    with_overlap = detect_races_chunked(trace, chunk_size=6, overlap=3)
    assert len(with_overlap.candidates) >= len(no_overlap.candidates)


def test_chunked_fits_where_whole_trace_ooms():
    """The Table 8 scenario: the paper's per-vertex algorithm OOMs on
    the full trace but completes chunk by chunk."""
    from repro.bench.runner import FULL_TRACING_BUDGET
    from repro.hb import HBGraph
    from repro.systems import workload_by_id

    workload = workload_by_id("CA-1011")
    cluster = workload.cluster(0)  # churn on: the big trace
    tracer = Tracer(scope=FullScope()).bind(cluster)
    cluster.run()
    trace = tracer.trace

    with pytest.raises(TraceAnalysisOOM):
        graph = HBGraph(
            trace, memory_budget=FULL_TRACING_BUDGET, compress_mem=False
        )
        detect_races(
            trace, memory_budget=FULL_TRACING_BUDGET, graph=graph
        )

    chunked = detect_races_chunked(
        trace,
        chunk_size=2000,
        overlap=200,
        memory_budget=FULL_TRACING_BUDGET,
        compress_mem=False,
    )
    assert chunked.chunks >= 4
    # The root-cause race is between temporally close accesses and
    # survives chunking.
    assert any("tokens" in c.variable for c in chunked.candidates)


def test_derive_chunk_geometry():
    # A trace that fits one chunk is analyzed whole.
    assert derive_chunk_geometry(1_000) == (1_000, 100)
    assert derive_chunk_geometry(10_000) == (10_000, 1_000)
    assert derive_chunk_geometry(0) == (1, 0)
    # Large traces are cut into equal chunks under MAX_CHUNK_RECORDS.
    assert derive_chunk_geometry(MAX_CHUNK_RECORDS + 1) == (12_501, 1_250)
    size, overlap = derive_chunk_geometry(1_000_000)
    assert size <= MAX_CHUNK_RECORDS
    assert overlap == size // 10
    # The medium generated preset (~183k records): 8 chunks.
    assert derive_chunk_geometry(182_700) == (22_838, 2_283)


def test_chunked_derived_geometry_matches_explicit():
    trace = _racy_trace(writers=4)
    explicit = detect_races_chunked(trace, chunk_size=len(trace.records))
    derived = detect_races_chunked(trace)
    # A trace this small derives a single whole-trace chunk.
    assert derived.chunks == 1
    assert (derived.chunk_size, derived.overlap) == (
        explicit.chunk_size,
        explicit.overlap,
    )
    assert sorted(
        (c.first.seq, c.second.seq) for c in derived.candidates
    ) == sorted((c.first.seq, c.second.seq) for c in explicit.candidates)


def test_oom_error_survives_pickling():
    """The three-argument constructor must round-trip through pickle
    with its byte counts."""
    original = TraceAnalysisOOM("too big", required_bytes=10, budget_bytes=5)
    clone = pickle.loads(pickle.dumps(original))
    assert isinstance(clone, TraceAnalysisOOM)
    assert str(clone) == "too big"
    assert clone.required_bytes == 10
    assert clone.budget_bytes == 5


def test_chunks_propagate_oom():
    trace = _racy_trace(writers=4)
    with pytest.raises(TraceAnalysisOOM) as info:
        detect_races_chunked(trace, chunk_size=20, overlap=4, memory_budget=1)
    assert info.value.required_bytes > info.value.budget_bytes == 1


def test_chunk_boundaries_are_not_reported_as_damage(tmp_path, capsys):
    """A boundary cutting a send from its recv is the cost of chunking:
    a clean trace analyzes silently, a salvaged-with-damage trace warns
    once — not once per chunk."""
    from repro.trace.salvage import salvage_trace
    from repro.trace.wal import list_stream_segments
    from repro.workload import generate_workload

    generated = generate_workload(
        "minimr", "small", 0, str(tmp_path / "g"), segment_records=16
    )
    trace, _report = salvage_trace(generated.wal_dir)
    assert not trace.partial
    capsys.readouterr()
    clean = detect_races_chunked(trace, chunk_size=64)
    assert clean.chunks > 4
    assert capsys.readouterr().err == ""

    path = max(list_stream_segments(generated.wal_dir).values(), key=len)[0]
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(path, "wb") as fh:  # tear the tail mid-record
        fh.writelines(lines[:-2] + [lines[-2][: len(lines[-2]) // 2]])
    damaged, report = salvage_trace(generated.wal_dir)
    assert report.damaged and damaged.partial
    capsys.readouterr()
    detect_races_chunked(damaged, chunk_size=64)
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "partial trace" in err
