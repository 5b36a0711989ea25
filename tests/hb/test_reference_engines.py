"""Differential testing: bit-set engine vs naive DFS vs vector clocks."""

import itertools

import pytest

from repro.hb import HBGraph, HBModel, NaiveReachability, VectorClockEngine
from repro.runtime import Cluster, sleep
from repro.trace import FullScope, Tracer


def build_mixed_workload(cluster):
    """A workload exercising threads, RPC, events, sockets, and ZK."""
    cluster.zookeeper()
    a = cluster.add_node("a")
    b = cluster.add_node("b")
    shared = a.shared_var("s", 0)
    remote = b.shared_var("r", 0)
    q = b.event_queue("q")
    q.register("bump", lambda ev: remote.set(ev.payload))
    b.rpc_server.register("poke", lambda v: remote.get())
    b.on_message("note", lambda payload, src: q.post("bump", payload))

    def worker_a():
        zk = a.zk()
        shared.set(1)
        a.send("b", "note", 7)
        a.rpc("b").poke(1)
        zk.create("/flag", data=1)
        shared.get()

    def worker_b():
        zk = b.zk()
        while not zk.exists("/flag"):
            sleep(2)
        remote.set(5)

    def extra():
        t = a.spawn(lambda: shared.set(9), name="inner")
        a.join(t)
        shared.get()

    a.spawn(worker_a, name="wa")
    b.spawn(worker_b, name="wb")
    a.spawn(extra, name="extra")


def _trace(seed):
    cluster = Cluster(seed=seed)
    tracer = Tracer(scope=FullScope()).bind(cluster)
    build_mixed_workload(cluster)
    cluster.run()
    return tracer.trace


def test_engines_agree_on_all_pairs():
    for seed in (0, 1, 2):
        trace = _trace(seed)
        graph = HBGraph(trace)
        naive = NaiveReachability(graph)
        vc = VectorClockEngine(graph)
        records = trace.records
        sample = records[:: max(1, len(records) // 120)]
        for x, y in itertools.combinations(sample, 2):
            expected = naive.happens_before(x, y)
            assert graph.happens_before(x, y) == expected, (x, y)
            assert vc.happens_before(x, y) == expected, (x, y)


def test_vector_clock_dimensions_grow_with_handlers():
    trace = _trace(0)
    graph = HBGraph(trace)
    vc = VectorClockEngine(graph)
    # One dimension per segment: more handler invocations, more dimensions
    # (the cost the paper avoids with bit sets).
    assert vc.dimensions >= 5


def test_vector_clocks_require_program_order():
    """The vector-clock encoding assumes per-segment chains, which only
    program-order edges guarantee: constructing it on an ablated graph
    must fail loudly."""
    trace = _trace(0)
    graph = HBGraph(trace, model=HBModel(program_order=False))
    with pytest.raises(ValueError, match="program.order"):
        VectorClockEngine(graph)


def test_hb_is_a_strict_partial_order():
    trace = _trace(1)
    graph = HBGraph(trace)
    records = trace.records[:: max(1, len(trace.records) // 60)]
    for x in records:
        assert not graph.happens_before(x, x)
    for x, y in itertools.combinations(records, 2):
        assert not (graph.happens_before(x, y) and graph.happens_before(y, x))
    # Transitivity on the sample.
    for x, y, z in itertools.combinations(records, 3):
        if graph.happens_before(x, y) and graph.happens_before(y, z):
            assert graph.happens_before(x, z)


def test_edges_point_forward_in_sequence():
    trace = _trace(2)
    graph = HBGraph(trace)
    for i, succs in enumerate(graph._succ):
        for j in succs:
            assert graph.backbone[i].seq < graph.backbone[j].seq
