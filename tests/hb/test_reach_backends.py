"""The bit-set reachability closure inside ``HBGraph``."""

import pytest

from repro.errors import TraceAnalysisOOM
from repro.hb import HBGraph, NaiveReachability
from repro.hb.model import HBModel
from repro.ids import CallStack
from repro.runtime import Cluster, sleep
from repro.runtime.ops import OpEvent, OpKind
from repro.trace import FullScope, Tracer
from repro.trace.salvage import salvage_trace
from repro.trace.store import Trace
from repro.workload import WorkloadSpec, generate_workload


def _mixed_trace(seed=0):
    """A workload exercising threads, RPC, events, sockets, and ZK."""
    cluster = Cluster(seed=seed)
    tracer = Tracer(scope=FullScope()).bind(cluster)
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

    a.spawn(worker_a, name="wa")
    b.spawn(worker_b, name="wb")
    cluster.run()
    return tracer.trace


def test_reach_stats_shapes():
    trace = _mixed_trace(0)
    graph = HBGraph(trace)
    n = len(graph.backbone)
    assert graph.reach_stats() == {
        "vertices": n,
        "bytes": n * (n - 1) // 16,
    }


@pytest.fixture(scope="module")
def minimr_graph(tmp_path_factory):
    """A generated ``minimr`` trace of the perf ledger's ``batch_mid``
    shape, cut to two phases."""
    spec = WorkloadSpec(
        preset="mid", workers=120, phases=2, local_ops=6, chain_len=6,
        segment_records=256,
    )
    out = tmp_path_factory.mktemp("minimr")
    generated = generate_workload("minimr", spec, 0, str(out))
    trace, _report = salvage_trace(generated.wal_dir)
    return HBGraph(trace)


def test_rows_hold_only_later_vertices(minimr_graph):
    """Row i starts after vertex i: it never has more bits than there
    are vertices after it."""
    n = len(minimr_graph.backbone)
    rows = minimr_graph._ensure_reach()
    assert len(rows) == n
    assert all(row.bit_length() <= n - i - 1 for i, row in enumerate(rows))


def test_no_vertex_reaches_itself_or_an_earlier_one(minimr_graph):
    n = len(minimr_graph.backbone)
    for i in range(n):
        for j in range(i + 1):
            assert not minimr_graph.backbone_reaches(i, j)


def test_bitset_matches_naive_on_every_backbone_pair(minimr_graph):
    naive = NaiveReachability(minimr_graph)
    n = len(minimr_graph.backbone)
    assert n > 500
    for i in range(n):
        for j in range(n):
            assert minimr_graph.backbone_reaches(i, j) == naive.backbone_reaches(
                i, j
            ), (i, j)


def test_budget_charges_the_stored_triangle():
    trace = _mixed_trace(0)
    n = len(HBGraph(trace).backbone)
    stored = n * (n - 1) // 16
    assert HBGraph(trace, memory_budget=stored).reach_stats()["bytes"] == stored
    with pytest.raises(TraceAnalysisOOM) as excinfo:
        HBGraph(trace, memory_budget=stored - 1).reach_stats()
    assert excinfo.value.required_bytes == stored


def _chain_trace(length):
    """A synthetic single-segment trace: one long program-order chain."""
    trace = Trace(name="chain")
    for i in range(length):
        trace.append(
            OpEvent(
                seq=i,
                kind=OpKind.EVENT_CREATE,
                obj_id=f"e{i}",  # unique: no enqueue pairs, only Rule-Preg
                node="n",
                tid=1,
                thread_name="t",
                segment=1,
                callstack=CallStack(),
            )
        )
    return trace


def test_naive_reachability_survives_long_chains():
    """Regression: the memoized DFS used to recurse once per chain
    vertex and hit Python's recursion limit on program-order chains a
    few thousand records long."""
    length = 3000
    model = HBModel(
        rpc=False,
        socket=False,
        push=False,
        pull=False,
        fork_join=False,
        event=False,
        eserial=False,
    )
    graph = HBGraph(_chain_trace(length), model=model)
    assert len(graph.backbone) == length
    naive = NaiveReachability(graph)
    assert naive.backbone_reaches(0, length - 1)
    assert not naive.backbone_reaches(length - 1, 0)
    assert graph.backbone_reaches(0, length - 1)
