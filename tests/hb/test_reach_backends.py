"""The bit-set reachability closure inside ``HBGraph``."""

from repro.hb import HBGraph, NaiveReachability
from repro.hb.model import HBModel
from repro.ids import CallStack
from repro.runtime import Cluster, sleep
from repro.runtime.ops import OpEvent, OpKind
from repro.trace import FullScope, Tracer
from repro.trace.store import Trace


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
        "bytes": (n * n) // 8,
    }


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
