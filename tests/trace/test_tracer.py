"""Tracer: record capture, scope policies, serialization."""

from repro.runtime import Cluster, OpKind, sleep
from repro.trace import (
    FullScope,
    SelectiveScope,
    Trace,
    Tracer,
)
from repro.trace.scope import find_comm_functions_in_sources


def _traced_cluster(seed=0, scope=None):
    cluster = Cluster(seed=seed)
    tracer = Tracer(scope=scope or FullScope()).bind(cluster)
    return cluster, tracer


def test_thread_ops_recorded():
    cluster, tracer = _traced_cluster()
    node = cluster.add_node("n")

    def child():
        pass

    def parent():
        t = node.spawn(child, name="child")
        node.join(t)

    node.spawn(parent, name="parent")
    cluster.run()
    kinds = [r.kind for r in tracer.trace]
    assert OpKind.THREAD_CREATE in kinds
    assert OpKind.THREAD_BEGIN in kinds
    assert OpKind.THREAD_END in kinds
    assert OpKind.THREAD_JOIN in kinds


def test_rpc_ops_recorded_and_paired():
    cluster, tracer = _traced_cluster()
    server = cluster.add_node("server")
    client = cluster.add_node("client")
    server.rpc_server.register("ping", lambda: "pong")
    client.spawn(lambda: client.rpc("server").ping(), name="caller")
    cluster.run()
    trace = tracer.trace
    creates = trace.of_kind(OpKind.RPC_CREATE)
    begins = trace.of_kind(OpKind.RPC_BEGIN)
    ends = trace.of_kind(OpKind.RPC_END)
    joins = trace.of_kind(OpKind.RPC_JOIN)
    assert len(creates) == len(begins) == len(ends) == len(joins) == 1
    assert creates[0].obj_id == begins[0].obj_id == ends[0].obj_id == joins[0].obj_id
    # Observed order: Create < Begin < End < Join.
    assert creates[0].seq < begins[0].seq < ends[0].seq < joins[0].seq
    # Begin/End run in a fresh handler segment on the server.
    assert begins[0].segment == ends[0].segment
    assert begins[0].segment != creates[0].segment
    assert begins[0].node == "server"


def test_mem_access_records_observed_write():
    cluster, tracer = _traced_cluster()
    node = cluster.add_node("n")
    var = node.shared_var("x", 0)
    order = []

    def writer():
        var.set(42)
        order.append("w")

    def reader():
        while var.get() != 42:
            sleep(1)
        order.append("r")

    node.spawn(writer, name="w")
    node.spawn(reader, name="r")
    cluster.run()
    writes = [r for r in tracer.trace if r.kind is OpKind.MEM_WRITE]
    reads = [r for r in tracer.trace if r.kind is OpKind.MEM_READ]
    final_read = reads[-1]
    assert final_read.observed_write == writes[-1].seq


def test_untraced_node_contributes_no_records():
    cluster, tracer = _traced_cluster()
    cluster.zookeeper()  # untraced substrate node
    app = cluster.add_node("app")

    def work():
        zk = app.zk()
        zk.create("/x", data=1)
        zk.get_data("/x")

    app.spawn(work, name="w")
    cluster.run()
    assert all(r.node != "zk" for r in tracer.trace)
    # But client-boundary push records exist.
    assert tracer.trace.of_kind(OpKind.ZK_UPDATE)


def test_event_records_carry_queue_metadata():
    cluster, tracer = _traced_cluster()
    node = cluster.add_node("n")
    q = node.event_queue("single", consumers=1)
    q.register("e", lambda ev: None)
    node.spawn(lambda: q.post("e"), name="poster")
    cluster.run()
    begin = tracer.trace.of_kind(OpKind.EVENT_BEGIN)[0]
    assert begin.extra["single_consumer"] is True
    assert begin.extra["queue_name"] == "single"
    assert begin.in_handler


def test_selective_scope_drops_non_handler_accesses():
    scope = SelectiveScope(comm_functions=set())
    cluster, tracer = _traced_cluster(scope=scope)
    node = cluster.add_node("n")
    var = node.shared_var("x", 0)
    q = node.event_queue("q")
    q.register("touch", lambda ev: var.set(1))

    def main():
        var.get()  # outside any handler: dropped
        q.post("touch")

    node.spawn(main, name="main")
    cluster.run()
    mems = tracer.trace.mem_accesses()
    assert all(m.in_handler for m in mems)
    assert tracer.dropped_mem >= 1
    assert any(m.kind is OpKind.MEM_WRITE for m in mems)


def test_selective_scope_keeps_comm_function_extent():
    source = (
        "def talks(node):\n"
        "    node.send('b', 'x', 1)\n"
        "\n"
        "def silent(node):\n"
        "    return 1\n"
    )
    funcs = find_comm_functions_in_sources([source])
    assert "talks" in funcs
    assert "silent" not in funcs


def test_trace_roundtrip_serialization(tmp_path):
    cluster, tracer = _traced_cluster()
    node = cluster.add_node("n")
    var = node.shared_var("x")
    node.spawn(lambda: var.set(5), name="w")
    cluster.run()
    tracer.trace.save(str(tmp_path))
    restored = Trace.load(str(tmp_path))
    assert len(restored) == len(tracer.trace)
    assert [r.seq for r in restored] == [r.seq for r in tracer.trace]
    kinds = [r.kind for r in restored]
    assert kinds == [r.kind for r in tracer.trace]


def test_trace_size_and_categories():
    cluster, tracer = _traced_cluster()
    node = cluster.add_node("n")
    var = node.shared_var("x")
    node.spawn(lambda: var.set(1), name="w")
    cluster.run()
    counts = tracer.trace.category_counts()
    assert counts["mem"] >= 1
    assert counts["thread"] >= 2
    assert tracer.trace.size_bytes() > 0


def test_unbound_tracer_skips_and_counts_unknown_nodes():
    from repro.ids import CallStack
    from repro.runtime.ops import OpEvent

    tracer = Tracer(scope=FullScope())  # never bound: no known nodes
    tracer.after(
        OpEvent(
            seq=0,
            kind=OpKind.MEM_WRITE,
            obj_id="x",
            node="ghost",
            tid=0,
            thread_name="t",
            segment=0,
            callstack=CallStack(),
            location=(1, "x"),
        )
    )
    # An uninstrumented process produces no records — but not silently.
    assert len(tracer.trace) == 0
    assert tracer.trace.skipped_unbound == 1
    assert tracer.trace.skipped_untraced == 0


def test_untraced_substrate_skips_are_counted():
    cluster, tracer = _traced_cluster()
    cluster.zookeeper()  # untraced substrate node
    app = cluster.add_node("app")

    def work():
        zk = app.zk()
        zk.create("/x", data=1)
        zk.get_data("/x")

    app.spawn(work, name="w")
    cluster.run()
    assert all(r.node != "zk" for r in tracer.trace)
    assert tracer.trace.skipped_untraced >= 1
