"""Each MTEP rule establishes the ordering the paper specifies."""

import pickle

import pytest

from repro.errors import TraceAnalysisOOM
from repro.hb import FULL_MODEL, HBGraph, HBModel, ablate_trace
from repro.runtime import Cluster, OpKind, sleep
from repro.trace import FullScope, Tracer


def run_traced(build, seed=0):
    cluster = Cluster(seed=seed)
    tracer = Tracer(scope=FullScope()).bind(cluster)
    build(cluster)
    result = cluster.run()
    return tracer.trace, result


def mem_ops(trace, var_suffix):
    return [
        r
        for r in trace.mem_accesses()
        if str(r.obj_id).endswith(var_suffix)
    ]


def test_fork_rule_orders_parent_write_before_child_read():
    def build(cluster):
        node = cluster.add_node("n")
        var = node.shared_var("x", 0)

        def parent():
            var.set(1)  # W before fork
            node.spawn(lambda: var.get(), name="child")

        node.spawn(parent, name="parent")

    trace, _ = run_traced(build)
    graph = HBGraph(trace)
    write = [r for r in mem_ops(trace, "n.x") if r.is_write][0]
    read = [r for r in mem_ops(trace, "n.x") if not r.is_write][0]
    assert graph.happens_before(write, read)
    assert not graph.concurrent(write, read)


def test_no_fork_rule_makes_them_concurrent():
    def build(cluster):
        node = cluster.add_node("n")
        var = node.shared_var("x", 0)

        def parent():
            var.set(1)
            node.spawn(lambda: var.get(), name="child")

        node.spawn(parent, name="parent")

    trace, _ = run_traced(build)
    graph = HBGraph(trace, model=FULL_MODEL.without("fork_join"))
    write = [r for r in mem_ops(trace, "n.x") if r.is_write][0]
    read = [r for r in mem_ops(trace, "n.x") if not r.is_write][0]
    assert graph.concurrent(write, read)


def test_join_rule_orders_child_write_before_parent_read():
    def build(cluster):
        node = cluster.add_node("n")
        var = node.shared_var("x", 0)

        def parent():
            t = node.spawn(lambda: var.set(1), name="child")
            node.join(t)
            var.get()

        node.spawn(parent, name="parent")

    trace, _ = run_traced(build)
    graph = HBGraph(trace)
    write = [r for r in mem_ops(trace, "n.x") if r.is_write][0]
    read = [r for r in mem_ops(trace, "n.x") if not r.is_write][-1]
    assert graph.happens_before(write, read)


def test_rpc_rule_orders_caller_write_before_handler_read():
    def build(cluster):
        server = cluster.add_node("server")
        client = cluster.add_node("client")
        var = server.shared_var("x", 0)
        server.rpc_server.register("probe", lambda: var.get())

        def caller():
            var.set(1)
            client.rpc("server").probe()

        client.spawn(caller, name="caller")

    trace, _ = run_traced(build)
    graph = HBGraph(trace)
    write = [r for r in mem_ops(trace, "server.x") if r.is_write][0]
    read = [r for r in mem_ops(trace, "server.x") if not r.is_write][0]
    assert graph.happens_before(write, read)


def test_rpc_rule_orders_handler_write_before_post_join_read():
    def build(cluster):
        server = cluster.add_node("server")
        client = cluster.add_node("client")
        var = server.shared_var("x", 0)
        server.rpc_server.register("mutate", lambda: var.set(1))

        def caller():
            client.rpc("server").mutate()
            var.get()

        client.spawn(caller, name="caller")

    trace, _ = run_traced(build)
    graph = HBGraph(trace)
    write = [r for r in mem_ops(trace, "server.x") if r.is_write][0]
    read = [r for r in mem_ops(trace, "server.x") if not r.is_write][0]
    assert graph.happens_before(write, read)


def test_rpc_ablation_loses_order():
    def build(cluster):
        server = cluster.add_node("server")
        client = cluster.add_node("client")
        var = server.shared_var("x", 0)
        server.rpc_server.register("probe", lambda: var.get())

        def caller():
            var.set(1)
            client.rpc("server").probe()

        client.spawn(caller, name="caller")

    trace, _ = run_traced(build)
    graph = HBGraph(ablate_trace(trace, {"rpc"}))
    write = [r for r in mem_ops(trace, "server.x") if r.is_write][0]
    read = [r for r in mem_ops(trace, "server.x") if not r.is_write][0]
    ablated = graph.trace
    w = [r for r in ablated.mem_accesses() if r.seq == write.seq][0]
    r = [r for r in ablated.mem_accesses() if r.seq == read.seq][0]
    assert graph.concurrent(w, r)


def test_socket_rule_orders_send_before_handler():
    def build(cluster):
        a = cluster.add_node("a")
        b = cluster.add_node("b")
        var = b.shared_var("x", 0)
        b.on_message("poke", lambda payload, src: var.get())

        def sender():
            var.set(1)
            a.send("b", "poke")

        a.spawn(sender, name="sender")

    trace, _ = run_traced(build)
    graph = HBGraph(trace)
    write = [r for r in mem_ops(trace, "b.x") if r.is_write][0]
    read = [r for r in mem_ops(trace, "b.x") if not r.is_write][0]
    assert graph.happens_before(write, read)


def test_push_rule_orders_update_before_watch_callback():
    def build(cluster):
        cluster.zookeeper()
        writer = cluster.add_node("writer")
        watcher = cluster.add_node("watcher")
        var = watcher.shared_var("x", 0)

        def watch_side():
            zk = watcher.zk()
            zk.create("/s", data="init")
            zk.watch("/s", lambda ev: var.get())
            zk.create("/ready")

        def write_side():
            zk = writer.zk()
            while not zk.exists("/ready"):
                sleep(2)
            var.set(1)
            zk.set_data("/s", "done")

        watcher.spawn(watch_side, name="w")
        writer.spawn(write_side, name="u")

    trace, _ = run_traced(build)
    write = [r for r in mem_ops(trace, "watcher.x") if r.is_write][0]
    read = [r for r in mem_ops(trace, "watcher.x") if not r.is_write][-1]
    graph = HBGraph(trace)
    assert graph.happens_before(write, read)
    # Without Rule-Mpush the chain is invisible (service is untraced).
    ablated_graph = HBGraph(ablate_trace(trace, {"push"}))
    w = [r for r in ablated_graph.trace.records if r.seq == write.seq][0]
    r = [r for r in ablated_graph.trace.records if r.seq == read.seq][0]
    assert ablated_graph.concurrent(w, r)


def test_event_enqueue_rule():
    def build(cluster):
        node = cluster.add_node("n")
        var = node.shared_var("x", 0)
        q = node.event_queue("q")
        q.register("go", lambda ev: var.get())

        def poster():
            var.set(1)
            q.post("go")

        node.spawn(poster, name="poster")

    trace, _ = run_traced(build)
    graph = HBGraph(trace)
    write = [r for r in mem_ops(trace, "n.x") if r.is_write][0]
    read = [r for r in mem_ops(trace, "n.x") if not r.is_write][0]
    assert graph.happens_before(write, read)


def test_handlers_on_same_thread_are_concurrent_pnreg():
    """Two handlers on one consumer thread: no program order between them
    (Rule-Pnreg) unless E-serial applies; with E-serial their creates are
    ordered by the poster's program order, so they ARE serialized."""

    def build(cluster):
        node = cluster.add_node("n")
        var = node.shared_var("x", 0)
        q = node.event_queue("q", consumers=1)
        q.register("w", lambda ev: var.set(1))
        q.register("r", lambda ev: var.get())

        def poster():
            q.post("w")
            q.post("r")

        node.spawn(poster, name="poster")

    trace, _ = run_traced(build)
    write = [r for r in mem_ops(trace, "n.x") if r.is_write][0]
    read = [r for r in mem_ops(trace, "n.x") if not r.is_write][0]

    full = HBGraph(trace)
    assert full.happens_before(write, read)  # E-serial orders them

    no_serial = HBGraph(trace, model=FULL_MODEL.without("eserial"))
    assert no_serial.concurrent(write, read)  # Pnreg alone does not


def test_eserial_not_applied_to_multi_consumer_queue():
    def build(cluster):
        node = cluster.add_node("n")
        var = node.shared_var("x", 0)
        q = node.event_queue("pool", consumers=2)
        q.register("w", lambda ev: var.set(1))
        q.register("r", lambda ev: var.get())

        def poster():
            q.post("w")
            q.post("r")

        node.spawn(poster, name="poster")

    trace, _ = run_traced(build, seed=1)
    write = [r for r in mem_ops(trace, "n.x") if r.is_write][0]
    reads = [r for r in mem_ops(trace, "n.x") if not r.is_write]
    graph = HBGraph(trace)
    assert any(graph.concurrent(write, r) for r in reads)


def test_eserial_fixpoint_chains_through_three_events():
    """e1 -> (its handler posts e2) -> e3 posted after e2 by the same
    poster; serialization must chain transitively via the fixpoint."""

    def build(cluster):
        node = cluster.add_node("n")
        var = node.shared_var("x", 0)
        q = node.event_queue("q", consumers=1)

        def h1(ev):
            var.set(1)
            q.post("e2")

        q.register("e1", h1)
        q.register("e2", lambda ev: None)
        q.register("e3", lambda ev: var.get())

        def poster():
            q.post("e1")
            q.post("e3")

        node.spawn(poster, name="poster")

    trace, _ = run_traced(build)
    graph = HBGraph(trace)
    write = [r for r in mem_ops(trace, "n.x") if r.is_write][0]
    read = [r for r in mem_ops(trace, "n.x") if not r.is_write][0]
    assert graph.happens_before(write, read)
    assert graph.edge_counts.get("Eserial", 0) >= 1


def test_pull_rule_local_loop():
    def build(cluster):
        node = cluster.add_node("n")
        flag = node.shared_var("flag", False)
        data = node.shared_var("data", None)

        def producer():
            sleep(5)
            data.set("ready")
            flag.set(True)

        def consumer():
            while not flag.get():  # polling loop
                sleep(1)
            data.get()

        node.spawn(producer, name="p")
        node.spawn(consumer, name="c")

    trace, _ = run_traced(build, seed=2)
    graph = HBGraph(trace)
    assert graph.pull_edges, "expected a local-loop pull edge"
    flag_write = [r for r in mem_ops(trace, "n.flag") if r.is_write][-1]
    data_read = [r for r in mem_ops(trace, "n.data") if not r.is_write][-1]
    assert graph.happens_before(flag_write, data_read)
    # Without the pull rule the final read is concurrent with the write.
    no_pull = HBGraph(trace, model=FULL_MODEL.without("pull"))
    assert no_pull.concurrent(flag_write, data_read)


def test_pull_rule_rpc_polling_loop():
    """The paper's Figure 2 shape: while (!getTask(jid)) over RPC."""

    def build(cluster):
        am = cluster.add_node("am")
        nm = cluster.add_node("nm")
        tasks = am.shared_dict("tasks")
        done = am.shared_var("done", False)
        am.rpc_server.register("get_task", lambda jid: tasks.get(jid))

        def register_task():
            sleep(400)
            tasks.put("j1", "payload")

        def poll():
            while nm.rpc("am").get_task("j1") is None:
                sleep(1)
            done.get()

        am.spawn(register_task, name="reg")
        nm.spawn(poll, name="poll")

    trace, _ = run_traced(build, seed=3)
    graph = HBGraph(trace)
    kinds = {e.kind for e in graph.pull_edges}
    assert "rpc-loop" in kinds
    put = [r for r in mem_ops(trace, "am.tasks") if r.is_write][0]
    done_read = [r for r in mem_ops(trace, "am.done")][-1]
    assert graph.happens_before(put, done_read)


def test_memory_budget_oom():
    def build(cluster):
        node = cluster.add_node("n")
        var = node.shared_var("x", 0)
        for i in range(3):
            node.spawn(lambda: var.set(1), name=f"w{i}")

    trace, _ = run_traced(build)
    graph = HBGraph(trace, memory_budget=1)
    a, b = trace.mem_accesses()[:2]
    with pytest.raises(TraceAnalysisOOM):
        graph.happens_before(a, b)


def test_oom_error_survives_pickling():
    """The three-argument constructor must round-trip through pickle
    with its byte counts."""
    original = TraceAnalysisOOM("too big", required_bytes=10, budget_bytes=5)
    clone = pickle.loads(pickle.dumps(original))
    assert isinstance(clone, TraceAnalysisOOM)
    assert str(clone) == "too big"
    assert clone.required_bytes == 10
    assert clone.budget_bytes == 5
