"""HB chain explanation: labeled paths between ordered operations."""

from repro.hb import ChainExplainer, HBGraph
from repro.runtime import Cluster
from repro.trace import FullScope, Tracer


def _run(build, seed=0):
    cluster = Cluster(seed=seed)
    tracer = Tracer(scope=FullScope()).bind(cluster)
    build(cluster)
    cluster.run()
    return tracer.trace


def _mem(trace, suffix, write):
    return [
        r
        for r in trace.mem_accesses()
        if str(r.obj_id).endswith(suffix) and r.is_write == write
    ]


def test_fork_chain_explained():
    def build(cluster):
        node = cluster.add_node("n")
        var = node.shared_var("x", 0)

        def parent():
            var.set(1)
            node.spawn(lambda: var.get(), name="child")

        node.spawn(parent, name="parent")

    trace = _run(build)
    graph = HBGraph(trace)
    explainer = ChainExplainer(graph)
    write = _mem(trace, "n.x", True)[0]
    read = _mem(trace, "n.x", False)[0]
    rules = [hop.rule for hop in explainer.explain(write, read)]
    assert "Tfork" in rules
    text = explainer.render(write, read)
    assert "=Tfork=>" in text


def test_rpc_chain_explained():
    def build(cluster):
        server = cluster.add_node("server")
        client = cluster.add_node("client")
        var = server.shared_var("x", 0)
        server.rpc_server.register("probe", lambda: var.get())

        def caller():
            var.set(1)
            client.rpc("server").probe()

        client.spawn(caller, name="caller")

    trace = _run(build)
    explainer = ChainExplainer(HBGraph(trace))
    write = _mem(trace, "server.x", True)[0]
    read = _mem(trace, "server.x", False)[0]
    rules = [hop.rule for hop in explainer.explain(write, read)]
    assert "Mrpc" in rules


def test_concurrent_pair_yields_no_chain():
    def build(cluster):
        node = cluster.add_node("n")
        var = node.shared_var("x", 0)
        node.spawn(lambda: var.set(1), name="a")
        node.spawn(lambda: var.set(2), name="b")

    trace = _run(build)
    explainer = ChainExplainer(HBGraph(trace))
    w1, w2 = _mem(trace, "n.x", True)[:2]
    assert explainer.explain(w1, w2) is None
    assert "CONCURRENT" in explainer.render(w1, w2)


def test_figure3_chain_uses_all_rule_families():
    """The full Figure 3 chain: Tfork + Mrpc + Eenq + Mpush in one path."""
    from repro.systems import workload_by_id

    workload = workload_by_id("HB-4539")
    cluster = workload.cluster(0, churn=False)
    tracer = Tracer(scope=FullScope()).bind(cluster)
    cluster.run()
    trace = tracer.trace
    explainer = ChainExplainer(HBGraph(trace))
    write = next(
        r
        for r in trace.mem_accesses()
        if r.is_write
        and str(r.obj_id).endswith("regions_in_transition")
        and r.site
        and "split_table" in r.site.func
    )
    read = next(
        r
        for r in trace.mem_accesses()
        if not r.is_write
        and str(r.obj_id).endswith("regions_in_transition")
        and r.site
        and "on_region_state_change" in r.site.func
    )
    rules = [hop.rule for hop in explainer.explain(write, read)]
    for family in ("Tfork", "Mrpc", "Eenq", "Mpush"):
        assert family in rules, f"{family} missing from chain {rules}"


def test_same_segment_chain_is_program_order():
    def build(cluster):
        node = cluster.add_node("n")
        var = node.shared_var("x", 0)

        def worker():
            var.set(1)
            var.get()

        node.spawn(worker, name="w")

    trace = _run(build)
    explainer = ChainExplainer(HBGraph(trace))
    write = _mem(trace, "n.x", True)[0]
    read = _mem(trace, "n.x", False)[0]
    hops = explainer.explain(write, read)
    assert hops is not None
    assert [h.rule for h in hops] == ["P"]
