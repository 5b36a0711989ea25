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


def _figure3_chain():
    """HB-4539's Figure 3 pair: the write in ``split_table`` and the read
    in ``on_region_state_change``, with an explainer over its graph."""
    from repro.systems import workload_by_id

    workload = workload_by_id("HB-4539")
    cluster = workload.cluster(0, churn=False)
    tracer = Tracer(scope=FullScope()).bind(cluster)
    cluster.run()
    trace = tracer.trace

    def access(write, func):
        return next(
            r
            for r in trace.mem_accesses()
            if r.is_write == write
            and str(r.obj_id).endswith("regions_in_transition")
            and r.site
            and func in r.site.func
        )

    return (
        ChainExplainer(HBGraph(trace)),
        access(True, "split_table"),
        access(False, "on_region_state_change"),
    )


def test_figure3_chain_uses_all_rule_families():
    """The full Figure 3 chain: Tfork + Mrpc + Eenq + Mpush in one path."""
    explainer, write, read = _figure3_chain()
    rules = [hop.rule for hop in explainer.explain(write, read)]
    for family in ("Tfork", "Mrpc", "Eenq", "Mpush"):
        assert family in rules, f"{family} missing from chain {rules}"


def _line(module, func, text):
    """The number of the first line of ``module`` at or after ``def
    func(`` that holds ``text``: each hop is named by its operation, so
    an edit above it does not move the expected chain."""
    import inspect

    lines = inspect.getsource(module).splitlines()
    start = next(
        i for i, line in enumerate(lines) if line.lstrip().startswith(f"def {func}(")
    )
    return next(i for i in range(start, len(lines)) if text in lines[i]) + 1


def _figure3_text():
    from repro.systems.minihb import master, regionserver

    m = "src/repro/systems/minihb/master.py"
    r = "src/repro/systems/minihb/regionserver.py"
    put = _line(master, "split_table", "self.regions_in_transition.put(")
    create = _line(master, "split_table", "self.zk.create(")
    watch = _line(master, "split_table", "self.zk.watch(")
    spawn = _line(master, "split_table", "self.node.spawn(open_thread")
    call = _line(master, "open_thread", ".open_region(region)")
    post = _line(regionserver, "open_region", "self.open_queue.post(")
    zk = _line(regionserver, "on_open_region", "zk = self.node.zk()")
    exists = _line(regionserver, "on_open_region", "if zk.exists(path)")
    set_data = _line(regionserver, "on_open_region", "zk.set_data(path")
    get = _line(master, "on_region_state_change", "self.regions_in_transition.get(")
    return f"""\
mem_write@{m}:{put}
  =P=> zk_update@{m}:{create} [master/master.rpc]
  =P=> rpc_create@{m}:{create} [master/master.rpc]
  =P=> rpc_join@{m}:{create} [master/master.rpc]
  =P=> rpc_create@{m}:{watch} [master/master.rpc]
  =P=> rpc_join@{m}:{watch} [master/master.rpc]
  =P=> thread_create@{m}:{spawn} [master/master.rpc]
  =Tfork=> thread_begin@master [master/master.open-region-1]
  =P=> rpc_create@{m}:{call} [master/master.open-region-1]
  =Mrpc=> rpc_begin@hrs1 [hrs1/hrs1.rpc]
  =P=> event_create@{r}:{post} [hrs1/hrs1.rpc]
  =Eenq=> event_begin@hrs1 [hrs1/hrs1.eq.open-region]
  =P=> thread_create@{r}:{zk} [hrs1/hrs1.eq.open-region]
  =P=> rpc_create@{r}:{exists} [hrs1/hrs1.eq.open-region]
  =P=> rpc_join@{r}:{exists} [hrs1/hrs1.eq.open-region]
  =P=> zk_update@{r}:{set_data} [hrs1/hrs1.eq.open-region]
  =Mpush=> zk_pushed@master [master/master.eq.zkwatch]
  =P=> mem_read@{m}:{get} [master/master.eq.zkwatch]"""


def test_figure3_chain_renders_verbatim():
    """Every hop keeps the rule that added its edge, byte for byte."""
    explainer, write, read = _figure3_chain()
    assert explainer.render(write, read) == _figure3_text()


def test_sp_lock_hop_is_labelled_with_its_rule():
    """A release->acquire edge of the SP graph reads ``SPlock``."""
    from repro.detect.syncpres import SP_LOCK_RULE, build_sp_graph

    def build(cluster):
        node = cluster.add_node("n")
        var = node.shared_var("x", 0)
        lock = node.lock("l")

        def worker(value):
            with lock:
                var.set(value)

        node.spawn(lambda: worker(1), name="a")
        node.spawn(lambda: worker(2), name="b")

    trace = _run(build)
    first, second = _mem(trace, "n.x", True)[:2]
    assert ChainExplainer(HBGraph(trace)).explain(first, second) is None
    hops = ChainExplainer(build_sp_graph(trace)).explain(first, second)
    assert SP_LOCK_RULE in [hop.rule for hop in hops]


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
