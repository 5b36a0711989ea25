"""Trace statistics."""

from repro.runtime import Cluster
from repro.trace import FullScope, Tracer, compute_stats


def test_stats_on_small_workload():
    cluster = Cluster(seed=0)
    tracer = Tracer(scope=FullScope()).bind(cluster)
    a = cluster.add_node("a")
    b = cluster.add_node("b")
    var = a.shared_var("x", 0)
    b.rpc_server.register("get", lambda: 1)

    def worker():
        var.set(1)
        var.get()
        a.rpc("b").get()

    a.spawn(worker, name="w")
    cluster.run()

    stats = compute_stats(tracer.trace)
    assert stats.total == len(tracer.trace)
    assert stats.reads == 1
    assert stats.writes == 1
    assert stats.mem_locations == 1
    assert stats.per_node["a"] > 0
    assert stats.per_node["b"] > 0  # the RPC handler side
    assert stats.handler_segments >= 1
    assert "records:" in stats.render()


def test_stats_on_benchmark_trace():
    from repro.systems import workload_by_id
    from repro.trace import selective_scope_for

    workload = workload_by_id("ZK-1144")
    cluster = workload.cluster(0, churn=False)
    tracer = Tracer(scope=selective_scope_for(workload.modules())).bind(cluster)
    cluster.run()
    stats = compute_stats(tracer.trace)
    assert stats.segments > stats.handler_segments
    assert stats.size_bytes == tracer.trace.size_bytes()
    assert sum(stats.per_thread.values()) == stats.total
    assert stats.hb_ops > 0
    assert sum(stats.bytes_by_category.values()) == stats.size_bytes
    assert set(stats.bytes_by_category) == set(stats.categories)


def test_stats_survive_save_load_round_trip(tmp_path):
    from repro.systems import workload_by_id
    from repro.trace import Trace, selective_scope_for

    workload = workload_by_id("ZK-1270")
    cluster = workload.cluster(0)
    tracer = Tracer(scope=selective_scope_for(workload.modules())).bind(cluster)
    cluster.run()

    before = compute_stats(tracer.trace)
    tracer.trace.save(str(tmp_path))
    after = compute_stats(Trace.load(str(tmp_path)))
    assert after == before


def test_publish_stats_mirrors_into_registry():
    from repro.obs import MetricsRegistry
    from repro.trace import publish_stats

    cluster = Cluster(seed=0)
    tracer = Tracer(scope=FullScope()).bind(cluster)
    a = cluster.add_node("a")
    var = a.shared_var("x", 0)
    a.spawn(lambda: var.set(1), name="w")
    cluster.run()

    stats = compute_stats(tracer.trace)
    registry = MetricsRegistry()
    publish_stats(stats, registry)
    snap = registry.snapshot()
    assert snap["trace_records"]["value"] == stats.total
    assert snap["trace_size_bytes"]["value"] == stats.size_bytes
    assert snap["trace_mem_writes"]["value"] == stats.writes
    by_cat = snap["trace_bytes_by_category"]["series"]
    for category, size in stats.bytes_by_category.items():
        assert by_cat[f"category={category}"]["value"] == size


def test_scope_drops_surface_in_stats_and_metrics():
    from repro.obs import MetricsRegistry
    from repro.trace import SelectiveScope, publish_stats

    cluster = Cluster(seed=0)
    tracer = Tracer(scope=SelectiveScope(comm_functions=set())).bind(cluster)
    node = cluster.add_node("n")
    var = node.shared_var("x", 0)

    def main():
        var.get()  # outside any handler: dropped by the scope
        var.set(1)

    node.spawn(main, name="main")
    cluster.run()

    stats = compute_stats(tracer.trace)
    assert stats.dropped_mem >= 1
    text = stats.render()
    assert f"dropped by scope: {stats.dropped_mem}" in text

    registry = MetricsRegistry()
    publish_stats(stats, registry)
    snap = registry.snapshot()
    assert snap["trace_dropped_mem_total"]["value"] == stats.dropped_mem
    assert snap["trace_skipped_unbound_total"]["value"] == 0
    assert snap["trace_skipped_untraced_total"]["value"] == 0

