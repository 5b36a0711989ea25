"""End-to-end observability: metrics and spans across the pipeline."""

import pytest

from repro import obs
from repro.pipeline import DCatch, PipelineConfig
from repro.systems import workload_by_id


@pytest.fixture(scope="module")
def observed_result():
    workload = workload_by_id("ZK-1270")
    return DCatch(workload, PipelineConfig()).run()


def test_metrics_snapshot_on_result(observed_result):
    metrics = observed_result.metrics
    assert metrics, "observability on by default"
    for name in (
        "pipeline_runs_total",
        "scheduler_steps_total",
        "scheduler_threads_spawned_total",
        "hb_graphs_built_total",
        "detect_pairs_examined_total",
        "prune_kept_total",
        "trace_records",
        "trigger_runs_total",
    ):
        assert name in metrics, f"missing metric {name}"
    assert metrics["pipeline_runs_total"]["value"] == 1
    assert metrics["scheduler_steps_total"]["value"] > 0
    assert metrics["hb_graphs_built_total"]["value"] == 1  # SP reuses HB


def test_profile_spans_cover_stages(observed_result):
    tracer = observed_result.profile
    assert tracer is not None
    names = {s.name for s in tracer.closed()}
    assert "pipeline.base" not in names  # one monitored run, no baseline
    assert {
        "pipeline.tracing",
        "pipeline.analysis",
        "pipeline.pruning",
        "pipeline.trigger",
        "hb.build",
        "detect.enumerate",
        "prune.apply",
        "trigger.validate",
    } <= names
    # nesting: hb.build sits under pipeline.analysis
    analysis = tracer.by_name("pipeline.analysis")[0]
    child_names = {s.name for s in tracer.children_of(analysis)}
    assert "hb.build" in child_names


def test_stage_spans_agree_with_timings(observed_result):
    tracer = observed_result.profile
    for stage, key in (
        ("pipeline.tracing", "tracing_seconds"),
        ("pipeline.analysis", "analysis_seconds"),
    ):
        span = tracer.by_name(stage)[0]
        recorded = observed_result.timings[key]
        assert span.wall_seconds == pytest.approx(recorded, abs=0.05)


def test_trace_stats_metrics_agree_with_compute_stats(observed_result):
    from repro.trace import compute_stats

    stats = compute_stats(observed_result.trace)
    metrics = observed_result.metrics
    assert metrics["trace_records"]["value"] == stats.total
    assert metrics["trace_size_bytes"]["value"] == stats.size_bytes
    assert metrics["trace_hb_ops"]["value"] == stats.hb_ops
    assert metrics["trace_lock_ops"]["value"] == stats.lock_ops
    by_cat = metrics["trace_records_by_category"]["series"]
    for category, count in stats.categories.items():
        assert by_cat[f"category={category}"]["value"] == count


def test_message_metrics_populated(observed_result):
    # ZK-1270 is socket-based: delivery counters, no RPCs
    metrics = observed_result.metrics
    assert metrics["messages_sent_total"]["value"] > 0
    assert metrics["messages_delivered_total"]["value"] > 0
    assert "series" in metrics["messages_sent_total"]  # labeled by verb


def test_rpc_metrics_populated():
    # MR-3274 drives its workers over RPC
    workload = workload_by_id("MR-3274")
    result = DCatch(workload, PipelineConfig(trigger=False)).run()
    metrics = result.metrics
    assert metrics["hb_graphs_built_total"]["value"] == 2  # HB, then SP
    assert metrics["rpc_calls_total"]["value"] > 0
    assert "series" in metrics["rpc_calls_total"]  # labeled by method
    assert metrics["rpc_latency_steps"]["count"] == (
        metrics["rpc_calls_total"]["value"]
        - metrics.get("rpc_timeouts_total", {"value": 0})["value"]
        - metrics.get("rpc_failures_total", {"value": 0})["value"]
    )


def test_fault_injection_metrics():
    from repro.runtime.faults import FaultAction, FaultKind, FaultPlan

    workload = workload_by_id("ZK-1270")
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        cluster = workload.cluster(0)
        plan = FaultPlan(
            [
                FaultAction(120, FaultKind.CRASH, target="zk2"),
                FaultAction(200, FaultKind.RESTART, target="zk2"),
            ]
        )
        plan.install(cluster)
        cluster.run()
    snap = registry.snapshot()
    assert snap["faults_injected_total"]["value"] >= 1
    kinds = snap["faults_injected_total"]["series"]
    assert any(k.startswith("kind=") for k in kinds)


def test_shared_registry_accumulates_across_runs():
    workload = workload_by_id("ZK-1270")
    registry = obs.MetricsRegistry(name="campaign")
    config = PipelineConfig(trigger=False)
    with obs.use_registry(registry):
        DCatch(workload, config).run()
        DCatch(workload, config).run()
    assert registry.snapshot()["pipeline_runs_total"]["value"] == 2
