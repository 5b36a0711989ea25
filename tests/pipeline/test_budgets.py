"""Resource-governed degradation, end to end: the stage deadline and the
closure memory budget."""

from repro.detect.export import dump_reports
from repro.pipeline import DCatch, PipelineConfig
from repro.systems import workload_by_id


def _reports_json(result):
    return dump_reports(result.reports)


def test_whole_ladder_exhausted_still_reports_oom():
    """When the reachability closure cannot fit, analysis is abandoned
    and the OOM is recorded — never raised."""
    config = PipelineConfig(trigger=False, scope="full", memory_budget_mb=0)
    result = DCatch(workload_by_id("ZK-1270"), config).run()
    assert result.oom is not None
    assert result.detection is None
    assert result.stage_status["analysis"] == "failed"
    assert result.degraded
    assert "OUT OF MEMORY" in result.summary()


def test_oom_summary_still_says_everything_else():
    """The OOM line stands in for the ``trace analysis:`` line; the
    failure count and the timings the run does have are still printed
    (the summary used to return right after it)."""
    config = PipelineConfig(scope="full", memory_budget_mb=0)
    result = DCatch(workload_by_id("ZK-1270"), config).run()
    assert result.oom is not None
    lines = result.summary().splitlines()
    assert sum(line.startswith("trace analysis:") for line in lines) == 1
    assert "partial failures: analysis: 1" in lines
    assert any(line.startswith("  tracing_seconds: ") for line in lines)


def test_small_memory_budget_that_fits_changes_nothing():
    """``memory_budget_mb`` is the closure's byte budget, not a poll of
    the interpreter's RSS: 1 MB holds ZK-1144's closure, so the run is
    the default run."""
    default = DCatch(workload_by_id("ZK-1144"), PipelineConfig()).run()
    result = DCatch(
        workload_by_id("ZK-1144"), PipelineConfig(memory_budget_mb=1)
    ).run()
    assert set(result.stage_status.values()) == {"ok"}
    assert not result.degraded
    assert _reports_json(result) == _reports_json(default)


def test_stage_deadline_marks_trigger_degraded():
    """A zero deadline lets no trigger report run; outcomes stay empty
    and the stage is degraded, not wedged."""
    config = PipelineConfig(max_stage_seconds=0.0)
    result = DCatch(workload_by_id("ZK-1144"), config).run()
    assert result.stage_status.get("trigger") == "degraded"
    assert result.outcomes == []
    series = result.metrics["governor_deadline_exceeded_total"]["series"]
    assert "stage=trigger" in series


def test_deadline_detect_stops_early():
    config = PipelineConfig(max_stage_seconds=0.0, trigger=False)
    result = DCatch(workload_by_id("ZK-1144"), config).run()
    assert result.detection is not None
    assert result.detection.stopped_early
    assert result.stage_status.get("analysis") == "degraded"
    assert result.degraded
