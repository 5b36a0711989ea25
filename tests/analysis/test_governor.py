"""Resource governance: the stage deadline, the RSS probe, stall points."""

import time

import pytest

from repro.analysis.governor import StageBudget, maybe_stall, process_rss_mb
from repro.pipeline import DCatch, PipelineConfig
from repro.systems import workload_by_id


def test_process_rss_is_positive():
    rss = process_rss_mb()
    assert rss > 0  # a live interpreter is at least a few MB


def test_stage_budget_without_deadline_never_exceeds():
    budget = StageBudget(name="x", started=time.perf_counter() - 100)
    assert budget.elapsed() >= 100
    assert not budget.exceeded()


def test_stage_budget_deadline_is_sticky():
    budget = StageBudget(
        name="x", started=time.perf_counter() - 10, max_seconds=1.0
    )
    assert budget.exceeded()
    assert budget.deadline_hit
    assert budget.exceeded()  # still true, counted once


def test_governor_records_deadline_stages():
    """Every stage that ran gets one last poll as it ends, so a stage
    with nothing to cut short (trace) or whose loop happened to finish
    (analysis) still reads degraded, and is counted once."""
    config = PipelineConfig(max_stage_seconds=0.0, trigger=False)
    result = DCatch(workload_by_id("ZK-1144"), config).run()
    assert result.stage_status["trace"] == "degraded"
    assert result.stage_status["analysis"] == "degraded"
    assert "trigger" not in result.stage_status
    series = result.metrics["governor_deadline_exceeded_total"]["series"]
    assert series == {
        "stage=trace": {"value": 1.0},
        "stage=analysis": {"value": 1.0},
    }


def test_governor_without_deadline_records_nothing():
    result = DCatch(
        workload_by_id("ZK-1144"), PipelineConfig(trigger=False)
    ).run()
    assert set(result.stage_status.values()) == {"ok"}
    assert "governor_deadline_exceeded_total" not in result.metrics


def test_maybe_stall_ignores_other_points(monkeypatch):
    monkeypatch.setenv("DCATCH_STALL", "here:60")
    started = time.perf_counter()
    maybe_stall("elsewhere")  # different point: no sleep
    assert time.perf_counter() - started < 1


def test_maybe_stall_sleeps_at_named_point(monkeypatch):
    monkeypatch.setenv("DCATCH_STALL", "here:0.05")
    started = time.perf_counter()
    maybe_stall("here")
    assert time.perf_counter() - started >= 0.05


def test_maybe_stall_tolerates_malformed_spec(monkeypatch):
    monkeypatch.setenv("DCATCH_STALL", "here:not-a-number")
    maybe_stall("here")  # must not raise
