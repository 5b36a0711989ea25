"""Resource governance: budgets, deadlines, the degradation ladder."""

import time

import pytest

from repro import obs
from repro.analysis.governor import (
    DEGRADATION_LADDER,
    TRUNCATED_MAX_PAIRS,
    ResourceGovernor,
    StageBudget,
    maybe_stall,
    process_rss_mb,
)


def test_ladder_order_and_truncation_cap():
    assert DEGRADATION_LADDER == ("truncate_pairs", "abandoned")
    assert 0 < TRUNCATED_MAX_PAIRS < 200_000


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
    governor = ResourceGovernor(max_stage_seconds=0.0)
    with governor.stage("slow") as budget:
        time.sleep(0.01)
        assert budget.exceeded()
    assert governor.deadline_stages == ["slow"]


def test_governor_without_deadline_records_nothing():
    governor = ResourceGovernor()
    with governor.stage("fast"):
        pass
    assert governor.deadline_stages == []


def test_reach_budget_tightens_only_when_set():
    governor = ResourceGovernor()
    assert governor.reach_budget(123) == 123
    governor = ResourceGovernor(memory_budget_mb=1)
    assert governor.reach_budget(10**9) == 1024 * 1024
    assert governor.reach_budget(5) == 5  # already tighter


def test_memory_pressure_thresholds():
    assert not ResourceGovernor().memory_pressure()
    # any real interpreter is over 1 MB and under 10^6 MB
    assert ResourceGovernor(memory_budget_mb=1).memory_pressure()
    assert not ResourceGovernor(memory_budget_mb=10**6).memory_pressure()


def test_degrade_appends_and_counts():
    registry = obs.MetricsRegistry(name="gov")
    governor = ResourceGovernor()
    with obs.use_registry(registry):
        governor.degrade("truncate_pairs", "detect", "rss")
        governor.degrade("abandoned", "reach", "too big")
    assert governor.degradations == ["truncate_pairs", "abandoned"]
    snapshot = registry.snapshot()["governor_degradations_total"]
    assert snapshot["value"] == 2.0
    assert "rung=abandoned,stage=reach" in snapshot["series"]


def test_governor_summary_shape():
    governor = ResourceGovernor(max_stage_seconds=5, memory_budget_mb=64)
    governor.degrade("truncate_pairs", "detect")
    summary = governor.summary()
    assert summary["max_stage_seconds"] == 5
    assert summary["memory_budget_mb"] == 64
    assert summary["degradations"] == ["truncate_pairs"]


def test_maybe_stall_ignores_other_points(monkeypatch):
    monkeypatch.setenv("DCATCH_STALL", "hb_build:60")
    started = time.perf_counter()
    maybe_stall("detect_shard")  # different point: no sleep
    assert time.perf_counter() - started < 1


def test_maybe_stall_sleeps_at_named_point(monkeypatch):
    monkeypatch.setenv("DCATCH_STALL", "here:0.05")
    started = time.perf_counter()
    maybe_stall("here")
    assert time.perf_counter() - started >= 0.05


def test_maybe_stall_tolerates_malformed_spec(monkeypatch):
    monkeypatch.setenv("DCATCH_STALL", "here:not-a-number")
    maybe_stall("here")  # must not raise
