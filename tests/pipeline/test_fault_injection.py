"""The full pipeline under fault plans: reproducibility, soundness,
and degrade-don't-die behaviour when stages or runs blow up.

A faulted run is ``DCatch(w, replace(cfg, fault_plan=plan,
monitored_seed=seed)).run()``; each one's trace is checked against the
no-spurious-HB-edge oracle in ``tests/runtime/fault_soundness.py``.
"""

import sys
from dataclasses import replace
from pathlib import Path

from repro.pipeline import DCatch, PipelineConfig
from repro.runtime import (
    Cluster,
    FaultAction,
    FaultKind,
    FaultPlan,
)
from repro.systems.base import BenchmarkInfo, Workload
from repro.systems.minica.bootstrap import BootstrapNode
from repro.systems.minica.gossip import SeedNode
from repro.trace.records import dump_records

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "runtime"))
from fault_soundness import verify_fault_soundness  # noqa: E402


class SmallRingWorkload(Workload):
    """A two-node mini-Cassandra ring small enough for faulted runs."""

    info = BenchmarkInfo(
        bug_id="CA-FAULTS",
        system="Cassandra",
        workload="bootstrap + write under faults",
        symptom="none expected",
        error_pattern="-",
        root_cause="-",
    )
    max_steps = 20_000
    trigger_max_steps = 8_000
    source_packages = ("repro.systems.minica",)

    def build(self, cluster: Cluster) -> None:
        seed = SeedNode(cluster, "ca1", replication=1)
        BootstrapNode(cluster, "ca2", seed="ca1", token=42)
        seed.start_writer("k1", "v1", delay=60)


PLAN = FaultPlan(
    [
        FaultAction(25, FaultKind.CRASH, target="ca2"),
        FaultAction(55, FaultKind.RESTART, target="ca2"),
        FaultAction(130, FaultKind.PARTITION, group_a=("ca1",), group_b=("ca2",)),
        FaultAction(160, FaultKind.HEAL, group_a=("ca1",), group_b=("ca2",)),
    ],
    duplicate_probability=0.1,
)


def _faulted_run(seed=0, plan=PLAN):
    config = replace(
        PipelineConfig(trigger=False), fault_plan=plan, monitored_seed=seed
    )
    return DCatch(SmallRingWorkload(), config).run()


def test_faulted_run_is_byte_for_byte_reproducible():
    first, second = _faulted_run(), _faulted_run()
    assert not first.errors and not second.errors
    assert dump_records(first.trace.records) == dump_records(
        second.trace.records
    )


def test_faulted_traces_differ_across_seeds():
    a, b = _faulted_run(seed=0), _faulted_run(seed=1)
    assert dump_records(a.trace.records) != dump_records(b.trace.records)


def test_faulted_runs_are_sound():
    for seed in (0, 1):
        result = _faulted_run(seed=seed)
        assert not result.errors
        report = verify_fault_soundness(result.trace)
        assert report.ok, report.violations
        assert report.checked_sends > 0


def test_faulted_run_under_a_seeded_plan_is_sound():
    plan = FaultPlan.seeded(0, ("ca1", "ca2"))
    assert plan.actions
    result = _faulted_run(seed=0, plan=plan)
    assert not result.errors
    report = verify_fault_soundness(result.trace)
    assert report.ok, report.violations


def test_pipeline_reports_trigger_stage_failures():
    """A trigger re-run that blows up becomes that run's error on its
    outcome, not an exception out of ``run()``."""

    class FragileTriggerWorkload(SmallRingWorkload):
        def factory(self):
            base = super().factory()
            calls = []

            def build(seed):
                calls.append(seed)
                if len(calls) > 1:
                    raise RuntimeError("trigger cluster refused")
                return base(seed)

            return build

    result = DCatch(FragileTriggerWorkload(), PipelineConfig()).run()
    assert result.monitored_result is not None
    assert result.outcomes  # the pipeline finished with partial results
    errored = [
        run
        for outcome in result.outcomes
        for run in outcome.runs
        if run.error
    ]
    assert errored, "expected at least one trigger run to error"
    for run in errored:
        assert not run.result.completed
        assert "ERROR" in run.describe()


def test_pipeline_counts_trigger_stage_failures(monkeypatch):
    """If a whole report's validation blows up (not just one re-run),
    the pipeline records a stage failure and keeps going."""
    from repro.trigger import explorer as trigger_explorer

    def explode(self, report, placement):
        raise RuntimeError("validator wedged")

    monkeypatch.setattr(
        trigger_explorer.TriggerModule, "validate_report", explode
    )
    result = DCatch(SmallRingWorkload(), PipelineConfig()).run()
    assert result.degraded
    assert result.stage_status["trigger"] == "failed"
    assert any("validator wedged" in e for e in result.errors)
    assert "partial failures" in result.summary()


def test_faulted_monitored_run_still_detects():
    """Detection runs over the faulted trace: degraded input, full
    pipeline — the point of the degrade-don't-die design."""
    result = _faulted_run()
    assert result.detection is not None
    assert result.monitored_result.completed
    assert not result.errors or result.degraded
