"""Fault campaigns through the full pipeline: reproducibility, soundness,
and degrade-don't-die behaviour when stages or runs blow up."""

import pytest

from repro.pipeline import DCatch, PipelineConfig
from repro.runtime import (
    Cluster,
    FaultAction,
    FaultCampaign,
    FaultKind,
    FaultPlan,
    sleep,
)
from repro.systems.base import BenchmarkInfo, Workload
from repro.systems.minica.bootstrap import BootstrapNode
from repro.systems.minica.gossip import SeedNode
from repro.trace.records import dump_records


class SmallRingWorkload(Workload):
    """A two-node mini-Cassandra ring small enough for campaign tests."""

    info = BenchmarkInfo(
        bug_id="CA-CAMPAIGN",
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


def _plan(seed, nodes):
    return FaultPlan(
        [
            FaultAction(25, FaultKind.CRASH, target="ca2"),
            FaultAction(55, FaultKind.RESTART, target="ca2"),
            FaultAction(130, FaultKind.PARTITION, group_a=("ca1",), group_b=("ca2",)),
            FaultAction(160, FaultKind.HEAL, group_a=("ca1",), group_b=("ca2",)),
        ],
        duplicate_probability=0.1,
    )


def _campaign(**kwargs):
    kwargs.setdefault("seeds", (0,))
    kwargs.setdefault("plan_factory", _plan)
    kwargs.setdefault("config", PipelineConfig(trigger=False))
    return FaultCampaign(SmallRingWorkload(), **kwargs)


def test_campaign_is_byte_for_byte_reproducible():
    first = _campaign().run()
    second = _campaign().run()
    assert first.completed_runs and second.completed_runs
    for run_a, run_b in zip(first.runs, second.runs):
        assert run_a.ok and run_b.ok
        assert run_a.plan.describe() == run_b.plan.describe()
        assert dump_records(run_a.result.trace.records) == dump_records(
            run_b.result.trace.records
        )


def test_campaign_traces_differ_across_seeds():
    outcome = _campaign(seeds=(0, 1)).run()
    assert len(outcome.completed_runs) == 2
    a, b = outcome.runs
    assert dump_records(a.result.trace.records) != dump_records(
        b.result.trace.records
    )


def test_campaign_runs_are_sound_under_faults():
    outcome = _campaign(seeds=(0, 1)).run()
    assert not outcome.failed_runs
    assert outcome.sound
    for run in outcome.completed_runs:
        assert run.soundness is not None and run.soundness.ok
        # The crash window plus duplication knob actually did something.
        assert (
            run.soundness.dropped_sends + run.soundness.duplicated_sends
        ) >= 0


def test_campaign_uses_seeded_plans_by_default():
    outcome = FaultCampaign(
        SmallRingWorkload(), seeds=(0,), config=PipelineConfig(trigger=False)
    ).run()
    assert len(outcome.runs) == 1
    run = outcome.runs[0]
    assert run.plan.actions  # a seeded plan was synthesised
    assert "campaign" in outcome.summary().lower() or outcome.summary()


def test_campaign_records_per_run_errors_instead_of_raising():
    class ExplodingWorkload(SmallRingWorkload):
        def build(self, cluster: Cluster) -> None:
            if cluster.seed == 1:
                raise RuntimeError("build refused seed 1")
            super().build(cluster)

    outcome = FaultCampaign(
        ExplodingWorkload(),
        seeds=(0, 1),
        plan_factory=_plan,
        config=PipelineConfig(trigger=False),
    ).run()
    assert len(outcome.runs) == 2
    ok_runs = [r for r in outcome.runs if r.ok]
    failed = outcome.failed_runs
    assert len(ok_runs) == 1 and len(failed) == 1
    assert failed[0].seed == 1
    assert "build refused seed 1" in failed[0].error
    assert "FAILED" in failed[0].describe()


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
    outcome = _campaign().run()
    run = outcome.completed_runs[0]
    assert run.result.detection is not None
    assert run.result.monitored_result.completed
    assert not run.result.errors or run.result.degraded
