"""Static pruning end-to-end on real workload traces."""

import pytest

from repro.analysis import SourceIndex, StaticPruner
from repro.detect import ReportSet, detect_races
from repro.systems import workload_by_id
from repro.trace import Tracer, selective_scope_for


@pytest.fixture(scope="module")
def mr3274_artifacts():
    workload = workload_by_id("MR-3274")
    cluster = workload.cluster(0, churn=False)
    tracer = Tracer(scope=selective_scope_for(workload.modules()))
    tracer.bind(cluster)
    cluster.run()
    detection = detect_races(tracer.trace)
    reports = ReportSet.from_detection(detection)
    index = SourceIndex.from_modules(workload.modules())
    pruner = StaticPruner.for_trace(index, tracer.trace)
    return workload, tracer.trace, reports, pruner


def test_root_bug_survives_pruning(mr3274_artifacts):
    _w, _trace, reports, pruner = mr3274_artifacts
    result = pruner.apply(reports)
    kept_vars = {
        r.representative.variable for r in result.kept
    }
    assert "am.tasks" in kept_vars


def test_impact_reason_mentions_distributed_or_loop(mr3274_artifacts):
    """The get_task read's impact is the remote polling loop."""
    _w, _trace, reports, pruner = mr3274_artifacts
    get_remove = [
        r
        for r in reports
        if any(
            a.site and "get_task" in a.site.func
            for a in r.representative.accesses()
        )
    ]
    assert get_remove
    decision = pruner.assess(get_remove[0])
    assert decision.keep
    assert any("loop_exit" in reason for reason in decision.reasons)


def test_impactless_candidate_pruned(mr3274_artifacts):
    """registered_count is written under a lock in a handler and read by
    nothing failure-relevant: its (hypothetical) reports get pruned."""
    _w, trace, reports, pruner = mr3274_artifacts
    counted = [
        r
        for r in reports
        if "registered_count" in r.representative.variable
    ]
    for report in counted:
        decision = pruner.assess(report)
        assert not decision.keep


def test_prune_result_partition(mr3274_artifacts):
    _w, _trace, reports, pruner = mr3274_artifacts
    result = pruner.apply(reports)
    assert len(result.kept) + len(result.pruned) == len(reports)
    assert result.seconds >= 0
    assert "static pruning kept" in result.summary()


def test_decisions_cover_all_reports(mr3274_artifacts):
    _w, _trace, reports, pruner = mr3274_artifacts
    result = pruner.apply(reports)
    assert len(result.decisions) == len(reports)
    for decision in result.decisions:
        if decision.keep:
            assert decision.reasons


def test_rank_orders_soundness_then_confidence():
    from repro.analysis.pruner import rank_reports
    from repro.detect.report import BugReport

    def report(rid, soundness, confidence):
        return BugReport(
            report_id=rid,
            candidates=[],
            soundness=soundness,
            confidence=confidence,
        )

    ranked = rank_reports(
        [
            report(1, "hb-predicted", "sampled"),
            report(2, "sp-sound", "sampled"),
            report(3, "hb-predicted", "full"),
            report(4, "sp-sound", "full"),
            report(5, "hb-predicted", "partial"),
            report(6, "trigger-confirmed", "sampled"),
            report(7, "sp-sound", "partial"),
        ]
    )
    # Soundness dominates; within a tier full goes before partial
    # before sampled (the trigger queue, and the pipeline's only order).
    assert [r.report_id for r in ranked] == [6, 4, 7, 2, 3, 5, 1]


def test_rank_stable_by_id_within_tier():
    from repro.analysis.pruner import rank_reports
    from repro.detect.report import BugReport

    reports = [
        BugReport(report_id=rid, candidates=[], confidence="sampled")
        for rid in (3, 1, 2)
    ]
    assert [r.report_id for r in rank_reports(reports)] == [1, 2, 3]
