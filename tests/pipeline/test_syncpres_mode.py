"""The sync-preserving (SP) tier on batch runs through the full pipeline.

Batch detection always computes the tier. It never changes *what* is
reported, only what the downstream stages trust: SP survivors become
``sp-sound`` reports that rank first in pruning and trigger order, and
the summary says how many HB-only pairs the sound tier set aside.
"""

import pytest

from repro.pipeline import DCatch, PipelineConfig
from repro.systems import workload_by_id


def _pairs(candidates):
    return {(c.first.seq, c.second.seq) for c in candidates}


@pytest.fixture(scope="module")
def zk1144_result():
    return DCatch(
        workload_by_id("ZK-1144"), PipelineConfig(trigger=False)
    ).run()


def test_sp_mode_annotates_and_tiers_reports(zk1144_result):
    detection = zk1144_result.detection
    # no lock sections: the SP order is the HB order
    assert detection.sp_pairs == _pairs(detection.candidates)
    reports = zk1144_result.reports
    assert {r.soundness for r in reports} == {"sp-sound"}
    assert {
        detection.candidate_soundness(c) for r in reports for c in r.candidates
    } == {"sp-sound"}


def test_sp_mode_summary_mentions_tiers(zk1144_result):
    summary = zk1144_result.summary()
    assert "sync-preserving:" in summary
    assert "sp-sound" in summary


@pytest.fixture(scope="module")
def mr3274_result():
    return DCatch(
        workload_by_id("MR-3274"), PipelineConfig(trigger=False)
    ).run()


def test_hb_only_candidates_sidelined_before_trigger(mr3274_result):
    """MR-3274's job-lock audit counter yields lock-protected (HB-only)
    candidates: SP demotes them to ``hb-predicted`` and the impact
    pruner drops them (a lock-guarded counter feeds no failure); what is
    kept is in trigger order, every sp-sound report first."""
    detection = mr3274_result.detection
    assert detection.sp_pairs < _pairs(detection.candidates)
    pruned = mr3274_result.prune_result.pruned
    assert any(r.soundness == "hb-predicted" for r in pruned)
    tiers = [r.soundness for r in mr3274_result.reports]
    assert tiers == sorted(tiers, key=lambda t: t != "sp-sound")


def test_sp_closure_over_budget_skips_only_the_tier(
    monkeypatch, mr3274_result
):
    """An SP closure over the budget skips the tier, not the run: same
    reports and stage status, every report ``hb-predicted``."""
    from repro.detect import syncpres
    from repro.errors import TraceAnalysisOOM

    def over_budget(trace, model=None, memory_budget=0):
        raise TraceAnalysisOOM("SP closure needs 9 bytes", 9, 1)

    monkeypatch.setattr(syncpres, "build_sp_graph", over_budget)
    result = DCatch(
        workload_by_id("MR-3274"), PipelineConfig(trigger=False)
    ).run()
    assert result.detection.sp_pairs is None
    assert result.oom is None and not result.degraded
    assert result.stage_status == mr3274_result.stage_status
    assert {r.soundness for r in result.reports_pre_prune} == {"hb-predicted"}
    assert {r.report_id: _pairs(r.candidates) for r in result.reports} == {
        r.report_id: _pairs(r.candidates) for r in mr3274_result.reports
    }
    assert (
        "sync-preserving: skipped, SP closure OUT OF MEMORY "
        "(SP closure needs 9 bytes); every report stays hb-predicted"
    ) in result.summary().splitlines()
