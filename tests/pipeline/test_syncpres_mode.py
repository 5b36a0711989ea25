"""``detect_mode="sync-preserving"`` through the full pipeline.

The SP tier never changes *what* is reported — the candidate list is
the batch HB list — it changes what the downstream stages trust: SP
survivors become ``sp-sound`` reports that rank first in pruning and
trigger order, and the summary says how many HB-only pairs the sound
tier set aside.
"""

import pytest

from repro.detect.report import SOUNDNESS_TIERS
from repro.pipeline import DCatch, PipelineConfig
from repro.systems import workload_by_id


def _pairs(result):
    return {
        (c.first.seq, c.second.seq) for c in result.detection.candidates
    }


@pytest.fixture(scope="module")
def sp_result():
    config = PipelineConfig(trigger=False, detect_mode="sync-preserving")
    return DCatch(workload_by_id("ZK-1144"), config).run()


def test_sp_mode_keeps_batch_candidates(sp_result):
    batch = DCatch(
        workload_by_id("ZK-1144"), PipelineConfig(trigger=False)
    ).run()
    assert _pairs(sp_result) == _pairs(batch)


def test_sp_mode_annotates_and_tiers_reports(sp_result):
    detection = sp_result.detection
    assert detection.sp_pairs is not None
    assert detection.sp_pairs <= _pairs(sp_result)
    assert all(r.soundness in SOUNDNESS_TIERS for r in sp_result.reports)
    for report in sp_result.reports:
        expected = (
            "sp-sound"
            if any(
                detection.candidate_soundness(c) == "sp-sound"
                for c in report.candidates
            )
            else "hb-predicted"
        )
        assert report.soundness == expected


def test_sp_mode_summary_mentions_tiers(sp_result):
    summary = sp_result.summary()
    assert "sync-preserving:" in summary
    assert "sp-sound" in summary


def test_batch_mode_reports_stay_on_default_tier():
    result = DCatch(
        workload_by_id("ZK-1144"), PipelineConfig(trigger=False)
    ).run()
    assert result.detection.sp_pairs is None
    assert all(r.soundness == "hb-predicted" for r in result.reports)
    assert "sync-preserving:" not in result.summary()


def test_unknown_detect_mode_rejected():
    with pytest.raises(ValueError):
        DCatch(
            workload_by_id("ZK-1144"),
            PipelineConfig(trigger=False, detect_mode="psychic"),
        )


def test_sp_checkpoint_resume_restores_tier(tmp_path):
    config = PipelineConfig(
        trigger=False,
        detect_mode="sync-preserving",
        checkpoint_dir=str(tmp_path),
    )
    first = DCatch(workload_by_id("ZK-1144"), config).run()
    resumed = DCatch(
        workload_by_id("ZK-1144"),
        PipelineConfig(
            trigger=False,
            detect_mode="sync-preserving",
            checkpoint_dir=str(tmp_path),
            resume=True,
        ),
    ).run()
    assert resumed.stage_status["trace"] == "skipped"
    assert list(resumed.stage_status.values()).count("skipped") == 1
    assert resumed.detection.sp_pairs == first.detection.sp_pairs
    assert [r.soundness for r in resumed.reports] == [
        r.soundness for r in first.reports
    ]


def test_hb_only_candidates_sidelined_before_trigger():
    """MR-3274's job-lock audit counter yields lock-protected (HB-only)
    candidates: SP demotes them to ``hb-predicted`` and they are gone
    before the trigger queue — here the impact pruner drops them (a
    lock-guarded counter feeds no failure), and whatever *is* kept is in
    trigger order: every sp-sound report ahead of every hb-predicted
    one."""
    result = DCatch(
        workload_by_id("MR-3274"),
        PipelineConfig(trigger=False, detect_mode="sync-preserving"),
    ).run()
    detection = result.detection
    hb_only = len(detection.candidates) - len(detection.sp_pairs)
    assert hb_only >= 1
    pre_tiers = [r.soundness for r in result.reports_pre_prune]
    assert "hb-predicted" in pre_tiers
    assert any(
        r.soundness == "hb-predicted" for r in result.prune_result.pruned
    )
    tiers = [r.soundness for r in result.reports]
    assert tiers == sorted(
        tiers, key=lambda t: t != "sp-sound"
    )  # sound first, weak last
