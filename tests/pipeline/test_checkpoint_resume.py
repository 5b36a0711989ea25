"""Checkpoint/resume and resource-governed degradation, end to end."""

import os

import pytest

from repro.analysis.checkpoint import RestoredGatePlan, load_manifest
from repro.detect.export import dump_reports
from repro.errors import CheckpointError
from repro.framing import write_document
from repro.pipeline import DCatch, PipelineConfig
from repro.systems import workload_by_id
from repro.trace import record_to_dict


def _reports_json(result):
    return dump_reports(result.reports)


def _restored(result):
    """How many of the run's trigger outcomes came from the verdict log."""
    return sum(isinstance(o.plan, RestoredGatePlan) for o in result.outcomes)


def test_resume_restores_every_verdict_and_reports_are_byte_identical(tmp_path):
    ckdir = str(tmp_path / "ck")
    plain = DCatch(workload_by_id("CA-1011"), PipelineConfig()).run()

    first = DCatch(
        workload_by_id("CA-1011"), PipelineConfig(checkpoint_dir=ckdir)
    ).run()
    assert _reports_json(first) == _reports_json(plain)
    assert all(status == "ok" for status in first.stage_status.values())

    resumed = DCatch(
        workload_by_id("CA-1011"),
        PipelineConfig(checkpoint_dir=ckdir, resume=True),
    ).run()
    assert _reports_json(resumed) == _reports_json(plain)
    # the monitored run and the analysis run again; every verdict is
    # restored, so no trigger run re-executes
    assert resumed.stage_status == dict.fromkeys(
        ("trace", "analysis", "prune", "trigger"), "ok"
    )
    restored = len(first.outcomes)
    assert _restored(resumed) == restored > 0
    line = f"resumed from checkpoint {ckdir}: {restored} trigger verdicts restored"
    assert line in resumed.summary().splitlines()
    assert "trigger_runs_total" not in resumed.metrics
    # restored trigger outcomes carry their verdicts
    assert resumed.verdict_counts() == plain.verdict_counts()
    assert [o.verdict for o in resumed.outcomes] == [
        o.verdict for o in first.outcomes
    ]


@pytest.mark.parametrize("bug", ["CA-1011", "ZK-1144"])
@pytest.mark.parametrize("mode", ["batch", "streaming"])
def test_resume_equals_clean_run_in_every_detect_mode(tmp_path, bug, mode):
    ckdir = str(tmp_path / "ck")
    clean = DCatch(workload_by_id(bug), PipelineConfig(detect_mode=mode)).run()
    DCatch(
        workload_by_id(bug),
        PipelineConfig(detect_mode=mode, checkpoint_dir=ckdir),
    ).run()
    resumed = DCatch(
        workload_by_id(bug),
        PipelineConfig(detect_mode=mode, checkpoint_dir=ckdir, resume=True),
    ).run()
    assert _restored(resumed) == len(clean.outcomes)
    assert _reports_json(resumed) == _reports_json(clean)
    assert [(o.report.report_id, o.verdict) for o in resumed.outcomes] == [
        (o.report.report_id, o.verdict) for o in clean.outcomes
    ]
    assert resumed.detection.sp_pairs == clean.detection.sp_pairs
    assert (resumed.detection.sp_pairs is None) == (mode == "streaming")
    assert "trigger_runs_total" not in resumed.metrics  # no re-execution
    # restored HARMFUL/BENIGN verdicts count toward the confirmed tier
    assert _confirmed(resumed) == _confirmed(clean) > 0


def _confirmed(result):
    series = result.metrics["detect_soundness_tier_total"]["series"]
    return series["tier=trigger-confirmed"]["value"]


def _rewrite_verdicts(ckdir, mutate):
    """Pass a finished checkpoint's recorded verdicts through ``mutate``
    and write the manifest back intact (CRC and all)."""
    manifest = load_manifest(ckdir)
    mutate(manifest["verdicts"])
    write_document(os.path.join(ckdir, "manifest.json"), manifest)


def test_outcome_with_wrong_pair_is_revalidated_not_attached(tmp_path):
    """``report_id`` is an ordinal into a detection that every resume
    recomputes.  A logged verdict whose recorded pair is not the
    recomputed report's representative belongs to some other report:
    that report is re-validated, the rest are restored."""
    ckdir = str(tmp_path / "ck")
    config = PipelineConfig(checkpoint_dir=ckdir)
    clean = DCatch(workload_by_id("ZK-1144"), config).run()
    assert len(clean.outcomes) == 3
    victim = clean.outcomes[1].report

    def tamper(entries):
        (entry,) = [e for e in entries if e["report_id"] == victim.report_id]
        first, second = victim.representative.accesses()
        entry["pair"] = [first.seq, second.seq + 1]
        # flip the verdict too: attaching it would change the bytes
        entry["verdict"] = (
            "benign" if victim.verdict.value == "harmful" else "harmful"
        )

    _rewrite_verdicts(ckdir, tamper)
    resumed = DCatch(
        workload_by_id("ZK-1144"),
        PipelineConfig(checkpoint_dir=ckdir, resume=True),
    ).run()
    assert _reports_json(resumed) == _reports_json(clean)
    # exactly the victim re-ran; the other two were restored
    reruns = resumed.metrics["trigger_runs_total"]["value"]
    assert 0 < reruns < clean.metrics["trigger_runs_total"]["value"]
    fresh = [
        o.report.report_id
        for o in resumed.outcomes
        if not isinstance(o.plan, RestoredGatePlan)
    ]
    assert fresh == [victim.report_id]
    # the re-validated verdict is logged again: a second resume restores
    # all three
    again = DCatch(
        workload_by_id("ZK-1144"),
        PipelineConfig(checkpoint_dir=ckdir, resume=True),
    ).run()
    assert _restored(again) == 3
    assert "trigger_runs_total" not in again.metrics
    assert _reports_json(again) == _reports_json(clean)


def test_trace_digest_is_pinned_before_the_first_verdict(
    tmp_path, monkeypatch
):
    """Every manifest revision that holds a verdict also holds the
    digest of the trace its seq pairs name: the digest is written as
    the monitored run ends, before triggering starts."""
    from repro.analysis import checkpoint as ckpt

    ckdir = tmp_path / "ck"
    written = []
    real_write = ckpt.CheckpointStore._write_manifest

    def recording_write(self):
        written.append(
            (self.manifest.get("trace_digest"), len(self.manifest["verdicts"]))
        )
        real_write(self)

    monkeypatch.setattr(
        ckpt.CheckpointStore, "_write_manifest", recording_write
    )
    result = DCatch(
        workload_by_id("ZK-1144"),
        PipelineConfig(checkpoint_dir=str(ckdir)),
    ).run()
    digest = ckpt.trace_digest(result.trace)
    # the fresh manifest, the digest, one write per verdict
    assert len(result.outcomes) == 3
    assert written == [(None, 0), (digest, 0), (digest, 1), (digest, 2), (digest, 3)]


def test_resume_without_checkpoint_dir_raises():
    config = PipelineConfig(resume=True)
    with pytest.raises(CheckpointError, match="checkpoint directory"):
        DCatch(workload_by_id("ZK-1144"), config).run()


def test_checkpoint_overhead_files_on_disk(tmp_path):
    ckdir = tmp_path / "ck"
    result = DCatch(
        workload_by_id("ZK-1144"),
        PipelineConfig(checkpoint_dir=str(ckdir)),
    ).run()
    manifest = load_manifest(str(ckdir))
    assert manifest["format"] == "repro-checkpoint"
    assert manifest["version"] == 4
    assert sorted(manifest) == [
        "benchmark", "config_fingerprint", "format", "trace_digest",
        "verdicts", "version",
    ]
    assert manifest["benchmark"] == "ZK-1144"
    assert len(manifest["trace_digest"]) == 64
    assert len(manifest["verdicts"]) == len(result.outcomes) == 3
    # the verdict log is the whole checkpoint: no copy of the trace
    assert [p.name for p in ckdir.iterdir()] == ["manifest.json"]


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


def test_oom_summary_still_says_everything_else(tmp_path):
    """The OOM line stands in for the ``trace analysis:`` line; the
    failure count, the resume line and the timings the run does have
    are still printed (the summary used to return right after it)."""
    ckdir = str(tmp_path / "ck")
    config = PipelineConfig(
        scope="full", memory_budget_mb=0, checkpoint_dir=ckdir
    )
    fresh = DCatch(workload_by_id("ZK-1270"), config).run()
    config.resume = True
    resumed = DCatch(workload_by_id("ZK-1270"), config).run()
    for result in (fresh, resumed):
        assert result.oom is not None
        lines = result.summary().splitlines()
        assert sum(line.startswith("trace analysis:") for line in lines) == 1
        assert "partial failures: analysis: 1" in lines
        assert any(line.startswith("  tracing_seconds: ") for line in lines)
    assert f"resumed from checkpoint {ckdir}: 0 trigger verdicts restored" in (
        resumed.summary().splitlines()
    )
    assert not any(
        line.startswith("resumed:") for line in fresh.summary().splitlines()
    )


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


def test_deadline_cut_detect_is_not_sealed_and_resume_completes(tmp_path):
    """A detection truncated by the wall-clock deadline is never
    persisted: resuming with a fresh budget enumerates every location
    of the re-traced run instead of skipping a permanently partial
    result."""
    ckdir = str(tmp_path / "ck")
    reference = DCatch(
        workload_by_id("ZK-1144"), PipelineConfig(trigger=False)
    ).run()

    cut = DCatch(
        workload_by_id("ZK-1144"),
        PipelineConfig(
            max_stage_seconds=0.0,
            trigger=False,
            checkpoint_dir=ckdir,
        ),
    ).run()
    assert cut.detection.stopped_early
    assert load_manifest(ckdir)["verdicts"] == []

    resumed = DCatch(
        workload_by_id("ZK-1144"),
        PipelineConfig(trigger=False, checkpoint_dir=ckdir, resume=True),
    ).run()
    assert not resumed.detection.stopped_early
    assert set(resumed.stage_status.values()) == {"ok"}
    assert _reports_json(resumed) == _reports_json(reference)


def test_fresh_run_ignores_stale_checkpoint_directory(tmp_path):
    """Re-running *without* --resume in a used checkpoint directory —
    exactly what the mismatch errors advise — must rebuild from scratch,
    not keep a trace digest or verdicts from a different run."""
    from repro.analysis.checkpoint import trace_digest

    ckdir = str(tmp_path / "ck")
    DCatch(
        workload_by_id("ZK-1144"), PipelineConfig(checkpoint_dir=ckdir)
    ).run()
    assert len(load_manifest(ckdir)["verdicts"]) == 3
    # different benchmark, same directory: its digest and verdicts do
    # not belong to ZK-1144
    other = DCatch(
        workload_by_id("CA-1011"),
        PipelineConfig(trigger=False, checkpoint_dir=ckdir),
    ).run()
    manifest = load_manifest(ckdir)
    assert manifest["benchmark"] == "CA-1011"
    assert manifest["trace_digest"] == trace_digest(other.trace)
    assert manifest["verdicts"] == []
    assert os.listdir(ckdir) == ["manifest.json"]

    reference = DCatch(
        workload_by_id("ZK-1144"), PipelineConfig(trigger=False)
    ).run()
    again = DCatch(
        workload_by_id("ZK-1144"),
        PipelineConfig(trigger=False, checkpoint_dir=ckdir),
    ).run()
    assert _reports_json(again) == _reports_json(reference)
    resumed = DCatch(
        workload_by_id("ZK-1144"),
        PipelineConfig(trigger=False, checkpoint_dir=ckdir, resume=True),
    ).run()
    assert _restored(resumed) == 0
    assert _reports_json(resumed) == _reports_json(reference)
    assert [record_to_dict(r) for r in resumed.trace.records] == [
        record_to_dict(r) for r in reference.trace.records
    ]
