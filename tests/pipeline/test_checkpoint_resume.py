"""Checkpoint/resume and resource-governed degradation, end to end."""

import json

import pytest

from repro.detect.export import dump_reports
from repro.errors import CheckpointError
from repro.pipeline import DCatch, PipelineConfig
from repro.systems import workload_by_id


def _reports_json(result):
    return dump_reports(result.reports)


def test_resume_skips_all_stages_and_reports_are_byte_identical(tmp_path):
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
    # the two stages that cost a re-execution are restored; the analysis
    # is recomputed from the restored trace
    assert set(resumed.stages_skipped) == {"trace", "trigger"}
    assert resumed.stage_status == {
        "trace": "skipped",
        "hb": "ok",
        "reach": "ok",
        "detect": "ok",
        "prune": "ok",
        "trigger": "skipped",
    }
    skipped = resumed.metrics["checkpoint_stages_skipped_total"]
    assert skipped["value"] == 2
    assert "trigger_runs_total" not in resumed.metrics
    # restored trigger outcomes carry their verdicts
    assert resumed.verdict_counts() == plain.verdict_counts()
    assert [o.verdict for o in resumed.outcomes] == [
        o.verdict for o in first.outcomes
    ]


def _store(ckdir, bug, config, resume=True):
    from repro.analysis.checkpoint import CheckpointStore, config_fingerprint

    return CheckpointStore(
        directory=ckdir,
        benchmark=bug,
        config_fp=config_fingerprint(bug, config),
        resume=resume,
    )


def test_resume_ignores_legacy_stage_files(tmp_path):
    """A directory written while ``hb``, ``reach``, ``detect`` and
    ``prune`` were also sealed resumes from its trace and verdicts:
    those entries are never opened, so neither a payload from the
    removed chain backend, nor a detect payload that disagrees with the
    trace (and carries the old ``workers`` / ``auto_decision`` keys),
    nor a junk shard log can block or bend the result."""
    import os

    ckdir = str(tmp_path / "ck")
    config = PipelineConfig(checkpoint_dir=ckdir)
    full = DCatch(workload_by_id("ZK-1144"), config).run()

    store = _store(ckdir, "ZK-1144", config)
    store.seal_stage(
        "hb", {"compress_mem": True, "backbone": [10**9], "succ": [[]]}
    )
    store.seal_stage("reach", {"backend": "chain", "vertices": 0, "rows": []})
    store.seal_stage(
        "detect",
        {
            "candidates": [[1, 2], [10**9, 3]],
            "pairs_examined": 7,
            "truncated_locations": [],
            "workers": 2,
            "stopped_early": False,
            "auto_decision": "parallel",
            "confidence": "full",
            "analysis_seconds": 0.25,
            "sp_pairs": None,
        },
    )
    store.seal_stage(
        "prune",
        {
            "decisions": [{"report_id": 99, "keep": True, "reasons": []}],
            "seconds": 1.0,
        },
    )
    store.seal()
    with open(os.path.join(ckdir, "detect-shards.jsonl"), "wb") as fh:
        fh.write(b"not a framed line\n")

    resumed = DCatch(
        workload_by_id("ZK-1144"),
        PipelineConfig(checkpoint_dir=ckdir, resume=True),
    ).run()
    assert resumed.stages_skipped == ["trace", "trigger"]
    assert not resumed.degraded
    assert _reports_json(resumed) == _reports_json(full)
    assert resumed.detection.pairs_examined == full.detection.pairs_examined
    # a resumed run reports its own analysis time, not a stored one
    assert resumed.timings["analysis_seconds"] != 0.25
    assert resumed.timings["pruning_seconds"] != 1.0


@pytest.mark.parametrize("bug", ["CA-1011", "ZK-1144"])
@pytest.mark.parametrize("mode", ["batch", "sync-preserving", "streaming"])
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
    assert resumed.stages_skipped == ["trace", "trigger"]
    assert _reports_json(resumed) == _reports_json(clean)
    assert [(o.report.report_id, o.verdict) for o in resumed.outcomes] == [
        (o.report.report_id, o.verdict) for o in clean.outcomes
    ]
    assert resumed.detection.sp_pairs == clean.detection.sp_pairs
    assert "trigger_runs_total" not in resumed.metrics  # no re-execution


def _rewrite_trigger_log(ckdir, config, mutate):
    """Pass a finished ZK-1144 checkpoint's logged verdicts through
    ``mutate`` and write them back as intact framed lines."""
    import os

    from repro.analysis.checkpoint import ShardLog

    store = _store(ckdir, "ZK-1144", config)
    entries = store.load_shards("trigger")
    store.seal()
    mutate(entries)
    log_path = os.path.join(ckdir, "trigger-outcomes.jsonl")
    os.remove(log_path)
    log = ShardLog(log_path)
    for entry in entries:
        log.append(entry)
    log.close()


def test_outcome_with_wrong_pair_is_revalidated_not_attached(tmp_path):
    """``report_id`` is an ordinal into a detection that every resume
    recomputes.  A logged verdict whose recorded pair is not the
    recomputed report's representative belongs to some other report:
    that report is re-validated, the rest are restored."""
    from repro.analysis.checkpoint import RestoredGatePlan

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

    _rewrite_trigger_log(ckdir, config, tamper)
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
    # the re-validated verdict is logged again and the stage re-sealed:
    # a second resume restores all three
    again = DCatch(
        workload_by_id("ZK-1144"),
        PipelineConfig(checkpoint_dir=ckdir, resume=True),
    ).run()
    assert again.stages_skipped == ["trace", "trigger"]
    assert "trigger_runs_total" not in again.metrics
    assert _reports_json(again) == _reports_json(clean)


def test_outcomes_logged_without_a_pair_are_restored_by_id(tmp_path):
    """Logs written before ``pair`` existed carry only ``report_id``."""
    ckdir = str(tmp_path / "ck")
    config = PipelineConfig(checkpoint_dir=ckdir)
    clean = DCatch(workload_by_id("ZK-1144"), config).run()

    def strip(entries):
        by_id = {r.report_id: r for r in clean.reports}
        for entry in entries:
            first, second = by_id[entry["report_id"]].representative.accesses()
            assert entry.pop("pair") == [first.seq, second.seq]

    _rewrite_trigger_log(ckdir, config, strip)
    resumed = DCatch(
        workload_by_id("ZK-1144"),
        PipelineConfig(checkpoint_dir=ckdir, resume=True),
    ).run()
    assert resumed.stages_skipped == ["trace", "trigger"]
    assert "trigger_runs_total" not in resumed.metrics
    assert _reports_json(resumed) == _reports_json(clean)


def test_trace_is_never_completed_without_its_fingerprint(
    tmp_path, monkeypatch
):
    """Every manifest revision that lists ``trace`` completed carries
    the trace fingerprint: a kill between two manifest writes used to
    leave a sealed trace whose fingerprint check passes vacuously."""
    from repro.analysis import checkpoint as ckpt

    revisions = []
    real_write = ckpt.CheckpointStore._write_manifest

    def recording_write(self):
        revisions.append(json.loads(json.dumps(self.manifest)))
        real_write(self)

    monkeypatch.setattr(
        ckpt.CheckpointStore, "_write_manifest", recording_write
    )
    ckdir = str(tmp_path / "ck")
    DCatch(
        workload_by_id("ZK-1144"),
        PipelineConfig(trigger=False, checkpoint_dir=ckdir),
    ).run()
    sealed = [
        m for m in revisions if m["stages"].get("trace", {}).get("completed")
    ]
    assert sealed
    assert all(m["trace_fingerprint"] for m in sealed)
    assert sealed[-1]["trace_fingerprint"] == json.load(
        open(tmp_path / "ck" / "manifest.json")
    )["trace_fingerprint"]


def test_parent_manifest_with_null_trace_fingerprint_still_resumes(tmp_path):
    ckdir = tmp_path / "ck"
    config = PipelineConfig(trigger=False, checkpoint_dir=str(ckdir))
    first = DCatch(workload_by_id("ZK-1144"), config).run()
    manifest = json.load(open(ckdir / "manifest.json"))
    manifest["trace_fingerprint"] = None
    (ckdir / "manifest.json").write_text(json.dumps(manifest))
    resumed = DCatch(
        workload_by_id("ZK-1144"),
        PipelineConfig(trigger=False, checkpoint_dir=str(ckdir), resume=True),
    ).run()
    assert resumed.stages_skipped == ["trace"]
    assert _reports_json(resumed) == _reports_json(first)


def test_trace_fingerprint_is_append_order_independent():
    """HB-4539's live trace appends records out of seq order; the
    restored (seq-sorted) trace must still match its fingerprint."""
    from repro.analysis import checkpoint as ckpt

    dcatch = DCatch(workload_by_id("HB-4539"), PipelineConfig(trigger=False))
    base = dcatch.run_base()
    monitored, trace = dcatch.run_traced()
    payload = json.loads(
        json.dumps(ckpt.trace_stage_payload(trace, base, monitored))
    )
    restored, _, _ = ckpt.restore_trace_stage(payload)
    assert ckpt.trace_fingerprint(
        restored.dump_thread_files()
    ) == ckpt.trace_fingerprint(trace.dump_thread_files())
    # a payload's JSON keys are strings: same fingerprint
    assert ckpt.trace_fingerprint(
        payload["thread_files"]
    ) == ckpt.trace_fingerprint(trace.dump_thread_files())


def test_resume_without_checkpoint_dir_raises():
    config = PipelineConfig(resume=True)
    with pytest.raises(CheckpointError, match="checkpoint directory"):
        DCatch(workload_by_id("ZK-1144"), config).run()


def test_checkpoint_overhead_files_on_disk(tmp_path):
    ckdir = tmp_path / "ck"
    DCatch(
        workload_by_id("ZK-1144"),
        PipelineConfig(checkpoint_dir=str(ckdir)),
    ).run()
    manifest = json.load(open(ckdir / "manifest.json"))
    assert manifest["format"] == "repro-checkpoint"
    assert sorted(manifest["stages"]) == ["trace", "trigger"]
    for stage in ("trace", "trigger"):
        assert manifest["stages"][stage]["completed"] is True
        # CRC recorded for every sealed payload
        assert len(manifest["stages"][stage]["crc"]) == 8
    assert sorted(p.name for p in ckdir.iterdir()) == [
        "manifest.json",
        "trace.json",
        "trigger-outcomes.jsonl",
        "trigger.json",
    ]


def test_whole_ladder_exhausted_still_reports_oom():
    """When the reachability closure cannot fit, analysis is abandoned
    and the OOM is recorded — never raised."""
    config = PipelineConfig(trigger=False, scope="full", memory_budget_mb=0)
    result = DCatch(workload_by_id("ZK-1270"), config).run()
    assert result.oom is not None
    assert result.detection is None
    assert result.stage_failures.get("analysis") == 1
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
        assert any(line.startswith("  base_seconds: ") for line in lines)
        assert any(line.startswith("  tracing_seconds: ") for line in lines)
    assert f"resumed: skipped trace (checkpoint {ckdir})" in (
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
    config = PipelineConfig(max_stage_seconds=0.0, trigger=False, prune=False)
    result = DCatch(workload_by_id("ZK-1144"), config).run()
    assert result.detection is not None
    assert result.detection.stopped_early
    assert result.stage_status.get("detect") == "degraded"
    assert result.degraded


def test_deadline_cut_detect_is_not_sealed_and_resume_completes(tmp_path):
    """A detection truncated by the wall-clock deadline is never
    persisted: resuming with a fresh budget enumerates every location
    from the restored trace instead of skipping a permanently partial
    result."""
    import os

    ckdir = str(tmp_path / "ck")
    reference = DCatch(
        workload_by_id("ZK-1144"), PipelineConfig(trigger=False, prune=False)
    ).run()

    cut = DCatch(
        workload_by_id("ZK-1144"),
        PipelineConfig(
            max_stage_seconds=0.0,
            trigger=False,
            prune=False,
            checkpoint_dir=ckdir,
        ),
    ).run()
    assert cut.detection.stopped_early
    manifest = json.load(open(os.path.join(ckdir, "manifest.json")))
    assert not manifest["stages"].get("detect", {}).get("completed")

    resumed = DCatch(
        workload_by_id("ZK-1144"),
        PipelineConfig(
            trigger=False, prune=False, checkpoint_dir=ckdir, resume=True
        ),
    ).run()
    assert not resumed.detection.stopped_early
    assert resumed.stages_skipped == ["trace"]
    assert _reports_json(resumed) == _reports_json(reference)


def test_fresh_run_ignores_stale_checkpoint_directory(tmp_path):
    """Re-running *without* --resume in a used checkpoint directory —
    exactly what the mismatch errors advise — must rebuild from scratch,
    not merge shard results computed from a different trace/config."""
    import os

    ckdir = str(tmp_path / "ck")
    os.makedirs(ckdir)
    # what a run before the analysis became recompute-only left behind
    legacy = ["hb.json", "reach.json", "detect.json", "prune.json"]
    legacy += [f"{name}.tmp" for name in legacy] + ["detect-shards.jsonl"]
    for name in legacy:
        with open(os.path.join(ckdir, name), "w") as fh:
            fh.write("stale")
    reference = DCatch(
        workload_by_id("ZK-1144"),
        PipelineConfig(trigger=False, checkpoint_dir=ckdir),
    ).run()
    assert sorted(os.listdir(ckdir)) == ["manifest.json", "trace.json"]

    # different benchmark, same directory: its trace and verdicts do not
    # belong to ZK-1144
    DCatch(
        workload_by_id("CA-1011"),
        PipelineConfig(trigger=False, checkpoint_dir=ckdir),
    ).run()

    again = DCatch(
        workload_by_id("ZK-1144"),
        PipelineConfig(trigger=False, checkpoint_dir=ckdir),
    ).run()
    assert again.stages_skipped == []
    assert _reports_json(again) == _reports_json(reference)
