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
    assert set(resumed.stages_skipped) == {
        "trace",
        "hb",
        "reach",
        "detect",
        "prune",
        "trigger",
    }
    assert all(
        status == "skipped" for status in resumed.stage_status.values()
    )
    skipped = resumed.metrics["checkpoint_stages_skipped_total"]
    assert skipped["value"] >= 6
    # restored trigger outcomes carry their verdicts
    assert resumed.verdict_counts() == plain.verdict_counts()
    assert [o.verdict for o in resumed.outcomes] == [
        o.verdict for o in first.outcomes
    ]


def test_resume_after_partial_detect_merges_checkpointed_shards(tmp_path):
    """Pre-seed the detect shard log with a prefix of the real results:
    resume must merge them without re-enumerating, byte-identically."""
    from repro.analysis.checkpoint import CheckpointStore, config_fingerprint

    ckdir = str(tmp_path / "ck")
    config = PipelineConfig(checkpoint_dir=ckdir)
    full = DCatch(workload_by_id("ZK-1144"), config).run()

    # build a second checkpoint with trace+hb+reach sealed and only the
    # first detect shard present (simulating a crash after one shard)
    crashed = str(tmp_path / "crashed")
    store = CheckpointStore(
        directory=crashed,
        benchmark="ZK-1144",
        config_fp=config_fingerprint("ZK-1144", config),
    )
    old = CheckpointStore(
        directory=ckdir,
        benchmark="ZK-1144",
        config_fp=config_fingerprint("ZK-1144", config),
        resume=True,
    )
    for stage in ("trace", "hb", "reach"):
        store.seal_stage(stage, old.load_stage(stage))
    store.set_trace_fingerprint(old.manifest["trace_fingerprint"])
    shards = old.load_shards("detect")
    assert shards, "full run should have checkpointed detect shards"
    store.shard_log("detect").append(shards[0])
    store.seal()

    config2 = PipelineConfig(checkpoint_dir=crashed, resume=True)
    resumed = DCatch(workload_by_id("ZK-1144"), config2).run()
    assert _reports_json(resumed) == _reports_json(full)
    assert set(resumed.stages_skipped) == {"trace", "hb", "reach"}
    restored = resumed.metrics["checkpoint_shards_resumed_total"]
    assert restored["value"] >= 1


def test_resume_restores_parent_format_detect_payload(tmp_path):
    """Checkpoints written before detection became in-process carry
    ``workers`` / ``auto_decision`` in the detect payload: they restore
    with the keys ignored, and new payloads do not write them."""
    from repro.analysis import checkpoint as ckpt

    ckdir = str(tmp_path / "ck")
    config = PipelineConfig(checkpoint_dir=ckdir)
    full = DCatch(workload_by_id("ZK-1144"), config).run()
    current = ckpt.detection_payload(full.detection)
    assert "workers" not in current and "auto_decision" not in current

    old_format = {
        "candidates": [
            [c.first.seq, c.second.seq] for c in full.detection.candidates
        ],
        "pairs_examined": full.detection.pairs_examined,
        "truncated_locations": [],
        "workers": 2,
        "stopped_early": False,
        "auto_decision": "parallel",
        "confidence": "full",
        "analysis_seconds": 0.25,
        "sp_pairs": None,
    }
    restored = ckpt.restore_detection(old_format, full.trace, None)
    assert restored.candidates == full.detection.candidates
    assert not hasattr(restored, "workers")
    assert ckpt.detection_payload(restored) == {
        key: value
        for key, value in old_format.items()
        if key not in ("workers", "auto_decision")
    }

    store = ckpt.CheckpointStore(
        directory=ckdir,
        benchmark="ZK-1144",
        config_fp=ckpt.config_fingerprint("ZK-1144", config),
        resume=True,
    )
    store.seal_stage("detect", old_format)
    store.seal()
    resumed = DCatch(
        workload_by_id("ZK-1144"),
        PipelineConfig(checkpoint_dir=ckdir, resume=True),
    ).run()
    assert "detect" in resumed.stages_skipped
    assert _reports_json(resumed) == _reports_json(full)


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
    assert ckpt.trace_fingerprint(restored) == ckpt.trace_fingerprint(trace)


def test_resume_without_checkpoint_dir_raises():
    config = PipelineConfig(resume=True)
    with pytest.raises(CheckpointError, match="checkpoint directory"):
        DCatch(workload_by_id("ZK-1144"), config).run()


def test_checkpoint_overhead_files_on_disk(tmp_path):
    ckdir = tmp_path / "ck"
    DCatch(
        workload_by_id("ZK-1144"),
        PipelineConfig(checkpoint_dir=str(ckdir), trigger=False),
    ).run()
    manifest = json.load(open(ckdir / "manifest.json"))
    assert manifest["format"] == "repro-checkpoint"
    for stage in ("trace", "hb", "reach", "detect"):
        assert manifest["stages"][stage]["completed"] is True
        # CRC recorded for every sealed payload
        assert len(manifest["stages"][stage]["crc"]) == 8
    assert (ckdir / "detect-shards.jsonl").exists()


def test_whole_ladder_exhausted_still_reports_oom():
    """When the reachability closure cannot fit, analysis is abandoned
    and the OOM is recorded — never raised."""
    config = PipelineConfig(trigger=False, scope="full", memory_budget=1)
    result = DCatch(workload_by_id("ZK-1270"), config).run()
    assert result.oom is not None
    assert result.detection is None
    assert result.degradation == ["abandoned"]
    assert result.stage_failures.get("analysis") == 1
    assert "OUT OF MEMORY" in result.summary()


def test_rss_pressure_engages_detect_rungs():
    """An absurd RSS budget trips the truncate_pairs rung (and only
    that one: the reachability byte budget still fits); the pipeline
    still completes."""
    config = PipelineConfig(trigger=False, memory_budget_mb=1)
    result = DCatch(workload_by_id("ZK-1144"), config).run()
    assert result.oom is None
    assert result.detection is not None
    assert result.degradation == ["truncate_pairs"]
    assert result.degraded
    series = result.metrics["governor_degradations_total"]["series"]
    assert list(series) == ["rung=truncate_pairs,stage=detect"]
    assert result.metrics["governor_rss_mb"]["value"] > 0


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
    """A detection truncated by the wall-clock deadline must not seal as
    a completed stage: resuming with a fresh budget re-enters detection
    and enumerates the remaining locations instead of skipping a
    permanently partial result."""
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
    assert "detect" not in resumed.stages_skipped
    assert {"trace", "hb", "reach"} <= set(resumed.stages_skipped)
    assert _reports_json(resumed) == _reports_json(reference)


def test_fresh_run_ignores_stale_checkpoint_directory(tmp_path):
    """Re-running *without* --resume in a used checkpoint directory —
    exactly what the mismatch errors advise — must rebuild from scratch,
    not merge shard results computed from a different trace/config."""
    ckdir = str(tmp_path / "ck")
    reference = DCatch(
        workload_by_id("ZK-1144"),
        PipelineConfig(trigger=False, checkpoint_dir=ckdir),
    ).run()

    # different benchmark, same directory: its shards reference seqs
    # that do not exist in ZK-1144's trace
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
