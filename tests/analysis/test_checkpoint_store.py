"""The checkpoint store: manifest lifecycle, CRC checks, shard logs."""

import json
import os

import pytest

from repro.analysis.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointStore,
    ShardLog,
    _scan_shard_file,
)
from repro.errors import CheckpointError


def _store(tmp_path, **kwargs):
    return CheckpointStore(
        directory=str(tmp_path / "ck"),
        benchmark="ZK-1144",
        config_fp="abcd1234abcd1234",
        **kwargs,
    )


def test_fresh_store_writes_manifest(tmp_path):
    store = _store(tmp_path)
    manifest = json.load(open(os.path.join(store.directory, "manifest.json")))
    assert manifest["format"] == "repro-checkpoint"
    assert manifest["version"] == CHECKPOINT_VERSION
    assert manifest["benchmark"] == "ZK-1144"
    assert manifest["stages"] == {}


def test_seal_and_load_stage_roundtrip(tmp_path):
    store = _store(tmp_path)
    store.seal_stage("hb", {"edges": [1, 2, 3]})
    assert store.stage_completed("hb")
    assert not store.stage_completed("reach")
    assert store.load_stage("hb") == {"edges": [1, 2, 3]}


def test_resume_missing_directory_raises(tmp_path):
    with pytest.raises(CheckpointError, match="not a checkpoint directory"):
        CheckpointStore(
            directory=str(tmp_path / "nope"),
            benchmark="ZK-1144",
            config_fp="x",
            resume=True,
        )


def test_resume_missing_manifest_raises(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(CheckpointError, match="no checkpoint manifest"):
        CheckpointStore(
            directory=str(empty), benchmark="ZK-1144", config_fp="x", resume=True
        )


def test_resume_stale_version_raises(tmp_path):
    store = _store(tmp_path)
    path = os.path.join(store.directory, "manifest.json")
    manifest = json.load(open(path))
    manifest["version"] = 99
    json.dump(manifest, open(path, "w"))
    with pytest.raises(CheckpointError, match="stale checkpoint schema"):
        _store(tmp_path, resume=True)


def test_resume_wrong_benchmark_raises(tmp_path):
    _store(tmp_path)
    with pytest.raises(CheckpointError, match="benchmark"):
        CheckpointStore(
            directory=str(tmp_path / "ck"),
            benchmark="MR-3274",
            config_fp="abcd1234abcd1234",
            resume=True,
        )


def test_resume_config_fingerprint_mismatch_raises(tmp_path):
    _store(tmp_path)
    with pytest.raises(CheckpointError, match="fingerprint mismatch"):
        CheckpointStore(
            directory=str(tmp_path / "ck"),
            benchmark="ZK-1144",
            config_fp="ffffffffffffffff",
            resume=True,
        )


def test_damaged_stage_payload_fails_crc(tmp_path):
    store = _store(tmp_path)
    store.seal_stage("hb", {"edges": []})
    with open(os.path.join(store.directory, "hb.json"), "ab") as fh:
        fh.write(b"garbage")
    with pytest.raises(CheckpointError, match="CRC"):
        store.load_stage("hb")


def test_load_incomplete_stage_raises(tmp_path):
    store = _store(tmp_path)
    with pytest.raises(CheckpointError, match="not completed"):
        store.load_stage("detect")


def test_shard_log_roundtrip_and_torn_tail(tmp_path):
    path = str(tmp_path / "shards.jsonl")
    log = ShardLog(path)
    log.append({"index": 0, "pairs": [[1, 2]]})
    log.append({"index": 1, "pairs": []})
    log.close()
    # a SIGKILL mid-append leaves a torn tail: must be dropped silently
    with open(path, "ab") as fh:
        fh.write(b"R 000000ff 00000000 {\"torn")
    entries = _scan_shard_file(path)[0]
    assert [e["index"] for e in entries] == [0, 1]


def test_shard_log_reopen_truncates_torn_tail(tmp_path):
    """Reopening for append after a SIGKILL must drop the torn tail:
    otherwise the next entry concatenates with the partial line and a
    second crash/resume cycle discards everything after it."""
    path = str(tmp_path / "shards.jsonl")
    log = ShardLog(path)
    log.append({"index": 0})
    log.close()
    with open(path, "ab") as fh:
        fh.write(b'R 000000ff 00000000 {"torn')
    log = ShardLog(path)
    log.append({"index": 1})
    log.close()
    assert [e["index"] for e in _scan_shard_file(path)[0]] == [0, 1]


def test_shard_log_missing_file_is_empty(tmp_path):
    assert _scan_shard_file(str(tmp_path / "absent.jsonl"))[0] == []


def test_fresh_store_clears_stale_stage_and_shard_files(tmp_path):
    """A non-resume run reusing a checkpoint directory owns it: the
    trace, stage payloads and shard files from the previous run must
    not leak into (or be merged with) the new run's results."""
    from repro.ids import CallStack
    from repro.runtime.ops import OpEvent, OpKind
    from repro.trace import Trace

    trace = Trace()
    trace.append(
        OpEvent(seq=1, kind=OpKind.MEM_READ, obj_id="x", node="n", tid=0,
                thread_name="t", segment=0, callstack=CallStack([]))
    )
    store = _store(tmp_path)
    store.seal_stage("trace", {"name": "trace"}, trace)
    store.shard_log("trigger").append({"report_id": 3})
    store.seal()
    assert sorted(os.listdir(store.directory)) == [
        "manifest.json", "trace", "trace.json", "trigger-outcomes.jsonl"
    ]

    fresh = _store(tmp_path)  # same directory, resume=False
    assert not fresh.stage_completed("trace")
    assert fresh.load_shards("trigger") == []
    assert os.listdir(fresh.directory) == ["manifest.json"]


def test_config_fingerprint_tracks_fault_plan_content():
    """Editing the fault plan's *contents* must invalidate a resume —
    presence alone would silently reuse a trace from the old plan."""
    from repro.analysis.checkpoint import config_fingerprint
    from repro.pipeline import PipelineConfig
    from repro.runtime.faults import FaultAction, FaultKind, FaultPlan

    def fp(plan):
        return config_fingerprint(
            "ZK-1144", PipelineConfig(fault_plan=plan)
        )

    crash_a = FaultPlan([FaultAction(at=5, kind=FaultKind.CRASH, target="a")])
    crash_b = FaultPlan([FaultAction(at=9, kind=FaultKind.CRASH, target="b")])
    assert fp(crash_a) == fp(
        FaultPlan([FaultAction(at=5, kind=FaultKind.CRASH, target="a")])
    )
    assert fp(crash_a) != fp(crash_b)
    assert fp(crash_a) != fp(None)


def test_shard_log_registered_incomplete_in_manifest(tmp_path):
    store = _store(tmp_path)
    store.shard_log("trigger").append({"index": 0})
    store.seal()
    assert not store.stage_completed("trigger")
    resumed = _store(tmp_path, resume=True)
    assert [e["index"] for e in resumed.load_shards("trigger")] == [0]


def test_config_fingerprint_tracks_sampling_policy():
    """Resuming a sampled run under a different policy/seed would feed
    the detector a different record set."""
    from repro.analysis.checkpoint import config_fingerprint
    from repro.pipeline import PipelineConfig

    def fp(**kwargs):
        return config_fingerprint("ZK-1144", PipelineConfig(**kwargs))

    assert fp() == fp(sampling=None)
    assert fp(sampling="0.1") != fp()
    assert fp(sampling="0.1") != fp(sampling="0.5")
    assert fp(sampling="0.1", sampling_seed=1) != fp(
        sampling="0.1", sampling_seed=2
    )
    assert fp(sampling="0.1") == fp(sampling="0.1")
