"""The checkpoint store: manifest lifecycle, CRC checks, verdicts."""

import json
import os

import pytest

from repro.analysis.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointStore,
    load_manifest,
)
from repro.errors import CheckpointError
from repro.framing import write_document


def _store(tmp_path, **kwargs):
    return CheckpointStore(
        directory=str(tmp_path / "ck"),
        benchmark="ZK-1144",
        config_fp="abcd1234abcd1234",
        **kwargs,
    )


def test_fresh_store_writes_manifest(tmp_path):
    store = _store(tmp_path)
    manifest = load_manifest(store.directory)
    assert manifest["format"] == "repro-checkpoint"
    assert manifest["version"] == CHECKPOINT_VERSION == 3
    assert manifest["benchmark"] == "ZK-1144"
    assert manifest["stages"] == {}
    assert manifest["verdicts"] == []


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
    manifest = load_manifest(store.directory)
    manifest["version"] = 99
    write_document(os.path.join(store.directory, "manifest.json"), manifest)
    with pytest.raises(CheckpointError, match="stale checkpoint schema"):
        _store(tmp_path, resume=True)


def test_resume_v2_manifest_raises(tmp_path):
    """Version 2 wrote a plain-JSON manifest beside ``trace.json`` and
    a verdict log; it is refused as stale, not as damaged."""
    directory = tmp_path / "ck"
    directory.mkdir()
    (directory / "manifest.json").write_text(json.dumps({
        "format": "repro-checkpoint", "version": 2, "benchmark": "ZK-1144",
        "config_fingerprint": "abcd1234abcd1234",
        "stages": {"trace": {"file": "trace.json", "completed": True}},
    }, indent=2))
    with pytest.raises(CheckpointError, match="stale checkpoint schema version 2 "):
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
    """The stage payloads live in the manifest: one flipped byte of it
    is refused by the envelope's CRC."""
    store = _store(tmp_path)
    store.seal_stage("hb", {"edges": []})
    path = os.path.join(store.directory, "manifest.json")
    data = bytearray(open(path, "rb").read())
    data[data.index(b'"edges"') + 2] ^= 0x01
    open(path, "wb").write(bytes(data))
    with pytest.raises(CheckpointError, match="damaged checkpoint manifest .*CRC"):
        _store(tmp_path, resume=True)


def test_load_incomplete_stage_raises(tmp_path):
    store = _store(tmp_path)
    with pytest.raises(CheckpointError, match="not completed"):
        store.load_stage("detect")


def test_fresh_store_clears_stale_stage_and_shard_files(tmp_path):
    """A non-resume run reusing a checkpoint directory owns it: the
    trace, stage payloads and verdicts from the previous run must not
    leak into (or be merged with) the new run's results."""
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
    store.add_verdict({"report_id": 3})
    assert sorted(os.listdir(store.directory)) == ["manifest.json", "trace"]

    fresh = _store(tmp_path)  # same directory, resume=False
    assert not fresh.stage_completed("trace")
    assert fresh.load_verdicts() == []
    assert os.listdir(fresh.directory) == ["manifest.json"]
    assert load_manifest(fresh.directory) == fresh.manifest


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


def test_verdicts_land_in_manifest_before_trigger_seal(tmp_path):
    store = _store(tmp_path)
    store.add_verdict({"pair": [1, 2]})
    assert not store.stage_completed("trigger")
    resumed = _store(tmp_path, resume=True)
    assert resumed.load_verdicts() == [{"pair": [1, 2]}]


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
