"""The checkpoint store: manifest lifecycle, CRC checks, trace digest,
verdicts."""

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
    assert manifest["version"] == CHECKPOINT_VERSION == 4
    assert manifest["benchmark"] == "ZK-1144"
    assert manifest["verdicts"] == []
    # the digest lands once the monitored run has ended
    assert sorted(manifest) == [
        "benchmark", "config_fingerprint", "format", "verdicts", "version"
    ]
    assert os.listdir(store.directory) == ["manifest.json"]


def test_pin_trace_roundtrip(tmp_path):
    """The first pin records the digest; a resume pinning the same one
    goes on."""
    store = _store(tmp_path)
    store.pin_trace("d" * 64)
    assert load_manifest(store.directory)["trace_digest"] == "d" * 64
    resumed = _store(tmp_path, resume=True)
    resumed.pin_trace("d" * 64)
    assert resumed.manifest == load_manifest(store.directory)


def test_tampered_trace_digest_is_refused(tmp_path):
    """Logged seq pairs name accesses of one trace: a resume whose
    re-traced digest differs is refused in one line."""
    store = _store(tmp_path)
    store.pin_trace("d" * 64)
    store.add_verdict({"pair": [1, 2]})
    manifest = load_manifest(store.directory)
    manifest["trace_digest"] = "e" * 64
    write_document(os.path.join(store.directory, "manifest.json"), manifest)
    resumed = _store(tmp_path, resume=True)
    with pytest.raises(CheckpointError) as info:
        resumed.pin_trace("d" * 64)
    message = str(info.value)
    assert message.startswith("checkpoint trace digest mismatch: ")
    assert "eeeeeeee" in message and "dddddddd" in message
    assert "re-run without --resume" in message
    assert "\n" not in message


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
    a verdict log; it is refused as stale, not as damaged.  So is
    version 3: an enveloped manifest with ``stages`` beside a saved
    ``trace/``."""
    directory = tmp_path / "ck"
    directory.mkdir()
    (directory / "manifest.json").write_text(json.dumps({
        "format": "repro-checkpoint", "version": 2, "benchmark": "ZK-1144",
        "config_fingerprint": "abcd1234abcd1234",
        "stages": {"trace": {"file": "trace.json", "completed": True}},
    }, indent=2))
    with pytest.raises(CheckpointError, match="stale checkpoint schema version 2 "):
        _store(tmp_path, resume=True)
    write_document(str(directory / "manifest.json"), {
        "format": "repro-checkpoint", "version": 3, "benchmark": "ZK-1144",
        "config_fingerprint": "abcd1234abcd1234",
        "stages": {"trace": {"name": "ZK-1144"}}, "verdicts": [],
    })
    with pytest.raises(CheckpointError, match="stale checkpoint schema version 3 "):
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


def test_damaged_verdict_fails_crc(tmp_path):
    """The verdicts live in the manifest: one flipped byte of it is
    refused by the envelope's CRC."""
    store = _store(tmp_path)
    store.add_verdict({"pair": [1, 2], "verdict": "harmful"})
    path = os.path.join(store.directory, "manifest.json")
    data = bytearray(open(path, "rb").read())
    data[data.index(b'"harmful"') + 2] ^= 0x01
    open(path, "wb").write(bytes(data))
    with pytest.raises(CheckpointError, match="damaged checkpoint manifest .*CRC"):
        _store(tmp_path, resume=True)


def test_fresh_store_clears_stale_stage_and_shard_files(tmp_path):
    """A non-resume run reusing a checkpoint directory owns it: the
    trace digest and verdicts from the previous run must not leak into
    (or be merged with) the new run's results."""
    store = _store(tmp_path)
    store.pin_trace("d" * 64)
    store.add_verdict({"report_id": 3})

    fresh = _store(tmp_path)  # same directory, resume=False
    assert "trace_digest" not in fresh.manifest
    assert fresh.load_verdicts() == []
    fresh.pin_trace("e" * 64)  # a different trace is this run's own
    assert os.listdir(fresh.directory) == ["manifest.json"]
    assert load_manifest(fresh.directory) == fresh.manifest


def test_fresh_store_sweeps_a_version_3_trace_copy(tmp_path):
    """A version-3 run kept its monitored trace in ``trace/``; a fresh
    run in that directory removes it and touches nothing else.  A
    ``trace/`` with no checkpoint manifest beside it is not ours."""
    directory = tmp_path / "ck"
    (directory / "trace" / "n1").mkdir(parents=True)
    (directory / "trace" / "meta.json").write_text("{}")
    (directory / "notes.txt").write_text("keep")
    write_document(str(directory / "manifest.json"), {
        "format": "repro-checkpoint", "version": 3, "benchmark": "ZK-1144",
        "config_fingerprint": "abcd1234abcd1234",
        "stages": {"trace": {"name": "ZK-1144"}}, "verdicts": [],
    })
    store = _store(tmp_path)
    assert sorted(os.listdir(store.directory)) == ["manifest.json", "notes.txt"]
    assert load_manifest(store.directory)["version"] == CHECKPOINT_VERSION

    bare = tmp_path / "bare"
    (bare / "trace").mkdir(parents=True)
    CheckpointStore(
        directory=str(bare), benchmark="ZK-1144", config_fp="abcd1234abcd1234"
    )
    assert sorted(os.listdir(bare)) == ["manifest.json", "trace"]


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


def test_verdicts_land_in_manifest_at_once(tmp_path):
    """Each verdict is on disk when ``add_verdict`` returns: there is no
    stage seal to wait for."""
    store = _store(tmp_path)
    store.add_verdict({"pair": [1, 2]})
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
