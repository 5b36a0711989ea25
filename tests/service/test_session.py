"""The stream session shared by the offline ``stream`` pass and the
tenant pump: one merge, exact drop accounting across recovery, the
tenant's discard-and-replay policy for an unusable checkpoint, the
window remembered in ``state.json``, and the refusal of a checkpoint
without a raw watermark (sampled or not) and of a version-1 tenant
directory."""

import json
import os
import shutil
import time

import pytest

import repro.detect.streaming as streaming
import repro.service.tenants as tenants
from repro import obs
from repro.cli import main
from repro.detect.streaming import (
    StreamingDetector,
    detect_races_streaming,
    iter_wal_records,
    load_stream_checkpoint,
)
from repro.errors import CheckpointError
from repro.framing import atomic_write, encode_document
from repro.hb.model import FULL_MODEL
from repro.service.report import render_report, report_from_stream_result
from repro.service.server import DetectionServer
from repro.service.tenants import (
    OVERLOAD_SAMPLING_SPEC,
    Tenant,
    stream_key_str,
)
from repro.trace.sampling import build_sampler
from repro.trace.wal import list_stream_segments
from repro.workload import generate_workload

WINDOW = 64


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("workload")
    return generate_workload(
        "minizk", "small", seed=11, out_dir=str(out), segment_records=16
    )


def _totals(wal_dir):
    return {
        stream_key_str(key): len(paths)
        for key, paths in list_stream_segments(wal_dir).items()
    }


def _prefilled(wal_dir, root, tenant_id="t", sampled=False, **kwargs):
    """A finalized tenant whose spool already holds ``wal_dir``;
    ``sampled`` puts it on the overload sampler from record 0."""
    os.makedirs(root)
    tenant = Tenant(tenant_id, root, window=WINDOW, **kwargs)
    tenant.declare_streams(sorted(list_stream_segments(wal_dir)))
    tenant.declare_totals(_totals(wal_dir))
    if sampled:
        tenant.set_mode("sampled")
    shutil.copytree(wal_dir, tenant.spool_dir)
    for key, paths in list_stream_segments(tenant.spool_dir).items():
        tenant.streams[key].received = len(paths)
    assert tenant.finalize(_totals(wal_dir)) is None  # persists state.json
    return tenant


def _recovered(root, tenant_id="t", sampled=False, **kwargs):
    """What a restarted server rebuilds from ``root`` (and, for a
    sampled tenant, the rung its overload loop re-applies)."""
    tenant = Tenant.recover(tenant_id, root, **kwargs)
    if sampled:
        tenant.set_mode("sampled")
    return tenant


def _drain(tenant, batch=50):
    while not tenant.drained:
        assert tenant.pump(limit=batch) or tenant.drained
    return tenant.write_report()


def _offline(wal_dir, tenant_id="t", **kwargs):
    result = detect_races_streaming(wal_dir=wal_dir, window=WINDOW, **kwargs)
    return render_report(report_from_stream_result(tenant_id, result))


# -- (a) drop accounting survives recovery -------------------------------------


@pytest.mark.parametrize("watermark", [40, 150, 333])
def test_sampled_dropped_is_exact_across_recovery(
    tmp_path, generated, watermark
):
    """The replay used to re-count the drops the checkpoint had already
    restored, so ``records + dropped`` exceeded the trace."""
    clean = _drain(
        _prefilled(generated.wal_dir, str(tmp_path / "clean"), sampled=True)
    )
    assert sum(clean["sampled_dropped"].values()) > 0

    root = str(tmp_path / "t")
    tenant = _prefilled(generated.wal_dir, root, sampled=True)
    assert tenant.pump(limit=watermark) == watermark
    assert tenant.maybe_checkpoint(force=True)
    if watermark == 333:  # drops have started
        saved = load_stream_checkpoint(tenant.checkpoint_path)["extra"]
        assert sum(saved["sampled_dropped"].values()) > 0
    tenant.pump(limit=25)  # past the checkpoint: lost with the process

    recovered = _recovered(root, sampled=True)
    report = _drain(recovered)
    assert render_report(report) == render_report(clean)
    assert (
        report["records"] + sum(report["sampled_dropped"].values())
        == recovered.consumed_raw
        == generated.records
    )
    assert recovered.session.resumed_at == watermark


def test_offline_sampled_resume_keeps_the_accounting(tmp_path, generated):
    ckpt = str(tmp_path / "stream.ckpt")
    spec, seed = OVERLOAD_SAMPLING_SPEC, 5
    clean = _offline(generated.wal_dir, sampler=build_sampler(spec, seed))
    stops = iter([False] * 3 + [True])
    partial = detect_races_streaming(
        wal_dir=generated.wal_dir,
        window=WINDOW,
        sampler=build_sampler(spec, seed),
        checkpoint_path=ckpt,
        should_stop=lambda: next(stops),
    )
    assert partial.stopped_early
    resumed = detect_races_streaming(
        wal_dir=generated.wal_dir,
        window=WINDOW,
        sampler=build_sampler(spec, seed),
        checkpoint_path=ckpt,
        resume=True,
    )
    assert resumed.resumed_at == 4 * WINDOW
    assert render_report(report_from_stream_result("t", resumed)) == clean
    assert (
        resumed.records_consumed + sum(resumed.sampled_dropped.values())
        == generated.records
    )


def test_sampler_that_drops_nothing_is_full_confidence(generated):
    """One confidence rule: ``sampled`` iff something was dropped —
    offline used to say ``sampled`` whenever the policy *could* drop."""
    result = detect_races_streaming(
        wal_dir=generated.wal_dir,
        window=WINDOW,
        sampler=build_sampler("budget:100000"),
    )
    assert result.sampled_dropped == {}
    assert result.confidence == "full"


# -- (b) an unusable checkpoint is the tenant's to discard ---------------------


def _wait_done(server, names, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(server.tenants[name].done for name in names):
            return
        time.sleep(0.02)
    raise AssertionError("tenants never finished after recovery")


def test_damaged_checkpoint_does_not_stop_the_service(
    tmp_path, generated, capsys
):
    data_dir = str(tmp_path / "data")
    for name in ("alpha", "beta"):
        tenant = _prefilled(
            generated.wal_dir,
            os.path.join(data_dir, "tenants", name),
            tenant_id=name,
        )
        assert tenant.pump(limit=200) == 200
        assert tenant.maybe_checkpoint(force=True)
    ckpt = os.path.join(data_dir, "tenants", "alpha", "stream.ckpt")
    with open(ckpt, "rb") as fh:
        data = bytearray(fh.read())
    data[len(data) // 2] ^= 0x01
    atomic_write(ckpt, bytes(data))
    damaged = str(tmp_path / "damaged.ckpt")
    shutil.copy(ckpt, damaged)

    # No --window: the restart also has to find it in state.json.
    server = DetectionServer(data_dir, http_port=None).start()
    try:
        _wait_done(server, ("alpha", "beta"))
        discarded = server.registry.get("service_checkpoints_discarded_total")
        assert discarded.labels(tenant="alpha").value == 1
        assert discarded.value == 1
        assert server.tenants["alpha"].session.resumed_at == 0
        assert server.tenants["beta"].session.resumed_at == 200
    finally:
        server.stop()
    assert "service: tenant alpha checkpoint discarded" in capsys.readouterr().out

    for name in ("alpha", "beta"):
        root = os.path.join(data_dir, "tenants", name)
        oracle = str(tmp_path / f"oracle-{name}.json")
        assert main([
            "stream", os.path.join(root, "spool"), "--window", str(WINDOW),
            "--report-out", oracle, "--report-tenant", name,
        ]) == 0
        with open(oracle, "rb") as want, open(
            os.path.join(root, "report.json"), "rb"
        ) as got:
            assert got.read() == want.read()

    # For the offline pass the same file is the caller's error.
    capsys.readouterr()
    assert main([
        "stream", generated.wal_dir, "--window", str(WINDOW),
        "--checkpoint", damaged, "--resume",
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# -- (c) the window recorded in state.json -------------------------------------


def test_recover_without_window_uses_state_json(tmp_path, generated):
    clean = _drain(_prefilled(generated.wal_dir, str(tmp_path / "clean")))
    root = str(tmp_path / "t")
    tenant = _prefilled(generated.wal_dir, root)
    assert tenant.pump(limit=100) == 100
    assert tenant.maybe_checkpoint(force=True)
    # The way DetectionServer._recover_tenants calls it with no --window.
    recovered = Tenant.recover("t", root, window=None)
    assert recovered.window == WINDOW
    assert recovered.session.resumed_at == 100
    report = _drain(recovered)
    assert report["window"] == clean["window"] == WINDOW
    assert render_report(report) == render_report(clean)
    # An explicit integer still overrides (and so starts over).
    assert Tenant.recover("t", root, window=32).window == 32


# -- one merge -----------------------------------------------------------------


def test_offline_reader_and_tenant_pump_share_the_merge(
    tmp_path, generated, monkeypatch
):
    calls = []
    real = streaming.merge_by_seq

    def spy(cursors, on_stream_end=None):
        cursors = list(cursors)
        calls.append(len(cursors))
        return real(cursors, on_stream_end)

    monkeypatch.setattr(streaming, "merge_by_seq", spy)
    monkeypatch.setattr(tenants, "merge_by_seq", spy)
    streams = len(list_stream_segments(generated.wal_dir))
    offline = [e.seq for e in iter_wal_records(generated.wal_dir)]
    assert calls == [streams]
    tenant = _prefilled(generated.wal_dir, str(tmp_path / "t"))
    fed = []
    detector = tenant.session.open([tid for _, tid in tenant.streams])
    monkeypatch.setattr(
        detector, "feed", lambda event: fed.append(event.seq)
    )
    while not tenant.drained:
        assert tenant.pump(limit=64) or tenant.drained
    assert calls == [streams, streams]
    assert fed == offline == sorted(offline)


def test_merge_stalls_on_a_starved_stream_and_resumes_in_order(
    tmp_path, generated, monkeypatch
):
    expected = [e.seq for e in iter_wal_records(generated.wal_dir)]
    segments = list_stream_segments(generated.wal_dir)
    victim = max(segments, key=lambda key: len(segments[key]))
    root = str(tmp_path / "t")
    tenant = _prefilled(generated.wal_dir, root)
    withheld = tenant.streams[victim].segment_path(1)
    os.rename(withheld, withheld + ".late")
    tenant.streams[victim].received = 1  # only segment 0 has arrived

    fed = []
    detector = tenant.session.open([tid for _, tid in tenant.streams])
    monkeypatch.setattr(detector, "feed", lambda event: fed.append(event.seq))
    while tenant.pump(limit=32):
        pass
    stalled_at = len(fed)
    assert 0 < stalled_at < len(expected)
    assert fed == expected[:stalled_at]
    assert tenant.streams[victim].hungry
    for _ in range(3):  # still starved: nothing pops, nothing reorders
        assert tenant.pump() == 0
    assert len(fed) == stalled_at and not tenant.drained

    os.rename(withheld + ".late", withheld)
    tenant.streams[victim].received = len(segments[victim])
    while not tenant.drained:
        assert tenant.pump(limit=32) or tenant.drained
    assert fed == expected


# -- checkpoints written by the parent commit ----------------------------------


def _parent_checkpoint(path, fingerprint, wal_dir, raw, sampler=None):
    """An offline ``stream.ckpt`` as the parent commit wrote it, built by
    hand: the first ``raw`` merged records fed to a detector."""
    tids = [tid for _node, tid in list_stream_segments(wal_dir)]
    detector = StreamingDetector(window=WINDOW, expected_streams=tids)
    merged = iter_wal_records(wal_dir, on_stream_end=detector.close_stream)
    for _ in range(raw):
        event = next(merged)
        if sampler is None or sampler.observe(event)[0]:
            detector.feed(event)
    doc = {
        "format": "repro-stream-checkpoint",
        "version": 1,
        "fingerprint": fingerprint,
        "snapshot": detector.to_snapshot(),
    }
    atomic_write(
        path, encode_document(json.dumps(doc, sort_keys=True).encode())
    )
    return detector


def test_version_1_tenant_directory_is_refused(tmp_path, generated, capsys):
    """A plain-JSON ``state.json`` (version 1) is not recovered: the
    server refuses it in one line, counts it and leaves it on disk."""
    data_dir = str(tmp_path / "data")
    root = os.path.join(data_dir, "tenants", "t")
    os.makedirs(root)
    shutil.copytree(generated.wal_dir, os.path.join(root, "spool"))
    streams = sorted(list_stream_segments(generated.wal_dir))
    state = {
        "format": "repro-service-tenant",
        "version": 1,
        "tenant": "t",
        "streams": [[node, tid] for node, tid in streams],
        "finalized": True,
        "declared": _totals(generated.wal_dir),
        "ever_sampled": False,
        "quarantined": False,
        "bad_total": 0,
        "window": WINDOW,
    }
    state_path = os.path.join(root, "state.json")
    with open(state_path, "w") as fh:
        json.dump(state, fh, sort_keys=True, indent=2)
    with open(state_path, "rb") as fh:
        before = fh.read()
    server = DetectionServer(data_dir, http_port=None).start()
    try:
        assert "t" not in server.tenants
        failures = server.registry.get("service_recover_failures_total")
        assert failures.labels(tenant="t").value == 1
    finally:
        server.stop()
    out = capsys.readouterr().out
    refusal = [line for line in out.splitlines() if "tenant t" in line]
    assert len(refusal) == 1
    assert "not a version-2 tenant state document" in refusal[0]
    with open(state_path, "rb") as fh:
        assert fh.read() == before
    with pytest.raises(ValueError, match="version-2"):
        Tenant.recover("t", root)


def test_checkpoint_without_raw_watermark_is_refused(
    tmp_path, generated, capsys
):
    """A checkpoint with no ``consumed_raw`` (the parent commit's offline
    format) is unusable like any other: offline ``--resume`` exits 2 in
    one line; a tenant discards it, counts it and replays from record 0."""
    ckpt = str(tmp_path / "stream.ckpt")
    source = os.path.abspath(generated.wal_dir)
    _parent_checkpoint(
        ckpt,
        f"{FULL_MODEL.describe()}|window={WINDOW}|source={source}",
        generated.wal_dir,
        raw=192,
    )
    capsys.readouterr()
    assert main([
        "stream", generated.wal_dir, "--window", str(WINDOW),
        "--checkpoint", ckpt, "--resume",
    ]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no raw-record watermark" in err

    root = str(tmp_path / "t")
    tenant = _prefilled(generated.wal_dir, root)
    _parent_checkpoint(
        tenant.checkpoint_path,
        tenant.session.fingerprint,
        tenant.spool_dir,
        raw=192,
    )
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        recovered = _recovered(root)
    discarded = registry.get("service_checkpoints_discarded_total")
    assert discarded.labels(tenant="t").value == 1
    assert recovered.session.resumed_at == 0
    assert render_report(_drain(recovered)) == _offline(generated.wal_dir)


def test_parent_format_sampled_offline_checkpoint_is_refused(
    tmp_path, generated
):
    """It recorded kept records only; it has no raw watermark either, so
    it is refused by the same rule as the unsampled one."""
    ckpt = str(tmp_path / "stream.ckpt")
    source = os.path.abspath(generated.wal_dir)
    sampler = build_sampler(OVERLOAD_SAMPLING_SPEC, 1)
    _parent_checkpoint(
        ckpt,
        f"{FULL_MODEL.describe()}|window={WINDOW}|source={source}"
        f"|sampling={sampler.describe()}",
        generated.wal_dir,
        raw=192,
        sampler=sampler,
    )
    with pytest.raises(CheckpointError, match="no raw-record watermark"):
        detect_races_streaming(
            wal_dir=generated.wal_dir, window=WINDOW,
            sampler=build_sampler(OVERLOAD_SAMPLING_SPEC, 1),
            checkpoint_path=ckpt, resume=True,
        )
