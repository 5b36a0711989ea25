"""The stream session shared by the offline ``stream`` pass and the
tenant pump: one merge, one confidence rule, recovery by replaying the
spool (a ``stream.ckpt`` an older server left is ignored), the window
remembered in ``state.json``, and the refusal of a version-1 or
version-2 tenant directory."""

import json
import os
import shutil
import time

import pytest

import repro.detect.streaming as streaming
import repro.service.tenants as tenants
from repro.cli import main
from repro.detect.streaming import (
    detect_races_streaming,
    iter_wal_records,
    save_stream_checkpoint,
    stream_fingerprint,
)
from repro.framing import atomic_write, write_document
from repro.hb.model import FULL_MODEL
from repro.service.report import render_report
from repro.service.server import DetectionServer
from repro.service.tenants import Tenant, stream_key_str
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


def _prefilled(wal_dir, root, tenant_id="t", **kwargs):
    """A finalized tenant whose spool already holds ``wal_dir``."""
    os.makedirs(root)
    tenant = Tenant(tenant_id, root, window=WINDOW, **kwargs)
    tenant.declare_streams(sorted(list_stream_segments(wal_dir)))
    tenant.declare_totals(_totals(wal_dir))
    shutil.copytree(wal_dir, tenant.spool_dir)
    for key, paths in list_stream_segments(tenant.spool_dir).items():
        tenant.streams[key].received = len(paths)
    assert tenant.finalize(_totals(wal_dir)) is None  # persists state.json
    return tenant


def _drain(tenant, batch=50):
    while not tenant.drained:
        assert tenant.pump(limit=batch) or tenant.drained
    return tenant.write_report()


# -- (a) one confidence rule ---------------------------------------------------


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


# -- (b) recovery replays the spool -------------------------------------------


def _wait_done(server, names, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(server.tenants[name].done for name in names):
            return
        time.sleep(0.02)
    raise AssertionError("tenants never finished after recovery")


def _leftover_checkpoint(tenant):
    """The ``stream.ckpt`` an older server's pump saved for a tenant:
    its detector, fingerprint and raw watermark."""
    path = os.path.join(tenant.root, "stream.ckpt")
    save_stream_checkpoint(
        path,
        tenant.session.detector,
        stream_fingerprint(FULL_MODEL, WINDOW, f"service:{tenant.tenant_id}"),
        {"consumed_raw": tenant.consumed_raw},
    )
    return path


def test_damaged_checkpoint_does_not_stop_the_service(
    tmp_path, generated, capsys
):
    """Two half-pumped tenants each left an older server's ``stream.ckpt``,
    alpha's bit-flipped and beta's intact.  Both are ignored: each tenant
    replays its spool from record 0 to the offline report's bytes."""
    data_dir = str(tmp_path / "data")
    leftovers = {}
    for name in ("alpha", "beta"):
        tenant = _prefilled(
            generated.wal_dir,
            os.path.join(data_dir, "tenants", name),
            tenant_id=name,
        )
        assert tenant.pump(limit=200) == 200
        leftovers[name] = _leftover_checkpoint(tenant)
    with open(leftovers["alpha"], "rb") as fh:
        data = bytearray(fh.read())
    data[len(data) // 2] ^= 0x01
    atomic_write(leftovers["alpha"], bytes(data))

    # No --window: the restart also has to find it in state.json.
    server = DetectionServer(data_dir, http_port=None).start()
    try:
        _wait_done(server, ("alpha", "beta"))
        for name in ("alpha", "beta"):
            assert server.tenants[name].consumed_raw == generated.records
    finally:
        server.stop()
    # Both recovered spools joined the pending gauge and left it.
    assert server.registry.get("service_pending_segments").value == 0
    assert "checkpoint" not in capsys.readouterr().out

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


# -- (c) the window recorded in state.json -------------------------------------


def test_recover_without_window_uses_state_json(tmp_path, generated):
    clean = _drain(_prefilled(generated.wal_dir, str(tmp_path / "clean")))
    root = str(tmp_path / "t")
    tenant = _prefilled(generated.wal_dir, root)
    assert tenant.pump(limit=100) == 100
    # The way DetectionServer._recover_tenants calls it with no --window.
    recovered = Tenant.recover("t", root, window=None)
    assert recovered.window == WINDOW
    assert recovered.consumed_raw == 0
    report = _drain(recovered)
    assert report["window"] == clean["window"] == WINDOW
    assert render_report(report) == render_report(clean)
    # An explicit integer still overrides.
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


# -- tenant directories written by older servers ------------------------------


def test_version_1_tenant_directory_is_refused(tmp_path, generated, capsys):
    """Neither a plain-JSON ``state.json`` (version 1) nor an enveloped
    version-2 one (which may have been sampled) is recovered: the
    server refuses it in one line, counts it and leaves it on disk."""
    streams = sorted(list_stream_segments(generated.wal_dir))
    for version in (1, 2):
        data_dir = str(tmp_path / f"data-v{version}")
        root = os.path.join(data_dir, "tenants", "t")
        os.makedirs(root)
        shutil.copytree(generated.wal_dir, os.path.join(root, "spool"))
        state = {
            "format": "repro-service-tenant",
            "version": version,
            "tenant": "t",
            "streams": [[node, tid] for node, tid in streams],
            "finalized": True,
            "declared": _totals(generated.wal_dir),
            "quarantined": False,
            "bad_total": 0,
            "window": WINDOW,
        }
        state_path = os.path.join(root, "state.json")
        if version == 1:
            with open(state_path, "w") as fh:
                json.dump(state, fh, sort_keys=True, indent=2)
        else:
            write_document(state_path, state)
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
        assert "not a version-3 tenant state document" in refusal[0]
        with open(state_path, "rb") as fh:
            assert fh.read() == before
        with pytest.raises(ValueError, match="version-3"):
            Tenant.recover("t", root)

