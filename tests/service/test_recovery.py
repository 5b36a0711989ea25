"""Crash recovery of the detection service, exercised with a real
``kill -9``: the server is SIGKILLed mid-ingest, restarted over the
same data directory, and must resume every tenant with zero lost
acknowledged segments and a report byte-identical to an offline pass
over the same WAL."""

import glob
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.detect.streaming import detect_races_streaming
from repro.service.client import ServiceClient
from repro.service.report import render_report, report_from_stream_result
from repro.service.server import load_service_file
from repro.workload import generate_workload

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src")
WINDOW = "256"


def _env(stall=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("DCATCH_STALL", None)
    if stall:
        env["DCATCH_STALL"] = stall
    return env


def _cli(*args, stall=None):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        env=_env(stall),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _wait_for(predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


def _serve(data_dir, *extra, stall=None):
    proc = _cli(
        "serve",
        data_dir,
        "--window",
        WINDOW,
        "--no-http",
        *extra,
        stall=stall,
    )
    path = os.path.join(data_dir, "service.json")
    assert _wait_for(
        lambda: os.path.exists(path)
        and load_service_file(data_dir).get("pid") == proc.pid
    ), "server never wrote its service file"
    return proc


def _spooled(data_dir, tenant):
    return glob.glob(
        os.path.join(data_dir, "tenants", tenant, "spool", "**", "*.wal"),
        recursive=True,
    )


@pytest.fixture(scope="module")
def wal_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("workload")
    generated = generate_workload(
        "minizk", "small", seed=11, out_dir=str(out), segment_records=16
    )
    return generated.wal_dir


@pytest.fixture(scope="module")
def oracle(wal_dir):
    """Offline single-pass report over the same WAL: the byte oracle."""
    result = detect_races_streaming(wal_dir=wal_dir, window=int(WINDOW))
    return render_report(report_from_stream_result("alpha", result))


def test_sigkill_mid_ingest_resumes_with_zero_lost_segments(
    tmp_path, wal_dir, oracle
):
    data_dir = str(tmp_path / "data")
    os.makedirs(data_dir)
    # Throttle ingest (1-segment queue + a stalled pump) so the SIGKILL
    # reliably lands while segments are still arriving.  Backpressure
    # paces ingest without dropping records, so the final report stays
    # full-confidence (byte-comparable to the offline oracle).
    server = _serve(
        data_dir, "--queue-segments", "1", stall="service_pump:0.3"
    )
    shipper = None
    try:
        shipper = _cli(
            "ship", wal_dir, "--tenant", "alpha", "--data-dir", data_dir,
            "--no-wait", "--retry-deadline", "3",
        )
        assert _wait_for(lambda: len(_spooled(data_dir, "alpha")) >= 3)
        spooled_before = len(_spooled(data_dir, "alpha"))
        os.kill(server.pid, signal.SIGKILL)  # no handler, no seal
        server.wait(timeout=30)
        shipper.communicate(timeout=60)  # dies retrying the dead port
    finally:
        for proc in (server, shipper):
            if proc is not None and proc.poll() is None:
                proc.kill()

    # Everything ACKed before the kill is still in the spool.
    assert len(_spooled(data_dir, "alpha")) >= spooled_before

    server = _serve(data_dir)
    try:
        doc = load_service_file(data_dir)
        assert doc["pid"] == server.pid  # genuinely a new process
        with ServiceClient(
            "127.0.0.1", int(doc["port"]), "alpha"
        ) as client:
            result = client.ship_wal_dir(wal_dir)
            report = client.wait_report()
        # the re-ship found every pre-kill segment already durable
        assert result.segments_duplicate >= spooled_before
        assert render_report(report) == oracle
        with open(
            os.path.join(data_dir, "tenants", "alpha", "report.json"), "rb"
        ) as fh:
            assert fh.read() == oracle
    finally:
        server.terminate()
        out, err = server.communicate(timeout=30)
    assert server.returncode == 0, err
    assert "sealing tenant checkpoints" in out


def test_sigterm_drains_gracefully_and_restart_serves_report(
    tmp_path, wal_dir, oracle
):
    data_dir = str(tmp_path / "data")
    os.makedirs(data_dir)
    server = _serve(data_dir)
    try:
        doc = load_service_file(data_dir)
        with ServiceClient(
            "127.0.0.1", int(doc["port"]), "alpha"
        ) as client:
            client.ship_wal_dir(wal_dir)
            report = client.wait_report()
        assert render_report(report) == oracle
    finally:
        server.terminate()
        out, err = server.communicate(timeout=30)
    assert server.returncode == 0, err

    # A finished tenant's report survives the restart untouched.
    server = _serve(data_dir)
    try:
        doc = load_service_file(data_dir)
        with ServiceClient(
            "127.0.0.1", int(doc["port"]), "alpha"
        ) as client:
            report = client.wait_report(timeout_s=10)
        assert render_report(report) == oracle
    finally:
        server.terminate()
        server.communicate(timeout=30)
