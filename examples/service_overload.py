"""The always-on detection service under fire: overload, then kill -9.

The service's promise is robustness, and the only honest way to demo
robustness is to attack it.  Three acts:

1. *Paced, not degraded*: an under-provisioned server (4-segment ingest
   queue, an injected per-batch detection delay) takes a tenant's full
   workload.  Credit backpressure refuses uploads while the queue is
   full, and the client retries them; nothing is sampled, so the
   published report says ``confidence: full`` and is byte-identical to
   an offline single-pass over the same trace.
2. *A real crash*: a comfortably provisioned server subprocess is
   SIGKILLed mid-ingest — no handler runs, nothing gets to seal.
3. *Recovery*: a restart over the same data directory recovers the
   tenant, the client re-ships the same WAL (already-spooled segments
   ACK as duplicates), and the final report is **byte-identical** to
   an offline single-pass over the same trace.

Run with::

    python examples/service_overload.py
"""

import glob
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

from repro.detect.streaming import detect_races_streaming
from repro.service.client import ServiceClient
from repro.service.report import render_report, report_from_stream_result
from repro.service.server import load_service_file
from repro.workload import generate_workload

WINDOW = 512


def serve(data_dir: str, *extra: str, pump_stall="0") -> subprocess.Popen:
    """Start ``dcatch serve`` and wait for its service.json.
    ``pump_stall`` seconds are slept after every pump batch that
    advanced (``DCATCH_STALL=service_pump:<s>``)."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", data_dir,
            "--window", str(WINDOW), "--no-http", *extra,
        ],
        env=dict(os.environ, DCATCH_STALL=f"service_pump:{pump_stall}"),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        try:
            if load_service_file(data_dir).get("pid") == proc.pid:
                return proc
        except (OSError, ValueError, KeyError):
            pass
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError("service never became ready")


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="dcatch-service-demo-")
    generated = generate_workload(
        "minizk", "small", seed=7, out_dir=os.path.join(workdir, "gen"),
        segment_records=16,
    )
    wal_dir = generated.wal_dir

    oracle = render_report(
        report_from_stream_result(
            "alpha", detect_races_streaming(wal_dir=wal_dir, window=WINDOW)
        )
    )

    print("=== act 1: paced, not degraded ===")
    hot_dir = os.path.join(workdir, "hot")
    server = serve(
        hot_dir,
        "--queue-segments", "4",      # tiny ingest queue
        pump_stall="0.2",             # detection deliberately slow
    )
    try:
        doc = load_service_file(hot_dir)
        with ServiceClient(
            "127.0.0.1", int(doc["port"]), "alpha", retry_deadline_s=120
        ) as client:
            result = client.ship_wal_dir(wal_dir)
            report = client.wait_report(timeout_s=300)
        identical = render_report(report) == oracle
        print(
            f"shipped {result.segments_shipped} segments against "
            f"{result.backpressure_waits} queue refusals"
        )
        print(
            f"report: confidence={report['confidence']!r}, "
            f"{report['records']} records, "
            f"byte-identical to offline pass: {identical}"
        )
        assert result.backpressure_waits > 0
        assert report["confidence"] == "full"
        assert report["sampled_dropped"] == {}
        assert identical
    finally:
        server.terminate()
        server.wait(timeout=30)

    print()
    print("=== act 2: kill -9 mid-ingest ===")
    cold_dir = os.path.join(workdir, "cold")
    # Pace ingest (small queue, tiny pump stall) so the kill reliably
    # lands mid-ship.
    server = serve(cold_dir, "--queue-segments", "1", pump_stall="0.1")
    doc = load_service_file(cold_dir)
    spool_glob = os.path.join(cold_dir, "tenants", "alpha", "spool", "**", "*.wal")

    def ship_first() -> None:
        try:
            with ServiceClient(
                "127.0.0.1", int(doc["port"]), "alpha", retry_deadline_s=5
            ) as client:
                client.ship_wal_dir(wal_dir)
        except Exception:
            pass  # expected: the server dies under it

    shipper = threading.Thread(target=ship_first)
    shipper.start()
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if len(glob.glob(spool_glob, recursive=True)) >= 3:
            break
        time.sleep(0.02)
    spooled = len(glob.glob(spool_glob, recursive=True))
    os.kill(server.pid, signal.SIGKILL)
    server.wait(timeout=30)
    shipper.join(timeout=30)
    print(f"SIGKILLed pid {server.pid} with {spooled} segments spooled")

    print()
    print("=== act 3: restart, re-ship, byte-identical report ===")
    server = serve(cold_dir)
    try:
        doc = load_service_file(cold_dir)
        with ServiceClient(
            "127.0.0.1", int(doc["port"]), "alpha", retry_deadline_s=120
        ) as client:
            result = client.ship_wal_dir(wal_dir)
            report = client.wait_report(timeout_s=300)
        print(
            f"re-ship: {result.segments_duplicate} duplicates ACKed "
            f"(>= {spooled} spooled before the kill: zero lost)"
        )
        identical = render_report(report) == oracle
        print(
            f"report: {report['candidate_count']} candidates, "
            f"confidence={report['confidence']!r}, "
            f"byte-identical to offline pass: {identical}"
        )
        assert result.segments_duplicate >= spooled
        assert identical
    finally:
        server.terminate()
        server.wait(timeout=30)
    print()
    print("robustness demo complete")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
