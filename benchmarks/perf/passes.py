"""One pass of each workload kind: the job's records in, a checked
report out.  Each function returns ``{"wall_s", "attempted", "failed"}``
plus kind-specific extras; the clock covers the entry-point call only,
the output check runs after it stops.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

from workloads import SAMPLING_SPEC, SRC_DIR, cpu_count, pair_digest

#: Server flags (ISSUE 12): no probe endpoint, queue deep enough that
#: credit backpressure never engages, overload ladder effectively off —
#: the pass measures throughput, not degradation.
SERVE_FLAGS = ("--no-http", "--queue-segments", "1024", "--overload-poll-s", "3600")


def check_pairs(entry: Dict[str, object], pairs, confidence: str, sampled: bool) -> bool:
    """Exactly the planted pair set, at the confidence the mode implies."""
    expected_confidence = "sampled" if sampled else "full"
    return (
        confidence == expected_confidence
        and pair_digest(pairs) == entry["digest"]
    )


def stream_pass(job: Dict[str, object]) -> Dict[str, object]:
    from repro.detect.streaming import detect_races_streaming
    from repro.trace.sampling import build_sampler

    entry = job["inputs"][0]
    sampler = build_sampler(SAMPLING_SPEC, job["seed"]) if job["sampled"] else None
    started = time.perf_counter()
    result = detect_races_streaming(
        wal_dir=entry["wal_dir"], window=job["window"], sampler=sampler
    )
    wall = time.perf_counter() - started
    ok = check_pairs(
        entry, result.candidate_seq_pairs(), result.confidence, job["sampled"]
    )
    return {"wall_s": wall, "attempted": 1, "failed": 0 if ok else 1}


def batch_pass(job: Dict[str, object]) -> Dict[str, object]:
    from repro.detect.races import detect_races
    from repro.trace.salvage import salvage_trace

    entry = job["inputs"][0]
    started = time.perf_counter()
    trace, _report = salvage_trace(entry["wal_dir"])
    result = detect_races(trace)
    wall = time.perf_counter() - started
    pairs = [(c.first.seq, c.second.seq) for c in result.candidates]
    ok = check_pairs(entry, pairs, result.confidence, False)
    return {"wall_s": wall, "attempted": 1, "failed": 0 if ok else 1}


# -- service -----------------------------------------------------------------


def start_server(data_dir: str, window: int) -> subprocess.Popen:
    """``python -m repro.cli serve`` as its own process (in-process, the
    client and pump threads would share one GIL and the pass wall
    becomes a scheduling lottery)."""
    from repro.service.server import load_service_file

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", data_dir,
            "--window", str(window), *SERVE_FLAGS,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline and proc.poll() is None:
        try:
            if load_service_file(data_dir).get("pid") == proc.pid:
                return proc
        except (OSError, ValueError):
            pass
        time.sleep(0.02)
    stop_server(proc)
    raise RuntimeError("service subprocess never became ready")


def stop_server(proc: subprocess.Popen) -> None:
    """SIGKILL and reap.  By now every report is fsynced and received and
    the data directory is never read again; a graceful stop would only
    add the 5 s the server spends joining its overload thread (which
    sleeps out ``--overload-poll-s``) to every pass."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def peak_rss_mb_of(pid: int) -> Optional[float]:
    """``VmHWM`` of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return None


def _ship_one(port: int, entry: Dict[str, object], barrier: threading.Barrier):
    from repro.service.client import ServiceClient

    with ServiceClient(
        "127.0.0.1", port, entry["tenant"], retry_deadline_s=120
    ) as client:
        barrier.wait(timeout=60)
        ship_start = time.perf_counter()
        ship = client.ship_wal_dir(entry["wal_dir"])
        ship_end = time.perf_counter()
        report = client.wait_report(timeout_s=150)
        return ship, report, ship_start, ship_end, time.perf_counter()


def service_pass(
    inputs: Sequence[Dict[str, object]],
    oracles: Sequence[bytes],
    data_dir: str,
    window: int,
) -> Dict[str, object]:
    """Closed loop: one client thread per tenant ships its WAL and waits
    for its report from a fresh server over ``data_dir``, which must be
    new.  Wall runs from the first ``hello`` to the last report received.

    The data directory is left behind for the run's scratch clean-up: the
    filesystem may be mounted ``discard``, and deleting a spool between
    passes puts TRIM traffic under the next pass's fsyncs."""
    from repro.service.report import render_report
    from repro.service.server import load_service_file
    from repro.trace.wal import list_stream_segments

    if len(inputs) > cpu_count():
        raise RuntimeError(
            f"{len(inputs)} client threads on {cpu_count()} CPUs: the "
            "clients would queue behind each other; refusing to measure"
        )
    proc = start_server(data_dir, window)
    try:
        port = int(load_service_file(data_dir)["port"])
        barrier = threading.Barrier(len(inputs) + 1)
        with ThreadPoolExecutor(max_workers=len(inputs)) as pool:
            futures = [
                pool.submit(_ship_one, port, entry, barrier) for entry in inputs
            ]
            barrier.wait(timeout=60)
            started = time.perf_counter()
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result())
                except Exception as exc:  # a refused tenant fails, the pass goes on
                    outcomes.append(exc)
        peak_rss_mb = peak_rss_mb_of(proc.pid)
    finally:
        stop_server(proc)

    attempted = failed = 0
    latencies: List[float] = []
    tenants: List[Dict[str, object]] = []
    last_report = started
    for entry, oracle, outcome in zip(inputs, oracles, outcomes):
        segments = sum(
            len(paths) for paths in list_stream_segments(entry["wal_dir"]).values()
        )
        attempted += segments + 1
        if isinstance(outcome, Exception):
            failed += segments + 1
            tenants.append({"tenant": entry["tenant"], "error": repr(outcome)})
            continue
        ship, report, ship_start, ship_end, report_at = outcome
        last_report = max(last_report, report_at)
        if report.get("confidence") != "full" or render_report(report) != oracle:
            failed += 1
        latencies.extend(ship.ingest_latencies_s)
        tenants.append(
            {
                "tenant": entry["tenant"],
                "ship_start": ship_start,
                "ship_end": ship_end,
                "report_at": report_at,
                "ship_s": ship.elapsed_s,
                "segments_shipped": ship.segments_shipped,
                "backpressure_waits": ship.backpressure_waits,
            }
        )
    return {
        "wall_s": last_report - started,
        "started": started,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "ingest_latencies_s": latencies,
        "ingest_p50_ms": statistics.median(latencies) * 1000 if latencies else None,
        "tenants": tenants,
    }


def service_job_pass(job: Dict[str, object]) -> Dict[str, object]:
    oracles = []
    for entry in job["inputs"]:
        with open(entry["oracle_path"], "rb") as fh:
            oracles.append(fh.read())
    data_dir = tempfile.mkdtemp(prefix="service-data-", dir=job["scratch"])
    return service_pass(job["inputs"], oracles, data_dir, job["window"])
