"""Workload table and set-up for the perf ledger.

A workload is a set of generated WAL directories plus the entry point
that consumes them.  Set-up generates the inputs from ``--seed`` with
``repro.workload.generate_workload`` and derives the expected outputs
(planted-pair digests, service oracle reports); the measured child
process sees only the WAL directories and those expectations, never
``ground_truth.json``.

Sizes are the ISSUE-12 shapes (worker count, contention width, segment
size) at a fraction of their length: the driver makes ~136 runs of this
benchmark inside one hour, each of which sets up three times, so a pass
has to fit ~10 times into a run's ``--seconds``.  ``phases`` is the
only knob shortened; clock width, contention per location and records
per segment are what the layers are sensitive to and are kept.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = PERF_DIR / "out"

#: Compaction window of every streaming entry point (the detector's
#: default; fixed here so a default change shows as a diff, not a drift).
WINDOW = 8192

#: Spec string of ``stream_sampled`` (ROADMAP: "sampling at rate 0.01").
SAMPLING_SPEC = "0.01"


def import_repro() -> None:
    """Put ``src/`` on ``sys.path``.  Raises ImportError when the
    package is absent (a directory holding only the benchmark)."""
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import repro  # noqa: F401


@dataclass(frozen=True)
class Input:
    """One generated trace: ``generate_workload(system, spec, seed + seed_offset)``."""

    system: str
    seed_offset: int
    workers: int
    phases: int
    local_ops: int
    racers: int = 2
    segment_records: int = 1024


@dataclass(frozen=True)
class Workload:
    name: str
    #: "stream" | "batch" | "service" — which entry point a pass calls.
    kind: str
    inputs: Tuple[Input, ...]
    sampled: bool = False


_MEDIUM = Input("minimr", 0, workers=120, phases=30, local_ops=6)
_MID = dict(workers=120, phases=24, local_ops=6, segment_records=256)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # PRESETS["medium"] shape (120 workers, 6 local ops, 1024-record
        # segments), 30 of its 150 phases.
        Workload("stream_medium", "stream", (_MEDIUM,)),
        Workload(
            "stream_hbwide",
            "stream",
            (Input("minimr", 0, workers=400, phases=12, local_ops=0),),
        ),
        Workload(
            "stream_contended",
            "stream",
            # 10 phases x ~5.4k pairs: the report stays under the 1 MiB a
            # service frame may carry, so the service can serve it too.
            (Input("minimr", 0, workers=128, phases=10, local_ops=0, racers=120),),
        ),
        Workload("stream_sampled", "stream", (_MEDIUM,), sampled=True),
        Workload("batch_mid", "batch", (Input("minimr", 0, **_MID),)),
        Workload(
            "service_2tenant",
            "service",
            (
                Input("minizk", 0, **dict(_MID, phases=10)),
                Input("minimr", 1, **dict(_MID, phases=10)),
            ),
        ),
    )
}


# -- expected outputs --------------------------------------------------------


def pair_digest(pairs: Iterable[Sequence[int]]) -> str:
    """sha256 over the sorted ``(first_seq, second_seq)`` list."""
    digest = hashlib.sha256()
    for first, second in sorted((int(a), int(b)) for a, b in pairs):
        digest.update(b"%d,%d;" % (first, second))
    return digest.hexdigest()


def wal_bytes(wal_dir: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(wal_dir):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def tenant_id(index: int) -> str:
    return f"tenant-{index}"


def oracle_report(tenant: str, wal_dir: str) -> Tuple[bytes, float]:
    """The canonical report an offline streaming pass produces for
    ``wal_dir`` (what the service must reproduce byte for byte), and
    the wall time of that pass."""
    from repro.detect.streaming import detect_races_streaming
    from repro.service.report import render_report, report_from_stream_result

    started = time.perf_counter()
    result = detect_races_streaming(wal_dir=wal_dir, window=WINDOW)
    elapsed = time.perf_counter() - started
    return render_report(report_from_stream_result(tenant, result)), elapsed


def set_up(name: str, seed: int, scale: float, root: str) -> Dict[str, object]:
    """Generate ``name``'s inputs under ``root`` (overwriting an earlier
    set-up of the same workload, seed and scale) and return the job
    document the measured child runs from."""
    from repro.workload import WorkloadSpec, generate_workload

    workload = WORKLOADS[name]
    generate_s = 0.0
    inputs: List[Dict[str, object]] = []
    for index, item in enumerate(workload.inputs):
        spec = WorkloadSpec(
            preset=name,
            workers=item.workers,
            phases=max(1, round(item.phases * scale)),
            local_ops=item.local_ops,
            chain_len=6,
            racers=item.racers,
            segment_records=item.segment_records,
        )
        out_dir = os.path.join(root, f"input-{index}")
        started = time.perf_counter()
        generated = generate_workload(
            item.system, spec, seed + item.seed_offset, out_dir
        )
        generate_s += time.perf_counter() - started
        entry: Dict[str, object] = {
            "tenant": tenant_id(index),
            "wal_dir": generated.wal_dir,
            "records": generated.records,
            "streams": generated.streams,
            "segment_records": item.segment_records,
            "wal_bytes": wal_bytes(generated.wal_dir),
            "pairs": len(generated.planted_races),
            "digest": pair_digest(
                (race["first_seq"], race["second_seq"])
                for race in generated.planted_races
            ),
        }
        if workload.kind == "service":
            report, offline_s = oracle_report(tenant_id(index), generated.wal_dir)
            entry["oracle_path"] = os.path.join(out_dir, "oracle-report.json")
            with open(entry["oracle_path"], "wb") as fh:
                fh.write(report)
            entry["offline_s"] = offline_s
        inputs.append(entry)
    return {
        "workload": name,
        "kind": workload.kind,
        "sampled": workload.sampled,
        "seed": seed,
        "scale": scale,
        "window": WINDOW,
        "inputs": inputs,
        "generate_s": generate_s,
    }


def summarize(values: List[float]) -> Dict[str, object]:
    """Median, n and the values; quartiles from four values up.  No
    percentile beyond the quartiles: a run makes 4 to 40 passes and a set
    has ten runs, too few to put ten samples past any higher one."""
    summary: Dict[str, object] = {
        "median": statistics.median(values), "n": len(values), "values": values,
    }
    if len(values) >= 4:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        summary["q1"], summary["q3"] = q1, q3
    return summary


# -- environment -------------------------------------------------------------


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def git_commit() -> str:
    """HEAD of the checkout (the driver's checkout is not a repository:
    then ``"unknown"``)."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int, scale: float) -> Dict[str, object]:
    cpus = cpu_count()
    try:
        load_1m: Optional[float] = os.getloadavg()[0]
    except OSError:
        load_1m = None
    return {
        "cpu_count": cpus,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "load_1m_at_start": load_1m,
        "noisy": load_1m is not None and load_1m > cpus / 2,
        "seed": seed,
        "scale": scale,
    }
