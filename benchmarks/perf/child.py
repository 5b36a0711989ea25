"""The measured process: runs one workload's passes from a job file.

``python child.py <job.json>`` — the job document comes from
``workloads.set_up`` plus ``seconds``, ``trace`` and ``scratch``.  The
process is the workload's alone, so its peak RSS at exit is that
workload's (expected outputs arrive as digests in the job, never as
``ground_truth.json``).  Prints one JSON document on its last line and
exits non-zero when a pass or check failed.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import sys
import time
from typing import Callable, Dict, List

from passes import peak_rss_mb_of
from workloads import import_repro, summarize

#: Timed passes a run makes at least, however short ``--seconds`` is.
MIN_PASSES = 2


def pass_runner(job: Dict[str, object]) -> Callable[[], Dict[str, object]]:
    import passes

    run = {
        "stream": passes.stream_pass,
        "batch": passes.batch_pass,
        "service": passes.service_job_pass,
    }[job["kind"]]
    return lambda: run(job)


def timed_passes(
    run_pass: Callable[[], Dict[str, object]], seconds: float
) -> Dict[str, object]:
    """One untimed warm-up pass, then timed passes until ``seconds``
    have gone by; ``gc.collect()`` before each, GC left enabled."""
    outcomes: List[Dict[str, object]] = []
    attempted = failed = 0
    deadline = None
    while True:
        gc.collect()
        try:
            outcome = run_pass()
        except Exception as exc:
            outcome = {"attempted": 1, "failed": 1, "error": repr(exc)}
            print(f"pass raised: {exc!r}", file=sys.stderr)
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        if deadline is None:  # that was the warm-up
            deadline = time.perf_counter() + seconds
            continue
        if not outcome["failed"]:
            outcomes.append(outcome)
        if len(outcomes) >= MIN_PASSES and time.perf_counter() >= deadline:
            break
        if attempted >= MIN_PASSES + 4 and not outcomes:
            break  # nothing passes; report the failure, do not spin
    return {"passes": outcomes, "attempted": attempted, "failed": failed}


def untraced(job: Dict[str, object]) -> Dict[str, object]:
    measured = timed_passes(pass_runner(job), job["seconds"])
    timed = measured["passes"]
    result: Dict[str, object] = {
        "attempted": measured["attempted"],
        "failed": measured["failed"],
    }
    if not timed:
        return result
    result["pass_wall_s"] = summarize([p["wall_s"] for p in timed])
    if job["kind"] == "service":
        result["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in timed)
        result["ingest_p50_ms"] = statistics.median(p["ingest_p50_ms"] for p in timed)
    else:
        # Not ru_maxrss: across fork+exec that starts at the parent's RSS,
        # and the parent has just generated the inputs.
        result["peak_rss_mb"] = peak_rss_mb_of(os.getpid())
    return result


def traced(job: Dict[str, object]) -> Dict[str, object]:
    import probes

    run_pass = pass_runner(job)
    warm_up = run_pass()  # raises: the run has nothing to reconcile against
    run = probes.run_traced(job, job["scratch"], run_pass)
    return {
        "attempted": warm_up["attempted"] + run["attempted"],
        "failed": warm_up["failed"] + run["failed"],
        "untraced_wall_s": run["untraced_wall_s"],
        "layers": run["metrics"],
        "errors": run["errors"],
        "spans": run["spans"],
    }


def main(argv: List[str]) -> int:
    with open(argv[1]) as fh:
        job = json.load(fh)
    import_repro()
    result = traced(job) if job["trace"] else untraced(job)
    print(json.dumps(result))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
