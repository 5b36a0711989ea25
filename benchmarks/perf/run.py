"""The perf ledger's one command.

    python benchmarks/perf/run.py                      # every workload, both runs
    python benchmarks/perf/run.py --workload batch_mid # one workload, both runs
    python benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

A *run* sets the workload up from ``--seed`` (three times; ``setup_s`` is
the median), hands the generated WAL directories and expected digests to
a child process, and lets it make one untimed warm-up pass and then timed
passes for ``--seconds`` (``records_per_s`` is records over the lower
quartile of their walls).  ``--trace 0`` gives the end-to-end metrics;
``--trace 1`` is the separate traced run that gives the per-layer metrics
and writes ``out/trace-<workload>.json``.  End-to-end numbers never come
from the traced run.

The last line of standard output of a single run is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero when an output did not match its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from workloads import (
    OUT_DIR,
    PERF_DIR,
    WORKLOADS,
    environment,
    import_repro,
    set_up,
    summarize,
)

#: ``run_seconds`` of BENCHMARK.json.
DEFAULT_SECONDS = 10

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: The driver allows a run 180 s; the child is stopped before that.
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "records_per_s": "records/s",
    "peak_rss_mb": "MB",
    "wal_bytes_per_record": "bytes",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "workload.generator.generate_s": "s",
    "trace.wal.encode_records_per_s": "records/s",
    "trace.wal.bytes_per_record": "bytes",
    "trace.wal.verify_mb_per_s": "MB/s",
    "trace.wal.json_decode_records_per_s": "records/s",
    "trace.records.from_dict_records_per_s": "records/s",
    "trace.records.to_dict_records_per_s": "records/s",
    "detect.streaming.read_merge_records_per_s": "records/s",
    "detect.streaming.merge_self_s": "s",
    "hb.incremental.observe_records_per_s": "records/s",
    "hb.incremental.clock_entries_high_water": "count",
    "hb.incremental.pending_snapshots_high_water": "count",
    "detect.streaming.feed_records_per_s": "records/s",
    "detect.streaming.feed_self_s": "s",
    "detect.streaming.compact_s": "s",
    "detect.streaming.compactions": "count",
    "detect.streaming.evictions": "count",
    "detect.streaming.active_high_water": "count",
    "detect.streaming.pairs_examined": "count",
    "detect.streaming.candidates_per_pair": "ratio",
    "detect.streaming.checkpoint_save_s": "s",
    "detect.streaming.checkpoint_bytes": "bytes",
    "trace.sampling.observe_records_per_s": "records/s",
    "trace.sampling.kept_fraction": "ratio",
    "trace.salvage.load_records_per_s": "records/s",
    "hb.graph.build_s": "s",
    "hb.reach.build_s": "s",
    "hb.reach.matrix_mb": "MB",
    "detect.races.enumerate_s": "s",
    "service.protocol.frame_mb_per_s": "MB/s",
    "service.tenants.pump_records_per_s": "records/s",
    "service.client.ship_s": "s",
    "service.ingest_p50_ms": "ms",
    "service.ingest_mean_ms": "ms",
    "service.ingest_p95_ms": "ms",
    "service.ingest_max_ms": "ms",
    "service.drain_lag_s": "s",
    "service.backpressure_waits": "count",
    "service.segments_shipped": "count",
    "service.vs_offline_ratio": "ratio",
    "harness.layers_coverage": "ratio",
    "harness.trace_overhead_share": "ratio",
}

#: ``harness.layers_coverage`` outside this range on an offline workload
#: means the layer times do not add up to the pass: the run is flagged.
COVERAGE_RANGE = (0.85, 1.15)


def run_child(job: Dict[str, object], scratch: str) -> Dict[str, object]:
    """Run ``child.py`` on ``job`` in its own session, so that a timeout
    takes the server subprocess down with it."""
    job_path = os.path.join(scratch, "job.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    # A fixed hash seed for the child and the server it starts: with
    # per-process randomisation the same pass differs by several percent
    # from one process to the next (dict collisions, set orders).
    proc = subprocess.Popen(
        [sys.executable, str(PERF_DIR / "child.py"), job_path],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"child exceeded {CHILD_TIMEOUT_S}s")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"child printed no result (exit {proc.returncode})")
    return json.loads(lines[-1])


def run_one(
    name: str, seed: int, seconds: float, trace: bool, scale: float
) -> Dict[str, object]:
    """One run of one workload: set-up, child, metrics by name."""
    env = environment(seed, scale)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"run-{name}-", dir=OUT_DIR)
    try:
        # All set-ups into one directory: the first creates the tree, the
        # others overwrite it.  ext4 will not reuse an inode deleted in the
        # last seconds, so creating ~1200 inodes per set-up right after the
        # previous run deleted as many gets slower run after run
        # (stream_hbwide: 0.32 -> 0.64 s over ten runs); this way a run
        # churns one tree, not three.  Nothing is deleted until the run
        # ends (see passes.service_pass).
        root = os.path.join(scratch, "inputs")
        os.mkdir(root)
        setup_walls, generate_walls = [], []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            job = set_up(name, seed, scale, root)
            setup_walls.append(time.perf_counter() - started)
            generate_walls.append(job["generate_s"])
        job.update(seconds=seconds, trace=trace, scratch=scratch)
        os.sync()  # set-up's dirty pages are not the passes' fsyncs' problem
        child = run_child(job, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        os.sync()  # nor this run's deletions (TRIM on commit) the next run's

    records = sum(entry["records"] for entry in job["inputs"])
    result: Dict[str, object] = {
        "workload": name,
        "trace": trace,
        "environment": env,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "records": records,
        "pairs": sum(entry["pairs"] for entry in job["inputs"]),
        "digests": [entry["digest"] for entry in job["inputs"]],
    }
    metrics: Dict[str, Optional[float]] = {}
    if trace and "layers" in child:
        metrics["workload.generator.generate_s"] = statistics.median(generate_walls)
        metrics.update(child["layers"])
        result["errors"] = child["errors"]
        result["untraced_wall_s"] = child["untraced_wall_s"]
        with open(OUT_DIR / f"trace-{name}.json", "w") as fh:
            json.dump({"environment": env, "spans": child["spans"]}, fh, indent=1)
    elif not trace and "pass_wall_s" in child:
        walls = child["pass_wall_s"]
        result["pass_wall_s"] = walls
        env["passes"] = walls["n"]
        # The fast quartile of the pass walls, not their median: on a
        # shared host interference only ever adds time, in spells of tens
        # of seconds that cover part of a run; over ten runs of one commit
        # the quartile's spread was 8-10% where the median's was 13-22%.
        metrics["records_per_s"] = records / walls.get("q1", min(walls["values"]))
        metrics["peak_rss_mb"] = child["peak_rss_mb"]
        metrics["wal_bytes_per_record"] = (
            sum(entry["wal_bytes"] for entry in job["inputs"]) / records
        )
        metrics["setup_s"] = statistics.median(setup_walls)
        if "ingest_p50_ms" in child:
            result["ingest_p50_ms"] = child["ingest_p50_ms"]
    result["metrics"] = metrics
    result["correct"] = bool(metrics) and child["failed"] == 0
    return result


def contract_line(result: Dict[str, object]) -> str:
    """The driver's last line: exactly correct/attempted/failed/metrics."""
    units = PER_LAYER_UNITS if result["trace"] else END_TO_END_UNITS
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": max(1, result["attempted"]),
            "failed": result["failed"],
            "metrics": {
                name: {"value": result["metrics"].get(name), "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def print_run(result: Dict[str, object]) -> None:
    units = PER_LAYER_UNITS if result["trace"] else END_TO_END_UNITS
    kind = "traced run, per layer" if result["trace"] else "untraced run, end to end"
    print(f"== {result['workload']} ({kind}; {result['records']} records, "
          f"{result['pairs']} planted pairs)")
    for name, unit in units.items():
        value = result["metrics"].get(name)
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<48} {shown:>14} {unit}")
    for name, message in sorted(result.get("errors", {}).items()):
        print(f"  ! {name}: {message.strip().splitlines()[-1]}")
    failed_share = result["failed"] / max(1, result["attempted"])
    print(f"  {'failed_share':<48} {failed_share:>14.6g} fraction "
          f"({result['failed']} of {result['attempted']})")
    for flag in flags_of(result):
        print(f"  FLAG {flag}")


def flags_of(result: Dict[str, object]) -> List[str]:
    flags = []
    if result["environment"]["noisy"]:
        flags.append("noisy: load average at start above half the CPU count")
    if result["environment"]["scale"] != 1:
        flags.append("scale != 1: not comparable with recorded results")
    coverage = result["metrics"].get("harness.layers_coverage")
    offline = WORKLOADS[result["workload"]].kind != "service"
    if result["trace"] and offline and (
        coverage is None or not COVERAGE_RANGE[0] <= coverage <= COVERAGE_RANGE[1]
    ):
        flags.append(f"layers_coverage {coverage} outside {COVERAGE_RANGE}")
    return flags


def run_all(args: argparse.Namespace) -> int:
    """Every selected workload: ``--runs`` untraced runs (run i uses seed
    + i), then one traced run.  Prints every metric by name, writes the
    results document."""
    if args.out and args.scale != 1:
        print("results at a scale other than 1 go to out/results.json only",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    traces = [0, 1] if args.trace is None else [args.trace]
    document: Dict[str, object] = {
        "environment": environment(args.seed, args.scale),
        "seconds": args.seconds,
        "runs": args.runs,
        "comparable": args.scale == 1,
        "workloads": {},
    }
    ok = True
    for name in names:
        entry: Dict[str, object] = {"flags": []}
        if 0 in traces:
            runs = [
                run_one(name, args.seed + i, args.seconds, False, args.scale)
                for i in range(args.runs)
            ]
            for result in runs:
                print_run(result)
                ok = ok and result["correct"]
                entry["flags"].extend(flags_of(result))
            entry["end_to_end"] = {
                metric: dict(summarize([r["metrics"][metric] for r in runs]), unit=unit)
                for metric, unit in END_TO_END_UNITS.items()
                if all(r["metrics"].get(metric) is not None for r in runs)
            }
            entry["failed_share"] = sum(r["failed"] for r in runs) / max(
                1, sum(r["attempted"] for r in runs)
            )
            entry["passes"] = [r.get("pass_wall_s") for r in runs]
            entry["digests"] = [r["digests"] for r in runs]
            if all("ingest_p50_ms" in r for r in runs):
                entry["ingest_p50_ms"] = summarize([r["ingest_p50_ms"] for r in runs])
        if 1 in traces:
            result = run_one(name, args.seed, args.seconds, True, args.scale)
            print_run(result)
            ok = ok and result["correct"]
            entry["flags"].extend(flags_of(result))
            entry["per_layer"] = {
                metric: {"value": result["metrics"].get(metric), "unit": unit}
                for metric, unit in PER_LAYER_UNITS.items()
            }
            entry["errors"] = result.get("errors", {})
            entry["traced_failed_share"] = result["failed"] / max(1, result["attempted"])
        document["workloads"][name] = entry
    out = args.out or str(OUT_DIR / "results.json")
    OUT_DIR.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
    print(f"results written to {out}" + ("" if ok else "  (FAILED: see above)"))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every input's length (tests only; results at a "
        "scale other than 1 are marked and not comparable)",
    )
    parser.add_argument(
        "--runs", type=int, default=1,
        help="untraced runs per workload when running several (run i uses seed + i)",
    )
    parser.add_argument("--out", help="results document (default out/results.json)")
    args = parser.parse_args(argv)
    try:
        import_repro()
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    # One workload and one kind of run named: a single run, as the driver
    # makes it, ending in the contract's result line.
    if args.workload and args.trace is not None and args.runs == 1 and not args.out:
        result = run_one(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale
        )
        print_run(result)
        print("environment: " + json.dumps(result["environment"], sort_keys=True))
        print(contract_line(result))
        return 0 if result["correct"] else 1
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
