"""Crash-tolerant tracing: kill a node mid-run, salvage its trace.

The paper's tracer streams one trace file per thread of every process
(Section 3.1) precisely so a crashed process leaves its trace behind.
This example shows our durable path doing the same job:

1. *A durable monitored run*: the pipeline runs the mini-MapReduce
   MR-3274 workload with ``trace_dir`` set, so every record is appended
   to a per-node, per-thread write-ahead log as it happens — while a
   fault plan kills a node manager mid-run.  The dead node's WAL ends
   torn and unsealed.
2. *Salvage*: ``salvage_trace`` rebuilds a trace from the damaged WAL,
   quarantining torn records into a structured report instead of dying.
3. *Partial-confidence analysis*: the HB graph built from the salvaged
   trace completes, and the seeded race is still detected — downgraded
   to ``confidence: "partial"`` so downstream consumers know records
   were lost.

Run with::

    python examples/crash_salvage.py
"""

import os
import tempfile

from repro.detect import detect_races
from repro.pipeline import DCatch, PipelineConfig
from repro.runtime import FaultAction, FaultKind, FaultPlan
from repro.systems import workload_by_id
from repro.trace import salvage_trace


def main() -> int:
    workload = workload_by_id("MR-3274")
    trace_dir = tempfile.mkdtemp(prefix="dcatch-wal-")

    print("=== act 1: durable tracing under a mid-run crash ===")
    plan = FaultPlan([FaultAction(40, FaultKind.CRASH, target="nm2")])
    config = PipelineConfig(trigger=False, fault_plan=plan, trace_dir=trace_dir)
    result = DCatch(workload, config).run()
    print(f"pipeline stage status: {result.stage_status}")
    print(f"in-memory detection: {len(result.detection.candidates)} "
          f"candidate(s), confidence={result.detection.confidence}")

    wal_dir = os.path.join(
        trace_dir, "MR-3274", f"seed-{result.monitored_result.seed}"
    )
    print(f"WAL written under {wal_dir}")
    for node in sorted(os.listdir(wal_dir)):
        streams = os.listdir(os.path.join(wal_dir, node))
        print(f"  {node}: {len(streams)} thread stream(s)")

    print()
    print("=== act 2: salvage the damaged WAL ===")
    trace, report = salvage_trace(wal_dir)
    print(report.render())

    print()
    print("=== act 3: analysis degrades instead of dying ===")
    detection = detect_races(trace)
    print(f"salvaged detection: {len(detection.candidates)} candidate(s), "
          f"confidence={detection.confidence}")
    for pair in sorted(
        tuple(sorted(str(s) for s in p)) for p in detection.static_pairs()
    ):
        print(f"  racing pair: {pair[0]}  <->  {pair[1]}")

    assert report.damaged, "the crashed node's WAL must show damage"
    assert detection.confidence == "partial"
    assert detection.candidates, "the seeded race must survive salvage"
    print()
    print("crash -> salvage -> partial-confidence detection: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
