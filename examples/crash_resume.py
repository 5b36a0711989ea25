"""Resumable analysis: kill a pipeline mid-trigger, resume it bit-perfectly.

Long analyses die for boring reasons — OOM killers, preemptions,
Ctrl-C.  With ``checkpoint_dir`` set, the one thing that costs
re-executions of the workload — the trigger verdicts, report by report —
is logged in a CRC-checked manifest, together with the digest of the
monitored run's trace.  A later ``resume=True`` run re-runs the seeded,
deterministic monitored run, checks its digest, recomputes the
analysis, and restores the logged verdicts.  This example shows the
whole story:

1. *A checkpointed run* of the ZooKeeper ZK-1144 workload: the digest
   and then every verdict land in the manifest as they complete.
2. *A simulated crash*: a second checkpoint directory is built holding
   only what a SIGKILL after the first trigger verdict would have left
   behind (a manifest holding the digest and one verdict; no trace).
3. *Resume*: the pipeline re-traces, restores the surviving verdict,
   re-executes only the remaining reports, and produces reports
   **byte-identical** to the uninterrupted run.
4. *Bounded, not dead*: the two knobs that bound a run.  A zero
   ``max_stage_seconds`` cuts every stage short — the stages read
   ``degraded`` and the run still returns its report set; a zero
   ``memory_budget_mb`` leaves no room for the reachability closure —
   the run records the paper's "Out of Memory" and its summary still
   says everything else it knows.

Run with::

    python examples/crash_resume.py
"""

import os
import tempfile

from repro.analysis.checkpoint import (
    CheckpointStore,
    config_fingerprint,
    load_manifest,
)
from repro.detect.export import dump_reports
from repro.pipeline import DCatch, PipelineConfig
from repro.systems import workload_by_id

BUG = "ZK-1144"


def main() -> int:
    print("=== act 1: a fully checkpointed run ===")
    ckdir = tempfile.mkdtemp(prefix="dcatch-ck-")
    config = PipelineConfig(checkpoint_dir=ckdir)
    full = DCatch(workload_by_id(BUG), config).run()
    print(f"verdicts logged under {ckdir}: {os.listdir(ckdir)}")
    print(f"stage status: {full.stage_status}")
    assert os.listdir(ckdir) == ["manifest.json"]
    oracle = dump_reports(full.reports)

    print()
    print("=== act 2: simulate a SIGKILL after the first trigger verdict ===")
    # Rebuild what a crashed run leaves on disk: the monitored run's
    # digest and one verdict in the manifest, nothing else.
    crashed_dir = tempfile.mkdtemp(prefix="dcatch-ck-crashed-")
    logged = load_manifest(ckdir)
    crashed = CheckpointStore(
        directory=crashed_dir,
        benchmark=BUG,
        config_fp=config_fingerprint(BUG, config),
    )
    crashed.pin_trace(logged["trace_digest"])
    crashed.add_verdict(logged["verdicts"][0])
    print(f"crashed checkpoint: 1 of {len(logged['verdicts'])} trigger "
          f"verdicts survived")

    print()
    print("=== act 3: resume from the wreckage ===")
    resumed = DCatch(
        workload_by_id(BUG),
        PipelineConfig(checkpoint_dir=crashed_dir, resume=True),
    ).run()
    print(f"stage status: {resumed.stage_status}")
    (line,) = [
        line
        for line in resumed.summary().splitlines()
        if line.startswith("resumed from checkpoint")
    ]
    print(line)
    print(f"trigger re-executions: "
          f"{int(resumed.metrics['trigger_runs_total']['value'])} "
          f"(uninterrupted run: "
          f"{int(full.metrics['trigger_runs_total']['value'])})")
    assert line.endswith(": 1 trigger verdicts restored")
    assert (
        resumed.metrics["trigger_runs_total"]["value"]
        < full.metrics["trigger_runs_total"]["value"]
    )
    assert dump_reports(resumed.reports) == oracle
    print("resumed reports are byte-identical to the uninterrupted run")

    print()
    print("=== act 4: one deadline, one memory budget ===")
    late = DCatch(
        workload_by_id(BUG), PipelineConfig(max_stage_seconds=0.0)
    ).run()
    print(f"max_stage_seconds=0.0 -> stage status: {late.stage_status}")
    assert late.degraded and late.detection.stopped_early
    assert late.stage_status["trigger"] == "degraded"
    assert late.reports is not None and not late.outcomes

    tight = DCatch(
        workload_by_id(BUG), PipelineConfig(memory_budget_mb=0)
    ).run()
    print("memory_budget_mb=0 ->")
    print(tight.summary())
    assert tight.oom is not None and tight.detection is None
    assert "partial failures: analysis: 1" in tight.summary()
    assert "tracing_seconds" in tight.summary()

    print()
    print("crash -> resume -> identical reports; over budget -> reported: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
