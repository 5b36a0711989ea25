"""Resumable analysis: kill a pipeline mid-trigger, resume it bit-perfectly.

Long analyses die for boring reasons — OOM killers, preemptions,
Ctrl-C.  With ``checkpoint_dir`` set, the two things that cost a
re-execution of the workload are persisted under a CRC-checked
manifest — the monitored run's trace and, report by report, the trigger
verdicts — and a later ``resume=True`` run restores both and recomputes
the (millisecond) analysis in between.  This example shows the whole
story:

1. *A checkpointed run* of the ZooKeeper ZK-1144 workload: the trace
   and the trigger stage seal as they complete.
2. *A simulated crash*: a second checkpoint directory is built holding
   only what a SIGKILL after the first trigger verdict would have left
   behind (the sealed trace plus one line of the verdict log).
3. *Resume*: the pipeline restores the trace and the surviving verdict,
   re-executes only the remaining reports, and produces reports
   **byte-identical** to the uninterrupted run.
4. *Degradation, not death*: the same workload under an absurd memory
   budget completes by walking the degradation ladder instead of
   raising, with every rung on the record.

Run with::

    python examples/crash_resume.py
"""

import tempfile

from repro.analysis.checkpoint import CheckpointStore, config_fingerprint
from repro.detect.export import dump_reports
from repro.pipeline import DCatch, PipelineConfig
from repro.systems import workload_by_id

BUG = "ZK-1144"


def main() -> int:
    print("=== act 1: a fully checkpointed run ===")
    ckdir = tempfile.mkdtemp(prefix="dcatch-ck-")
    config = PipelineConfig(checkpoint_dir=ckdir)
    full = DCatch(workload_by_id(BUG), config).run()
    print(f"checkpoint sealed under {ckdir}")
    print(f"stage status: {full.stage_status}")
    oracle = dump_reports(full.reports)

    print()
    print("=== act 2: simulate a SIGKILL after the first trigger verdict ===")
    # Rebuild what a crashed run leaves on disk: the trace sealed, the
    # trigger stage incomplete with one verdict already in its log.
    crashed_dir = tempfile.mkdtemp(prefix="dcatch-ck-crashed-")
    fingerprint = config_fingerprint(BUG, config)
    sealed = CheckpointStore(
        directory=ckdir, benchmark=BUG, config_fp=fingerprint, resume=True
    )
    crashed = CheckpointStore(
        directory=crashed_dir, benchmark=BUG, config_fp=fingerprint
    )
    crashed.seal_stage("trace", sealed.load_stage("trace"))
    verdicts = sealed.load_shards("trigger")
    crashed.shard_log("trigger").append(verdicts[0])
    crashed.seal()
    print(f"crashed checkpoint: trace sealed, "
          f"1 of {len(verdicts)} trigger verdicts survived")

    print()
    print("=== act 3: resume from the wreckage ===")
    resumed = DCatch(
        workload_by_id(BUG),
        PipelineConfig(checkpoint_dir=crashed_dir, resume=True),
    ).run()
    print(f"stages skipped: {resumed.stages_skipped}")
    restored = resumed.metrics["checkpoint_shards_resumed_total"]
    print(f"verdicts restored from the log: {int(restored['value'])}")
    print(f"trigger re-executions: "
          f"{int(resumed.metrics['trigger_runs_total']['value'])} "
          f"(uninterrupted run: "
          f"{int(full.metrics['trigger_runs_total']['value'])})")
    assert restored["value"] == 1
    assert (
        resumed.metrics["trigger_runs_total"]["value"]
        < full.metrics["trigger_runs_total"]["value"]
    )
    assert dump_reports(resumed.reports) == oracle
    print("resumed reports are byte-identical to the uninterrupted run")

    print()
    print("=== act 4: resource pressure degrades instead of dying ===")
    governed = DCatch(
        workload_by_id(BUG),
        PipelineConfig(trigger=False, memory_budget_mb=1),
    ).run()
    print(f"degradation ladder rungs engaged: {governed.degradation}")
    print(f"candidates found anyway: "
          f"{len(governed.detection.candidates)}")
    assert governed.oom is None
    assert governed.degradation, "the 1 MB budget must engage the ladder"
    assert governed.detection.candidates

    print()
    print("crash -> resume -> identical reports; pressure -> ladder: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
