"""Resumable analysis: kill a pipeline mid-stage, resume it bit-perfectly.

Long analyses die for boring reasons — OOM killers, preemptions,
Ctrl-C.  With ``checkpoint_dir`` set, every completed stage is sealed
under a CRC-checked manifest, detection checkpoints shard by shard, and
a later ``resume=True`` run skips everything that already finished.
This example shows the whole story:

1. *A checkpointed run* of the ZooKeeper ZK-1144 workload: each stage
   seals its output as it completes.
2. *A simulated crash*: a second checkpoint directory is built holding
   only the stages a mid-detection SIGKILL would have left behind
   (trace, HB graph, reachability, plus one detect shard in the
   incremental shard log).
3. *Resume*: the pipeline skips the sealed stages, merges the surviving
   shard, re-enumerates only the missing ones, and produces reports
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
    print("=== act 2: simulate a SIGKILL mid-detection ===")
    # Rebuild what a crashed run leaves on disk: trace/hb/reach sealed,
    # detect incomplete with one shard already in the incremental log.
    crashed_dir = tempfile.mkdtemp(prefix="dcatch-ck-crashed-")
    fingerprint = config_fingerprint(BUG, config)
    sealed = CheckpointStore(
        directory=ckdir, benchmark=BUG, config_fp=fingerprint, resume=True
    )
    crashed = CheckpointStore(
        directory=crashed_dir, benchmark=BUG, config_fp=fingerprint
    )
    for stage in ("trace", "hb", "reach"):
        crashed.seal_stage(stage, sealed.load_stage(stage))
    crashed.set_trace_fingerprint(sealed.manifest["trace_fingerprint"])
    shards = sealed.load_shards("detect")
    crashed.shard_log("detect").append(shards[0])
    crashed.seal()
    print(f"crashed checkpoint: 3 stages sealed, "
          f"1 of {len(shards)} detect shards survived")

    print()
    print("=== act 3: resume from the wreckage ===")
    resumed = DCatch(
        workload_by_id(BUG),
        PipelineConfig(checkpoint_dir=crashed_dir, resume=True),
    ).run()
    print(f"stages skipped: {resumed.stages_skipped}")
    shards_resumed = resumed.metrics["checkpoint_shards_resumed_total"]
    print(f"detect shards merged from the log: "
          f"{int(shards_resumed['value'])}")
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
