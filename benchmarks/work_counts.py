"""Exact work counts of the pipeline, committed like the report digests.

Runs ``DCatch.run`` on the 18 configurations of ``report_digests.sh``
(the paper's seven benchmarks plus MR-4637-MT and MR-SPEC, each in the
batch and streaming detect modes) in one process, in a fixed order, and
writes every run's metrics snapshot to ``benchmarks/work-counts.json``:
sorted, one line per (run, metric, labels).  Each configuration also
gets one ``schedule_sha256`` line: the sha256 over the thread id of
every scheduling pick its runs made (the monitored run, then every
trigger run), in order, so two trees that schedule every run alike
read the same digest.  The runs are seeded and deterministic, so the
file regenerates byte-identically; a change that moves a count names
the count and the reason.

    PYTHONPATH=src python benchmarks/work_counts.py
    git diff --exit-code benchmarks/work-counts.json

Wall-clock and memory readings (metrics in seconds, milliseconds or MB)
are left out: they differ from run to run.
"""

import hashlib
import json
import os

from repro.pipeline import DCatch, PipelineConfig
from repro.runtime.scheduler import RandomStrategy
from repro.systems.registry import workload_by_id

BUG_IDS = (
    "CA-1011", "HB-4539", "HB-4729", "MR-3274", "MR-4637", "ZK-1144",
    "ZK-1270", "MR-4637-MT", "MR-SPEC",
)
MODES = ("batch", "streaming")
MEASURED_UNITS = ("_seconds", "_s", "_ms", "_mb")
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "work-counts.json")


def _value(data):
    """A counter's or gauge's value, or a histogram's whole distribution."""
    if "value" in data:
        value = data["value"]
        return int(value) if float(value).is_integer() else value
    return {key: data[key] for key in ("count", "sum", "buckets")}


def _scheduled(run):
    """``run()``'s result and the sha256 over the tid of every pick the
    scheduler made meanwhile (``RandomStrategy`` is its only strategy)."""
    digest = hashlib.sha256()
    real_pick = RandomStrategy.pick

    def pick(self, runnable, step):
        thread = real_pick(self, runnable, step)
        digest.update(b"%d," % thread.tid)
        return thread

    RandomStrategy.pick = pick
    try:
        return run(), digest.hexdigest()
    finally:
        RandomStrategy.pick = real_pick


def work_counts():
    """``{"<bug> <mode> <metric>[{labels}]": value}`` over all 18 runs,
    plus one ``"<bug> <mode> schedule_sha256"`` each."""
    counts = {}
    for bug_id in BUG_IDS:
        for mode in MODES:
            config = PipelineConfig(detect_mode=mode)
            pipeline = DCatch(workload_by_id(bug_id), config)
            result, schedule = _scheduled(pipeline.run)
            counts[f"{bug_id} {mode} schedule_sha256"] = schedule
            for name, data in result.metrics.items():
                if name.endswith(MEASURED_UNITS):
                    continue
                key = f"{bug_id} {mode} {name}"
                counts[key] = _value(data)
                for labels, child in data.get("series", {}).items():
                    counts[f"{key}{{{labels}}}"] = _value(child)
    return counts


def main():
    counts = work_counts()
    lines = [
        f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
        for key, value in sorted(counts.items())
    ]
    with open(OUT, "w") as out:
        out.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(lines)} work counts written to {OUT}")


if __name__ == "__main__":
    main()
