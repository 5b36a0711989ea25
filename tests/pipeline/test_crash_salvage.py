"""End-to-end crash durability: a node dies mid-run, the WAL salvages.

The acceptance path for durable tracing — for each mini system:

* a fault plan kills one node mid-run while ``trace_dir`` is set;
* the on-disk WAL of the dead node ends torn and unsealed, yet salvage
  recovers a usable partial trace (non-empty ``SalvageReport``);
* the pipeline itself completes with no stage failures;
* detection over the salvaged trace still reports the seeded candidate,
  downgraded to ``confidence: "partial"``.
"""

import json
import os

import pytest

from repro.detect import detect_races
from repro.pipeline import DCatch, PipelineConfig
from repro.runtime import FaultAction, FaultKind, FaultPlan
from repro.systems import workload_by_id
from repro.trace import salvage_trace


def _crash_run(bug_id, victim, at, tmp_path):
    workload = workload_by_id(bug_id)
    plan = FaultPlan([FaultAction(at, FaultKind.CRASH, target=victim)])
    config = PipelineConfig(
        trigger=False, fault_plan=plan, trace_dir=str(tmp_path)
    )
    result = DCatch(workload, config).run()
    wal_dir = os.path.join(
        str(tmp_path), bug_id, f"seed-{result.monitored_result.seed}"
    )
    return result, wal_dir


def _pairs(detection):
    return {
        tuple(sorted(str(s) for s in pair))
        for pair in detection.static_pairs()
    }


CASES = [
    ("MR-3274", "nm2", 40),  # mini MapReduce: kill a node manager
    ("ZK-1270", "zk2", 60),  # mini ZooKeeper: kill a quorum member
    ("CA-1011", "ca2", 60),  # mini Cassandra: kill the bootstrapper
]


@pytest.mark.parametrize("bug_id,victim,at", CASES)
def test_crash_mid_run_salvages_and_detects_partial(
    bug_id, victim, at, tmp_path
):
    result, wal_dir = _crash_run(bug_id, victim, at, tmp_path)

    # The pipeline itself survived the crash.
    assert result.errors == []
    assert "failed" not in result.stage_status.values()
    assert result.detection is not None

    # The victim's stream is on disk, salvageable, and visibly damaged.
    trace, report = salvage_trace(wal_dir)
    assert os.path.isdir(os.path.join(wal_dir, victim))
    assert report.records_recovered > 0
    assert report.damaged
    assert report.unsealed_segments >= 1
    assert any(key.startswith(victim) for key in report.threads)
    assert trace.partial

    # Analysis of the salvaged trace completes and degrades, not dies.
    detection = detect_races(trace)
    assert detection.confidence == "partial"
    assert len(detection.candidates) >= 1

    # The seeded candidate is still among the reported pairs.
    assert _pairs(result.detection) & _pairs(detection)


def test_survivor_streams_seal_victim_streams_do_not(tmp_path):
    result, wal_dir = _crash_run("MR-3274", "nm2", 40, tmp_path)
    _, report = salvage_trace(wal_dir)
    victim = [t for k, t in report.threads.items() if k.startswith("nm2/")]
    survivors = [
        t for k, t in report.threads.items() if not k.startswith("nm2/")
    ]
    assert victim and survivors
    assert all(t.unsealed_segments >= 1 for t in victim)
    assert all(t.unsealed_segments == 0 for t in survivors)
    assert all(not t.damaged for t in survivors)


def test_clean_run_wal_salvages_losslessly(tmp_path):
    workload = workload_by_id("MR-3274")
    config = PipelineConfig(trigger=False, trace_dir=str(tmp_path))
    result = DCatch(workload, config).run()
    wal_dir = os.path.join(
        str(tmp_path), "MR-3274", f"seed-{result.monitored_result.seed}"
    )
    trace, report = salvage_trace(wal_dir)
    assert not report.damaged
    assert len(trace) == report.records_recovered > 0
    # The durable view equals the in-memory trace, record for record.
    detection = detect_races(trace)
    assert detection.confidence == "full"
    assert _pairs(detection) == _pairs(result.detection)


def test_in_memory_results_identical_with_and_without_wal(tmp_path):
    """trace_dir must be write-only observability: enabling it cannot
    change what the in-memory pipeline computes."""
    workload = workload_by_id("ZK-1270")
    plain = DCatch(workload, PipelineConfig(trigger=False)).run()
    durable = DCatch(
        workload, PipelineConfig(trigger=False, trace_dir=str(tmp_path))
    ).run()
    assert _pairs(plain.detection) == _pairs(durable.detection)
    assert plain.detection.confidence == durable.detection.confidence


def test_campaign_runs_get_distinct_wal_dirs(tmp_path):
    workload = workload_by_id("CA-1011")
    for seed in (0, 1):
        config = PipelineConfig(
            trigger=False, trace_dir=str(tmp_path), monitored_seed=seed
        )
        DCatch(workload, config).run()
    root = os.path.join(str(tmp_path), "CA-1011")
    assert sorted(os.listdir(root)) == ["seed-0", "seed-1"]
