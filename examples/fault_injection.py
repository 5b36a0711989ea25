"""Fault injection: DCbugs under crashes, restarts and a flaky network.

Three acts:

1. *Targeted chaos*: the mini-Cassandra CA-1011 bug is a timing race
   between the bootstrap gossip and the write path's replica selection.
   Delaying the gossip digest widens the race window until the backup
   copy is silently lost in plain (unsteered) runs.
2. *A crash/restart run*: a ``FaultPlan`` crashes and restarts the
   bootstrapping node, cuts and heals a partition, and duplicates
   messages — while the full DCatch pipeline (trace, detect, prune,
   trigger) runs over the faulted execution.  The run checks that no
   dropped or duplicated message manufactured a happens-before edge.
3. *Prediction beats injection*: DCatch flags the same race from one
   clean run, no faults needed.

Run with::

    python examples/fault_injection.py
"""

from collections import Counter

from repro.detect import ReportSet, detect_races
from repro.pipeline import DCatch, PipelineConfig
from repro.runtime import (
    Delivery,
    FailureKind,
    FaultAction,
    FaultKind,
    FaultPlan,
    NetworkPolicy,
    OpKind,
)
from repro.systems import workload_by_id
from repro.trace import Tracer, selective_scope_for


class DelayGossip(NetworkPolicy):
    """A targeted chaos policy: only gossip digests are slowed down."""

    def __init__(self, delay: int) -> None:
        self.delay = delay

    def plan(self, src: str, dst: str, verb: str) -> Delivery:
        if verb == "gossip":
            return Delivery(deliver=True, delay=self.delay)
        return Delivery(deliver=True, delay=0)


def run_with_delay(workload, delay):
    cluster = workload.cluster(0, churn=False)
    if delay:
        cluster.set_network(DelayGossip(delay))
    result = cluster.run()
    backup_failures = [
        e
        for e in result.failures
        if e.kind is FailureKind.FATAL_LOG and "backup" in e.message
    ]
    return result, backup_failures


#: Crash + restart the bootstrapping node, one partition/heal window
#: after the write, light duplication.
CRASH_RESTART_PLAN = FaultPlan(
    [
        FaultAction(25, FaultKind.CRASH, target="ca2"),
        FaultAction(55, FaultKind.RESTART, target="ca2"),
        FaultAction(140, FaultKind.PARTITION, group_a=("ca1",), group_b=("ca2",)),
        FaultAction(170, FaultKind.HEAL, group_a=("ca1",), group_b=("ca2",)),
    ],
    duplicate_probability=0.05,
)


def assert_no_manufactured_edges(trace):
    """A dropped send has no recv; a duplicated one at most ``copies``."""
    recvs = Counter(r.obj_id for r in trace if r.kind is OpKind.SOCK_RECV)
    for send in trace:
        if send.kind is OpKind.SOCK_SEND:
            allowed = 0 if send.extra.get("dropped") else send.extra.get("copies", 1)
            assert recvs[send.obj_id] <= allowed, f"spurious recv of {send.obj_id}"


def main() -> None:
    workload = workload_by_id("CA-1011")

    print("1) reliable network:")
    result, failures = run_with_delay(workload, delay=0)
    print(f"   completed={result.completed}, backup failures={len(failures)}")
    assert not failures

    print("\n2) increasing gossip delay:")
    failing_delay = None
    for delay in (20, 60, 120, 200):
        result, failures = run_with_delay(workload, delay)
        status = "BACKUP LOST" if failures else "ok"
        print(f"   max_delay={delay:3d}: {status}")
        if failures and failing_delay is None:
            failing_delay = delay
    assert failing_delay is not None, "expected some delay to expose the bug"

    print("\n3) crash/restart run through the full pipeline:")
    print(f"   plan: {CRASH_RESTART_PLAN.describe()}")
    faulted = DCatch(workload, PipelineConfig(fault_plan=CRASH_RESTART_PLAN)).run()
    assert not faulted.errors, "the pipeline must degrade, not die"
    assert_no_manufactured_edges(faulted.trace)
    print(
        f"   faulted monitored run: "
        f"completed={faulted.monitored_result.completed}, "
        f"{len(faulted.trace)} records traced under faults, no spurious HB edge"
    )

    print("\n4) DCatch prediction from a correct run (no faults):")
    cluster = workload.cluster(0, churn=False)
    tracer = Tracer(scope=selective_scope_for(workload.modules()))
    tracer.bind(cluster)
    run = cluster.run()
    assert not run.harmful
    detection = detect_races(tracer.trace)
    reports = ReportSet.from_detection(detection)
    token_reports = [
        r for r in reports if "tokens" in r.representative.variable
    ]
    assert token_reports
    print(f"   predicted the gossip-vs-write race: {token_reports[0].representative}")
    print(
        "\n=> fault injection needed delay >= "
        f"{failing_delay} ticks to stumble on the bug; "
        "DCatch predicted it from one clean run."
    )


if __name__ == "__main__":
    main()
