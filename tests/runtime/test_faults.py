"""Fault plans, the injector, restart re-bootstrap, and HB soundness."""

import pytest

from repro.errors import ReproError, RpcError
from repro.hb.graph import HBGraph
from repro.runtime import (
    Cluster,
    FaultAction,
    FaultKind,
    FaultPlan,
    FlakyNetwork,
    NodeBehavior,
    OpKind,
    sleep,
)
from repro.trace import FullScope, Tracer

from fault_soundness import verify_fault_soundness


def _traced_cluster(seed=0, network=None):
    cluster = Cluster(seed=seed)
    if network is not None:
        cluster.set_network(network)
    tracer = Tracer(scope=FullScope())
    tracer.bind(cluster)
    return cluster, tracer


# -- plans --------------------------------------------------------------------


def test_seeded_plans_are_deterministic():
    nodes = ["n1", "n2", "n3"]
    first = FaultPlan.seeded(11, nodes, crashes=2, partitions=2)
    second = FaultPlan.seeded(11, nodes, crashes=2, partitions=2)
    assert first.actions == second.actions
    assert first.describe() == second.describe()
    different = FaultPlan.seeded(12, nodes, crashes=2, partitions=2)
    assert first.actions != different.actions


def test_seeded_plan_protects_nodes():
    for seed in range(10):
        plan = FaultPlan.seeded(seed, ["a", "b", "client"], protected=["client"])
        for action in plan.actions:
            if action.kind in (FaultKind.CRASH, FaultKind.RESTART):
                assert action.target != "client"


def test_plan_validates_actions():
    with pytest.raises(ReproError):
        FaultPlan([FaultAction(5, FaultKind.CRASH)])  # no target
    with pytest.raises(ReproError):
        FaultPlan([FaultAction(5, FaultKind.PARTITION, group_a=("a",))])


def test_plan_actions_sorted_by_time():
    plan = FaultPlan(
        [
            FaultAction(30, FaultKind.RESTART, target="a"),
            FaultAction(10, FaultKind.CRASH, target="a"),
        ]
    )
    assert [a.at for a in plan.actions] == [10, 30]


# -- injector: crash / restart ------------------------------------------------


def test_injector_crashes_and_restarts_on_schedule():
    cluster = Cluster(seed=0)
    a = cluster.add_node("a")
    b = cluster.add_node("b")
    b.rpc_server.register("ping", lambda: "pong")
    outcomes = []

    def prober():
        for _ in range(8):
            try:
                outcomes.append(b.crashed)
                a.rpc("b").ping()
            except RpcError:
                pass
            sleep(10)

    a.spawn(prober, name="prober")
    plan = FaultPlan(
        [
            FaultAction(20, FaultKind.CRASH, target="b"),
            FaultAction(45, FaultKind.RESTART, target="b"),
        ]
    )
    injector = plan.install(cluster)
    result = cluster.run()
    assert result.completed
    assert b.restarts == 1
    assert not b.crashed
    assert injector.applied == ["@20 crash b", "@45 restart b"]
    assert True in outcomes and False in outcomes  # saw both states


def test_restart_invokes_node_behaviors_and_hooks():
    cluster = Cluster(seed=0)
    a = cluster.add_node("a")
    b = cluster.add_node("b")
    calls = []

    class Membership(NodeBehavior):
        def on_restart(self, node):
            calls.append(("behavior", node.name))

    b.attach(Membership())
    b.on_restart(lambda: calls.append(("hook", "b")))

    def chaos():
        sleep(5)
        b.crash()
        sleep(5)
        b.restart()
        b.restart()  # restart of a live node is a no-op

    a.spawn(chaos, name="chaos")
    result = cluster.run()
    assert result.completed
    assert calls == [("behavior", "b"), ("hook", "b")]
    assert b.restarts == 1


def test_injector_installs_flaky_network_for_partitions():
    cluster = Cluster(seed=0)
    cluster.add_node("a")
    cluster.add_node("b")
    plan = FaultPlan(
        [
            FaultAction(5, FaultKind.PARTITION, group_a=("a",), group_b=("b",)),
            FaultAction(15, FaultKind.HEAL, group_a=("a",), group_b=("b",)),
        ]
    )
    plan.install(cluster)
    assert isinstance(cluster.network, FlakyNetwork)
    result = cluster.run()
    assert result.completed
    assert not cluster.network.is_partitioned("a", "b")


# -- soundness: faults add no spurious HB edges -------------------------------


def test_dropped_sends_leave_no_recv_and_no_msoc_edge():
    cluster, tracer = _traced_cluster(
        network=FlakyNetwork(seed=1, drop_probability=1.0)
    )
    a = cluster.add_node("a")
    b = cluster.add_node("b")
    b.on_message("n", lambda p, s: None)
    a.spawn(lambda: [a.send("b", "n", i) for i in range(3)], name="s")
    result = cluster.run()
    assert result.completed

    report = verify_fault_soundness(tracer.trace)
    assert report.ok, report.violations
    assert report.dropped_sends == 3
    assert not tracer.trace.of_kind(OpKind.SOCK_RECV)

    graph = HBGraph(tracer.trace)
    assert graph.edge_counts.get("Msoc", 0) == 0


def test_duplicated_sends_bound_msoc_edges_by_copies():
    cluster, tracer = _traced_cluster(
        network=FlakyNetwork(seed=1, duplicate_probability=1.0)
    )
    a = cluster.add_node("a")
    b = cluster.add_node("b")
    got = []
    b.on_message("n", lambda p, s: got.append(p))
    a.spawn(lambda: a.send("b", "n", 9), name="s")
    result = cluster.run()
    assert result.completed
    assert got == [9, 9]  # both copies delivered, same payload

    sends = tracer.trace.of_kind(OpKind.SOCK_SEND)
    recvs = tracer.trace.of_kind(OpKind.SOCK_RECV)
    assert len(sends) == 1 and sends[0].extra.get("copies") == 2
    assert len(recvs) == 2
    assert {r.obj_id for r in recvs} == {sends[0].obj_id}

    report = verify_fault_soundness(tracer.trace)
    assert report.ok, report.violations
    assert report.duplicated_sends == 1

    # Each real delivery gets its (sound) edge; nothing beyond that.
    graph = HBGraph(tracer.trace)
    assert graph.edge_counts.get("Msoc", 0) == 2


def test_crash_faulted_trace_builds_hb_graph_without_spurious_edges():
    """The tentpole invariant end-to-end: crash + restart + duplication in
    one run; the trace must verify sound and the HB graph must build
    (a spurious backward edge would raise inside ``HBGraph``)."""
    cluster, tracer = _traced_cluster(
        network=FlakyNetwork(seed=2, duplicate_probability=0.5)
    )
    a = cluster.add_node("a")
    b = cluster.add_node("b")
    b.on_message("n", lambda p, s: None)

    def sender():
        for i in range(4):
            a.send("b", "n", i)
            sleep(8)

    a.spawn(sender, name="s")
    plan = FaultPlan(
        [
            FaultAction(10, FaultKind.CRASH, target="b"),
            FaultAction(22, FaultKind.RESTART, target="b"),
        ]
    )
    plan.install(cluster)
    result = cluster.run()
    assert result.completed

    report = verify_fault_soundness(tracer.trace)
    assert report.ok, report.violations
    assert report.dropped_sends >= 1  # the crash window ate something

    graph = HBGraph(tracer.trace)
    delivered = len(tracer.trace.of_kind(OpKind.SOCK_RECV))
    assert graph.edge_counts.get("Msoc", 0) == delivered


def test_verify_fault_soundness_flags_violations():
    """A hand-built inconsistent trace (recv for a dropped send) fails."""
    from repro.ids import CallStack
    from repro.runtime.ops import OpEvent

    def record(seq, kind, tag, **extra):
        return OpEvent(
            seq=seq,
            kind=kind,
            obj_id=tag,
            node="n",
            tid=0,
            thread_name="t",
            segment=0,
            callstack=CallStack(),
            extra=extra,
        )

    bad = [
        record(1, OpKind.SOCK_SEND, "m1", dropped=True),
        record(2, OpKind.SOCK_RECV, "m1"),
    ]
    report = verify_fault_soundness(bad)
    assert not report.ok
    assert "m1" in report.violations[0]

    over_delivered = [
        record(1, OpKind.SOCK_SEND, "m2"),
        record(2, OpKind.SOCK_RECV, "m2"),
        record(3, OpKind.SOCK_RECV, "m2"),
    ]
    report = verify_fault_soundness(over_delivered)
    assert not report.ok


def test_install_rejects_unknown_targets():
    cluster = Cluster(seed=0)
    cluster.add_node("a")
    plan = FaultPlan([FaultAction(5, FaultKind.CRASH, target="ghost")])
    with pytest.raises(ReproError, match="unknown node 'ghost'"):
        plan.install(cluster)
