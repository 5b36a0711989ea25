"""Controller protocol edge cases and gate mechanics."""

from types import SimpleNamespace

import pytest

from repro.detect import Verdict
from repro.ids import Site
from repro.runtime import Cluster, FailureKind, OpKind, current_sim_thread, sleep
from repro.trigger import GateSpec, OrderController, TriggerInterceptor
from repro.trigger.controller import HOLD_STEPS


def test_order_must_be_two_distinct_parties():
    with pytest.raises(ValueError):
        OrderController(("A", "A"))
    with pytest.raises(ValueError):
        OrderController(("A",))


def test_confirm_before_grant_is_ignored():
    controller = OrderController(("A", "B"))
    controller.confirm("A")  # never granted: no effect
    assert controller.confirmed == []
    assert not controller.enforced


def test_second_party_arriving_late_still_granted():
    cluster = Cluster(seed=0)
    node = cluster.add_node("n")
    controller = OrderController(("A", "B"))
    order = []

    def party_a():
        controller.request("A", current_sim_thread())
        order.append("A")
        controller.confirm("A")

    def party_b():
        sleep(30)  # arrives long after A requested
        controller.request("B", current_sim_thread())
        order.append("B")
        controller.confirm("B")

    node.spawn(party_a, name="a")
    node.spawn(party_b, name="b")
    result = cluster.run()
    assert result.completed
    assert order == ["A", "B"]
    assert controller.enforced


def test_enforced_requires_confirm_order():
    controller = OrderController(("B", "A"))
    controller.arrived["A"] = "t1"
    controller.arrived["B"] = "t2"
    controller._maybe_grant()
    assert "B" in controller.granted and "A" not in controller.granted
    controller.confirm("B")
    assert "A" in controller.granted
    controller.confirm("A")
    assert controller.enforced
    assert controller.co_occurred


def _gate_thread(name, scheduler):
    """A stand-in for a SimThread arriving at a gate: ``block_until``
    returns at once, so ``request`` can be driven without a cluster."""
    return SimpleNamespace(
        name=name, scheduler=scheduler, block_until=lambda pred, why: None
    )


def test_hold_shortens_the_budget_until_the_partner_arrives():
    scheduler = SimpleNamespace(max_steps=5_000, steps=40)
    controller = OrderController(("A", "B"))
    controller.request("B", _gate_thread("t2", scheduler))
    assert scheduler.max_steps == 40 + HOLD_STEPS
    scheduler.steps = 900
    controller.request("A", _gate_thread("t1", scheduler))
    assert scheduler.max_steps == 5_000
    assert controller.co_occurred


def test_hold_keeps_a_tighter_workload_budget():
    scheduler = SimpleNamespace(max_steps=300, steps=10)
    controller = OrderController(("A", "B"))
    controller.request("A", _gate_thread("t1", scheduler))
    assert scheduler.max_steps == 300


class TestGateSpec:
    def _event(self, cluster, site_line):
        cluster_, node = cluster
        var = node.shared_var("x", 0)
        node.spawn(lambda: var.set(1), name="w")
        cluster_.run()
        return None

    def test_kind_filter(self):
        site = Site("tests/x.py", "f", 1)
        spec = GateSpec(site=site, kinds=frozenset({OpKind.MEM_WRITE}))
        from repro.ids import CallStack, Frame
        from repro.runtime.ops import OpEvent

        frame = Frame("tests/x.py", "f", 1)
        write = OpEvent(
            seq=1, kind=OpKind.MEM_WRITE, obj_id="x", node="n", tid=0,
            thread_name="t", segment=0, callstack=CallStack([frame]),
        )
        read = OpEvent(
            seq=2, kind=OpKind.MEM_READ, obj_id="x", node="n", tid=0,
            thread_name="t", segment=0, callstack=CallStack([frame]),
        )
        assert spec.matches(write)
        assert not spec.matches(read)

    def test_any_kind_gate(self):
        site = Site("tests/x.py", "f", 1)
        spec = GateSpec(site=site, kinds=None)
        from repro.ids import CallStack, Frame
        from repro.runtime.ops import OpEvent

        frame = Frame("tests/x.py", "f", 1)
        event = OpEvent(
            seq=1, kind=OpKind.RPC_CREATE, obj_id="r", node="n", tid=0,
            thread_name="t", segment=0, callstack=CallStack([frame]),
        )
        assert spec.matches(event)

    def test_describe(self):
        spec = GateSpec(
            site=Site("tests/x.py", "f", 1),
            kinds=frozenset({OpKind.MEM_READ}),
            instance=2,
            note="rule-4",
        )
        text = spec.describe()
        assert "instance=2" in text
        assert "rule-4" in text


def _shared_site_worker(var, tag, order):
    var.set(tag)
    order.append(tag)


def test_shared_site_gates_count_independently():
    """Two gates on one site: the counting fix — neither party's block
    may starve the other's instance counter."""
    from repro.trace import FullScope, Tracer

    # Probe run: learn the site of the write inside the shared worker.
    probe = Cluster(seed=0)
    tracer = Tracer(scope=FullScope()).bind(probe)
    pnode = probe.add_node("n")
    pvar = pnode.shared_var("x", 0)
    porder = []
    pnode.spawn(lambda: _shared_site_worker(pvar, 1, porder), name="p")
    probe.run()
    write = next(r for r in tracer.trace.mem_accesses() if r.is_write)
    site = write.site
    assert site is not None

    # Gated run: two threads hit the same site; enforce 2-before-1.
    cluster = Cluster(seed=0)
    node = cluster.add_node("n")
    var = node.shared_var("x", 0)
    controller = OrderController(("B", "A"))
    order = []
    node.spawn(lambda: _shared_site_worker(var, 1, order), name="t1")
    node.spawn(lambda: _shared_site_worker(var, 2, order), name="t2")
    gates = {
        "A": GateSpec(site=site, kinds=frozenset({OpKind.MEM_WRITE}), instance=0),
        "B": GateSpec(site=site, kinds=frozenset({OpKind.MEM_WRITE}), instance=1),
    }
    TriggerInterceptor(controller, gates).bind(cluster)
    result = cluster.run()
    assert result.completed
    assert controller.co_occurred, controller.log
    assert controller.enforced, controller.log
    # The gated-second write (instance 1) ran before instance 0.
    assert len(order) == 2


def test_lone_party_ends_in_deadlock():
    """Party A is held at its gate and party B never exists.  Nothing
    else can run, so the scheduler reports a deadlock and the run is
    marked not-enforced."""
    cluster = Cluster(seed=0)
    node = cluster.add_node("n")
    controller = OrderController(("B", "A"))  # B first — but B never comes
    progressed = []

    def party_a():
        controller.request("A", current_sim_thread())
        progressed.append("A")
        controller.confirm("A")

    node.spawn(party_a, name="a")
    result = cluster.run()
    assert not result.completed
    assert FailureKind.DEADLOCK in result.failure_kinds()
    assert progressed == []  # held to the end
    assert not controller.enforced
    assert not controller.co_occurred


def test_party_blocked_behind_held_one_ends_in_deadlock():
    """The circular case from the controller docstring: B's gate is
    downstream of A's gated operation, so holding A (waiting for B)
    stalls the whole run, which ends in a deadlock, not enforced."""
    cluster = Cluster(seed=0)
    node = cluster.add_node("n")
    controller = OrderController(("B", "A"))
    flag = node.shared_var("flag", 0)
    order = []

    def party_a():
        controller.request("A", current_sim_thread())
        order.append("A")
        flag.set(1)  # B waits for this — behind A's gate
        controller.confirm("A")

    def party_b():
        current_sim_thread().block_until(
            lambda: flag.get() == 1, "wait-flag"
        )
        controller.request("B", current_sim_thread())
        order.append("B")
        controller.confirm("B")

    node.spawn(party_a, name="a")
    node.spawn(party_b, name="b")
    result = cluster.run()
    assert not result.completed
    (deadlock,) = result.failures.events
    assert deadlock.kind is FailureKind.DEADLOCK
    assert set(deadlock.thread.split(",")) == {"n.a", "n.b"}
    assert order == []
    assert not controller.co_occurred  # B never reached its gate
    assert not controller.enforced
