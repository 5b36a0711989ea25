"""A gated party held while the rest of the system stays busy.

A held party waits at most ``HOLD_STEPS`` scheduler steps for its
partner: a livelock never goes idle, so the shortened step budget ends
the run with a hang.  That run did not enforce the order, so its
failure cannot make the report harmful.  A partner that arrives inside
the hold restores the run's own budget."""

from repro.detect import ReportSet, Verdict, detect_races
from repro.runtime import Cluster, FailureKind, current_sim_thread, sleep
from repro.trace import FullScope, Tracer
from repro.trigger import OrderController, PlacementAnalyzer, TriggerModule
from repro.trigger.controller import HOLD_STEPS

MAX_STEPS = 2_000


def build_flag_ordered(cluster):
    """The reader waits on a flag the writer raises after its write: an
    order the HB model does not see, so (write, read) is reported.  A
    spinner stays busy until the reader is done."""
    node = cluster.add_node("n")
    value = node.shared_var("value", 0)
    flag = node.shared_var("flag", 0)
    done = node.shared_var("done", 0)

    def writer():
        value.set(1)
        flag.set(1)

    def reader():
        current_sim_thread().block_until(lambda: flag.get() == 1, "wait-flag")
        value.get()
        done.set(1)

    def spinner():
        while not done.get():
            sleep(1)

    node.spawn(writer, name="writer")
    node.spawn(reader, name="reader")
    node.spawn(spinner, name="spinner")


def test_busy_held_run_hangs_at_the_hold():
    cluster = Cluster(seed=0, max_steps=MAX_STEPS)
    node = cluster.add_node("n")
    controller = OrderController(("B", "A"))  # B never comes
    arrival = []
    progressed = []

    def busy_loop():
        while True:
            sleep(2)  # keeps the scheduler busy: never a deadlock

    def party_a():
        arrival.append(current_sim_thread().scheduler.steps)
        controller.request("A", current_sim_thread())
        progressed.append("A")
        controller.confirm("A")

    node.spawn(busy_loop, name="busy")
    node.spawn(party_a, name="a")
    result = cluster.run()
    assert not result.completed
    assert FailureKind.HANG in result.failure_kinds()
    assert result.steps <= arrival[0] + HOLD_STEPS + 1 < MAX_STEPS
    assert progressed == []
    assert list(controller.arrived) == ["A"]
    assert not controller.granted
    assert not controller.enforced


def test_partner_inside_the_hold_restores_the_budget():
    """B arrives 600 steps after A, well inside the hold; the run then
    works on past ``HOLD_STEPS`` and completes, with the order enforced."""
    cluster = Cluster(seed=0, max_steps=MAX_STEPS)
    node = cluster.add_node("n")
    controller = OrderController(("A", "B"))
    order = []

    def party_a():
        controller.request("A", current_sim_thread())
        order.append("A")
        controller.confirm("A")

    def party_b():
        for _ in range(600):
            sleep(1)
        controller.request("B", current_sim_thread())
        order.append("B")
        controller.confirm("B")
        for _ in range(HOLD_STEPS):
            sleep(1)

    node.spawn(party_a, name="a")
    node.spawn(party_b, name="b")
    result = cluster.run()
    assert result.completed, result.failures.events
    assert result.steps > HOLD_STEPS + 600
    assert order == ["A", "B"]
    assert controller.enforced


def test_livelocked_enforcement_is_not_rated_harmful():
    cluster = Cluster(seed=0)
    tracer = Tracer(scope=FullScope()).bind(cluster)
    build_flag_ordered(cluster)
    assert not cluster.run().harmful
    detection = detect_races(tracer.trace)
    report = next(
        r
        for r in ReportSet.from_detection(detection)
        if r.representative.first.obj_id == "n.value"
    )
    plan = PlacementAnalyzer(tracer.trace, detection.graph).plan(report)

    def factory(seed):
        cluster = Cluster(seed=seed, max_steps=MAX_STEPS)
        build_flag_ordered(cluster)
        return cluster

    outcome = TriggerModule(factory, seeds=(0,)).validate(report, plan)
    assert [run.order for run in outcome.runs] == [("A", "B"), ("B", "A")]
    for run in outcome.runs:
        # Each order livelocks behind its gate and hangs at the hold.
        assert FailureKind.HANG in run.result.failure_kinds()
        assert not run.enforced
    assert outcome.verdict is not Verdict.HARMFUL
    assert report.verdict is Verdict.SERIAL
