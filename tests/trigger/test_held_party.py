"""A gated party held while the rest of the system stays busy.

The controller has one safety valve, the scheduler's idle hook.  A
livelock never goes idle, so the held party stays held until the
scheduler's step budget ends the run.  That run did not enforce the
order, so its failure cannot make the report harmful."""

from repro import obs
from repro.detect import ReportSet, Verdict, detect_races
from repro.runtime import Cluster, FailureKind, current_sim_thread, sleep
from repro.trace import FullScope, Tracer
from repro.trigger import OrderController, PlacementAnalyzer, TriggerModule

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


def test_livelocked_party_is_held_until_the_step_budget():
    cluster = Cluster(seed=0, max_steps=MAX_STEPS)
    node = cluster.add_node("n")
    controller = OrderController(("B", "A"))  # B never comes
    cluster.scheduler.on_idle(controller.on_idle)
    progressed = []

    def busy_loop():
        while True:
            sleep(2)  # keeps the scheduler busy: the idle hook never fires

    def party_a():
        controller.request("A", current_sim_thread())
        progressed.append("A")
        controller.confirm("A")

    node.spawn(busy_loop, name="busy")
    node.spawn(party_a, name="a")
    result = cluster.run()  # ends: the step budget is the backstop
    assert not result.completed
    assert FailureKind.HANG in result.failure_kinds()
    assert progressed == []
    assert list(controller.arrived) == ["A"]
    assert not controller.granted
    assert not controller.released_by_idle
    assert not controller.enforced


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
        # Each order livelocks behind its gate and hangs at the budget.
        assert FailureKind.HANG in run.result.failure_kinds()
        assert not run.enforced
    assert outcome.verdict is not Verdict.HARMFUL
    assert report.verdict is Verdict.SERIAL


def test_idle_release_metric_counts_releases(capsys):
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        controller = OrderController(("A", "B"))
        controller.arrived["B"] = "t2"
        controller.on_idle()
    assert registry.counter("trigger_idle_releases_total").value == 1
    assert "idle-released" in capsys.readouterr().err
