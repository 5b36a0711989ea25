"""Race detection: candidates, dedup counts, report sets."""

from repro import obs
from repro.detect import ReportSet, Verdict, detect_races
from repro.hb import FULL_MODEL
from repro.runtime import Cluster, sleep
from repro.trace import FullScope, Tracer


def run_traced(build, seed=0):
    cluster = Cluster(seed=seed)
    tracer = Tracer(scope=FullScope()).bind(cluster)
    build(cluster)
    cluster.run()
    return tracer.trace


def test_simple_write_write_race_detected():
    def build(cluster):
        node = cluster.add_node("n")
        var = node.shared_var("x", 0)
        node.spawn(lambda: var.set(1), name="a")
        node.spawn(lambda: var.set(2), name="b")

    trace = run_traced(build)
    detection = detect_races(trace)
    assert detection.candidates
    pair = detection.candidates[0]
    assert pair.first.is_write and pair.second.is_write


def test_read_read_not_a_candidate():
    def build(cluster):
        node = cluster.add_node("n")
        var = node.shared_var("x", 0)
        node.spawn(lambda: var.get(), name="a")
        node.spawn(lambda: var.get(), name="b")

    trace = run_traced(build)
    detection = detect_races(trace)
    assert not detection.candidates


def test_ordered_accesses_not_candidates():
    def build(cluster):
        node = cluster.add_node("n")
        var = node.shared_var("x", 0)

        def parent():
            var.set(1)
            t = node.spawn(lambda: var.set(2), name="child")
            node.join(t)
            var.get()

        node.spawn(parent, name="parent")

    trace = run_traced(build)
    detection = detect_races(trace)
    assert not detection.candidates


def test_different_keys_do_not_conflict():
    def build(cluster):
        node = cluster.add_node("n")
        d = node.shared_dict("m")
        node.spawn(lambda: d.put("a", 1), name="a")
        node.spawn(lambda: d.put("b", 2), name="b")

    trace = run_traced(build)
    detection = detect_races(trace)
    # Only the synthetic #struct location may race, never the key slots.
    key_locations = {c.location[1] for c in detection.candidates}
    assert key_locations <= {"#struct"}


def test_same_key_put_vs_get_conflicts():
    def build(cluster):
        node = cluster.add_node("n")
        d = node.shared_dict("m")
        node.spawn(lambda: d.put("k", 1), name="w")
        node.spawn(lambda: d.get("k"), name="r")

    trace = run_traced(build)
    detection = detect_races(trace)
    assert any(c.location[1] == "k" for c in detection.candidates)


def test_static_vs_callstack_counts():
    def build(cluster):
        node = cluster.add_node("n")
        var = node.shared_var("x", 0)

        def writer():
            var.set(1)  # one static site

        def readers():
            read_once(var)
            read_twice(var)

        def read_once(v):
            v.get()

        def read_twice(v):
            v.get()

        node.spawn(writer, name="w")
        node.spawn(readers, name="r")

    trace = run_traced(build)
    detection = detect_races(trace)
    # Two read sites x one write site = 2 static pairs; callstack pairs >= 2.
    assert detection.static_count() == 2
    assert detection.callstack_count() >= 2


def test_report_set_groups_and_counts():
    def build(cluster):
        node = cluster.add_node("n")
        var = node.shared_var("x", 0)

        def writer():
            for _ in range(3):
                var.set(1)

        node.spawn(writer, name="w")
        node.spawn(lambda: var.get(), name="r")

    trace = run_traced(build)
    detection = detect_races(trace)
    reports = ReportSet.from_detection(detection)
    assert len(reports) >= 1
    report = reports.reports[0]
    assert report.dynamic_instances >= 1
    assert report.verdict is Verdict.UNKNOWN
    assert "DCbug report" in report.describe()
    assert reports.static_count() >= 1


def test_pull_pruning_reduces_candidates():
    """A polling loop's final read should not race with the satisfying
    write when Rule-Mpull is on (Table 5's LP column)."""

    def build(cluster):
        node = cluster.add_node("n")
        flag = node.shared_var("flag", False)

        def producer():
            sleep(50)
            flag.set(True)

        def consumer():
            while not flag.get():
                sleep(1)

        node.spawn(producer, name="p")
        node.spawn(consumer, name="c")

    trace = run_traced(build, seed=2)
    with_pull = detect_races(trace, model=FULL_MODEL)
    without_pull = detect_races(trace, model=FULL_MODEL.without("pull"))
    assert len(with_pull.candidates) < len(without_pull.candidates)


def _racy_trace(seed=0, writers=3):
    """Several threads racing on two shared variables (two locations)."""

    def build(cluster):
        node = cluster.add_node("n")
        x = node.shared_var("x", 0)
        y = node.shared_var("y", 0)

        def make_body(i):
            def body():
                x.set(i)
                y.get()
                y.set(i)

            return body

        for i in range(writers):
            node.spawn(make_body(i), name=f"w{i}")

    return run_traced(build, seed=seed)


def test_truncation_is_recorded_counted_and_warned(capsys):
    trace = _racy_trace(writers=4)
    registry = obs.MetricsRegistry(name="trunc")
    with obs.use_registry(registry):
        result = detect_races(trace, max_pairs_per_location=1)
    assert result.truncated_locations  # the cap really bit
    counter = registry.counter("detect_truncated_locations_total")
    assert counter.value == len(result.truncated_locations)
    err = capsys.readouterr().err
    assert "truncated" in err
    assert str(len(result.truncated_locations)) in err
    # The complete run examines more pairs and is not truncated.
    full = detect_races(trace)
    assert not full.truncated_locations
    assert full.pairs_examined > result.pairs_examined
