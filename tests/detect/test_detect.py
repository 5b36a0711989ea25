"""Race detection: candidates, dedup counts, report sets."""

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


def test_deadline_cuts_inside_a_hot_location():
    """One location written from many segments: a ``should_stop`` that
    turns true after its first poll stops enumeration *inside* that
    location (it used to be read only between locations, so a single
    hot location ran to the end whatever the deadline said)."""

    def build(cluster):
        node = cluster.add_node("n")
        var = node.shared_var("x", 0)
        for i in range(8):
            node.spawn(lambda i=i: var.set(i), name=f"w{i}")

    trace = run_traced(build)
    full = detect_races(trace)
    assert not full.stopped_early and full.pairs_examined == 8 * 7 // 2

    polls = []

    def after_first_poll():
        polls.append(None)
        return len(polls) > 1

    cut = detect_races(trace, should_stop=after_first_poll)
    assert cut.stopped_early
    assert 0 < cut.pairs_examined < full.pairs_examined
    # what was examined before the stop is kept, not thrown away
    assert cut.candidates == full.candidates[: len(cut.candidates)]
    assert cut.candidates
