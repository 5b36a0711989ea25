"""Triggering: controller enforcement, placement rules, verdicts."""

from repro.detect import ReportSet, Verdict, detect_races
from repro.hb import HBGraph
from repro.runtime import Cluster, OpKind, sleep
from repro.trace import FullScope, Tracer
from repro.trigger import (
    GateSpec,
    OrderController,
    PlacementAnalyzer,
    TriggerInterceptor,
    TriggerModule,
)


# --- workloads (module-level so sites are stable across runs) -----------


def build_harmful_kv(cluster):
    """remove-vs-get race; get after remove logs a severe error."""
    node = cluster.add_node("n")
    jmap = node.shared_dict("jmap")

    def seed_then_remove():
        jmap.put("j", "task")
        sleep(20)
        jmap.remove("j")

    def getter():
        sleep(5)
        value = jmap.get("j")
        if value is None:
            node.log.fatal("task vanished")

    node.spawn(seed_then_remove, name="rm")
    node.spawn(getter, name="get")
    return node


def build_benign_kv(cluster):
    """The same race but the reader tolerates a missing entry."""
    node = cluster.add_node("n")
    jmap = node.shared_dict("jmap")

    def seed_then_remove():
        jmap.put("j", "task")
        sleep(20)
        jmap.remove("j")

    def getter():
        sleep(5)
        value = jmap.get("j")
        if value is None:
            node.log.info("not there yet; fine")

    node.spawn(seed_then_remove, name="rm")
    node.spawn(getter, name="get")
    return node


def build_fork_ordered(cluster):
    """Write then fork a reader: accesses are genuinely ordered."""
    node = cluster.add_node("n")
    var = node.shared_var("x", 0)

    def parent():
        var.set(1)
        node.spawn(lambda: var.get(), name="child")

    node.spawn(parent, name="parent")
    return node


def _trace_workload(build, seed=0):
    cluster = Cluster(seed=seed)
    tracer = Tracer(scope=FullScope()).bind(cluster)
    build(cluster)
    result = cluster.run()
    return tracer.trace, result


def _factory(build):
    def make(seed):
        cluster = Cluster(seed=seed, max_steps=50_000)
        build(cluster)
        return cluster

    return make


def _first_report(build):
    trace, result = _trace_workload(build)
    assert not result.harmful, "monitored run must be correct (paper setup)"
    detection = detect_races(trace)
    reports = ReportSet.from_detection(detection)
    key_reports = [
        r
        for r in reports
        if r.representative.location and r.representative.location[1] == "j"
    ]
    assert key_reports, "expected a report on the jmap['j'] entry"
    return trace, detection, key_reports[0]


class TestController:
    def test_grants_desired_order(self):
        cluster = Cluster(seed=0)
        node = cluster.add_node("n")
        order_log = []
        controller = OrderController(("B", "A"))

        def party(name):
            def body():
                from repro.runtime import current_sim_thread

                controller.request(name, current_sim_thread())
                order_log.append(name)
                controller.confirm(name)

            return body

        node.spawn(party("A"), name="a")
        node.spawn(party("B"), name="b")
        cluster.run()
        assert order_log == ["B", "A"]
        assert controller.enforced


class TestVerdicts:
    def test_harmful_race_confirmed(self):
        trace, detection, report = _first_report(build_harmful_kv)
        plan = PlacementAnalyzer(trace, detection.graph).plan(report)
        module = TriggerModule(_factory(build_harmful_kv), seeds=(0, 1, 2))
        outcome = module.validate(report, plan)
        assert outcome.verdict is Verdict.HARMFUL
        assert report.verdict is Verdict.HARMFUL

    def test_benign_race_confirmed(self):
        trace, detection, report = _first_report(build_benign_kv)
        plan = PlacementAnalyzer(trace, detection.graph).plan(report)
        module = TriggerModule(_factory(build_benign_kv), seeds=(0, 1, 2))
        outcome = module.validate(report, plan)
        assert outcome.verdict is Verdict.BENIGN

    def test_ordered_pair_classified_serial(self):
        trace, _result = _trace_workload(build_fork_ordered)
        writes = [
            r
            for r in trace.mem_accesses()
            if r.is_write and str(r.obj_id).endswith("n.x")
        ]
        reads = [
            r
            for r in trace.mem_accesses()
            if not r.is_write and str(r.obj_id).endswith("n.x")
        ]
        from repro.detect.races import Candidate
        from repro.detect.report import BugReport
        from repro.trigger import GatePlan

        report = BugReport(
            report_id=1, candidates=[Candidate(writes[0], reads[0])]
        )
        gates = {
            "A": GateSpec(site=writes[0].site, kinds=frozenset({OpKind.MEM_WRITE})),
            "B": GateSpec(site=reads[0].site, kinds=frozenset({OpKind.MEM_READ})),
        }
        plan = GatePlan(gates=gates, rules=["manual"])
        module = TriggerModule(_factory(build_fork_ordered), seeds=(0, 1))
        outcome = module.validate(report, plan)
        assert outcome.verdict is Verdict.SERIAL


class TestPlacement:
    def test_same_queue_rule_moves_gates_to_enqueue(self):
        def build(cluster):
            node = cluster.add_node("n")
            var = node.shared_var("x", 0)
            q = node.event_queue("q", consumers=1)
            q.register("w", lambda ev: var.set(1))
            q.register("r", lambda ev: var.get())

            def poster_w():
                q.post("w")

            def poster_r():
                q.post("r")

            node.spawn(poster_w, name="pw")
            node.spawn(poster_r, name="pr")

        trace, _ = _trace_workload(build)
        detection = detect_races(trace)
        reports = ReportSet.from_detection(detection)
        assert len(reports) >= 1
        plan = PlacementAnalyzer(trace, detection.graph).plan(reports.reports[0])
        assert any("single-consumer queue" in r for r in plan.rules)
        for spec in plan.gates.values():
            assert spec.kinds == frozenset({OpKind.EVENT_CREATE})

    def test_same_lock_rule_moves_gates_before_critical_sections(self):
        def build(cluster):
            node = cluster.add_node("n")
            var = node.shared_var("x", 0)
            lock = node.lock("guard")

            def writer():
                with lock:
                    var.set(1)

            def reader():
                with lock:
                    var.get()

            node.spawn(writer, name="w")
            node.spawn(reader, name="r")

        trace, _ = _trace_workload(build)
        detection = detect_races(trace)
        reports = ReportSet.from_detection(detection)
        assert len(reports) >= 1
        plan = PlacementAnalyzer(trace, detection.graph).plan(reports.reports[0])
        assert any("same lock" in r for r in plan.rules)
        for spec in plan.gates.values():
            assert spec.kinds == frozenset({OpKind.LOCK_ACQUIRE})

    def test_instance_threshold_moves_gate_along_hb(self):
        def build(cluster):
            a = cluster.add_node("a")
            b = cluster.add_node("b")
            var = b.shared_var("x", 0)
            b.rpc_server.register("touch", lambda: var.get())

            def hammer():
                for _ in range(12):
                    b_local_read(var)

            def b_local_read(v):
                v.get()

            def writer():
                a.rpc("b").touch()
                var.set(1)

            b.spawn(hammer, name="hammer")
            b.spawn(writer, name="writer")

        trace, _ = _trace_workload(build)
        detection = detect_races(trace)
        analyzer = PlacementAnalyzer(
            trace, detection.graph, instance_threshold=3
        )
        reports = ReportSet.from_detection(detection)
        hot = [
            r
            for r in reports
            if any(
                a.site and "b_local_read" in a.site.func
                for a in r.representative.accesses()
            )
        ]
        if hot:
            plan = analyzer.plan(hot[0])
            assert plan.gates  # plan exists even for hot sites


def test_gate_spec_matching_by_site_and_kind():
    trace, _ = _trace_workload(build_harmful_kv)
    write = [r for r in trace.mem_accesses() if r.is_write][0]
    spec = GateSpec(site=write.site, kinds=frozenset({write.kind}))
    assert spec.matches(write)
    other = [r for r in trace.mem_accesses() if r.site != write.site][0]
    assert not spec.matches(other)
