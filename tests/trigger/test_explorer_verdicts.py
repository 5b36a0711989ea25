"""Explorer verdict aggregation across candidates and plan variants."""

from repro.detect import Verdict
from repro.detect.races import Candidate
from repro.detect.report import BugReport
from repro.ids import CallStack, Frame
from repro.runtime import Cluster, OpKind, sleep
from repro.trace import FullScope, Tracer
from repro.trigger import PlacementAnalyzer, TriggerModule
from repro.trigger.explorer import TriggerOutcome
from repro.trigger.gates import GateSpec
from repro.trigger.placement import GatePlan


def build_two_phase(cluster):
    """Two racing pairs in one variable: the first candidate's gating
    only proves BENIGN; a later candidate's gating proves HARMFUL."""
    node = cluster.add_node("n")
    slots = node.shared_dict("slots")

    def filler():
        slots.put("a", 1)  # benign vs the reader's get("a")
        sleep(25)
        slots.remove("b")  # harmful vs the reader's get("b")

    def reader():
        sleep(5)
        slots.get("a")
        sleep(5)
        if slots.get("b") is None:
            node.log.fatal("slot b vanished")

    def seeder():
        slots.put("b", 1)

    node.spawn(seeder, name="seeder")
    node.spawn(filler, name="filler")
    node.spawn(reader, name="reader")


def _artifacts():
    cluster = Cluster(seed=0)
    tracer = Tracer(scope=FullScope()).bind(cluster)
    build_two_phase(cluster)
    result = cluster.run()
    assert not result.harmful
    from repro.detect import ReportSet, detect_races

    detection = detect_races(tracer.trace)
    return tracer.trace, detection, ReportSet.from_detection(detection)


def _factory(seed):
    cluster = Cluster(seed=seed, max_steps=20_000)
    build_two_phase(cluster)
    return cluster


def test_most_severe_verdict_wins():
    trace, detection, reports = _artifacts()
    placement = PlacementAnalyzer(trace, detection.graph)
    module = TriggerModule(_factory, seeds=(0, 1))
    harmful = []
    for report in reports:
        outcome = module.validate_report(report, placement)
        if outcome and outcome.verdict is Verdict.HARMFUL:
            harmful.append(report)
    assert harmful, "the slot-b race must be confirmed harmful"
    for report in harmful:
        assert report.verdict is Verdict.HARMFUL
        assert report.verdict_detail


def test_validate_report_returns_outcome_for_empty_plans():
    """A report whose accesses lack sites still gets a graceful answer."""
    frame = Frame("repro/systems/x.py", "f", 1)
    from repro.runtime.ops import OpEvent

    a = OpEvent(
        seq=1, kind=OpKind.MEM_WRITE, obj_id="v", node="n", tid=0,
        thread_name="t", segment=0, callstack=CallStack(),
        location=(1, "k"),
    )
    b = OpEvent(
        seq=2, kind=OpKind.MEM_READ, obj_id="v", node="n", tid=1,
        thread_name="u", segment=1, callstack=CallStack(),
        location=(1, "k"),
    )
    report = BugReport(report_id=1, candidates=[Candidate(a, b)])
    trace, detection, _ = _artifacts()
    placement = PlacementAnalyzer(trace, detection.graph)
    module = TriggerModule(_factory, seeds=(0,))
    outcome = module.validate_report(report, placement)
    # Gates on site=None match nothing: the orders cannot be enforced.
    assert outcome is not None
    assert outcome.verdict in (Verdict.SERIAL, Verdict.UNKNOWN)


class _PlanPerCandidate:
    """A placement that gives every candidate one plan of its own."""

    def plan_variants(self, candidate):
        return [GatePlan({"A": GateSpec(site=candidate)})]


def test_first_confirmed_verdict_ends_the_search(monkeypatch):
    """A report with three candidates whose first plan proves BENIGN
    validates exactly one plan: later candidates are tried only after
    SERIAL."""
    validated = []

    def benign(self, report, plan):
        validated.append(plan)
        return TriggerOutcome(report=report, plan=plan, verdict=Verdict.BENIGN)

    monkeypatch.setattr(TriggerModule, "validate", benign)
    report = BugReport(report_id=1, candidates=["c0", "c1", "c2"])
    module = TriggerModule(_factory)
    outcome = module.validate_report(report, _PlanPerCandidate())
    assert outcome.verdict is Verdict.BENIGN
    assert [plan.gates["A"].site for plan in validated] == ["c0"]


def test_all_serial_keeps_the_first_plan(monkeypatch):
    """When every plan proves SERIAL, each is tried and the first
    outcome is the report's word."""
    validated = []

    def serial(self, report, plan):
        validated.append(plan)
        outcome = TriggerOutcome(report=report, plan=plan, verdict=Verdict.SERIAL)
        outcome.apply()
        return outcome

    monkeypatch.setattr(TriggerModule, "validate", serial)
    report = BugReport(report_id=1, candidates=["c0", "c1", "c2"])
    outcome = TriggerModule(_factory).validate_report(report, _PlanPerCandidate())
    assert len(validated) == 3
    assert outcome.plan is validated[0]
    assert report.verdict is Verdict.SERIAL


def test_prioritize_puts_sampled_after_full_within_tier():
    # The trigger queue is ordered by the pruner's ranking.
    from repro.analysis.pruner import rank_reports

    def report(rid, soundness, confidence):
        return BugReport(
            report_id=rid,
            candidates=[],
            soundness=soundness,
            confidence=confidence,
        )

    ordered = rank_reports(
        [
            report(1, "sp-sound", "sampled"),
            report(2, "hb-predicted", "full"),
            report(3, "sp-sound", "full"),
        ]
    )
    # Soundness dominates; within a tier full-confidence goes first.
    assert [r.report_id for r in ordered] == [3, 1, 2]
