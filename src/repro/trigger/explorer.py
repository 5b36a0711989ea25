"""Ordering exploration and report validation (paper Section 5).

For each DCbug report the explorer re-runs the system once per ordering
permutation of the racing pair ("A before B", then "B before A"),
steering execution with the controller + gates.  The verdict follows the
paper's categories (Section 7.1):

* both orders enforceable, some enforced run fails  → **HARMFUL**
* both orders enforceable, no failures               → **BENIGN** (true
  race, tolerated by the system's fault-tolerance)
* the pair never co-occurs / only one order possible → **SERIAL** (the HB
  model missed custom synchronization: detector false positive)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.detect.report import BugReport, Verdict, count_soundness
from repro.runtime.cluster import Cluster, RunResult
from repro.runtime.failures import FailureEvent, FailureKind, FailureLog
from repro.trigger.controller import OrderController
from repro.trigger.gates import GateSpec, TriggerInterceptor
from repro.trigger.placement import GatePlan

#: A factory that builds a fresh, ready-to-run cluster for one seed.
ClusterFactory = Callable[[int], Cluster]


@dataclass
class TriggerRun:
    """One controlled re-execution."""

    order: Tuple[str, str]
    seed: int
    enforced: bool
    co_occurred: bool
    result: RunResult
    #: Non-None when the re-execution itself blew up (factory error,
    #: substrate bug): the run is recorded, never propagated.
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.result.harmful

    def describe(self) -> str:
        status = "enforced" if self.enforced else (
            "co-occurred" if self.co_occurred else "no-overlap"
        )
        kinds = ",".join(sorted({k.value for k in self.result.failure_kinds()}))
        fail = f" FAILURES[{kinds}]" if kinds else ""
        err = f" ERROR[{self.error}]" if self.error else ""
        return f"{self.order[0]}->{self.order[1]} seed={self.seed}: {status}{fail}{err}"


@dataclass
class TriggerOutcome:
    """All runs for one report plus the final verdict."""

    report: BugReport
    plan: GatePlan
    runs: List[TriggerRun] = field(default_factory=list)
    verdict: Verdict = Verdict.UNKNOWN
    detail: str = ""

    def apply(self) -> None:
        """Make this outcome the report's word: its verdict and detail,
        and the ``trigger-confirmed`` tier when HARMFUL/BENIGN say both
        orders really executed (the race is observed, not predicted).
        SERIAL/UNKNOWN leave the tier untouched: a later SERIAL plan
        variant must not erase an earlier confirmation."""
        report = self.report
        report.verdict = self.verdict
        report.verdict_detail = self.detail
        confirmed = self.verdict in (Verdict.HARMFUL, Verdict.BENIGN)
        if confirmed and report.soundness != "trigger-confirmed":
            report.soundness = "trigger-confirmed"
            count_soundness("trigger-confirmed")

    def describe(self) -> str:
        lines = [f"report #{self.report.report_id}: {self.verdict.value}"]
        lines.append(self.plan.describe())
        lines.extend("  " + run.describe() for run in self.runs)
        if self.detail:
            lines.append(f"  {self.detail}")
        return "\n".join(lines)


class TriggerModule:
    """End-to-end triggering: run both orders, classify the report."""

    def __init__(
        self,
        factory: ClusterFactory,
        seeds: Sequence[int] = (0, 1),
    ) -> None:
        self.factory = factory
        self.seeds = tuple(seeds)

    def validate(self, report: BugReport, plan: GatePlan) -> TriggerOutcome:
        with obs.span("trigger.validate", report=report.report_id):
            outcome = self._validate(report, plan)
        obs.counter(
            "trigger_verdicts_total", "trigger verdicts reached"
        ).labels(verdict=outcome.verdict.value).inc()
        return outcome

    def _validate(self, report: BugReport, plan: GatePlan) -> TriggerOutcome:
        outcome = TriggerOutcome(report=report, plan=plan)
        orders = [("A", "B"), ("B", "A")]
        enforced_orders = set()
        failing_runs: List[TriggerRun] = []
        for order in orders:
            for seed in self.seeds:
                run = self._run_once(order, seed, plan.gates)
                outcome.runs.append(run)
                if run.enforced:
                    enforced_orders.add(order)
                    if run.failed:
                        failing_runs.append(run)
                    break  # this order is settled; try the other one

        if failing_runs and enforced_orders:
            outcome.verdict = Verdict.HARMFUL
            kinds = sorted(
                {
                    k.value
                    for run in failing_runs
                    for k in run.result.failure_kinds()
                }
            )
            outcome.detail = (
                f"failure ({', '.join(kinds)}) when enforcing "
                + ", ".join(f"{o[0]}->{o[1]}" for o in sorted(enforced_orders))
            )
        elif len(enforced_orders) == 2:
            outcome.verdict = Verdict.BENIGN
            outcome.detail = "both orders executed without failures"
        else:
            outcome.verdict = Verdict.SERIAL
            outcome.detail = (
                "orders could not be enforced: accesses appear ordered by "
                "synchronization the HB model did not capture"
            )
        outcome.apply()
        return outcome

    def validate_report(
        self,
        report: BugReport,
        placement: "object",
        max_candidates: int = 3,
    ) -> TriggerOutcome:
        """Validate a report, trying several dynamic candidates.

        The paper's prototype gates the first dynamic instance of each
        racing instruction and notes that failures tied to a *specific*
        instance may be missed.  We mitigate that: if the first
        candidate's plan only proves SERIAL, try the plans of later
        candidates (deduplicated) before settling.  The first HARMFUL or
        BENIGN verdict is final; when every plan proves SERIAL, the
        first one is.
        """
        tried = set()
        first: Optional[TriggerOutcome] = None
        for candidate in report.candidates[:max_candidates]:
            for plan in placement.plan_variants(candidate):
                signature = tuple(
                    (party, spec.site, spec.kinds, spec.instance)
                    for party, spec in sorted(plan.gates.items())
                )
                if signature in tried:
                    continue
                tried.add(signature)
                outcome = self.validate(report, plan)
                if outcome.verdict is not Verdict.SERIAL:
                    return outcome
                if first is None:
                    first = outcome
        if first is not None:
            first.apply()  # validate() applied each SERIAL in turn
        return first

    # -- internals ----------------------------------------------------------

    def _run_once(
        self, order: Tuple[str, str], seed: int, gates: Dict[str, GateSpec]
    ) -> TriggerRun:
        """One controlled re-execution, isolated from the caller.

        ``cluster.run()`` already converts modeled deadlocks and hangs
        into failure events on a normal ``RunResult``.  Anything else that
        escapes (a factory error, a substrate bug) is captured as this
        run's ``error`` — never propagated, so one broken re-execution
        cannot take down the whole validation pass.
        """
        obs.counter(
            "trigger_runs_total", "controlled trigger re-executions"
        ).inc()
        controller = OrderController(order)
        try:
            cluster = self.factory(seed)
            TriggerInterceptor(controller, gates).bind(cluster)
            result = cluster.run()
        except Exception as exc:  # noqa: BLE001 - isolate the re-run
            failures = FailureLog()
            failures.record(
                FailureEvent(
                    kind=FailureKind.UNCAUGHT,
                    node="<trigger>",
                    thread="<explorer>",
                    message=f"{type(exc).__name__}: {exc}",
                    step=0,
                )
            )
            result = RunResult(
                name=f"trigger-{order[0]}{order[1]}-s{seed}",
                seed=seed,
                steps=0,
                completed=False,
                failures=failures,
                ops=0,
            )
            return TriggerRun(
                order=order,
                seed=seed,
                enforced=False,
                co_occurred=False,
                result=result,
                error=f"{type(exc).__name__}: {exc}",
            )
        return TriggerRun(
            order=order,
            seed=seed,
            enforced=controller.enforced,
            co_occurred=controller.co_occurred,
            result=result,
        )
