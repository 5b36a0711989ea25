"""The naive sleep-injection triggering baseline (paper Section 5.1).

"Naively, we could perturb the execution timing by inserting sleep into
the program, like how LCbugs are triggered in some previous work.
However, this naive approach does not work for complicated bugs in
complicated systems, because it is hard to know how long the sleep needs
to be."

This module implements that baseline so the claim is measurable: to
explore "B before A", it injects a sleep right before A's access and
*hopes* B gets there first.  There is no coordination, no confirmation,
no placement analysis — success depends entirely on guessing a good
delay.  The placement-ablation bench compares its confirmation rate with
the controller-based module's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.detect.report import BugReport, Verdict
from repro.ids import Site
from repro.runtime.cluster import RunResult
from repro.runtime.ops import Interceptor, MEM_KINDS, OpEvent
from repro.runtime.scheduler import current_sim_thread
from repro.trigger.explorer import ClusterFactory


class SleepInjector(Interceptor):
    """Delays the first dynamic access at one site; observes both sites."""

    def __init__(
        self,
        delay_site: Site,
        observe_sites: Tuple[Site, Site],
        delay: int,
    ) -> None:
        self.delay_site = delay_site
        self.observe_sites = observe_sites
        self.delay = delay
        self._delayed = False
        self.first_seq: Dict[Site, int] = {}

    def before(self, event: OpEvent) -> None:
        if event.kind not in MEM_KINDS or event.site is None:
            return
        if not self._delayed and event.site == self.delay_site:
            self._delayed = True
            thread = current_sim_thread()
            thread.sleep_until(thread.scheduler.clock + self.delay)

    def after(self, event: OpEvent) -> None:
        if event.kind not in MEM_KINDS or event.site is None:
            return
        if event.site in self.observe_sites and event.site not in self.first_seq:
            self.first_seq[event.site] = event.seq

    def achieved_order(self) -> Optional[Tuple[Site, Site]]:
        """Which observed site's first instance executed first, if both ran."""
        if len(self.first_seq) < 2:
            return None
        (s1, q1), (s2, q2) = sorted(self.first_seq.items(), key=lambda kv: kv[1])
        return (s1, s2)


@dataclass
class NaiveRun:
    delayed_site: Site
    delay: int
    seed: int
    achieved: Optional[Tuple[Site, Site]]
    result: RunResult


@dataclass
class NaiveOutcome:
    report: BugReport
    runs: List[NaiveRun] = field(default_factory=list)
    verdict: Verdict = Verdict.UNKNOWN
    orders_seen: set = field(default_factory=set)

    def describe(self) -> str:
        lines = [f"naive sleep-injection on report #{self.report.report_id}: "
                 f"{self.verdict.value}"]
        for run in self.runs:
            status = "->".join(str(s) for s in run.achieved) if run.achieved else "?"
            fail = (
                " FAIL" if run.result.harmful else ""
            )
            lines.append(
                f"  delay {run.delay} at {run.delayed_site}: {status}{fail}"
            )
        return "\n".join(lines)


class NaiveSleepTrigger:
    """Validate a report by sleep injection alone."""

    def __init__(
        self,
        factory: ClusterFactory,
        delays: Sequence[int] = (5, 20, 80),
        seeds: Sequence[int] = (0,),
    ) -> None:
        self.factory = factory
        self.delays = tuple(delays)
        self.seeds = tuple(seeds)

    def validate(self, report: BugReport) -> NaiveOutcome:
        a, b = report.representative.accesses()
        site_a, site_b = a.site, b.site
        outcome = NaiveOutcome(report=report)
        if site_a is None or site_b is None or site_a == site_b:
            outcome.verdict = Verdict.UNKNOWN
            return outcome
        failing_orders = set()
        for delay_site, want in (
            (site_a, (site_b, site_a)),  # delay A hoping B goes first
            (site_b, (site_a, site_b)),  # delay B hoping A goes first
        ):
            for delay in self.delays:
                for seed in self.seeds:
                    cluster = self.factory(seed)
                    injector = SleepInjector(delay_site, (site_a, site_b), delay)
                    cluster.add_interceptor(injector)
                    result = cluster.run()
                    achieved = injector.achieved_order()
                    run = NaiveRun(delay_site, delay, seed, achieved, result)
                    outcome.runs.append(run)
                    if achieved is not None:
                        outcome.orders_seen.add(achieved)
                        if result.harmful:
                            failing_orders.add(achieved)
                if want in outcome.orders_seen:
                    break  # this direction achieved; stop growing delays

        if failing_orders:
            outcome.verdict = Verdict.HARMFUL
        elif len(outcome.orders_seen) == 2:
            outcome.verdict = Verdict.BENIGN
        else:
            # Could not demonstrate both orders: inconclusive — the
            # paper's point about not knowing how long to sleep.
            outcome.verdict = Verdict.SERIAL
        return outcome
