"""Resource governance for the analysis pipeline.

The north-star deployment is a long-running detection service chewing on
unbounded WAL streams; there, an analysis stage that runs forever or
eats all memory takes the tenant fleet down with it.  The
``ResourceGovernor`` bounds both axes:

* **wall-clock deadlines** — each stage gets ``max_stage_seconds``;
  cooperative checks (between detect locations, between trigger
  reports) observe the deadline and stop early, marking the stage
  *degraded* rather than wedging the process;
* **memory budget** — ``memory_budget_mb`` caps both the reachability
  structure's byte accounting (the existing ``TraceAnalysisOOM`` path)
  and the process RSS, polled from ``/proc/self/statm`` (falling back
  to ``resource.getrusage``).

On pressure the pipeline degrades along an explicit ladder (see
``repro.pipeline``): ``max_pairs_per_location`` truncation, and
finally a ``degraded`` stage status instead of an exception.  "Dynamic Race
Detection with O(1) Samples" (PAPERS.md) is the theoretical license:
detection quality survives deliberately shedding work.

Every decision is observable: ``governor_degradations_total{rung=}``,
``governor_deadline_exceeded_total{stage=}``, and the
``governor_rss_mb`` gauge.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro import obs

#: The degradation ladder, in the order rungs are engaged.
DEGRADATION_LADDER = (
    "truncate_pairs",   # engage aggressive max_pairs_per_location
    "abandoned",        # give up: stage marked degraded, partial result kept
)

#: ``max_pairs_per_location`` once the ``truncate_pairs`` rung engages.
TRUNCATED_MAX_PAIRS = 5_000

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def process_rss_mb() -> float:
    """Current resident set size in MB (high-water fallback on
    platforms without ``/proc``)."""
    try:
        with open("/proc/self/statm") as fh:
            rss_pages = int(fh.read().split()[1])
        return rss_pages * _PAGE_SIZE / (1024 * 1024)
    except (OSError, ValueError, IndexError):
        try:
            import resource

            # Linux reports ru_maxrss in KB; a high-water mark is a
            # conservative stand-in for current RSS.
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        except Exception:  # pragma: no cover - exotic platforms
            return 0.0


def maybe_stall(point: str) -> None:
    """Test hook: ``DCATCH_STALL=<point>:<seconds>`` sleeps at a named
    pipeline point so crash/signal tests get a deterministic window.
    A no-op unless the environment variable names this exact point."""
    spec = os.environ.get("DCATCH_STALL")
    if not spec:
        return
    name, _, seconds = spec.partition(":")
    if name != point:
        return
    try:
        time.sleep(float(seconds or "0"))
    except ValueError:
        pass


@dataclass
class StageBudget:
    """One stage's slice of the governor's budgets."""

    name: str
    started: float
    max_seconds: Optional[float] = None
    deadline_hit: bool = False

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def exceeded(self) -> bool:
        """True once the stage is past its wall-clock deadline.  Sticky:
        the first observation is also counted on the metric."""
        if self.max_seconds is None:
            return False
        if not self.deadline_hit and self.elapsed() > self.max_seconds:
            self.deadline_hit = True
            obs.counter(
                "governor_deadline_exceeded_total",
                "pipeline stages that overran max_stage_seconds",
            ).labels(stage=self.name).inc()
        return self.deadline_hit


@dataclass
class DegradationEvent:
    """One rung of the ladder being engaged, with the operator-facing
    *why* (surfaced by the ``run``/``stream`` CLI summaries)."""

    rung: str
    stage: str
    reason: str = ""

    def describe(self) -> str:
        why = f": {self.reason}" if self.reason else ""
        return f"{self.rung} [{self.stage}{why}]"


@dataclass
class ResourceGovernor:
    """Per-run budgets plus the record of every degradation taken."""

    max_stage_seconds: Optional[float] = None
    memory_budget_mb: Optional[int] = None
    #: Rungs engaged this run, in order (also on
    #: ``PipelineResult.degradation``).
    degradations: List[str] = field(default_factory=list)
    #: Structured (rung, stage, reason) record of each engagement —
    #: parallel to ``degradations``.
    degradation_events: List[DegradationEvent] = field(default_factory=list)
    #: Stages whose wall-clock deadline fired.
    deadline_stages: List[str] = field(default_factory=list)

    @contextmanager
    def stage(self, name: str) -> Iterator[StageBudget]:
        budget = StageBudget(
            name=name,
            started=time.perf_counter(),
            max_seconds=self.max_stage_seconds,
        )
        try:
            yield budget
        finally:
            if budget.exceeded() and name not in self.deadline_stages:
                self.deadline_stages.append(name)

    # -- memory ---------------------------------------------------------------

    def reach_budget(self, configured_bytes: int) -> int:
        """The reachability byte budget: the configured analysis budget,
        tightened by the governor's overall memory budget when set."""
        if self.memory_budget_mb is None:
            return configured_bytes
        return min(configured_bytes, self.memory_budget_mb * 1024 * 1024)

    def memory_pressure(self) -> bool:
        """True when process RSS is above the governor's budget."""
        if self.memory_budget_mb is None:
            return False
        rss = process_rss_mb()
        obs.gauge("governor_rss_mb", "process RSS at the last poll (MB)").set(
            round(rss, 1)
        )
        return rss > self.memory_budget_mb

    # -- degradation ----------------------------------------------------------

    def degrade(self, rung: str, stage: str, reason: str = "") -> None:
        """Record one rung of the ladder being engaged."""
        self.degradations.append(rung)
        self.degradation_events.append(
            DegradationEvent(rung=rung, stage=stage, reason=reason)
        )
        obs.counter(
            "governor_degradations_total",
            "degradation-ladder rungs engaged under resource pressure",
        ).labels(rung=rung, stage=stage).inc()

    def summary(self) -> Dict[str, object]:
        return {
            "max_stage_seconds": self.max_stage_seconds,
            "memory_budget_mb": self.memory_budget_mb,
            "degradations": list(self.degradations),
            "degradation_events": [
                {"rung": e.rung, "stage": e.stage, "reason": e.reason}
                for e in self.degradation_events
            ],
            "deadline_stages": list(self.deadline_stages),
        }


# -- multi-tenant fleet budgets ----------------------------------------------

#: The detection service's overload ladder: every tenant ingests at one
#: of these levels.  Under pressure the service walks right (degrade),
#: with hysteresis on the way back left (recover).  Composition of the
#: PR-5 governor (budgets, observability) with PR-9 sampling (the
#: ``sampled`` rung's mechanism).
OVERLOAD_LADDER = ("full", "sampled", "paused")

#: RSS fraction of the fleet budget where ingestion degrades to sampled.
OVERLOAD_SOFT_FRACTION = 0.75
#: RSS fraction where ingestion pauses (credits stop) until RSS drains.
OVERLOAD_HARD_FRACTION = 0.92
#: Hysteresis: recover one rung only after dropping this far below the
#: rung's engage threshold, so the ladder does not flap at the boundary.
OVERLOAD_RECOVER_MARGIN = 0.08


@dataclass
class FleetBudget:
    """Aggregate budgets for a multi-tenant detection service.

    One process serves many tenant streams; the budget governs the
    *sum*: how many tenants may be admitted at all, how much process
    RSS the fleet may use before the overload ladder engages, and how
    many ingested-but-unprocessed segments may queue per tenant."""

    max_tenants: int = 16
    memory_budget_mb: Optional[int] = None
    queue_segments: int = 64

    def admit_tenant(self, active_tenants: int) -> Optional[str]:
        """None when a new tenant fits, else a refusal reason."""
        if active_tenants >= self.max_tenants:
            return (
                f"tenant budget exhausted "
                f"({active_tenants}/{self.max_tenants} active)"
            )
        if self.memory_budget_mb is not None:
            rss = process_rss_mb()
            if rss > self.memory_budget_mb * OVERLOAD_HARD_FRACTION:
                return (
                    f"memory budget exhausted "
                    f"(RSS {rss:.0f} MB of {self.memory_budget_mb} MB)"
                )
        return None

    def pressure_fraction(
        self, pending_segments: int = 0, active_tenants: int = 1
    ) -> float:
        """Fleet pressure as a fraction of budget — the max of the two
        axes: process RSS against the memory budget, and spooled-but-
        unprocessed segments against the fleet's aggregate queue
        capacity (ingest outrunning detection)."""
        fraction = 0.0
        if self.memory_budget_mb is not None and self.memory_budget_mb > 0:
            fraction = process_rss_mb() / self.memory_budget_mb
        capacity = self.queue_segments * max(1, active_tenants)
        if capacity > 0:
            fraction = max(fraction, pending_segments / capacity)
        return fraction

    def overload_level(
        self,
        current: str = "full",
        pending_segments: int = 0,
        active_tenants: int = 1,
    ) -> str:
        """The ladder rung the fleet should run at, given current
        pressure (RSS and queue depth).

        ``current`` is the rung in effect; recovery applies the
        hysteresis margin so a fleet hovering at a threshold does not
        oscillate between rungs."""
        fraction = self.pressure_fraction(pending_segments, active_tenants)
        rank = OVERLOAD_LADDER.index(current)
        if fraction >= OVERLOAD_HARD_FRACTION:
            target = 2
        elif fraction >= OVERLOAD_SOFT_FRACTION:
            target = 1
        else:
            target = 0
        if target < rank:
            # Recovering: require the margin below the rung we'd leave.
            engage = (
                OVERLOAD_HARD_FRACTION if rank == 2 else OVERLOAD_SOFT_FRACTION
            )
            if fraction > engage - OVERLOAD_RECOVER_MARGIN:
                return current
        return OVERLOAD_LADDER[target]

    def tenant_memory_share_mb(self, active_tenants: int) -> Optional[int]:
        """An even per-tenant slice of the fleet memory budget (used to
        cap each tenant's streaming-detector compaction budget)."""
        if self.memory_budget_mb is None:
            return None
        return max(16, self.memory_budget_mb // max(1, active_tenants))
