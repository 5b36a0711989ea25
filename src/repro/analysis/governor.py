"""Resource bounds for the analysis pipeline and the detection service.

A ``dcatch run`` is bounded by two knobs an operator can reason about:

* **one deadline** — ``max_stage_seconds``: each stage (trace, analysis,
  trigger) gets a ``StageBudget``; detection polls it once per access of
  a write-bearing location, triggering once per report, and an
  overrunning stage stops early with what it has and is marked
  *degraded* rather than wedging the process
  (``governor_deadline_exceeded_total{stage=}``);
* **one memory budget** — ``memory_budget_mb``: the reachability
  closure's byte budget in batch and sync-preserving mode (a closure
  that does not fit is the paper's Table 8 "Out of Memory":
  ``TraceAnalysisOOM``, reported, not raised), and the RSS level that
  forces an extra frontier compaction in streaming mode.

The long-running service bounds the *sum* over its tenants with
``FleetBudget`` and the overload ladder below.  Shedding accesses under
pressure ("Dynamic Race Detection with O(1) Samples", PAPERS.md) is
``repro.trace.sampling``'s job, not this module's.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

from repro import obs

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
