"""Resource bounds for the analysis pipeline.

A ``dcatch run`` is bounded by two knobs an operator can reason about:

* **one deadline** — ``max_stage_seconds``: each stage (trace, analysis,
  trigger) gets a ``StageBudget``; detection polls it once per access of
  a write-bearing location, triggering once per report, and an
  overrunning stage stops early with what it has and is marked
  *degraded* rather than wedging the process
  (``governor_deadline_exceeded_total{stage=}``);
* **one memory budget** — ``memory_budget_mb``: each reachability
  closure's byte budget in batch mode (an HB closure that does not fit
  is the paper's Table 8 "Out of Memory": ``TraceAnalysisOOM``,
  reported, not raised; an SP one only skips the sound tier).
  Streaming mode builds no closure, so the budget does not apply to it.

The detection service's fleet policy (admission control and the
``full ↔ sampled`` overload ladder) lives in ``repro.service.server``.
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
