"""Process probes for the analysis pipeline and the service.

* ``process_rss_mb`` — the current resident set size, sampled by the
  streaming pass once per window (``rss_high_water_mb``) and read by
  the server's tenant admission;
* ``maybe_stall`` — a test hook that sleeps at a named point.

A ``dcatch run`` is bounded by deterministic budgets, not by a clock:
the workload's step budgets bound the monitored run and each trigger
re-run, and ``memory_budget_mb`` bounds each reachability closure (an
HB closure that does not fit is the paper's Table 8 "Out of Memory").
The detection service's fleet policy (admission control and credit
backpressure) lives in ``repro.service.server``.
"""

from __future__ import annotations

import os
import time

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
    point (the server's ``service_pump``) so service tests get a
    deterministic window.
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
