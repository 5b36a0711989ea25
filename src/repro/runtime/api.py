"""Convenience API used from inside simulated threads."""

from __future__ import annotations

from repro.runtime.scheduler import current_sim_thread


def sleep(ticks: int) -> None:
    """Sleep for ``ticks`` logical clock units (discrete-event semantics)."""
    thread = current_sim_thread()
    thread.sleep_until(thread.scheduler.clock + max(1, int(ticks)))
