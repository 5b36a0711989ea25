"""Per-tenant circuit breaker for damaged segment uploads.

A tenant whose tracer (or network path) keeps producing torn or
CRC-damaged segments should not get to spend server CPU on every retry.
Each bad segment trips the breaker one notch; at ``MAX_BAD_SEGMENTS``
the tenant is **quarantined**: further requests get a terminal
``quarantined`` error and the offending bytes are preserved under the
tenant's ``quarantine/`` directory as evidence for the operator (the
same philosophy as salvage: never silently discard, always leave an
audit trail).

A valid segment closes the window on transient flakiness by resetting
the consecutive-failure count — the breaker trips on *streaks*, not
lifetime totals, so one glitchy retransmit does not doom a tenant.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

from repro import obs

__all__ = ["CircuitBreaker", "MAX_BAD_SEGMENTS"]

MAX_BAD_SEGMENTS = 3


@dataclass
class CircuitBreaker:
    """Trips to ``quarantined`` after a streak of bad segments."""

    tenant: str
    quarantine_dir: str
    bad_streak: int = 0
    bad_total: int = 0
    quarantined: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_good(self) -> None:
        with self._lock:
            self.bad_streak = 0

    def record_bad(self, name: str, data: bytes, reason: str) -> bool:
        """Count one damaged segment, preserving its bytes as evidence.
        Returns True when this trip quarantined the tenant."""
        with self._lock:
            self.bad_streak += 1
            self.bad_total += 1
            tripped = (
                not self.quarantined
                and self.bad_streak >= MAX_BAD_SEGMENTS
            )
            if tripped:
                self.quarantined = True
        os.makedirs(self.quarantine_dir, exist_ok=True)
        evidence = os.path.join(
            self.quarantine_dir, f"{self.bad_total:04d}-{name}"
        )
        with open(evidence, "wb") as fh:
            fh.write(data)
        with open(evidence + ".reason", "w") as fh:
            fh.write(reason + "\n")
        obs.counter(
            "service_bad_segments_total",
            "damaged segment uploads rejected at ingest",
        ).labels(tenant=self.tenant).inc()
        if tripped:
            obs.counter(
                "service_quarantines_total",
                "tenants quarantined by the circuit breaker",
            ).labels(tenant=self.tenant).inc()
        return tripped
