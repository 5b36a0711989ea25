"""The message-controller server (paper Section 5.1).

Two parties ("A" and "B" — the two sides of a DCbug report) send
*request* messages before their gated operation and *confirm* messages
right after it.  The controller waits for both requests, grants the
desired first party, waits for its confirm, then grants the second —
thereby enforcing one of the two orders of the racing pair.

A bad gate placement (the Section 6 risks) cannot wedge the run: if the
whole simulation goes idle while a party is held (the other party can
never arrive, e.g. it is blocked behind the held one), the scheduler's
idle hook releases the held parties.  A system that stays *busy* while
a party is held runs into the scheduler's step budget instead, with the
party still held.  Either way the order was not enforced, and the
explorer records ``enforced=False`` instead of deadlocking or hanging.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Set, Tuple

from repro import obs
from repro.runtime.scheduler import SimThread


class OrderController:
    """Enforces ``order[0]`` before ``order[1]`` across one run."""

    def __init__(self, order: Tuple[str, str]) -> None:
        if len(order) != 2 or order[0] == order[1]:
            raise ValueError("order must name two distinct parties")
        self.order = order
        self.arrived: Dict[str, str] = {}
        self.granted: Set[str] = set()
        self.confirmed: List[str] = []
        self.released_by_idle: Set[str] = set()
        self.log: List[str] = []

    # -- client-side APIs (called by the gate interceptor) -------------------

    def request(self, party: str, thread: SimThread) -> None:
        """Block ``thread`` until the controller grants ``party``."""
        self.arrived[party] = thread.name
        self.log.append(f"request {party} from {thread.name}")
        self._maybe_grant()
        thread.block_until(lambda: party in self.granted, f"gate:{party}")
        self.log.append(f"resume {party}")

    def confirm(self, party: str) -> None:
        if party in self.granted and party not in self.confirmed:
            self.confirmed.append(party)
            self.log.append(f"confirm {party}")
            self._maybe_grant()

    # -- controller logic -----------------------------------------------------

    def _maybe_grant(self) -> None:
        first, second = self.order
        if (
            first in self.arrived
            and second in self.arrived
            and first not in self.granted
        ):
            self.granted.add(first)
            self.log.append(f"grant {first}")
        if (
            first in self.confirmed
            and second in self.arrived
            and second not in self.granted
        ):
            self.granted.add(second)
            self.log.append(f"grant {second}")

    def on_idle(self) -> None:
        """Scheduler idle hook: release held parties to avoid stalls."""
        released = [p for p in self.arrived if p not in self.granted]
        for party in released:
            self.granted.add(party)
            self.released_by_idle.add(party)
            self.log.append(f"idle-release {party}")
        if released:
            obs.counter(
                "trigger_idle_releases_total",
                "gated parties released by the scheduler idle hook",
            ).inc(len(released))
            print(
                f"warning: trigger idle-released {', '.join(sorted(released))}: "
                f"order {self.order[0]}->{self.order[1]} not enforced",
                file=sys.stderr,
            )

    # -- outcome ---------------------------------------------------------------

    @property
    def enforced(self) -> bool:
        """Did the desired order actually happen, under control?"""
        return self.confirmed == list(self.order) and not self.released_by_idle

    @property
    def co_occurred(self) -> bool:
        """Did both parties reach their gates in this run at all?"""
        return len(self.arrived) == 2
