"""The message-controller server (paper Section 5.1).

Two parties ("A" and "B" — the two sides of a DCbug report) send
*request* messages before their gated operation and *confirm* messages
right after it.  The controller waits for both requests, grants the
desired first party, waits for its confirm, then grants the second —
thereby enforcing one of the two orders of the racing pair.

A bad gate placement (the Section 6 risks) cannot stall the run: a
party is held at most ``HOLD_STEPS`` scheduler steps waiting for its
partner.  From the first party's arrival until its partner's, the run's
step budget is ``min(budget, arrival step + HOLD_STEPS)``; the partner's
arrival restores the budget.  A run whose partner never comes (e.g. it
is blocked behind the held party) ends in the scheduler's own deadlock
when nothing else can run, or in a hang at the shortened budget when
the rest of the system stays busy.  Either way the order was not
enforced, and the explorer records ``enforced=False``.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.runtime.scheduler import SimThread

#: Scheduler steps a party waits for its partner before the run ends.
#: In every enforced trigger run on the nine workloads the second party
#: arrived at most 143 steps after the first; this is about 7x that.
HOLD_STEPS = 1_000


class OrderController:
    """Enforces ``order[0]`` before ``order[1]`` across one run."""

    def __init__(self, order: Tuple[str, str]) -> None:
        if len(order) != 2 or order[0] == order[1]:
            raise ValueError("order must name two distinct parties")
        self.order = order
        self.arrived: Dict[str, str] = {}
        self.granted: Set[str] = set()
        self.confirmed: List[str] = []
        self.log: List[str] = []
        self._budget = 0  # the run's step budget, saved during the hold

    # -- client-side APIs (called by the gate interceptor) -------------------

    def request(self, party: str, thread: SimThread) -> None:
        """Block ``thread`` until the controller grants ``party``."""
        self.arrived[party] = thread.name
        self.log.append(f"request {party} from {thread.name}")
        scheduler = thread.scheduler
        if len(self.arrived) == 1:  # hold: the partner has HOLD_STEPS
            self._budget = scheduler.max_steps
            scheduler.max_steps = min(self._budget, scheduler.steps + HOLD_STEPS)
        else:
            scheduler.max_steps = self._budget
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

    # -- outcome ---------------------------------------------------------------

    @property
    def enforced(self) -> bool:
        """Did the desired order actually happen, under control?"""
        return self.confirmed == list(self.order)

    @property
    def co_occurred(self) -> bool:
        """Did both parties reach their gates in this run at all?"""
        return len(self.arrived) == 2
