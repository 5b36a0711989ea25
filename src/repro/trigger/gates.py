"""Gate specifications and the interceptor that enforces them.

A ``GateSpec`` identifies *where* a party's request/confirm APIs would be
inserted: a static site plus the operation kinds expected there, and which
dynamic instance to gate (the paper's prototype "focuses on the first
dynamic instance of every racing instruction").

``TriggerInterceptor`` is installed on the re-run cluster; it calls the
controller's ``request`` before the gated operation executes and
``confirm`` right after it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional

from repro.ids import Site
from repro.runtime.ops import Interceptor, OpEvent, OpKind
from repro.runtime.scheduler import current_sim_thread
from repro.trigger.controller import OrderController


@dataclass
class GateSpec:
    """One instrumented program point."""

    site: Site
    kinds: Optional[FrozenSet[OpKind]] = None  # None = any kind at the site
    instance: int = 0  # which dynamic instance to gate
    note: str = ""  # which placement rule produced this gate

    def matches(self, event: OpEvent) -> bool:
        if self.kinds is not None and event.kind not in self.kinds:
            return False
        return event.site == self.site

    def describe(self) -> str:
        kinds = (
            ",".join(sorted(k.value for k in self.kinds)) if self.kinds else "any"
        )
        note = f" ({self.note})" if self.note else ""
        return f"{self.site} [{kinds}] instance={self.instance}{note}"


class _GateState:
    __slots__ = ("spec", "seen", "active_event", "done")

    def __init__(self, spec: GateSpec) -> None:
        self.spec = spec
        self.seen = 0
        self.active_event: Optional[OpEvent] = None
        self.done = False


class TriggerInterceptor(Interceptor):
    """Applies a set of party gates during a run."""

    def __init__(self, controller: OrderController, gates: Dict[str, GateSpec]):
        self.controller = controller
        self._states = {party: _GateState(spec) for party, spec in gates.items()}

    def before(self, event: OpEvent) -> None:
        # Count first, block after: a request may park this thread for a
        # long time, and every gate's instance counter must have seen
        # this event before that happens (two gates can share a site).
        to_request = []
        for party, state in self._states.items():
            if state.done or not state.spec.matches(event):
                continue
            index = state.seen
            state.seen += 1
            if index == state.spec.instance:
                # Track by identity: the seq is only assigned when the
                # operation executes (after any gate-induced wait).
                state.active_event = event
                to_request.append(party)
        for party in to_request:
            self.controller.request(party, current_sim_thread())

    def after(self, event: OpEvent) -> None:
        for party, state in self._states.items():
            if state.active_event is event and not state.done:
                state.done = True
                self.controller.confirm(party)

    def bind(self, cluster: "object") -> "TriggerInterceptor":
        cluster.add_interceptor(self)
        return self
