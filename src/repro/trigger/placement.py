"""Timing-manipulation strategy: where to put the request APIs.

Paper Section 5.2.  Gating right before the racing accesses can deadlock
the system or drown the controller in dynamic instances; DCatch analyzes
the trace to pick safer, rarer program points:

1. both accesses in event handlers of the same single-consumer queue →
   gate the corresponding *enqueue* operations;
2. both accesses in RPC handlers served by the same handler thread →
   gate the corresponding RPC *callers*;
3. both accesses inside critical sections of the same lock → gate right
   before the enclosing critical sections' acquire;
4. a racing site with many dynamic instances → walk the happens-before
   graph backward to a causally-preceding operation (in another node when
   possible) with few instances, and gate there;
5. otherwise → gate the access itself.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.detect.report import BugReport
from repro.hb.graph import HBGraph
from repro.runtime.ops import OpEvent, OpKind
from repro.trace.store import Trace
from repro.trigger.gates import GateSpec

#: Above this many dynamic instances of a site, rule 4 kicks in.
DEFAULT_INSTANCE_THRESHOLD = 8

_MEM_KINDS = frozenset({OpKind.MEM_READ, OpKind.MEM_WRITE})


@dataclass
class GatePlan:
    """Gates for the two parties plus the rules that shaped them."""

    gates: Dict[str, GateSpec]
    rules: List[str] = field(default_factory=list)

    def describe(self) -> str:
        lines = [f"  {party}: {spec.describe()}" for party, spec in self.gates.items()]
        if self.rules:
            lines.append("  rules: " + "; ".join(self.rules))
        return "\n".join(lines)


class PlacementAnalyzer:
    """Derives a ``GatePlan`` for a bug report from its trace."""

    def __init__(
        self,
        trace: Trace,
        graph: Optional[HBGraph] = None,
        instance_threshold: int = DEFAULT_INSTANCE_THRESHOLD,
        smart: bool = True,
    ) -> None:
        """``smart=False`` disables all placement rules (gates go right
        before the racing accesses) — the naive placement the paper's
        Section 7.2 reports failing for 23 of 35 true races."""
        self.trace = trace
        self.graph = graph
        self.instance_threshold = instance_threshold
        self.smart = smart
        self._site_counts: Counter = Counter(
            r.site for r in trace.records if r.site is not None
        )
        self._segment_opener: Dict[int, OpEvent] = {}
        for record in trace.records:
            self._segment_opener.setdefault(record.segment, record)
        self._event_creates: Dict[object, OpEvent] = {
            r.obj_id: r
            for r in trace.records
            if r.kind is OpKind.EVENT_CREATE
        }
        self._rpc_creates: Dict[object, OpEvent] = {
            r.obj_id: r for r in trace.records if r.kind is OpKind.RPC_CREATE
        }

    # -- public -----------------------------------------------------------

    def plan(self, report: BugReport) -> GatePlan:
        return self.plan_candidate(report.representative)

    def plan_candidate(self, candidate) -> GatePlan:
        a, b = candidate.accesses()
        rules: List[str] = []

        if not self.smart:
            return GatePlan(
                gates={
                    "A": self._gate_for(a, {a.kind}, "naive direct"),
                    "B": self._gate_for(b, {b.kind}, "naive direct"),
                },
                rules=["naive placement (no analysis)"],
            )

        pair_gates = self._same_queue_rule(a, b, rules)
        if pair_gates is None:
            pair_gates = self._same_rpc_thread_rule(a, b, rules)
        if pair_gates is None:
            pair_gates = self._same_lock_rule(a, b, rules)
        if pair_gates is not None:
            return GatePlan(gates={"A": pair_gates[0], "B": pair_gates[1]}, rules=rules)

        gates = {
            "A": self._per_access_gate(a, rules, "A"),
            "B": self._per_access_gate(b, rules, "B"),
        }
        return GatePlan(gates=gates, rules=rules)

    def plan_variants(self, candidate) -> List[GatePlan]:
        """Placement plans in preference order.

        The primary plan gates as close to the accesses as the pair
        rules allow.  If holding a gate inside an RPC handler starves
        the other party (the primary plan then fails to enforce an
        order), the fallback variant moves such gates to the RPC callers
        — the paper's "move request from inside RPC handlers into RPC
        callers" manoeuvre (Section 7.2).
        """
        primary = self.plan_candidate(candidate)
        plans = [primary]
        if not self.smart:
            return plans

        # Variant: gate the *first* dynamic instances instead of the
        # monitored run's indices.  Gating itself perturbs the schedule,
        # so the k-th instance of the monitored run may not be the k-th
        # instance of the replay; the first instance is stable (the
        # paper's prototype gates first instances for the same reason).
        first = self._first_instance_variant(primary)
        if first is not None:
            plans.append(first)

        rules: List[str] = []
        moved = {}
        any_moved = False
        for party, access in zip(("A", "B"), candidate.accesses()):
            gate = self._rpc_caller_gate(access, rules, party)
            if gate is not None:
                moved[party] = gate
                any_moved = True
            else:
                moved[party] = self._per_access_gate(access, rules, party)
        if any_moved:
            plans.append(GatePlan(gates=moved, rules=rules))
        return plans

    def _first_instance_variant(self, plan: GatePlan) -> Optional[GatePlan]:
        if all(spec.instance == 0 for spec in plan.gates.values()):
            return None
        gates = {}
        seen_specs = []
        for party, spec in sorted(plan.gates.items()):
            instance = 0
            for other in seen_specs:
                if other == (spec.site, spec.kinds):
                    instance += 1  # same-site gates disambiguate by arrival
            seen_specs.append((spec.site, spec.kinds))
            gates[party] = GateSpec(
                site=spec.site,
                kinds=spec.kinds,
                instance=instance,
                note=spec.note + " (first instance)",
            )
        return GatePlan(
            gates=gates,
            rules=plan.rules + ["variant: first dynamic instances"],
        )

    def _rpc_caller_gate(
        self, access: OpEvent, rules: List[str], party: str
    ) -> Optional[GateSpec]:
        opener = self._segment_opener.get(access.segment)
        if opener is None or opener.kind is not OpKind.RPC_BEGIN:
            return None
        create = self._rpc_creates.get(opener.obj_id)
        if create is None:
            return None
        rules.append(
            f"{party}: moved out of RPC handler "
            f"{opener.extra.get('method', '?')} to its caller"
        )
        return self._gate_for(create, {OpKind.RPC_CREATE}, "rule-2 rpc caller")

    # -- rule 1: single-consumer event queue ---------------------------------

    def _same_queue_rule(
        self, a: OpEvent, b: OpEvent, rules: List[str]
    ) -> Optional[Tuple[GateSpec, GateSpec]]:
        opener_a = self._segment_opener.get(a.segment)
        opener_b = self._segment_opener.get(b.segment)
        if (
            opener_a is None
            or opener_b is None
            or opener_a.kind is not OpKind.EVENT_BEGIN
            or opener_b.kind is not OpKind.EVENT_BEGIN
        ):
            return None
        if not (
            opener_a.extra.get("single_consumer")
            and opener_b.extra.get("single_consumer")
            and opener_a.extra.get("queue") == opener_b.extra.get("queue")
        ):
            return None
        create_a = self._event_creates.get(opener_a.obj_id)
        create_b = self._event_creates.get(opener_b.obj_id)
        if create_a is None or create_b is None:
            return None
        rules.append(
            "same single-consumer queue: gating the enqueue operations"
        )
        return (
            self._gate_for(create_a, {OpKind.EVENT_CREATE}, "rule-1 enqueue"),
            self._gate_for(create_b, {OpKind.EVENT_CREATE}, "rule-1 enqueue"),
        )

    # -- rule 2: same RPC handler thread ---------------------------------------

    def _same_rpc_thread_rule(
        self, a: OpEvent, b: OpEvent, rules: List[str]
    ) -> Optional[Tuple[GateSpec, GateSpec]]:
        opener_a = self._segment_opener.get(a.segment)
        opener_b = self._segment_opener.get(b.segment)
        if (
            opener_a is None
            or opener_b is None
            or opener_a.kind is not OpKind.RPC_BEGIN
            or opener_b.kind is not OpKind.RPC_BEGIN
        ):
            return None
        if opener_a.obj_id == opener_b.obj_id:
            return None  # same call, not two conflicting handlers
        if (
            opener_a.extra.get("handler_thread")
            != opener_b.extra.get("handler_thread")
        ):
            return None
        if opener_a.extra.get("handler_threads", 1) > 1:
            # A multi-threaded server can interleave the two handlers
            # even though this run served both on one thread; holding
            # inside the handlers is safe there, and gating the callers
            # would serialize away the very interleaving under test.
            return None
        create_a = self._rpc_creates.get(opener_a.obj_id)
        create_b = self._rpc_creates.get(opener_b.obj_id)
        if create_a is None or create_b is None:
            return None
        rules.append("same RPC handler thread: gating the RPC callers")
        return (
            self._gate_for(create_a, {OpKind.RPC_CREATE}, "rule-2 rpc caller"),
            self._gate_for(create_b, {OpKind.RPC_CREATE}, "rule-2 rpc caller"),
        )

    # -- rule 3: same lock -------------------------------------------------------

    def _same_lock_rule(
        self, a: OpEvent, b: OpEvent, rules: List[str]
    ) -> Optional[Tuple[GateSpec, GateSpec]]:
        locks_a = self._enclosing_lock_acquires(a)
        locks_b = self._enclosing_lock_acquires(b)
        shared = set(locks_a) & set(locks_b)
        if not shared:
            return None
        lock_id = sorted(shared, key=str)[0]
        rules.append(
            f"same lock {lock_id}: gating before the critical sections"
        )
        return (
            self._gate_for(
                locks_a[lock_id], {OpKind.LOCK_ACQUIRE}, "rule-3 critical section"
            ),
            self._gate_for(
                locks_b[lock_id], {OpKind.LOCK_ACQUIRE}, "rule-3 critical section"
            ),
        )

    def _enclosing_lock_acquires(self, access: OpEvent) -> Dict[object, OpEvent]:
        """Locks held at the access, mapped to their acquire records."""
        held: Dict[object, List[OpEvent]] = defaultdict(list)
        for record in self.trace.records:
            if record.tid != access.tid:
                continue
            if record.seq >= access.seq:
                break
            if record.kind is OpKind.LOCK_ACQUIRE:
                held[record.obj_id].append(record)
            elif record.kind is OpKind.LOCK_RELEASE and held[record.obj_id]:
                held[record.obj_id].pop()
        return {lock: acquires[-1] for lock, acquires in held.items() if acquires}

    # -- rule 4 / default: per-access gates ----------------------------------------

    def _per_access_gate(
        self, access: OpEvent, rules: List[str], party: str
    ) -> GateSpec:
        count = self._site_counts.get(access.site, 1)
        if self.smart and count > self.instance_threshold and self.graph is not None:
            moved = self._move_up_hb(access)
            if moved is not None:
                rules.append(
                    f"{party}: {count} dynamic instances at {access.site}; "
                    f"moved gate along HB graph to {moved.site}"
                )
                return self._gate_for(moved, None, "rule-4 hb hop")
        # Gate by the access's own kind: a read and a write on the same
        # source line are distinct instructions (like getfield/putfield
        # in the paper's bytecode), so e.g. a lost-update race can hold
        # the first write until the second read has confirmed.
        return self._gate_for(access, {access.kind}, "direct")

    def _move_up_hb(self, access: OpEvent) -> Optional[OpEvent]:
        """Walk HB predecessors for a rarer, causally-preceding op."""
        start = self.graph._prev_backbone(access)
        if start is None:
            return None
        preds: Dict[int, List[int]] = defaultdict(list)
        for i, succs in enumerate(self.graph._succ):
            for j in succs:
                preds[j].append(i)
        frontier = [start]
        visited = {start}
        best: Optional[OpEvent] = None
        while frontier:
            nxt = []
            for idx in frontier:
                record = self.graph.backbone[idx]
                if (
                    record.site is not None
                    and self._site_counts.get(record.site, 0)
                    <= self.instance_threshold
                ):
                    if record.node != access.node:
                        return record  # prefer a different node, stop early
                    if best is None:
                        best = record
                for p in preds.get(idx, []):
                    if p not in visited:
                        visited.add(p)
                        nxt.append(p)
            frontier = nxt
        return best

    def _gate_for(
        self, record: OpEvent, kinds: Optional[Set[OpKind]], note: str
    ) -> GateSpec:
        spec = GateSpec(
            site=record.site,
            kinds=frozenset(kinds) if kinds else None,
            instance=0,
            note=note,
        )
        # Which dynamic instance was this record, by the gate's own
        # matcher?  (The replay counts the same way.)
        index = 0
        for other in self.trace.records:
            if other.seq >= record.seq:
                break
            if spec.matches(other):
                index += 1
        spec.instance = index
        return spec
