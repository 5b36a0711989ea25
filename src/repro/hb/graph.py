"""The happens-before graph and its reachability engine.

Paper Section 3.2: every trace record is a vertex; edges realize the MTEP
rules; two memory accesses are concurrent iff neither reaches the other.

Two structural choices make this scale (both from the paper):

* **Bit-set reachability** (Raychev et al., adopted in Section 3.2.2):
  reachable sets are computed once in reverse topological order and HB
  queries become constant-time bit tests.  Because the scheduler
  serializes execution, every HB edge points forward in sequence order,
  so sequence order *is* a topological order.

* **Segment-position compression**: memory accesses never get their own
  bit-set.  Within one segment (a regular thread's lifetime, or one
  handler invocation) records are totally ordered by Rule-Preg/Pnreg, so
  a memory access is located by (segment, position) and cross-segment
  reachability is delegated to the nearest *backbone* vertices (HB-related
  operations, plus endpoints of Rule-Mpull edges).  This keeps the bit
  matrix at backbone size — the same reason the paper separates HB-related
  operations from the bulk of memory accesses.

The memory budget check reproduces Table 8: unselective traces make the
reachability matrix exceed the budget, and the analysis refuses to run.
"""

from __future__ import annotations

import bisect
import sys
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.errors import TraceAnalysisOOM
from repro.hb.model import FULL_MODEL, HBModel
from repro.hb.pull import PullEdge, infer_pull_edges
from repro.runtime.ops import HB_KINDS, OpEvent, OpKind
from repro.trace.store import Trace

#: Default trace-analysis memory budget (bytes) for the reachability
#: matrix; the analogue of the paper's 50 GB JVM heap, scaled to the
#: simulator.  Override per-call for the Table 8 experiment.
DEFAULT_MEMORY_BUDGET = 512 * 1024 * 1024


class HBGraph:
    """Happens-before graph over one trace."""

    def __init__(
        self,
        trace: Trace,
        model: HBModel = FULL_MODEL,
        memory_budget: int = DEFAULT_MEMORY_BUDGET,
        compress_mem: bool = True,
        extra_backbone: Optional[Set[int]] = None,
    ) -> None:
        """``compress_mem=False`` runs the paper's original algorithm —
        a reachability bit set for *every* vertex including memory
        accesses — which is what runs out of memory on unselective
        traces (Table 8).  The default compresses memory accesses to
        segment positions.

        ``extra_backbone`` promotes additional record seqs onto the
        backbone so edges can attach to them (used by the
        sync-preserving backend to thread lock acquire/release records,
        which are not HB operations, into the order)."""
        self.trace = trace
        self.model = model
        self.memory_budget = memory_budget
        self.edge_counts: Dict[str, int] = defaultdict(int)
        #: Unmatched HB endpoints, counted per pattern (e.g. a
        #: ``thread_end_without_join``).  Many patterns are normal — an
        #: untraced node's messages arrive with no recorded send, a
        #: timed-out RPC has no Join — but *damage patterns* (an effect
        #: recorded without its cause on a traced stream) indicate the
        #: trace lost records, and mark the graph ``partial``.
        self.unmatched: Counter = Counter()
        self._damage_patterns: Set[str] = set()

        with obs.span("hb.build", records=len(trace)):
            # -- segment structure ---------------------------------------------
            self._segments: Dict[int, List[OpEvent]] = defaultdict(list)
            #: seq -> position in its segment (``record.segment``).
            self._position: Dict[int, int] = {}
            for record in trace.records:
                seg = self._segments[record.segment]
                self._position[record.seq] = len(seg)
                seg.append(record)

            # -- Rule-Mpull evidence (endpoints must become backbone) ----------
            with obs.span("hb.pull_inference"):
                self.pull_edges: List[PullEdge] = (
                    infer_pull_edges(trace) if model.pull else []
                )
            pull_endpoints: Set[int] = set()
            for edge in self.pull_edges:
                pull_endpoints.add(edge.write_seq)
                pull_endpoints.add(edge.read_seq)

            # -- backbone selection --------------------------------------------
            promoted = extra_backbone or frozenset()
            if compress_mem:
                self.backbone: List[OpEvent] = [
                    r
                    for r in trace.records
                    if r.kind in HB_KINDS
                    or r.seq in pull_endpoints
                    or r.seq in promoted
                ]
            else:
                self.backbone = list(trace.records)
            self._bidx: Dict[int, int] = {
                r.seq: i for i, r in enumerate(self.backbone)
            }
            #: ``_succ[i][j]`` is the rule that added backbone edge i -> j.
            self._succ: List[Dict[int, str]] = [{} for _ in self.backbone]
            #: Per-backbone-vertex reachable sets as big-int bit vectors,
            #: built on first query (``_ensure_reach``).  Row i starts
            #: after its own vertex: bit k is backbone vertex i + 1 + k.
            self._reach: Optional[List[int]] = None

            # Per-segment backbone positions, for nearest-backbone lookups.
            self._seg_backbone_pos: Dict[int, List[int]] = defaultdict(list)
            self._seg_backbone_idx: Dict[int, List[int]] = defaultdict(list)
            for record in self.backbone:
                segment = record.segment
                self._seg_backbone_pos[segment].append(self._position[record.seq])
                self._seg_backbone_idx[segment].append(self._bidx[record.seq])

            with obs.span("hb.edges"):
                self._build_edges()
                self._scan_lock_balance()
        self._publish_build_metrics()
        self._warn_if_partial()

    # -- construction -----------------------------------------------------------

    def note_unmatched(self, pattern: str, record: OpEvent, damage: bool = False) -> None:
        """Count an HB endpoint whose counterpart is missing.

        ``damage=True`` marks patterns that cannot occur in a complete
        trace (effect without cause on a traced stream): they flip the
        graph to ``partial`` and downgrade downstream confidence."""
        self.unmatched[pattern] += 1
        if damage:
            self._damage_patterns.add(pattern)

    @property
    def partial(self) -> bool:
        """True when this graph was built from a demonstrably incomplete
        trace — either salvage reported lost records, or the rule modules
        found damage-indicating unmatched endpoints."""
        return bool(self._damage_patterns) or bool(
            getattr(self.trace, "partial", False)
        )

    @property
    def damage_patterns(self) -> Set[str]:
        return set(self._damage_patterns)

    def _scan_lock_balance(self) -> None:
        """Orphan lock endpoints.  A release without a prior acquire on
        the same thread can only come from a lost acquire record (locks
        exist only inside simulated threads); an acquire never released
        is normal (the holder crashed or the run ended)."""
        held: Dict[Tuple, int] = defaultdict(int)
        for record in self.trace.records:
            if record.kind is OpKind.LOCK_ACQUIRE:
                held[(record.obj_id, record.tid)] += 1
            elif record.kind is OpKind.LOCK_RELEASE:
                key = (record.obj_id, record.tid)
                if held[key] > 0:
                    held[key] -= 1
                else:
                    self.note_unmatched(
                        "lock_release_without_acquire", record, damage=True
                    )
        for (obj_id, tid), depth in held.items():
            if depth > 0:
                self.unmatched["lock_acquire_without_release"] += depth

    def _warn_if_partial(self) -> None:
        if not self._damage_patterns and not getattr(self.trace, "partial", False):
            return
        reasons = sorted(self._damage_patterns) or ["salvaged trace lost records"]
        print(
            f"warning: HB graph built from a partial trace "
            f"({', '.join(reasons)}); downstream candidates are "
            f'marked confidence="partial"',
            file=sys.stderr,
        )

    def _publish_build_metrics(self) -> None:
        registry = obs.get_registry()
        if not registry.enabled:
            return
        registry.counter("hb_graphs_built_total", "HB graphs constructed").inc()
        registry.gauge("hb_vertices", "trace records in the last graph").set(
            len(self.trace)
        )
        registry.gauge(
            "hb_backbone_vertices", "backbone size of the last graph"
        ).set(len(self.backbone))
        registry.gauge("hb_segments", "segments in the last graph").set(
            len(self._segments)
        )
        edges = registry.counter("hb_edges_total", "HB edges added, by rule")
        for rule, count in self.edge_counts.items():
            edges.labels(rule=rule).inc(count)
        if self.unmatched:
            orphans = registry.counter(
                "hb_unmatched_edges_total",
                "HB endpoints with no counterpart, by pattern",
            )
            for pattern, count in self.unmatched.items():
                orphans.labels(pattern=pattern).inc(count)

    def add_edge(self, seq_from: int, seq_to: int, rule: str) -> bool:
        """Add a backbone edge; both endpoints must be backbone records."""
        if seq_from >= seq_to:
            # Every HB edge must point forward in the executed order
            # (sequence order is the graph's topological order).  A
            # backward edge means a tracing-protocol bug — fail loudly
            # instead of silently corrupting reachability.
            from repro.errors import ReproError

            raise ReproError(
                f"backward HB edge {rule}: {seq_from} -> {seq_to}"
            )
        i = self._bidx.get(seq_from)
        j = self._bidx.get(seq_to)
        if i is None or j is None or i == j:
            return False
        if j in self._succ[i]:
            return False
        self._succ[i][j] = rule
        self.edge_counts[rule] += 1
        self._reach = None
        return True

    def _build_edges(self) -> None:
        from repro.hb.rules import event as event_rules
        from repro.hb.rules import message as message_rules
        from repro.hb.rules import program as program_rules
        from repro.hb.rules import thread as thread_rules

        if self.model.program_order:
            program_rules.apply_program_order(self)
        if self.model.fork_join:
            thread_rules.apply_fork_join(self)
        if self.model.event:
            event_rules.apply_enqueue(self)
        if self.model.rpc:
            message_rules.apply_rpc(self)
        if self.model.socket:
            message_rules.apply_socket(self)
        if self.model.push:
            message_rules.apply_push(self)
        for edge in self.pull_edges:
            self.add_edge(edge.write_seq, edge.read_seq, f"Mpull:{edge.kind}")
        if self.model.eserial:
            event_rules.apply_serial_fixpoint(self)

    # -- reachability -------------------------------------------------------------

    def _reach_bytes(self) -> int:
        n = len(self.backbone)
        return n * (n - 1) // 16

    def _ensure_reach(self) -> List[int]:
        """Section 3.2.2's design: one reachable-set bit vector per
        backbone vertex, computed in reverse topological order (sequence
        order, since every edge points forward).  A query is one bit
        test.  Because every edge points forward, row i holds only the
        vertices after i, so memory is n(n-1)/16 bytes — what Table 8's
        unselective traces blow up, so the budget is checked before
        anything is allocated."""
        if self._reach is None:
            n = len(self.backbone)
            with obs.span("hb.reach", backbone=n):
                required = self._reach_bytes()
                if required > self.memory_budget:
                    raise TraceAnalysisOOM(
                        f"bitset reachability needs "
                        f"~{required // (1024 * 1024)} MB "
                        f"({n} backbone vertices), budget is "
                        f"{self.memory_budget // (1024 * 1024)} MB",
                        required_bytes=required,
                        budget_bytes=self.memory_budget,
                    )
                reach = [0] * n
                succ = self._succ
                for i in range(n - 1, -1, -1):
                    acc = 0
                    for j in succ[i]:
                        # Vertex j is bit j-i-1 of row i, and row j's
                        # bit k (vertex j+1+k) is bit j-i+k.
                        acc |= (reach[j] << (j - i)) | (1 << (j - i - 1))
                    reach[i] = acc
                self._reach = reach
                obs.gauge(
                    "hb_reach_matrix_bytes",
                    "reachability structure size (bytes)",
                ).set(required)
        return self._reach

    def reach_stats(self) -> Dict[str, int]:
        """Size statistics of the (built-on-demand) reachability matrix."""
        self._ensure_reach()
        return {"bytes": self._reach_bytes(), "vertices": len(self.backbone)}

    def backbone_reaches(self, i: int, j: int) -> bool:
        """Strict reachability between backbone indices."""
        if j <= i:
            return False
        return bool((self._ensure_reach()[i] >> (j - i - 1)) & 1)

    # -- nearest-backbone lookups ----------------------------------------------

    def _next_backbone(self, record: OpEvent) -> Optional[int]:
        """Backbone index of ``record`` itself or the next one after it
        in its segment."""
        if record.seq in self._bidx:
            return self._bidx[record.seq]
        segment = record.segment
        positions = self._seg_backbone_pos[segment]
        k = bisect.bisect_left(positions, self._position[record.seq])
        if k >= len(positions):
            return None
        return self._seg_backbone_idx[segment][k]

    def _prev_backbone(self, record: OpEvent) -> Optional[int]:
        if record.seq in self._bidx:
            return self._bidx[record.seq]
        segment = record.segment
        positions = self._seg_backbone_pos[segment]
        k = bisect.bisect_right(positions, self._position[record.seq]) - 1
        if k < 0:
            return None
        return self._seg_backbone_idx[segment][k]

    # -- public queries ------------------------------------------------------------

    def happens_before(self, a: OpEvent, b: OpEvent) -> bool:
        """Does ``a`` happen before ``b`` under the model's rules?"""
        if a.seq == b.seq:
            return False
        if a.segment == b.segment:
            return self.model.program_order and (
                self._position[a.seq] < self._position[b.seq]
            )
        na = self._next_backbone(a)
        pb = self._prev_backbone(b)
        if na is None or pb is None:
            return False
        if na == pb:
            # One backbone vertex lies between them (a <= v <= b): this can
            # only happen when a or b *is* that vertex in another segment,
            # which segment disjointness excludes — defensive anyway.
            return True
        return self.backbone_reaches(na, pb)

    def concurrent(self, a: OpEvent, b: OpEvent) -> bool:
        return not self.happens_before(a, b) and not self.happens_before(b, a)

    def ordered(self, a: OpEvent, b: OpEvent) -> bool:
        return not self.concurrent(a, b)

    # -- statistics -------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "vertices": len(self.trace),
            "backbone": len(self.backbone),
            "edges": sum(len(s) for s in self._succ),
            "segments": len(self._segments),
            "pull_edges": len(self.pull_edges),
            "unmatched": sum(self.unmatched.values()),
        }
