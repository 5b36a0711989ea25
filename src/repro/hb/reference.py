"""Reference reachability engines for differential testing.

The production engine (``HBGraph``'s bit-sets, paper Section 3.2.2) is
checked against two independent implementations:

* ``NaiveReachability`` — memoized DFS over the backbone graph; the
  obviously-correct baseline.
* ``VectorClockEngine`` — classic vector clocks with one component per
  segment.  This is the design the paper *rejects* for performance
  ("each vector time-stamp will have a huge number of dimensions, with
  each event handler and RPC function contributing one dimension"); we
  keep it both to validate the bit-set engine and to measure the cost gap
  (ablation bench).  Note the vector-clock encoding is only exact when
  program-order edges are enabled, since it relies on per-segment chains.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hb.graph import HBGraph
from repro.runtime.ops import OpEvent


class NaiveReachability:
    """Memoized DFS over an ``HBGraph``'s backbone."""

    def __init__(self, graph: HBGraph) -> None:
        self.graph = graph
        self._memo: Dict[int, frozenset] = {}

    def _reachable_from(self, i: int) -> frozenset:
        cached = self._memo.get(i)
        if cached is not None:
            return cached
        # Iterative post-order DFS: program-order chains routinely exceed
        # Python's recursion limit (a few thousand backbone vertices in
        # one segment), so an explicit stack is required.
        succ = self.graph._succ
        stack = [(i, iter(succ[i]))]
        on_stack = {i}
        while stack:
            node, it = stack[-1]
            pushed = False
            for j in it:
                if j in self._memo or j in on_stack:
                    continue
                stack.append((j, iter(succ[j])))
                on_stack.add(j)
                pushed = True
                break
            if pushed:
                continue
            stack.pop()
            on_stack.discard(node)
            result = set()
            for j in succ[node]:
                result.add(j)
                result |= self._memo[j]
            self._memo[node] = frozenset(result)
        return self._memo[i]

    def backbone_reaches(self, i: int, j: int) -> bool:
        return j in self._reachable_from(i)

    def happens_before(self, a: OpEvent, b: OpEvent) -> bool:
        """Same query as ``HBGraph.happens_before`` but via DFS."""
        if a.seq == b.seq:
            return False
        if a.segment == b.segment:
            position = self.graph._position
            return self.graph.model.program_order and (
                position[a.seq] < position[b.seq]
            )
        na = self.graph._next_backbone(a)
        pb = self.graph._prev_backbone(b)
        if na is None or pb is None:
            return False
        if na == pb:
            return True
        return self.backbone_reaches(na, pb)

    def concurrent(self, a: OpEvent, b: OpEvent) -> bool:
        return not self.happens_before(a, b) and not self.happens_before(b, a)


class VectorClockEngine:
    """Vector clocks over backbone vertices, one component per segment.

    The encoding assumes each segment's backbone is a chain (later
    vertices inherit earlier ones' clocks), which only program-order
    edges guarantee, so a graph whose model disables program order is
    rejected with ``ValueError``.
    """

    def __init__(self, graph: HBGraph) -> None:
        if not graph.model.program_order:
            raise ValueError(
                "VectorClockEngine is only exact when program-order edges "
                "are enabled; this graph's model disables program_order"
            )
        self.graph = graph
        self._segment_ids = sorted(graph._seg_backbone_idx.keys())
        self._component = {seg: k for k, seg in enumerate(self._segment_ids)}
        self._clocks: List[Optional[Dict[int, int]]] = [None] * len(graph.backbone)
        self._preds: List[List[int]] = [[] for _ in graph.backbone]
        for i, succs in enumerate(graph._succ):
            for j in succs:
                self._preds[j].append(i)
        self._counters: Dict[int, int] = {}
        self._compute()

    @property
    def dimensions(self) -> int:
        """Number of vector components (paper: one per handler/segment)."""
        return len(self._segment_ids)

    def _compute(self) -> None:
        seg_counter: Dict[int, int] = {}
        for i, record in enumerate(self.graph.backbone):
            clock: Dict[int, int] = {}
            for p in self._preds[i]:
                for seg, val in self._clocks[p].items():
                    if clock.get(seg, 0) < val:
                        clock[seg] = val
            component = self._component[record.segment]
            seg_counter[component] = seg_counter.get(component, 0) + 1
            clock[component] = seg_counter[component]
            self._clocks[i] = clock
        self._counters = seg_counter

    def backbone_reaches(self, i: int, j: int) -> bool:
        if i == j:
            return False
        a = self.graph.backbone[i]
        comp = self._component[a.segment]
        own = self._clocks[i][comp]
        return self._clocks[j].get(comp, 0) >= own

    def happens_before(self, a: OpEvent, b: OpEvent) -> bool:
        if a.seq == b.seq:
            return False
        if a.segment == b.segment:
            position = self.graph._position
            return self.graph.model.program_order and (
                position[a.seq] < position[b.seq]
            )
        na = self.graph._next_backbone(a)
        pb = self.graph._prev_backbone(b)
        if na is None or pb is None:
            return False
        if na == pb:
            return True
        return self.backbone_reaches(na, pb)

    def concurrent(self, a: OpEvent, b: OpEvent) -> bool:
        return not self.happens_before(a, b) and not self.happens_before(b, a)
