"""Happens-before chain explanation.

Section 2.3 of the paper walks the Figure 3 ordering as a chain:

    W  =P=>  Create(t)  =Tfork=>  Begin(t)  =P=>  Create(rpc)  =Mrpc=> ...

This module reconstructs such chains from an ``HBGraph``: given two
ordered records, ``explain(a, b)`` returns the hops of one happens-before
path, each labeled with the rule that contributed the edge.  Invaluable
for debugging the model, for reports ("why is this pair NOT a race?"),
and for the Figure 3 bench.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.hb.graph import HBGraph
from repro.runtime.ops import OpEvent


@dataclass
class Hop:
    """One edge of an HB chain."""

    source: OpEvent
    target: OpEvent
    rule: str  # "P" for intra-segment program order, else the rule name

    def __str__(self) -> str:
        return (
            f"{self.source.kind.value}@{self.source.site or self.source.node} "
            f"={self.rule}=> {self.target.kind.value}@"
            f"{self.target.site or self.target.node}"
        )


class ChainExplainer:
    """Finds labeled happens-before paths in an ``HBGraph``."""

    def __init__(self, graph: HBGraph) -> None:
        self.graph = graph

    # -- public -------------------------------------------------------------

    def explain(self, a: OpEvent, b: OpEvent) -> Optional[List[Hop]]:
        """A labeled HB path from ``a`` to ``b``, or None if concurrent."""
        if not self.graph.happens_before(a, b):
            return None
        hops: List[Hop] = []
        if a.segment == b.segment:
            return [Hop(a, b, "P")]
        start = self.graph._next_backbone(a)
        goal = self.graph._prev_backbone(b)
        if start is None or goal is None:
            return None
        first_bb = self.graph.backbone[start]
        if first_bb.seq != a.seq:
            hops.append(Hop(a, first_bb, "P"))
        backbone_path = self._bfs(start, goal)
        if backbone_path is None:
            return None
        for i, j in zip(backbone_path, backbone_path[1:]):
            hops.append(
                Hop(
                    self.graph.backbone[i],
                    self.graph.backbone[j],
                    self.graph._succ[i][j],
                )
            )
        last_bb = self.graph.backbone[goal]
        if last_bb.seq != b.seq:
            hops.append(Hop(last_bb, b, "P"))
        return hops

    def render(self, a: OpEvent, b: OpEvent) -> str:
        hops = self.explain(a, b)
        if hops is None:
            return (
                f"{a.kind.value}@{a.site} and {b.kind.value}@{b.site} "
                "are CONCURRENT (no happens-before path)"
            )
        lines = [f"{a.kind.value}@{a.site}"]
        for hop in hops:
            lines.append(
                f"  ={hop.rule}=> {hop.target.kind.value}@"
                f"{hop.target.site or hop.target.node} "
                f"[{hop.target.node}/{hop.target.thread_name}]"
            )
        return "\n".join(lines)

    # -- internals -----------------------------------------------------------

    def _bfs(self, start: int, goal: int) -> Optional[List[int]]:
        if start == goal:
            return [start]
        parents: Dict[int, int] = {}
        frontier = deque([start])
        visited = {start}
        while frontier:
            i = frontier.popleft()
            for j in sorted(self.graph._succ[i]):
                if j in visited:
                    continue
                visited.add(j)
                parents[j] = i
                if j == goal:
                    path = [j]
                    while path[-1] != start:
                        path.append(parents[path[-1]])
                    return list(reversed(path))
                frontier.append(j)
        return None
