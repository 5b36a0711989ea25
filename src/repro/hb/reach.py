"""Bit-set reachability for the happens-before graph.

``HBGraph`` answers ``backbone_reaches(i, j)`` through the paper's
Section 3.2.2 design: one reachable-set bit vector per backbone vertex,
computed in reverse topological order.  Queries are a single bit test;
memory is O(n²/8) bytes, which is what Table 8's unselective traces
blow up.

The graph's memory budget is enforced here: ``TraceAnalysisOOM`` is
raised before allocating past it, which is the Table 8 experiment.  A
trace whose closure does not fit is analysed by the single-pass
streaming detector instead (``repro.detect.streaming``).
"""

from __future__ import annotations

from typing import Dict

from repro.errors import TraceAnalysisOOM


class BitsetReachability:
    """Per-vertex reachable sets as big-int bit vectors (the paper's
    design).  Built eagerly; ``reaches`` is one shift-and-mask."""

    backend = "bitset"

    def __init__(self, graph: "object") -> None:
        n = len(graph.backbone)
        self.vertices = n
        self.required_bytes = (n * n) // 8
        if self.required_bytes > graph.memory_budget:
            raise TraceAnalysisOOM(
                f"bitset reachability needs "
                f"~{self.required_bytes // (1024 * 1024)} MB "
                f"({n} backbone vertices), budget is "
                f"{graph.memory_budget // (1024 * 1024)} MB",
                required_bytes=self.required_bytes,
                budget_bytes=graph.memory_budget,
            )
        reach = [0] * n
        succ = graph._succ
        for i in range(n - 1, -1, -1):
            acc = 0
            for j in succ[i]:
                acc |= reach[j] | (1 << j)
            reach[i] = acc
        self._reach = reach

    def reaches(self, i: int, j: int) -> bool:
        return bool((self._reach[i] >> j) & 1)

    def stats(self) -> Dict[str, int]:
        return {
            "backend": self.backend,
            "bytes": self.required_bytes,
            "vertices": self.vertices,
        }
