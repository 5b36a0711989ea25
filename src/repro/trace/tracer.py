"""The run-time tracer (paper Section 3.1).

An ``Interceptor`` installed on a cluster.  It records:

* every HB-related operation (Table 2) from traced nodes;
* lock/unlock operations (needed by the trigger module, Section 5.2);
* memory accesses *subject to the scope policy* — selective by default.

Nodes marked untraced (the coordination-service substrate) contribute no
records at all, mirroring the paper's uninstrumented ZooKeeper.  Events
from nodes the tracer has never been told about — emitted before
``bind()`` or by unknown substrate — are likewise **skipped**, not
traced: an uninstrumented process cannot produce records.  Both skip
classes are counted (``trace.skipped_untraced`` / ``skipped_unbound``)
so silent loss is visible in ``trace --stats``.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.ops import Interceptor, MEM_KINDS, OpEvent
from repro.trace.scope import FullScope, TracingScope
from repro.trace.store import Trace


class Tracer(Interceptor):
    """Collects a ``Trace`` while the cluster runs."""

    def __init__(
        self,
        scope: Optional[TracingScope] = None,
        name: str = "trace",
        wal: Optional["object"] = None,
    ) -> None:
        self.scope = scope or FullScope()
        self.trace = Trace(name)
        self.enabled = True
        #: Optional durable sink (``repro.trace.wal.WalSink``): every
        #: recorded event is also appended to per-node/per-thread logs
        #: on disk, so a crash leaves a salvageable prefix.  None (the
        #: default) is the pure in-memory path with zero extra work.
        self.wal = wal
        self._nodes: dict = {}

    @property
    def dropped_mem(self) -> int:
        """Accesses rejected by the scope policy (lives on the trace so
        stats survive serialization boundaries)."""
        return self.trace.dropped_mem

    def after(self, event: OpEvent) -> None:
        if not self.enabled:
            return
        node = self._nodes.get(event.node)
        if node is None:
            # Never bound, or an unknown node: an uninstrumented
            # process produces no records (same contract as the
            # untraced substrate) — but count it, silence here has
            # hidden real wiring bugs.
            self.trace.skipped_unbound += 1
            return
        if not node.traced:
            self.trace.skipped_untraced += 1
            return
        if event.kind in MEM_KINDS and not self.scope.should_trace_mem(event):
            self.trace.dropped_mem += 1
            return
        self.trace.append(event)
        if self.wal is not None:
            self.wal.append(event)

    def on_node_crash(self, node: "object") -> None:
        """A node died: its WAL streams stop mid-write, unsealed."""
        if self.wal is not None:
            self.wal.abandon_node(node.name)

    def close(self) -> None:
        """Seal the surviving WAL streams (end of the monitored run)."""
        if self.wal is not None:
            self.wal.close()

    def bind(self, cluster: "object") -> "Tracer":
        """Attach to a cluster (learns which nodes are traced).

        Keeps a reference to the live node dict, so nodes added after
        binding are still honoured.
        """
        self._nodes = cluster.nodes
        cluster.add_interceptor(self)
        return self
