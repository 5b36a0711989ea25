"""Trace statistics: what one monitored run looked like.

Useful for the Table 6/7 benches, for sanity-checking workloads, and
for eyeballing whether selective tracing is doing its job.

``publish_stats`` mirrors the same numbers into the active metrics
registry (``repro.obs``), so ``repro trace --stats`` and ``repro
profile`` report identical record/byte counts — both are views of one
``compute_stats`` pass.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.runtime.ops import HB_KINDS, LOCK_KINDS, MEM_KINDS, OpKind
from repro.trace.records import category_of, record_to_dict
from repro.trace.store import Trace


@dataclass
class TraceStats:
    total: int
    size_bytes: int
    categories: Counter
    per_node: Counter
    per_thread: Counter
    segments: int
    handler_segments: int
    mem_locations: int
    reads: int
    writes: int
    #: HB-related records (paper Table 2 kinds: thread/event/RPC/socket/push).
    hb_ops: int = 0
    #: Lock acquire/release records (trigger-module material, not HB edges).
    lock_ops: int = 0
    #: Serialized bytes per category (one JSON line + newline per record).
    bytes_by_category: Dict[str, int] = field(default_factory=dict)
    #: Memory accesses rejected by the scope policy (selective-tracing
    #: loss — previously counted on the tracer but never surfaced).
    dropped_mem: int = 0
    #: Events skipped because their node was unknown to the tracer.
    skipped_unbound: int = 0
    #: Events skipped from untraced (substrate) nodes.
    skipped_untraced: int = 0

    def render(self) -> str:
        lines = [
            f"records: {self.total} ({self.size_bytes / 1024:.1f} KB)",
            "by category: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.categories.items())),
            "bytes by category: "
            + ", ".join(
                f"{k}={v / 1024:.1f}KB"
                for k, v in sorted(self.bytes_by_category.items())
            ),
            "by node: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.per_node.items())),
            f"segments: {self.segments} ({self.handler_segments} handler)",
            f"memory: {self.reads} reads / {self.writes} writes over "
            f"{self.mem_locations} locations",
            f"hb ops: {self.hb_ops}, lock ops: {self.lock_ops}",
            f"dropped by scope: {self.dropped_mem} "
            f"(skipped: {self.skipped_unbound} unbound, "
            f"{self.skipped_untraced} untraced nodes)",
        ]
        return "\n".join(lines)


def compute_stats(trace: Trace) -> TraceStats:
    per_node: Counter = Counter()
    per_thread: Counter = Counter()
    bytes_by_category: Dict[str, int] = {}
    segments = set()
    handler_segments = set()
    locations = set()
    reads = writes = hb_ops = lock_ops = 0
    for record in trace.records:
        per_node[record.node] += 1
        per_thread[record.thread_name] += 1
        segments.add(record.segment)
        if record.in_handler:
            handler_segments.add(record.segment)
        category = category_of(record.kind)
        size = len(json.dumps(record_to_dict(record))) + 1  # + newline
        bytes_by_category[category] = bytes_by_category.get(category, 0) + size
        if record.kind in HB_KINDS:
            hb_ops += 1
        elif record.kind in LOCK_KINDS:
            lock_ops += 1
        if record.kind in MEM_KINDS:
            if record.location is not None:
                locations.add(record.location)
            if record.kind is OpKind.MEM_READ:
                reads += 1
            else:
                writes += 1
    return TraceStats(
        total=len(trace),
        size_bytes=trace.size_bytes(),
        categories=trace.category_counts(),
        per_node=per_node,
        per_thread=per_thread,
        segments=len(segments),
        handler_segments=len(handler_segments),
        mem_locations=len(locations),
        reads=reads,
        writes=writes,
        hb_ops=hb_ops,
        lock_ops=lock_ops,
        bytes_by_category=bytes_by_category,
        # Loss counters live on the trace (not the tracer) so they
        # survive a save/load and process boundaries.
        dropped_mem=trace.dropped_mem,
        skipped_unbound=trace.skipped_unbound,
        skipped_untraced=trace.skipped_untraced,
    )


def publish_stats(stats: TraceStats, registry: Optional[object] = None) -> None:
    """Mirror one trace's stats into a metrics registry (active by default).

    Gauges, not counters: a pipeline run observes exactly one monitored
    trace, and re-publishing must overwrite, not accumulate.
    """
    from repro import obs

    reg = registry if registry is not None else obs.get_registry()
    reg.gauge("trace_records", "records in the monitored trace").set(stats.total)
    reg.gauge("trace_size_bytes", "serialized trace size").set(stats.size_bytes)
    reg.gauge("trace_segments", "distinct segments in the trace").set(
        stats.segments
    )
    reg.gauge(
        "trace_handler_segments", "segments from handler invocations"
    ).set(stats.handler_segments)
    reg.gauge("trace_mem_locations", "distinct memory locations").set(
        stats.mem_locations
    )
    reg.gauge("trace_mem_reads", "memory read records").set(stats.reads)
    reg.gauge("trace_mem_writes", "memory write records").set(stats.writes)
    reg.gauge("trace_hb_ops", "HB-related records (Table 2 kinds)").set(
        stats.hb_ops
    )
    reg.gauge("trace_lock_ops", "lock acquire/release records").set(
        stats.lock_ops
    )
    reg.gauge(
        "trace_dropped_mem_total",
        "memory accesses rejected by the scope policy",
    ).set(stats.dropped_mem)
    reg.gauge(
        "trace_skipped_unbound_total",
        "events skipped because their node was unknown to the tracer",
    ).set(stats.skipped_unbound)
    reg.gauge(
        "trace_skipped_untraced_total",
        "events skipped from untraced substrate nodes",
    ).set(stats.skipped_untraced)
    records_by_cat = reg.gauge(
        "trace_records_by_category", "records per Table 7 category"
    )
    bytes_by_cat = reg.gauge(
        "trace_bytes_by_category", "serialized bytes per Table 7 category"
    )
    for category, count in sorted(stats.categories.items()):
        records_by_cat.labels(category=category).set(count)
    for category, size in sorted(stats.bytes_by_category.items()):
        bytes_by_cat.labels(category=category).set(size)
