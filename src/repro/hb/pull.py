"""Rule-Mpull: loop-based (pull) synchronization analysis.

Paper Section 3.2.1: a node keeps polling some status until it observes an
update; the update in the writer therefore happens before the loop exit in
the poller.  The paper detects candidate polling reads statically, re-runs
the software tracing only those reads and their writes, and uses the
observed last-writer to place the HB edge.  Our heap already versions
every location (reads record which write they observed), so the "focused
second run" is subsumed: the same evidence is in the primary trace.  The
inference logic is the same.

Two patterns are recognized, both from the paper:

* **Local / direct polling loop** — the same thread reads the same
  location from the same static site at least twice, and the final read
  observes a *different* write, from a different thread, than the earlier
  reads did.  The observed write then happens-before the final read (and
  hence the loop exit that follows it).  This also covers single-machine
  while-loop custom synchronization.

* **Distributed RPC polling loop** — a thread repeatedly issues the same
  RPC from the same call site (``while (!getTask(jID))`` in the paper's
  Figure 2); each execution of the RPC handler reads some location.  If
  the handler read under the *final* call observed a write that earlier
  calls did not, that write happens-before the final ``Join`` on the
  caller (the loop exit on the remote node).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ids import Site
from repro.runtime.ops import OpEvent, OpKind
from repro.trace.store import Trace


@dataclass(frozen=True)
class PullEdge:
    """An inferred Update => Pulled happens-before edge."""

    write_seq: int
    read_seq: int  # the final poll read, or the final RPC Join
    kind: str  # "local-loop" or "rpc-loop"


def infer_pull_edges(trace: Trace) -> List[PullEdge]:
    """All Rule-Mpull edges supported by the trace."""
    edges = _local_loop_edges(trace)
    edges.extend(_rpc_loop_edges(trace))
    return edges


def _local_loop_edges(trace: Trace) -> List[PullEdge]:
    # Group reads by (thread, static site, location), preserving order.
    groups: Dict[Tuple[int, Optional[Site], tuple], List[OpEvent]] = defaultdict(list)
    for record in trace.records:
        if record.kind is OpKind.MEM_READ and record.location is not None:
            groups[(record.tid, record.site, record.location)].append(record)
    edges = []
    for (tid, site, _loc), reads in groups.items():
        if site is None or len(reads) < 2:
            continue
        last = reads[-1]
        earlier_writes = {r.observed_write for r in reads[:-1]}
        if last.observed_write is None:
            continue
        if last.observed_write in earlier_writes:
            continue  # the loop never waited on a fresh value
        writer = trace.by_seq(last.observed_write)
        if writer is None or writer.tid == tid:
            continue  # not cross-thread synchronization
        edges.append(PullEdge(last.observed_write, last.seq, "local-loop"))
    return edges


def _rpc_loop_edges(trace: Trace) -> List[PullEdge]:
    # Pair caller-side RPC records by tag, and index handler-side reads.
    joins_by_tag: Dict[str, OpEvent] = {}
    creates: Dict[str, OpEvent] = {}
    begin_segment: Dict[str, int] = {}
    for record in trace.records:
        if record.kind is OpKind.RPC_CREATE:
            creates[record.obj_id] = record
        elif record.kind is OpKind.RPC_JOIN:
            joins_by_tag[record.obj_id] = record
        elif record.kind is OpKind.RPC_BEGIN:
            begin_segment[record.obj_id] = record.segment

    # Reads executed inside each RPC handler invocation (by segment).
    reads_by_segment: Dict[int, List[OpEvent]] = defaultdict(list)
    for record in trace.records:
        if record.kind is OpKind.MEM_READ:
            reads_by_segment[record.segment].append(record)

    # Polling loops: repeated Create from the same (thread, site, method).
    loops: Dict[Tuple[int, Optional[Site], str], List[OpEvent]] = defaultdict(list)
    for tag, create in creates.items():
        method = create.extra.get("method", "?")
        loops[(create.tid, create.site, method)].append(create)

    edges = []
    for (tid, site, _method), call_creates in loops.items():
        if site is None or len(call_creates) < 2:
            continue
        call_creates.sort(key=lambda r: r.seq)
        observed: List[set] = []
        for create in call_creates:
            segment = begin_segment.get(create.obj_id)
            if segment is None:
                observed.append(set())
                continue
            observed.append(
                {
                    r.observed_write
                    for r in reads_by_segment.get(segment, [])
                    if r.observed_write is not None
                }
            )
        final = observed[-1]
        earlier = set().union(*observed[:-1]) if len(observed) > 1 else set()
        fresh = final - earlier
        last_join = joins_by_tag.get(call_creates[-1].obj_id)
        if last_join is None:
            continue
        for write_seq in sorted(fresh):
            writer = trace.by_seq(write_seq)
            if writer is None or writer.tid == tid:
                continue  # unknown writer, or the poller's own write
            edges.append(PullEdge(write_seq, last_join.seq, "rpc-loop"))
    return edges
