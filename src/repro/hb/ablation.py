"""Trace-level HB ablation (paper Section 7.4, Table 9).

The paper evaluates the necessity of each rule family by *ignoring the
corresponding records in the trace* and re-running the analysis.  This is
stronger than just skipping edges: dropping event/RPC/socket handler
Begin/End records collapses handler segments into whole-thread program
order (Rule-Preg misapplied to handler threads), which causes the false
*negatives* the paper reports; the missing pairing edges cause the false
positives.

``ablate_trace`` reproduces both effects: it removes the family's records
and remaps the segments that those records opened onto the thread's base
segment.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, Set

from repro.runtime.ops import OpKind
from repro.trace.records import category_of
from repro.trace.store import Trace

#: Ablatable families and the record kinds they drop: each family is a
#: record category of ``repro.trace.records`` (memory accesses and locks
#: are not HB rules).
FAMILY_KINDS = {
    family: frozenset(kind for kind in OpKind if category_of(kind) == family)
    for family in ("event", "rpc", "socket", "push", "thread")
}

#: Record kinds that *open* a handler segment, per family.  When a family
#: is ignored, segments opened by its records collapse into the thread's
#: base segment.
_SEGMENT_OPENERS = {
    "event": OpKind.EVENT_BEGIN,
    "rpc": OpKind.RPC_BEGIN,
    "socket": OpKind.SOCK_RECV,
}


def ablate_trace(trace: Trace, ignore: Iterable[str]) -> Trace:
    """A copy of ``trace`` with the given rule families' records ignored."""
    families = set(ignore)
    unknown = families - set(FAMILY_KINDS)
    if unknown:
        raise ValueError(f"unknown ablation families: {sorted(unknown)}")

    dropped_kinds: Set[OpKind] = set()
    for family in families:
        dropped_kinds |= FAMILY_KINDS[family]

    # Which segments were opened by a dropped handler-begin record?
    collapsed_segments: Set[int] = set()
    opener_kinds = {
        _SEGMENT_OPENERS[f] for f in families if f in _SEGMENT_OPENERS
    }
    segment_opener: Dict[int, OpKind] = {}
    for record in trace.records:
        segment_opener.setdefault(record.segment, record.kind)
    for segment, opener in segment_opener.items():
        if opener in opener_kinds:
            collapsed_segments.add(segment)

    # Base segment per thread = the first segment seen for that tid.
    base_segment: Dict[int, int] = {}
    for record in trace.records:
        if record.segment not in collapsed_segments:
            base_segment.setdefault(record.tid, record.segment)
    for record in trace.records:  # threads with only handler records
        base_segment.setdefault(record.tid, record.segment)

    ablated = Trace(name=f"{trace.name}-ablate-{'+'.join(sorted(families))}")
    for record in trace.records:
        if record.kind in dropped_kinds:
            continue
        if record.segment in collapsed_segments:
            record = replace(record, segment=base_segment[record.tid])
        ablated.append(record)
    return ablated
