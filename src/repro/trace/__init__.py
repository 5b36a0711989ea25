"""Run-time tracing (paper Section 3.1)."""

from repro.trace.records import (
    TRACE_SCHEMA_VERSION,
    dump_records,
    record_from_dict,
    record_to_dict,
)
from repro.trace.salvage import salvage_trace
from repro.trace.sampling import build_sampler
from repro.trace.scope import (
    FullScope,
    SelectiveScope,
    find_comm_functions,
    selective_scope_for,
)
from repro.trace.stats import compute_stats, publish_stats
from repro.trace.store import Trace
from repro.trace.tracer import Tracer
from repro.trace.wal import WalSink, WalWriter

__all__ = [
    "Trace",
    "TRACE_SCHEMA_VERSION",
    "salvage_trace",
    "WalSink",
    "WalWriter",
    "compute_stats",
    "publish_stats",
    "Tracer",
    "build_sampler",
    "FullScope",
    "SelectiveScope",
    "find_comm_functions",
    "selective_scope_for",
    "record_to_dict",
    "record_from_dict",
    "dump_records",
]
