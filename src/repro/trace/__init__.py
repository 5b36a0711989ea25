"""Run-time tracing (paper Section 3.1)."""

from repro.trace.records import (
    CATEGORY_EVENT,
    CATEGORY_LOCK,
    CATEGORY_MEM,
    CATEGORY_PUSH,
    CATEGORY_RPC,
    CATEGORY_SOCKET,
    CATEGORY_THREAD,
    TRACE_SCHEMA_VERSION,
    category_of,
    dump_records,
    record_from_dict,
    record_to_dict,
)
from repro.trace.salvage import SalvageReport, salvage_trace
from repro.trace.sampling import Sampler, build_sampler
from repro.trace.scope import (
    FullScope,
    SelectiveScope,
    TracingScope,
    find_comm_functions,
    find_comm_functions_in_source,
    selective_scope_for,
)
from repro.trace.stats import TraceStats, compute_stats, publish_stats
from repro.trace.store import Trace
from repro.trace.tracer import Tracer
from repro.trace.wal import WalSink, WalWriter

__all__ = [
    "Trace",
    "TRACE_SCHEMA_VERSION",
    "SalvageReport",
    "salvage_trace",
    "WalSink",
    "WalWriter",
    "TraceStats",
    "compute_stats",
    "publish_stats",
    "Tracer",
    "Sampler",
    "build_sampler",
    "TracingScope",
    "FullScope",
    "SelectiveScope",
    "find_comm_functions",
    "find_comm_functions_in_source",
    "selective_scope_for",
    "category_of",
    "record_to_dict",
    "record_from_dict",
    "dump_records",
    "CATEGORY_MEM",
    "CATEGORY_RPC",
    "CATEGORY_SOCKET",
    "CATEGORY_EVENT",
    "CATEGORY_THREAD",
    "CATEGORY_LOCK",
    "CATEGORY_PUSH",
]
