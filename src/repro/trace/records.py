"""Trace record model and serialization.

A trace record is an executed ``OpEvent`` plus nothing else — the paper's
three pieces of information per record (operation type, call stack, ID —
Section 3.1.2) are the event's ``kind``, ``callstack`` and ``obj_id``.
This module adds:

* category classification (Table 7's breakdown: Mem / RPC / Socket /
  Event / Thread / Lock / Push);
* the record's JSON form, which the WAL frames (``repro.trace.wal``) and
  whose size Table 6 reports as the trace size.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, Iterable

from repro.errors import TraceFormatError
from repro.ids import CallStack, Frame
from repro.runtime.ops import OpEvent, OpKind

#: Version of the on-disk record schema.  Bump when a field changes
#: meaning; readers reject records from the future instead of silently
#: misinterpreting them.  Records without a ``"v"`` field predate
#: versioning and are read as version 1.
TRACE_SCHEMA_VERSION = 1

CATEGORY_MEM = "mem"
CATEGORY_RPC = "rpc"
CATEGORY_SOCKET = "socket"
CATEGORY_EVENT = "event"
CATEGORY_THREAD = "thread"
CATEGORY_LOCK = "lock"
CATEGORY_PUSH = "push"

_KIND_CATEGORY = {
    OpKind.MEM_READ: CATEGORY_MEM,
    OpKind.MEM_WRITE: CATEGORY_MEM,
    OpKind.RPC_CREATE: CATEGORY_RPC,
    OpKind.RPC_BEGIN: CATEGORY_RPC,
    OpKind.RPC_END: CATEGORY_RPC,
    OpKind.RPC_JOIN: CATEGORY_RPC,
    OpKind.SOCK_SEND: CATEGORY_SOCKET,
    OpKind.SOCK_RECV: CATEGORY_SOCKET,
    OpKind.EVENT_CREATE: CATEGORY_EVENT,
    OpKind.EVENT_BEGIN: CATEGORY_EVENT,
    OpKind.EVENT_END: CATEGORY_EVENT,
    OpKind.THREAD_CREATE: CATEGORY_THREAD,
    OpKind.THREAD_BEGIN: CATEGORY_THREAD,
    OpKind.THREAD_END: CATEGORY_THREAD,
    OpKind.THREAD_JOIN: CATEGORY_THREAD,
    OpKind.LOCK_ACQUIRE: CATEGORY_LOCK,
    OpKind.LOCK_RELEASE: CATEGORY_LOCK,
    OpKind.ZK_UPDATE: CATEGORY_PUSH,
    OpKind.ZK_PUSHED: CATEGORY_PUSH,
}


def category_of(kind: OpKind) -> str:
    return _KIND_CATEGORY[kind]


def record_to_dict(event: OpEvent) -> Dict[str, Any]:
    """A JSON-serializable view of one record."""
    return {
        "v": TRACE_SCHEMA_VERSION,
        "seq": event.seq,
        "kind": event.kind.value,
        "obj_id": _jsonable(event.obj_id),
        "node": event.node,
        "tid": event.tid,
        "thread": event.thread_name,
        "segment": event.segment,
        "stack": [[f.path, f.func, f.line] for f in event.callstack],
        "location": list(event.location) if event.location else None,
        "observed_write": event.observed_write,
        "in_handler": event.in_handler,
        "extra": {k: _jsonable(v) for k, v in event.extra.items()},
    }


#: Wire string -> kind (``OpKind(value)`` goes through ``EnumMeta.__call__``).
_KIND_BY_WIRE = {kind.value: kind for kind in OpKind}

#: Decoded records of one site share one ``CallStack`` (and its
#: frames), keyed by the wire frames.  Bounded: cleared when full.
_STACK_CACHE_MAX = 4096
_stack_cache: Dict[Any, CallStack] = {}


def _intern_stack(frames: Any) -> CallStack:
    try:
        key = tuple(map(tuple, frames))
        stack = _stack_cache.get(key)
    except TypeError:  # a frame that is no sequence, or holds a list
        key = stack = None
    if stack is None:
        stack = CallStack(Frame(p, f, l) for p, f, l in frames)
        # Only int line numbers are cached: ``True == 1 == 1.0`` as a
        # key, and a hand-made record must not plant its look-alike
        # under the key of a real site.
        if key is not None and all(type(f.line) is int for f in stack):
            if len(_stack_cache) >= _STACK_CACHE_MAX:
                _stack_cache.clear()
            _stack_cache[key] = stack
    return stack


def record_from_dict(data: Dict[str, Any]) -> OpEvent:
    if not isinstance(data, dict):
        raise TraceFormatError(f"trace record is not an object: {data!r}")
    version = data.get("v", 1)
    if version != TRACE_SCHEMA_VERSION:
        raise TraceFormatError(
            f"unknown trace schema version {version!r} "
            f"(this reader understands version {TRACE_SCHEMA_VERSION})"
        )
    try:
        seq = data["seq"]
        kind = data["kind"]
        # By wire string; ``OpKind(kind)`` words the error for the rest.
        kind = (type(kind) is str and _KIND_BY_WIRE.get(kind)) or OpKind(kind)
        obj_id = _untuple(data["obj_id"])
        node = data["node"]
        tid = data["tid"]
        thread = data["thread"]
        segment = data["segment"]
        callstack = _intern_stack(data["stack"])
        location = data["location"]
        # Names are interned when they are strings; nothing here checks
        # that they are, so a record with other types decodes as it did.
        return OpEvent(
            seq,
            kind,
            obj_id,
            sys.intern(node) if type(node) is str else node,
            tid,
            sys.intern(thread) if type(thread) is str else thread,
            segment,
            callstack,
            tuple(location) if location else None,
            data["observed_write"],
            data.get("in_handler", False),
            data.get("extra", {}),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise TraceFormatError(
            f"malformed trace record ({type(exc).__name__}: {exc})"
        ) from exc


def _jsonable(value: Any) -> Any:
    if isinstance(value, tuple):
        return {"__tuple__": [_jsonable(v) for v in value]}
    return value


def _untuple(value: Any) -> Any:
    if isinstance(value, dict) and "__tuple__" in value:
        return tuple(_untuple(v) for v in value["__tuple__"])
    return value


def dump_records(records: Iterable[OpEvent]) -> str:
    """Records as JSON lines: the byte count behind Table 6's trace
    size, and a stable text to compare two traces by."""
    return "\n".join(json.dumps(record_to_dict(r)) for r in records)
