"""Trace record model and serialization.

A trace record is an executed ``OpEvent`` plus nothing else — the paper's
three pieces of information per record (operation type, call stack, ID —
Section 3.1.2) are the event's ``kind``, ``callstack`` and ``obj_id``.
This module adds:

* category classification (Table 7's breakdown: Mem / RPC / Socket /
  Event / Thread / Lock / Push);
* the record's two JSON forms.  The positional form
  (``record_to_list``) is the payload the WAL frames
  (``repro.trace.wal``): twelve values in ``OpEvent`` field order, no
  key names.  The keyed form (``record_to_dict``, ``dump_records``) is
  the readable one: Table 6 reports its size as the trace size, and
  trace digests, exports and stream snapshots are built from it.
  ``record_from_dict`` reads either; the JSON type decides which.
"""

from __future__ import annotations

import copyreg
import json
import sys
from types import MappingProxyType
from typing import Any, Dict, Iterable, List, Union

from repro.errors import TraceFormatError
from repro.ids import CallStack, Frame
from repro.runtime.ops import MEM_READ, MEM_WRITE, OpEvent, OpKind

#: Version of the keyed record schema.  Bump when a field changes
#: meaning; readers reject records from the future instead of silently
#: misinterpreting them.  Records without a ``"v"`` field predate
#: versioning and are read as version 1.
TRACE_SCHEMA_VERSION = 1

#: The ``record_version`` a WAL segment header states: 2 is the
#: positional form (``record_to_list``); a version-1 segment holds keyed
#: records.  Readers tell the two apart by each record's JSON type.
WAL_RECORD_VERSION = 2

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


def record_to_list(event: OpEvent) -> List[Any]:
    """One record as the WAL frames it: ``record_to_dict``'s values in
    ``OpEvent`` field order, without the key names or the version."""
    return [
        event.seq,
        event.kind.value,
        _jsonable(event.obj_id),
        event.node,
        event.tid,
        event.thread_name,
        event.segment,
        [[f.path, f.func, f.line] for f in event.callstack],
        list(event.location) if event.location else None,
        event.observed_write,
        event.in_handler,
        {k: _jsonable(v) for k, v in event.extra.items()},
    ]


#: Wire string -> kind (``OpKind(value)`` goes through ``EnumMeta.__call__``).
_KIND_BY_WIRE = {kind.value: kind for kind in OpKind}

# Two bounded caches (cleared when full) let decoded records share what
# they have in common.  Both take only exact ``int``/``str`` parts (a
# stack's path and func ``str``, its line ``int``): ``True == 1 == 1.0``
# as a key, so a hand-made record must neither plant its look-alike
# under the key of a real value nor decode as one.

#: Records of one site share one ``CallStack`` (and its frames), keyed
#: by the wire frames.
_STACK_CACHE_MAX = 4096
_stack_cache: Dict[Any, CallStack] = {}

#: Memory accesses of one location share one location tuple and one
#: ``obj_id``, keyed by value.
_PART_CACHE_MAX = 4096
_part_cache: Dict[Any, Any] = {}


#: The ``extra`` of every decoded record whose wire ``extra`` is an empty
#: object (most records): one read-only mapping, not a dict per record.
#: A live runtime event keeps its own dict (``runtime/heap.py`` writes
#: into it); a decoded record's ``extra`` is only read.
_EMPTY_EXTRA = MappingProxyType({})


def _read_only(items: Dict[str, Any]) -> Any:
    return MappingProxyType(items) if items else _EMPTY_EXTRA


# A decoded record pickles and deep-copies like a live one (a
# ``mappingproxy`` does neither by itself); the copy of the shared
# empty ``extra`` is the shared one again.
copyreg.pickle(MappingProxyType, lambda proxy: (_read_only, (dict(proxy),)))


def _intern_stack(frames: Any) -> CallStack:
    try:
        key: Any = tuple(map(tuple, frames))
        for path, func, line in key:
            if (
                type(path) is not str
                or type(func) is not str
                or type(line) is not int
            ):
                key = None
                break
    except (TypeError, ValueError):  # malformed: raised again below
        key = None
    stack = None if key is None else _stack_cache.get(key)
    if stack is None:
        stack = CallStack(Frame(p, f, l) for p, f, l in frames)
        if key is not None:
            if len(_stack_cache) >= _STACK_CACHE_MAX:
                _stack_cache.clear()
            _stack_cache[key] = stack
    return stack


def _share(value: Any) -> Any:
    """The cached equal of a ``str`` or of a tuple of ``int``/``str``;
    any other value as it is."""
    if type(value) is tuple:
        for item in value:
            if type(item) is not int and type(item) is not str:
                return value
    elif type(value) is not str:
        return value
    shared = _part_cache.get(value)
    if shared is None:
        if len(_part_cache) >= _PART_CACHE_MAX:
            _part_cache.clear()
        shared = _part_cache[value] = value
    return shared


def record_from_dict(data: Union[List[Any], Dict[str, Any]]) -> OpEvent:
    """The record one decoded JSON value holds.  A list is the
    positional form (``record_to_list``), a dict the keyed form
    (``record_to_dict``, and what every WAL held before the positional
    form); the two convert each field alike, in the same order, and word
    each rejection alike.  Anything else is ``TraceFormatError``."""
    if type(data) is list:
        try:
            (seq, kind, obj_id, node, tid, thread, segment, stack, location,
             observed_write, in_handler, extra) = data
            kind = (type(kind) is str and _KIND_BY_WIRE.get(kind)) or OpKind(kind)
            obj_id = _untuple(obj_id)
            callstack = _intern_stack(stack)
            location = _share(tuple(location)) if location else None
        except (ValueError, TypeError) as exc:
            raise _malformed(exc) from exc
    elif not isinstance(data, dict):
        raise TraceFormatError(f"trace record is not an object: {data!r}")
    else:
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
            location = _share(tuple(location)) if location else None
            observed_write = data["observed_write"]
        except (KeyError, ValueError, TypeError) as exc:
            raise _malformed(exc) from exc
        in_handler = data.get("in_handler", False)
        extra = data.get("extra", _EMPTY_EXTRA)
    if kind is MEM_READ or kind is MEM_WRITE:
        obj_id = _share(obj_id)
    if type(extra) is dict and not extra:
        extra = _EMPTY_EXTRA
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
        location,
        observed_write,
        in_handler,
        extra,
    )


def _malformed(exc: Exception) -> TraceFormatError:
    return TraceFormatError(
        f"malformed trace record ({type(exc).__name__}: {exc})"
    )


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
