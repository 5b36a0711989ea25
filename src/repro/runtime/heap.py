"""Shared-memory heap objects.

DCbugs ultimately race on intra-node shared memory (paper Section 1.2:
"DCbugs have fundamentally similar root causes as LCbugs").  In the mini
systems every piece of state that could be shared between threads or
handlers lives in one of these wrappers; each access is

* a scheduling point (so interleavings can differ between seeds),
* an interceptable operation (so the trigger module can gate it), and
* a traceable ``MEM_READ`` / ``MEM_WRITE`` with a location id.

Location ids follow the paper's scheme (object identity + field): keyed
containers use ``(uid, key)`` per entry plus a synthetic ``(uid,
"#struct")`` location for size/emptiness structure, so that e.g.
``regionsToOpen.isEmpty()`` conflicts with ``regionsToOpen.add(region)``
(the HB-4539 pattern) while entries under different keys do not conflict.

Each location remembers the sequence number of its last write; reads
record which write they observed.  That feeds the Rule-Mpull loop
analysis (paper Section 3.2.1): the write that satisfied the final poll
of a synchronization loop happens-before the loop exit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.ops import Location, OpKind

_STRUCT = "#struct"
_VALUE = "value"


class _WriteInfo:
    """Last-writer metadata for one location."""

    __slots__ = ("seq", "tid", "node")

    def __init__(self, seq: int, tid: int, node: str) -> None:
        self.seq = seq
        self.tid = tid
        self.node = node


class SharedObject:
    """Base class: owns a uid and the read/write emission protocol."""

    def __init__(self, cluster: "object", name: str, node: Optional["object"] = None):
        self.cluster = cluster
        self.name = name
        self.node = node
        self.uid = cluster.ids.next("heap-object")
        self._writers: Dict[Location, _WriteInfo] = {}
        cluster.register_heap_object(self)

    # -- emission protocol -------------------------------------------------

    def _loc(self, field: str) -> Location:
        return (self.uid, field)

    def _read(self, field: str) -> None:
        loc = self._loc(field)
        evt = self.cluster.pre_op(OpKind.MEM_READ, self.name, location=loc)
        if evt is None:
            return
        writer = self._writers.get(loc)
        evt.observed_write = writer.seq if writer else None
        if writer is not None:
            evt.extra["writer_tid"] = writer.tid
            evt.extra["writer_node"] = writer.node
        self.cluster.post_op(evt)

    def _write(self, field: str) -> None:
        loc = self._loc(field)
        evt = self.cluster.pre_op(OpKind.MEM_WRITE, self.name, location=loc)
        if evt is None:
            return
        self._writers[loc] = _WriteInfo(evt.seq, evt.tid, evt.node)
        self.cluster.post_op(evt)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}#{self.uid}>"


class SharedVar(SharedObject):
    """A single shared scalar slot."""

    def __init__(self, cluster, name, initial: Any = None, node=None):
        super().__init__(cluster, name, node)
        self._value = initial

    def get(self) -> Any:
        self._read(_VALUE)
        return self._value

    def set(self, value: Any) -> None:
        self._write(_VALUE)
        self._value = value

    def compare_and_set(self, expect: Any, value: Any) -> bool:
        """Atomic compare-and-swap (one scheduling point, like a CAS)."""
        self._write(_VALUE)
        if self._value == expect:
            self._value = value
            return True
        return False

    def peek(self) -> Any:
        """Untraced read, for assertions in tests — never use in systems."""
        return self._value


class SharedCounter(SharedObject):
    """A shared integer with read-modify-write increments."""

    def __init__(self, cluster, name, initial: int = 0, node=None):
        super().__init__(cluster, name, node)
        self._value = int(initial)

    def get(self) -> int:
        self._read(_VALUE)
        return self._value

    def increment(self, by: int = 1) -> int:
        # Deliberately read-then-write with a scheduling point between, so
        # unsynchronized increments can race (a classic LCbug pattern).
        self._read(_VALUE)
        current = self._value
        self._write(_VALUE)
        self._value = current + by
        return self._value

    def peek(self) -> int:
        return self._value


class SharedDict(SharedObject):
    """A shared map; the jMap of the paper's Figure 2 is one of these."""

    def __init__(self, cluster, name, node=None):
        super().__init__(cluster, name, node)
        self._data: Dict[Any, Any] = {}

    def get(self, key: Any, default: Any = None) -> Any:
        self._read(str(key))
        return self._data.get(key, default)

    def put(self, key: Any, value: Any) -> None:
        self._write(str(key))
        self._write(_STRUCT)
        self._data[key] = value

    def remove(self, key: Any) -> Any:
        self._write(str(key))
        self._write(_STRUCT)
        return self._data.pop(key, None)

    def clear(self) -> None:
        for key in list(self._data):
            self._write(str(key))
        self._write(_STRUCT)
        self._data.clear()

    def contains(self, key: Any) -> bool:
        self._read(str(key))
        return key in self._data

    def size(self) -> int:
        self._read(_STRUCT)
        return len(self._data)

    def is_empty(self) -> bool:
        self._read(_STRUCT)
        return not self._data

    def keys(self) -> List[Any]:
        self._read(_STRUCT)
        return list(self._data.keys())

    def items(self) -> List[Tuple[Any, Any]]:
        self._read(_STRUCT)
        return list(self._data.items())

    def peek(self, key: Any, default: Any = None) -> Any:
        return self._data.get(key, default)


class SharedList(SharedObject):
    """A shared list; the regionsToOpen of the paper's Figure 3."""

    def __init__(self, cluster, name, node=None):
        super().__init__(cluster, name, node)
        self._data: List[Any] = []

    def append(self, value: Any) -> None:
        self._write(_STRUCT)
        self._data.append(value)

    def remove(self, value: Any) -> bool:
        self._write(_STRUCT)
        if value in self._data:
            self._data.remove(value)
            return True
        return False

    def pop_first(self) -> Any:
        self._write(_STRUCT)
        return self._data.pop(0) if self._data else None

    def contains(self, value: Any) -> bool:
        self._read(_STRUCT)
        return value in self._data

    def is_empty(self) -> bool:
        self._read(_STRUCT)
        return not self._data

    def size(self) -> int:
        self._read(_STRUCT)
        return len(self._data)

    def snapshot(self) -> List[Any]:
        self._read(_STRUCT)
        return list(self._data)

    def peek(self) -> List[Any]:
        return list(self._data)


class SharedSet(SharedObject):
    """A shared set with per-element and structural locations."""

    def __init__(self, cluster, name, node=None):
        super().__init__(cluster, name, node)
        self._data: set = set()

    def add(self, value: Any) -> None:
        self._write(str(value))
        self._write(_STRUCT)
        self._data.add(value)

    def discard(self, value: Any) -> bool:
        self._write(str(value))
        self._write(_STRUCT)
        if value in self._data:
            self._data.discard(value)
            return True
        return False

    def contains(self, value: Any) -> bool:
        self._read(str(value))
        return value in self._data

    def is_empty(self) -> bool:
        self._read(_STRUCT)
        return not self._data

    def size(self) -> int:
        self._read(_STRUCT)
        return len(self._data)

    def snapshot(self) -> List[Any]:
        self._read(_STRUCT)
        return sorted(self._data, key=repr)

    def peek(self) -> set:
        return set(self._data)
