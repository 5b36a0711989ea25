"""Asynchronous event queues (paper Section 2.2, Rules E-enq / E-serial).

Each queue is FIFO with one dispatching side (any thread may post) and one
or more consumer threads running pre-registered handlers, matching what
the paper observed in Hadoop/HBase/Cassandra/ZooKeeper: "all the queues
are FIFO and every queue has ... one or multiple handling threads".

* ``Create(e)`` is recorded at ``post`` time (Rule-Eenq's left side).
* ``Begin(e)`` / ``End(e)`` are recorded in the consumer thread around the
  handler invocation, inside a fresh *segment* so that Rule-Pnreg holds:
  two handlers on the same consumer thread get no program-order edge.
* ``single_consumer`` queues additionally admit Rule-Eserial edges, which
  the trace analyzer adds as a fixpoint.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.errors import ReproError
from repro.runtime.ops import OpKind
from repro.runtime.scheduler import current_sim_thread

Handler = Callable[["Event"], None]


class Event:
    """A queued event: a type tag plus an arbitrary payload."""

    def __init__(self, etype: str, payload: Any = None) -> None:
        self.etype = etype
        self.payload = payload
        self.eid: Optional[int] = None  # assigned on post

    def __repr__(self) -> str:
        return f"<Event {self.etype} eid={self.eid}>"


class EventQueue:
    """A FIFO event queue with ``consumers`` handler threads."""

    def __init__(
        self,
        node: "object",
        name: str,
        consumers: int = 1,
    ) -> None:
        if consumers < 1:
            raise ReproError("an event queue needs at least one consumer")
        self.node = node
        self.cluster = node.cluster
        self.name = name
        self.qid = self.cluster.ids.next("event-queue")
        self.consumers = consumers
        self._handlers: Dict[str, Handler] = {}
        self._default_handler: Optional[Handler] = None
        self._queue: Deque[Event] = deque()
        self._consumer_threads: List[object] = []
        for i in range(consumers):
            suffix = f"-{i}" if consumers > 1 else ""
            t = node.spawn(
                self._consume_loop,
                name=f"{node.name}.eq.{name}{suffix}",
                daemon=True,
            )
            self._consumer_threads.append(t)

    @property
    def single_consumer(self) -> bool:
        return self.consumers == 1

    def register(self, etype: str, handler: Handler) -> None:
        self._handlers[etype] = handler

    def set_default_handler(self, handler: Handler) -> None:
        self._default_handler = handler

    def post(self, event_or_type, payload: Any = None) -> Event:
        """Enqueue an event; records ``Create(e)`` (Rule-Eenq left side)."""
        event = (
            event_or_type
            if isinstance(event_or_type, Event)
            else Event(event_or_type, payload)
        )
        event.eid = self.cluster.ids.next("event")
        self.cluster.op(
            OpKind.EVENT_CREATE,
            event.eid,
            extra={
                "queue": self.qid,
                "queue_name": self.name,
                "etype": event.etype,
                "single_consumer": self.single_consumer,
            },
        )
        self._queue.append(event)
        return event

    def _consume_loop(self) -> None:
        me = current_sim_thread()
        while True:
            me.block_until(lambda: bool(self._queue), f"eq:{self.name}")
            if not self._queue:
                continue
            event = self._queue.popleft()
            self._dispatch(event)

    def _dispatch(self, event: Event) -> None:
        handler = self._handlers.get(event.etype, self._default_handler)
        thread = current_sim_thread()
        thread.push_segment()
        meta = {
            "queue": self.qid,
            "queue_name": self.name,
            "etype": event.etype,
            "single_consumer": self.single_consumer,
            "handler": getattr(handler, "__qualname__", str(handler)),
        }
        self.cluster.op(OpKind.EVENT_BEGIN, event.eid, extra=dict(meta))
        try:
            if handler is None:
                self.node.log.warn(
                    f"queue {self.name}: no handler for event {event.etype}"
                )
            else:
                handler(event)
        finally:
            self.cluster.op(OpKind.EVENT_END, event.eid, extra=dict(meta))
            thread.pop_segment()

    def pending(self) -> int:
        return len(self._queue)
