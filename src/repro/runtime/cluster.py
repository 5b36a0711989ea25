"""The Cluster: one simulated distributed system run.

A cluster owns the scheduler, the nodes, the failure log, the id
allocator, and the interceptor chain (tracer, trigger gates).  Every
runtime primitive funnels its operations through ``pre_op``/``post_op``:

* ``pre_op`` allocates the global sequence number, runs ``before`` hooks
  (which may block the thread — that is how the trigger module enforces
  orders), and yields to the scheduler (the interleaving point);
* the primitive then performs its effect (no other thread can run in
  between, so ``seq`` order is execution order);
* ``post_op`` runs ``after`` hooks (the tracer appends its record).

Operations attempted outside any simulated thread (e.g. while a workload's
``build`` function wires up initial state) are silently skipped — the
analogue of not instrumenting initialization code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import DeadlockError, HangError, ReproError, SimAbort
from repro.ids import CallStack, IdAllocator, capture_stack
from repro.runtime.failures import FailureEvent, FailureKind, FailureLog
from repro.runtime.node import Node
from repro.runtime.ops import Interceptor, OpEvent, OpKind
from repro.runtime.scheduler import (
    Scheduler,
    SchedulingStrategy,
    SimThread,
    maybe_current_sim_thread,
)


class TimeoutRegistry:
    """Outstanding logical-time deadlines (RPC timeouts, fault actions).

    Registered as a scheduler wake hint: when every thread is blocked or
    asleep, the clock can jump to the earliest pending deadline so that a
    timeout predicate (``clock >= deadline``) eventually fires instead of
    the run being declared a deadlock."""

    def __init__(self) -> None:
        self._deadlines: Dict[int, int] = {}
        self._next_key = 0

    def register(self, deadline: int) -> int:
        key = self._next_key
        self._next_key += 1
        self._deadlines[key] = deadline
        return key

    def unregister(self, key: int) -> None:
        self._deadlines.pop(key, None)

    def next_wake(self) -> Optional[int]:
        return min(self._deadlines.values()) if self._deadlines else None

    def __len__(self) -> int:
        return len(self._deadlines)


@dataclass
class RunResult:
    """Outcome of one cluster run."""

    name: str
    seed: int
    steps: int
    completed: bool
    failures: FailureLog
    ops: int

    @property
    def harmful(self) -> bool:
        return self.failures.harmful()

    def failure_kinds(self) -> List[FailureKind]:
        return self.failures.kinds()

    def summary(self) -> str:
        status = "OK" if not self.harmful else "FAILED"
        kinds = ", ".join(sorted({k.value for k in self.failure_kinds()}))
        tail = f" ({kinds})" if kinds else ""
        return f"{self.name}: {status}{tail} steps={self.steps} ops={self.ops}"


class Cluster:
    """A simulated distributed system instance."""

    def __init__(
        self,
        name: str = "cluster",
        seed: int = 0,
        max_steps: int = 200_000,
        strategy: Optional[SchedulingStrategy] = None,
        verbose: bool = False,
    ) -> None:
        self.name = name
        self.seed = seed
        self.verbose = verbose
        from repro.runtime.network import NetworkPolicy, ReliableNetwork

        self.network: NetworkPolicy = ReliableNetwork()
        self.scheduler = Scheduler(strategy=strategy, seed=seed, max_steps=max_steps)
        self.timeouts = TimeoutRegistry()
        self.scheduler.add_wake_hint(self.timeouts.next_wake)
        self.ids = IdAllocator()
        self.failures = FailureLog()
        self.nodes: Dict[str, Node] = {}
        self.interceptors: List[Interceptor] = []
        self.heap_objects: List[object] = []
        self._seq = 0
        self._zk_service: Optional[object] = None
        self._znode_mirror: Optional[object] = None
        self._ran = False
        self.scheduler.on_thread_failure(self._record_thread_failure)

    # -- topology -----------------------------------------------------------

    def add_node(
        self,
        name: str,
        traced: bool = True,
        rpc_threads: int = 1,
        msg_threads: int = 1,
    ) -> Node:
        if name in self.nodes:
            raise ReproError(f"duplicate node name {name}")
        node = Node(
            self, name, traced=traced, rpc_threads=rpc_threads, msg_threads=msg_threads
        )
        self.nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        node = self.nodes.get(name)
        if node is None:
            raise ReproError(f"unknown node {name}")
        return node

    def zookeeper(self, name: str = "zk") -> "object":
        """The coordination-service substrate (created on first use)."""
        if self._zk_service is None:
            from repro.runtime.zookeeper import CoordinationService

            self._zk_service = CoordinationService(self, name)
        return self._zk_service

    def set_network(self, policy: "object") -> None:
        """Install a network fault-injection policy (see
        ``repro.runtime.network``); affects all subsequent sends."""
        self.network = policy

    def znode_mirror(self) -> "object":
        """Shared tracker that makes znode accesses memory accesses."""
        if self._znode_mirror is None:
            from repro.runtime.zookeeper import ZnodeMirror

            self._znode_mirror = ZnodeMirror(self)
        return self._znode_mirror

    # -- interceptors and op emission ----------------------------------------

    def add_interceptor(self, interceptor: Interceptor) -> None:
        self.interceptors.append(interceptor)

    def notify_node_crash(self, node: Node) -> None:
        """Tell every interceptor a node just died (``Node.crash``)."""
        for interceptor in self.interceptors:
            interceptor.on_node_crash(node)

    def pre_op(
        self,
        kind: OpKind,
        obj_id: Any,
        location: Optional[tuple] = None,
        extra: Optional[dict] = None,
    ) -> Optional[OpEvent]:
        thread = maybe_current_sim_thread()
        if thread is None or thread.scheduler is not self.scheduler:
            return None
        event = OpEvent(
            seq=0,  # assigned after the yield — see below
            kind=kind,
            obj_id=obj_id,
            node=thread.node.name if thread.node is not None else "<none>",
            tid=thread.tid,
            thread_name=thread.name,
            segment=thread.segment,
            callstack=capture_stack(),
            location=location,
            in_handler=thread.in_handler,
            extra=extra or {},
        )
        for interceptor in self.interceptors:
            interceptor.before(event)
        thread.yield_control()
        # The sequence number is allocated only *after* the scheduling
        # point, immediately before the caller performs the operation:
        # other threads may run during the yield, and seq order must be
        # execution order (a read must never observe a higher-seq write).
        self._seq += 1
        event.seq = self._seq
        return event

    def post_op(self, event: OpEvent) -> None:
        for interceptor in self.interceptors:
            interceptor.after(event)

    def op(
        self, kind: OpKind, obj_id: Any, extra: Optional[dict] = None
    ) -> Optional[OpEvent]:
        event = self.pre_op(kind, obj_id, extra=extra)
        if event is not None:
            self.post_op(event)
        return event

    def register_heap_object(self, obj: object) -> None:
        self.heap_objects.append(obj)

    # -- execution ------------------------------------------------------------

    def run(self) -> RunResult:
        """Drive the simulation to completion and summarize the outcome."""
        if self._ran:
            raise ReproError("a Cluster can only run once; build a fresh one")
        self._ran = True
        completed = True
        try:
            self.scheduler.run()
        except DeadlockError as exc:
            completed = False
            self.failures.record(
                FailureEvent(
                    kind=FailureKind.DEADLOCK,
                    node="<cluster>",
                    thread=",".join(t.name for t in exc.blocked),
                    message=str(exc),
                    step=self.scheduler.steps,
                )
            )
        except HangError as exc:
            completed = False
            self.failures.record(
                FailureEvent(
                    kind=FailureKind.HANG,
                    node="<cluster>",
                    thread="<scheduler>",
                    message=str(exc),
                    step=self.scheduler.steps,
                )
            )
        return RunResult(
            name=self.name,
            seed=self.seed,
            steps=self.scheduler.steps,
            completed=completed,
            failures=self.failures,
            ops=self._seq,
        )

    def _record_thread_failure(self, thread: SimThread, exc: BaseException) -> None:
        kind = FailureKind.ABORT if isinstance(exc, SimAbort) else FailureKind.UNCAUGHT
        self.failures.record(
            FailureEvent(
                kind=kind,
                node=thread.node.name if thread.node is not None else "<none>",
                thread=thread.name,
                message=f"{type(exc).__name__}: {exc}",
                step=self.scheduler.steps,
            )
        )
