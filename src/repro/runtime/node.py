"""A simulated node: threads, RPC endpoint, sockets, queues, heap, locks."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.runtime import failures as failures_mod
from repro.runtime.events import EventQueue
from repro.runtime.heap import (
    SharedCounter,
    SharedDict,
    SharedList,
    SharedSet,
    SharedVar,
)
from repro.runtime.locks import SimLock
from repro.runtime.ops import OpKind
from repro.runtime.rpc import RpcProxy, RpcServer
from repro.runtime.scheduler import SimThread, ThreadState, current_sim_thread
from repro.runtime.sockets import SocketManager


class NodeBehavior:
    """Base class for system components that own per-node state.

    A behavior attached via ``node.attach(self)`` is notified when the
    node restarts after a crash (``Node.restart()``): its ``on_restart``
    hook re-bootstraps whatever in-memory state the crash invalidated —
    re-registering tokens, resetting handshake flags, re-announcing
    membership.  Hooks run on the thread that called ``restart()`` (the
    fault injector), so any shared-state writes they perform are traced
    as that thread's operations."""

    def on_restart(self, node: "Node") -> None:  # pragma: no cover - default
        pass


class Node:
    """One machine of the simulated distributed system."""

    def __init__(
        self,
        cluster: "object",
        name: str,
        traced: bool = True,
        rpc_threads: int = 1,
        msg_threads: int = 1,
    ) -> None:
        self.cluster = cluster
        self.name = name
        self.traced = traced
        self.crashed = False
        self.log = failures_mod.Logger(
            self, cluster.failures, verbose=cluster.verbose
        )
        self.rpc_server = RpcServer(self, handler_threads=rpc_threads)
        self.sockets = SocketManager(self, dispatch_threads=msg_threads)
        self._queues: Dict[str, EventQueue] = {}
        self._locks: Dict[str, SimLock] = {}
        self._zk_client: Optional[object] = None
        self.restarts = 0
        self._behaviors: List[NodeBehavior] = []
        self._restart_hooks: List[Callable[[], None]] = []

    # -- threads ------------------------------------------------------------

    def spawn(
        self, fn: Callable[[], None], name: Optional[str] = None, daemon: bool = False
    ) -> SimThread:
        """Fork a thread on this node (records Rule-Tfork's Create/Begin)."""
        label = name or getattr(fn, "__name__", "thread")
        if not label.startswith(f"{self.name}."):
            label = f"{self.name}.{label}"
        tid_holder: Dict[str, int] = {}

        def wrapper() -> None:
            self.cluster.op(OpKind.THREAD_BEGIN, tid_holder["tid"])
            fn()
            self.cluster.op(OpKind.THREAD_END, tid_holder["tid"])

        thread = self.cluster.scheduler.spawn(
            wrapper, name=label, node=self, daemon=daemon, start=False
        )
        tid_holder["tid"] = thread.tid
        # Record the fork before the child becomes runnable, so
        # Create(t) precedes Begin(t) in execution order (Rule-Tfork).
        self.cluster.op(OpKind.THREAD_CREATE, thread.tid, extra={"child": label})
        thread.start()
        return thread

    def join(self, thread: SimThread) -> None:
        """Wait for ``thread`` to finish (records Rule-Tjoin's Join)."""
        me = current_sim_thread()
        me.block_until(
            lambda: thread.state in (ThreadState.DONE, ThreadState.FAILED),
            f"join:{thread.name}",
        )
        self.cluster.op(OpKind.THREAD_JOIN, thread.tid, extra={"child": thread.name})

    # -- communication ------------------------------------------------------

    def rpc(
        self, target_name: str, timeout: Optional[int] = None, retries: int = 0
    ) -> RpcProxy:
        """An RPC proxy to ``target_name``; pass ``timeout`` (scheduler
        steps) and/or ``retries`` for a fault-tolerant caller."""
        return RpcProxy(self, target_name, timeout=timeout, retries=retries)

    def send(self, target_name: str, verb: str, payload: Any = None) -> str:
        return self.sockets.send(target_name, verb, payload)

    def on_message(self, verb: str, handler: Callable[[Any, str], None]) -> None:
        self.sockets.register(verb, handler)

    def event_queue(self, name: str, consumers: int = 1) -> EventQueue:
        queue = self._queues.get(name)
        if queue is None:
            queue = EventQueue(self, name, consumers=consumers)
            self._queues[name] = queue
        return queue

    def zk(self, service_name: str = "zk") -> "object":
        if self._zk_client is None:
            from repro.runtime.zookeeper import ZkClient

            self._zk_client = ZkClient(self, service_name)
        return self._zk_client

    # -- state --------------------------------------------------------------

    def shared_var(self, name: str, initial: Any = None) -> SharedVar:
        return SharedVar(self.cluster, f"{self.name}.{name}", initial, node=self)

    def shared_dict(self, name: str) -> SharedDict:
        return SharedDict(self.cluster, f"{self.name}.{name}", node=self)

    def shared_list(self, name: str) -> SharedList:
        return SharedList(self.cluster, f"{self.name}.{name}", node=self)

    def shared_set(self, name: str) -> SharedSet:
        return SharedSet(self.cluster, f"{self.name}.{name}", node=self)

    def shared_counter(self, name: str, initial: int = 0) -> SharedCounter:
        return SharedCounter(self.cluster, f"{self.name}.{name}", initial, node=self)

    def lock(self, name: str) -> SimLock:
        lock = self._locks.get(name)
        if lock is None:
            lock = SimLock(self.cluster, f"{self.name}.{name}")
            self._locks[name] = lock
        return lock

    # -- failure ------------------------------------------------------------

    def abort(self, message: str) -> None:
        """The analogue of ``System.exit`` — a failure instruction."""
        failures_mod.abort(self, message)

    def crash(self) -> None:
        """Mark the node dead: future RPCs to it fail, messages are dropped.

        Everything in flight dies with it — the pending inbox is purged
        (counted as dropped) and queued-but-unstarted RPC requests fail,
        unblocking remote callers with an ``RpcError`` instead of leaving
        them waiting on a reply that can never come."""
        if self.crashed:
            return
        self.crashed = True
        self.sockets.purge()
        self.rpc_server.fail_pending("node crashed")
        self.cluster.notify_node_crash(self)
        self.log.warn("node crashed")

    def restart(self) -> None:
        """Bring a crashed node back: accept RPCs/messages again and give
        every attached ``NodeBehavior`` (and ``on_restart`` hook) a chance
        to re-bootstrap its state.  A no-op on a live node."""
        if not self.crashed:
            return
        self.crashed = False
        self.restarts += 1
        self.log.info(f"node restarted (restart #{self.restarts})")
        for behavior in self._behaviors:
            behavior.on_restart(self)
        for hook in self._restart_hooks:
            hook()

    def attach(self, behavior: NodeBehavior) -> NodeBehavior:
        """Register a component whose ``on_restart`` re-bootstraps state."""
        self._behaviors.append(behavior)
        return behavior

    def on_restart(self, hook: Callable[[], None]) -> None:
        """Register a bare callable invoked after every restart."""
        self._restart_hooks.append(hook)

    def __repr__(self) -> str:
        return f"<Node {self.name}{' (crashed)' if self.crashed else ''}>"
