"""Synchronous RPC (paper Section 2.1, Rule-Mrpc).

A thread on node ``n1`` calls an RPC method implemented by node ``n2`` and
blocks until the result comes back.  The four HB-relevant operations are
recorded with a shared per-call tag (the analogue of the paper's run-time
random tagging, Section 6):

* ``RPC_CREATE`` on the caller thread (``Create(r, n1)``),
* ``RPC_BEGIN`` / ``RPC_END`` on the server handler thread (``Begin``/
  ``End (r, n2)``) inside a fresh segment (Rule-Pnreg),
* ``RPC_JOIN`` on the caller thread after unblocking (``Join(r, n1)``).

Incoming calls sit in a FIFO request queue served by one or more handler
threads; the queue itself is abstracted away from the HB model exactly as
the paper's Rule-Mrpc abstracts away the RPC library internals.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro import obs
from repro.errors import ReproError, RpcError, RpcTimeout, SimFailure
from repro.runtime.ops import OpKind
from repro.runtime.scheduler import current_sim_thread

#: Latency buckets in scheduler steps (logical time, not seconds).
_LATENCY_STEP_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000)


class RpcRequest:
    """One in-flight RPC call."""

    def __init__(
        self, tag: str, method: str, args: tuple, kwargs: dict, caller: str
    ) -> None:
        self.tag = tag
        self.method = method
        self.args = args
        self.kwargs = kwargs
        self.caller = caller
        self.result: Any = None
        self.error: Optional[SimFailure] = None
        self.done = False
        #: The caller timed out and gave up; the server skips it unstarted.
        self.abandoned = False


class RpcServer:
    """Per-node RPC endpoint: registered methods + handler threads."""

    def __init__(self, node: "object", handler_threads: int = 1) -> None:
        self.node = node
        self.cluster = node.cluster
        self._methods: Dict[str, Callable] = {}
        self._queue: Deque[RpcRequest] = deque()
        self.handler_threads: List[object] = []
        for i in range(handler_threads):
            suffix = f"-{i}" if handler_threads > 1 else ""
            t = node.spawn(
                self._serve_loop, name=f"{node.name}.rpc{suffix}", daemon=True
            )
            self.handler_threads.append(t)

    def register(self, method: str, fn: Callable) -> None:
        if method in self._methods:
            raise ReproError(f"RPC method {method} already registered")
        self._methods[method] = fn

    def export(self, obj: object, prefix: str = "") -> None:
        """Register every public method of ``obj`` as an RPC method.

        The analogue of implementing a ``VersionedProtocol`` interface:
        the object *is* the protocol.
        """
        for name in dir(obj):
            if name.startswith("_"):
                continue
            fn = getattr(obj, name)
            if callable(fn):
                self.register(prefix + name, fn)

    def submit(self, request: RpcRequest) -> None:
        self._queue.append(request)

    def fail_pending(self, reason: str) -> int:
        """Fail every queued (unstarted) request — a crashed node answers
        nobody.  Blocked callers unblock with an ``RpcError`` instead of
        waiting forever on a reply that cannot come."""
        failed = 0
        while self._queue:
            request = self._queue.popleft()
            request.error = RpcError(
                f"RPC {request.method} to {self.node.name} failed: {reason}"
            )
            request.done = True
            failed += 1
        return failed

    def _ready(self) -> bool:
        return bool(self._queue) and not self.node.crashed

    def _serve_loop(self) -> None:
        me = current_sim_thread()
        while True:
            me.block_until(self._ready, f"rpc-server:{self.node.name}")
            if not self._ready():
                continue
            request = self._queue.popleft()
            if request.abandoned:
                continue  # the caller timed out before we started
            self._handle(request)

    def _handle(self, request: RpcRequest) -> None:
        fn = self._methods.get(request.method)
        thread = current_sim_thread()
        thread.push_segment()
        meta = {
            "method": request.method,
            "caller": request.caller,
            "handler": getattr(fn, "__qualname__", str(fn)),
            "handler_thread": thread.name,
            "handler_threads": len(self.handler_threads),
        }
        self.cluster.op(OpKind.RPC_BEGIN, request.tag, extra=dict(meta))
        try:
            if fn is None:
                request.error = RpcError(
                    f"{self.node.name}: no such RPC method {request.method}"
                )
            else:
                try:
                    request.result = fn(*request.args, **request.kwargs)
                except SimFailure as exc:
                    request.error = exc
        finally:
            self.cluster.op(OpKind.RPC_END, request.tag, extra=dict(meta))
            thread.pop_segment()
            request.done = True


def call_rpc(
    caller_node: "object",
    target_name: str,
    method: str,
    *args: Any,
    timeout: Optional[int] = None,
    attempt: int = 0,
    **kwargs: Any,
) -> Any:
    """Blocking RPC from the current thread to ``target_name.method``.

    ``timeout`` is a per-call deadline in scheduler steps; on expiry the
    call raises ``RpcTimeout``, abandons the queued request, and emits
    **no** ``RPC_JOIN`` record — a reply that was never observed creates
    no Rule-Mrpc edge.  ``attempt`` annotates retried calls (> 0) so the
    trace shows each attempt as its own Create/Begin/End/Join chain.
    """
    cluster = caller_node.cluster
    target = cluster.node(target_name)
    obs.counter("rpc_calls_total", "RPC calls issued").labels(
        method=method
    ).inc()
    start_clock = cluster.scheduler.clock
    if target.crashed:
        obs.counter("rpc_failures_total", "failed RPC attempts").labels(
            method=method, reason="crashed_target"
        ).inc()
        raise RpcError(f"RPC {method} to crashed node {target_name}")
    tag = cluster.ids.tag("rpc")
    meta = {"method": method, "target": target_name, "caller": caller_node.name}
    if attempt:
        meta["attempt"] = attempt
    cluster.op(OpKind.RPC_CREATE, tag, extra=dict(meta))
    if target.crashed:
        # The target crashed during the scheduling point above; the
        # orphaned Create record pairs with nothing and adds no edge.
        obs.counter("rpc_failures_total", "failed RPC attempts").labels(
            method=method, reason="crashed_target"
        ).inc()
        raise RpcError(f"RPC {method} to crashed node {target_name}")
    request = RpcRequest(tag, method, args, kwargs, caller_node.name)
    target.rpc_server.submit(request)
    me = current_sim_thread()
    if timeout is None:
        me.block_until(lambda: request.done, f"rpc:{method}@{target_name}")
    else:
        deadline = cluster.scheduler.clock + max(1, int(timeout))
        key = cluster.timeouts.register(deadline)
        try:
            me.block_until(
                lambda: request.done or cluster.scheduler.clock >= deadline,
                f"rpc:{method}@{target_name}",
            )
        finally:
            cluster.timeouts.unregister(key)
        if not request.done:
            request.abandoned = True
            obs.counter("rpc_timeouts_total", "RPC calls that timed out").labels(
                method=method
            ).inc()
            raise RpcTimeout(
                f"RPC {method} to {target_name} timed out "
                f"after {timeout} steps"
            )
    cluster.op(OpKind.RPC_JOIN, tag, extra=dict(meta))
    obs.histogram(
        "rpc_latency_steps",
        "RPC round-trip latency in scheduler steps",
        buckets=_LATENCY_STEP_BUCKETS,
    ).observe(cluster.scheduler.clock - start_clock)
    if request.error is not None:
        obs.counter("rpc_failures_total", "failed RPC attempts").labels(
            method=method, reason="handler_error"
        ).inc()
        raise request.error
    return request.result


def backoff_delay(
    attempt: int,
    base: int = 2,
    factor: int = 2,
    cap: int = 64,
    key: str = "",
) -> int:
    """Full-jitter exponential backoff: a delay drawn uniformly from
    ``[1, ceiling]`` where ``ceiling = min(cap, base * factor**attempt)``.

    Pure exponential backoff synchronizes retries: every client that
    failed together retries together, hammering the recovering server
    in waves.  Full jitter ("Exponential Backoff And Jitter", AWS
    Architecture Blog) spreads each wave across the whole window.  The
    draw is **deterministic** — a CRC32 hash of ``(key, attempt)``, no
    global RNG — so simulated schedules stay byte-reproducible while
    distinct callers (distinct keys) still disperse.  The detection
    service's client reuses this for wall-clock reconnect backoff.
    """
    ceiling = max(1, min(int(cap), max(1, int(base)) * int(factor) ** attempt))
    fraction = (
        zlib.crc32(f"{key}|{attempt}".encode("utf-8")) & 0xFFFFFFFF
    ) / 2**32
    return 1 + int(fraction * ceiling)


def call_with_retry(
    caller_node: "object",
    target_name: str,
    method: str,
    *args: Any,
    attempts: int = 3,
    timeout: Optional[int] = None,
    backoff_base: int = 2,
    backoff_factor: int = 2,
    max_backoff: int = 64,
    retry_on: tuple = (RpcError,),
    **kwargs: Any,
) -> Any:
    """``call_rpc`` with bounded retries and full-jitter backoff.

    Retries fire on transport failures (``RpcError`` — crashed target,
    timeout), never on application ``SimFailure``s raised by the handler
    (those propagate like a normal remote exception).  Each retry
    sleeps a :func:`backoff_delay` — uniform over an exponentially
    growing window (capped at ``max_backoff``), keyed by
    ``caller->target.method`` so concurrent callers that failed
    together *disperse* instead of retrying in lockstep, yet every
    schedule stays deterministic (the jitter is a hash, not an RNG).
    Each attempt allocates its own RPC tag: a failed attempt
    contributes no HB edge and no edge ties one attempt to another.
    """
    from repro.runtime.api import sleep

    if attempts < 1:
        raise ReproError("call_with_retry needs at least one attempt")
    jitter_key = f"{caller_node.name}->{target_name}.{method}"
    last_error: Optional[SimFailure] = None
    for attempt in range(attempts):
        try:
            return call_rpc(
                caller_node,
                target_name,
                method,
                *args,
                timeout=timeout,
                attempt=attempt,
                **kwargs,
            )
        except retry_on as exc:
            last_error = exc
            if attempt == attempts - 1:
                break
            obs.counter("rpc_retries_total", "RPC attempts retried").labels(
                method=method
            ).inc()
            sleep(
                backoff_delay(
                    attempt,
                    base=backoff_base,
                    factor=backoff_factor,
                    cap=max_backoff,
                    key=jitter_key,
                )
            )
    raise last_error


class RpcProxy:
    """Attribute-style sugar: ``node.rpc("AM").get_task(jid)``.

    ``node.rpc("AM", timeout=20, retries=2)`` returns a robust proxy:
    each call gets a per-call timeout (scheduler steps) and up to
    ``retries`` retransmissions with :func:`call_with_retry`'s
    deterministic exponential backoff.  The default proxy (no options)
    is the classic die-on-failure call.
    """

    def __init__(
        self,
        caller_node: "object",
        target_name: str,
        timeout: Optional[int] = None,
        retries: int = 0,
    ) -> None:
        self._caller = caller_node
        self._target = target_name
        self._timeout = timeout
        self._retries = retries

    def __getattr__(self, method: str) -> Callable:
        def invoke(*args: Any, **kwargs: Any) -> Any:
            if self._retries or self._timeout is not None:
                return call_with_retry(
                    self._caller,
                    self._target,
                    method,
                    *args,
                    attempts=self._retries + 1,
                    timeout=self._timeout,
                    **kwargs,
                )
            return call_rpc(self._caller, self._target, method, *args, **kwargs)

        invoke.__name__ = method
        return invoke
