"""Reentrant locks for simulated threads.

Locks are *not* part of the DCatch HB model (they provide mutual
exclusion, not ordering — paper Section 2.3), but lock/unlock operations
are traced anyway because the trigger module needs critical-section
extents to place its request/confirm APIs without deadlocking the system
(paper Sections 3.1.1 "Other tracing" and 5.2).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SchedulerError  # noqa: F401  (raised on misuse below)
from repro.runtime.ops import OpKind
from repro.runtime.scheduler import SimThread, current_sim_thread


class SimLock:
    """A reentrant lock, acquired only at scheduling points."""

    def __init__(self, cluster: "object", name: str) -> None:
        self.cluster = cluster
        self.name = name
        self.uid = cluster.ids.next("lock")
        self._owner: Optional[SimThread] = None
        self._depth = 0

    def acquire(self) -> None:
        me = current_sim_thread()
        if self._owner is me:
            self._depth += 1
            return
        # Recheck loop: between our wake-up and being scheduled, another
        # waiter may have taken the lock.
        while True:
            me.block_until(lambda: self._owner is None, f"lock:{self.name}")
            if self._owner is None:
                break
        self._owner = me
        self._depth = 1
        self.cluster.op(OpKind.LOCK_ACQUIRE, self.uid, extra={"lock": self.name})

    def release(self) -> None:
        me = current_sim_thread()
        if self._owner is not me:
            raise SchedulerError(f"lock {self.name} released by non-owner {me.name}")
        if self._depth > 1:
            self._depth -= 1
            return
        self.cluster.op(OpKind.LOCK_RELEASE, self.uid, extra={"lock": self.name})
        self._depth = 0
        self._owner = None

    def __enter__(self) -> "SimLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class SimCondition:
    """A condition variable bound to a ``SimLock``.

    Note the modeling choice from the paper (Section 2.3): DCatch's HB
    model deliberately ignores notify/wait causality because it is
    "almost never used in the inter-node communication and computation
    part" of the studied systems.  We provide the primitive for intra-
    node code, and — exactly like the paper — the tracer records nothing
    for it, so waits/notifies contribute no HB edges.
    """

    def __init__(self, lock: SimLock) -> None:
        self.lock = lock
        self._generation = 0

    def wait(self) -> None:
        """Release the lock, wait for a notify, reacquire."""
        me = current_sim_thread()
        if self.lock._owner is not me:
            raise SchedulerError("condition wait without holding the lock")
        my_generation = self._generation
        depth = self.lock._depth
        self.lock._depth = 1
        self.lock.release()
        me.block_until(
            lambda: self._generation > my_generation,
            f"cond:{self.lock.name}",
        )
        self.lock.acquire()
        self.lock._depth = depth

    def wait_for(self, predicate) -> None:
        while not predicate():
            self.wait()

    def notify_all(self) -> None:
        me = current_sim_thread()
        if self.lock._owner is not me:
            raise SchedulerError("condition notify without holding the lock")
        self._generation += 1


class SimSemaphore:
    """A counting semaphore built on scheduler-level blocking."""

    def __init__(self, cluster: "object", name: str, permits: int = 1) -> None:
        if permits < 0:
            raise ValueError("permits must be non-negative")
        self.cluster = cluster
        self.name = name
        self._permits = permits

    def acquire(self) -> None:
        me = current_sim_thread()
        while True:
            me.block_until(lambda: self._permits > 0, f"sem:{self.name}")
            if self._permits > 0:
                self._permits -= 1
                return

    def release(self) -> None:
        self._permits += 1

    def __enter__(self) -> "SimSemaphore":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()
