"""Exception hierarchy for the DCatch reproduction.

Three families live here:

* ``ReproError`` — programming/usage errors in this library itself.
* ``SimFailure`` — failures *inside* a simulated distributed system
  (aborts, fatal conditions).  These are part of the modeled behaviour:
  the runtime catches them and turns them into failure events.
* ``ThreadKilled`` — internal control-flow signal used to tear down
  simulated threads at the end of a run.  It derives from
  ``BaseException`` so workload code that catches ``Exception`` cannot
  swallow it.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for errors raised by the library itself."""


class UnknownBenchmarkError(ReproError, KeyError):
    """A benchmark/system/workload name did not resolve.

    Derives from ``KeyError`` for backwards compatibility with callers
    that caught the registry's original exception; the CLI catches it to
    exit with a one-line error instead of a traceback.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


class SchedulerError(ReproError):
    """The cooperative scheduler reached an inconsistent internal state."""


class DeadlockError(ReproError):
    """Every non-daemon simulated thread is blocked and cannot make progress."""

    def __init__(self, message: str, blocked: list):
        super().__init__(message)
        self.blocked = blocked


class HangError(ReproError):
    """The simulation exceeded its step budget (livelock / infinite loop)."""

    def __init__(self, message: str, steps: int):
        super().__init__(message)
        self.steps = steps


class TraceFormatError(ReproError):
    """A trace on disk (a WAL directory) could not be decoded.

    Raised for malformed records, unknown schema versions and, by the
    strict ``Trace.load``, any damage (named by file and byte offset).
    The CLI catches it and exits with a one-line error (status 2).  The
    WAL *salvage* path never raises it — damaged records are quarantined
    into the ``SalvageReport`` instead.
    """


class ServiceError(ReproError):
    """The detection service (or its client) hit a protocol-level error.

    Carries the structured error ``code`` from the wire (``over_capacity``,
    ``quarantined``, ``bad_segment``, ...) plus an optional server-suggested
    ``retry_after_s``.  Transient codes are retried by the client's backoff
    loop; terminal codes (quarantined, protocol violations) propagate."""

    def __init__(
        self,
        message: str,
        code: str = "error",
        retry_after_s: "float | None" = None,
    ):
        super().__init__(message)
        self.code = code
        self.retry_after_s = retry_after_s


class TraceAnalysisOOM(ReproError):
    """Trace analysis would exceed the configured memory budget.

    This reproduces the paper's Table 8 observation that unselective
    memory tracing makes the HB analysis run out of memory.
    """

    def __init__(self, message: str, required_bytes: int, budget_bytes: int):
        super().__init__(message)
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes

    def __reduce__(self):
        # Default exception pickling replays __init__ with self.args
        # (just the message) and would drop the byte counts.
        return (
            type(self),
            (self.args[0], self.required_bytes, self.budget_bytes),
        )


class SimFailure(Exception):
    """Base class for failures raised by simulated system code."""


class SimAbort(SimFailure):
    """A node called ``abort()`` (the analogue of ``System.exit``)."""


class RpcError(SimFailure):
    """An RPC call failed (remote handler raised, or target unreachable)."""


class RpcTimeout(RpcError):
    """An RPC call exceeded its per-call timeout (in scheduler steps).

    The caller gave up on the reply; the remote handler may still run to
    completion.  No ``RPC_JOIN`` record is emitted for the timed-out
    attempt, so the abandoned call contributes no Rule-Mrpc edge (the
    server's ``End`` could otherwise be ordered *after* the caller's
    ``Join`` — a backward edge)."""


class NoNodeError(SimFailure):
    """Coordination-service operation on a znode that does not exist."""


class NodeExistsError(SimFailure):
    """Coordination-service create of a znode that already exists."""


class ThreadKilled(BaseException):
    """Internal: a simulated thread is being torn down at end of run."""
