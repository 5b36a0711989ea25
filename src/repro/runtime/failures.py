"""Failure events and per-node logging.

The paper's static pruning (Section 4.1) defines four classes of *failure
instructions*: aborts/exits, ``Log::fatal``/``Log::error`` invocations,
uncatchable exceptions, and infinite loops.  The runtime mirrors those as
observable failure events so the trigger module can tell harmful schedules
from benign ones:

* ``node.abort(msg)`` — the analogue of ``System.exit``;
* ``log.fatal`` — a severe printed error (``log.error`` is recorded too,
  but counts as noise: real systems error-log tolerated conditions);
* an exception escaping a simulated thread — uncatchable exception;
* ``DeadlockError`` / ``HangError`` from the scheduler — hangs.

``FailureKind.severe`` separates the harmful kinds from the noisy ones;
``FailureLog.harmful()`` (and therefore every trigger verdict) only
considers severe events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List

from repro.errors import SimAbort
from repro.ids import CallStack, capture_stack


class FailureKind(Enum):
    ABORT = "abort"
    FATAL_LOG = "fatal_log"
    ERROR_LOG = "error_log"
    UNCAUGHT = "uncaught_exception"
    DEADLOCK = "deadlock"
    HANG = "hang"

    @property
    def severe(self) -> bool:
        """Whether this failure makes a run *harmful* (vs. merely noisy).

        ``log.error`` lines are noise in real cloud systems — they fire on
        tolerated intermediate states and retried operations — so only
        aborts, fatal logs, uncatchable exceptions, deadlocks and hangs
        count toward a harmful verdict."""
        return self is not FailureKind.ERROR_LOG


@dataclass
class FailureEvent:
    kind: FailureKind
    node: str
    thread: str
    message: str
    callstack: CallStack = field(default_factory=CallStack)

    def __str__(self) -> str:
        return f"[{self.kind.value}] {self.node}/{self.thread}: {self.message}"


class FailureLog:
    """Cluster-wide sink for failure events."""

    def __init__(self) -> None:
        self.events: List[FailureEvent] = []

    def record(self, event: FailureEvent) -> None:
        self.events.append(event)

    def harmful(self) -> bool:
        """True when any *severe* failure was recorded; noisy error-log
        events alone do not make a run harmful."""
        return any(e.kind.severe for e in self.events)

    def kinds(self) -> List[FailureKind]:
        return [e.kind for e in self.events]

    def by_kind(self, kind: FailureKind) -> List[FailureEvent]:
        return [e for e in self.events if e.kind is kind]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


class Logger:
    """Per-node logger; ``error``/``fatal`` double as failure instructions."""

    def __init__(self, node: "object", failure_log: FailureLog, verbose: bool = False):
        self._node = node
        self._failures = failure_log
        self._verbose = verbose
        self.lines: List[str] = []

    def _emit(self, level: str, message: str) -> None:
        line = f"{level:5s} {self._node.name}: {message}"
        self.lines.append(line)
        if self._verbose:
            print(line)

    def debug(self, message: str) -> None:
        self._emit("DEBUG", message)

    def info(self, message: str) -> None:
        self._emit("INFO", message)

    def warn(self, message: str) -> None:
        self._emit("WARN", message)

    def error(self, message: str) -> None:
        self._emit("ERROR", message)
        self._record_failure(FailureKind.ERROR_LOG, message)

    def fatal(self, message: str) -> None:
        self._emit("FATAL", message)
        self._record_failure(FailureKind.FATAL_LOG, message)

    def _record_failure(self, kind: FailureKind, message: str) -> None:
        from repro.runtime.scheduler import maybe_current_sim_thread

        thread = maybe_current_sim_thread()
        self._failures.record(
            FailureEvent(
                kind=kind,
                node=self._node.name,
                thread=thread.name if thread else "<main>",
                message=message,
                callstack=capture_stack(),
            )
        )


def abort(node: "object", message: str) -> None:
    """Abort the current node: the analogue of ``System.exit``.

    Raises ``SimAbort`` which escapes the simulated thread; the cluster's
    failure handler records an ABORT failure event.
    """
    raise SimAbort(f"{node.name}: {message}")
