"""Failure-instruction identification (paper Section 4.1).

Four configurable classes, mirroring the paper:

1. system aborts/exits — calls to ``abort``/``exit`` methods;
2. severe printed errors — ``log.fatal`` / ``log.error`` calls;
3. uncatchable exceptions — ``raise`` statements (our mini systems treat
   any escaping exception as fatal, like a RuntimeException);
4. infinite loops — every loop-exit condition is a *potential* failure
   instruction (a hang if never satisfied).

The spec is configurable, "allowing future extension to detect DCbugs
with different failures" (paper Section 4.1 closing note).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from enum import Enum
from typing import FrozenSet, List

from repro.analysis.cfg import CFG, CFGNode


class FailureClass(Enum):
    ABORT = "abort"
    SEVERE_LOG = "severe_log"
    RAISE = "raise"
    LOOP_EXIT = "loop_exit"


@dataclass(frozen=True)
class FailureSpec:
    """Which instructions count as failures."""

    abort_methods: FrozenSet[str] = frozenset({"abort", "exit", "fatal_exit"})
    log_methods: FrozenSet[str] = frozenset({"fatal", "error"})
    log_receiver_hints: tuple = ("log",)
    raises_are_failures: bool = True
    loop_exits_are_failures: bool = True
    # Coordination-service calls that throw uncatchable exceptions
    # (NoNodeError / NodeExistsError) when their precondition is violated.
    throwing_methods: FrozenSet[str] = frozenset(
        {"create", "delete", "set_data", "get_data"}
    )
    throwing_receiver_hints: tuple = ("zk", "coord", "zoo")


DEFAULT_FAILURE_SPEC = FailureSpec()


@dataclass
class FailureInstruction:
    """One potential failure site inside a function."""

    cfg_node: CFGNode
    failure_class: FailureClass
    detail: str

    @property
    def line(self):
        return self.cfg_node.line


def find_failure_instructions(
    cfg: CFG, spec: FailureSpec = DEFAULT_FAILURE_SPEC
) -> List[FailureInstruction]:
    found: List[FailureInstruction] = []
    for node in cfg.statement_nodes():
        stmt = node.stmt
        if stmt is None:
            continue
        if isinstance(stmt, (ast.While, ast.For)) and node.kind == "cond":
            if spec.loop_exits_are_failures:
                found.append(
                    FailureInstruction(node, FailureClass.LOOP_EXIT, "loop exit")
                )
            continue
        if isinstance(stmt, ast.Raise) and spec.raises_are_failures:
            found.append(
                FailureInstruction(node, FailureClass.RAISE, _raise_detail(stmt))
            )
            continue
        for call in _calls_in_statement(stmt):
            if not isinstance(call.func, ast.Attribute):
                continue
            attr = call.func.attr
            if attr in spec.abort_methods:
                found.append(
                    FailureInstruction(node, FailureClass.ABORT, f"call to {attr}")
                )
            elif attr in spec.log_methods and _receiver_is_log(call.func, spec):
                found.append(
                    FailureInstruction(
                        node, FailureClass.SEVERE_LOG, f"log.{attr}"
                    )
                )
            elif attr in spec.throwing_methods and _receiver_matches(
                call.func, spec.throwing_receiver_hints
            ):
                if spec.raises_are_failures:
                    found.append(
                        FailureInstruction(
                            node, FailureClass.RAISE, f"throwing API {attr}"
                        )
                    )
    return found


def _calls_in_statement(stmt: ast.AST) -> List[ast.Call]:
    calls = []
    for child in ast.walk(stmt):
        if isinstance(child, ast.Call):
            calls.append(child)
        # Do not descend into nested function definitions.
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and child is not stmt:
            return [
                c
                for c in calls
                if not _within(c, child)
            ]
    return calls


def _within(node: ast.AST, container: ast.AST) -> bool:
    return any(child is node for child in ast.walk(container))


def _receiver_is_log(func: ast.Attribute, spec: FailureSpec) -> bool:
    return _receiver_matches(func, spec.log_receiver_hints)


def _receiver_matches(func: ast.Attribute, hints: tuple) -> bool:
    text = ast.dump(func.value).lower()
    return any(hint in text for hint in hints)


def _raise_detail(stmt: ast.Raise) -> str:
    if stmt.exc is None:
        return "re-raise"
    if isinstance(stmt.exc, ast.Call) and isinstance(stmt.exc.func, ast.Name):
        return f"raise {stmt.exc.func.id}"
    if isinstance(stmt.exc, ast.Name):
        return f"raise {stmt.exc.id}"
    return "raise"
