"""Tracing scope policies (paper Section 3.1.1, "Which operations to trace?").

DCatch's key scalability decision is *selective* memory-access tracing:
record accesses only inside (1) RPC functions, (2) functions that conduct
socket/communication operations, and (3) event-handler functions — and
their callees.  Everything else is skipped, which Table 8 shows is the
difference between tractable and out-of-memory analysis.

Our equivalents:

* handler extents (RPC / event / message / watch callbacks) are known
  dynamically — the runtime marks records with ``in_handler``;
* "functions that conduct communication" are found by a static scan of the
  system-under-test source (the WALA-analog pre-pass): any function whose
  body syntactically performs a communication call.  An access qualifies
  if any frame of its call stack is such a function (dynamic extent =
  "and their callees").

HB-related operations and lock operations are always traced, as in the
paper.
"""

from __future__ import annotations

import ast
import inspect
from types import ModuleType
from typing import Iterable, Set

from repro.runtime.ops import OpEvent

#: Method names whose invocation marks a function as "conducting
#: communication".  Mirrors the paper's list: RPC invocation, socket send,
#: and coordination-service updates.
COMM_CALL_NAMES = frozenset(
    {
        "rpc",
        "call_rpc",
        "send",
        "set_data",
        "expire_session",
    }
)

#: ``create``/``delete`` are only communication when called on a
#: coordination-service client (too generic otherwise).
ZK_ONLY_CALL_NAMES = frozenset({"create", "delete"})
ZK_RECEIVER_HINTS = ("zk", "coord", "zoo")


class TracingScope:
    """Decides which memory accesses the tracer keeps."""

    name = "abstract"

    def should_trace_mem(self, event: OpEvent) -> bool:
        raise NotImplementedError


class FullScope(TracingScope):
    """Unselective tracing — the Table 8 alternative design."""

    name = "full"

    def should_trace_mem(self, event: OpEvent) -> bool:
        return True


class SelectiveScope(TracingScope):
    """The paper's policy: handlers + communication-conducting functions."""

    name = "selective"

    def __init__(self, comm_functions: Iterable[str] = ()) -> None:
        self.comm_functions: Set[str] = set(comm_functions)

    def should_trace_mem(self, event: OpEvent) -> bool:
        if event.in_handler:
            return True
        return any(f.func in self.comm_functions for f in event.callstack)


class _CommCallFinder(ast.NodeVisitor):
    """Does this function body contain a communication call — and which
    other functions does it invoke (for the call-graph closure)?

    Nested ``def``s are *not* descended into: their bodies run when the
    nested function is called, not when the enclosing one does, so a
    comm call inside a nested helper must not mark the outer function as
    directly communicating.  (``ast.walk`` scans the nested def as its
    own node.)  Instead the outer function gets a call-graph edge to the
    nested name — both when it calls it and when it merely *passes* it
    (``spawn(worker)``, ``Thread(target=worker)``), so the closure still
    reaches functions that hand a comm closure to a thread."""

    def __init__(self) -> None:
        self.found = False
        self.called: Set[str] = set()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # scanned as its own call-graph node; defining is not using

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
            if name in COMM_CALL_NAMES:
                self.found = True
            elif name in ZK_ONLY_CALL_NAMES and _receiver_is_zk(func.value):
                self.found = True
            else:
                self.called.add(name)
        elif isinstance(func, ast.Name):
            if func.id in COMM_CALL_NAMES:
                self.found = True
            else:
                self.called.add(func.id)
        # Higher-order uses: a function passed as an argument may run in
        # the callee's (or a spawned thread's) dynamic extent.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Name):
                self.called.add(arg.id)
            elif isinstance(arg, ast.Attribute):
                self.called.add(arg.attr)
        self.generic_visit(node)


def _receiver_is_zk(value: ast.expr) -> bool:
    text = ast.dump(value).lower()
    return any(hint in text for hint in ZK_RECEIVER_HINTS)


def _scan_source(source: str) -> "tuple[Set[str], dict]":
    """One source file: (directly-communicating functions, call edges)."""
    tree = ast.parse(source)
    direct: Set[str] = set()
    calls: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            finder = _CommCallFinder()
            for stmt in node.body:
                finder.visit(stmt)
            if finder.found:
                direct.add(node.name)
            calls.setdefault(node.name, set()).update(finder.called)
    return direct, calls


def _closure_qualified(
    direct: Set[tuple], calls: dict, defined_in: dict
) -> Set[tuple]:
    """Call-graph closure over ``(module, name)``-qualified nodes: the
    interprocedural step (the WALA analog is a call-graph walk).  A
    function that calls a communicating function conducts communication
    itself — ``_run_container`` stays a comm function after its RPCs
    move behind an ``_am()`` retry helper.

    A bare callee name resolves to the same-module definition when one
    exists (shadowing wins), otherwise to *every* module that defines
    it — cross-module helpers still propagate, but two unrelated
    same-named functions in different modules no longer collapse into
    one call-graph node (which used to inflate the closure)."""
    edges: dict = {}
    for node, callees in calls.items():
        module_index, _ = node
        targets: Set[tuple] = set()
        for callee in callees:
            homes = defined_in.get(callee)
            if not homes:
                continue  # external / builtin
            if module_index in homes:
                targets.add((module_index, callee))
            else:
                targets.update((home, callee) for home in homes)
        edges[node] = targets
    result = set(direct)
    changed = True
    while changed:
        changed = False
        for node, targets in edges.items():
            if node not in result and targets & result:
                result.add(node)
                changed = True
    return result


def find_comm_functions_in_sources(sources: Iterable[str]) -> Set[str]:
    """Multi-source scan with per-module call-graph qualification."""
    direct: Set[tuple] = set()
    calls: dict = {}
    defined_in: dict = {}
    for module_index, source in enumerate(sources):
        module_direct, module_calls = _scan_source(source)
        for name in module_calls:
            defined_in.setdefault(name, set()).add(module_index)
        direct |= {(module_index, name) for name in module_direct}
        for func, callees in module_calls.items():
            calls.setdefault((module_index, func), set()).update(callees)
    return {name for _, name in _closure_qualified(direct, calls, defined_in)}


def find_comm_functions(modules: Iterable[ModuleType]) -> Set[str]:
    """Static pre-pass over system-under-test modules (the WALA analog).

    The closure runs over all modules together — a helper defined in
    one module propagates to its callers in another — but call-graph
    nodes are qualified per module, so same-named functions in
    different modules stay distinct.  The returned names are bare
    (``SelectiveScope`` matches run-time frames by function name).
    """
    sources = []
    for module in modules:
        try:
            sources.append(inspect.getsource(module))
        except (OSError, TypeError):
            continue
    return find_comm_functions_in_sources(sources)


def selective_scope_for(modules: Iterable[ModuleType]) -> SelectiveScope:
    return SelectiveScope(find_comm_functions(modules))
