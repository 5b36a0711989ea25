"""Source indexing for static analysis.

The paper's static pruning runs WALA over Java bytecode.  Our systems are
Python, so the equivalent program representation is the ``ast`` of the
system-under-test modules.  ``SourceIndex`` parses a set of modules and
answers the queries the pruner needs:

* function containing a given (file, line) — to anchor a traced access;
* all functions by name — for one-level caller/callee hops;
* call sites of a function — a name-based call graph, which matches the
  paper's accuracy-conscious "one-level" inter-procedural analysis.
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import dataclass
from types import ModuleType
from typing import Dict, Iterable, List, Optional

#: Heap accessor method names, split by effect.  These identify "the
#: memory access expression" at a traced line.
READ_METHODS = frozenset(
    {
        "get",
        "contains",
        "size",
        "is_empty",
        "keys",
        "items",
        "snapshot",
        "get_data",
        "exists",
        "get_children",
    }
)
WRITE_METHODS = frozenset(
    {
        "set",
        "put",
        "remove",
        "clear",
        "add",
        "append",
        "discard",
        "pop_first",
        "increment",
        "compare_and_set",
        "create",
        "delete",
        "set_data",
    }
)
ACCESS_METHODS = READ_METHODS | WRITE_METHODS


@dataclass
class FunctionInfo:
    """One function definition plus its location."""

    name: str
    path: str  # shortened, matches trace Frame.path convention
    node: ast.FunctionDef
    first_line: int
    last_line: int

    def contains_line(self, line: int) -> bool:
        return self.first_line <= line <= self.last_line


@dataclass
class CallSite:
    """A call to some known function, inside another function."""

    caller: FunctionInfo
    call: ast.Call
    line: int


def _shorten(path: str) -> str:
    for marker in ("src/repro/", "repro/"):
        idx = path.rfind(marker)
        if idx >= 0:
            return path[idx:]
    parts = path.rsplit("/", 2)
    return "/".join(parts[-2:]) if len(parts) > 1 else path


class SourceIndex:
    """Parsed view of the system-under-test sources."""

    def __init__(self) -> None:
        self._functions: List[FunctionInfo] = []
        self._by_name: Dict[str, List[FunctionInfo]] = {}
        self._by_path: Dict[str, List[FunctionInfo]] = {}
        self._call_sites: Dict[str, List[CallSite]] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_modules(cls, modules: Iterable[ModuleType]) -> "SourceIndex":
        index = cls()
        for module in modules:
            try:
                source = inspect.getsource(module)
                path = inspect.getsourcefile(module) or "<unknown>"
            except (OSError, TypeError):
                continue
            index.add_source(source, path)
        index._build_call_graph()
        return index

    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "SourceIndex":
        """``{path: source}`` — used heavily by tests."""
        index = cls()
        for path, source in sources.items():
            index.add_source(source, path)
        index._build_call_graph()
        return index

    def add_source(self, source: str, path: str) -> None:
        short = _shorten(path)
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    name=node.name,
                    path=short,
                    node=node,
                    first_line=node.lineno,
                    last_line=_max_line(node),
                )
                self._functions.append(info)
                self._by_name.setdefault(node.name, []).append(info)
                self._by_path.setdefault(short, []).append(info)

    def _build_call_graph(self) -> None:
        self._call_sites = {}
        for fn in self._functions:
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                name = call_target_name(node)
                if name is None:
                    continue
                self._call_sites.setdefault(name, []).append(
                    CallSite(caller=fn, call=node, line=node.lineno)
                )

    # -- queries --------------------------------------------------------------

    def functions(self) -> List[FunctionInfo]:
        return list(self._functions)

    def function_at(self, path: str, line: int) -> Optional[FunctionInfo]:
        """Innermost function containing (path, line)."""
        candidates = [
            fn
            for fn in self._by_path.get(_shorten(path), [])
            if fn.contains_line(line)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda fn: fn.last_line - fn.first_line)

    def functions_named(self, name: str) -> List[FunctionInfo]:
        return list(self._by_name.get(name, []))

    def callers_of(self, name: str) -> List[CallSite]:
        return list(self._call_sites.get(name, []))


def _max_line(node: ast.AST) -> int:
    result = getattr(node, "lineno", 0)
    for child in ast.walk(node):
        line = getattr(child, "end_lineno", getattr(child, "lineno", 0)) or 0
        if line > result:
            result = line
    return result


def call_target_name(call: ast.Call) -> Optional[str]:
    """The bare name a call dispatches to, if recognizable."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def access_calls_at_line(fn: FunctionInfo, line: int) -> List[ast.Call]:
    """Heap-access calls (``x.get(...)``, ``m.put(...)``) at a line."""
    result = []
    for node in ast.walk(fn.node):
        if (
            isinstance(node, ast.Call)
            and getattr(node, "lineno", None) == line
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ACCESS_METHODS
        ):
            result.append(node)
    return result


def attribute_paths_used(node: ast.AST) -> List[str]:
    """Dotted paths like ``self.tasks`` read inside ``node``."""
    result = []
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            path = _attr_path(child)
            if path is not None:
                result.append(path)
    return result


def receiver_paths(call: ast.Call) -> List[str]:
    """Dotted paths of a heap-access call's receiver.

    For ``self.accepted_epoch.set(v)`` this is ``["self.accepted_epoch"]``
    — used to connect accesses to the *same heap object* within a
    function (any other access to that object is value-related).
    """
    if not isinstance(call.func, ast.Attribute):
        return []
    value = call.func.value
    if isinstance(value, ast.Attribute):
        path = _attr_path(value)
        return [path] if path else []
    if isinstance(value, ast.Name):
        return [value.id]
    return []


def _attr_path(node: ast.Attribute) -> Optional[str]:
    parts = [node.attr]
    value = node.value
    while isinstance(value, ast.Attribute):
        parts.append(value.attr)
        value = value.value
    if isinstance(value, ast.Name):
        parts.append(value.id)
        return ".".join(reversed(parts))
    return None
