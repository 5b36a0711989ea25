"""Statement-level control-flow graphs for Python functions.

The unit the pruner reasons about is the CFG node: a simple statement, or
the condition of an ``if``/``while``/``for``.  Construction threads a
"frontier" of dangling edges through the statement list, with loop-
context stacks for ``break``/``continue`` and an exit node collecting
``return``/``raise``/fall-through.

``try`` blocks are approximated: handlers are entered from every node of
the try body (any statement may raise), ``finally`` follows both.  This
over-approximates flow, which for pruning purposes errs on the safe side
(more dependence → fewer candidates pruned).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

KIND_ENTRY = "entry"
KIND_EXIT = "exit"
KIND_STMT = "stmt"
KIND_COND = "cond"  # if/while test, for iterator


@dataclass
class CFGNode:
    nid: int
    kind: str
    stmt: Optional[ast.AST] = None
    label: str = ""
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)

    @property
    def line(self) -> Optional[int]:
        return getattr(self.stmt, "lineno", None)


class CFG:
    """Control-flow graph of one function body."""

    def __init__(self) -> None:
        self.nodes: List[CFGNode] = []
        self.entry = self._new(KIND_ENTRY, label="<entry>")
        self.exit = self._new(KIND_EXIT, label="<exit>")

    def _new(
        self, kind: str, stmt: Optional[ast.AST] = None, label: str = ""
    ) -> CFGNode:
        node = CFGNode(nid=len(self.nodes), kind=kind, stmt=stmt, label=label)
        self.nodes.append(node)
        return node

    def add_edge(self, src: int, dst: int) -> None:
        if dst not in self.nodes[src].succs:
            self.nodes[src].succs.append(dst)
            self.nodes[dst].preds.append(src)

    def statement_nodes(self) -> List[CFGNode]:
        return [n for n in self.nodes if n.kind in (KIND_STMT, KIND_COND)]


class _LoopContext:
    def __init__(self, cond_id: int) -> None:
        self.cond_id = cond_id
        self.breaks: List[int] = []


class CFGBuilder:
    """Builds a ``CFG`` from an ``ast.FunctionDef``."""

    def __init__(self) -> None:
        self.cfg = CFG()
        self._loops: List[_LoopContext] = []

    def build(self, fn: ast.FunctionDef) -> CFG:
        frontier = [self.cfg.entry.nid]
        frontier = self._sequence(fn.body, frontier)
        for nid in frontier:
            self.cfg.add_edge(nid, self.cfg.exit.nid)
        return self.cfg

    # -- helpers ----------------------------------------------------------

    def _sequence(self, stmts: Sequence[ast.stmt], frontier: List[int]) -> List[int]:
        for stmt in stmts:
            frontier = self._statement(stmt, frontier)
        return frontier

    def _connect(self, frontier: List[int], node_id: int) -> None:
        for nid in frontier:
            self.cfg.add_edge(nid, node_id)

    def _statement(self, stmt: ast.stmt, frontier: List[int]) -> List[int]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier)
        if isinstance(stmt, ast.While):
            return self._while(stmt, frontier)
        if isinstance(stmt, ast.For):
            return self._for(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)
        if isinstance(stmt, ast.With):
            node = self.cfg._new(KIND_STMT, stmt, label="with")
            self._connect(frontier, node.nid)
            return self._sequence(stmt.body, [node.nid])
        if isinstance(stmt, (ast.Return, ast.Raise)):
            node = self.cfg._new(KIND_STMT, stmt, label=type(stmt).__name__.lower())
            self._connect(frontier, node.nid)
            self.cfg.add_edge(node.nid, self.cfg.exit.nid)
            return []
        if isinstance(stmt, ast.Break):
            node = self.cfg._new(KIND_STMT, stmt, label="break")
            self._connect(frontier, node.nid)
            if self._loops:
                self._loops[-1].breaks.append(node.nid)
            return []
        if isinstance(stmt, ast.Continue):
            node = self.cfg._new(KIND_STMT, stmt, label="continue")
            self._connect(frontier, node.nid)
            if self._loops:
                self.cfg.add_edge(node.nid, self._loops[-1].cond_id)
            return []
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # Nested definitions execute as one step (the body is analyzed
            # separately when that function is anchored).
            node = self.cfg._new(KIND_STMT, stmt, label=f"def {stmt.name}")
            self._connect(frontier, node.nid)
            return [node.nid]
        node = self.cfg._new(KIND_STMT, stmt, label=type(stmt).__name__)
        self._connect(frontier, node.nid)
        return [node.nid]

    def _if(self, stmt: ast.If, frontier: List[int]) -> List[int]:
        cond = self.cfg._new(KIND_COND, stmt, label="if")
        self._connect(frontier, cond.nid)
        then_exit = self._sequence(stmt.body, [cond.nid])
        if stmt.orelse:
            else_exit = self._sequence(stmt.orelse, [cond.nid])
            return then_exit + else_exit
        return then_exit + [cond.nid]

    def _while(self, stmt: ast.While, frontier: List[int]) -> List[int]:
        cond = self.cfg._new(KIND_COND, stmt, label="while")
        self._connect(frontier, cond.nid)
        ctx = _LoopContext(cond.nid)
        self._loops.append(ctx)
        body_exit = self._sequence(stmt.body, [cond.nid])
        self._loops.pop()
        for nid in body_exit:
            self.cfg.add_edge(nid, cond.nid)
        exits = [cond.nid] + ctx.breaks
        if stmt.orelse:
            exits = self._sequence(stmt.orelse, [cond.nid]) + ctx.breaks
        return exits

    def _for(self, stmt: ast.For, frontier: List[int]) -> List[int]:
        cond = self.cfg._new(KIND_COND, stmt, label="for")
        self._connect(frontier, cond.nid)
        ctx = _LoopContext(cond.nid)
        self._loops.append(ctx)
        body_exit = self._sequence(stmt.body, [cond.nid])
        self._loops.pop()
        for nid in body_exit:
            self.cfg.add_edge(nid, cond.nid)
        exits = [cond.nid] + ctx.breaks
        if stmt.orelse:
            exits = self._sequence(stmt.orelse, [cond.nid]) + ctx.breaks
        return exits

    def _try(self, stmt: ast.Try, frontier: List[int]) -> List[int]:
        body_nodes_before = len(self.cfg.nodes)
        body_exit = self._sequence(stmt.body, frontier)
        body_node_ids = list(range(body_nodes_before, len(self.cfg.nodes)))
        exits = list(body_exit)
        for handler in stmt.handlers:
            sources = body_node_ids or frontier
            handler_frontier = list(sources)
            exits += self._sequence(handler.body, handler_frontier)
        if stmt.orelse:
            exits = self._sequence(stmt.orelse, body_exit) + [
                e for e in exits if e not in body_exit
            ]
        if stmt.finalbody:
            exits = self._sequence(stmt.finalbody, exits)
        return exits


def build_cfg(fn: ast.FunctionDef) -> CFG:
    return CFGBuilder().build(fn)
