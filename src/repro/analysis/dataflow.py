"""Taint propagation: the data half of the dependence analysis.

Given source expressions (the traced heap access at the candidate's line),
propagate through assignments inside one function until fixpoint.  The
propagation is flow-insensitive — an over-approximation of the paper's
PDG-based data dependence, which errs on the conservative side for
pruning (more dependence found → fewer candidates discarded).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.analysis.astutil import FunctionInfo, attribute_paths_used, call_target_name


@dataclass
class TaintResult:
    """What the taint reached inside one function."""

    tainted_expr_ids: Set[int]
    tainted_names: Set[str]
    tainted_attrs: Set[str]
    return_tainted: bool
    tainted_call_args: List[Tuple[ast.Call, str, List[int], List[str]]]
    # (call node, callee name, tainted positional idx, tainted kwarg names)

    def expr_is_tainted(self, node: ast.AST) -> bool:
        for child in ast.walk(node):
            # Only real expression nodes carry taint identity; context
            # objects (Load/Store) are shared singletons in CPython's ast
            # and must never be used as identity keys.
            if isinstance(child, ast.expr) and id(child) in self.tainted_expr_ids:
                return True
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                if child.id in self.tainted_names:
                    return True
        if self.tainted_attrs:
            for path in attribute_paths_used(node):
                if path in self.tainted_attrs:
                    return True
        return False


class TaintAnalysis:
    """Function-local forward taint."""

    def __init__(self, fn: FunctionInfo) -> None:
        self.fn = fn

    def run(
        self,
        sources: Sequence[ast.AST],
        seed_names: Sequence[str] = (),
        seed_attrs: Sequence[str] = (),
    ) -> TaintResult:
        tainted_expr_ids: Set[int] = set()
        for src in sources:
            for child in ast.walk(src):
                if isinstance(child, ast.expr):
                    tainted_expr_ids.add(id(child))
        result = TaintResult(
            tainted_expr_ids=tainted_expr_ids,
            tainted_names=set(seed_names),
            tainted_attrs=set(seed_attrs),
            return_tainted=False,
            tainted_call_args=[],
        )
        assignments = self._assignments()
        changed = True
        while changed:
            changed = False
            for targets, value in assignments:
                if value is None or not result.expr_is_tainted(value):
                    continue
                for target in targets:
                    changed |= self._taint_target(target, result)
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Return) and node.value is not None:
                if result.expr_is_tainted(node.value):
                    result.return_tainted = True
        result.tainted_call_args = self._tainted_calls(result)
        return result

    # -- internals ------------------------------------------------------------

    def _assignments(self) -> List[Tuple[List[ast.expr], Optional[ast.expr]]]:
        pairs: List[Tuple[List[ast.expr], Optional[ast.expr]]] = []
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Assign):
                pairs.append((list(node.targets), node.value))
            elif isinstance(node, ast.AugAssign):
                pairs.append(([node.target], node.value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                pairs.append(([node.target], node.value))
            elif isinstance(node, ast.For):
                pairs.append(([node.target], node.iter))
            elif isinstance(node, ast.NamedExpr):
                pairs.append(([node.target], node.value))
            elif isinstance(node, ast.With):
                for item in node.items:
                    if item.optional_vars is not None:
                        pairs.append(([item.optional_vars], item.context_expr))
        return pairs

    def _taint_target(self, target: ast.expr, result: TaintResult) -> bool:
        changed = False
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                if node.id not in result.tainted_names:
                    result.tainted_names.add(node.id)
                    changed = True
            elif isinstance(node, ast.Attribute):
                paths = attribute_paths_used(_as_load(node))
                for path in paths:
                    if path not in result.tainted_attrs:
                        result.tainted_attrs.add(path)
                        changed = True
        return changed

    def _tainted_calls(
        self, result: TaintResult
    ) -> List[Tuple[ast.Call, str, List[int], List[str]]]:
        out = []
        for node in ast.walk(self.fn.node):
            if not isinstance(node, ast.Call):
                continue
            if id(node) in result.tainted_expr_ids:
                continue  # the source access itself, not a downstream call
            name = call_target_name(node)
            if name is None:
                continue
            pos = [
                i for i, arg in enumerate(node.args) if result.expr_is_tainted(arg)
            ]
            kw = [
                k.arg
                for k in node.keywords
                if k.arg is not None and result.expr_is_tainted(k.value)
            ]
            if pos or kw:
                out.append((node, name, pos, kw))
        return out


def _as_load(node: ast.Attribute) -> ast.Attribute:
    """Re-context an attribute store target so path extraction works."""
    clone = ast.Attribute(value=node.value, attr=node.attr, ctx=ast.Load())
    ast.copy_location(clone, node)
    return clone
