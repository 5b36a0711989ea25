"""Impact estimation (paper Section 4.2).

Given one access of a DCbug candidate, decide whether it can influence a
failure instruction:

* **Local, intra-procedural** — taint the access expression; a failure
  instruction is impacted if it uses tainted data or is control dependent
  (via the postdominator PDG) on a tainted predicate.
* **Local, one-level caller** — if the function's return value is tainted,
  re-anchor the taint at each caller's call expression (one level only,
  like the paper, "for accuracy concerns").
* **Local, one-level callee** — if tainted data is passed as an argument,
  seed the matching parameter inside the callee (one level only).
* **Distributed** — if the access sits in an RPC handler whose return
  value is tainted, re-anchor at the *remote* caller of that RPC (found
  through the happens-before chains recorded in the trace, exactly as the
  paper locates ``Mr``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.astutil import (
    FunctionInfo,
    SourceIndex,
    access_calls_at_line,
    call_target_name,
    receiver_paths,
)
from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import TaintAnalysis, TaintResult
from repro.analysis.failures import (
    DEFAULT_FAILURE_SPEC,
    FailureSpec,
    find_failure_instructions,
)
from repro.analysis.pdg import transitive_control_dependence
from repro.ids import Site
from repro.runtime.ops import OpKind

#: Caller/callee levels the local analysis follows: the paper fixes
#: static pruning at "one-level inter-procedural" (Section 4.2).
INTERPROCEDURAL_DEPTH = 1


@dataclass
class Impact:
    """Result of impact estimation for one access."""

    found: bool
    reasons: List[str] = field(default_factory=list)

    def merge(self, other: "Impact") -> "Impact":
        return Impact(self.found or other.found, self.reasons + other.reasons)


@dataclass(frozen=True)
class RpcLink:
    """An RPC method observed at run time: handler + remote caller sites."""

    method: str
    handler_func: str
    caller_sites: Tuple[Site, ...]


def rpc_links_from_trace(trace: "object") -> List[RpcLink]:
    """Reconstruct RPC handler/caller relationships from trace records."""
    handler_by_method: Dict[str, str] = {}
    callers_by_method: Dict[str, Set[Site]] = {}
    for record in trace.records:
        if record.kind is OpKind.RPC_BEGIN:
            handler = record.extra.get("handler", "")
            method = record.extra.get("method", "")
            handler_by_method[method] = handler.split(".")[-1]
        elif record.kind is OpKind.RPC_CREATE:
            method = record.extra.get("method", "")
            site = record.site
            if site is not None:
                callers_by_method.setdefault(method, set()).add(site)
    links = []
    for method, handler in handler_by_method.items():
        links.append(
            RpcLink(
                method=method,
                handler_func=handler,
                caller_sites=tuple(sorted(callers_by_method.get(method, ()), key=str)),
            )
        )
    return links


class ImpactAnalyzer:
    """Implements the paper's local + distributed impact analysis."""

    def __init__(
        self,
        index: SourceIndex,
        spec: FailureSpec = DEFAULT_FAILURE_SPEC,
        rpc_links: Sequence[RpcLink] = (),
        observed_functions: Optional[Set[str]] = None,
    ) -> None:
        """``observed_functions`` — names of functions that actually ran
        in the monitored trace; when provided, the heap-field hop only
        follows objects into those (impact through never-executed code
        is not impact for this workload — the same philosophy as the
        paper's call-stack-guided inter-procedural analysis)."""
        self.index = index
        self.spec = spec
        self.rpc_links = list(rpc_links)
        self.observed_functions = observed_functions
        self._cache: Dict[Site, Impact] = {}
        self._field_readers: Dict[str, List[FunctionInfo]] = {}

    # -- public API -------------------------------------------------------

    def access_impact(self, site: Optional[Site]) -> Impact:
        """Can the access at ``site`` influence any failure instruction?"""
        if site is None:
            return Impact(True, ["unresolved site: kept conservatively"])
        cached = self._cache.get(site)
        if cached is not None:
            return cached
        impact = self._compute(site)
        self._cache[site] = impact
        return impact

    # -- core -----------------------------------------------------------------

    def _compute(self, site: Site) -> Impact:
        fn = self.index.function_at(site.path, site.line)
        if fn is None:
            return Impact(True, [f"{site}: function not found, kept conservatively"])
        sources = access_calls_at_line(fn, site.line)
        receiver_seeds: List[str] = []
        for call in sources:
            receiver_seeds.extend(receiver_paths(call))
        if not sources:
            sources = _statements_at_line(fn, site.line)
        if not sources:
            return Impact(True, [f"{site}: access expression not found, kept"])
        # Other accesses to the same heap object in this function are
        # value-related to this access (same-object dependence).
        seed_names = [p for p in receiver_seeds if "." not in p]
        seed_attrs = [p for p in receiver_seeds if "." in p]
        impact = self._impact_of_sources(
            fn,
            sources,
            INTERPROCEDURAL_DEPTH,
            via=str(site),
            seed_names=seed_names,
            seed_attrs=seed_attrs,
        )
        if not impact.found:
            impact = impact.merge(
                self._heap_field_impact(fn, receiver_seeds, via=str(site))
            )
        return impact

    def _heap_field_impact(
        self, fn: FunctionInfo, receiver_seeds: List[str], via: str
    ) -> Impact:
        """Field-based heap hop: the accessed object may be read by any
        other function; if such a read feeds a failure instruction there,
        the access has impact.  This is the analogue of WALA's
        field-sensitive heap modeling (the paper's "heap/global objects"
        channel), matched by field name.
        """
        fields = {p.rsplit(".", 1)[-1] for p in receiver_seeds}
        fields.discard("")
        result = Impact(False)
        for field_name in sorted(fields):
            for other in self._functions_accessing_field(field_name):
                if other.node is fn.node:
                    continue
                if (
                    self.observed_functions is not None
                    and other.name not in self.observed_functions
                ):
                    continue
                sub = self._impact_of_sources(
                    other,
                    sources=[],
                    depth=0,
                    via=f"{via} -> heap field {field_name} in {other.name}",
                    seed_attrs=[f"self.{field_name}"],
                    seed_names=[field_name],
                )
                result = result.merge(sub)
                if result.found:
                    return result
        return result

    def _functions_accessing_field(self, field_name: str) -> List[FunctionInfo]:
        cached = self._field_readers.get(field_name)
        if cached is not None:
            return cached
        import ast as _ast

        readers = []
        for fn in self.index.functions():
            found = False
            for node in _ast.walk(fn.node):
                if (
                    isinstance(node, _ast.Attribute)
                    and node.attr == field_name
                ):
                    found = True
                    break
            if found:
                readers.append(fn)
        self._field_readers[field_name] = readers
        return readers

    def _impact_of_sources(
        self,
        fn: FunctionInfo,
        sources: Sequence[ast.AST],
        depth: int,
        via: str,
        seed_names: Sequence[str] = (),
        seed_attrs: Sequence[str] = (),
    ) -> Impact:
        taint = TaintAnalysis(fn).run(
            sources, seed_names=seed_names, seed_attrs=seed_attrs
        )
        impact = self._local_impact(fn, taint, via)
        if depth <= 0:
            return impact
        if not impact.found:
            impact = impact.merge(self._caller_impact(fn, taint, depth, via))
        if not impact.found:
            impact = impact.merge(self._callee_impact(fn, taint, depth, via))
        if not impact.found:
            impact = impact.merge(self._distributed_impact(fn, taint, via))
        return impact

    def _local_impact(self, fn: FunctionInfo, taint: TaintResult, via: str) -> Impact:
        cfg = build_cfg(fn.node)
        failures = find_failure_instructions(cfg, self.spec)
        if not failures:
            return Impact(False)
        cd = transitive_control_dependence(cfg)
        tainted_nodes = {
            node.nid
            for node in cfg.statement_nodes()
            if node.stmt is not None and taint.expr_is_tainted(node.stmt)
        }
        reasons = []
        for failure in failures:
            nid = failure.cfg_node.nid
            if nid in tainted_nodes:
                reasons.append(
                    f"{via}: {failure.failure_class.value} at "
                    f"{fn.name}:{failure.line} data-depends on access"
                )
                continue
            if cd.get(nid, set()) & tainted_nodes:
                reasons.append(
                    f"{via}: {failure.failure_class.value} at "
                    f"{fn.name}:{failure.line} control-depends on access"
                )
        return Impact(bool(reasons), reasons)

    def _caller_impact(
        self, fn: FunctionInfo, taint: TaintResult, depth: int, via: str
    ) -> Impact:
        if not taint.return_tainted:
            return Impact(False)
        result = Impact(False)
        for call_site in self.index.callers_of(fn.name):
            caller_taint_sources = [call_site.call]
            sub = self._impact_of_sources(
                call_site.caller,
                caller_taint_sources,
                depth - 1,
                via=f"{via} -> caller {call_site.caller.name}",
            )
            result = result.merge(sub)
            if result.found:
                break
        return result

    def _callee_impact(
        self, fn: FunctionInfo, taint: TaintResult, depth: int, via: str
    ) -> Impact:
        result = Impact(False)
        for call, callee_name, pos_idx, kw_names in taint.tainted_call_args:
            for callee in self.index.functions_named(callee_name):
                if callee.node is fn.node:
                    continue
                params = _parameter_names(callee.node)
                seeds = []
                # A method call (obj.m(x)) binds self implicitly, so the
                # first positional arg lands on the second parameter; a
                # plain call (m(self, x)) passes it explicitly.
                method_style = isinstance(call.func, ast.Attribute)
                offset = 1 if method_style and params[:1] == ["self"] else 0
                for i in pos_idx:
                    if i + offset < len(params):
                        seeds.append(params[i + offset])
                seeds.extend(k for k in kw_names if k in params)
                if not seeds:
                    continue
                sub = self._impact_of_sources(
                    callee,
                    sources=[],
                    depth=depth - 1,
                    via=f"{via} -> callee {callee.name}",
                    seed_names=seeds,
                )
                result = result.merge(sub)
                if result.found:
                    return result
        return result

    def _distributed_impact(
        self, fn: FunctionInfo, taint: TaintResult, via: str
    ) -> Impact:
        """Paper 4.2: follow the RPC return value to the remote caller."""
        if not taint.return_tainted:
            return Impact(False)
        result = Impact(False)
        for link in self.rpc_links:
            if link.handler_func != fn.name:
                continue
            for caller_site in link.caller_sites:
                caller_fn = self.index.function_at(caller_site.path, caller_site.line)
                if caller_fn is None:
                    continue
                rpc_calls = _rpc_calls_at_line(
                    caller_fn, caller_site.line, link.method
                )
                if not rpc_calls:
                    continue
                sub = self._impact_of_sources(
                    caller_fn,
                    rpc_calls,
                    depth=0,
                    via=f"{via} -> RPC {link.method} caller {caller_fn.name}",
                )
                result = result.merge(sub)
                if result.found:
                    return result
        return result


def _statements_at_line(fn: FunctionInfo, line: int) -> List[ast.AST]:
    return [
        node
        for node in ast.walk(fn.node)
        if isinstance(node, ast.stmt) and getattr(node, "lineno", None) == line
    ]


def _parameter_names(fn_node: ast.FunctionDef) -> List[str]:
    args = fn_node.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    return names


def _rpc_calls_at_line(fn: FunctionInfo, line: int, method: str) -> List[ast.Call]:
    calls = []
    for node in ast.walk(fn.node):
        if (
            isinstance(node, ast.Call)
            and getattr(node, "lineno", None) == line
            and call_target_name(node) == method
        ):
            calls.append(node)
    return calls
