"""Control dependence via postdominators (the PDG's control half).

Standard Ferrante–Ottenstein–Warren construction: node *n* is control
dependent on predicate *p* iff *p* has a successor *s* such that *n*
postdominates *s* (inclusively) but *n* does not strictly postdominate
*p*.  Postdominator sets are computed by the iterative dataflow algorithm
on the reverse CFG.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.analysis.cfg import CFG


def postdominator_sets(cfg: CFG) -> List[Set[int]]:
    """``pdom[n]`` = nodes that postdominate ``n`` (inclusive of n)."""
    n = len(cfg.nodes)
    all_nodes = set(range(n))
    pdom: List[Set[int]] = [set(all_nodes) for _ in range(n)]
    pdom[cfg.exit.nid] = {cfg.exit.nid}
    changed = True
    while changed:
        changed = False
        for node in cfg.nodes:
            if node.nid == cfg.exit.nid:
                continue
            succs = node.succs
            if succs:
                new: Set[int] = set(pdom[succs[0]])
                for s in succs[1:]:
                    new &= pdom[s]
            else:
                # No successors and not exit (unreachable tail): only
                # itself.
                new = set()
            new.add(node.nid)
            if new != pdom[node.nid]:
                pdom[node.nid] = new
                changed = True
    return pdom


def control_dependence(cfg: CFG) -> Dict[int, Set[int]]:
    """``cd[n]`` = predicates that ``n`` is control dependent on."""
    pdom = postdominator_sets(cfg)
    cd: Dict[int, Set[int]] = {node.nid: set() for node in cfg.nodes}
    for p in cfg.nodes:
        if len(p.succs) < 2:
            continue  # not a branch
        strict_pdom_p = pdom[p.nid] - {p.nid}
        for s in p.succs:
            for n_id in pdom[s]:
                if n_id != p.nid and n_id not in strict_pdom_p:
                    cd[n_id].add(p.nid)
    return cd


def transitive_control_dependence(cfg: CFG) -> Dict[int, Set[int]]:
    """Transitive closure of control dependence (predicate chains)."""
    direct = control_dependence(cfg)
    closure: Dict[int, Set[int]] = {}

    def resolve(nid: int, seen: Set[int]) -> Set[int]:
        if nid in closure:
            return closure[nid]
        result = set(direct[nid])
        for p in direct[nid]:
            if p not in seen:
                result |= resolve(p, seen | {nid})
        closure[nid] = result
        return result

    for node in cfg.nodes:
        resolve(node.nid, set())
    return closure
