"""CFG construction and control dependence."""

import ast

from repro.analysis import build_cfg, control_dependence, postdominator_sets
from repro.analysis.cfg import KIND_COND


def _fn(source):
    tree = ast.parse(source)
    return tree.body[0]


def test_straight_line_cfg():
    cfg = build_cfg(_fn("def f():\n    a = 1\n    b = 2\n    return b\n"))
    stmts = cfg.statement_nodes()
    assert len(stmts) == 3
    # Linear chain: each statement has one successor.
    for node in stmts[:-1]:
        assert len(node.succs) == 1


def test_if_branches_rejoin():
    cfg = build_cfg(
        _fn(
            "def f(x):\n"
            "    if x:\n"
            "        a = 1\n"
            "    else:\n"
            "        a = 2\n"
            "    return a\n"
        )
    )
    cond = [n for n in cfg.nodes if n.kind == KIND_COND][0]
    assert len(cond.succs) == 2
    ret = [n for n in cfg.statement_nodes() if n.label == "return"][0]
    assert len(ret.preds) == 2


def test_while_loop_back_edge():
    cfg = build_cfg(
        _fn("def f(x):\n    while x:\n        x = x - 1\n    return x\n")
    )
    cond = [n for n in cfg.nodes if n.kind == KIND_COND][0]
    body = [n for n in cfg.statement_nodes() if n.label == "Assign"][0]
    assert cond.nid in body.succs  # back edge
    assert body.nid in cond.succs


def test_break_exits_loop():
    cfg = build_cfg(
        _fn(
            "def f(x):\n"
            "    while True:\n"
            "        if x:\n"
            "            break\n"
            "    return x\n"
        )
    )
    brk = [n for n in cfg.statement_nodes() if n.label == "break"][0]
    ret = [n for n in cfg.statement_nodes() if n.label == "return"][0]
    assert ret.nid in brk.succs


def test_return_connects_to_exit():
    cfg = build_cfg(
        _fn("def f(x):\n    if x:\n        return 1\n    return 2\n")
    )
    returns = [n for n in cfg.statement_nodes() if n.label == "return"]
    assert len(returns) == 2
    for node in returns:
        assert cfg.exit.nid in node.succs


def test_try_except_edges():
    cfg = build_cfg(
        _fn(
            "def f(x):\n"
            "    try:\n"
            "        risky(x)\n"
            "    except ValueError:\n"
            "        handle(x)\n"
            "    return x\n"
        )
    )
    handler = [
        n for n in cfg.statement_nodes() if "handle" in ast.dump(n.stmt)
    ][0]
    assert handler.preds  # reachable from the try body


def test_postdominators_linear():
    cfg = build_cfg(_fn("def f():\n    a = 1\n    b = 2\n"))
    pdom = postdominator_sets(cfg)
    a = cfg.statement_nodes()[0]
    b = cfg.statement_nodes()[1]
    assert b.nid in pdom[a.nid]
    assert a.nid not in pdom[b.nid]


def test_control_dependence_if():
    cfg = build_cfg(
        _fn(
            "def f(x):\n"
            "    if x:\n"
            "        a = 1\n"
            "    b = 2\n"
        )
    )
    cd = control_dependence(cfg)
    cond = [n for n in cfg.nodes if n.kind == KIND_COND][0]
    then_stmt = [n for n in cfg.statement_nodes() if n.label == "Assign"][0]
    join_stmt = [n for n in cfg.statement_nodes() if n.label == "Assign"][1]
    assert cond.nid in cd[then_stmt.nid]
    assert cond.nid not in cd[join_stmt.nid]


def test_control_dependence_loop_body():
    cfg = build_cfg(
        _fn("def f(x):\n    while x:\n        work(x)\n")
    )
    cd = control_dependence(cfg)
    cond = [n for n in cfg.nodes if n.kind == KIND_COND][0]
    body = [
        n
        for n in cfg.statement_nodes()
        if n.kind == "stmt" and "work" in ast.dump(n.stmt)
    ][0]
    assert cond.nid in cd[body.nid]
