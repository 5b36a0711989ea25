"""Every metric the code declares is in ``docs/observability.md``, each
is declared by one module, and every metric that document's table names
is one the code declares.

A static walk over ``src/repro`` (outside ``systems/``) with ``ast``;
nothing here imports the sources.  A declaration is a call to
``counter``, ``gauge`` or ``histogram``, and its first argument must be
a string literal.  ``repro/obs`` defines those functions and declares
nothing itself.
"""

import ast
import os
import re

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
PACKAGE = os.path.join(ROOT, "src", "repro")
CATALOG = os.path.join(ROOT, "docs", "observability.md")
SKIPPED = ("systems", "obs")
DECLARERS = {"counter", "gauge", "histogram"}


#: A backquoted snake_case name, optionally followed by its labels
#: (``hb_edges_total{rule=}``): the table's spelling of a metric.
TABLE_METRIC = re.compile(r"`([a-z][a-z0-9]*(?:_[a-z0-9]+)+)(?:\{[^`]*\})?`")


def _declarations():
    """(metric name -> modules declaring it, names the walk cannot read)."""
    declared = {}
    unreadable = []
    for dirpath, dirnames, filenames in os.walk(PACKAGE):
        if dirpath == PACKAGE:
            dirnames[:] = [d for d in dirnames if d not in SKIPPED]
        for filename in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            module = os.path.relpath(path, PACKAGE)
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call) and node.args):
                    continue
                func = node.func
                called = getattr(func, "attr", getattr(func, "id", None))
                if called not in DECLARERS:
                    continue
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    declared.setdefault(arg.value, set()).add(module)
                else:
                    unreadable.append(f"{module}:{node.lineno}")
    return declared, unreadable


def test_every_metric_is_declared_by_one_module_and_documented():
    declared, unreadable = _declarations()
    assert not unreadable, (
        f"metric names the catalog cannot read: {unreadable}; declare "
        "them as string literals"
    )
    assert len(declared) > 50  # the walk found the code's metrics
    twice = {name: sorted(m) for name, m in declared.items() if len(m) > 1}
    assert not twice, f"declared in more than one module: {twice}"
    with open(CATALOG, encoding="utf-8") as fh:
        catalog = fh.read()
    missing = sorted(
        name for name in declared
        if not re.search(rf"(?<!\w){re.escape(name)}(?!\w)", catalog)
    )
    assert not missing, f"missing from docs/observability.md: {missing}"


def _table_metrics(catalog):
    """Every metric name in the rows of the "What the pipeline records"
    table."""
    section = catalog.split("### What the pipeline records", 1)[1]
    section = section.split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return {name for row in rows for name in TABLE_METRIC.findall(row)}


def test_every_documented_metric_is_declared():
    declared, _ = _declarations()
    with open(CATALOG, encoding="utf-8") as fh:
        documented = _table_metrics(fh.read())
    assert len(documented) > 50  # the table was found and read
    stale = sorted(documented - set(declared))
    assert not stale, (
        f"in docs/observability.md but declared by no module: {stale}"
    )
