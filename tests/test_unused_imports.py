"""Every name a module of ``src/repro`` imports at module level is used.

A static walk over the sources with ``ast``; nothing here imports them.
An import binds names (``import a.b`` binds ``a``; ``from m import x as
y`` binds ``y``; ``from __future__`` binds none).  A bound name is used
when the module loads it anywhere (a string annotation counts), when it
is listed in the module's ``__all__``, or when a file in ``src/``,
``benchmarks/``, ``examples/`` or ``tests/`` imports it from the module
(``from repro.x import name``) or reads it off it (``x.name`` after
``from repro import x``): a re-export is a use.  An import that fails
here is dead weight at every start-up: delete it.

``systems/`` is left out.  Its line counts are Table 3's LoC column (the
paper's system sizes, mirrored by the mini systems), so deleting an
import there moves a paper table; that column is regenerated as a whole
with the table (ROADMAP item 1(b)), not one line at a time.
"""

import ast
import os

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
USER_DIRS = ("src", "benchmarks", "examples", "tests")


def _py_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _module_name(path):
    parts = os.path.relpath(path, SRC)[: -len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _top_level(body):
    """Module-level statements, through ``if``/``try`` blocks."""
    for node in body:
        yield node
        for field in ("body", "orelse", "finalbody"):
            yield from _top_level(getattr(node, field, None) or [])
        for handler in getattr(node, "handlers", None) or []:
            yield from _top_level(handler.body)


def _imports(tree):
    """(bound name, line) of each module-level import."""
    for node in _top_level(tree.body):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _loaded(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            for sub in ast.walk(annotation) if annotation is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names.update(
                        n.id
                        for n in ast.walk(ast.parse(sub.value, mode="eval"))
                        if isinstance(n, ast.Name)
                    )
    return names


def _all(tree):
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _used_from_outside(trees):
    """module name -> names other files import from it or read off it."""
    used = {}
    for tree in trees:
        aliases = {}  # local name -> module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    used.setdefault(node.module, set()).add(alias.name)
                    aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        aliases[alias.asname] = alias.name
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                used.setdefault(aliases[node.value.id], set()).add(node.attr)
    return used


def test_every_module_level_import_is_used():
    trees = [
        _parse(path)
        for top in USER_DIRS
        for path in _py_files(os.path.join(ROOT, top))
    ]
    from_outside = _used_from_outside(trees)
    systems = os.path.join(PACKAGE, "systems") + os.sep
    unused = []
    for path in _py_files(PACKAGE):
        if path.startswith(systems):
            continue
        tree = _parse(path)
        used = _loaded(tree) | _all(tree)
        used |= from_outside.get(_module_name(path), set())
        unused.extend(
            f"{os.path.relpath(path, ROOT)}:{line}: {name}"
            for name, line in _imports(tree)
            if name not in used
        )
    assert not unused, "module-level imports never used:\n" + "\n".join(unused)
