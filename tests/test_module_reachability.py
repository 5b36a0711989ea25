"""Every module under ``src/repro`` has a user, and so does every re-export.

A static walk over the sources with ``ast``; nothing here imports them.

The entry points are what the repo ships to run: ``repro.cli``,
``repro.pipeline``, every module of ``repro.service``, ``repro.bench``
and ``repro.systems`` (``systems/base.py`` imports the mini systems by
name), and every script under ``benchmarks/`` and ``examples/``.  An edge
is a dotted name a file imports or reads off an imported module.
``from P import n`` lands in module ``P.n`` if there is one, else goes
through ``P/__init__``'s re-export of ``n`` to the module that defines
it, else lands in ``P``.  A package ``__init__``'s own imports are not
followed, so a module that only its package re-exports is an orphan.
"""

import ast
import functools
import os

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src")
ENTRY_MODULES = ("repro.cli", "repro.pipeline")
ENTRY_PACKAGES = ("repro.service", "repro.bench", "repro.systems")
SCRIPT_DIRS = ("benchmarks", "examples")


class _Source:
    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        # Keep only what the walk needs: holding ~250 parsed trees alive
        # would make the garbage collector cost more than the parsing.
        tree = ast.parse(text, path)
        self.path = path
        self.lines = sum(1 for line in text.splitlines() if line.strip())
        self.is_package = os.path.basename(path) == "__init__.py"
        self.imports = _imported_names(tree)
        self.reexports = {
            alias.asname or alias.name: f"{node.module}.{alias.name}"
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module
            for alias in node.names
        }
        self.exported = [
            elt.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for elt in node.value.elts
        ]


def _py_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(
            d for d in dirnames if not d.startswith((".", "__"))
        )
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return parts[::-1]


def _imported_names(tree):
    """Every ``repro.*`` name the file imports or reads off an import."""
    aliases = {}
    names = set()
    attributes = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attributes.append(node)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.name)
                local = alias.asname or alias.name.split(".")[0]
                aliases[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                names.add(dotted)
                aliases[alias.asname or alias.name] = dotted
    for node in attributes:
        parts = _dotted(node)
        if parts and parts[0] in aliases:
            names.add(".".join([aliases[parts[0]], *parts[1:]]))
    return {name for name in names if name.startswith("repro.")}


@functools.lru_cache(maxsize=None)
def _index():
    """(modules by dotted name, user files by path), parsed once."""
    modules = {}
    for path in _py_files(os.path.join(SRC, "repro")):
        parts = os.path.relpath(path, SRC)[:-3].split(os.sep)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = _Source(path)
    users = {source.path: source for source in modules.values()}
    for top in ("tests",) + SCRIPT_DIRS:
        for path in _py_files(os.path.join(ROOT, top)):
            users[path] = _Source(path)
    return modules, users


def _resolve(dotted, modules):
    """The module a dotted name lands in, or None outside ``src/repro``."""
    while dotted not in modules:
        parent, _, name = dotted.rpartition(".")
        if not parent:
            return None
        source = modules.get(parent)
        if source is not None and source.is_package and name in source.reexports:
            dotted = source.reexports[name]
            continue
        dotted = parent
    return dotted


def _reached(modules, users):
    scripts = [
        source for path, source in users.items()
        if os.path.relpath(path, ROOT).split(os.sep)[0] in SCRIPT_DIRS
    ]
    entries = [
        name for name in modules
        if name in ENTRY_MODULES
        or name.startswith(tuple(p + "." for p in ENTRY_PACKAGES))
    ]
    reached = set(entries)
    frontier = [modules[name] for name in entries] + scripts
    while frontier:
        source = frontier.pop()
        if source.is_package:
            continue
        for dotted in source.imports:
            target = _resolve(dotted, modules)
            if target is not None and target not in reached:
                reached.add(target)
                frontier.append(modules[target])
    return reached


def test_every_module_is_reached_from_an_entry_point():
    modules, users = _index()
    reached = _reached(modules, users)
    orphans = [
        f"{name} ({source.lines} lines)"
        for name, source in sorted(modules.items())
        if not source.is_package and name not in reached
    ]
    assert not orphans, (
        "modules no entry point reaches (delete them, or call them from "
        "src/, benchmarks/ or examples/): " + ", ".join(orphans)
    )


def test_every_reexport_is_imported_from_outside_its_package():
    modules, users = _index()
    unused = []
    for name, package in sorted(modules.items()):
        if not package.is_package:
            continue
        inside = os.path.dirname(package.path) + os.sep
        used = set()
        for path, user in users.items():
            if not path.startswith(inside):
                used |= user.imports
        unused += [
            f"{name}.{export}" for export in package.exported
            if not export.startswith("__") and f"{name}.{export}" not in used
        ]
    assert not unused, (
        "__all__ names no file outside their package imports (drop the "
        "re-export; the definition stays in its module): " + ", ".join(unused)
    )
