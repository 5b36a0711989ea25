"""Every attribute ``src/repro`` stores on ``self`` is read somewhere.

A static walk over the sources with ``ast``; nothing here imports them.
A write is ``self.<name> = ...`` (plain or annotated) in a module under
``src/repro`` outside ``systems/`` (the mini systems model the state of
real ones, read or not).  A read is a load of ``.<name>`` off any
object, or ``getattr(..., "<name>")`` / ``hasattr(..., "<name>")``, in
``src/``, ``benchmarks/``, ``examples/`` or ``tests/``.  ``self.x +=``
is a write, not a read: a counter that only ever grows is still unread.
An attribute that fails here is state nobody looks at: delete it, or
read it.

The annotated fields of a ``@dataclass`` class are attributes too, set
by its generated ``__init__``, and the same rule holds for them, but for
one kind of read the walk cannot see: a class that passes its instances
to ``dataclasses.asdict`` (``asdict(self)`` in its body) has every field
read, and so has every dataclass among its field types, which
``asdict`` converts with it.
"""

import ast
import os

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
PACKAGE = os.path.join(ROOT, "src", "repro")
READ_DIRS = ("src", "benchmarks", "examples", "tests")


def _py_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _self_writes(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    yield sub.attr, node.lineno


def _reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            yield node.args[1].value


def test_every_self_attribute_is_read():
    read = set()
    for top in READ_DIRS:
        for path in _py_files(os.path.join(ROOT, top)):
            read.update(_reads(_parse(path)))
    systems = os.path.join(PACKAGE, "systems") + os.sep
    unread = sorted(
        f"{os.path.relpath(path, ROOT)}:{line}: self.{name}"
        for path in _py_files(PACKAGE)
        if not path.startswith(systems)
        for name, line in _self_writes(_parse(path))
        if name not in read
    )
    assert not unread, "attributes written but never read:\n" + "\n".join(unread)


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = getattr(target, "attr", getattr(target, "id", None))
        if name == "dataclass":
            return True
    return False


def _calls_asdict_on_self(node):
    return any(
        isinstance(sub, ast.Call)
        and getattr(sub.func, "attr", getattr(sub.func, "id", None)) == "asdict"
        and sub.args
        and isinstance(sub.args[0], ast.Name)
        and sub.args[0].id == "self"
        for sub in ast.walk(node)
    )


def _dataclass_fields(tree):
    """(class name, field name, line, names in the annotation) of every
    annotated field of a ``@dataclass`` class, and the names of the
    classes that pass themselves to ``asdict``."""
    fields, dumped = [], set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
            continue
        if _calls_asdict_on_self(node):
            dumped.add(node.name)
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                annotation = ast.unparse(stmt.annotation)
                if "ClassVar" in annotation:
                    continue
                fields.append((node.name, stmt.target.id, stmt.lineno, annotation))
    return fields, dumped


def test_every_dataclass_field_is_read():
    read = set()
    for top in READ_DIRS:
        for path in _py_files(os.path.join(ROOT, top)):
            read.update(_reads(_parse(path)))
    systems = os.path.join(PACKAGE, "systems") + os.sep
    fields, dumped = [], set()
    for path in _py_files(PACKAGE):
        if not path.startswith(systems):
            found, classes = _dataclass_fields(_parse(path))
            fields.extend((path, *field) for field in found)
            dumped |= classes
    # ``asdict`` converts nested dataclasses too: close over field types.
    grew = True
    while grew:
        nested = {
            name
            for _path, cls, _field, _line, annotation in fields
            if cls in dumped
            for name in _identifiers(annotation)
        }
        grew = not nested <= dumped
        dumped |= nested
    unread = sorted(
        f"{os.path.relpath(path, ROOT)}:{line}: {cls}.{name}"
        for path, cls, name, line, _annotation in fields
        if cls not in dumped and name not in read
    )
    assert not unread, "dataclass fields never read:\n" + "\n".join(unread)


def _identifiers(annotation):
    return {
        node.id
        for node in ast.walk(ast.parse(annotation, mode="eval"))
        if isinstance(node, ast.Name)
    } | {
        node.value
        for node in ast.walk(ast.parse(annotation, mode="eval"))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
