"""Package-wide source checks that need no linter."""

import ast
from pathlib import Path

import pytest

import mcs

SOURCES = sorted(Path(mcs.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
# read only by the benchmark, which lists a report's bits, pairs and offsets
# (ROADMAP "Parked" plans to move them there)
BENCHMARK_ONLY = ["keyrecovery.RecoveryReport.constrained",
                  "keyrecovery.RecoveryReport.known_bits",
                  "keyrecovery.RecoveryReport.s_offsets"]
# underscore names that one module imports from another, as 'importer: module.name'
PRIVATE_IMPORTS = ["attack: cipher._FRAME_SLICE",
                   "attack: cipher._rotate_columns",
                   "attack: cipher._rotate_rows",
                   "attack: cipher._transpose_halves",
                   "formats: cipher._FRAME_SLICE"]


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, as 'line: name'.

    ``from __future__`` imports are not names, and ``# noqa: F401`` on the
    import statement's first line, or on the line of the name, keeps a
    re-export.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name in used or any("# noqa: F401" in lines[i - 1]
                                   for i in (node.lineno, alias.lineno)):
                continue
            unused.append(f"{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_an_unused_name():
    source = "import os\nimport sys  # noqa: F401\nfrom re import (  # noqa: F401\n    match,\n)\n" \
             "from json import dumps, loads\nloads('1')\n"
    assert unused_imports(source) == ["1: os", "6: dumps"]


def private_imports(sources: dict[str, str]) -> list[str]:
    """Underscore names that a module in ``sources`` (module name -> source)
    imports from another of them, as 'importer: module.name', sorted.

    An import is ``from .module import name`` or ``from mcs.module import
    name``; dunder names are not private.
    """
    found = []
    for importer, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.level == 1:
                module = node.module
            elif node.level == 0 and node.module.startswith("mcs."):
                module = node.module.removeprefix("mcs.")
            else:
                continue
            found += [f"{importer}: {module}.{alias.name}" for alias in node.names
                      if module in sources and alias.name.startswith("_")
                      and not alias.name.endswith("__")]
    return sorted(found)


def test_no_private_names_across_modules():
    # a module reads another's private name only where listed
    assert private_imports({p.stem: p.read_text() for p in SOURCES}) == PRIVATE_IMPORTS


def test_private_import_check_sees_a_private_name():
    sources = {
        "a": "from .b import _x, y\nfrom mcs.c import (\n    _z as z,\n)\n"
             "from numpy import _private\nfrom . import b\nfrom .b import __version__\n"
             "from .d import _w\nfrom other.b import _v\n",
        "b": "from .a import _u\n_x = 1\ny = 2\n",
        "c": "_z = 3\n",
    }
    assert private_imports(sources) == ["a: b._x", "a: c._z", "b: a._u"]


def unread_names(sources: dict[str, str], exported=()) -> list[str]:
    """Top-level names of the modules in ``sources`` (module name -> source)
    that none of them reads, as 'module.name', sorted.

    A name is a module-level function, class or assigned constant, or a method
    or property of a top-level class, as 'module.Class.name'; dunder names are
    called implicitly and are left out.  A read is a load of the name, or of an
    attribute of that name on any object; an import alone is not a read.
    Names in ``exported`` count as read.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set(exported)
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for target in targets for t in ast.walk(target)
                            if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
                if isinstance(node, ast.ClassDef):
                    defined += [(f"{module}.{node.name}", f.name) for f in node.body
                                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return sorted(f"{owner}.{name}" for owner, name in defined
                  if name not in read and not (name.startswith("__") and name.endswith("__")))


def test_every_top_level_name_is_read_in_the_package():
    # no API that only tests use: each name is read somewhere in src/mcs
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert unread_names(sources, mcs.__all__) == BENCHMARK_ONLY


def test_unread_name_check_sees_an_unread_name():
    sources = {
        "a": "X = 1\nY, Z = 2, 3\nW: int = 4\n__all__ = ['X']\n"
             "def f():\n    return X\n"
             "class C:\n    k = 0\n    def __len__(self):\n        return 0\n"
             "    def m(self):\n        pass\n    @property\n    def p(self):\n        pass\n"
             "    def q(self):\n        pass\n",
        "b": "from a import C, W, Z, f\nf()\nC().p\nprint(C.q)\n",
    }
    assert unread_names(sources, exported=["Y"]) == ["a.C.m", "a.W", "a.Z"]


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether a class is decorated with ``dataclass``, called or not, bare or
    as ``dataclasses.dataclass``."""
    targets = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(getattr(t, "id", getattr(t, "attr", None)) == "dataclass" for t in targets)


def unread_fields(sources: dict[str, str]) -> list[str]:
    """Fields of the ``@dataclass`` classes in ``sources`` (module name ->
    source) that no attribute load (``.name`` on any object) in any of them
    reads, as 'module.Class.field', sorted.

    A field is an annotated name in the class body.  Passing a field to the
    constructor or to ``dataclasses.replace`` is not a read.  NamedTuples are
    left out: callers also read them by unpacking.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{module}.{node.name}.{field.target.id}"
                  for module, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and _is_dataclass(node)
                  for field in node.body
                  if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
                  and field.target.id not in read)


def test_every_dataclass_field_is_read_in_the_package():
    # no field that only tests read: each is read as an attribute somewhere in src/mcs
    assert unread_fields({p.stem: p.read_text() for p in SOURCES}) == []


def test_unread_field_check_sees_an_unread_field():
    sources = {
        "a": "import dataclasses\nfrom dataclasses import dataclass\n"
             "from typing import NamedTuple\n"
             "@dataclass\nclass D:\n    x: int\n    y: int\n    z: int = 0\n"
             "    def f(self):\n        return self.x\n"
             "@dataclass(frozen=True)\nclass E:\n    u: int\n    v: int\n"
             "@dataclasses.dataclass\nclass F:\n    w: int\n"
             "class N(NamedTuple):\n    n: int\n"
             "class P:\n    p: int\n",
        "b": "from a import D, E, F\nd = D(1, y=2)\nd.z = 3\nE(1, 2).u\n"
             "dataclasses.replace(d, y=4)\nprint(F)\n",
    }
    assert unread_fields(sources) == ["a.D.y", "a.D.z", "a.E.v", "a.F.w"]
