"""Package-wide source checks that need no linter."""

import ast
from pathlib import Path

import pytest

import mcs

MODULES = sorted(p for p in Path(mcs.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
