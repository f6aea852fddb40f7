"""Every name a module of the package imports is used in that module."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "infodesign"


def unused_imports(source: str) -> list:
    """Names bound by import statements of source that nothing else reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from json import dumps, loads\n"
              "import a.b\n"
              "print(loads, a.b)\n")
    assert unused_imports(source) == [(2, "os"), (2, "system"), (3, "dumps")]
