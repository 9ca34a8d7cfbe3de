"""Rules that the package source itself must keep."""

import ast
from pathlib import Path

import mihailova

SOURCES = sorted(Path(mihailova.__file__).parent.glob("*.py"))


def test_no_bare_asserts_in_src():
    # `python -O` strips assert statements, so a self-check written as one
    # silently stops checking; raise an exception instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []
