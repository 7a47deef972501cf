"""Rules on the library source itself."""

import ast
from pathlib import Path

import pbelyi

SOURCES = sorted(Path(pbelyi.__file__).parent.glob("*.py"))


def test_no_invariant_hangs_on_assert():
    """python -O strips assert statements, so the library raises its errors instead."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert SOURCES and found == []
