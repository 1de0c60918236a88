"""Repository guards that keep the package's invariants enforceable."""

import ast
from pathlib import Path

import duporcq

PACKAGE = Path(duporcq.__file__).parent


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so an invariant written as one
    # silently stops being checked; the package raises typed exceptions
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
