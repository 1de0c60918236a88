"""Repository guards that keep the package's invariants enforceable."""

import ast
import importlib.util
from pathlib import Path

import duporcq
import duporcq.cli

PACKAGE = Path(duporcq.__file__).parent
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so an invariant written as one
    # silently stops being checked; the package raises typed exceptions
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_bench_tracer_installs():
    # the traced benchmark wraps package functions by name; renaming or
    # removing one of them must fail here, not only in a benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = duporcq.cli.main
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert duporcq.cli.main is not original
    finally:
        tracer.uninstall()
    assert duporcq.cli.main is original
