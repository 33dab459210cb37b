"""The package guards its invariants with explicit raises: an `assert`
vanishes under `python -O`, and the guard with it."""

import ast
from pathlib import Path

import theta_forge


def test_no_assert_statements():
    paths = sorted(Path(theta_forge.__file__).resolve().parent.glob("*.py"))
    assert len(paths) >= 7  # the scan found the package sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
