"""Every module-level private name in the package is used somewhere: a
`_name` that occurs only at its own definition is dead code."""

import ast
import re
from pathlib import Path

import theta_forge


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id


def test_no_unused_private_module_names():
    paths = sorted(Path(theta_forge.__file__).resolve().parent.glob("*.py"))
    assert len(paths) >= 7  # the scan found the package sources
    sources = {path.name: path.read_text() for path in paths}
    package = "\n".join(sources.values())
    dead = [
        f"{name}:{ident}"
        for name, text in sources.items()
        for ident in _private_definitions(ast.parse(text, filename=name))
        if ident.startswith("_") and not ident.startswith("__")
        and len(re.findall(rf"\b{re.escape(ident)}\b", package)) == 1
    ]
    assert not dead, dead
