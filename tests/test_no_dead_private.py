"""Every module-level private name in the package is used somewhere: a
`_name` that occurs only at its own definition is dead code.  Likewise
every name a package module imports at module level is used again in that
module, or, in `__init__.py`, re-exported through `__all__`."""

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


def _package_paths():
    return sorted(Path(theta_forge.__file__).resolve().parent.glob("*.py"))


def _imported_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _exported_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            yield from ast.literal_eval(node.value)


def test_no_unused_private_module_names():
    paths = _package_paths()
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


def test_no_unused_module_imports():
    paths = _package_paths()
    assert len(paths) >= 7  # the scan found the package sources
    dead = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=path.name)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(_exported_names(tree))
        dead += [f"{path.name}:{name}" for name in _imported_names(tree) if name not in used]
    assert not dead, dead
