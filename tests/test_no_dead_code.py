"""The package holds no dead code that a static read can find.

Walks ``src/supertransport/*.py`` with :mod:`ast` (standard library only):
no module imports a name it never uses, every private function, method
and ``_CONSTANT`` is referenced somewhere in the package, and every public
function and method is exported from ``__init__`` or referenced from the
package, ``scripts/``, ``perfbench/`` or README.md, not from the tests
alone.  ``__init__`` imports are the public re-exports and count as used.
"""

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "supertransport"
MODULES = sorted(PACKAGE.glob("*.py"))
# the code that may use a public name: the package, scripts and perfbench's
# harness (not its tests)
CALLERS = MODULES + sorted(REPO.glob("scripts/*.py")) + [
    p for p in sorted(REPO.glob("perfbench/*.py")) if not p.name.startswith("test_")]
PRIVATE_CONSTANT = re.compile(r"^_[A-Z][A-Z0-9_]*$")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _loaded_names(tree: ast.AST) -> set[str]:
    """Names read anywhere in the tree, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        for field in ("annotation", "returns"):
            ann = getattr(node, field, None)
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _loaded_names(ast.parse(ann.value, mode="eval"))
    return names


def _referenced(tree: ast.AST) -> set[str]:
    """Names read, attributes taken (by name, or by getattr of a string)
    and names imported from a module."""
    refs = _loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr") and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            refs.add(node.args[1].value)
    return refs


def _functions(tree: ast.Module) -> list[str]:
    """Functions and methods defined at module or class level."""
    return [node.name for scope in [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]
            for node in scope.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _private_definitions(tree: ast.Module) -> list[str]:
    """Private functions, methods and constants defined at module or class level."""
    found = [name for name in _functions(tree)
             if name.startswith("_") and not name.endswith("__")]
    for scope in [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]:
        for node in scope.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and PRIVATE_CONSTANT.match(name.id):
                            found.append(name.id)
    return found


def test_the_walk_sees_the_package():
    assert {p.name for p in MODULES} >= {"grassmann.py", "superfield.py", "transport.py"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = _tree(path)
    used = _loaded_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert unused == []


def test_every_private_definition_is_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    refs = set().union(*(_referenced(tree) for tree in trees.values()))
    dead = [f"{name}:{defn}" for name, tree in trees.items()
            for defn in _private_definitions(tree) if defn not in refs]
    assert dead == []


def test_every_public_function_is_used_outside_the_tests():
    refs = set().union(*(_referenced(_tree(path)) for path in CALLERS))
    refs |= set(re.findall(r"\w+", (REPO / "README.md").read_text()))
    unused = [f"{path.name}:{name}" for path in MODULES for name in _functions(_tree(path))
              if not name.startswith("_") and name not in refs]
    assert unused == []
