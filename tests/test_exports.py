import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import gradedgeo

MODULES = ["gradedgeo", *(f"gradedgeo.{m.name}" for m in pkgutil.iter_modules(gradedgeo.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    # a stale entry would make `from module import *` raise
    module = importlib.import_module(name)
    assert [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)] == []


SRC = Path(gradedgeo.__file__).resolve().parent
TREES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _reads(tree) -> set[str]:
    """The names a module reads: loads, the names in its string annotations and its __all__."""
    got = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        notes = [node.annotation] if isinstance(node, (ast.arg, ast.AnnAssign)) else []
        notes += [node.returns] if isinstance(node, ast.FunctionDef) else []
        for note in filter(None, notes):
            for text in ast.walk(note):
                if isinstance(text, ast.Constant) and isinstance(text.value, str):
                    got |= {n.id for n in ast.walk(ast.parse(text.value, mode="eval")) if isinstance(n, ast.Name)}
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            got |= set(ast.literal_eval(node.value))
    return got


@pytest.mark.parametrize("name", sorted(TREES))
def test_imports_are_read(name):
    # an import no line of the module reads is dead, in function bodies and under TYPE_CHECKING too
    tree, bound = TREES[name], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    assert sorted(bound - _reads(tree)) == []


def _references(node) -> Counter:
    """How often each name is read, called or passed under node, as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_private_functions_are_referenced():
    # a module-level private function that nothing in the package calls or
    # passes, outside its own body, is dead
    everywhere = sum(map(_references, TREES.values()), Counter())
    dead = [
        f"{module}.{node.name}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__")
        and everywhere[node.name] == _references(node)[node.name]
    ]
    assert dead == []
