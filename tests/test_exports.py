import ast
import importlib
import pkgutil
import re
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


ROOT = Path(__file__).resolve().parents[1]


def _pins() -> tuple[set[tuple[str, str]], set[str]]:
    """What names a public function or class for its users: the (module, name) pairs of the
    benchmark's span layers, and the names that tests/test_acceptance.py and the
    benchmark's workloads read or that the package's __all__ lists."""
    from test_bench_layers import _layers

    layers = {(name.split(":")[0], name.split(":")[1].split(".")[0]) for names in _layers().values() for name in names}
    users = [ROOT / "tests" / "test_acceptance.py", ROOT / "perfbench" / "workloads.py"]
    read = sum((_references(ast.parse(path.read_text())) for path in users), Counter())
    return layers, {*read, *gradedgeo.__all__}


def _unpinned(trees) -> tuple[list[str], int]:
    """module.name of each public top-level function or class of ``trees`` that nothing in
    them reads outside its own body and no pin names; and how many had no reader."""
    everywhere = sum(map(_references, trees.values()), Counter())
    unread = [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and everywhere[node.name] == _references(node)[node.name]
    ]
    layers, names = _pins()
    unpinned = [f"{module}.{name}" for module, name in unread if (module, name) not in layers and name not in names]
    return unpinned, len(unread)


def test_public_names_without_a_reader_are_pinned():
    # a public function or class that nothing in the package reads is dead unless a
    # place its users read names it: the benchmark's span layers, the acceptance
    # criteria, a benchmark workload or the package's __all__
    unpinned, unread = _unpinned(TREES)
    assert unread > 0
    assert unpinned == []


def test_public_name_guard_catches_a_planted_dead_function():
    # a recursive function reads only itself, and an unread class counts as well
    planted = """

def planted_helper(x):
    return planted_helper(x - 1) if x else 0


class PlantedBox:
    pass
"""
    source = (SRC / "graded.py").read_text() + planted
    unpinned, _ = _unpinned({**TREES, "graded": ast.parse(source)})
    assert unpinned == ["graded.planted_helper", "graded.PlantedBox"]


# numpy names that dispatch to BLAS or LAPACK; einsum, with its default optimize=False, calls neither
_BLAS = {"linalg", "dot", "matmul", "tensordot", "inner", "vdot"}


def _blas_reach(trees) -> list[tuple[str, str, str]]:
    """(module, top-level name, text) of each ``@`` and each import, name or outermost
    attribute chain of ``trees`` that names one of _BLAS."""
    found = []
    for module, tree in trees.items():
        for top in tree.body:
            inner = {id(node.value) for node in ast.walk(top) if isinstance(node, ast.Attribute)}
            for node in ast.walk(top):
                if isinstance(getattr(node, "op", None), ast.MatMult):
                    text = "@"
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    text = " ".join([getattr(node, "module", None) or "", *(alias.name for alias in node.names)])
                elif isinstance(node, (ast.Attribute, ast.Name)) and id(node) not in inner:
                    text = ast.unparse(node)
                else:
                    continue
                if text == "@" or _BLAS & set(re.split(r"[. ]", text)):
                    found.append((module, getattr(top, "name", "<module>"), text))
    return found


def test_no_blas_or_lapack_routine_reaches_an_output():
    # one linear-algebra path: contractions are einsums and the metric is inverted by
    # cofactors, so the output bytes do not depend on the BLAS kernel. Only
    # signature_at's eigenvalues, which no module of the package reads, call LAPACK
    assert _blas_reach(TREES) == [("riemann", "signature_at", "np.linalg.eigvalsh")]


def test_blas_guard_catches_planted_calls():
    planted = """
from numpy.linalg import inv


def planted_products(a, b):
    a @= b
    return a @ b + np.dot(a, b) + b.dot(a) + np.linalg.det(a) + inv(a)
"""
    found = _blas_reach({"graded": ast.parse((SRC / "graded.py").read_text() + planted)})
    assert sorted(found) == [
        ("graded", "<module>", "numpy.linalg inv"),
        *(("graded", "planted_products", text) for text in ["@", "@", "b.dot", "np.dot", "np.linalg.det"]),
    ]
