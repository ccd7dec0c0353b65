"""The benchmark's span layers name package functions; each name must resolve.

perfbench/spans.py wraps every ``module:qualname`` of its ``LAYERS`` table
at run time, and a name that no longer exists fails only a traced run.  This
reads the table without changing it and looks every name up in the package.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def _resolves(name: str) -> bool:
    module, qualname = name.split(":")
    owner = importlib.import_module(f"gradedgeo.{module}")
    *parents, last = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    # spans.py wraps the function found in the owner's own namespace
    return owner is not None and callable(vars(owner).get(last))


def test_span_layer_names_resolve():
    names = [name for names in _layers().values() for name in names]
    assert names
    assert [name for name in names if not _resolves(name)] == []
