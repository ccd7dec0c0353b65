import importlib
import pkgutil

import pytest

import gradedgeo

MODULES = ["gradedgeo", *(f"gradedgeo.{m.name}" for m in pkgutil.iter_modules(gradedgeo.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    # a stale entry would make `from module import *` raise
    module = importlib.import_module(name)
    assert [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)] == []
