import pytest

from gradedgeo import exprfield as ef


@pytest.fixture
def jet_calls(monkeypatch):
    """The field argument of every ef.eval_jet and ef.eval_jets_batch call, in order."""
    calls = []
    for name in ("eval_jet", "eval_jets_batch"):
        def counted(fields, *args, _original=getattr(ef, name), **kwargs):
            calls.append(fields)
            return _original(fields, *args, **kwargs)

        monkeypatch.setattr(ef, name, counted)
    return calls
