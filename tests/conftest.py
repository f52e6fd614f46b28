"""Fixtures shared by the test modules."""

import pytest

from hessian_radial import solver


@pytest.fixture
def bounded_walks(monkeypatch):
    """Walks whose fronts sweep more than 4000 times in all raise
    RuntimeError: a walk that stops advancing fails its test instead of
    hanging it.  Each sweep evaluates log f once."""
    front, sweeps = solver._front, []

    def bounded(p, log_f, *args):
        def counted(t):
            sweeps.append(None)
            if len(sweeps) > 4000:
                raise RuntimeError("the walk does not advance")
            return log_f(t)
        return front(p, counted, *args)
    monkeypatch.setattr(solver, "_front", bounded)
    return sweeps
