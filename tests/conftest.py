"""Fixtures shared by the test modules."""

import pytest

from hessian_radial import solver


@pytest.fixture
def bounded_walks(monkeypatch):
    """Walks that settle more than 2000 windows in all raise RuntimeError:
    a walk that stops advancing fails its test instead of hanging it."""
    settle, windows = solver._settle_window, []

    def bounded(*args):
        windows.append(None)
        if len(windows) > 2000:
            raise RuntimeError("the walk does not advance")
        return settle(*args)
    monkeypatch.setattr(solver, "_settle_window", bounded)
