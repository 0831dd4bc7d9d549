"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def eigensolves(monkeypatch):
    """Shapes of the matrices passed to ``eigh`` or ``eigvalsh``, in call order."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(a, *args, _solver=solver, **kwargs):
            calls.append(np.shape(a))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
