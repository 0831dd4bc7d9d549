"""Fixtures shared by the test modules."""

import warnings
from unittest import mock

# The command module, imported before numpy: its rule runs BLAS on one thread
# unless the caller set a count, so that a test's floats match a command's.
import turnover_spectra.cli  # noqa: F401

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


@pytest.fixture
def fixed_warning_filters():
    """A context in which any change to the process-wide warning filters fails:
    ``warnings.catch_warnings``, ``simplefilter`` and ``filterwarnings`` raise
    ``AssertionError`` (``catch_warnings`` is not thread-safe). Leaving the
    context restores them, so pytest, which calls them itself, can still
    report a failure."""

    def refuse(*args, **kwargs):
        raise AssertionError("the warning filters were changed")

    return lambda: mock.patch.multiple(
        warnings, catch_warnings=refuse, simplefilter=refuse, filterwarnings=refuse
    )
