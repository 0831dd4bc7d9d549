"""Fixtures shared by the test modules."""

import os
import warnings
from unittest import mock

from turnover_spectra import _THREAD_VARS

# BLAS on one thread unless the caller set a count, as a command runs it
# (``cli``), so that a test's floats match a command's. Set before numpy
# loads, which is when BLAS reads them.
if not any(var in os.environ for var in _THREAD_VARS):
    os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))

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
