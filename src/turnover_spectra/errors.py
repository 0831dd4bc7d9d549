"""Exception and warning types shared across the package."""

from __future__ import annotations

from typing import Iterable


class TurnoverSpectraError(Exception):
    """Base class for all package-specific errors."""


class PanelFormatError(TurnoverSpectraError):
    """Malformed CSV input, panel or square matrix: both are read by one reader
    under one header rule (no blank or repeated id, at least one data row),
    so the same defect gets the same message, row and column in either
    layout. Also a ragged row, a non-numeric cell, or a cell its layout
    refuses: a non-finite value in a panel, an empty cell in a matrix."""

    def __init__(self, message: str, *, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column!r}")
        super().__init__(f"{message} ({', '.join(where)})" if where else message)


class RejectedSeriesError(TurnoverSpectraError):
    """Series with fewer than two observations are unusable and rejected."""

    def __init__(self, ids: Iterable[str]):
        self.ids = tuple(ids)
        super().__init__(
            "series with fewer than 2 observations: " + ", ".join(self.ids)
        )


class DegenerateSeriesError(TurnoverSpectraError):
    """Zero sample variance somewhere, so a correlation is undefined."""

    def __init__(self, ids: Iterable[str], note: str = "zero sample variance"):
        self.ids = tuple(ids)
        super().__init__(f"{note}: " + ", ".join(self.ids))


class CoverageError(TurnoverSpectraError):
    """Too few joint observations to estimate the requested quantity."""


class CollinearFactorsError(TurnoverSpectraError):
    """Regression design matrix is rank deficient."""


class InvalidMatrixError(TurnoverSpectraError, ValueError):
    """Matrix input violates a precondition on its values: it is not square,
    not finite, or not symmetric within ``1e-12 * max(1, max|a|)``; or, for a
    correlation matrix, its diagonal is off 1 or an entry leaves [-1, 1]; or,
    for a covariance matrix, its diagonal is not strictly positive
    (:class:`InvalidDiagonalError`).

    The matrix wrappers raise it at construction, and ``conditioning`` raises
    the structural part for a bare array by the same rule. A numeric-validity
    refusal, so the command line exits 2 on it; also a ``ValueError``, as the
    wrappers' other argument checks (the shapes of counts and ids) are.
    """


class InvalidDiagonalError(InvalidMatrixError):
    """A diagonal entry is not strictly positive: refused by a covariance
    matrix at construction, and by ``rj_repair`` for a bare array."""


class CalibrationError(TurnoverSpectraError):
    """Single-alpha calibration system is singular or ill-conditioned."""


class UndefinedRegressorError(TurnoverSpectraError):
    """Through-origin regression needs a regressor with nonzero norm."""


class DegenerateTopWarning(UserWarning):
    """Leading eigenvalue is not isolated; leading-eigenvector quantities
    depend on an arbitrary basis choice."""
