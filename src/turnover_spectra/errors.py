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


def _listed(ids: tuple[str, ...]) -> str:
    """The ids joined by commas for a message, each as it is unless it holds
    a line break or another unprintable character, which ``repr`` spells
    out, so that the message stays on one line."""
    return ", ".join(name if name.isprintable() else repr(name) for name in ids)


class RejectedSeriesError(TurnoverSpectraError):
    """Series with fewer than two observations are unusable and rejected."""

    def __init__(self, ids: Iterable[str]):
        self.ids = tuple(ids)
        super().__init__("series with fewer than 2 observations: " + _listed(self.ids))


class DegenerateSeriesError(TurnoverSpectraError):
    """Zero sample variance somewhere, so a correlation is undefined."""

    def __init__(self, ids: Iterable[str], note: str = "zero sample variance"):
        self.ids = tuple(ids)
        super().__init__(f"{note}: " + _listed(self.ids))


class CoverageError(TurnoverSpectraError):
    """Too few joint observations to estimate the requested quantity."""


class CollinearFactorsError(TurnoverSpectraError):
    """Regression design matrix is rank deficient."""


class InvalidMatrixError(TurnoverSpectraError, ValueError):
    """Matrix input violates a precondition on its values: it is not square,
    empty (0 x 0), not finite, or not symmetric within
    ``1e-12 * max(1, max|a|)``; or, for a correlation matrix, its diagonal is
    off 1 or an entry leaves [-1, 1]; or, for a covariance matrix, its
    diagonal is not strictly positive (:class:`InvalidDiagonalError`).

    The matrix wrappers raise it at construction; a matrix reaches the
    spectral layer only in a wrapper. The moments kernel raises it too, when
    a panel's covariances overflow float64, and ``conditioning`` when a
    wrapper's spectrum overflows float64 (an eigenvalue is not finite), when
    a repair floor exceeds the mean diagonal, which no repair can reach, when
    a repair floor is at or below ``2 * N * eps * trace``, too small for the
    spectrum to resolve, and when a repair does not converge. A
    numeric-validity refusal, so the command line exits 2 on it; also a
    ``ValueError``, as the wrappers' other argument check (the number of
    ids) is.
    """


class InvalidDiagonalError(InvalidMatrixError):
    """A diagonal entry is not strictly positive: refused by a covariance
    matrix at construction."""


class CalibrationError(TurnoverSpectraError):
    """Single-alpha calibration system is singular or ill-conditioned."""


class UndefinedRegressorError(TurnoverSpectraError):
    """Through-origin regression needs a regressor with nonzero norm."""


class DegenerateTopWarning(UserWarning):
    """Leading eigenvalue is not isolated; leading-eigenvector quantities
    depend on an arbitrary basis choice."""
