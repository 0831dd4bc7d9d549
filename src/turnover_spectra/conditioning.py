"""Spectral analysis and conditioning of covariance/correlation matrices:
eigendecomposition, redundancy pruning, eigenvalue-floor repair, and
portfolio volatility."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .errors import (
    IllDefinedVolatilityError,
    InvalidDiagonalError,
    InvalidMatrixError,
    PanelFormatError,
)
from .panel import EXTERNAL, CorrelationMatrix, CovarianceMatrix, _fast_grid, _read_csv

_SYMMETRY_RTOL = 1e-10

MatrixLike = CorrelationMatrix | CovarianceMatrix | np.ndarray


def default_floor(n: int) -> float:
    """Eigenvalue floor that lifts rounding-level negatives without moving
    the bulk spectrum."""
    return 1e-8 * n


@dataclass(frozen=True)
class RepairConfig:
    """Conditioning knobs: eigenvalue floor, redundancy bound, top-gap tolerance."""

    eigen_floor: float
    redundancy_bound: float = 0.9
    degeneracy_tolerance: float = 0.0

    def __post_init__(self) -> None:
        if self.eigen_floor <= 0:
            raise ValueError("eigen_floor must be positive")
        if not 0.0 < self.redundancy_bound < 1.0:
            raise ValueError("redundancy_bound must lie in (0, 1)")
        if self.degeneracy_tolerance < 0:
            raise ValueError("degeneracy_tolerance must be nonnegative")

    @classmethod
    def for_dimension(cls, n: int) -> "RepairConfig":
        return cls(default_floor(n), 0.9, 1e-10 * n)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Descending eigensystem of a symmetric matrix.

    Column ``p`` of ``eigenvectors`` pairs with ``eigenvalues[p]``; columns
    are orthonormal, with each one oriented so its largest-magnitude
    component is positive, making the decomposition deterministic for
    identical inputs.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    source_dim: int
    top_gap: float
    orthonormality_residual: float

    def reconstruct(self) -> np.ndarray:
        """V diag(w) V^T."""
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.T


def _matrix_entries(matrix: MatrixLike) -> np.ndarray:
    if isinstance(matrix, (CorrelationMatrix, CovarianceMatrix)):
        return matrix.entries
    return np.asarray(matrix, dtype=float)


def _checked_symmetric(entries: np.ndarray) -> np.ndarray:
    """Validate finiteness/squareness/symmetry and average out asymmetry."""
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise InvalidMatrixError("matrix must be square")
    if not np.isfinite(entries).all():
        raise InvalidMatrixError("matrix entries must be finite")
    scale = max(float(np.abs(entries).max(initial=0.0)), 1.0)
    if float(np.abs(entries - entries.T).max(initial=0.0)) > _SYMMETRY_RTOL * scale:
        raise InvalidMatrixError("matrix is not symmetric within tolerance")
    return 0.5 * (entries + entries.T)


def _remember(matrix: CorrelationMatrix | CovarianceMatrix, values, vectors) -> None:
    values.setflags(write=False)
    vectors.setflags(write=False)
    object.__setattr__(matrix, "_eigensystem", (values, vectors))


def _spectrum(matrix: MatrixLike) -> tuple[np.ndarray, np.ndarray]:
    """Ascending ``(values, vectors)`` of ``np.linalg.eigh`` on the symmetrized matrix.

    The one way the package solves a spectrum. A matrix wrapper is solved at
    most once: the read-only result is kept in its ``_eigensystem`` slot and
    returned by every later call. A bare array is validated and solved on
    every call.
    """
    memo = getattr(matrix, "_eigensystem", None)
    if memo is not None:
        return memo
    values, vectors = np.linalg.eigh(_checked_symmetric(_matrix_entries(matrix)))
    if isinstance(matrix, (CorrelationMatrix, CovarianceMatrix)):
        _remember(matrix, values, vectors)
    return values, vectors


def eigendecompose(matrix: MatrixLike) -> SpectralDecomposition:
    """Eigenvalues (descending) and orthonormal eigenvectors of a symmetric matrix.

    Accepts the matrix wrappers or a bare array; the input is symmetrized by
    averaging before solving. Equal eigenvalues keep their solver order
    (stable sort) and each eigenvector is sign-fixed so its largest-magnitude
    component is positive.

    The solve goes through the matrix's memo (:func:`_spectrum`): a wrapper
    already classified, repaired or decomposed costs no further ``eigh``.
    """
    values, vectors = _spectrum(matrix)
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    n = values.size
    flip = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(n)] < 0
    vectors = np.where(flip[None, :], -vectors, vectors)
    residual = float(np.abs(vectors.T @ vectors - np.eye(n)).max())
    top_gap = float(values[0] - values[1]) if n > 1 else math.inf
    return SpectralDecomposition(values, vectors, n, top_gap, residual)


def prune_redundant(
    corr: CorrelationMatrix, bound: float
) -> tuple[list[int], CorrelationMatrix]:
    """Drop series too correlated with an already-kept series.

    Greedy scan in ascending index order: index i survives when no kept k
    has ``|corr[k, i]| > bound``, so the pruned matrix satisfies
    max off-diagonal |corr| <= bound. Returns (kept indices, pruned matrix).
    """
    if not 0.0 < bound < 1.0:
        raise ValueError("bound must lie in (0, 1)")
    magnitude = np.abs(corr.entries)
    kept: list[int] = []
    for i in range(corr.n):
        if all(magnitude[k, i] <= bound for k in kept):
            kept.append(i)
    sub = corr.entries[np.ix_(kept, kept)]
    ids = tuple(corr.ids[i] for i in kept) if corr.ids is not None else None
    status = "verified-PD" if corr.psd_status == "verified-PD" else "unverified"
    return kept, CorrelationMatrix(sub, corr.estimation_mode, status, ids)


_REPAIR_MAX_PASSES = 1000


def rj_repair(matrix: MatrixLike, floor: float) -> MatrixLike:
    """Floor the spectrum at ``floor`` and rescale to preserve the diagonal.

    One pass raises every eigenvalue below the floor to it and rescales each
    series by ``z_i = C_ii / sum_j U_ij^2 lifted_j`` so the diagonal is kept
    exactly. The rescaling can push a lifted eigenvalue slightly back under
    the floor, so the pass is iterated until the spectrum clears the floor
    up to the rounding of ``eigh`` itself (:func:`_eigh_rounding`), below
    which a further pass cannot move it. Input that clears the floor passes
    through unchanged, so the operation is idempotent, and its output is
    strictly positive definite whenever the floor exceeds that rounding.

    Returns the same kind of object it was given (correlation in,
    correlation out; covariance in, covariance out; bare array in, bare
    array out). A correlation output's ``psd_status`` is read off the final
    spectrum by the rule of :func:`classify_definiteness`, so the two agree;
    it is "verified-PD" for the default floor.

    The first pass takes the input's spectrum through :func:`_spectrum`, so
    a wrapper already classified costs no solve there. A wrapper output
    whose entries equal the final iterate bit for bit gets that iterate's
    eigensystem as its memo, so decomposing or classifying it next costs no
    solve either.
    """
    if floor <= 0:
        raise ValueError("floor must be positive")
    entries = _matrix_entries(matrix)
    current = _checked_symmetric(entries)
    diag = np.diag(entries).copy()
    if (diag <= 0).any():
        raise InvalidDiagonalError("diagonal entries must be positive to repair")
    np.fill_diagonal(current, diag)
    # symmetrizing by averaging keeps the diagonal, so this is ``current``'s spectrum
    values, vectors = _spectrum(matrix)
    passes = 1
    while float(values.min()) < floor - _eigh_rounding(values):
        if passes == _REPAIR_MAX_PASSES:
            raise InvalidMatrixError(
                f"eigenvalue-floor repair did not converge in {_REPAIR_MAX_PASSES} passes"
            )
        lifted = np.maximum(values, floor)
        denom = (vectors * vectors) @ lifted
        # a positive floor makes every denominator a positive combination
        assert (denom > 0).all()
        scale = np.sqrt(diag / denom)
        half = scale[:, None] * vectors * np.sqrt(lifted)[None, :]
        current = half @ half.T
        current = 0.5 * (current + current.T)
        np.fill_diagonal(current, diag)
        values, vectors = np.linalg.eigh(current)
        passes += 1
    if isinstance(matrix, CorrelationMatrix):
        out = CorrelationMatrix(
            current, matrix.estimation_mode, _definiteness(values), matrix.ids
        )
    elif isinstance(matrix, CovarianceMatrix):
        out = CovarianceMatrix(
            current,
            matrix.vols,
            matrix.pairwise_counts,
            matrix.estimation_mode,
            matrix.ids,
        )
    else:
        return current
    if np.array_equal(out.entries, current):
        _remember(out, values, vectors)
    return out


def _psd_tolerance(values: np.ndarray) -> float:
    return 1e-12 * values.size * max(1.0, float(np.abs(values).max(initial=0.0)))


def _eigh_rounding(values: np.ndarray) -> float:
    """Rounding of eigenvalues computed by ``eigh``: N * eps * max|lambda|."""
    return values.size * np.finfo(float).eps * float(np.abs(values).max(initial=0.0))


def portfolio_volatility(
    cov: MatrixLike, weights: np.ndarray, investment: float = 1.0
) -> float:
    """``investment * sqrt(w' C w)``, evaluated in the eigenbasis.

    Rejects matrices with materially negative eigenvalues: the quadratic
    form is then indefinite and the volatility undefined; run
    :func:`rj_repair` first.
    """
    values, vectors = _spectrum(cov)
    w = np.asarray(weights, dtype=float)
    if w.shape != (values.size,):
        raise ValueError("weights length must match matrix dimension")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if investment < 0:
        raise ValueError("investment must be nonnegative")
    if float(values.min()) < -_psd_tolerance(values):
        raise IllDefinedVolatilityError(
            f"matrix has eigenvalue {values.min():.3e} < 0, so the quadratic "
            "form is indefinite; repair the matrix (rj_repair) first"
        )
    rotated = vectors.T @ w
    quad = float(np.sum(values * rotated**2))
    return float(investment) * math.sqrt(max(quad, 0.0))


def classify_definiteness(matrix: MatrixLike) -> str:
    """One of 'verified-PD', 'verified-not-PSD', 'unverified' (borderline).

    The smallest eigenvalue is compared with ``1e-12 * N * max(1, max|lambda|)``.
    The eigenvalues come from the matrix's memo (:func:`_spectrum`), so
    classifying a wrapper and then repairing or decomposing it shares one
    ``eigh``.
    """
    return _definiteness(_spectrum(matrix)[0])


def _definiteness(values: np.ndarray) -> str:
    tol = _psd_tolerance(values)
    smallest = float(values.min())
    if smallest > tol:
        return "verified-PD"
    if smallest < -tol:
        return "verified-not-PSD"
    return "unverified"


def _matrix_ids(matrix: MatrixLike, n: int) -> tuple[str, ...]:
    ids = getattr(matrix, "ids", None)
    if ids is not None:
        return tuple(ids)
    return tuple(f"a{i + 1}" for i in range(n))


def matrix_to_csv(matrix: MatrixLike, dest: str | Path | IO[str]) -> None:
    """Write a square CSV with the ids as header."""
    entries = _matrix_entries(matrix)
    ids = _matrix_ids(matrix, entries.shape[0])

    def emit(handle: IO[str]) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(ids)
        for row in entries:
            writer.writerow([repr(float(x)) for x in row])

    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as handle:
            emit(handle)
    else:
        emit(dest)


def _fast_square(lines: Iterator[str]) -> tuple[tuple[str, ...], np.ndarray] | None:
    try:
        header = next(row for row in csv.reader(lines) if row)
    except (StopIteration, csv.Error):
        return None
    ids = tuple(cell.strip() for cell in header)
    entries = _fast_grid(lines, len(ids))
    # an empty cell (NaN here) is the reference's "non-numeric cell ''" error
    if entries is None or entries.shape[0] != len(ids) or np.isnan(entries).any():
        return None
    return ids, entries


def _square_from_rows(rows: list[list[str]]) -> tuple[tuple[str, ...], np.ndarray]:
    """Per-cell reference parse of a square matrix CSV."""
    rows = [row for row in rows if row]
    if not rows:
        raise PanelFormatError("empty matrix CSV", row=0)
    ids = tuple(cell.strip() for cell in rows[0])
    n = len(ids)
    if len(rows) - 1 != n:
        raise PanelFormatError(
            f"square matrix expected: {n} columns but {len(rows) - 1} data rows"
        )
    entries = np.empty((n, n))
    for r, row in enumerate(rows[1:]):
        if len(row) != n:
            raise PanelFormatError(f"expected {n} cells, found {len(row)}", row=r + 1)
        for c, cell in enumerate(row):
            try:
                entries[r, c] = float(cell)
            except ValueError:
                raise PanelFormatError(
                    f"non-numeric cell {cell.strip()!r}", row=r + 1, column=ids[c]
                ) from None
    return ids, entries


def _square_from_csv(source: str | Path | IO[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Ids and entries of a square matrix CSV, parsed like ``load_panel``.

    Cells are read as written, ``nan`` included, which the matrix types then
    refuse; an empty cell is a parse error.
    """
    return _read_csv(source, _fast_square, _square_from_rows)


def correlation_from_csv(source: str | Path | IO[str]) -> CorrelationMatrix:
    """Load a correlation matrix from the square-CSV layout."""
    return _correlation_from_entries(*_square_from_csv(source))


def _correlation_from_entries(ids: tuple[str, ...], entries: np.ndarray) -> CorrelationMatrix:
    return CorrelationMatrix(entries, EXTERNAL, "unverified", ids)


def covariance_from_csv(source: str | Path | IO[str]) -> CovarianceMatrix:
    """Load a covariance matrix; vols come from the diagonal, counts are unknown."""
    return _covariance_from_entries(*_square_from_csv(source))


def _covariance_from_entries(ids: tuple[str, ...], entries: np.ndarray) -> CovarianceMatrix:
    diag = np.diag(entries)
    if (diag <= 0).any():
        raise InvalidDiagonalError("covariance diagonal must be positive")
    counts = np.zeros(entries.shape, dtype=int)
    return CovarianceMatrix(entries, np.sqrt(diag), counts, EXTERNAL, ids)


def matrix_report(matrix: MatrixLike) -> dict:
    """JSON-ready report: ids, entries, eigenvalues, psd_status (one solve for a wrapper)."""
    entries = _matrix_entries(matrix)
    decomposition = eigendecompose(matrix)
    return {
        "ids": list(_matrix_ids(matrix, entries.shape[0])),
        "entries": entries.tolist(),
        "eigenvalues": decomposition.eigenvalues.tolist(),
        "psd_status": classify_definiteness(matrix),
    }
