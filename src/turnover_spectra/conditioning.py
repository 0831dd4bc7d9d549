"""Spectral analysis and conditioning of covariance/correlation matrices:
eigendecomposition, redundancy pruning and eigenvalue-floor repair."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

from ._grid import read_grid, write_csv
from .errors import InvalidDiagonalError, InvalidMatrixError, PanelFormatError
from .panel import CorrelationMatrix, CovarianceMatrix, _Matrix, _symmetric

MatrixLike = CorrelationMatrix | CovarianceMatrix | np.ndarray


def default_floor(n: int) -> float:
    """Eigenvalue floor that lifts rounding-level negatives without moving
    the bulk spectrum."""
    return 1e-8 * n


@dataclass(frozen=True)
class SpectralDecomposition:
    """Descending eigensystem of a symmetric matrix.

    Column ``p`` of ``eigenvectors`` pairs with ``eigenvalues[p]``; columns
    are orthonormal, with each one oriented so its largest-magnitude
    component is positive, making the decomposition deterministic for
    identical inputs. ``source_dim``, the matrix dimension, is derived from
    the vectors' length, so a decomposition from :func:`_leading_pair`,
    which holds the top pair only as one N x 1 column, has it too.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    top_gap: float
    orthonormality_residual: float

    @property
    def source_dim(self) -> int:
        return self.eigenvectors.shape[0]


def _matrix_entries(matrix: MatrixLike) -> np.ndarray:
    """A wrapper's own entries, symmetric since construction, or a bare array
    checked and symmetrized by the wrappers' rule (:func:`panel._symmetric`)."""
    if isinstance(matrix, _Matrix):
        return matrix.entries
    return _symmetric(matrix)


def _remember(matrix: _Matrix, values, vectors) -> None:
    values.setflags(write=False)
    vectors.setflags(write=False)
    object.__setattr__(matrix, "_eigensystem", (values, vectors))


def _spectrum(matrix: MatrixLike) -> tuple[np.ndarray, np.ndarray]:
    """Ascending ``(values, vectors)`` of ``np.linalg.eigh`` on the matrix.

    The one way the package solves a spectrum. A matrix wrapper's entries
    are symmetric from construction and go to ``eigh`` as they are, with no
    copy; the wrapper is solved at most once, the read-only result kept in
    its ``_eigensystem`` slot and returned by every later call. A bare array
    is validated and symmetrized once by the same rule
    (:func:`_matrix_entries`) and solved on every call.
    """
    memo = getattr(matrix, "_eigensystem", None)
    if memo is not None:
        return memo
    values, vectors = np.linalg.eigh(_matrix_entries(matrix))
    if isinstance(matrix, _Matrix):
        _remember(matrix, values, vectors)
    return values, vectors


def _leading_pair(corr: CorrelationMatrix, floor: float | None) -> SpectralDecomposition | None:
    """The top eigenpair of a correlation matrix without a full solve, or None.

    With a ``floor``, the spectrum must first be certified to clear it: a
    Cholesky factorisation of ``C - (floor + margin) I`` succeeds only when
    the true smallest eigenvalue is at least the floor (:func:`_cholesky_margin`),
    and then :func:`rj_repair`, whose stop test allows for ``eigh``'s rounding,
    would return ``C`` unchanged. The pair comes from power iteration started
    from the all-ones vector (no random numbers): each step maps the unit
    vector ``u`` to ``C u``, takes the Rayleigh quotient ``theta = u . C u``,
    and stops once the pair passes the residual test below, or gives up after
    ``_POWER_STEPS`` steps. The pair is accepted only when

    * its residual ``|C u - theta u|`` is within :func:`_ritz_tolerance`, so
      an eigenvalue ``lambda`` lies within that radius of ``theta``; and
    * ``lambda`` is isolated: the other eigenvalues' squares sum to
      ``|C|_F^2 - lambda^2``, which bounds each of them, and that bound is at
      most ``(1 - _TOP_GAP_RTOL) * lambda``. So ``lambda`` is the top
      eigenvalue, ahead of the next by at least ``_TOP_GAP_RTOL * lambda``,
      which clears ``fix_sign_basis``'s degeneracy tolerance
      ``1e-10 * N * lambda`` and pins the vector down well enough for this
      solve and ``eigh`` to agree to rounding.

    The cap is derived from the isolation test, not tuned: an accepted top
    makes each step shrink the iterate's error by ``1 - _TOP_GAP_RTOL`` or
    more, and ``_POWER_STEPS`` steps shrink it by eps (see its comment).

    The same isolation test, applied first to the upper bound
    ``min(|C|_inf, |C|_F)`` on ``lambda_1``, turns away a matrix whose top
    cannot pass before any work. Anything else (a failed factorisation, no
    convergence within the cap, a top not isolated) returns None, and the
    caller takes the full ``eigh`` path. The result holds the one pair,
    oriented like :func:`eigendecompose`'s columns; ``top_gap`` is the
    certified lower bound on ``lambda_1 - lambda_2``.
    It makes no ``eigh`` call.
    """
    a = corr.entries
    n = a.shape[0]
    fro2 = float(np.vdot(a, a)) * (1.0 + n * n * _EPS)  # |C|_F^2, rounded up

    def runner_up(top: float) -> float:  # |other eigenvalues| when one is >= top
        return math.sqrt(max(fro2 - top * top, 0.0))

    top = min(float(np.linalg.norm(a, np.inf)), math.sqrt(fro2))
    if runner_up(top) > (1.0 - _TOP_GAP_RTOL) * top:
        return None
    if floor is not None:
        shifted = a.copy()
        shifted.flat[:: n + 1] -= floor + _cholesky_margin(a)
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            return None
        del shifted
    u = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(_POWER_STEPS):
        image = a @ u
        theta = float(u @ image)
        residual = float(np.linalg.norm(image - theta * u))
        if residual <= _ritz_tolerance(n, theta):
            break
        u = image / np.linalg.norm(image)
    else:
        return None
    low = theta - residual - _ritz_tolerance(n, theta)
    if runner_up(low) > (1.0 - _TOP_GAP_RTOL) * low:
        return None
    if u[np.argmax(np.abs(u))] < 0:
        u = -u
    gap = low - runner_up(low)
    return SpectralDecomposition(np.array([theta]), u[:, None], gap, abs(float(u @ u) - 1.0))


def eigendecompose(matrix: MatrixLike) -> SpectralDecomposition:
    """Eigenvalues (descending) and orthonormal eigenvectors of a symmetric matrix.

    Accepts the matrix wrappers or a bare array. A wrapper's entries are
    symmetric from construction and are solved as they are; a bare array is
    validated and symmetrized once, by the wrappers' rule, before its solve.
    Equal eigenvalues keep their solver order (stable sort) and each
    eigenvector is sign-fixed so its largest-magnitude component is positive.

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
    return SpectralDecomposition(values, vectors, top_gap, residual)


def prune_redundant(
    corr: CorrelationMatrix, bound: float
) -> tuple[list[int], CorrelationMatrix]:
    """Drop series too correlated with an already-kept series.

    Greedy scan in ascending index order: index i survives when no kept k
    has ``|corr[k, i]| > bound``, so the pruned matrix satisfies
    max off-diagonal |corr| <= bound. Returns (kept indices, pruned matrix).
    ``blocked[i]`` holds exactly "some kept k has ``|corr[k, i]| > bound``":
    each kept row is ORed in as it is kept.
    """
    if not 0.0 < bound < 1.0:
        raise ValueError("bound must lie in (0, 1)")
    blocked = np.zeros(corr.n, dtype=bool)
    kept: list[int] = []
    for i in range(corr.n):
        if not blocked[i]:
            kept.append(i)
            blocked |= np.abs(corr.entries[i]) > bound
    sub = corr.entries[np.ix_(kept, kept)]
    ids = tuple(corr.ids[i] for i in kept) if corr.ids is not None else None
    return kept, CorrelationMatrix(sub, ids=ids)


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
    array out).

    A wrapper's entries are symmetric from construction and are used as
    they are; a bare array is validated and symmetrized once, by the
    wrappers' rule. The first pass takes a wrapper's spectrum through
    :func:`_spectrum`, so a wrapper already classified costs no solve there.
    A wrapper output whose entries equal the final iterate bit for bit gets
    that iterate's eigensystem as its memo, so decomposing or classifying it
    next costs no solve either. A wrapper output also records in its
    ``_repair_passes`` slot how many eigen-passes the repair took, the first
    included (1 for input that already clears the floor).
    """
    if not 0 < floor < math.inf:
        raise ValueError("floor must be positive and finite")
    current = _matrix_entries(matrix)
    diag = np.diag(current).copy()
    if (diag <= 0).any():
        raise InvalidDiagonalError("diagonal entries must be positive to repair")
    # a bare array's ``current`` is already its validated copy: solve it directly
    values, vectors = (
        _spectrum(matrix) if isinstance(matrix, _Matrix) else np.linalg.eigh(current)
    )
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
    if not isinstance(matrix, _Matrix):
        return current
    out = type(matrix)(current, ids=matrix.ids)
    if np.array_equal(out.entries, current):
        _remember(out, values, vectors)
    object.__setattr__(out, "_repair_passes", passes)
    return out


def _psd_tolerance(values: np.ndarray) -> float:
    return 1e-12 * values.size * max(1.0, float(np.abs(values).max(initial=0.0)))


_EPS = np.finfo(float).eps


def _eigh_rounding(values: np.ndarray) -> float:
    """Rounding of eigenvalues computed by ``eigh``: N * eps * max|lambda|."""
    return values.size * _EPS * float(np.abs(values).max(initial=0.0))


def _cholesky_margin(entries: np.ndarray) -> float:
    """Bound on the backward error of a Cholesky factorisation that succeeds:
    ``(N + 1)^2 * eps * max|A_ii|``.

    A factor computed for ``A`` is exact for some ``A + E`` with
    ``|E|_2 <= gamma_(N+1) * trace(A + E)`` (Higham, *Accuracy and Stability
    of Numerical Algorithms*, Thm 10.3), and the trace is at most
    ``N * max|A_ii|``; so success on ``A - (f + margin) I`` shows that the
    smallest eigenvalue of ``A`` is at least ``f``.
    """
    n = entries.shape[0]
    return (n + 1) ** 2 * _EPS * float(np.abs(np.diagonal(entries)).max(initial=0.0))


def _ritz_tolerance(n: int, theta: float) -> float:
    """Residual at which a Ritz pair (a Rayleigh quotient and its unit vector)
    is as good as ``eigh``'s: N * eps * |theta|."""
    return n * _EPS * abs(theta)


# the leading pair is taken only when lambda_1 - lambda_2 >= this * lambda_1;
# the vector is then within residual / gap <= 10 * N * eps of the true one
_TOP_GAP_RTOL = 0.1
# Power steps before the leading pair gives up: 343. A top the isolation test
# accepts leads every other eigenvalue in magnitude by the factor
# 1 - _TOP_GAP_RTOL, so each step shrinks the tangent of the iterate's angle
# to the top vector by at least that factor, and this many steps shrink it by
# eps. The residual, at most about 2 * lambda_1 times that tangent, then
# passes the N * eps * lambda_1 test from any start whose tangent is at most
# N / 2. A start further off, or a top not isolated, takes the full path.
_POWER_STEPS = math.ceil(math.log(_EPS) / math.log(1.0 - _TOP_GAP_RTOL))


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
    """Write a square CSV with the ids as header; the artifact that holds a
    matrix's entries (:func:`matrix_report` leaves them out)."""
    entries = _matrix_entries(matrix)
    write_csv(dest, _matrix_ids(matrix, entries.shape[0]), entries)


def _square_from_csv(source: str | Path | IO[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Ids and entries of a square matrix CSV, read by the reader ``load_panel``
    uses (:func:`_grid.read_grid`), header rule and forked parts included.

    The matrix's one cell rule: an empty cell is a parse error. Other cells
    are kept as read, ``nan`` included, and rows are not counted against the
    ids: the matrix types then refuse a non-finite or non-square grid.
    """
    ids, entries, empty = read_grid(source)
    if empty.any():
        r, c = np.argwhere(empty)[0].tolist()
        raise PanelFormatError("non-numeric cell ''", row=r + 1, column=ids[c])
    return ids, entries


def correlation_from_csv(source: str | Path | IO[str]) -> CorrelationMatrix:
    """Load a correlation matrix from the square-CSV layout."""
    ids, entries = _square_from_csv(source)
    return CorrelationMatrix(entries, ids=ids)


def matrix_report(matrix: MatrixLike) -> dict:
    """JSON-ready report: ids, eigenvalues, psd_status (one solve). The
    entries are not repeated here: :func:`matrix_to_csv` writes them."""
    decomposition = eigendecompose(matrix)
    return {
        "ids": list(_matrix_ids(matrix, decomposition.source_dim)),
        "eigenvalues": decomposition.eigenvalues.tolist(),
        "psd_status": _definiteness(decomposition.eigenvalues),
    }
