"""Spectral analysis and conditioning of covariance/correlation matrices:
eigendecomposition, redundancy pruning and eigenvalue-floor repair."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

from ._grid import read_grid, write_csv
from .errors import InvalidMatrixError, PanelFormatError
from .panel import CorrelationMatrix, CovarianceMatrix

MatrixLike = CorrelationMatrix | CovarianceMatrix

# The default eigenvalue floor per unit of trace (``default_floor``): far
# above what a solve can resolve (``_floor_bound``), and far below the bulk of
# a sample spectrum, which it leaves where it is.
_FLOOR_PER_TRACE = 1e-8


def default_floor(matrix: MatrixLike) -> float:
    """Eigenvalue floor that lifts rounding-level negatives without moving
    the bulk spectrum: 1e-8 times the matrix's trace, so that it scales with
    the data. A correlation's trace is exactly N, so its floor is 1e-8 * N
    bit for bit. The trace is taken as N times :func:`_mean_diagonal`, which
    does not overflow.

    The floor clears :func:`_check_floor`'s lower bound, ``2 * N * eps *
    trace`` (:func:`_floor_bound`), for every N below 2.25e7, where
    ``2 * N * eps`` reaches 1e-8.
    """
    return matrix.n * (_FLOOR_PER_TRACE * _mean_diagonal(matrix))


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


def _remember(matrix: MatrixLike, values, vectors) -> None:
    values.setflags(write=False)
    vectors.setflags(write=False)
    object.__setattr__(matrix, "_eigensystem", (values, vectors))


def _eigh(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending ``(values, vectors)`` of ``np.linalg.eigh`` on ``entries``:
    the package's one eigensolve, which reads the lower triangle alone.

    A spectrum that overflows float64 (an eigenvalue that is not finite, as
    a finite matrix near the float64 limit can have) raises
    ``InvalidMatrixError``: no stop test, order or gap can be read from it.
    """
    values, vectors = np.linalg.eigh(entries)
    if not np.isfinite(values).all():
        raise InvalidMatrixError("matrix spectrum overflows float64: an eigenvalue is not finite")
    return values, vectors


def _spectrum(matrix: MatrixLike) -> tuple[np.ndarray, np.ndarray]:
    """Ascending ``(values, vectors)`` of a matrix wrapper, by :func:`_eigh`.

    A wrapper's entries are symmetric from construction and go to the solve
    as they are, with no copy; the wrapper is solved at most once, the
    read-only result kept in its ``_eigensystem`` slot and returned by every
    later call.
    """
    if matrix._eigensystem is None:
        _remember(matrix, *_eigh(matrix.entries))
    return matrix._eigensystem


def _oriented(vectors: np.ndarray) -> np.ndarray:
    """The eigenvector orientation rule: ``vectors`` with each column whose
    largest-magnitude component is negative negated (the first such
    component on a tie), exactly, so no magnitude moves."""
    flip = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])] < 0
    return np.where(flip, -vectors, vectors)


def _leading_pair(corr: CorrelationMatrix, floor: float | None) -> SpectralDecomposition | None:
    """The top eigenpair of a correlation matrix without a full solve, or None.

    The caller has checked ``floor`` (:func:`_check_floor`), and the floor
    must first be certified as cleared by the spectrum: a Cholesky
    factorisation of ``C - (floor + margin) I`` succeeds only when the true
    smallest eigenvalue is at least the floor (:func:`_cholesky_margin`),
    and then :func:`rj_repair`, whose stop test allows for ``eigh``'s rounding,
    would return ``C`` unchanged. The pair comes from power iteration started
    from the all-ones vector (no random numbers): each step maps the unit
    vector ``u`` to ``C u``, takes the Rayleigh quotient ``theta = u . C u``,
    and stops once the pair passes the residual test below, or gives up after
    ``_POWER_STEPS`` steps. The pair is accepted only when

    * its residual ``|C u - theta u|`` is within the one resolution rule,
      :func:`_resolution` at ``|theta|`` (what ``eigh`` itself can resolve),
      so an eigenvalue ``lambda`` lies within that radius of ``theta``; and
    * ``lambda`` is isolated: the other eigenvalues' squares sum to
      ``|C|_F^2 - lambda^2``, which bounds each of them, and that bound is at
      most ``(1 - _TOP_GAP_RTOL) * lambda``. So ``lambda`` is the top
      eigenvalue, ahead of the next by at least ``_TOP_GAP_RTOL * lambda``,
      which clears ``fix_sign_basis``'s degeneracy tolerance
      ``turnover._DEGENERACY_RTOL * N * lambda`` and pins the vector down
      well enough for this solve and ``eigh`` to agree to rounding.

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
        if residual <= _resolution(n, abs(theta)):
            break
        u = image / np.linalg.norm(image)
    else:
        return None
    low = theta - residual - _resolution(n, abs(theta))
    if runner_up(low) > (1.0 - _TOP_GAP_RTOL) * low:
        return None
    gap = low - runner_up(low)
    return SpectralDecomposition(
        np.array([theta]), _oriented(u[:, None]), gap, abs(float(u @ u) - 1.0)
    )


def eigendecompose(matrix: MatrixLike) -> SpectralDecomposition:
    """Eigenvalues (descending) and orthonormal eigenvectors of a matrix wrapper.

    The wrapper's entries are symmetric from construction and are solved as
    they are. Equal eigenvalues keep their solver order (stable sort) and
    each eigenvector is sign-fixed so its largest-magnitude component is
    positive (:func:`_oriented`).

    The solve goes through the matrix's memo (:func:`_spectrum`): a wrapper
    already classified, repaired or decomposed costs no further ``eigh``. A
    spectrum that overflows float64 raises ``InvalidMatrixError``.
    """
    values, vectors = _spectrum(matrix)
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    n = values.size
    vectors = _oriented(vectors)
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
    up to the one resolution rule (:func:`_resolution`, the rounding of
    ``eigh`` itself), below which a further pass cannot move it. Input that
    already clears the floor is returned itself, with no copy, so the
    operation is idempotent. Every floor the repair accepts gives an output
    that :func:`classify_definiteness` reads as ``verified-PD``
    (:func:`_floor_bound`).

    Any other input gives the same kind of wrapper it was given (correlation
    in, correlation out; covariance in, covariance out), whose construction
    symmetrizes the last iterate. Each iterate is ``half @ half.T``, which
    numpy computes from one triangle and mirrors, and the solve reads one
    triangle, so no pass symmetrizes.

    Raises ``InvalidMatrixError``, before any solve, when the floor exceeds
    the mean diagonal (:func:`_check_floor`): the repair keeps the diagonal,
    and so the trace, and the smallest eigenvalue is at most trace / N, so
    no pass can meet that floor. It raises the same error, also before any
    solve, when the floor is too small for the spectrum to resolve, at or
    below :func:`_floor_bound`; when a spectrum overflows float64
    (:func:`_eigh`); or when the passes do not converge.

    Every pass solves by :func:`_eigh`. The first takes the wrapper's
    spectrum through :func:`_spectrum`, so a wrapper already classified
    costs no solve there. An output whose entries equal the final iterate
    bit for bit gets that iterate's eigensystem as its memo, so decomposing
    or classifying it next costs no solve either. The passes run in
    :func:`_condition`, which also returns what they did.
    """
    return _condition(matrix, floor)[0]


def _condition(matrix: MatrixLike, floor: float | None) -> tuple[MatrixLike, dict]:
    """:func:`rj_repair`'s loop: the conditioned wrapper and a record of it.

    The record holds what only the loop knows: ``repair_passes``, the
    eigen-passes taken, the first included (1 for input that already clears
    the floor), and ``min_eigenvalue_input``, the input's smallest
    eigenvalue, from its memoized spectrum. A ``floor`` of None repairs
    nothing: the input comes back itself, with ``repair_passes`` 0, and the
    only solve is the memo's.
    """
    current = matrix.entries
    diag = np.diag(current).copy()
    if floor is not None:
        _check_floor(floor, matrix.n, _mean_diagonal(matrix))
    values, vectors = _spectrum(matrix)
    lowest = float(values.min())
    passes = 0 if floor is None else 1
    while floor is not None and values.min() < floor - _resolution(values.size, abs(values).max()):
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
        np.fill_diagonal(current, diag)
        values, vectors = _eigh(current)
        passes += 1
    record = {"min_eigenvalue_input": lowest, "repair_passes": passes}
    if passes <= 1:
        return matrix, record
    out = type(matrix)(current, ids=matrix.ids)
    if np.array_equal(out.entries, current):
        _remember(out, values, vectors)
    return out, record


def _check_floor(floor: float, n: int, mean_diagonal: float) -> None:
    """The rule of every repair floor of an N x N matrix: ``ValueError``
    unless it is positive and finite, and ``InvalidMatrixError`` when it
    exceeds the mean diagonal, which :func:`rj_repair` keeps and the
    smallest eigenvalue cannot exceed, or when it is at or below
    :func:`_floor_bound`, where a repaired matrix could still read as other
    than ``verified-PD``. A correlation's mean diagonal is exactly 1 and its
    bound grows with N, so a caller that repairs only correlations checks
    its floor as a 1 x 1 correlation's before it draws or reads one."""
    if not 0 < floor < math.inf:
        raise ValueError(f"floor must be positive and finite, got {floor}")
    if floor > mean_diagonal:
        raise InvalidMatrixError(
            f"eigenvalue floor {floor!r} exceeds the mean diagonal {mean_diagonal!r}, "
            "which the repair keeps and the smallest eigenvalue cannot exceed"
        )
    if floor <= (bound := _floor_bound(n, mean_diagonal)):
        raise InvalidMatrixError(f"eigenvalue floor too small to resolve: {floor!r} <= {bound!r}")


def _mean_diagonal(matrix: MatrixLike) -> float:
    """``np.diag(entries).mean()``, except that a trace past float64 does not
    overflow: the diagonal is summed at a power-of-two scale below 1 / N.
    Scaling by a power of two is exact, so the mean keeps every bit unless a
    scaled entry falls below float64's normal range."""
    scale = 2.0 ** -matrix.n.bit_length()
    return float((np.diagonal(matrix.entries) * scale).mean()) / scale


_EPS = float(np.finfo(float).eps)


def _resolution(n: int, scale: float) -> float:
    """The package's one rule for a zero eigenvalue: ``n * eps * scale``.

    It is what a solve can resolve (Higham 2002): an eigenvalue that
    ``eigh`` computes for an N x N matrix whose largest |eigenvalue| is
    ``scale`` is this close to the true one, so one within it of zero, or of
    a floor, cannot be told from it. The repair's stop test
    (:func:`_condition`), the classification (:func:`classify_definiteness`
    and :func:`matrix_report`) and the leading pair's Ritz test
    (:func:`_leading_pair`, with ``scale`` the Rayleigh quotient's
    magnitude) all read it.
    """
    return n * _EPS * scale


def _floor_bound(n: int, mean_diagonal: float) -> float:
    """The largest floor the repair refuses as too small to resolve:
    ``2 * _resolution(N, trace)``, with the trace taken as N times the mean
    diagonal so that it cannot overflow.

    Derived from the stop test and the classification. The repair stops
    once the smallest eigenvalue is at least ``floor - r`` and the
    classification reads ``verified-PD`` when it exceeds ``r``, both with
    ``r = _resolution(N, max|lambda|)``, so a floor above ``2 r`` gives
    ``verified-PD``. The output's eigenvalues are then positive and sum to
    its trace, which the repair keeps, so ``max|lambda|`` is at most the
    trace and a floor above this bound exceeds ``2 r``.
    """
    return 2 * n * _resolution(n, mean_diagonal)


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

    The smallest eigenvalue is compared with the one resolution rule,
    :func:`_resolution`: ``N * eps * max|lambda|``. Within it of zero the
    matrix is borderline; every floor :func:`rj_repair` accepts gives an
    output that reads ``verified-PD``.
    The eigenvalues come from the wrapper's memo (:func:`_spectrum`), so
    classifying a wrapper and then repairing or decomposing it shares one
    ``eigh``. A spectrum that overflows float64 raises ``InvalidMatrixError``.
    """
    return _definiteness(_spectrum(matrix)[0])


def _definiteness(values: np.ndarray) -> str:
    tol = _resolution(values.size, abs(values).max())
    smallest = float(values.min())
    if smallest > tol:
        return "verified-PD"
    if smallest < -tol:
        return "verified-not-PSD"
    return "unverified"


def _matrix_ids(matrix: MatrixLike) -> tuple[str, ...]:
    """The wrapper's ids, or ``a1`` ... ``aN`` when it has none."""
    if matrix.ids is not None:
        return matrix.ids
    return tuple(f"a{i + 1}" for i in range(matrix.n))


def matrix_to_csv(matrix: MatrixLike, dest: str | Path | IO[str]) -> None:
    """Write a wrapper's entries as a square CSV with the ids as header; the
    artifact that holds a matrix's entries (:func:`matrix_report` leaves
    them out)."""
    write_csv(dest, _matrix_ids(matrix), matrix.entries)


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
    """JSON-ready report: ids, eigenvalues (descending, equal ones in the
    solver's order, as :func:`eigendecompose` orders them) and psd_status,
    from the matrix's memoized spectrum (:func:`_spectrum`). The entries are
    not repeated here: :func:`matrix_to_csv` writes them."""
    values = _spectrum(matrix)[0]
    return {
        "ids": list(_matrix_ids(matrix)),
        "eigenvalues": values[np.argsort(-values, kind="stable")].tolist(),
        "psd_status": _definiteness(values),
    }
