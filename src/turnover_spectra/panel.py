"""Alpha-panel ingestion: the panel and matrix types, the sample
correlation under explicit missing-data policies, and factor
residualization. The CSV text they are read from and written to is
``_grid``'s."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from ._grid import checked_ids, read_grid, write_csv
from .errors import (
    CollinearFactorsError,
    CoverageError,
    DegenerateSeriesError,
    InvalidDiagonalError,
    InvalidMatrixError,
    PanelFormatError,
    RejectedSeriesError,
)

COMPLETE_CASES = "complete-cases"
PAIRWISE_COMPLETE = "pairwise-complete"
ESTIMATION_MODES = (COMPLETE_CASES, PAIRWISE_COMPLETE)
#: How far a correlation matrix's diagonal may sit from 1, and its entries
#: outside [-1, 1], before the wrapper refuses it: room for another
#: producer's rounding, which moves an entry by a few eps.
UNIT_DIAGONAL_TOL = 1e-12

# How far a matrix's two triangles may differ, relative to max(1, max|a|),
# before it is refused as asymmetric: room for rounding, as products taken in
# another order below the diagonal than above it differ by a few eps.
_SYMMETRY_RTOL = 1e-12

# A sample is treated as constant when its standard deviation falls below
# this tolerance relative to the magnitude of its mean: centering leaves a
# constant series a standard deviation of a few eps times its mean, not 0.
_CONSTANT_REL_TOL = 1e-13

# The most column blocks the moments kernel sums a panel in (``_block_width``).
_MAX_BLOCKS = 16


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _locked(array) -> bool:
    """Whether ``array`` is a float64 ``ndarray`` that no array can write
    through: it and every array it is a view of are read-only, and the last
    of them owns its memory (not a ``bytearray``, say)."""
    if type(array) is not np.ndarray or array.dtype != np.float64:
        return False
    while array.base is not None:
        if array.flags.writeable or type(array.base) is not np.ndarray:
            return False
        array = array.base
    return not array.flags.writeable


def _value_eq(self, other) -> bool:
    """Value equality for the array-holding types: ``np.array_equal`` on array
    fields (NaN equal to NaN), ``==`` on the others, and fields declared with
    ``compare=False`` (the memo slots) skipped."""
    if type(other) is not type(self):
        return NotImplemented
    for f in fields(self):
        if not f.compare:
            continue
        mine, theirs = getattr(self, f.name), getattr(other, f.name)
        if isinstance(mine, np.ndarray):
            if not np.array_equal(mine, theirs, equal_nan=True):
                return False
        elif mine != theirs:
            return False
    return True


@dataclass(frozen=True, eq=False)
class TimeSeriesPanel:
    """N return series over M+1 timestamps.

    ``values[i, s]`` holds series ``i`` at timestamp ``t_s`` where ``s = 0``
    is the most recent period. NaN is the one marker of an unobserved cell,
    so the values are the panel's only stored copy: ``observed_mask`` is
    derived from them. An infinite value is refused (``ValueError``), and
    every series must carry at least two observations
    (``RejectedSeriesError``). The ids follow the CSV header's rule
    (:func:`_grid.checked_ids`).

    The values are read-only. A float64 ``ndarray`` is kept as given, with
    no copy, when it and every array it is a view of are read-only and the
    last of them owns its memory (:func:`_locked`); the package's own
    producers (``load_panel``, ``ols_residualize`` and
    ``simulate.gen_one_factor_panel``) hand their fresh arrays over so. Any
    other input is copied, so a caller's writeable array, or a read-only
    view of one, is never aliased. The limit of that rule: a writeable view
    made before the array was locked, or a caller who sets the array's
    ``writeable`` flag back, can still change the panel's values.
    """

    series_ids: tuple[str, ...]
    values: np.ndarray

    __eq__ = _value_eq
    __hash__ = None  # equal by value, and the arrays are not hashable

    def __post_init__(self) -> None:
        values = self.values
        if not _locked(values):
            values = _readonly(np.array(values, dtype=float))
        if values.ndim != 2:
            raise ValueError("values must be a 2-D array (series x timestamps)")
        ids = checked_ids(self.series_ids, values.shape[0])
        if values.shape[0] < 1:
            raise ValueError("panel needs at least one series")
        if np.isinf(values).any():
            raise ValueError("values must be finite, or NaN where unobserved")
        # with no infinity left, a finite cell is an observed one
        short = np.count_nonzero(np.isfinite(values), axis=1) < 2
        if short.any():
            raise RejectedSeriesError(ids[i] for i in np.flatnonzero(short))
        object.__setattr__(self, "series_ids", ids)
        object.__setattr__(self, "values", values)

    @property
    def observed_mask(self) -> np.ndarray:
        """``isfinite(values)``: True at every observed cell, computed anew
        on each read."""
        return _readonly(np.isfinite(self.values))

    @property
    def n_series(self) -> int:
        return self.values.shape[0]

    @property
    def n_periods(self) -> int:
        return self.values.shape[1]


def load_panel(source: str | Path | IO[str]) -> TimeSeriesPanel:
    """Read a panel from CSV text.

    The header row carries the series ids; every following row is one
    timestamp, most recent first. Empty cells mark missing observations and
    read as NaN, the panel's one marker of a missing cell.

    The text is read by the package's one CSV reader, which square-matrix
    CSVs share, header rule included; :func:`_grid.read_grid` states when it
    reads in parts and when its per-cell reference decides, so that every
    error keeps its row and column. A path to a regular file is read in
    byte-range parts; an open handle is read once into a list of its lines,
    from where it stands, so pass a large file by its path. The panel's own
    cell rule then refuses a non-finite value in a non-empty cell, quoting
    the value as parsed (``'nan'``, ``'inf'``).

    The reader's grid, one row per timestamp, is locked and handed to the
    panel transposed, so the panel's values are a read-only view of it in
    Fortran order (each timestamp's cells adjacent), with no copy made.

    Raises
    ------
    PanelFormatError
        Ragged rows, non-numeric or non-finite cells, duplicate or blank ids,
        no data rows, a field over the ``csv`` field size limit.
    RejectedSeriesError
        Any series ends up with fewer than two observed values.
    """
    header, values, empty = read_grid(source)
    bad = ~(empty | np.isfinite(values))
    if bad.any():
        r, c = np.argwhere(bad)[0].tolist()
        raise PanelFormatError(
            f"non-finite cell '{values[r, c]}'", row=r + 1, column=header[c]
        )
    return TimeSeriesPanel(header, _readonly(values).T)


def write_panel(panel: TimeSeriesPanel, dest: str | Path | IO[str]) -> None:
    """Serialize a panel back to the CSV layout accepted by ``load_panel``:
    one row per timestamp, a missing cell empty (:func:`_grid.write_csv`)."""
    write_csv(dest, panel.series_ids, np.where(panel.observed_mask, panel.values, None).T)


def _symmetric(entries, what: str = "matrix") -> np.ndarray:
    """A float copy of ``entries``, checked and made exactly symmetric.

    The package's one validity rule for a matrix: square, not empty, finite,
    and symmetric within ``_SYMMETRY_RTOL * max(1, max|a|)``, else
    ``InvalidMatrixError`` (``what`` names the matrix in the message); a gap
    between the triangles past the float64 limit is refused as asymmetric,
    with no numpy warning.
    The two triangles are then averaged as ``0.5 * a + 0.5 * a^T``: halving
    each first cannot overflow near the float64 limit, where ``a + a^T``
    can, and is exact for normal numbers, so the average keeps the bits of
    ``0.5 * (a + a^T)`` wherever that sum is finite and no entry is
    subnormal. Exactly symmetric input, where the average changes no bit, is
    returned as it is, found by an exact comparison of the triangles before
    any gap is formed, so it costs no N x N float temporary (``0.0`` equals
    ``-0.0``, whose gap is 0 too).

    The package's one symmetrization: the matrix wrappers apply it at
    construction, and a matrix reaches the spectral layer only in a wrapper,
    so no solve checks or symmetrizes again. The moments kernel, the repair
    and the sweep's Wishart source hand their results to a wrapper
    unsymmetrized.
    """
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrixError(f"{what} must be square, got shape {a.shape}")
    if not a.size:  # no spectrum, trace or diagonal to check
        raise InvalidMatrixError(f"{what} must not be empty")
    if not np.isfinite(a).all():
        raise InvalidMatrixError(f"{what} entries must be finite")
    if np.array_equal(a, a.T):
        return a
    scale = max(1.0, float(a.max()), -float(a.min()))
    with np.errstate(over="ignore"):  # a gap past the float64 limit is inf, refused below
        gap = a - a.T
    asymmetry = float(np.abs(gap, out=gap).max())
    del gap
    if asymmetry > _SYMMETRY_RTOL * scale:
        raise InvalidMatrixError(f"{what} is not symmetric within tolerance")
    return 0.5 * a + 0.5 * a.T


@dataclass(frozen=True, eq=False)
class _Matrix:
    """The matrix wrappers' one body: a symmetric matrix whose entries are its
    one stored copy, read-only, and whose ``ids``, keyword-only, follow the
    CSV header's rule (:func:`_grid.checked_ids`).

    Construction checks the entries by the package's one matrix rule
    (:func:`_symmetric`, the message naming the subclass's ``_kind``), then
    by the subclass's own value rule (its ``_valued``), and then the ids.
    Definiteness is not stored: it is derived from the entries' spectrum
    (``conditioning.classify_definiteness``), which is solved once and kept.
    Nor is the estimator that made the entries: it is the caller's to report.
    """

    entries: np.ndarray
    ids: tuple[str, ...] | None = field(default=None, kw_only=True)
    # ``(values, vectors)`` of ``np.linalg.eigh`` on the entries, read-only;
    # filled and read by ``conditioning._spectrum`` only.
    _eigensystem: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    __eq__ = _value_eq
    __hash__ = None

    def __post_init__(self) -> None:
        entries = self._valued(_symmetric(self.entries, self._kind))
        ids = checked_ids(self.ids, entries.shape[0]) if self.ids is not None else None
        object.__setattr__(self, "entries", _readonly(entries))
        object.__setattr__(self, "ids", ids)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class CovarianceMatrix(_Matrix):
    """Symmetric covariance matrix, as the ``repair`` command reads it from CSV;
    its diagonal must be strictly positive (``InvalidDiagonalError``)."""

    _kind = "covariance matrix"

    def _valued(self, entries: np.ndarray) -> np.ndarray:
        if (np.diag(entries) <= 0).any():
            raise InvalidDiagonalError("covariance diagonal must be positive")
        return entries


def _unit_diagonal(entries: np.ndarray) -> bool:
    """Whether a 2-D array's diagonal is 1 within ``UNIT_DIAGONAL_TOL``:
    the rule by which ``CorrelationMatrix`` refuses entries, and ``repair``
    reads a matrix CSV as a correlation rather than a covariance."""
    return bool((np.abs(np.diag(entries) - 1.0) <= UNIT_DIAGONAL_TOL).all())


@dataclass(frozen=True, eq=False)
class CorrelationMatrix(_Matrix):
    """Unit-diagonal correlation matrix: its diagonal must be 1 and its
    entries lie in [-1, 1], each within ``UNIT_DIAGONAL_TOL``
    (``InvalidMatrixError``); the entries are then clipped to [-1, 1] and
    the diagonal set to exactly 1."""

    _kind = "correlation matrix"

    def _valued(self, entries: np.ndarray) -> np.ndarray:
        if not _unit_diagonal(entries):
            raise InvalidMatrixError(
                f"correlation matrix diagonal must be 1 within {UNIT_DIAGONAL_TOL:g}"
            )
        # |a| > 1 + tol as two reductions, with no N x N temporary; ``_symmetric``
        # has refused empty and non-finite entries, and negation is exact
        if max(entries.max(), -entries.min()) > 1.0 + UNIT_DIAGONAL_TOL:
            raise InvalidMatrixError("correlation matrix entries must lie in [-1, 1]")
        np.clip(entries, -1.0, 1.0, out=entries)
        np.fill_diagonal(entries, 1.0)
        return entries


def _coverage_error(ids: tuple[str, ...], i: int, j: int, count: float) -> CoverageError:
    return CoverageError(
        f"series {ids[i]!r} and {ids[j]!r} share only {int(count)} "
        "joint observations; need at least 2"
    )


def _assemble(
    ids: tuple[str, ...],
    center: np.ndarray,
    means: np.ndarray,
    cov_joint: np.ndarray,
    var_joint: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """The correlation from the joint-sample moments, after the package's one
    degeneracy rule. A standard deviation is degenerate within
    ``_CONSTANT_REL_TOL * max(1, |mean|)`` of zero. Every series degenerate
    on its own sample raises one ``DegenerateSeriesError`` naming them all;
    failing that, the first pair ``(i, j)``, ``i != j``, in row-major order
    on whose joint sample series ``i`` is degenerate raises one naming the
    pair.

    ``center`` holds each series' own mean, and ``means[i, j]`` and
    ``var_joint[i, j]`` the mean and variance of centered series ``i`` over
    its joint sample with ``j``; either may be a read-only broadcast.
    ``cov_joint`` is divided in place and returned as the correlation.

    Before that rule, a covariance, or a product of two series' variances,
    that is not finite raises ``InvalidMatrixError``: only an overflow of
    float64 makes one, and an infinite product would read as a zero
    correlation. The kernel calls this with numpy's overflow and
    invalid-value warnings off, so the refusal is the one report of an
    overflow; a degeneracy threshold past float64 is rightly ``inf``.

    Its working set is ``cov_joint`` and the N x N ``scratch``, whose values
    are overwritten, besides bools: the pair thresholds are built in the
    scratch and kept only as the first degenerate pair, and then the scratch
    holds the scale ``sqrt(var_joint * var_joint.T)``. Every float is the
    out-of-place formula's, and the refusals keep their order: overflow,
    then constant series, then degenerate pair.
    """
    thresholds = np.add(center[:, None], means, out=scratch)
    np.abs(thresholds, out=thresholds)
    np.maximum(1.0, thresholds, out=thresholds)
    np.multiply(_CONSTANT_REL_TOL, thresholds, out=thresholds)
    np.square(thresholds, out=thresholds)  # the bits of ``** 2``
    degenerate_pair = var_joint <= thresholds
    np.fill_diagonal(degenerate_pair, False)
    first = np.unravel_index(degenerate_pair.argmax(), degenerate_pair.shape)  # row-major
    pair = first if degenerate_pair[first] else None
    del degenerate_pair

    scale = np.multiply(var_joint, var_joint.T, out=scratch)
    np.sqrt(scale, out=scale)
    np.fill_diagonal(scale, 1.0)  # the diagonal is set to 1 below, whatever its variance
    if not (np.isfinite(cov_joint).all() and np.isfinite(scale).all()):
        raise InvalidMatrixError(
            "sample moments overflow float64: the panel's values are too large"
        )
    own_sd = np.sqrt(np.diag(var_joint))
    constant = own_sd <= _CONSTANT_REL_TOL * np.maximum(1.0, np.abs(center))
    if constant.any():
        raise DegenerateSeriesError(ids[i] for i in np.flatnonzero(constant))
    if pair is not None:
        i, j = pair
        raise DegenerateSeriesError((ids[i], ids[j]), note="constant on the pair's joint sample")

    corr = cov_joint
    corr /= scale
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return corr


def _block_width(n: int, m: int) -> int:
    """The moments kernel's block width for N series over M timestamps: N,
    but never fewer than ``ceil(M / _MAX_BLOCKS)`` columns nor more than M."""
    return min(m, max(n, -(-m // _MAX_BLOCKS)))


def _moments(
    ids: tuple[str, ...], values: np.ndarray, columns: np.ndarray | None = None
) -> np.ndarray:
    """The package's one sample-correlation kernel: each entry is the plain
    sample correlation of its pair over their joint sample, with unbiased
    (count - 1) divisors, of ``values`` (NaN at a missing cell) or, with
    ``columns`` (M column indices), of ``values[:, columns]``, which is never
    built whole.

    The values are walked twice in column blocks of :func:`_block_width`
    columns (N, but never fewer than ``ceil(M / _MAX_BLOCKS)`` nor more than
    M), so every block but the last feeds BLAS at least an N x N x N product
    and a long, narrow panel takes at most ``_MAX_BLOCKS`` blocks. Each block
    is centered into one N x width buffer held in the values' memory order,
    ``columns`` gathered into it a block at a time, so no N x M array, mask
    or copy outlives one block.

    The first pass sums each series over its observed cells for its center;
    a block whose row sums hold a NaN is summed through its mask. The panel
    is ragged when a series has fewer than M observations. The second pass
    centers each block, a missing cell to 0, and adds ``x0 @ x0.T``. On a
    complete panel every pair shares all M periods, so a block adds only its
    row sums, the joint squares are the diagonal of ``x0 @ x0.T`` and the
    joint count is M, all per series. On a ragged panel every block also
    adds, from its own 0/1 mask ``o``, the joint counts ``o @ o.T`` (exact
    while each is below 2**53), sums ``x0 @ o.T`` and squares
    ``x0**2 @ o.T``. One N x N algebra, broadcasting per-series moments
    along each row, gives every covariance and variance, and
    :func:`_assemble` applies the degeneracy rule; on a complete panel a
    series flagged with one partner is flagged with every one.

    The working set, besides the values: during the second pass, the block
    buffer, the N x N running total and one N x N block product (a ragged
    panel adds the N x N counts, sums and squares, and a block's mask).
    After it, the total and one N x N scratch, the product's buffer: each
    step of the N x N algebra writes over an operand it has spent or into
    the scratch, in the out-of-place formulas' order, so every float keeps
    their bits.

    The total is not symmetrized: each block adds ``x0 @ x0.T``, which numpy
    computes from one triangle and mirrors, so the total is exactly
    symmetric, and ``0.5 * (a + a.T)`` of it would change no bit short of an
    overflow. What the algebra after the loop leaves off symmetric at
    rounding level (``count * means * means.T`` multiplies in another order
    below the diagonal than above it) is averaged by ``CorrelationMatrix``,
    whose :func:`_symmetric` is the package's one symmetrization.

    Blocks regroup the additions, so a result depends on M's cut into blocks
    and on the values' memory order, which sets the order of each row sum,
    at rounding level only. Where one block spans M, a complete panel's
    every step is the one-product algebra's on the same layout, to the bit.
    """
    n = values.shape[0]
    m = values.shape[1] if columns is None else len(columns)
    width = _block_width(n, m)
    order = "F" if np.isfortran(values) else "C"
    buffer = np.empty(n * width)

    def blocks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        # each block of the values, and the buffer's contiguous view of its
        # shape; "clip" lets take write straight into it ("raise" buffers)
        for lo in range(0, m, width):
            hi = min(lo + width, m)
            out = buffer[: n * (hi - lo)].reshape((n, hi - lo), order=order)
            if columns is None:
                yield values[:, lo:hi], out
            else:
                yield np.take(values, columns[lo:hi], axis=1, out=out, mode="clip"), out

    with np.errstate(over="ignore", invalid="ignore"):
        center, observations = np.zeros(n), np.zeros(n)
        for block, out in blocks():
            row_sums = block.sum(axis=1)
            if np.isnan(row_sums).any():  # a missing cell, or an overflow refused below
                observed = np.isfinite(block)
                row_sums = np.where(observed, block, 0.0).sum(axis=1)
                observations += observed.sum(axis=1)
            else:
                observations += block.shape[1]
            center += row_sums
        center /= observations
        ragged = bool((observations < m).any())

        prods, product = np.zeros((n, n)), np.empty((n, n))
        count, sums, squares = (np.zeros((n, n if ragged else 1)) for _ in range(3))
        for block, out in blocks():
            o = np.isfinite(block) if ragged else None  # before a gathered block is centered
            x0 = np.subtract(block, center[:, None], out=out)
            if ragged:
                x0[~o] = 0.0
                o = o.astype(float)
            prods += np.matmul(x0, x0.T, out=product)
            if ragged:
                count += np.matmul(o, o.T, out=product)
                sums += np.matmul(x0, o.T, out=product)
                squares += np.matmul(np.square(x0, out=x0), o.T, out=product)
            else:
                count += x0.shape[1]
                sums += x0.sum(axis=1, keepdims=True)
                squares += np.diagonal(product)[:, None]  # of the block's x0 @ x0.T
        del buffer, block, out, x0, o  # only N x N sums outlive the loop
        scratch = product  # and the product's buffer, whose values are spent

        short = count < 2
        if short.any():
            i, j = np.argwhere(short)[0]
            raise _coverage_error(ids, i, j, count[i, j])
        # the out-of-place algebra's steps in its order, each written over an
        # operand it no longer needs or into the scratch, so every float keeps
        # its bits; a complete panel's per-series sums take a scratch column
        means = np.divide(sums, count, out=sums)  # residual means of the centered series
        mean_squares = np.square(means, out=scratch[:, : means.shape[1]])  # means**2
        var = np.subtract(squares, np.multiply(count, mean_squares, out=mean_squares), out=squares)
        cov_joint = prods
        cov_joint -= np.multiply(np.multiply(count, means, out=scratch), means.T, out=scratch)
        count -= 1.0
        var /= count
        np.maximum(var, 0.0, out=var)
        cov_joint /= count
        means, var = (np.broadcast_to(v, (n, n)) for v in (means, var))
        return _assemble(ids, center, means, cov_joint, var, scratch)


def sample_moments(panel: TimeSeriesPanel, mode: str = COMPLETE_CASES) -> CorrelationMatrix:
    """Estimate the correlation matrix of a panel's series.

    ``complete-cases`` uses only timestamps where every series is observed;
    ``pairwise-complete`` computes each entry on the joint sample of its
    pair, which keeps every correlation in [-1, 1] but may leave the
    assembled matrix short of positive semi-definite.

    This only chooses the columns: the complete ones of a ragged panel in
    ``complete-cases`` mode, every one otherwise. The one kernel,
    :func:`_moments`, reads from the values whether they are ragged, and
    walks them in column blocks with no N x M copy or mask. On a ragged
    panel each block also adds the joint counts, sums and squares of its own
    0/1 mask; the counts are exact below 2**53 observations. On a panel
    without missing values the two modes agree exactly, by construction. A
    result moves with the values' memory order at rounding level only.

    Raises
    ------
    CoverageError
        Fewer than 2 complete timestamps, or a pair with < 2 joint rows.
    DegenerateSeriesError
        A series (or a pair's joint sample) is constant.
    InvalidMatrixError
        A covariance, or a product of two variances, overflows float64.
    """
    if mode not in ESTIMATION_MODES:
        raise ValueError(f"mode must be one of {ESTIMATION_MODES}, got {mode!r}")
    if panel.n_series < 2:
        raise ValueError("sample moments need at least two series")

    columns = None
    if mode == COMPLETE_CASES:
        full = panel.observed_mask.all(axis=0)
        if not full.all():
            n_full = int(full.sum())
            if n_full < 2:
                raise CoverageError(
                    f"only {n_full} timestamps observed across all series; need at least 2"
                )
            columns = np.flatnonzero(full)
    ids = panel.series_ids
    return CorrelationMatrix(_moments(ids, panel.values, columns), ids=ids)


def ols_residualize(panel: TimeSeriesPanel, factors: TimeSeriesPanel) -> TimeSeriesPanel:
    """Regress every series on a constant and the factor series and return
    the residuals, each with its fitted intercept added back.

    Each series is fit over the timestamps where it and all factors are
    observed. The intercept keeps the series' level, which the degeneracy
    rule of :func:`sample_moments` reads (a series is constant when its
    spread is at most ``_CONSTANT_REL_TOL * max(1, |mean|)``): a series the
    factors explain exactly leaves rounding noise about its level, refused
    as constant, where without the level that noise would read as a
    correlated series. The residuals are a fresh array, locked and kept by
    the returned panel with no copy.

    Raises
    ------
    CoverageError
        A series has fewer than ``n_factors + 2`` joint rows with the factors.
    CollinearFactorsError
        The design matrix is rank deficient on the joint rows.
    """
    if factors.n_periods != panel.n_periods:
        raise ValueError("factor panel must share the panel's timestamp grid")
    factor_obs = factors.observed_mask.all(axis=0)
    needed = factors.n_series + 2

    observed = panel.observed_mask
    out_values = np.full(panel.values.shape, np.nan)
    for i, sid in enumerate(panel.series_ids):
        joint = observed[i] & factor_obs
        n_joint = int(joint.sum())
        if n_joint < needed:
            raise CoverageError(
                f"series {sid!r} has {n_joint} rows jointly observed with the "
                f"factors; need at least {needed}"
            )
        design = np.column_stack([np.ones(n_joint), factors.values[:, joint].T])
        y = panel.values[i, joint]
        # lstsq's rank counts singular values as matrix_rank does, from the same SVD
        coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank < design.shape[1]:
            raise CollinearFactorsError(
                f"rank-deficient factor design for series {sid!r}"
            )
        out_values[i, joint] = (y - design @ coef) + coef[0]
    return TimeSeriesPanel(panel.series_ids, _readonly(out_values))
