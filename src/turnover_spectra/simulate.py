"""Synthetic one-factor panels and sample correlations, a Monte-Carlo
trade-netting simulator, and the reduction-coefficient sweep harness with
through-origin regression."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable

import numpy as np

from ._grid import write_csv
from .conditioning import _check_floor, _leading_pair, default_floor, eigendecompose, rj_repair
from .errors import TurnoverSpectraError, UndefinedRegressorError
from .panel import CorrelationMatrix, TimeSeriesPanel, _readonly, sample_moments
from .turnover import fix_sign_basis, rho_star

PanelGenerator = Callable[[int, int], TimeSeriesPanel]
#: What ``sweep_rho_star`` draws each grid point from: ``(n, seed)`` to the
#: point's sample correlation.
MatrixSource = Callable[[int, int], CorrelationMatrix]


@dataclass(frozen=True)
class SimConfig:
    """Seeded configuration for synthetic panels and crossing simulations.

    ``target_correlation`` is either a scalar pairwise correlation in [0, 1]
    or a vector of per-series factor loadings in [0, 1] (population pairwise
    correlation is then the product of the two loadings). Every draw reads
    ``n_alphas``, ``target_correlation`` and ``master_seed``. The panel
    (:func:`gen_one_factor_panel`) and the Wishart draw
    (:func:`_one_factor_wishart`) also read ``n_periods``; the crossing
    simulator (:func:`gen_trade_matrix`, :func:`simulate_crossing_paths`)
    reads ``n_instruments`` and ``n_paths`` instead, and needs
    ``n_periods = 2``.
    """

    n_alphas: int
    n_periods: int
    n_instruments: int = 1
    target_correlation: float | tuple[float, ...] = 0.0
    master_seed: int = 0
    n_paths: int = 1

    def __post_init__(self) -> None:
        if self.n_alphas < 2:
            raise ValueError("n_alphas must be at least 2")
        if self.n_periods < 2:
            raise ValueError("n_periods must be at least 2")
        if self.n_instruments < 1:
            raise ValueError("n_instruments must be at least 1")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be an unsigned 64-bit integer")
        target = self.target_correlation
        if np.isscalar(target):
            if not 0.0 <= float(target) <= 1.0:
                raise ValueError("target_correlation must lie in [0, 1]")
        else:
            loadings = np.asarray(target, dtype=float)
            if loadings.shape != (self.n_alphas,):
                raise ValueError("loading vector must have one entry per alpha")
            if not ((loadings >= 0) & (loadings <= 1)).all():
                raise ValueError("loadings must lie in [0, 1]")
            object.__setattr__(self, "target_correlation", tuple(loadings))

    def loadings(self) -> np.ndarray:
        """Per-series factor loadings b_i (scalar rho maps to sqrt(rho))."""
        target = self.target_correlation
        if np.isscalar(target):
            return np.full(self.n_alphas, math.sqrt(float(target)))
        return np.asarray(target, dtype=float)


def _rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent stream derived by hashing (master_seed, key...)."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, *key]))


def gen_one_factor_panel(config: SimConfig) -> TimeSeriesPanel:
    """Fully observed panel: series i = b_i * common + sqrt(1 - b_i^2) * own noise.

    Innovations are standard normal and the draw is fully determined by
    ``master_seed``; population pairwise correlation is b_i * b_j. The noise
    is scaled in place and shifted row by row, which gives the same bits as
    the sum of the two products (IEEE multiplication and addition commute)
    without an N x M temporary. The array is then locked and handed to the
    panel, which keeps it as its values with no copy, so the draw holds one
    N x M array from first to last.
    """
    b = config.loadings()
    rng = _rng(config.master_seed)
    common = rng.standard_normal(config.n_periods)
    values = rng.standard_normal((config.n_alphas, config.n_periods))
    values *= np.sqrt(1.0 - b**2)[:, None]
    for row, loading in zip(values, b):
        row += loading * common
    ids = tuple(f"a{i + 1:04d}" for i in range(config.n_alphas))
    return TimeSeriesPanel(ids, _readonly(values))


def _one_factor_wishart(config: SimConfig) -> CorrelationMatrix:
    """A draw of the complete-cases sample correlation of
    ``gen_one_factor_panel(config)``, from its law, with no panel.

    The panel's periods are independent Gaussian vectors with covariance
    Sigma = b b^T + diag(1 - b^2), so its centered cross products, M - 1
    times its sample covariance, follow the Wishart law W_N(M - 1, Sigma).
    Sigma = G G^T for the N x (N + 1) factor G = [b | diag(sqrt(1 - b^2))],
    and by the Bartlett (1933) decomposition (see also Odell & Feiveson
    1966) the draw is X X^T with X = G A. A is (N + 1) x k with
    k = min(N + 1, M - 1) and lower-trapezoidal: sqrt(chi^2_{M-1-i}) at
    ``[i, i]``, N(0, 1) below the diagonal and 0 above. Where M - 1 < N + 1
    that is the law of the L factor in an LQ decomposition of an
    (N + 1) x (M - 1) Gaussian matrix, so the singular case takes the same
    form.

    A's first row holds only ``A[0, 0]``, so X is diag(sqrt(1 - b^2)) A[1:]
    with ``b * A[0, 0]`` added to its first column, built in A's own memory.
    ``X @ X.T`` is one syrk, which numpy mirrors from one triangle, and
    scaling it by the outer product of 1 / sqrt(diag) keeps it exactly
    symmetric. The draw costs O(N^3) time, and its peak, the wrapper's copy
    included, is about 2.4 (N + 1) x (N + 1) float arrays, whatever M is. It
    is fully determined by ``master_seed``, but its bits are not those of
    the panel's estimate.
    """
    n, m = config.n_alphas, config.n_periods
    k = min(n + 1, m - 1)
    b = config.loadings()
    rng = _rng(config.master_seed)
    a = np.zeros((n + 1, k))
    below = np.tri(n + 1, k, -1, dtype=bool)
    a[below] = rng.standard_normal(np.count_nonzero(below))
    del below
    diagonal = np.arange(k)
    a[diagonal, diagonal] = np.sqrt(rng.chisquare(m - 1 - diagonal))
    x = a[1:]
    x *= np.sqrt(1.0 - b**2)[:, None]
    x[:, 0] += b * a[0, 0]
    w = x @ x.T
    del a, x
    scale = 1.0 / np.sqrt(np.diag(w))
    w *= np.multiply.outer(scale, scale)
    return CorrelationMatrix(w)


def one_factor_correlation(loadings) -> np.ndarray:
    """Population correlation matrix b b^T with unit diagonal."""
    b = np.asarray(loadings, dtype=float)
    if b.ndim != 1 or b.size < 2:
        raise ValueError("loadings must be a vector of length >= 2")
    SimConfig(b.size, 2, target_correlation=b)  # SimConfig's rule for loadings
    corr = np.outer(b, b)
    np.fill_diagonal(corr, 1.0)
    return corr


def gen_trade_matrix(config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Desired dollar trades (alphas x instruments) for one rebalance.

    Each alpha's book follows its signal, so its trade is the one-period
    signal change, spread across instruments with positive random exposures;
    trades of different alphas inherit the one-factor correlation structure.
    A trade is the change between two signal periods, so ``n_periods`` must
    be 2; any other value raises ``ValueError`` before any draw.
    """
    if config.n_periods != 2:
        raise ValueError(
            "a trade is the change between two signal periods, so n_periods must be 2, "
            f"got {config.n_periods}"
        )
    b = config.loadings()
    common = rng.standard_normal(2)
    idiosyncratic = rng.standard_normal((config.n_alphas, 2))
    signal = b[:, None] * common[None, :] + np.sqrt(1.0 - b**2)[:, None] * idiosyncratic
    change = signal[:, 0] - signal[:, 1]
    exposure = rng.uniform(0.5, 1.5, size=(config.n_alphas, config.n_instruments))
    return exposure / config.n_instruments * change[:, None]


@dataclass(frozen=True)
class SimResult:
    """Gross versus internally netted dollars traded.

    ``gross_traded`` and ``netted_traded`` are summed over the paths, and
    ``crossing_ratio`` is their pooled ratio, sum netted / sum gross.
    ``per_path_ratios`` holds each path's own netted / gross, ``mean`` is
    their mean, which weighs every path alike and so differs from the
    pooled ratio, and ``std_error`` is the standard error of that mean (0
    for one path). ``zero_gross_paths`` counts the paths with no gross
    trade, whose ratio is 1 by convention.
    """

    gross_traded: float
    netted_traded: float
    crossing_ratio: float
    per_path_ratios: tuple[float, ...]
    mean: float
    std_error: float
    zero_gross_paths: int = 0


def _gross_and_netted(trades: np.ndarray) -> tuple[float, float]:
    """``(sum |d_ik|, sum_k |sum_i d_ik|)`` of a trade matrix."""
    return float(np.abs(trades).sum()), float(np.abs(trades.sum(axis=0)).sum())


def _summary(totals: np.ndarray) -> SimResult:
    """The result of the paths' gross and netted totals, the two rows of
    ``totals`` with one column per path; a path with no gross trade has
    ratio 1, and so does the pool."""
    grosses, netteds = totals
    zero = grosses == 0.0
    ratios = np.divide(netteds, grosses, out=np.ones(grosses.size), where=~zero)
    gross = float(np.sum(grosses))
    netted = float(np.sum(netteds))
    ratio = netted / gross if gross > 0 else 1.0
    std_error = float(ratios.std(ddof=1) / math.sqrt(ratios.size)) if ratios.size > 1 else 0.0
    return SimResult(
        gross, netted, ratio, tuple(ratios), float(ratios.mean()), std_error, int(zero.sum())
    )


def simulate_crossing(trades) -> SimResult:
    """Net the desired trades instrument by instrument.

    ``gross = sum |d_ik|`` and ``netted = sum_k |sum_i d_ik|``, so the
    crossing ratio (netted / gross) is the fraction of trading the netted
    book still has to take to market. An all-zero matrix yields ratio 1 by
    convention and is counted in ``zero_gross_paths``.
    """
    d = np.asarray(trades, dtype=float)
    if d.ndim != 2:
        raise ValueError("trades must be a 2-D matrix (alphas x instruments)")
    if not np.isfinite(d).all():
        raise ValueError("trades must be finite")
    return _summary(np.reshape(_gross_and_netted(d), (2, 1)))


def simulate_crossing_paths(config: SimConfig) -> SimResult:
    """Average the crossing ratio over independently seeded trade paths.

    Per-path streams are derived by hashing (master_seed, path index), so
    results are bit-reproducible and independent of evaluation order. Each
    path is netted as :func:`simulate_crossing` nets it, with no check of
    the trades the generator just drew.
    """
    totals = np.empty((2, config.n_paths))
    for p in range(config.n_paths):
        totals[:, p] = _gross_and_netted(gen_trade_matrix(config, _rng(config.master_seed, p)))
    return _summary(totals)


def no_intercept_regression(x, y) -> tuple[float, float]:
    """Through-origin fit of y on x: (slope, F-statistic).

    ``slope = sum(xy) / sum(x^2)``; F compares the explained sum of squares
    (1 degree of freedom) with RSS / (n - 1). An exact fit reports F as
    ``+inf``.
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.ndim != 1 or xv.shape != yv.shape:
        raise ValueError("x and y must be 1-D vectors of equal length")
    if xv.size < 2:
        raise ValueError("regression needs at least two points")
    if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
        raise ValueError("regression inputs must be finite")
    sxx = float(xv @ xv)
    if sxx == 0.0:
        raise UndefinedRegressorError("all regressor values are zero")
    slope = float(xv @ yv) / sxx
    fitted = slope * xv
    explained = float(fitted @ fitted)
    rss = float(((yv - fitted) ** 2).sum())
    if rss == 0.0:
        return slope, math.inf
    return slope, explained / (rss / (xv.size - 1))


@dataclass(frozen=True)
class SweepResult:
    """rho_star * N against N, plus the through-origin fit.

    Failed grid points carry NaN in the per-point tuples and a message in
    ``errors``; the regression uses the surviving points only.
    ``f_statistic`` is None when fewer than two points survive. ``solvers``
    names, per grid point, how its spectrum was solved: "leading-pair",
    "full", or "failed" for a point with no value. ``degenerate_top`` marks,
    per grid point, a top eigenvalue not isolated by ``fix_sign_basis``'s
    rule, whose rho_star depends on an arbitrary basis choice (False for a
    failed point).
    """

    grid: tuple[int, ...]
    rho_stars: tuple[float, ...]
    rho_star_times_n: tuple[float, ...]
    slope_no_intercept: float
    f_statistic: float | None
    residuals: tuple[float, ...]
    errors: tuple[str, ...] = ()
    solvers: tuple[str, ...] = ()
    degenerate_top: tuple[bool, ...] = ()

    @property
    def reported_f(self) -> float | str:
        """``f_statistic`` as the sweep's CSV and JSON spell it: a float
        (``inf`` for an exact fit), or "not-available" when it is None."""
        return "not-available" if self.f_statistic is None else float(self.f_statistic)


class _SourceFailure(TurnoverSpectraError):
    """Any exception raised by a sweep's matrix source, re-raised as a package error."""


def _draw(source: MatrixSource, n: int, seed: int) -> CorrelationMatrix:
    try:
        corr = source(n, seed)
    except Exception as exc:  # a failing source leaves a NaN point; the sweep goes on
        raise _SourceFailure(str(exc)) from exc
    if not isinstance(corr, CorrelationMatrix):  # a caller's bug, not a numeric failure
        raise TypeError(
            f"a sweep's source must return a CorrelationMatrix, got {type(corr).__name__}"
            " (wrap a panel generator in panel_source)"
        )
    return corr


# what a grid point may fail with and leave a NaN point; anything else propagates
_POINT_ERRORS = (TurnoverSpectraError, ValueError, np.linalg.LinAlgError)


def sweep_rho_star(
    grid,
    source: MatrixSource,
    *,
    seed: int = 0,
    repair: bool = True,
    floor: float | None = None,
) -> SweepResult:
    """Estimate rho_star across sizes N and fit rho_star*N ~ N through the origin.

    For every N in the strictly increasing ``grid``: draw the point's sample
    correlation with ``source(n_alphas, point_seed)``
    (:func:`one_factor_source` draws it from its Wishart law; a panel
    generator goes through :func:`panel_source`), floor its spectrum at
    ``floor`` when ``repair`` is set (``default_floor``, 1e-8 * N, when
    ``floor`` is None), fix the sign basis and record
    :func:`turnover.rho_star` times N, with the basis's ``top_degenerate``
    in ``degenerate_top`` (:func:`_sweep_point` describes the two ways the
    spectrum is solved).
    With ``repair`` off the matrix is used as drawn, and a ``floor`` is
    refused. The fitted slope estimates the large-N limit of rho_star. Point
    seeds are derived by hashing (seed, N) so results do not depend on the
    order in which points are solved.

    The grid and the floor are checked before the source is first called:
    a bad one raises ``ValueError``, and a floor above 1, the mean diagonal
    of every correlation matrix, which no repair can meet, or at or below
    ``2 * eps``, which every correlation's repair refuses as too small to
    resolve, raises ``InvalidMatrixError`` (:func:`conditioning._check_floor`).
    A floor that only some points' repairs refuse (at or below
    ``2 * N * eps * N``) fails those points, alike on either solve path. A
    point whose source raises, or whose solve raises a package error,
    ``ValueError`` or ``LinAlgError``, is recorded as NaN with its message
    in ``errors``; any other exception propagates. A source that returns
    anything but a ``CorrelationMatrix`` raises ``TypeError``, which is not
    recorded as a point.

    Points are drawn and solved one at a time, in grid order, in this
    process: the source is called once per N, and no point's arrays are
    alive while the next point's matrix is drawn.
    """
    grid = tuple(int(n) for n in grid)
    if not grid:
        raise ValueError("grid must not be empty")
    if any(n < 2 for n in grid):
        raise ValueError("grid values must be at least 2")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    if floor is not None:
        if not repair:
            raise ValueError("a floor applies only with repair")
        _check_floor(floor, 1, 1.0)

    rho_stars = np.full(len(grid), np.nan)
    solvers = ["failed"] * len(grid)
    degenerate = [False] * len(grid)
    errors = []
    for idx, n in enumerate(grid):
        point_seed = int(np.random.SeedSequence([seed, n]).generate_state(1, np.uint64)[0])
        try:
            # the matrix goes straight into the call, which holds its only reference
            rho_stars[idx], solvers[idx], degenerate[idx] = _sweep_point(
                _draw(source, n, point_seed), repair, floor
            )
        except _POINT_ERRORS as exc:
            errors.append(f"N={n}: {exc}")

    xs = np.asarray(grid, dtype=float)
    ys = rho_stars * xs
    ok = np.isfinite(rho_stars)
    if ok.sum() >= 2:
        slope, f_stat = no_intercept_regression(xs[ok], ys[ok])
    elif ok.sum() == 1:
        slope, f_stat = float(ys[ok][0] / xs[ok][0]), None
    else:
        slope, f_stat = math.nan, None
    residuals = np.where(ok, ys - slope * xs, np.nan)
    return SweepResult(
        grid,
        tuple(float(v) for v in rho_stars),
        tuple(float(v) for v in ys),
        slope,
        f_stat,
        tuple(float(v) for v in residuals),
        tuple(errors),
        tuple(solvers),
        tuple(degenerate),
    )


def _sweep_point(
    corr: CorrelationMatrix, repair: bool, floor: float | None
) -> tuple[float, str, bool]:
    """rho_star of one grid point's sample correlation, the solver that
    produced it, and whether its top eigenvalue is degenerate.

    With ``repair`` on, the spectrum is floored at ``floor``
    (``default_floor``, ``conditioning._FLOOR_PER_TRACE * N``, when None),
    checked first by ``conditioning._check_floor`` for this N as
    ``rj_repair`` would check it, so a floor the repair refuses fails the
    point before either solve; with it off, ``floor`` must be None, as
    ``sweep_rho_star`` ensures.

    rho_star needs only the top eigenpair, so the point first tries
    ``conditioning._leading_pair``: with repair on, a Cholesky certificate
    that the spectrum already clears the floor (so the repair would return
    the matrix unchanged), then power iteration for the top pair
    alone ("leading-pair"; equal to the full path up to rounding). When that
    declines, the point takes the full path: ``rj_repair``, a full
    ``eigh`` in ``eigendecompose``, then the sign basis ("full"; the same
    bits as a sweep that always takes it). The point's rho_star comes from
    ``turnover.rho_star``, and ``basis.top_degenerate`` is its one report of
    a degenerate top. The leading pair accepts only an isolated top, so only
    a "full" point can be flagged.

    The matrices made here die with this call, and so does the drawn one,
    which ``sweep_rho_star`` passes straight in: no point's arrays are alive
    while the next point's matrix is drawn. Failures are raised, as for a
    direct call; the sweep records a package error, ``ValueError`` or
    ``LinAlgError`` as the point's message.
    """
    if repair:
        floor = default_floor(corr) if floor is None else floor
        _check_floor(floor, corr.n, 1.0)  # a correlation's mean diagonal
    decomposition, solver = _leading_pair(corr, floor), "leading-pair"
    if decomposition is None:
        if floor is not None:
            corr = rj_repair(corr, floor)
        decomposition, solver = eigendecompose(corr), "full"
    basis = fix_sign_basis(decomposition)
    return rho_star(basis), solver, basis.top_degenerate


def one_factor_source(rho: float, n_periods: int) -> MatrixSource:
    """Matrix source for ``sweep_rho_star`` with uniform pairwise correlation
    ``rho``: each call draws the sample correlation of an ``n_periods``-long
    one-factor panel from its Wishart law (:func:`_one_factor_wishart`),
    without the panel, so its cost does not grow with ``n_periods``.

    ``rho`` and ``n_periods`` are checked here, by ``SimConfig``'s rule, so a
    bad value raises ``ValueError`` at once rather than at every grid point.
    """
    SimConfig(2, n_periods, 1, rho)

    def draw(n_alphas: int, seed: int) -> CorrelationMatrix:
        return _one_factor_wishart(SimConfig(n_alphas, n_periods, 1, rho, seed, 1))

    return draw


def panel_source(generator: PanelGenerator) -> MatrixSource:
    """Matrix source for ``sweep_rho_star`` from a panel generator: each
    point's panel, estimated from complete cases by ``sample_moments``."""
    return lambda n_alphas, seed: sample_moments(generator(n_alphas, seed))


def sweep_to_csv(result: SweepResult, dest: str | Path | IO[str]) -> None:
    """Plot-ready CSV with columns N, rho_star, rho_star_times_n, slope, F;
    a failed point's values are ``nan`` and F is ``SweepResult.reported_f``."""
    values = np.array([result.rho_stars, result.rho_star_times_n], dtype=float).T.tolist()
    fit = [float(result.slope_no_intercept), result.reported_f]
    rows = ([n, *point, *fit] for n, point in zip(result.grid, values))
    write_csv(dest, ["N", "rho_star", "rho_star_times_n", "slope", "F"], rows)
