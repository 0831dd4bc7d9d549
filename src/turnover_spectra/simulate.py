"""Synthetic one-factor panels, a Monte-Carlo trade-netting simulator, and
the reduction-coefficient sweep harness with through-origin regression."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable

import numpy as np

from ._grid import write_csv
from .conditioning import _leading_pair, default_floor, eigendecompose, rj_repair
from .errors import TurnoverSpectraError, UndefinedRegressorError
from .panel import TimeSeriesPanel, _readonly, sample_moments
from .turnover import _rho_star, fix_sign_basis

PanelGenerator = Callable[[int, int], TimeSeriesPanel]


@dataclass(frozen=True)
class SimConfig:
    """Seeded configuration for synthetic panels and crossing simulations.

    ``target_correlation`` is either a scalar pairwise correlation in [0, 1]
    or a vector of per-series factor loadings in [0, 1] (population pairwise
    correlation is then the product of the two loadings).
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


def one_factor_correlation(loadings) -> np.ndarray:
    """Population correlation matrix b b^T with unit diagonal."""
    b = np.asarray(loadings, dtype=float)
    if b.ndim != 1 or b.size < 2:
        raise ValueError("loadings must be a vector of length >= 2")
    if not ((b >= 0) & (b <= 1)).all():
        raise ValueError("loadings must lie in [0, 1]")
    corr = np.outer(b, b)
    np.fill_diagonal(corr, 1.0)
    return corr


def gen_trade_matrix(config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Desired dollar trades (alphas x instruments) for one rebalance.

    Each alpha's book follows its signal, so its trade is the one-period
    signal change, spread across instruments with positive random exposures;
    trades of different alphas inherit the one-factor correlation structure.
    """
    b = config.loadings()
    common = rng.standard_normal(2)
    idiosyncratic = rng.standard_normal((config.n_alphas, 2))
    signal = b[:, None] * common[None, :] + np.sqrt(1.0 - b**2)[:, None] * idiosyncratic
    change = signal[:, 0] - signal[:, 1]
    exposure = rng.uniform(0.5, 1.5, size=(config.n_alphas, config.n_instruments))
    return exposure / config.n_instruments * change[:, None]


@dataclass(frozen=True)
class SimResult:
    """Gross versus internally netted dollars traded."""

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
    gross, netted = _gross_and_netted(d)
    degenerate = gross == 0.0
    ratio = 1.0 if degenerate else netted / gross
    return SimResult(gross, netted, ratio, (ratio,), ratio, 0.0, int(degenerate))


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
    grosses, netteds = totals
    zero = grosses == 0.0
    ratios = np.divide(netteds, grosses, out=np.ones(config.n_paths), where=~zero)
    gross = float(np.sum(grosses))
    netted = float(np.sum(netteds))
    ratio = netted / gross if gross > 0 else 1.0
    mean = float(ratios.mean())
    std_error = (
        float(ratios.std(ddof=1) / math.sqrt(config.n_paths))
        if config.n_paths > 1
        else 0.0
    )
    return SimResult(gross, netted, ratio, tuple(ratios), mean, std_error, int(zero.sum()))


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


class _GeneratorFailure(TurnoverSpectraError):
    """Any exception raised by a sweep's panel generator, re-raised as a package error."""


def _generate(generator: PanelGenerator, n: int, seed: int) -> TimeSeriesPanel:
    try:
        return generator(n, seed)
    except Exception as exc:  # a failing generator leaves a NaN point; the sweep goes on
        raise _GeneratorFailure(str(exc)) from exc


# what a grid point may fail with and leave a NaN point; anything else propagates
_POINT_ERRORS = (TurnoverSpectraError, ValueError, np.linalg.LinAlgError)


def sweep_rho_star(
    grid,
    generator: PanelGenerator,
    *,
    seed: int = 0,
    repair: bool = True,
    floor: float | None = None,
) -> SweepResult:
    """Estimate rho_star across panel sizes and fit rho_star*N ~ N through the origin.

    For every N in the strictly increasing ``grid``: generate a panel with
    ``generator(n_alphas, point_seed)``, estimate its correlation matrix
    from complete cases, floor its spectrum at ``floor`` when ``repair`` is
    set (``default_floor(N)`` when ``floor`` is None), fix the sign basis
    and record rho_star * N (:func:`_sweep_point` describes the two ways
    the spectrum is solved). With ``repair`` off the matrix is used as
    estimated, and a ``floor`` is refused. The fitted slope estimates the
    large-N limit of rho_star. Point seeds are derived by hashing (seed, N)
    so results do not depend on the order in which points are solved.

    The grid and the floor are checked before the generator is first
    called: a bad one raises ``ValueError``. A point whose generator
    raises, or whose estimation or solve raises a package error,
    ``ValueError`` or ``LinAlgError``, is recorded as NaN with its message
    in ``errors``; any other exception propagates.

    Points are drawn and solved one at a time, in grid order, in this
    process: the generator is called once per N, and no point's arrays are
    alive while the next point's panel is generated.
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
        if not 0 < floor < math.inf:
            raise ValueError(f"floor must be positive and finite, got {floor}")

    rho_stars = np.full(len(grid), np.nan)
    solvers = ["failed"] * len(grid)
    degenerate = [False] * len(grid)
    errors = []
    for idx, n in enumerate(grid):
        point_seed = int(np.random.SeedSequence([seed, n]).generate_state(1, np.uint64)[0])
        try:
            # the panel goes straight into the call, which holds its only reference
            rho_stars[idx], solvers[idx], degenerate[idx] = _sweep_point(
                _generate(generator, n, point_seed), repair, floor
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
    panel: TimeSeriesPanel, repair: bool, floor: float | None
) -> tuple[float, str, bool]:
    """rho_star of one grid point's panel, the solver that produced it, and
    whether its top eigenvalue is degenerate.

    The correlation is estimated from complete cases. With ``repair`` on,
    the spectrum is floored at ``floor`` (``default_floor(N)`` when None);
    with it off, ``floor`` must be None, as ``sweep_rho_star`` ensures.

    rho_star needs only the top eigenpair, so the point first tries
    ``conditioning._leading_pair``: with repair on, a Cholesky certificate
    that the spectrum already clears the floor (so the repair would return
    the matrix unchanged), then power iteration for the top pair alone
    ("leading-pair"; equal to the full path up to rounding). When that
    declines, the point takes the full path: ``rj_repair``, a full
    ``eigh`` in ``eigendecompose``, then the sign basis ("full"; the same
    bits as a sweep that always takes it). A degenerate top is flagged, not
    warned about: the point's rho_star comes from ``turnover._rho_star``.
    The leading pair accepts only an isolated top, so only a "full" point
    can be flagged.

    The matrices built from the panel die with this call, and so does the
    panel, which ``sweep_rho_star`` passes straight in: no point's arrays are
    alive while the next point's panel is generated. Failures are raised, as for a direct call; the sweep records a package
    error, ``ValueError`` or ``LinAlgError`` as the point's message.
    """
    corr = sample_moments(panel)
    del panel  # the caller holds no reference either
    if repair and floor is None:
        floor = default_floor(corr.n)
    decomposition, solver = _leading_pair(corr, floor), "leading-pair"
    if decomposition is None:
        if floor is not None:
            corr = rj_repair(corr, floor)
        decomposition, solver = eigendecompose(corr), "full"
    basis = fix_sign_basis(decomposition)
    return _rho_star(basis), solver, basis.top_degenerate


def one_factor_generator(rho: float, n_periods: int) -> PanelGenerator:
    """Panel generator for ``sweep_rho_star`` with uniform pairwise correlation.

    ``rho`` and ``n_periods`` are checked here, by ``SimConfig``'s rule, so a
    bad value raises ``ValueError`` at once rather than at every grid point.
    """
    SimConfig(2, n_periods, 1, rho)

    def generate(n_alphas: int, seed: int) -> TimeSeriesPanel:
        return gen_one_factor_panel(
            SimConfig(n_alphas, n_periods, 1, rho, seed, 1)
        )

    return generate


def sweep_to_csv(result: SweepResult, dest: str | Path | IO[str]) -> None:
    """Plot-ready CSV with columns N, rho_star, rho_star_times_n, slope, F;
    a failed point's values are ``nan`` and F is ``SweepResult.reported_f``."""
    values = np.array([result.rho_stars, result.rho_star_times_n], dtype=float).T.tolist()
    fit = [float(result.slope_no_intercept), result.reported_f]
    rows = ([n, *point, *fit] for n, point in zip(result.grid, values))
    write_csv(dest, ["N", "rho_star", "rho_star_times_n", "slope", "F"], rows)
