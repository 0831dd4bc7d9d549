"""Alpha-panel ingestion: CSV loading, sample moments under explicit
missing-data policies, and factor residualization."""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterator

import numpy as np

from .errors import (
    CollinearFactorsError,
    CoverageError,
    DegenerateSeriesError,
    PanelFormatError,
    RejectedSeriesError,
)

COMPLETE_CASES = "complete-cases"
PAIRWISE_COMPLETE = "pairwise-complete"
#: Mode tag for matrices deserialized from disk, where the estimator is unknown.
EXTERNAL = "external"

ESTIMATION_MODES = (COMPLETE_CASES, PAIRWISE_COMPLETE)
_KNOWN_MODES = ESTIMATION_MODES + (EXTERNAL,)
PSD_STATUSES = ("verified-PD", "verified-not-PSD", "unverified")

# A sample is treated as constant when its standard deviation falls below
# this tolerance relative to the magnitude of its mean.
_CONSTANT_REL_TOL = 1e-13


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class TimeSeriesPanel:
    """N return series over M+1 timestamps.

    ``values[i, s]`` holds series ``i`` at timestamp ``t_s`` where ``s = 0``
    is the most recent period; unobserved cells are NaN and flagged False in
    ``observed_mask``. Every series must carry at least two observations.
    """

    series_ids: tuple[str, ...]
    values: np.ndarray
    observed_mask: np.ndarray
    time_order: str = "t0-first"

    def __post_init__(self) -> None:
        ids = tuple(str(s) for s in self.series_ids)
        values = np.array(self.values, dtype=float)
        mask = np.array(self.observed_mask, dtype=bool)
        if values.ndim != 2:
            raise ValueError("values must be a 2-D array (series x timestamps)")
        if mask.shape != values.shape:
            raise ValueError("observed_mask shape must match values")
        if len(ids) != values.shape[0]:
            raise ValueError("series_ids length must match the number of series")
        if values.shape[0] < 1:
            raise ValueError("panel needs at least one series")
        if not np.isfinite(values[mask]).all():
            raise ValueError("observed values must be finite")
        short = mask.sum(axis=1) < 2
        if short.any():
            raise RejectedSeriesError(ids[i] for i in np.flatnonzero(short))
        values = np.where(mask, values, np.nan)
        object.__setattr__(self, "series_ids", ids)
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "observed_mask", _readonly(mask))

    @property
    def n_series(self) -> int:
        return self.values.shape[0]

    @property
    def n_periods(self) -> int:
        return self.values.shape[1]


def _rewind_point(handle: IO[str]) -> int | None:
    try:
        return handle.tell() if handle.seekable() else None
    except (AttributeError, OSError):  # a list of lines, or a file iterated with next()
        return None


def _read_csv(source: str | Path | IO[str], fast: Callable, reference: Callable):
    """Parse CSV text with ``fast``, falling back to ``reference`` when it declines.

    ``fast`` gets an iterator over the lines and streams through them once;
    it returns None when its result might differ from the reference's. The
    ``reference`` then gets every ``csv`` row from the start of the text and
    is the only one that raises on malformed input. A path is opened and, like
    a seekable handle, rewound to where ``fast`` started; a handle that cannot
    seek is first read once into a list of lines.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return _read_csv(handle, fast, reference)
    start = _rewind_point(source)
    lines = source if start is not None else list(source)
    result = fast(iter(lines))
    if result is not None:
        return result
    if start is not None:
        source.seek(start)
    return reference(list(csv.reader(lines)))


def _fast_grid(lines: Iterator[str], n_cols: int) -> np.ndarray | None:
    """Parse the data lines of a numeric CSV grid in one ``np.loadtxt`` pass.

    Blank lines are skipped and empty cells read as NaN, so a NaN in the
    result marks exactly an empty cell. Returns None when the per-cell
    reference parse has to decide instead: on any line ``loadtxt`` rejects
    (ragged rows, quoted or whitespace-only cells, ``1_0``, whitespace-only
    lines), on a field longer than the ``csv`` field limit, when there are
    no data lines or not ``n_cols`` columns, and when a cell's own text is
    non-finite (``nan``, ``inf``, ``1e999``), which shows as more
    non-finite values than empty cells.
    """
    limit = csv.field_size_limit()
    empty = 0

    def filled() -> Iterator[str]:
        nonlocal empty
        for line in lines:
            body = line.rstrip("\r\n")
            if not body:
                continue  # csv reads a blank line as an empty row, which callers skip
            if len(body) > limit and max(map(len, body.split(","))) > limit:
                raise ValueError("field larger than the csv field limit")
            text = body.replace(",,", ",nan,").replace(",,", ",nan,")
            if text[0] == ",":
                text = "nan" + text
            if text[-1] == ",":
                text += "nan"
            empty += (len(text) - len(body)) // 3
            yield text

    stream = filled()
    try:
        first = next(stream, None)
        if first is None:  # loadtxt warns on empty input
            return None
        grid = np.loadtxt(
            itertools.chain((first,), stream), delimiter=",", comments=None, ndmin=2
        )
    except ValueError:
        return None
    if grid.shape[1] != n_cols:
        return None
    if grid.size - np.count_nonzero(np.isfinite(grid)) != empty:
        return None
    return grid


def _panel_header(row: list[str]) -> tuple[str, ...]:
    header = tuple(cell.strip() for cell in row)
    if not header or any(not name for name in header):
        raise PanelFormatError("header must name every series", row=0)
    if len(set(header)) != len(header):
        raise PanelFormatError("duplicate series ids in header", row=0)
    return header


def _fast_panel(lines: Iterator[str]) -> tuple[tuple[str, ...], np.ndarray] | None:
    try:
        header = _panel_header(next(csv.reader(lines)))
    except (StopIteration, csv.Error, PanelFormatError):
        return None
    values = _fast_grid(lines, len(header))
    return None if values is None else (header, values)


def _panel_from_rows(rows: list[list[str]]) -> tuple[tuple[str, ...], np.ndarray]:
    """Per-cell reference parse of a panel CSV; empty cells become NaN."""
    if not rows:
        raise PanelFormatError("empty input: missing header row", row=0)
    header = _panel_header(rows[0])
    data_rows = [row for row in rows[1:] if row]  # tolerate blank lines
    if not data_rows:
        raise PanelFormatError("no data rows after the header", row=1)

    n_cols = len(header)
    values = np.empty((len(data_rows), n_cols))
    for r, row in enumerate(data_rows):
        if len(row) != n_cols:
            raise PanelFormatError(
                f"expected {n_cols} cells, found {len(row)}", row=r + 1
            )
        for c, cell in enumerate(row):
            text = cell.strip()
            if not text:
                values[r, c] = np.nan
                continue
            try:
                parsed = float(text)
            except ValueError:
                raise PanelFormatError(
                    f"non-numeric cell {text!r}", row=r + 1, column=header[c]
                ) from None
            if not math.isfinite(parsed):
                raise PanelFormatError(
                    f"non-finite cell {text!r}", row=r + 1, column=header[c]
                )
            values[r, c] = parsed
    return header, values


def load_panel(source: str | Path | IO[str], *, oldest_first: bool = False) -> TimeSeriesPanel:
    """Read a panel from CSV text.

    The header row carries the series ids; every following row is one
    timestamp, most recent first (set ``oldest_first`` when the file is in
    chronological order instead). Empty cells mark missing observations.

    The header is read with ``csv`` and the data rows in one streaming
    ``np.loadtxt`` pass, with empty cells read as NaN; the text is not held
    in memory whole, unless it comes from a handle that cannot seek. Input
    that pass cannot take exactly as the per-cell reference parse would
    (quoted, whitespace-only or non-finite cells, ragged rows, any parse
    error) is parsed again from the start by that reference loop, which alone
    raises, so every error keeps its row and column.

    Raises
    ------
    PanelFormatError
        Ragged rows, non-numeric or non-finite cells, duplicate or blank ids.
    RejectedSeriesError
        Any series ends up with fewer than two observed values.
    """
    header, values = _read_csv(source, _fast_panel, _panel_from_rows)
    if oldest_first:
        values = values[::-1]
    return TimeSeriesPanel(header, values.T, np.isfinite(values).T)


def write_panel(panel: TimeSeriesPanel, dest: str | Path | IO[str]) -> None:
    """Serialize a panel back to the CSV layout accepted by ``load_panel``."""

    def emit(handle: IO[str]) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(panel.series_ids)
        for s in range(panel.n_periods):
            writer.writerow(
                [
                    repr(float(panel.values[i, s])) if panel.observed_mask[i, s] else ""
                    for i in range(panel.n_series)
                ]
            )

    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as handle:
            emit(handle)
    else:
        emit(dest)


def _check_square_symmetric(entries: np.ndarray, what: str) -> None:
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"{what} matrix must be square")
    if not np.isfinite(entries).all():
        raise ValueError(f"{what} matrix entries must be finite")
    scale = max(float(np.abs(entries).max(initial=0.0)), 1.0)
    if float(np.abs(entries - entries.T).max(initial=0.0)) > 1e-12 * scale:
        raise ValueError(f"{what} matrix is not symmetric within tolerance")


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric sample covariance with per-entry observation counts.

    The diagonal is pinned to ``vols**2`` so covariance, vols and the derived
    correlation stay mutually consistent entrywise.
    """

    entries: np.ndarray
    vols: np.ndarray
    pairwise_counts: np.ndarray
    estimation_mode: str
    ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=float)
        _check_square_symmetric(entries, "covariance")
        n = entries.shape[0]
        vols = np.array(self.vols, dtype=float)
        if vols.shape != (n,):
            raise ValueError("vols length must match matrix dimension")
        if not np.isfinite(vols).all() or (vols <= 0).any():
            raise ValueError("vols must be positive and finite")
        diag = np.diag(entries)
        if (np.abs(diag - vols**2) > 1e-6 * vols**2).any():
            raise ValueError("diagonal disagrees with vols**2")
        np.fill_diagonal(entries, vols**2)
        counts = np.array(self.pairwise_counts, dtype=int)
        if counts.shape != entries.shape:
            raise ValueError("pairwise_counts shape must match entries")
        if self.estimation_mode not in _KNOWN_MODES:
            raise ValueError(f"unknown estimation_mode {self.estimation_mode!r}")
        ids = tuple(self.ids) if self.ids is not None else None
        if ids is not None and len(ids) != n:
            raise ValueError("ids length must match matrix dimension")
        object.__setattr__(self, "entries", _readonly(entries))
        object.__setattr__(self, "vols", _readonly(vols))
        object.__setattr__(self, "pairwise_counts", _readonly(counts))
        object.__setattr__(self, "ids", ids)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class CorrelationMatrix:
    """Unit-diagonal correlation matrix with estimator provenance."""

    entries: np.ndarray
    estimation_mode: str
    psd_status: str = "unverified"
    ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=float)
        _check_square_symmetric(entries, "correlation")
        n = entries.shape[0]
        diag = np.diag(entries)
        if (np.abs(diag - 1.0) > 1e-12).any():
            raise ValueError("correlation diagonal must be 1 within 1e-12")
        if (np.abs(entries) > 1.0 + 1e-12).any():
            raise ValueError("correlation entries must lie in [-1, 1]")
        np.clip(entries, -1.0, 1.0, out=entries)
        np.fill_diagonal(entries, 1.0)
        if self.estimation_mode not in _KNOWN_MODES:
            raise ValueError(f"unknown estimation_mode {self.estimation_mode!r}")
        if self.psd_status not in PSD_STATUSES:
            raise ValueError(f"unknown psd_status {self.psd_status!r}")
        ids = tuple(self.ids) if self.ids is not None else None
        if ids is not None and len(ids) != n:
            raise ValueError("ids length must match matrix dimension")
        object.__setattr__(self, "entries", _readonly(entries))
        object.__setattr__(self, "ids", ids)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _coverage_error(ids: tuple[str, ...], counts: np.ndarray) -> CoverageError:
    i, j = np.argwhere(counts < 2)[0]
    return CoverageError(
        f"series {ids[i]!r} and {ids[j]!r} share only {int(counts[i, j])} "
        "joint observations; need at least 2"
    )


def _pair_degenerate_error(ids: tuple[str, ...], i: int, j: int) -> DegenerateSeriesError:
    return DegenerateSeriesError(
        (ids[i], ids[j]), note="constant on the pair's joint sample"
    )


def _assemble(
    cov_joint: np.ndarray, var_joint: np.ndarray, own_sd: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    corr = cov_joint / np.sqrt(var_joint * var_joint.T)
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    cov = np.outer(own_sd, own_sd) * corr
    return cov, corr


def _dense_moments(
    ids: tuple[str, ...], values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Moments of a fully observed block: the masked algebra of
    ``_masked_moments`` specialised to an all-true mask.

    Every joint sample is the whole row, so the joint counts are the
    constant M, the per-pair sums and variances collapse to per-series
    N-vectors, and the only N x M x N product left is one ``x0 @ x0.T``
    on the centered values. The degeneracy tests and their tolerances are
    the masked kernel's, evaluated on those vectors.
    """
    n, m = values.shape
    counts = np.full((n, n), m, dtype=np.int64)
    if m < 2:
        raise _coverage_error(ids, counts)
    center = values.sum(axis=1) / m
    x0 = values - center[:, None]

    prods = x0 @ x0.T
    prods = 0.5 * (prods + prods.T)
    means = x0.sum(axis=1) / m  # residual means of the centered series
    cov_joint = (prods - (m * means)[:, None] * means[None, :]) / (m - 1.0)
    var = np.maximum((np.diag(prods) - m * means**2) / (m - 1.0), 0.0)

    own_sd = np.sqrt(var)
    constant = own_sd <= _CONSTANT_REL_TOL * np.maximum(1.0, np.abs(center))
    if constant.any():
        raise DegenerateSeriesError(ids[i] for i in np.flatnonzero(constant))
    # a series constant on its joint sample with any partner is constant on
    # every one, so the first flagged pair is (i, 0), or (0, 1) for i = 0
    thresholds = (_CONSTANT_REL_TOL * np.maximum(1.0, np.abs(center + means))) ** 2
    flagged = np.flatnonzero(var <= thresholds)
    if flagged.size:
        i = int(flagged[0])
        raise _pair_degenerate_error(ids, i, 1 if i == 0 else 0)

    var_joint = np.broadcast_to(var[:, None], (n, n))
    cov, corr = _assemble(cov_joint, var_joint, own_sd)
    return cov, corr, own_sd, counts


def _masked_moments(
    ids: tuple[str, ...], values: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pairwise moment algebra for a panel with missing cells.

    Values are pre-centered per series (over that series' own observed
    cells) so the raw-moment formulas stay numerically stable. For every
    pair the correlation is the plain sample correlation on the pair's
    joint sample, with unbiased (count - 1) divisors; the covariance is
    assembled as vol_i * vol_j * corr_ij so the two matrices agree exactly.

    The joint counts come from a float64 product of the 0/1 mask, which
    BLAS evaluates exactly while every count stays below 2**53; they are
    returned as int64.
    """
    values = np.ascontiguousarray(values)
    mask = np.ascontiguousarray(mask)
    o = mask.astype(float)
    nf = o @ o.T
    counts = nf.astype(np.int64)
    if (counts < 2).any():
        raise _coverage_error(ids, counts)
    center = np.where(mask, values, 0.0).sum(axis=1) / o.sum(axis=1)
    x0 = np.where(mask, values - center[:, None], 0.0)

    prods = x0 @ x0.T
    prods = 0.5 * (prods + prods.T)
    sums = x0 @ o.T  # sums[i, j] = sum of centered series i over joint(i, j)
    sq = (x0 * x0) @ o.T
    means = sums / nf
    cov_joint = (prods - nf * means * means.T) / (nf - 1.0)
    var_joint = np.maximum((sq - nf * means**2) / (nf - 1.0), 0.0)

    own_sd = np.sqrt(np.diag(var_joint))
    constant = own_sd <= _CONSTANT_REL_TOL * np.maximum(1.0, np.abs(center))
    if constant.any():
        raise DegenerateSeriesError(ids[i] for i in np.flatnonzero(constant))
    thresholds = (_CONSTANT_REL_TOL * np.maximum(1.0, np.abs(center[:, None] + means))) ** 2
    degenerate_pair = var_joint <= thresholds
    np.fill_diagonal(degenerate_pair, False)
    if degenerate_pair.any():
        i, j = np.argwhere(degenerate_pair)[0]
        raise _pair_degenerate_error(ids, i, j)

    cov, corr = _assemble(cov_joint, var_joint, own_sd)
    return cov, corr, own_sd, counts


def sample_moments(
    panel: TimeSeriesPanel, mode: str = COMPLETE_CASES
) -> tuple[CovarianceMatrix, CorrelationMatrix]:
    """Estimate (covariance, correlation) from a panel.

    ``complete-cases`` uses only timestamps where every series is observed;
    ``pairwise-complete`` computes each entry on the joint sample of its
    pair, which keeps every correlation in [-1, 1] but may leave the
    assembled matrix short of positive semi-definite.

    The kernel is chosen by the mask. A fully observed panel, in either
    mode, and the complete-cases sub-panel go to the dense kernel: one
    ``x @ x.T`` on the centered values, with constant joint counts. So on a
    panel without missing values the two modes agree exactly, by
    construction. A ragged panel in ``pairwise-complete`` mode goes to the
    masked kernel, whose joint counts are a float64 product of the mask,
    exact below 2**53 observations.

    Raises
    ------
    CoverageError
        Fewer than 2 complete timestamps, or a pair with < 2 joint rows.
    DegenerateSeriesError
        A series (or a pair's joint sample) is constant.
    """
    if mode not in ESTIMATION_MODES:
        raise ValueError(f"mode must be one of {ESTIMATION_MODES}, got {mode!r}")
    if panel.n_series < 2:
        raise ValueError("sample moments need at least two series")

    ids = panel.series_ids
    full = panel.observed_mask.all(axis=0)
    if full.all():
        cov, corr, vols, counts = _dense_moments(ids, panel.values)
    elif mode == COMPLETE_CASES:
        n_full = int(full.sum())
        if n_full < 2:
            raise CoverageError(
                f"only {n_full} timestamps observed across all series; need at least 2"
            )
        cov, corr, vols, counts = _dense_moments(ids, panel.values[:, full])
    else:
        cov, corr, vols, counts = _masked_moments(ids, panel.values, panel.observed_mask)

    covariance = CovarianceMatrix(cov, vols, counts, mode, ids)
    correlation = CorrelationMatrix(corr, mode, "unverified", ids)
    return covariance, correlation


def ols_residualize(
    panel: TimeSeriesPanel,
    factors: TimeSeriesPanel,
    with_intercept: bool = True,
    *,
    keep_intercept: bool = False,
) -> TimeSeriesPanel:
    """Regress every series on the factor series and return the residuals.

    Each series is fit over the timestamps where it and all factors are
    observed. ``with_intercept`` adds a constant column to the design; the
    fitted intercept is removed from the residual unless ``keep_intercept``
    is set, which adds it back (a pure level shift with no effect on
    downstream correlations).

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

    out_values = np.full(panel.values.shape, np.nan)
    out_mask = np.zeros(panel.values.shape, dtype=bool)
    for i, sid in enumerate(panel.series_ids):
        joint = panel.observed_mask[i] & factor_obs
        n_joint = int(joint.sum())
        if n_joint < needed:
            raise CoverageError(
                f"series {sid!r} has {n_joint} rows jointly observed with the "
                f"factors; need at least {needed}"
            )
        design = factors.values[:, joint].T
        if with_intercept:
            design = np.column_stack([np.ones(n_joint), design])
        if np.linalg.matrix_rank(design) < design.shape[1]:
            raise CollinearFactorsError(
                f"rank-deficient factor design for series {sid!r}"
            )
        y = panel.values[i, joint]
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        if with_intercept and keep_intercept:
            resid = resid + coef[0]
        out_values[i, joint] = resid
        out_mask[i, joint] = True
    return TimeSeriesPanel(panel.series_ids, out_values, out_mask, panel.time_order)
