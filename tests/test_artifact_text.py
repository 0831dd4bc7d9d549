"""Artifact text: every CSV writer against a per-cell reference.

``write_panel``, ``matrix_to_csv`` and ``sweep_to_csv`` hand arrays or rows
to ``_grid.write_csv``, which owns the one rule from numbers to text. These
properties pin each writer to the bytes of a reference that formats every
cell on its own: a float as ``repr(float(x))``, a missing panel cell as
``""``, and the F statistic as "not-available" when it is None, "inf" when it
is infinite and by ``repr`` otherwise.
"""

import csv
import io
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from turnover_spectra import (
    CorrelationMatrix,
    SweepResult,
    TimeSeriesPanel,
    matrix_to_csv,
    sweep_to_csv,
    write_panel,
)

TINY = 2.2250738585072014e-308  # the smallest normal double
# finite values, with signed zeros, subnormals and 17-significant-digit values
# drawn often: any of them written short of its shortest round-trip text fails
VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, TINY, 0.1 + 0.2, 1 / 3, 1e16, 1e-5]),
    st.floats(-TINY, TINY),
    st.floats(-1.0, 1.0),
)


def reference_csv(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def written(write, *args) -> str:
    buffer = io.StringIO()
    write(*args, buffer)
    return buffer.getvalue()


@st.composite
def panels(draw):
    """A panel with missing cells, each series keeping two observations."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    values = np.array([[draw(VALUES) for _ in range(m)] for _ in range(n)])
    mask = np.array([[draw(st.booleans()) for _ in range(m)] for _ in range(n)])
    for row in mask:
        row[draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))] = True
    return TimeSeriesPanel(tuple(f"s{i}" for i in range(n)), np.where(mask, values, np.nan))


@settings(max_examples=200, deadline=None)
@given(panel=panels())
def test_write_panel_matches_the_per_cell_rule(panel):
    rows = [
        [
            repr(float(panel.values[i, s])) if panel.observed_mask[i, s] else ""
            for i in range(panel.n_series)
        ]
        for s in range(panel.n_periods)
    ]
    assert written(write_panel, panel) == reference_csv(panel.series_ids, rows)


@st.composite
def symmetric_matrices(draw):
    """A symmetric array whose mirrored entries share their bits, signed zeros included."""
    n = draw(st.integers(1, 5))
    upper = np.array([[draw(VALUES) for _ in range(n)] for _ in range(n)])
    return np.where(np.triu(np.ones((n, n), dtype=bool)), upper, upper.T)


@settings(max_examples=200, deadline=None)
@given(entries=symmetric_matrices(), wrapped=st.booleans())
def test_matrix_to_csv_matches_the_per_cell_rule(entries, wrapped):
    ids = [f"a{i + 1}" for i in range(entries.shape[0])]
    if wrapped:  # a correlation wrapper keeps the unit diagonal and [-1, 1]
        entries = np.clip(entries, -1.0, 1.0)
        np.fill_diagonal(entries, 1.0)
        matrix = CorrelationMatrix(entries, ids=ids)
    else:
        matrix = entries
    rows = [[repr(float(x)) for x in row] for row in entries]
    assert written(matrix_to_csv, matrix) == reference_csv(ids, rows)


def reference_f(f_stat):
    if f_stat is None:
        return "not-available"
    if math.isinf(f_stat):
        return "inf"
    return repr(float(f_stat))


@st.composite
def sweep_results(draw):
    """A sweep result with failed (NaN) points, and an F that is None, inf or finite."""
    k = draw(st.integers(1, 5))
    grid = tuple(sorted(draw(st.sets(st.integers(2, 10_000), min_size=k, max_size=k))))
    point = st.one_of(VALUES, st.just(math.nan))
    rho_stars = tuple(draw(point) for _ in grid)
    times_n = tuple(r * n for r, n in zip(rho_stars, grid))
    slope = draw(st.one_of(VALUES, st.just(math.nan)))
    f_stat = draw(st.one_of(st.none(), st.just(math.inf), st.floats(0.0, allow_infinity=False)))
    return SweepResult(grid, rho_stars, times_n, slope, f_stat, tuple(math.nan for _ in grid))


@settings(max_examples=200, deadline=None)
@given(result=sweep_results())
def test_sweep_to_csv_matches_the_per_cell_rule(result):
    slope = repr(float(result.slope_no_intercept))
    f_stat = reference_f(result.f_statistic)
    rows = [
        [n, repr(float(rho)), repr(float(y)), slope, f_stat]
        for n, rho, y in zip(result.grid, result.rho_stars, result.rho_star_times_n)
    ]
    header = ["N", "rho_star", "rho_star_times_n", "slope", "F"]
    assert written(sweep_to_csv, result) == reference_csv(header, rows)


def test_reported_f_is_what_the_csv_and_the_json_write():
    def with_f(f_stat):
        return SweepResult((2, 3), (0.5, 0.4), (1.0, 1.2), 0.4, f_stat, (0.0, 0.0))

    assert with_f(None).reported_f == "not-available"
    assert with_f(math.inf).reported_f == math.inf  # "inf" in both artifacts
    assert with_f(2.5).reported_f == 2.5
