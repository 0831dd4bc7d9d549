"""Panel loading, sample moments with missing data, and residualization."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from turnover_spectra import (
    COMPLETE_CASES,
    PAIRWISE_COMPLETE,
    CollinearFactorsError,
    CorrelationMatrix,
    CovarianceMatrix,
    CoverageError,
    DegenerateSeriesError,
    InvalidDiagonalError,
    InvalidMatrixError,
    PanelFormatError,
    RejectedSeriesError,
    TimeSeriesPanel,
    load_panel,
    ols_residualize,
    sample_moments,
    write_panel,
)
from turnover_spectra.conditioning import _spectrum, correlation_from_csv, matrix_to_csv
from turnover_spectra.panel import (
    _CONSTANT_REL_TOL,
    UNIT_DIAGONAL_TOL,
    _block_width,
    _coverage_error,
    _moments,
)


def panel_from_csv(text: str) -> TimeSeriesPanel:
    return load_panel(io.StringIO(text))


def random_masked_panel(seed: int, n: int = 6, t: int = 40, missing: float = 0.2) -> TimeSeriesPanel:
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, t))
    mask = rng.random((n, t)) > missing
    mask[:, :3] = True  # keep every series and pair estimable
    ids = tuple(f"s{i}" for i in range(n))
    return TimeSeriesPanel(ids, np.where(mask, values, np.nan))


class TestLoadPanel:
    def test_complete_csv(self):
        text = "a1,a2,a3\n" + "\n".join(f"{i},{i+1},{i+2}" for i in range(5)) + "\n"
        panel = panel_from_csv(text)
        assert panel.series_ids == ("a1", "a2", "a3")
        assert panel.n_series == 3
        assert panel.n_periods == 5
        assert panel.observed_mask.all()
        # row 0 of the CSV is the most recent timestamp -> column 0
        assert panel.values[0, 0] == 0.0
        assert panel.values[2, 4] == 6.0

    def test_single_empty_cell_masks_only_that_cell(self):
        text = "a1,a2\n1,2\n3,\n5,6\n"
        panel = panel_from_csv(text)
        assert not panel.observed_mask[1, 1]
        assert panel.observed_mask.sum() == 5
        assert np.isnan(panel.values[1, 1])

    def test_series_with_single_observation_is_rejected_by_name(self):
        text = "a1,a2,a3\n1,2,3\n4,5,\n6,7,\n"
        with pytest.raises(RejectedSeriesError) as excinfo:
            panel_from_csv(text)
        assert "a3" in str(excinfo.value)
        assert excinfo.value.ids == ("a3",)

    def test_ragged_row_reports_row_number(self):
        with pytest.raises(PanelFormatError) as excinfo:
            panel_from_csv("a1,a2\n1,2\n3\n")
        assert excinfo.value.row == 2

    def test_non_numeric_cell_reports_row_and_column(self):
        with pytest.raises(PanelFormatError) as excinfo:
            panel_from_csv("a1,a2\n1,2\n3,oops\n")
        assert excinfo.value.row == 2
        assert excinfo.value.column == "a2"

    def test_non_finite_cell_rejected(self):
        with pytest.raises(PanelFormatError):
            panel_from_csv("a1,a2\n1,2\n3,inf\n")

    def test_duplicate_header_rejected(self):
        with pytest.raises(PanelFormatError):
            panel_from_csv("a1,a1\n1,2\n3,4\n")

    @pytest.mark.parametrize("source", ["handle", "file"])
    def test_empty_input_is_missing_its_header_row(self, tmp_path, source):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        with pytest.raises(PanelFormatError) as excinfo:
            load_panel(io.StringIO("") if source == "handle" else path)
        assert str(excinfo.value) == "empty input: missing header row (row 0)"
        assert excinfo.value.row == 0

    def test_roundtrip_through_write_panel(self, tmp_path):
        panel = random_masked_panel(11)
        buffer = io.StringIO()
        write_panel(panel, buffer)
        write_panel(panel, tmp_path / "panel.csv")
        write_panel(panel, str(tmp_path / "again.csv"))
        for path in ("panel.csv", "again.csv"):  # a path and a handle get the same bytes
            assert (tmp_path / path).read_bytes() == buffer.getvalue().encode()
        assert panel_from_csv(buffer.getvalue()) == panel


class TestSampleMoments:
    def test_identical_series_perfectly_correlated(self):
        x = np.arange(6.0)
        panel = TimeSeriesPanel(("a", "b"), np.vstack([x, x]))
        corr = sample_moments(panel)
        assert corr.entries[0, 1] == 1.0

    def test_negated_series_perfectly_anticorrelated(self):
        x = np.array([0.3, -1.2, 0.7, 2.0, -0.4])
        panel = TimeSeriesPanel(("a", "b"), np.vstack([x, -x]))
        corr = sample_moments(panel)
        assert corr.entries[0, 1] == -1.0

    def test_constant_series_is_degenerate(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        const = np.full(4, 5.0)
        panel = TimeSeriesPanel(("a", "flat"), np.vstack([x, const]))
        with pytest.raises(DegenerateSeriesError) as excinfo:
            sample_moments(panel)
        assert "flat" in str(excinfo.value)

    def test_pairwise_matches_per_pair_numpy_oracle(self):
        panel = random_masked_panel(17, n=5, t=60, missing=0.3)
        corr = sample_moments(panel, PAIRWISE_COMPLETE)
        mask = panel.observed_mask
        for i in range(5):
            for j in range(i + 1, 5):
                joint = mask[i] & mask[j]
                expected = np.corrcoef(panel.values[i, joint], panel.values[j, joint])[0, 1]
                assert corr.entries[i, j] == pytest.approx(expected, abs=1e-12)

    def test_modes_agree_exactly_without_missing_values(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal((4, 25))
        panel = TimeSeriesPanel(tuple("abcd"), values)
        corr_c = sample_moments(panel, COMPLETE_CASES)
        corr_p = sample_moments(panel, PAIRWISE_COMPLETE)
        np.testing.assert_array_equal(corr_c.entries, corr_p.entries)

    def test_permutation_equivariance(self):
        panel = random_masked_panel(31)
        perm = np.array([3, 0, 5, 1, 4, 2])
        permuted = TimeSeriesPanel(tuple(panel.series_ids[p] for p in perm), panel.values[perm])
        for mode in (COMPLETE_CASES, PAIRWISE_COMPLETE):
            corr = sample_moments(panel, mode)
            corr_p = sample_moments(permuted, mode)
            np.testing.assert_array_equal(corr_p.entries, corr.entries[np.ix_(perm, perm)])

    def test_pairwise_entries_stay_in_range(self):
        for seed in range(8):
            panel = random_masked_panel(seed, n=8, t=25, missing=0.45)
            try:
                corr = sample_moments(panel, PAIRWISE_COMPLETE)
            except (CoverageError, DegenerateSeriesError):
                continue
            assert np.abs(corr.entries).max() <= 1.0

    def test_too_few_complete_rows(self):
        values = np.arange(12.0).reshape(3, 4)
        mask = np.ones((3, 4), bool)
        mask[0, 0] = mask[1, 1] = mask[2, 2] = False
        panel = TimeSeriesPanel(("a", "b", "c"), np.where(mask, values, np.nan))
        with pytest.raises(CoverageError):
            sample_moments(panel, COMPLETE_CASES)

    def test_pair_without_joint_rows_is_named(self):
        values = np.arange(12.0).reshape(2, 6) ** 1.3
        mask = np.array(
            [
                [True, True, True, False, False, False],
                [False, False, False, True, True, True],
            ]
        )
        panel = TimeSeriesPanel(("left", "right"), np.where(mask, values, np.nan))
        with pytest.raises(CoverageError) as excinfo:
            sample_moments(panel, PAIRWISE_COMPLETE)
        message = str(excinfo.value)
        assert "left" in message and "right" in message

    def test_unknown_mode_rejected(self):
        panel = random_masked_panel(1)
        with pytest.raises(ValueError):
            sample_moments(panel, "listwise")


class TestResidualize:
    @staticmethod
    def one_series_panel(values, ids=("y",)):
        return TimeSeriesPanel(ids, np.atleast_2d(np.asarray(values, float)))

    def test_self_regression_zero_residuals(self):
        y = np.array([1.0, -0.5, 2.5, 0.25, -1.75])
        panel = self.one_series_panel(y)
        factors = self.one_series_panel(y, ids=("f",))
        resid = ols_residualize(panel, factors)
        np.testing.assert_allclose(resid.values[0], 0.0, atol=1e-12)

    def test_exact_linear_fit_zero_residuals(self):
        f = np.array([0.5, -1.0, 2.0, 3.5, -0.25, 1.0])
        y = 2.0 * f + 1.0
        panel = self.one_series_panel(y)
        factors = self.one_series_panel(f, ids=("f",))
        resid = ols_residualize(panel, factors)
        # zero residuals about the fitted intercept, which is added back
        np.testing.assert_allclose(resid.values[0], 1.0, atol=1e-12)

    def test_orthogonal_factor_leaves_demeaned_series(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        # zero correlation with the demeaned series, nonconstant
        f = np.array([1.0, -1.0, -1.0, 1.0])
        assert abs((f - f.mean()) @ (y - y.mean())) < 1e-12
        panel = self.one_series_panel(y)
        factors = self.one_series_panel(f, ids=("f",))
        resid = ols_residualize(panel, factors)
        # the demeaned series plus the intercept, its mean, added back
        np.testing.assert_allclose(resid.values[0], y, atol=1e-12)

    def test_a_series_the_factors_explain_keeps_its_level_and_is_refused(self):
        # what the fit leaves of 1e6 + 2 f is rounding noise about the level,
        # constant by the degeneracy rule; about 0 it would read as a series
        rng = np.random.default_rng(5)
        f = rng.standard_normal(40)
        panel = TimeSeriesPanel(("flat", "noise"), np.vstack([1e6 + 2.0 * f, rng.standard_normal(40)]))
        factors = self.one_series_panel(f, ids=("f",))
        with pytest.raises(DegenerateSeriesError) as refused:
            sample_moments(ols_residualize(panel, factors))
        assert refused.value.ids == ("flat",)

    def test_factor_rescaling_leaves_residuals(self):
        rng = np.random.default_rng(7)
        panel = TimeSeriesPanel(("y1", "y2"), rng.standard_normal((2, 30)))
        f = rng.standard_normal((2, 30))
        factors = TimeSeriesPanel(("f1", "f2"), f)
        scaled = TimeSeriesPanel(("f1", "f2"), f * np.array([[17.0], [-0.003]]))
        base = ols_residualize(panel, factors)
        other = ols_residualize(panel, scaled)
        np.testing.assert_allclose(base.values, other.values, atol=1e-10)

    def test_collinear_factors_rejected(self):
        rng = np.random.default_rng(9)
        panel = self.one_series_panel(rng.standard_normal(10))
        f = rng.standard_normal(10)
        factors = TimeSeriesPanel(("f1", "f2"), np.vstack([f, 3.0 * f]))
        with pytest.raises(CollinearFactorsError):
            ols_residualize(panel, factors)

    def test_too_few_joint_rows(self):
        y = np.array([1.0, 2.0, np.nan, np.nan, np.nan, np.nan])
        panel = TimeSeriesPanel(("y",), y[None, :])
        factors = self.one_series_panel(np.arange(6.0), ids=("f",))
        with pytest.raises(CoverageError) as excinfo:
            ols_residualize(panel, factors)
        assert "y" in str(excinfo.value)

    def test_mask_propagates_joint_observability(self):
        rng = np.random.default_rng(13)
        values = rng.standard_normal((1, 12))
        values[0, 2] = np.nan
        panel = TimeSeriesPanel(("y",), values)
        f_values = rng.standard_normal((1, 12))
        f_values[0, 7] = np.nan
        factors = TimeSeriesPanel(("f",), f_values)
        resid = ols_residualize(panel, factors)
        assert not resid.observed_mask[0, 2]
        assert not resid.observed_mask[0, 7]
        assert resid.observed_mask.sum() == 10

    def test_mismatched_grid_rejected(self):
        panel = self.one_series_panel(np.arange(5.0))
        factors = self.one_series_panel(np.arange(6.0), ids=("f",))
        with pytest.raises(ValueError):
            ols_residualize(panel, factors)


class TestMatrixTypes:
    def test_correlation_requires_unit_diagonal(self):
        with pytest.raises(ValueError):
            CorrelationMatrix([[1.0, 0.2], [0.2, 0.9]])

    def test_correlation_requires_entries_in_range(self):
        with pytest.raises(ValueError):
            CorrelationMatrix([[1.0, 1.2], [1.2, 1.0]])

    def test_correlation_requires_symmetry(self):
        with pytest.raises(ValueError):
            CorrelationMatrix([[1.0, 0.2], [0.3, 1.0]])

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: CorrelationMatrix([[1.0, 0.2], [0.2, 0.9]]),
             InvalidMatrixError, "correlation matrix diagonal must be 1 within 1e-12"),
            (lambda: CorrelationMatrix([[1.0, 1.2], [1.2, 1.0]]),
             InvalidMatrixError, "correlation matrix entries must lie in [-1, 1]"),
            (lambda: CovarianceMatrix([[4.0, 0.1], [0.1, 0.0]]),
             InvalidDiagonalError, "covariance diagonal must be positive"),
            (lambda: CovarianceMatrix([[-4.0, 0.1], [0.1, 9.0]]),
             InvalidDiagonalError, "covariance diagonal must be positive"),
            # no spectrum, trace or diagonal for the conditioning layer to read
            (lambda: CorrelationMatrix(np.zeros((0, 0))),
             InvalidMatrixError, "correlation matrix must not be empty"),
            (lambda: CovarianceMatrix(np.zeros((0, 0))),
             InvalidMatrixError, "covariance matrix must not be empty"),
        ],
        ids=["unit-diagonal", "entry-range", "zero-diagonal", "negative-diagonal",
             "empty-correlation", "empty-covariance"],
    )
    def test_value_checks_are_invalid_matrix_errors(self, build, error, message):
        with pytest.raises(error) as refused:
            build()
        assert isinstance(refused.value, InvalidMatrixError)
        assert str(refused.value) == message

    def test_shape_checks_stay_plain_value_errors(self):
        entries = np.eye(2)
        for build, message in (
            (lambda: CovarianceMatrix(entries, ids=("a",)), "length"),
            (lambda: CorrelationMatrix(entries, ids=("a",)), "length"),
            (lambda: TimeSeriesPanel(("a",), np.arange(3.0)),
             r"^values must be a 2-D array \(series x timestamps\)$"),
            (lambda: TimeSeriesPanel((), np.zeros((0, 3))), "^panel needs at least one series$"),
            (lambda: sample_moments(TimeSeriesPanel(("a",), np.arange(3.0)[None, :])),
             "^sample moments need at least two series$"),
        ):
            with pytest.raises(ValueError, match=message) as refused:
                build()
            assert not isinstance(refused.value, InvalidMatrixError)

    _BOUND = 1.0 + UNIT_DIAGONAL_TOL
    _EDGES = [_BOUND, np.nextafter(_BOUND, 2.0), np.nextafter(_BOUND, 0.0), 1.0, 0.0]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5))
    def test_entry_range_decides_as_the_absolute_value_rule(self, data, n):
        # the rule is two reductions; it must refuse exactly what
        # ``abs(entries) > 1 + tol`` refuses, at the bound and one ulp past it
        edge = st.sampled_from(self._EDGES + [-e for e in self._EDGES])
        entry = st.one_of(edge, st.floats(-2.0, 2.0))
        upper = np.triu(data.draw(arrays(np.float64, (n, n), elements=entry)), 1)
        entries = upper + upper.T + np.eye(n)
        if (np.abs(entries) > self._BOUND).any():
            with pytest.raises(InvalidMatrixError) as refused:
                CorrelationMatrix(entries)
            assert str(refused.value) == "correlation matrix entries must lie in [-1, 1]"
        else:
            expected = np.clip(entries, -1.0, 1.0)
            assert CorrelationMatrix(entries).entries.tobytes() == expected.tobytes()

    def test_ids_are_keyword_only(self):
        # so a call still passing a removed argument (the estimation mode, a
        # psd_status, vols, counts or a panel's mask) cannot bind it to another field
        with pytest.raises(TypeError):
            CorrelationMatrix(np.eye(10), COMPLETE_CASES)
        with pytest.raises(TypeError):
            CovarianceMatrix(np.eye(2), np.ones((2, 2)))
        with pytest.raises(TypeError):
            TimeSeriesPanel(("a",), np.ones((1, 4)), np.ones((1, 4), bool))


class TestIds:
    """Every type that carries ids refuses what its CSV reader would refuse or
    read back as another id, so what the writers emit reads back unchanged."""

    BUILDERS = {
        "panel": lambda ids: TimeSeriesPanel(ids, np.arange(6.0).reshape(2, 3)),
        "correlation": lambda ids: CorrelationMatrix(np.eye(2), ids=ids),
        "covariance": lambda ids: CovarianceMatrix(np.eye(2), ids=ids),
    }
    # ids a writer quotes, and a reader must give back as they are
    QUOTED = ("a,b", 'say "hi"', "two words", "line\nbreak")

    @pytest.mark.parametrize("build", sorted(BUILDERS))
    @pytest.mark.parametrize(
        "ids, message",
        [
            (("a", ""), "blank"),
            (("a", "   "), "blank"),
            (("a", "a"), "must not repeat"),
            ((" a", "b"), "surrounding whitespace"),
            (("a", "b\t"), "surrounding whitespace"),
            (("\ufeffa", "b"), r"begins with U\+FEFF"),  # the reader drops the mark
            (("a",), "length"),
        ],
        ids=[
            "empty", "spaces", "repeated", "leading-space", "trailing-tab",
            "leading-byte-order-mark", "too-few",
        ],
    )
    def test_an_id_the_reader_would_not_give_back_is_refused(self, build, ids, message):
        with pytest.raises(ValueError, match=message) as refused:
            self.BUILDERS[build](ids)
        assert not isinstance(refused.value, InvalidMatrixError)

    def test_ids_are_stored_as_strings(self):
        assert self.BUILDERS["panel"]((1, 2)).series_ids == ("1", "2")
        assert self.BUILDERS["correlation"]((1, 2)).ids == ("1", "2")
        assert self.BUILDERS["covariance"]((1, 2)).ids == ("1", "2")

    def test_quoted_ids_round_trip_through_a_panel_csv(self):
        panel = TimeSeriesPanel(self.QUOTED, np.arange(12.0).reshape(4, 3))
        buffer = io.StringIO()
        write_panel(panel, buffer)
        assert load_panel(io.StringIO(buffer.getvalue())) == panel

    def test_quoted_ids_round_trip_through_a_matrix_csv(self):
        corr = CorrelationMatrix(np.eye(4), ids=self.QUOTED)
        buffer = io.StringIO()
        matrix_to_csv(corr, buffer)
        assert correlation_from_csv(io.StringIO(buffer.getvalue())) == corr


class TestValueEquality:
    ENTRIES = np.array([[1.0, 0.3], [0.3, 1.0]])

    def covariance(self, entries=ENTRIES, ids=("a", "b")):
        return CovarianceMatrix(entries, ids=ids)

    def panel(self, last=3.0):
        return TimeSeriesPanel(("a", "b"), np.array([[1.0, 2.0, np.nan], [1.0, 2.0, last]]))

    def test_equal_values_compare_equal(self):
        assert CorrelationMatrix(self.ENTRIES) == CorrelationMatrix(self.ENTRIES.copy())
        assert self.covariance() == self.covariance()
        assert self.panel() == self.panel()  # NaN at the missing cell compares equal

    def test_any_differing_field_compares_unequal(self):
        corr = CorrelationMatrix(self.ENTRIES)
        other = np.array([[1.0, 0.31], [0.31, 1.0]])
        assert corr != CorrelationMatrix(other)
        assert corr != CorrelationMatrix(self.ENTRIES, ids=("a", "b"))
        assert corr != CorrelationMatrix(np.eye(3))  # shapes differ
        assert self.covariance() != self.covariance(ids=("a", "c"))
        assert self.panel() != self.panel(last=4.0)
        assert corr != self.ENTRIES.tolist()
        assert corr != self.covariance()

    def test_memoised_and_fresh_matrices_compare_equal(self):
        memoised = CorrelationMatrix(self.ENTRIES)
        _spectrum(memoised)
        assert memoised._eigensystem is not None
        assert memoised == CorrelationMatrix(self.ENTRIES)
        covariance = self.covariance()
        _spectrum(covariance)
        assert covariance == self.covariance()

    def test_types_are_unhashable(self):
        for value in (CorrelationMatrix(self.ENTRIES), self.covariance(), self.panel()):
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)


class TestPanelValidation:
    RAGGED_MASK = np.array([[True, True, False, True], [False, True, True, True]])

    def ragged(self, values) -> np.ndarray:
        return np.where(self.RAGGED_MASK, values, np.nan)

    def test_non_finite_observed_cell_under_ragged_mask_rejected(self):
        for infinity in (np.inf, -np.inf):
            values = self.ragged(np.ones((2, 4)))
            values[1, 2] = infinity
            with pytest.raises(ValueError, match="^values must be finite, or NaN where unobserved$"):
                TimeSeriesPanel(("a", "b"), values)

    def test_short_series_rejected_by_name(self):
        values = self.ragged(np.ones((2, 4)))
        values[1, 1:3] = np.nan
        with pytest.raises(RejectedSeriesError) as excinfo:
            TimeSeriesPanel(("a", "b"), values)
        assert str(excinfo.value) == "series with fewer than 2 observations: b"

    def test_non_finite_unobserved_cells_accepted_and_masked(self):
        values = self.ragged(np.arange(8.0).reshape(2, 4))
        original = values.copy()
        panel = TimeSeriesPanel(("a", "b"), values)
        np.testing.assert_array_equal(panel.observed_mask, self.RAGGED_MASK)
        assert panel.values.tobytes() == original.tobytes()
        # the caller's array is copied, never written
        assert values.tobytes() == original.tobytes()
        assert values.flags.writeable
        assert not panel.values.flags.writeable and not panel.observed_mask.flags.writeable


@st.composite
def holed_values(draw):
    """Finite values with NaN holes and, now and then, one infinity."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    cells = draw(st.lists(finite, min_size=n * m, max_size=n * m))
    holes = draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))
    values = np.where(holes, np.nan, cells).reshape(n, m)
    if draw(st.integers(0, 4)) == 0:
        values[draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))] = draw(
            st.sampled_from([np.inf, -np.inf])
        )
    return values


@settings(max_examples=300, deadline=None)
@given(values=holed_values())
def test_panel_mask_is_derived_from_its_nans(values):
    ids = tuple(f"s{i}" for i in range(values.shape[0]))
    if np.isinf(values).any():
        with pytest.raises(ValueError, match="finite"):
            TimeSeriesPanel(ids, values)
    elif (np.isfinite(values).sum(axis=1) < 2).any():
        with pytest.raises(RejectedSeriesError):
            TimeSeriesPanel(ids, values)
    else:
        panel = TimeSeriesPanel(ids, values)
        np.testing.assert_array_equal(panel.observed_mask, np.isfinite(values))
        assert panel.values.tobytes() == values.tobytes()


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 10_000))
def test_correlation_invariant_under_series_scaling(scale, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((3, 20))
    panel = TimeSeriesPanel(("a", "b", "c"), values)
    scaled = TimeSeriesPanel(("a", "b", "c"), values * scale)
    corr = sample_moments(panel)
    corr_scaled = sample_moments(scaled)
    np.testing.assert_allclose(corr_scaled.entries, corr.entries, atol=1e-10)


def fully_observed_values(seed: int, n: int, m: int, max_offset: float) -> np.ndarray:
    """One-factor returns with per-series offsets up to ``max_offset`` and
    scales spanning six decades."""
    rng = np.random.default_rng(seed)
    common = rng.standard_normal(m)
    loadings = rng.uniform(-1.0, 1.0, (n, 1))
    offsets = rng.uniform(-max_offset, max_offset, (n, 1))
    scales = 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
    return offsets + scales * (loadings * common + rng.standard_normal((n, m)))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    m=st.integers(3, 60),
    max_offset=st.sampled_from([0.0, 1.0, 1e3, 1e6]),
)
def test_dense_kernel_matches_masked_reference(seed, n, m, max_offset):
    # the reference takes every block through its mask and N x N joint sums
    values = fully_observed_values(seed, n, m, max_offset)
    corr = _moments(tuple(f"s{i}" for i in range(n)), values)
    corr_r = out_of_place_masked_moments(values)
    np.testing.assert_allclose(corr, corr_r, rtol=0, atol=1e-12)


@np.errstate(over="ignore", invalid="ignore")  # as the kernel runs
def out_of_place_masked_moments(values: np.ndarray, ids: tuple[str, ...] | None = None) -> np.ndarray:
    """The kernel's ragged algebra with every step out of place, every block
    of the kernel's ``_block_width`` taken through its own 0/1 mask, on a
    panel ragged or not: the joint counts, sums and squares are N x N sums
    over blocks of ``o @ o.T``, ``x0 @ o.T`` and ``x0**2 @ o.T``."""
    n, m = values.shape
    ids = tuple(f"s{i}" for i in range(n)) if ids is None else ids
    width = _block_width(n, m)
    blocks = [values[:, lo : lo + width] for lo in range(0, m, width)]
    masks = [np.isfinite(block) for block in blocks]
    center = sum(np.where(mask, block, 0.0).sum(axis=1) for block, mask in zip(blocks, masks))
    center = center / sum(mask.sum(axis=1) for mask in masks)
    x0s = [np.where(mask, block - center[:, None], 0.0) for block, mask in zip(blocks, masks)]
    ones = [mask.astype(float) for mask in masks]
    count = sum(o @ o.T for o in ones)
    short = count < 2
    if short.any():
        i, j = np.argwhere(short)[0]
        raise _coverage_error(ids, i, j, count[i, j])
    prods = sum(x0 @ x0.T for x0 in x0s)
    prods = 0.5 * (prods + prods.T)
    sums = sum(x0 @ o.T for x0, o in zip(x0s, ones))
    squares = sum((x0 * x0) @ o.T for x0, o in zip(x0s, ones))
    means = sums / count
    cov_joint = (prods - count * means * means.T) / (count - 1.0)
    var = np.maximum((squares - count * means**2) / (count - 1.0), 0.0)
    return out_of_place_assemble(ids, center, means, cov_joint, var)


def out_of_place_assemble(ids, center, means, cov_joint, var_joint) -> np.ndarray:
    """The kernel's ``_assemble`` with every step out of place: the overflow
    refusal, then the constant series, then the first degenerate pair in
    row-major order, then the clipped correlation with a unit diagonal."""
    scale = np.sqrt(var_joint * var_joint.T)
    np.fill_diagonal(scale, 1.0)
    if not (np.isfinite(cov_joint).all() and np.isfinite(scale).all()):
        raise InvalidMatrixError(
            "sample moments overflow float64: the panel's values are too large"
        )
    own_sd = np.sqrt(np.diag(var_joint))
    constant = own_sd <= _CONSTANT_REL_TOL * np.maximum(1.0, np.abs(center))
    if constant.any():
        raise DegenerateSeriesError(ids[i] for i in np.flatnonzero(constant))
    thresholds = (_CONSTANT_REL_TOL * np.maximum(1.0, np.abs(center[:, None] + means))) ** 2
    degenerate_pair = var_joint <= thresholds
    np.fill_diagonal(degenerate_pair, False)
    if degenerate_pair.any():
        i, j = np.argwhere(degenerate_pair)[0]
        raise DegenerateSeriesError((ids[i], ids[j]), note="constant on the pair's joint sample")
    corr = np.clip(cov_joint / scale, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return corr


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    m=st.integers(4, 60),
    missing=st.sampled_from([0.05, 0.3, 0.6]),
    max_offset=st.sampled_from([0.0, 1.0, 1e6]),
    fortran=st.booleans(),
)
def test_ragged_kernel_matches_masked_reference_bit_for_bit(seed, n, m, missing, max_offset, fortran):
    values = fully_observed_values(seed, n, m, max_offset)
    holes = np.random.default_rng(seed).random((n, m)) < missing
    holes[:, :3] = False  # keep every series and pair estimable
    holes[-1, -1] = True  # and the panel ragged
    values[holes] = np.nan
    if fortran:
        values = np.asfortranarray(values)
    corr = _moments(tuple(f"s{i}" for i in range(n)), values)
    assert corr.tobytes() == out_of_place_masked_moments(values).tobytes()


@np.errstate(over="ignore", invalid="ignore")  # as the kernel runs
def out_of_place_dense_moments(values: np.ndarray, width: int | None = None) -> np.ndarray:
    """The kernel's complete-panel algebra with every step out of place, its
    sums over time taken in column blocks of ``width`` columns (the kernel's
    own ``_block_width`` unless given; ``width = M`` is the one-product
    algebra)."""
    n, m = values.shape
    width = _block_width(n, m) if width is None else width
    blocks = [values[:, lo : lo + width] for lo in range(0, m, width)]
    center = sum(block.sum(axis=1) for block in blocks) / m
    x0s = [block - center[:, None] for block in blocks]
    prods = sum(x0 @ x0.T for x0 in x0s)
    prods = 0.5 * (prods + prods.T)
    means = sum(x0.sum(axis=1) for x0 in x0s) / m
    cov_joint = (prods - (m * means)[:, None] * means[None, :]) / (m - 1.0)
    var = np.maximum((np.diag(prods) - m * means**2) / (m - 1.0), 0.0)
    ids = tuple(f"s{i}" for i in range(n))
    rows = np.tile(means[:, None], (1, n)), np.tile(var[:, None], (1, n))
    return out_of_place_assemble(ids, center, rows[0], cov_joint, rows[1])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    m=st.integers(3, 60),
    max_offset=st.sampled_from([0.0, 1.0, 1e6]),
)
def test_dense_kernel_in_place_steps_keep_the_bits(seed, n, m, max_offset):
    values = fully_observed_values(seed, n, m, max_offset)
    corr = _moments(tuple(f"s{i}" for i in range(n)), values)
    corr_r = out_of_place_dense_moments(values)
    assert corr.tobytes() == corr_r.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 24),
    data=st.data(),
    max_offset=st.sampled_from([0.0, 1.0, 1e6]),
    fortran=st.booleans(),
)
def test_a_panel_whose_periods_fit_one_block_keeps_the_one_product_bits(
    seed, n, data, max_offset, fortran
):
    # M <= N is one block of M columns, in either memory order
    m = data.draw(st.integers(2, n), label="m")
    values = fully_observed_values(seed, n, m, max_offset)
    if fortran:
        values = np.asfortranarray(values)
    assert _block_width(n, m) == m
    corr = _moments(tuple(f"s{i}" for i in range(n)), values)
    assert corr.tobytes() == out_of_place_dense_moments(values, width=m).tobytes()


@pytest.mark.parametrize("fortran", [False, True], ids=["c-order", "fortran"])
@pytest.mark.parametrize("missing", [0.0, 0.2], ids=["complete", "ragged"])
def test_unsymmetrized_total_keeps_the_bits_of_the_halved_reference(missing, fortran):
    # the references halve ``prods + prods.T`` before the algebra, and the
    # kernel does not: its total is a sum of ``x0 @ x0.T``, which numpy
    # computes from one triangle and mirrors, so the halving changes no bit
    n, m = 300, 320
    values = fully_observed_values(7, n, m, 1e3)
    holes = np.random.default_rng(7).random((n, m)) < missing
    holes[:, :3] = False
    values[holes] = np.nan
    if fortran:
        values = np.asfortranarray(values)
    corr = _moments(tuple(f"s{i}" for i in range(n)), values)
    reference = out_of_place_masked_moments if missing else out_of_place_dense_moments
    assert corr.tobytes() == reference(values).tobytes()


def test_complete_cases_of_a_loaded_panel_within_one_block_keep_the_one_product_bits():
    # the loaded panel is the reader's grid transposed, in Fortran order; its
    # complete columns are gathered into the kernel's buffer, not copied whole
    n, m = 12, 20
    values = fully_observed_values(3, n, m, 1e3)
    values[np.arange(n), np.arange(n)] = np.nan  # 8 complete columns, one block
    text = io.StringIO()
    write_panel(TimeSeriesPanel(tuple(f"s{i}" for i in range(n)), values), text)
    panel = panel_from_csv(text.getvalue())
    assert np.isfortran(panel.values)
    full = panel.observed_mask.all(axis=0)
    assert _block_width(n, int(full.sum())) == full.sum() == 8
    corr = sample_moments(panel, COMPLETE_CASES)
    reference = out_of_place_dense_moments(panel.values[:, full], width=8)
    assert corr.entries.tobytes() == reference.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    m=st.integers(3, 60),
    max_offset=st.sampled_from([0.0, 1e6]),
)
def test_modes_bit_identical_on_unmasked_panels(seed, n, m, max_offset):
    values = fully_observed_values(seed, n, m, max_offset)
    panel = TimeSeriesPanel(tuple(f"s{i}" for i in range(n)), values)
    corr_c = sample_moments(panel, COMPLETE_CASES)
    corr_p = sample_moments(panel, PAIRWISE_COMPLETE)
    np.testing.assert_array_equal(corr_c.entries, corr_p.entries)


def _degenerate_cases():
    """Each case: ids, fully observed values, and the ids the error names."""
    rng = np.random.default_rng(41)
    x = rng.standard_normal(8)
    y = rng.standard_normal(8)
    # sd about 1e-8: above any absolute tolerance, below 1e-13 * |1e6|
    near_flat = 1e6 + 1e-8 * rng.standard_normal(8)
    flat = np.full(8, -2.5)
    return {
        "constant": (("a", "flat"), np.vstack([x, np.full(8, 5.0)]), ("flat",)),
        "constant-at-large-offset": (("a", "b", "near"), np.vstack([x, y, near_flat]), ("near",)),
        "duplicated-constant-pair": (("a", "c1", "c2"), np.vstack([x, flat, flat]), ("c1", "c2")),
    }


@pytest.mark.parametrize("case", sorted(_degenerate_cases()))
def test_dense_and_masked_kernels_raise_identical_errors(case):
    ids, values, named = _degenerate_cases()[case]
    with pytest.raises(DegenerateSeriesError) as dense:
        _moments(ids, values)
    with pytest.raises(DegenerateSeriesError) as masked:
        out_of_place_masked_moments(values, ids)
    assert dense.value.ids == masked.value.ids == named
    assert str(dense.value) == str(masked.value)
    panel = TimeSeriesPanel(ids, values)
    for mode in (COMPLETE_CASES, PAIRWISE_COMPLETE):
        with pytest.raises(DegenerateSeriesError) as public:
            sample_moments(panel, mode)
        assert str(public.value) == str(dense.value)


@st.composite
def panels_with_several_refusals(draw):
    """A ragged panel of ordinary series beside at least two defects, rows in
    a drawn order: a series whose moments overflow float64 (or, at 1e100, only
    its variance's product with another such), a constant series, and a
    series constant on its joint sample with a partner but not on its own.
    Every row is observed in the first three columns, so every pair is
    covered and those columns are complete."""
    m = draw(st.integers(8, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        row = rng.standard_normal(m)
        row[3:][rng.random(m - 3) < 0.2] = np.nan
        rows.append(row)
    defects = st.sampled_from(["overflow", "constant", "pair"])
    for defect in draw(st.lists(defects, min_size=2, max_size=4)):
        if defect == "overflow":
            rows.append(draw(st.sampled_from([1e100, 1e160, 1e300])) * rng.standard_normal(m))
        elif defect == "constant":
            rows.append(np.full(m, draw(st.sampled_from([0.0, -2.5, 1e6]))))
        else:
            k = draw(st.integers(3, m - 2), label="partner's observed columns")
            series = rng.standard_normal(m)
            series[:k] = rng.standard_normal()
            partner = rng.standard_normal(m)
            partner[k:] = np.nan
            rows.extend([series, partner])
    order = draw(st.permutations(range(len(rows))))
    return np.array([rows[i] for i in order])


def _outcome(call):
    """The correlation's bytes, or the type and message of the refusal."""
    try:
        return call().tobytes()
    except (DegenerateSeriesError, InvalidMatrixError) as refused:
        return type(refused), str(refused)


@settings(max_examples=200, deadline=None)
@given(values=panels_with_several_refusals())
def test_several_refusals_at_once_raise_the_reference_error(values):
    # the kernel builds the pair thresholds before the scale, in one scratch,
    # yet must refuse as the out-of-place formulas do: overflow, then the
    # constant series, then the first degenerate pair
    ids = tuple(f"s{i}" for i in range(values.shape[0]))
    full = np.flatnonzero(np.isfinite(values).all(axis=0))
    masked = _outcome(lambda: _moments(ids, values))
    assert masked == _outcome(lambda: out_of_place_masked_moments(values, ids))
    dense = _outcome(lambda: _moments(ids, values, full))
    assert dense == _outcome(lambda: out_of_place_dense_moments(values[:, full]))


def test_too_few_complete_rows_raise_identical_errors_on_both_kernels():
    values = np.arange(12.0).reshape(3, 4)
    mask = np.ones((3, 4), bool)
    mask[0, 0] = mask[1, 1] = mask[2, 2] = False
    ids = ("a", "b", "c")
    with pytest.raises(CoverageError) as public:
        sample_moments(TimeSeriesPanel(ids, np.where(mask, values, np.nan)), COMPLETE_CASES)
    assert str(public.value) == (
        "only 1 timestamps observed across all series; need at least 2"
    )
    sub = values[:, mask.all(axis=0)]
    with pytest.raises(CoverageError) as dense:
        _moments(ids, sub)
    with pytest.raises(CoverageError) as masked:
        out_of_place_masked_moments(sub, ids)
    assert str(dense.value) == str(masked.value)


# The last column's missing cell sends pairwise-complete mode to the masked
# kernel; complete-cases mode takes the first three columns to the dense one.
_OVERFLOWING = {
    # the centered values' products overflow
    "products": [[1e308, -1e308, 1e308, np.nan], [1.0, 2.0, 3.0, 4.0]],
    # each variance is finite, but the product of two of them is not
    "variance-product": [[1e100, -1e100, 1e100, np.nan], [3e100, 1e100, -2e100, 4.0]],
}


@pytest.mark.parametrize("mode", [COMPLETE_CASES, PAIRWISE_COMPLETE])
@pytest.mark.parametrize("case", sorted(_OVERFLOWING))
def test_overflowing_moments_are_one_typed_refusal(mode, case):
    # the suite turns every warning into an error, so a numpy warning would fail here
    panel = TimeSeriesPanel(("a", "b"), np.array(_OVERFLOWING[case]))
    with pytest.raises(InvalidMatrixError, match="sample moments overflow float64"):
        sample_moments(panel, mode)


@pytest.mark.parametrize("mode", [COMPLETE_CASES, PAIRWISE_COMPLETE])
def test_one_huge_variance_is_no_overflow(mode):
    # its own squared variance overflows, but only the unit diagonal needs it
    values = np.array([[3e100, -1e100, 2e100, np.nan], [1.0, 2.0, 4.0, 8.0]])
    corr = sample_moments(TimeSeriesPanel(("a", "b"), values), mode)
    expected = np.corrcoef(values[0, :3] / 1e100, values[1, :3])[0, 1]
    assert corr.entries[0, 1] == pytest.approx(expected, abs=1e-12)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_moments_peak_at_one_block_buffer_and_n_by_n_arrays():
    # no N x M centered copy: the values are centered a column block at a time
    # into one N x N buffer, beside the running total and one block product;
    # after the loop the algebra runs in the total and that product's buffer
    n, m = 300, 900
    assert _block_width(n, m) == n
    values = np.random.default_rng(5).standard_normal((n, m))
    panel = TimeSeriesPanel(tuple(f"s{i}" for i in range(n)), values)
    assert _traced_peak(lambda: sample_moments(panel)) <= 3.5 * n * n * 8


def test_complete_cases_of_a_ragged_panel_peak_with_no_n_by_m_copy():
    # the complete columns are gathered into the block buffer, not copied out
    n, m = 200, 4000
    rng = np.random.default_rng(5)
    values = rng.standard_normal((n, m))
    values[rng.random((n, m)) < 0.0005] = np.nan  # about 10 % of the columns
    panel = TimeSeriesPanel(tuple(f"s{i}" for i in range(n)), values)
    assert 3000 < panel.observed_mask.all(axis=0).sum() < m
    assert _traced_peak(lambda: sample_moments(panel, COMPLETE_CASES)) <= 4.5 * n * n * 8


class TestPanelAdoptsLockedValues:
    IDS = ("a", "b")

    def test_a_read_only_array_is_kept_as_given(self):
        values = np.arange(8.0).reshape(2, 4).copy()  # a reshape is a view of the arange
        values.setflags(write=False)
        assert TimeSeriesPanel(self.IDS, values).values is values

    def test_a_read_only_view_of_a_locked_array_is_kept(self):
        grid = np.arange(8.0).reshape(4, 2).copy()
        grid.setflags(write=False)
        panel = TimeSeriesPanel(self.IDS, grid.T)
        assert panel.values.base is grid

    def test_a_read_only_view_of_a_writeable_array_is_copied(self):
        values = np.arange(8.0).reshape(2, 4)
        view = values[:]
        view.setflags(write=False)
        panel = TimeSeriesPanel(self.IDS, view)
        assert not np.shares_memory(panel.values, values)
        values[0, 0] = 99.0
        assert panel.values[0, 0] == 0.0

    def test_a_read_only_array_over_a_writeable_buffer_is_copied(self):
        buffer = bytearray(np.arange(8.0).tobytes())
        values = np.frombuffer(buffer).reshape(2, 4)
        values.setflags(write=False)
        assert not np.shares_memory(TimeSeriesPanel(self.IDS, values).values, values)

    def test_a_read_only_array_of_another_dtype_is_copied(self):
        values = np.arange(8, dtype=np.float32).reshape(2, 4)
        values.setflags(write=False)
        panel = TimeSeriesPanel(self.IDS, values)
        assert panel.values.dtype == np.float64 and not panel.values.flags.writeable

    def test_the_producers_hand_over_values_a_panel_keeps(self):
        text = "a,b\n1,2\n3,\n5,7\n8,9\n"
        panel = panel_from_csv(text)
        factors = TimeSeriesPanel(("f",), [[0.5, -1.0, 2.0, 0.25]])
        for made in (panel, ols_residualize(panel, factors)):
            assert TimeSeriesPanel(made.series_ids, made.values).values is made.values


@pytest.mark.parametrize("loaded", [False, True], ids=["c-order", "loaded"])
def test_pairwise_moments_peak_at_one_block_with_no_n_by_m_copy(loaded):
    # the mask and the centered values live one block at a time, in the
    # values' own memory order: a loaded panel (Fortran order) is not copied;
    # after the loop the algebra runs in the N x N totals and one scratch
    n, m = 300, 900
    assert _block_width(n, m) == n
    rng = np.random.default_rng(5)
    values = rng.standard_normal((n, m))
    values[rng.random((n, m)) < 0.1] = np.nan
    panel = TimeSeriesPanel(tuple(f"s{i}" for i in range(n)), values)
    if loaded:
        text = io.StringIO()
        write_panel(panel, text)
        panel = panel_from_csv(text.getvalue())
        assert np.isfortran(panel.values)
    peak = _traced_peak(lambda: sample_moments(panel, PAIRWISE_COMPLETE))
    assert peak <= 8 * n * n * 8
