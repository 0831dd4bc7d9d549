"""Panel loading, sample moments with missing data, and residualization."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turnover_spectra import (
    COMPLETE_CASES,
    PAIRWISE_COMPLETE,
    CollinearFactorsError,
    CorrelationMatrix,
    CovarianceMatrix,
    CoverageError,
    DegenerateSeriesError,
    InvalidMatrixError,
    PanelFormatError,
    RejectedSeriesError,
    TimeSeriesPanel,
    load_panel,
    ols_residualize,
    sample_moments,
    write_panel,
)
from turnover_spectra.conditioning import _spectrum
from turnover_spectra.panel import _assemble, _dense_moments, _masked_moments


def panel_from_csv(text: str, **kwargs) -> TimeSeriesPanel:
    return load_panel(io.StringIO(text), **kwargs)


def random_masked_panel(seed: int, n: int = 6, t: int = 40, missing: float = 0.2) -> TimeSeriesPanel:
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, t))
    mask = rng.random((n, t)) > missing
    mask[:, :3] = True  # keep every series and pair estimable
    ids = tuple(f"s{i}" for i in range(n))
    return TimeSeriesPanel(ids, values, mask)


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

    def test_oldest_first_reverses_rows(self):
        newest = panel_from_csv("a1\n1\n2\n3\n")
        oldest = panel_from_csv("a1\n3\n2\n1\n", oldest_first=True)
        np.testing.assert_array_equal(newest.values, oldest.values)

    def test_roundtrip_through_write_panel(self, tmp_path):
        panel = random_masked_panel(11)
        buffer = io.StringIO()
        write_panel(panel, buffer)
        write_panel(panel, tmp_path / "panel.csv")
        write_panel(panel, str(tmp_path / "again.csv"))
        for path in ("panel.csv", "again.csv"):  # a path and a handle get the same bytes
            assert (tmp_path / path).read_bytes() == buffer.getvalue().encode()
        again = panel_from_csv(buffer.getvalue())
        assert again.series_ids == panel.series_ids
        np.testing.assert_array_equal(again.observed_mask, panel.observed_mask)
        np.testing.assert_array_equal(
            again.values[again.observed_mask], panel.values[panel.observed_mask]
        )


class TestSampleMoments:
    def test_identical_series_perfectly_correlated(self):
        x = np.arange(6.0)
        panel = TimeSeriesPanel(("a", "b"), np.vstack([x, x]), np.ones((2, 6), bool))
        _, corr = sample_moments(panel)
        assert corr.entries[0, 1] == 1.0

    def test_negated_series_perfectly_anticorrelated(self):
        x = np.array([0.3, -1.2, 0.7, 2.0, -0.4])
        panel = TimeSeriesPanel(("a", "b"), np.vstack([x, -x]), np.ones((2, 5), bool))
        _, corr = sample_moments(panel)
        assert corr.entries[0, 1] == -1.0

    def test_constant_series_is_degenerate(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        const = np.full(4, 5.0)
        panel = TimeSeriesPanel(("a", "flat"), np.vstack([x, const]), np.ones((2, 4), bool))
        with pytest.raises(DegenerateSeriesError) as excinfo:
            sample_moments(panel)
        assert "flat" in str(excinfo.value)

    @pytest.mark.parametrize("mode", [COMPLETE_CASES, PAIRWISE_COMPLETE])
    def test_covariance_correlation_consistency(self, mode):
        panel = random_masked_panel(5)
        cov, corr = sample_moments(panel, mode)
        reconstructed = np.outer(cov.vols, cov.vols) * corr.entries
        np.testing.assert_allclose(cov.entries, reconstructed, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(np.diag(cov.entries), cov.vols**2)

    def test_pairwise_matches_per_pair_numpy_oracle(self):
        panel = random_masked_panel(17, n=5, t=60, missing=0.3)
        _, corr = sample_moments(panel, PAIRWISE_COMPLETE)
        mask = panel.observed_mask
        for i in range(5):
            for j in range(i + 1, 5):
                joint = mask[i] & mask[j]
                expected = np.corrcoef(panel.values[i, joint], panel.values[j, joint])[0, 1]
                assert corr.entries[i, j] == pytest.approx(expected, abs=1e-12)

    def test_pairwise_counts_match_mask(self):
        panel = random_masked_panel(23, n=4, t=30, missing=0.4)
        cov, _ = sample_moments(panel, PAIRWISE_COMPLETE)
        mask = panel.observed_mask.astype(int)
        np.testing.assert_array_equal(cov.pairwise_counts, mask @ mask.T)

    def test_modes_agree_exactly_without_missing_values(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal((4, 25))
        panel = TimeSeriesPanel(tuple("abcd"), values, np.ones((4, 25), bool))
        cov_c, corr_c = sample_moments(panel, COMPLETE_CASES)
        cov_p, corr_p = sample_moments(panel, PAIRWISE_COMPLETE)
        np.testing.assert_array_equal(cov_c.entries, cov_p.entries)
        np.testing.assert_array_equal(corr_c.entries, corr_p.entries)

    def test_permutation_equivariance(self):
        panel = random_masked_panel(31)
        perm = np.array([3, 0, 5, 1, 4, 2])
        permuted = TimeSeriesPanel(
            tuple(panel.series_ids[p] for p in perm),
            panel.values[perm],
            panel.observed_mask[perm],
        )
        for mode in (COMPLETE_CASES, PAIRWISE_COMPLETE):
            cov, corr = sample_moments(panel, mode)
            cov_p, corr_p = sample_moments(permuted, mode)
            np.testing.assert_array_equal(cov_p.entries, cov.entries[np.ix_(perm, perm)])
            np.testing.assert_array_equal(corr_p.entries, corr.entries[np.ix_(perm, perm)])

    def test_pairwise_entries_stay_in_range(self):
        for seed in range(8):
            panel = random_masked_panel(seed, n=8, t=25, missing=0.45)
            try:
                _, corr = sample_moments(panel, PAIRWISE_COMPLETE)
            except (CoverageError, DegenerateSeriesError):
                continue
            assert np.abs(corr.entries).max() <= 1.0

    def test_too_few_complete_rows(self):
        values = np.arange(12.0).reshape(3, 4)
        mask = np.ones((3, 4), bool)
        mask[0, 0] = mask[1, 1] = mask[2, 2] = False
        panel = TimeSeriesPanel(("a", "b", "c"), values, mask)
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
        panel = TimeSeriesPanel(("left", "right"), values, mask)
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
        arr = np.atleast_2d(np.asarray(values, float))
        return TimeSeriesPanel(ids, arr, np.ones_like(arr, bool))

    def test_self_regression_zero_residuals(self):
        y = np.array([1.0, -0.5, 2.5, 0.25, -1.75])
        panel = self.one_series_panel(y)
        factors = self.one_series_panel(y, ids=("f",))
        resid = ols_residualize(panel, factors, with_intercept=True)
        np.testing.assert_allclose(resid.values[0], 0.0, atol=1e-12)

    def test_exact_linear_fit_zero_residuals(self):
        f = np.array([0.5, -1.0, 2.0, 3.5, -0.25, 1.0])
        y = 2.0 * f + 1.0
        panel = self.one_series_panel(y)
        factors = self.one_series_panel(f, ids=("f",))
        resid = ols_residualize(panel, factors, with_intercept=True)
        np.testing.assert_allclose(resid.values[0], 0.0, atol=1e-12)

    def test_orthogonal_factor_leaves_demeaned_series(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        # zero correlation with the demeaned series, nonconstant
        f = np.array([1.0, -1.0, -1.0, 1.0])
        assert abs((f - f.mean()) @ (y - y.mean())) < 1e-12
        panel = self.one_series_panel(y)
        factors = self.one_series_panel(f, ids=("f",))
        resid = ols_residualize(panel, factors, with_intercept=True)
        np.testing.assert_allclose(resid.values[0], y - y.mean(), atol=1e-12)

    def test_keep_intercept_only_shifts_levels(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(12)
        f = rng.standard_normal(12)
        panel = self.one_series_panel(y)
        factors = self.one_series_panel(f, ids=("f",))
        pure = ols_residualize(panel, factors, with_intercept=True)
        kept = ols_residualize(panel, factors, with_intercept=True, keep_intercept=True)
        shift = kept.values[0] - pure.values[0]
        np.testing.assert_allclose(shift, shift[0], atol=1e-12)
        assert abs(shift[0]) > 1e-6  # the fitted intercept is genuinely nonzero

    def test_factor_rescaling_leaves_residuals(self):
        rng = np.random.default_rng(7)
        panel = TimeSeriesPanel(
            ("y1", "y2"), rng.standard_normal((2, 30)), np.ones((2, 30), bool)
        )
        f = rng.standard_normal((2, 30))
        factors = TimeSeriesPanel(("f1", "f2"), f, np.ones((2, 30), bool))
        scaled = TimeSeriesPanel(
            ("f1", "f2"), f * np.array([[17.0], [-0.003]]), np.ones((2, 30), bool)
        )
        base = ols_residualize(panel, factors)
        other = ols_residualize(panel, scaled)
        np.testing.assert_allclose(base.values, other.values, atol=1e-10)

    def test_collinear_factors_rejected(self):
        rng = np.random.default_rng(9)
        panel = self.one_series_panel(rng.standard_normal(10))
        f = rng.standard_normal(10)
        factors = TimeSeriesPanel(("f1", "f2"), np.vstack([f, 3.0 * f]), np.ones((2, 10), bool))
        with pytest.raises(CollinearFactorsError):
            ols_residualize(panel, factors)

    def test_too_few_joint_rows(self):
        y = np.array([1.0, 2.0, np.nan, np.nan, np.nan, np.nan])
        mask = ~np.isnan(y)
        panel = TimeSeriesPanel(("y",), y[None, :], mask[None, :])
        factors = self.one_series_panel(np.arange(6.0), ids=("f",))
        with pytest.raises(CoverageError) as excinfo:
            ols_residualize(panel, factors)
        assert "y" in str(excinfo.value)

    def test_mask_propagates_joint_observability(self):
        rng = np.random.default_rng(13)
        values = rng.standard_normal((1, 12))
        mask = np.ones((1, 12), bool)
        mask[0, 2] = False
        panel = TimeSeriesPanel(("y",), values, mask)
        f_values = rng.standard_normal((1, 12))
        f_mask = np.ones((1, 12), bool)
        f_mask[0, 7] = False
        factors = TimeSeriesPanel(("f",), f_values, f_mask)
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
            CorrelationMatrix([[1.0, 0.2], [0.2, 0.9]], COMPLETE_CASES)

    def test_correlation_requires_entries_in_range(self):
        with pytest.raises(ValueError):
            CorrelationMatrix([[1.0, 1.2], [1.2, 1.0]], COMPLETE_CASES)

    def test_correlation_requires_symmetry(self):
        with pytest.raises(ValueError):
            CorrelationMatrix([[1.0, 0.2], [0.3, 1.0]], COMPLETE_CASES)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: CorrelationMatrix([[1.0, 0.2], [0.2, 0.9]], COMPLETE_CASES),
             "correlation matrix diagonal must be 1 within 1e-12"),
            (lambda: CorrelationMatrix([[1.0, 1.2], [1.2, 1.0]], COMPLETE_CASES),
             "correlation matrix entries must lie in [-1, 1]"),
            (lambda: CovarianceMatrix([[4.0, 0.1], [0.1, 9.0]], [2.0, 2.0], np.ones((2, 2)),
                                      COMPLETE_CASES),
             "covariance matrix diagonal disagrees with vols**2"),
        ],
        ids=["unit-diagonal", "entry-range", "vols"],
    )
    def test_value_checks_are_invalid_matrix_errors(self, build, message):
        with pytest.raises(InvalidMatrixError) as refused:
            build()
        assert str(refused.value) == message

    def test_shape_and_tag_checks_stay_plain_value_errors(self):
        entries = np.eye(2)
        for build in (
            lambda: CovarianceMatrix(entries, [1.0], np.ones((2, 2)), COMPLETE_CASES),
            lambda: CovarianceMatrix(entries, [1.0, -1.0], np.ones((2, 2)), COMPLETE_CASES),
            lambda: CorrelationMatrix(entries, "guessed"),
            lambda: CorrelationMatrix(entries, COMPLETE_CASES, ids=("a",)),
        ):
            with pytest.raises(ValueError) as refused:
                build()
            assert not isinstance(refused.value, InvalidMatrixError)

    def test_panel_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            TimeSeriesPanel(("a",), np.ones((1, 4)), np.ones((1, 3), bool))


class TestValueEquality:
    ENTRIES = np.array([[1.0, 0.3], [0.3, 1.0]])

    def covariance(self, entries=ENTRIES, ids=("a", "b")):
        return CovarianceMatrix(entries, np.ones(2), np.full((2, 2), 5), COMPLETE_CASES, ids)

    def panel(self, last=3.0):
        values = np.array([[1.0, 2.0, np.nan], [1.0, 2.0, last]])
        mask = np.array([[True, True, False], [True, True, True]])
        return TimeSeriesPanel(("a", "b"), values, mask)

    def test_equal_values_compare_equal(self):
        assert CorrelationMatrix(self.ENTRIES, COMPLETE_CASES) == CorrelationMatrix(
            self.ENTRIES.copy(), COMPLETE_CASES
        )
        assert self.covariance() == self.covariance()
        assert self.panel() == self.panel()  # NaN under the mask compares equal

    def test_any_differing_field_compares_unequal(self):
        corr = CorrelationMatrix(self.ENTRIES, COMPLETE_CASES)
        other = np.array([[1.0, 0.31], [0.31, 1.0]])
        assert corr != CorrelationMatrix(other, COMPLETE_CASES)
        assert corr != CorrelationMatrix(self.ENTRIES, PAIRWISE_COMPLETE)
        assert corr != CorrelationMatrix(self.ENTRIES, COMPLETE_CASES, "verified-PD")
        assert corr != CorrelationMatrix(self.ENTRIES, COMPLETE_CASES, ids=("a", "b"))
        assert corr != CorrelationMatrix(np.eye(3), COMPLETE_CASES)  # shapes differ
        assert self.covariance() != self.covariance(ids=("a", "c"))
        assert self.panel() != self.panel(last=4.0)
        assert corr != self.ENTRIES.tolist()
        assert corr != self.covariance()

    def test_memoised_and_fresh_matrices_compare_equal(self):
        memoised = CorrelationMatrix(self.ENTRIES, COMPLETE_CASES)
        _spectrum(memoised)
        assert memoised._eigensystem is not None
        assert memoised == CorrelationMatrix(self.ENTRIES, COMPLETE_CASES)
        covariance = self.covariance()
        _spectrum(covariance)
        assert covariance == self.covariance()

    def test_types_are_unhashable(self):
        for value in (CorrelationMatrix(self.ENTRIES, COMPLETE_CASES), self.covariance(), self.panel()):
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)


class TestPanelValidation:
    RAGGED_MASK = np.array([[True, True, False, True], [False, True, True, True]])

    def test_non_finite_observed_cell_under_ragged_mask_rejected(self):
        values = np.ones((2, 4))
        values[1, 2] = np.inf
        with pytest.raises(ValueError, match="^observed values must be finite$"):
            TimeSeriesPanel(("a", "b"), values, self.RAGGED_MASK)

    def test_short_series_rejected_by_name(self):
        mask = self.RAGGED_MASK.copy()
        mask[1, 1:3] = False
        with pytest.raises(RejectedSeriesError) as excinfo:
            TimeSeriesPanel(("a", "b"), np.ones((2, 4)), mask)
        assert str(excinfo.value) == "series with fewer than 2 observations: b"

    def test_non_finite_unobserved_cells_accepted_and_masked(self):
        values = np.arange(8.0).reshape(2, 4)
        values[0, 2] = np.inf
        values[1, 0] = np.nan
        original = values.copy()
        panel = TimeSeriesPanel(("a", "b"), values, self.RAGGED_MASK)
        np.testing.assert_array_equal(np.isnan(panel.values), ~self.RAGGED_MASK)
        np.testing.assert_array_equal(panel.values[self.RAGGED_MASK], original[self.RAGGED_MASK])
        # the caller's array is copied, never written
        np.testing.assert_array_equal(values, original)
        assert values.flags.writeable


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 10_000))
def test_correlation_invariant_under_series_scaling(scale, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((3, 20))
    panel = TimeSeriesPanel(("a", "b", "c"), values, np.ones((3, 20), bool))
    scaled = TimeSeriesPanel(
        ("a", "b", "c"), values * scale, np.ones((3, 20), bool)
    )
    _, corr = sample_moments(panel)
    _, corr_scaled = sample_moments(scaled)
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
    values = fully_observed_values(seed, n, m, max_offset)
    ids = tuple(f"s{i}" for i in range(n))
    cov, corr, vols, counts = _dense_moments(ids, values)
    cov_r, corr_r, vols_r, counts_r = _masked_moments(ids, values, np.ones((n, m), bool))
    np.testing.assert_allclose(corr, corr_r, rtol=0, atol=1e-12)
    np.testing.assert_allclose(vols, vols_r, rtol=1e-12, atol=0)
    # covariance relative to each entry's natural scale vol_i * vol_j
    scale = np.outer(vols_r, vols_r)
    assert (np.abs(cov - cov_r) <= 1e-12 * scale).all()
    assert np.issubdtype(counts.dtype, np.integer)
    assert counts.dtype == counts_r.dtype
    np.testing.assert_array_equal(counts, counts_r)


def out_of_place_dense_moments(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The dense kernel's algebra with every step out of place."""
    n, m = values.shape
    center = values.sum(axis=1) / m
    x0 = values - center[:, None]
    prods = x0 @ x0.T
    prods = 0.5 * (prods + prods.T)
    means = x0.sum(axis=1) / m
    cov_joint = (prods - (m * means)[:, None] * means[None, :]) / (m - 1.0)
    var = np.maximum((np.diag(prods) - m * means**2) / (m - 1.0), 0.0)
    ids = tuple(f"s{i}" for i in range(n))
    rows = np.tile(means[:, None], (1, n)), np.tile(var[:, None], (1, n))
    return _assemble(ids, center, rows[0], cov_joint, rows[1])[:2]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    m=st.integers(3, 60),
    max_offset=st.sampled_from([0.0, 1.0, 1e6]),
)
def test_dense_kernel_in_place_steps_keep_the_bits(seed, n, m, max_offset):
    values = fully_observed_values(seed, n, m, max_offset)
    cov, corr, _, _ = _dense_moments(tuple(f"s{i}" for i in range(n)), values)
    cov_r, corr_r = out_of_place_dense_moments(values)
    assert cov.tobytes() == cov_r.tobytes()
    assert corr.tobytes() == corr_r.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    m=st.integers(3, 60),
    max_offset=st.sampled_from([0.0, 1e6]),
)
def test_modes_bit_identical_on_unmasked_panels(seed, n, m, max_offset):
    values = fully_observed_values(seed, n, m, max_offset)
    panel = TimeSeriesPanel(tuple(f"s{i}" for i in range(n)), values, np.ones((n, m), bool))
    cov_c, corr_c = sample_moments(panel, COMPLETE_CASES)
    cov_p, corr_p = sample_moments(panel, PAIRWISE_COMPLETE)
    np.testing.assert_array_equal(cov_c.entries, cov_p.entries)
    np.testing.assert_array_equal(cov_c.vols, cov_p.vols)
    np.testing.assert_array_equal(cov_c.pairwise_counts, cov_p.pairwise_counts)
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
        _dense_moments(ids, values)
    with pytest.raises(DegenerateSeriesError) as masked:
        _masked_moments(ids, values, np.ones(values.shape, bool))
    assert dense.value.ids == masked.value.ids == named
    assert str(dense.value) == str(masked.value)
    panel = TimeSeriesPanel(ids, values, np.ones(values.shape, bool))
    for mode in (COMPLETE_CASES, PAIRWISE_COMPLETE):
        with pytest.raises(DegenerateSeriesError) as public:
            sample_moments(panel, mode)
        assert str(public.value) == str(dense.value)


def test_too_few_complete_rows_raise_identical_errors_on_both_kernels():
    values = np.arange(12.0).reshape(3, 4)
    mask = np.ones((3, 4), bool)
    mask[0, 0] = mask[1, 1] = mask[2, 2] = False
    ids = ("a", "b", "c")
    with pytest.raises(CoverageError) as public:
        sample_moments(TimeSeriesPanel(ids, values, mask), COMPLETE_CASES)
    assert str(public.value) == (
        "only 1 timestamps observed across all series; need at least 2"
    )
    sub = values[:, mask.all(axis=0)]
    with pytest.raises(CoverageError) as dense:
        _dense_moments(ids, sub)
    with pytest.raises(CoverageError) as masked:
        _masked_moments(ids, sub, np.ones(sub.shape, bool))
    assert str(dense.value) == str(masked.value)
