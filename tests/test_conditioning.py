"""Eigendecomposition, pruning, eigenvalue-floor repair, and volatility."""

import io
import math

import numpy as np
import pytest

from turnover_spectra import (
    COMPLETE_CASES,
    PAIRWISE_COMPLETE,
    CorrelationMatrix,
    CovarianceMatrix,
    IllDefinedVolatilityError,
    InvalidDiagonalError,
    InvalidMatrixError,
    RepairConfig,
    TimeSeriesPanel,
    classify_definiteness,
    correlation_from_csv,
    default_floor,
    eigendecompose,
    matrix_report,
    matrix_to_csv,
    portfolio_volatility,
    prune_redundant,
    rj_repair,
    sample_moments,
)

# eigenvalues (1.9, 1.9, -0.8): verified against the characteristic
# polynomial (trace 3, pairwise-product sum 0.57, determinant -2.888)
NON_PSD = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])


def uniform_correlation(n: int, rho: float) -> np.ndarray:
    return (1.0 - rho) * np.eye(n) + rho * np.ones((n, n))


def random_correlation(seed: int, n: int) -> CorrelationMatrix:
    rng = np.random.default_rng(seed)
    loadings = rng.standard_normal((n, max(2, n // 3)))
    cov = loadings @ loadings.T + np.diag(rng.uniform(0.3, 1.0, n))
    vols = np.sqrt(np.diag(cov))
    corr = cov / np.outer(vols, vols)
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(corr, COMPLETE_CASES)


class TestEigendecompose:
    def test_identity_spectrum(self):
        decomp = eigendecompose(np.eye(4))
        np.testing.assert_array_equal(decomp.eigenvalues, np.ones(4))
        assert decomp.top_gap == 0.0

    def test_uniform_three_by_three(self):
        decomp = eigendecompose(uniform_correlation(3, 0.5))
        np.testing.assert_allclose(decomp.eigenvalues, [2.0, 0.5, 0.5], atol=1e-12)

    def test_two_by_two_closed_form(self):
        decomp = eigendecompose(np.array([[1.0, 0.6], [0.6, 1.0]]))
        np.testing.assert_allclose(decomp.eigenvalues, [1.6, 0.4], atol=1e-12)
        np.testing.assert_allclose(
            np.abs(decomp.eigenvectors[:, 0]), np.full(2, 1 / math.sqrt(2)), atol=1e-12
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction_orthonormality_trace(self, seed):
        corr = random_correlation(seed, 24)
        decomp = eigendecompose(corr)
        assert np.abs(decomp.reconstruct() - corr.entries).max() <= 1e-8
        assert decomp.orthonormality_residual <= 1e-8
        assert decomp.eigenvalues.sum() == pytest.approx(corr.n, rel=1e-8)
        assert (np.diff(decomp.eigenvalues) <= 1e-12).all()

    def test_deterministic_for_identical_input(self):
        corr = random_correlation(77, 15)
        first = eigendecompose(corr)
        second = eigendecompose(corr)
        np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
        np.testing.assert_array_equal(first.eigenvectors, second.eigenvectors)

    def test_sign_convention_largest_component_positive(self):
        decomp = eigendecompose(random_correlation(5, 12))
        for p in range(12):
            column = decomp.eigenvectors[:, p]
            assert column[np.argmax(np.abs(column))] > 0

    def test_non_finite_rejected(self):
        bad = np.eye(3)
        bad[0, 1] = bad[1, 0] = np.nan
        with pytest.raises(InvalidMatrixError):
            eigendecompose(bad)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidMatrixError):
            eigendecompose(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_degenerate_direction_has_matching_sample_variance(self):
        # more series than timestamps: the spectrum has near-zero directions,
        # and each one is a combination with matching (tiny) sample variance
        rng = np.random.default_rng(42)
        values = rng.standard_normal((12, 8))
        panel = TimeSeriesPanel(
            tuple(f"s{i}" for i in range(12)), values, np.ones((12, 8), bool)
        )
        cov, _ = sample_moments(panel, COMPLETE_CASES)
        decomp = eigendecompose(cov)
        tolerance = 1e-10 * decomp.eigenvalues[0] * cov.n
        small = decomp.eigenvalues <= tolerance
        assert small.any()
        for p in np.flatnonzero(small):
            combination = decomp.eigenvectors[:, p] @ panel.values
            assert combination.var(ddof=1) <= tolerance * 1.01 + 1e-15


class TestPruneRedundant:
    def test_spec_triangle(self):
        corr = CorrelationMatrix(
            [[1.0, 0.95, 0.2], [0.95, 1.0, 0.1], [0.2, 0.1, 1.0]],
            COMPLETE_CASES,
            ids=("a", "b", "c"),
        )
        kept, pruned = prune_redundant(corr, 0.9)
        assert kept == [0, 2]
        assert pruned.ids == ("a", "c")
        assert pruned.entries[0, 1] == 0.2

    def test_identity_keeps_everything(self):
        corr = CorrelationMatrix(np.eye(5), COMPLETE_CASES)
        kept, _ = prune_redundant(corr, 0.5)
        assert kept == [0, 1, 2, 3, 4]

    def test_chain_removal_keeps_first_only(self):
        corr = CorrelationMatrix(uniform_correlation(4, 0.99), COMPLETE_CASES)
        kept, pruned = prune_redundant(corr, 0.9)
        assert kept == [0]
        assert pruned.n == 1

    def test_output_bounded_by_threshold(self):
        corr = random_correlation(3, 20)
        _, pruned = prune_redundant(corr, 0.6)
        off = pruned.entries[~np.eye(pruned.n, dtype=bool)]
        assert np.abs(off).max() <= 0.6

    def test_invariant_between_offdiagonal_magnitudes(self):
        corr = random_correlation(8, 10)
        magnitudes = np.sort(np.unique(np.abs(corr.entries[~np.eye(10, dtype=bool)])))
        lo, hi = magnitudes[-3], magnitudes[-2]
        kept_a, _ = prune_redundant(corr, (2 * lo + hi) / 3)
        kept_b, _ = prune_redundant(corr, (lo + 2 * hi) / 3)
        assert kept_a == kept_b

    def test_bound_outside_open_interval_rejected(self):
        corr = CorrelationMatrix(np.eye(3), COMPLETE_CASES)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                prune_redundant(corr, bad)


class TestRjRepair:
    def test_positive_definite_input_passes_through(self):
        corr = random_correlation(11, 10)
        floor = 0.5 * np.linalg.eigvalsh(corr.entries).min()
        repaired = rj_repair(corr, floor)
        assert np.abs(repaired.entries - corr.entries).max() <= 1e-10

    def test_non_psd_triangle_repaired(self):
        corr = CorrelationMatrix(NON_PSD, PAIRWISE_COMPLETE)
        repaired = rj_repair(corr, 1e-4)
        values = np.linalg.eigvalsh(repaired.entries)
        assert values.min() > 0
        np.testing.assert_allclose(np.diag(repaired.entries), 1.0, atol=1e-12)
        assert repaired.psd_status == "verified-PD"

    def test_repaired_minimum_clears_half_floor(self):
        floor = default_floor(3)
        repaired = rj_repair(NON_PSD, floor)
        assert np.linalg.eigvalsh(repaired).min() >= floor / 2

    def test_idempotent(self):
        repaired = rj_repair(NON_PSD, 1e-4)
        again = rj_repair(repaired, 1e-4)
        assert np.abs(again - repaired).max() <= 1e-10

    def test_covariance_diagonal_preserved_exactly(self):
        vols = np.array([2.0, 0.5, 1.5])
        entries = NON_PSD * np.outer(vols, vols)
        cov = CovarianceMatrix(entries, vols, np.full((3, 3), 9), PAIRWISE_COMPLETE)
        repaired = rj_repair(cov, 1e-4)
        np.testing.assert_array_equal(np.diag(repaired.entries), vols**2)
        np.testing.assert_array_equal(repaired.vols, vols)
        assert np.linalg.eigvalsh(repaired.entries).min() > 0

    def test_nonpositive_diagonal_rejected(self):
        bad = np.array([[0.0, 0.1], [0.1, 1.0]])
        with pytest.raises(InvalidDiagonalError):
            rj_repair(bad, 1e-4)

    def test_nonpositive_floor_rejected(self):
        with pytest.raises(ValueError):
            rj_repair(NON_PSD, 0.0)

    def test_ragged_pairwise_matrix_converges_in_few_passes(self, monkeypatch):
        # 300 one-factor series over 900 timestamps, 45 % missing: staggered
        # starts plus random holes. A stop test tighter than eigh's own
        # rounding (N * eps * max|lambda|) never clears the floor on it.
        rng = np.random.default_rng(20260417)
        n, m, missing = 300, 900, 0.45
        values = 0.5 * rng.standard_normal(m) + math.sqrt(0.75) * rng.standard_normal((n, m))
        life = rng.uniform(1.0 - missing / 2.0, 1.0, n)
        mask = np.arange(m)[None, :] < np.round(life * m)[:, None]
        mask &= rng.random((n, m)) >= 0.75 * missing / (1.0 - 0.25 * missing)
        panel = TimeSeriesPanel(tuple(f"s{i}" for i in range(n)), values, mask)
        _, corr = sample_moments(panel, PAIRWISE_COMPLETE)
        floor = default_floor(n)
        assert np.linalg.eigvalsh(corr.entries).min() < 0

        eigh = np.linalg.eigh
        calls = []

        def counting_eigh(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        repaired = rj_repair(corr, floor)
        monkeypatch.undo()

        assert len(calls) <= 10
        spectrum = np.linalg.eigvalsh(repaired.entries)
        assert spectrum.min() >= floor * (1.0 - 1e-6)
        np.testing.assert_array_equal(np.diag(repaired.entries), 1.0)
        again = rj_repair(repaired, floor)
        np.testing.assert_array_equal(again.entries, repaired.entries)


class TestPortfolioVolatility:
    def test_identity_unit_weight(self):
        assert portfolio_volatility(np.eye(3), [1.0, 0.0, 0.0], 1.0) == 1.0

    def test_diagonal_arithmetic(self):
        value = portfolio_volatility(np.diag([4.0, 9.0]), [0.5, 0.5], 100.0)
        assert value == pytest.approx(100.0 * math.sqrt(3.25), abs=1e-9)
        assert value == pytest.approx(180.27756377319946, abs=1e-8)

    def test_non_psd_matrix_rejected(self):
        decomp = eigendecompose(NON_PSD)
        negative_direction = decomp.eigenvectors[:, -1]
        with pytest.raises(IllDefinedVolatilityError) as excinfo:
            portfolio_volatility(NON_PSD, negative_direction, 1.0)
        assert "rj_repair" in str(excinfo.value)

    def test_rank_deficient_but_psd_accepted(self):
        v = np.array([1.0, -2.0, 0.5])
        cov = np.outer(v, v)  # rank one, eigenvalues {|v|^2, 0, 0}
        assert portfolio_volatility(cov, [1.0, 0.0, 0.0], 1.0) == pytest.approx(1.0)

    def test_matches_direct_quadratic_form(self):
        corr = random_correlation(21, 7)
        rng = np.random.default_rng(0)
        w = rng.standard_normal(7)
        direct = math.sqrt(w @ corr.entries @ w)
        assert portfolio_volatility(corr, w, 3.0) == pytest.approx(3.0 * direct, rel=1e-12)


class TestSerialization:
    def test_csv_roundtrip(self):
        corr = random_correlation(2, 6)
        buffer = io.StringIO()
        matrix_to_csv(corr, buffer)
        again = correlation_from_csv(io.StringIO(buffer.getvalue()))
        np.testing.assert_array_equal(again.entries, corr.entries)

    def test_report_fields(self):
        report = matrix_report(rj_repair(CorrelationMatrix(NON_PSD, PAIRWISE_COMPLETE), 1e-6))
        assert set(report) == {"ids", "entries", "eigenvalues", "psd_status"}
        assert report["psd_status"] == "verified-PD"
        assert len(report["eigenvalues"]) == 3

    def test_classify_definiteness(self):
        assert classify_definiteness(NON_PSD) == "verified-not-PSD"
        assert classify_definiteness(np.eye(3)) == "verified-PD"
        v = np.array([1.0, 2.0])
        assert classify_definiteness(np.outer(v, v)) == "unverified"


class TestRepairConfig:
    def test_defaults(self):
        config = RepairConfig.for_dimension(50)
        assert config.eigen_floor == pytest.approx(5e-7)
        assert config.redundancy_bound == 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            RepairConfig(eigen_floor=0.0)
        with pytest.raises(ValueError):
            RepairConfig(eigen_floor=1e-8, redundancy_bound=1.0)
        with pytest.raises(ValueError):
            RepairConfig(eigen_floor=1e-8, degeneracy_tolerance=-1.0)
