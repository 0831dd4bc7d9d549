"""Sign-basis fixing, spectral turnover models, reduction coefficients and
single-alpha calibration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turnover_spectra import (
    COMPLETE_CASES,
    CalibrationError,
    CorrelationMatrix,
    CovarianceMatrix,
    SpectralDecomposition,
    TurnoverInputs,
    calibrate_exact_B,
    eigendecompose,
    fix_sign_basis,
    naive_turnover,
    one_factor_correlation,
    p1_share,
    rho_star,
    rho_star_factored,
    spectral_terms,
    spectral_turnover_full,
    spectral_turnover_large_n,
    turnover_exact_b,
    turnover_report,
    turnover_t2,
)
from turnover_spectra import conditioning
from turnover_spectra import turnover as turnover_module

def _singular_solve(a, b):
    raise np.linalg.LinAlgError("Singular matrix")


THREE_BY_THREE = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])


def uniform_correlation(n: int, rho: float) -> np.ndarray:
    return (1.0 - rho) * np.eye(n) + rho * np.ones((n, n))


def uniform_basis(n: int, rho: float):
    """Analytic eigensystem of the uniform-correlation matrix.

    The leading eigenvector is the uniform vector; the remaining columns are
    the Helmert completion (orthonormal, each summing to zero). Valid for
    every rho in [0, 1), including rho = 0 where a numerical solver would
    return an arbitrary basis of the fully degenerate spectrum.
    """
    vectors = np.zeros((n, n))
    vectors[:, 0] = 1.0 / math.sqrt(n)
    for p in range(1, n):
        vectors[:p, p] = 1.0 / math.sqrt(p * (p + 1))
        vectors[p, p] = -p / math.sqrt(p * (p + 1))
    eigenvalues = np.concatenate([[1.0 + (n - 1) * rho], np.full(n - 1, 1.0 - rho)])
    decomp = SpectralDecomposition(eigenvalues, vectors, n * rho, 0.0)
    return fix_sign_basis(decomp)


def basis_of(entries: np.ndarray):
    """The sign basis of a symmetric array with a positive diagonal, wrapped
    as a covariance matrix, which keeps every entry as it is."""
    return fix_sign_basis(eigendecompose(CovarianceMatrix(entries)))


def random_pd_correlation(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    loadings = rng.standard_normal((n, max(2, n // 2)))
    cov = loadings @ loadings.T + np.diag(rng.uniform(0.5, 1.5, n))
    vols = np.sqrt(np.diag(cov))
    corr = cov / np.outer(vols, vols)
    np.fill_diagonal(corr, 1.0)
    return corr


class TestFixSignBasis:
    @staticmethod
    def decomposition_2x2(first_column):
        a, b = first_column
        vectors = np.array([[a, -b], [b, a]])  # orthonormal when a^2 + b^2 = 1
        return SpectralDecomposition(np.array([1.5, 0.5]), vectors, 1.0, 0.0)

    def test_global_flip(self):
        basis = fix_sign_basis(self.decomposition_2x2((-0.6, -0.8)))
        np.testing.assert_array_equal(basis.signs, [-1.0, -1.0])
        np.testing.assert_allclose(basis.first_eigenvector, [0.6, 0.8])

    def test_componentwise_flip_hits_other_columns(self):
        decomp = self.decomposition_2x2((0.6, -0.8))
        basis = fix_sign_basis(decomp)
        np.testing.assert_array_equal(basis.signs, [1.0, -1.0])
        np.testing.assert_allclose(basis.first_eigenvector, [0.6, 0.8])
        # second column rows flipped by the same signs
        np.testing.assert_allclose(
            basis.eigenvectors[:, 1], decomp.eigenvectors[:, 1] * basis.signs
        )
        np.testing.assert_array_equal(basis.eigenvalues, decomp.eigenvalues)

    def test_identity_when_already_nonnegative(self):
        decomp = self.decomposition_2x2((0.8, 0.6))
        basis = fix_sign_basis(decomp)
        np.testing.assert_array_equal(basis.signs, [1.0, 1.0])
        np.testing.assert_array_equal(basis.eigenvectors, decomp.eigenvectors)

    def test_the_basis_is_the_decomposition_it_resigns(self):
        vectors = np.array([[-0.6, 0.8], [-0.8, -0.6]])
        decomp = SpectralDecomposition(np.array([1.5, 0.5]), vectors, 0.75, 3e-17)
        basis = fix_sign_basis(decomp)
        assert isinstance(basis, SpectralDecomposition)
        assert basis.top_gap == decomp.top_gap
        assert basis.orthonormality_residual == decomp.orthonormality_residual
        assert basis.eigenvalues is decomp.eigenvalues
        assert basis.source_dim == 2

    def test_zero_component_gets_plus_one(self):
        decomp = self.decomposition_2x2((0.0, 1.0))
        basis = fix_sign_basis(decomp)
        assert basis.signs[0] == 1.0

    def test_signs_are_involutive(self):
        basis = basis_of(random_pd_correlation(4, 9))
        assert np.all(basis.signs**2 == 1.0)
        twice = basis.eigenvectors * basis.signs[:, None] * basis.signs[:, None]
        np.testing.assert_array_equal(twice, basis.eigenvectors)

    def test_degeneracy_flag(self):
        assert basis_of(np.eye(4)).top_degenerate
        assert not basis_of(uniform_correlation(4, 0.5)).top_degenerate

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
    def test_degeneracy_flag_is_scale_invariant(self, scale):
        # a gap of 1e-9 * lambda_1 clears the 1e-10 * N * lambda_1 tolerance at every scale
        assert not basis_of(np.diag([1.0, 1.0 - 1e-9]) * scale).top_degenerate
        assert basis_of(np.eye(2) * scale).top_degenerate


class TestFullModel:
    def test_two_by_two_equal_turnovers(self):
        tau = 0.37
        value = spectral_turnover_full(basis_of([[1, 0.6], [0.6, 1]]), [tau, tau])
        assert value == pytest.approx(1.6 * tau, abs=1e-12)

    def test_two_by_two_single_turnover(self):
        # hand evaluation with the closed-form 2x2 eigensystem:
        # (1/sqrt(2)) * (1.6 * tau/sqrt(2) + 0.4 * tau/sqrt(2)) = tau
        tau = 0.25
        value = spectral_turnover_full(basis_of([[1, 0.6], [0.6, 1]]), [tau, 0.0])
        assert value == pytest.approx(tau, abs=1e-12)

    def test_identity_standard_basis_value(self):
        # the model does not reduce to sum(T) off the large-N regime:
        # with standard-basis eigenvectors each component contributes |T_p|
        basis = basis_of(np.eye(4))
        value = spectral_turnover_full(basis, np.ones(4))
        assert value == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 10, 100])
    @pytest.mark.parametrize("rho", [0.0, 0.25, 0.9])
    def test_uniform_closed_form_analytic_basis(self, n, rho):
        basis = uniform_basis(n, rho)
        t = np.full(n, 1.0 / n)
        expected = (1.0 + (n - 1) * rho) / n * t.sum()
        assert spectral_turnover_full(basis, t) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 10, 100])
    @pytest.mark.parametrize("rho", [0.25, 0.9])
    def test_uniform_closed_form_solver_pipeline(self, n, rho):
        basis = basis_of(uniform_correlation(n, rho))
        t = np.full(n, 0.2 / n)
        expected = (1.0 + (n - 1) * rho) / n * t.sum()
        assert spectral_turnover_full(basis, t) == pytest.approx(expected, abs=1e-10)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spectral_turnover_full(basis_of(np.eye(3)), [1.0, 2.0])
        with pytest.raises(ValueError, match="^weighted turnovers must be a 1-D vector$"):
            spectral_turnover_full(basis_of(np.eye(3)), np.ones((3, 1)))

    def test_negative_turnover_rejected(self):
        with pytest.raises(ValueError):
            spectral_turnover_full(basis_of(np.eye(3)), [1.0, -0.1, 2.0])

    def test_covariance_basis_rejected(self):
        cov = np.diag([4.0, 9.0, 1.0])
        with pytest.raises(ValueError):
            spectral_turnover_full(basis_of(cov), np.ones(3))


class TestLargeNModel:
    def test_matches_full_model_for_uniform_equal_turnovers(self):
        basis = uniform_basis(12, 0.4)
        t = np.full(12, 1.0 / 12)
        full = spectral_turnover_full(basis, t)
        approx = spectral_turnover_large_n(basis, t)
        assert approx == pytest.approx(full, abs=1e-14)

    def test_uniform_four_alphas(self):
        tau = 0.25  # exactly representable so the x4 identity below is exact
        basis = basis_of(uniform_correlation(4, 0.5))
        t = np.full(4, tau / 4)
        assert spectral_turnover_large_n(basis, t) == pytest.approx(0.625 * tau, abs=1e-12)

    def test_triple_turnover_triples_result(self):
        basis = basis_of(uniform_correlation(4, 0.5))
        t = np.array([0.25, 0.5, 0.125, 0.0625])
        assert spectral_turnover_large_n(basis, 3.0 * t) == pytest.approx(
            3.0 * spectral_turnover_large_n(basis, t), rel=1e-15
        )


class TestRhoStar:
    def test_uniform_four_alphas(self):
        assert rho_star(basis_of(uniform_correlation(4, 0.5))) == pytest.approx(0.625, abs=1e-12)

    def test_two_by_two(self):
        assert rho_star(basis_of([[1, 0.6], [0.6, 1]])) == pytest.approx(0.8, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_nonnegative_on_generic_matrices(self, seed):
        assert rho_star(basis_of(random_pd_correlation(seed, 13))) >= 0.0


@pytest.mark.parametrize(
    "entries, degenerate",
    [(np.eye(5), True), (random_pd_correlation(4, 5), False)],
    ids=["identity", "generic"],
)
def test_the_basis_flag_is_the_one_report_of_a_degenerate_top(entries, degenerate):
    # filterwarnings = error is in force, so a warning from any call fails here
    basis = basis_of(entries)
    t = np.arange(1.0, 6.0) / 15.0
    report = turnover_report(basis, CorrelationMatrix(entries), t)
    assert basis.top_degenerate is degenerate
    assert rho_star(basis) == report["rho_star"]
    assert spectral_turnover_large_n(basis, t) == report["T_large_n"]
    assert any("degenerate-top" in note for note in report["warnings"]) is degenerate


class TestRhoPrime:
    """``psi_star``, ``rho_prime`` and ``rho_bar``, which ``rho_star_factored``
    computes in the sign-fixed basis, the one definition the report uses."""

    @staticmethod
    def mean_quantities(entries):
        relation = rho_star_factored(basis_of(entries), CorrelationMatrix(entries))
        return relation.psi_star, relation.rho_prime, relation.rho_bar

    def test_uniform(self):
        psi, prime, bar = self.mean_quantities(uniform_correlation(4, 0.5))
        assert psi == pytest.approx(2.5, abs=1e-12)
        assert prime == pytest.approx(0.625, abs=1e-12)
        assert bar == pytest.approx(0.5, abs=1e-12)

    def test_identity(self):
        assert self.mean_quantities(np.eye(5)) == (1.0, 0.2, 0.0)

    def test_least_squares_minimizer(self):
        entries = random_pd_correlation(6, 9)
        basis = basis_of(entries)
        psi = rho_star_factored(basis, CorrelationMatrix(entries)).psi_star
        row_sums = basis.reflect(CorrelationMatrix(entries)).sum(axis=1)

        def objective(value):
            return float(((row_sums - value) ** 2).sum())

        assert objective(psi + 0.01) > objective(psi)
        assert objective(psi - 0.01) > objective(psi)

    def test_single_series_rejected(self):
        with pytest.raises(ValueError, match="undefined for one series"):
            self.mean_quantities(np.eye(1))


class TestFactoredRelation:
    def test_uniform_gap_vanishes(self):
        corr = uniform_correlation(10, 0.3)
        relation = rho_star_factored(basis_of(corr), CorrelationMatrix(corr))
        assert relation.relative_gap <= 1e-12
        assert not relation.gap_is_absolute

    def test_exact_identity_on_three_by_three(self):
        relation = rho_star_factored(basis_of(THREE_BY_THREE), CorrelationMatrix(THREE_BY_THREE))
        assert relation.rho_prime == pytest.approx(relation.rho_prime_spectral, abs=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_identity_on_random_matrices(self, seed):
        corr = random_pd_correlation(seed, 40)
        relation = rho_star_factored(basis_of(corr), CorrelationMatrix(corr))
        assert relation.rho_prime == pytest.approx(relation.rho_prime_spectral, abs=1e-10)

    def test_one_factor_gap_small(self):
        rng = np.random.default_rng(20260810)
        corr = one_factor_correlation(rng.uniform(0.3, 0.9, 500))
        relation = rho_star_factored(basis_of(corr), CorrelationMatrix(corr))
        assert relation.relative_gap <= 0.05

    def test_mean_quantities_use_sign_fixed_matrix(self):
        corr = random_pd_correlation(15, 12)
        signs = np.where(np.random.default_rng(1).random(12) < 0.5, -1.0, 1.0)
        reflected = corr * np.outer(signs, signs)
        relation = rho_star_factored(basis_of(reflected), CorrelationMatrix(reflected))
        # identical to the unreflected run: the sign fix canonicalizes
        base = rho_star_factored(basis_of(corr), CorrelationMatrix(corr))
        assert relation.rho_prime == pytest.approx(base.rho_prime, abs=1e-10)
        assert relation.psi_star == pytest.approx(base.psi_star, abs=1e-10)
        assert relation.rho_bar == pytest.approx(base.rho_bar, abs=1e-10)
        assert relation.rho_star == pytest.approx(base.rho_star, abs=1e-10)

    def test_mismatched_matrix_rejected(self):
        with pytest.raises(ValueError):
            rho_star_factored(
                basis_of(THREE_BY_THREE), CorrelationMatrix(uniform_correlation(3, 0.7))
            )


class TestReflectionCovariance:
    @pytest.mark.parametrize("seed", range(5))
    def test_eigenvalues_and_rho_star_invariant(self, seed):
        corr = random_pd_correlation(seed, 15)
        rng = np.random.default_rng(seed + 100)
        signs = np.where(rng.random(15) < 0.5, -1.0, 1.0)
        reflected = corr * np.outer(signs, signs)
        base = basis_of(corr)
        other = basis_of(reflected)
        np.testing.assert_allclose(other.eigenvalues, base.eigenvalues, atol=1e-10)
        assert rho_star(other) == pytest.approx(rho_star(base), abs=1e-10)


class TestSignOptimality:
    @pytest.mark.parametrize("seed", range(20))
    def test_chosen_signs_maximize_leading_projection(self, seed):
        corr = random_pd_correlation(seed, 8)
        decomp = eigendecompose(CorrelationMatrix(corr))
        basis = fix_sign_basis(decomp)
        original = decomp.eigenvectors[:, 0]
        chosen = float(basis.signs @ original) ** 2
        best = max(
            float(np.dot(eta, original)) ** 2
            for eta in itertools.product((-1.0, 1.0), repeat=8)
        )
        assert chosen >= best * (1.0 - 1e-12)


class TestExactCalibration:
    def test_identity_gives_unit_coefficients(self):
        basis = basis_of(np.eye(4))
        calibration = calibrate_exact_B(basis)
        np.testing.assert_allclose(calibration.coefficients, 1.0, atol=1e-12)
        np.testing.assert_array_equal(np.abs(basis.eigenvectors), np.eye(4))
        assert not calibration.has_negative
        assert turnover_exact_b(basis, calibration, np.ones(4)) == pytest.approx(4.0)

    @pytest.mark.parametrize("rho", [0.3, -0.5, 0.9, 0.01])
    def test_two_by_two_is_singular(self, rho):
        with pytest.raises(CalibrationError):
            calibrate_exact_B(basis_of([[1.0, rho], [rho, 1.0]]))

    def test_three_by_three_solution_and_recovery(self):
        basis = basis_of(THREE_BY_THREE)
        calibration = calibrate_exact_B(basis)
        residual = np.abs(basis.eigenvectors) @ calibration.coefficients - 1.0
        assert np.abs(residual).max() <= 1e-8
        for series in range(3):
            tau = 0.7
            t = np.zeros(3)
            t[series] = tau
            assert turnover_exact_b(basis, calibration, t) == pytest.approx(tau, abs=1e-8)

    def test_generic_matrix_has_negative_coefficients(self):
        assert calibrate_exact_B(basis_of(THREE_BY_THREE)).has_negative

    @pytest.mark.parametrize(
        "patch, message",
        [
            ((np.linalg, "solve", _singular_solve), "absolute-eigenvector matrix is singular"),
            # the generic matrix's residual is a rounding error, which only a limit of 0 refuses
            ((turnover_module, "_CALIBRATION_RESIDUAL", 0.0), r"calibration residual \S+ exceeds 0\.0"),
        ],
        ids=["solve-fails", "residual-over-limit"],
    )
    def test_a_well_conditioned_matrix_can_still_be_refused(self, monkeypatch, patch, message):
        basis = basis_of(THREE_BY_THREE)
        monkeypatch.setattr(*patch)
        with pytest.raises(CalibrationError, match=f"^{message}$"):
            calibrate_exact_B(basis)


class TestTopPairBasis:
    """A basis that holds the top eigenpair alone, as ``conditioning._leading_pair``
    returns it: a quantity that needs every eigenpair refuses it."""

    N = 30
    ENTRIES = one_factor_correlation(np.random.default_rng(30).uniform(0.3, 0.9, N))

    @pytest.fixture
    def top_pair(self):
        basis = fix_sign_basis(conditioning._leading_pair(CorrelationMatrix(self.ENTRIES), None))
        assert basis.eigenvectors.shape == (self.N, 1)
        return basis

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda basis: spectral_turnover_full(basis, np.full(30, 1.0 / 30)),
            lambda basis: p1_share(basis, np.full(30, 1.0 / 30)),
            calibrate_exact_B,
        ],
        ids=["T_full", "p1_share", "calibration"],
    )
    def test_a_quantity_of_every_pair_is_refused(self, top_pair, evaluate):
        with pytest.raises(ValueError, match="^basis holds 1 of its 30 eigenpairs; this quantity needs all 30$"):
            evaluate(top_pair)

    def test_the_factored_relation_drops_only_the_spectral_sum(self, top_pair):
        corr = CorrelationMatrix(self.ENTRIES)
        full = rho_star_factored(basis_of(self.ENTRIES), corr)
        relation = rho_star_factored(top_pair, corr)
        assert math.isnan(relation.rho_prime_spectral)
        assert (relation.psi_star, relation.rho_prime, relation.rho_bar) == (
            full.psi_star, full.rho_prime, full.rho_bar
        )
        assert relation.rho_star == pytest.approx(full.rho_star, rel=1e-12)
        assert spectral_terms(top_pair, np.full(self.N, 1.0 / self.N)).shape == (1,)


class TestSimpleModels:
    def test_t2_arithmetic(self):
        assert turnover_t2(0.3, [0.1, 0.2, 0.3]) == pytest.approx(0.18, abs=1e-15)

    def test_t2_matches_large_n_for_uniform_inputs(self):
        basis = basis_of(uniform_correlation(4, 0.5))
        t = np.full(4, 0.25 * 0.25)  # tau = 0.25, w = 1/4
        star = rho_star(basis)
        assert turnover_t2(star, t) == pytest.approx(
            spectral_turnover_large_n(basis, t), abs=1e-12
        )
        assert turnover_t2(star, t) == pytest.approx(0.625 * 0.25, abs=1e-12)

    def test_t2_linearity(self):
        t = np.array([0.25, 0.5, 0.125])
        assert turnover_t2(0.4, 3.0 * t) == 3.0 * turnover_t2(0.4, t)

    def test_t2_rejects_negative_coefficient(self):
        with pytest.raises(ValueError):
            turnover_t2(-0.1, [0.1])

    def test_naive_arithmetic(self):
        inputs = TurnoverInputs([0.2, 0.4], [0.5, -0.5])
        assert naive_turnover(inputs) == pytest.approx(0.3, abs=1e-15)

    def test_naive_single_alpha(self):
        inputs = TurnoverInputs([0.2, 0.4], [0.0, 1.0])
        assert naive_turnover(inputs) == pytest.approx(0.4)

    def test_naive_uniform_turnover_is_tau(self):
        inputs = TurnoverInputs([0.3, 0.3, 0.3], [0.5, -0.25, 0.25])
        assert naive_turnover(inputs) == pytest.approx(0.3, abs=1e-12)

    def test_inputs_validation(self):
        with pytest.raises(ValueError):
            TurnoverInputs([0.1, -0.2], [0.5, 0.5])
        with pytest.raises(ValueError):
            TurnoverInputs([0.1, 0.2], [0.5, 0.6])
        shape = "^turnovers and weights must be 1-D and equally long$"
        with pytest.raises(ValueError, match=shape):
            TurnoverInputs([[0.1, 0.2]], [[0.5, 0.5]])
        with pytest.raises(ValueError, match=shape):
            TurnoverInputs([0.1, 0.2], [0.5, 0.25, 0.25])
        with pytest.raises(ValueError, match="^weights must be finite$"):
            TurnoverInputs([0.1, 0.2], [0.5, np.nan])


@settings(max_examples=60, deadline=None)
@given(
    exponent=st.integers(min_value=-9, max_value=9),
    seed=st.integers(0, 1_000),
)
def test_homogeneity_exact_for_power_of_two_scales(exponent, seed):
    # multiplying by a power of two is exact in binary floating point, so
    # T(zeta * t) == zeta * T(t) holds bitwise for every model
    zeta = 2.0**exponent
    rng = np.random.default_rng(seed)
    corr = random_pd_correlation(seed, 6)
    basis = basis_of(corr)
    t = rng.uniform(0.0, 1.0, 6)
    star = rho_star(basis)
    assert spectral_turnover_full(basis, zeta * t) == zeta * spectral_turnover_full(basis, t)
    assert spectral_turnover_large_n(basis, zeta * t) == zeta * spectral_turnover_large_n(basis, t)
    assert turnover_t2(star, zeta * t) == zeta * turnover_t2(star, t)
    weights = np.full(6, 1.0 / 6)
    tau = t + 0.5
    assert naive_turnover(TurnoverInputs(zeta * tau, weights)) == zeta * naive_turnover(
        TurnoverInputs(tau, weights)
    )


@settings(max_examples=40, deadline=None)
@given(
    zeta=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False),
    seed=st.integers(0, 1_000),
)
def test_homogeneity_tight_for_arbitrary_scales(zeta, seed):
    rng = np.random.default_rng(seed)
    corr = random_pd_correlation(seed, 5)
    basis = basis_of(corr)
    t = rng.uniform(0.0, 1.0, 5)
    for model in (
        lambda v: spectral_turnover_full(basis, v),
        lambda v: spectral_turnover_large_n(basis, v),
        lambda v: turnover_t2(0.4, v),
    ):
        assert model(zeta * t) == pytest.approx(zeta * model(t), rel=1e-12, abs=1e-300)


class TestReport:
    def test_fields_and_reproducibility(self):
        corr = random_pd_correlation(8, 20)
        basis = basis_of(corr)
        t = np.full(20, 1.0 / 20)
        report = turnover_report(basis, CorrelationMatrix(corr), t)
        n = basis.source_dim
        recomputed = float(
            basis.eigenvalues[0] * (basis.first_eigenvector @ t) / math.sqrt(n)
        )
        assert report["T_large_n"] == pytest.approx(recomputed, abs=1e-12)
        assert report["T_full"] >= 0
        assert 0 <= report["p1_share"] <= 1
        assert report["rho_star"] >= 0
        assert report["rho_star_prime_max"] == max(report["rho_star"], report["rho_prime"])
        assert set(report) == {
            "T_full", "T_large_n", "T_t2", "rho_star", "rho_prime", "psi_star",
            "rho_bar", "rho_one", "rho_star_factored", "rho_star_prime_max",
            "p1_share", "normalization", "warnings",
        }
        assert report["warnings"] == []
        assert report == turnover_report(basis, CorrelationMatrix(corr), t)

    def test_share_and_full_model_come_from_the_model_functions(self):
        corr = random_pd_correlation(9, 12)
        basis = basis_of(corr)
        t = np.random.default_rng(1).uniform(0.0, 1.0, 12)
        report = turnover_report(basis, CorrelationMatrix(corr), t)
        assert report["T_full"] == spectral_turnover_full(basis, t)
        assert report["p1_share"] == p1_share(basis, t)

    def test_requires_a_correlation_basis(self):
        covariance = 2.0 * THREE_BY_THREE
        with pytest.raises(ValueError, match="correlation"):
            turnover_report(
                basis_of(covariance), CovarianceMatrix(covariance), np.full(3, 1.0 / 3)
            )

    def test_share_of_a_non_positive_total_is_nan(self):
        negative = SpectralDecomposition(np.array([-1.0, -2.0]), np.eye(2), 1.0, 0.0)
        assert math.isnan(p1_share(fix_sign_basis(negative), [0.5, 0.5]))

    def test_degenerate_top_is_recorded_not_raised(self):
        basis = basis_of(np.eye(6))
        report = turnover_report(basis, CorrelationMatrix(np.eye(6)), np.full(6, 1.0 / 6))
        assert any("degenerate-top" in note for note in report["warnings"])

    def test_degenerate_top_changes_no_warning_filter(self, fixed_warning_filters):
        basis = basis_of(np.eye(6))
        with fixed_warning_filters():
            report = turnover_report(basis, CorrelationMatrix(np.eye(6)), np.full(6, 1.0 / 6))
            relation = rho_star_factored(basis, CorrelationMatrix(np.eye(6)))
        assert any("degenerate-top" in note for note in report["warnings"])
        assert relation.rho_star == report["rho_star"]
