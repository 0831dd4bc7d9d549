"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with its runtime.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines.
"""

import itertools
import math
import time

import numpy as np
import pytest

from turnover_spectra import (
    COMPLETE_CASES,
    PAIRWISE_COMPLETE,
    CalibrationError,
    CorrelationMatrix,
    SimConfig,
    SpectralDecomposition,
    TimeSeriesPanel,
    TurnoverInputs,
    calibrate_exact_B,
    default_floor,
    eigendecompose,
    fix_sign_basis,
    gen_one_factor_panel,
    naive_turnover,
    one_factor_correlation,
    one_factor_source,
    p1_share,
    rho_star,
    rho_star_factored,
    rj_repair,
    sample_moments,
    simulate_crossing_paths,
    spectral_turnover_full,
    spectral_turnover_large_n,
    sweep_rho_star,
    turnover_exact_b,
    turnover_t2,
)

MASTER_SEED = 20260810


class Criterion:
    """Times a criterion body and prints one PASS/FAIL summary line."""

    def __init__(self, label: str, budget_seconds: float | None = None):
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.label}: {verdict} ({elapsed:.2f}s)")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"{self.label} took {elapsed:.2f}s, budget {self.budget}s"
            )
        return False


def uniform_correlation(n: int, rho: float) -> CorrelationMatrix:
    return CorrelationMatrix((1.0 - rho) * np.eye(n) + rho * np.ones((n, n)))


def uniform_basis(n: int, rho: float):
    """Analytic uniform-matrix eigensystem: uniform leading vector plus the
    Helmert completion. Well defined for every rho in [0, 1), including the
    fully degenerate rho = 0 point where a numerical solver's basis choice
    is arbitrary."""
    vectors = np.zeros((n, n))
    vectors[:, 0] = 1.0 / math.sqrt(n)
    for p in range(1, n):
        vectors[:p, p] = 1.0 / math.sqrt(p * (p + 1))
        vectors[p, p] = -p / math.sqrt(p * (p + 1))
    eigenvalues = np.concatenate([[1.0 + (n - 1) * rho], np.full(n - 1, 1.0 - rho)])
    return fix_sign_basis(SpectralDecomposition(eigenvalues, vectors, n * rho, 0.0))


def random_pd_correlation(seed: int, n: int) -> CorrelationMatrix:
    rng = np.random.default_rng(seed)
    loadings = rng.standard_normal((n, max(2, n // 2)))
    cov = loadings @ loadings.T + np.diag(rng.uniform(0.5, 1.5, n))
    vols = np.sqrt(np.diag(cov))
    corr = cov / np.outer(vols, vols)
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(corr)


def masked_panel(seed: int, n: int = 50, t: int = 40, missing: float = 0.45) -> TimeSeriesPanel:
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, t))
    mask = rng.random((n, t)) > missing
    mask[:, :2] = True  # keep every series and pair estimable
    return TimeSeriesPanel(tuple(f"s{i}" for i in range(n)), np.where(mask, values, np.nan))


def test_c01_uniform_correlation_exactness():
    with Criterion("C1 uniform-correlation exactness", budget_seconds=1.0):
        for n in (2, 10, 100):
            t = np.full(n, 1.0 / n)
            for rho in (0.0, 0.25, 0.5, 0.9):
                expected = (1.0 + (n - 1) * rho) / n * t.sum()
                # analytic eigensystem covers the whole grid, including the
                # degenerate rho = 0 matrix
                value = spectral_turnover_full(uniform_basis(n, rho), t)
                assert abs(value - expected) <= 1e-10
                if rho > 0.0:
                    # generic solver pipeline agrees wherever the leading
                    # eigenvalue is isolated
                    basis = fix_sign_basis(eigendecompose(uniform_correlation(n, rho)))
                    assert abs(spectral_turnover_full(basis, t) - expected) <= 1e-10


def test_c02_repair_contract_on_non_psd_ensemble():
    with Criterion("C2 repair contract (100 non-PSD pairwise, N=50)", budget_seconds=10.0):
        repaired_count = 0
        seed = 0
        while repaired_count < 100:
            assert seed < 500, "could not assemble 100 non-PSD matrices"
            corr = sample_moments(masked_panel(seed), PAIRWISE_COMPLETE)
            seed += 1
            if np.linalg.eigvalsh(corr.entries).min() >= -1e-8:
                continue
            repaired_count += 1
            floor = default_floor(corr)
            repaired = rj_repair(corr, floor)
            assert np.linalg.eigvalsh(repaired.entries).min() >= floor / 2
            assert np.abs(np.diag(repaired.entries) - 1.0).max() <= 1e-12
            again = rj_repair(repaired, floor)
            assert np.abs(again.entries - repaired.entries).max() <= 1e-10


def test_c03_mean_correlation_spectral_identity():
    with Criterion("C3 mean-correlation spectral identity (50 random PD, N<=200)"):
        rng = np.random.default_rng(MASTER_SEED)
        for _ in range(50):
            n = int(rng.integers(5, 201))
            corr = random_pd_correlation(int(rng.integers(0, 2**32)), n)
            relation = rho_star_factored(fix_sign_basis(eigendecompose(corr)), corr)
            assert abs(relation.rho_prime - relation.rho_prime_spectral) <= 1e-10


def test_c04_factored_relation_one_factor():
    with Criterion("C4 factored relation (one-factor N=500)", budget_seconds=30.0):
        rng = np.random.default_rng(MASTER_SEED)
        corr = CorrelationMatrix(one_factor_correlation(rng.uniform(0.3, 0.9, 500)))
        relation = rho_star_factored(fix_sign_basis(eigendecompose(corr)), corr)
        assert relation.relative_gap <= 0.05


def test_c05_large_n_suppression():
    with Criterion("C5 large-N suppression of non-leading components", budget_seconds=3.0):
        # panel aspect ratio held fixed (M = 10 N) so the decay isolates the
        # pure-N scaling; the tail share then shrinks like 1/N
        tail = {}
        for n in (50, 200, 800):
            config = SimConfig(n, 10 * n, 1, 0.25, MASTER_SEED, 1)
            corr = sample_moments(gen_one_factor_panel(config), COMPLETE_CASES)
            basis = fix_sign_basis(eigendecompose(corr))
            tail[n] = 1.0 - p1_share(basis, np.full(n, 1.0 / n))
        assert tail[50] > tail[200] > tail[800] > 0.0
        assert 2.0 <= tail[50] / tail[200] <= 8.0
        assert 2.0 <= tail[200] / tail[800] <= 8.0


def test_c06_sign_basis_leading_projection_optimality():
    with Criterion("C6 sign-basis optimality (exhaustive, N=8)", budget_seconds=5.0):
        sign_vectors = np.array(list(itertools.product((-1.0, 1.0), repeat=8)))
        for seed in range(20):
            decomp = eigendecompose(random_pd_correlation(seed, 8))
            basis = fix_sign_basis(decomp)
            original = decomp.eigenvectors[:, 0]
            chosen = float(basis.signs @ original) ** 2
            best = float(((sign_vectors @ original) ** 2).max())
            assert chosen >= best * (1.0 - 1e-12)


def test_c07_exact_calibration_recovers_single_alpha():
    with Criterion("C7 single-alpha calibration (20 random PD, N=5..30)"):
        rng = np.random.default_rng(MASTER_SEED)
        solved = 0
        attempts = 0
        while solved < 20:
            assert attempts < 200, "could not assemble 20 well-conditioned cases"
            n = int(rng.integers(5, 31))
            corr = random_pd_correlation(int(rng.integers(0, 2**32)), n)
            attempts += 1
            basis = fix_sign_basis(eigendecompose(corr))
            try:
                calibration = calibrate_exact_B(basis)
            except CalibrationError:
                continue
            solved += 1
            for series in range(n):
                tau = 0.37
                t = np.zeros(n)
                t[series] = tau
                assert abs(turnover_exact_b(basis, calibration, t) - tau) <= 1e-8
        # every 2x2 correlation with nonzero off-diagonal is unsolvable
        for rho in (-0.9, -0.3, 0.1, 0.5, 0.95):
            basis = fix_sign_basis(eigendecompose(CorrelationMatrix([[1.0, rho], [rho, 1.0]])))
            with pytest.raises(CalibrationError):
                calibrate_exact_B(basis)


def test_c08_homogeneity_of_every_model():
    with Criterion("C8 homogeneity T(zeta T) = zeta T(T)"):
        rng = np.random.default_rng(MASTER_SEED)
        corr = random_pd_correlation(7, 12)
        basis = fix_sign_basis(eigendecompose(corr))
        star = rho_star(basis)
        weights = np.full(12, 1.0 / 12)
        for _ in range(200):
            t = rng.uniform(0.0, 1.0, 12)
            tau = t + 0.25
            # powers of two scale exactly in binary floating point, so the
            # mathematical identity is checked bitwise
            zeta = float(2.0 ** rng.integers(-9, 10))
            assert spectral_turnover_full(basis, zeta * t) == zeta * spectral_turnover_full(basis, t)
            assert spectral_turnover_large_n(basis, zeta * t) == zeta * spectral_turnover_large_n(basis, t)
            assert turnover_t2(star, zeta * t) == zeta * turnover_t2(star, t)
            assert naive_turnover(TurnoverInputs(zeta * tau, weights)) == zeta * naive_turnover(
                TurnoverInputs(tau, weights)
            )
            # arbitrary positive scales agree to floating-point accuracy
            generic = float(rng.uniform(1e-3, 1e3))
            for model in (
                lambda v: spectral_turnover_full(basis, v),
                lambda v: spectral_turnover_large_n(basis, v),
                lambda v: turnover_t2(star, v),
            ):
                assert math.isclose(
                    model(generic * t), generic * model(t), rel_tol=1e-12
                )
            assert math.isclose(
                naive_turnover(TurnoverInputs(generic * tau, weights)),
                generic * naive_turnover(TurnoverInputs(tau, weights)),
                rel_tol=1e-12,
            )


def test_c09_sweep_slope_recovers_uniform_correlation():
    with Criterion("C9 sweep slope (rho=0.25, grid 50..400, M=5000)", budget_seconds=120.0):
        source = one_factor_source(0.25, 5000)
        result = sweep_rho_star([50, 100, 200, 400], source, seed=MASTER_SEED)
        assert result.errors == ()
        assert result.degenerate_top == (False,) * 4  # a one-factor top is isolated
        assert abs(result.slope_no_intercept - 0.25) <= 0.025
        assert result.f_statistic is not None and result.f_statistic > 1e3
        # a correlation-free population stays far below the correlated slope
        null = sweep_rho_star(
            [50, 100, 200, 400], one_factor_source(0.0, 5000), seed=MASTER_SEED
        )
        assert null.slope_no_intercept < 0.5 * result.slope_no_intercept


def test_c10_proprietary_numbers_substituted_by_simulator_properties():
    with Criterion("C10 simulator substitutes for non-reproducible dataset values"):
        # The published dataset coefficients cannot be recomputed here; the
        # standing substitutes are criteria 3, 4 and 9 plus these simulator
        # properties: crossing falls as correlation rises, and the netted
        # fraction converges to a positive limit as N grows.
        low = simulate_crossing_paths(SimConfig(40, 2, 6, 0.2, MASTER_SEED, 256))
        high = simulate_crossing_paths(SimConfig(40, 2, 6, 0.8, MASTER_SEED, 256))
        assert high.mean > low.mean
        rho = 0.25
        means = []
        for n in (10, 100, 1000):
            result = simulate_crossing_paths(SimConfig(n, 2, 4, rho, MASTER_SEED, 2000))
            means.append(result.mean)
        assert means[0] > means[1] > means[2] > 0.1 * math.sqrt(rho)
