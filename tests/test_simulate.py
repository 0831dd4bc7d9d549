"""One-factor generators and matrix sources, trade-netting simulation,
regression, and sweeps."""

import io
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from turnover_spectra import (
    COMPLETE_CASES,
    CorrelationMatrix,
    InvalidMatrixError,
    PAIRWISE_COMPLETE,
    SimConfig,
    SimResult,
    TimeSeriesPanel,
    UndefinedRegressorError,
    default_floor,
    eigendecompose,
    fix_sign_basis,
    gen_one_factor_panel,
    gen_trade_matrix,
    no_intercept_regression,
    one_factor_correlation,
    one_factor_source,
    panel_source,
    rho_star,
    rj_repair,
    sample_moments,
    simulate_crossing,
    simulate_crossing_paths,
    sweep_rho_star,
    sweep_to_csv,
)
from turnover_spectra import simulate


def off_diagonal(matrix: np.ndarray) -> np.ndarray:
    return matrix[~np.eye(matrix.shape[0], dtype=bool)]


class TestOneFactorPanel:
    def test_independent_series_have_small_sample_correlations(self):
        config = SimConfig(20, 10_000, target_correlation=0.0, master_seed=7)
        corr = sample_moments(gen_one_factor_panel(config), COMPLETE_CASES)
        # 4-sigma bound for M = 10_000; holds for this seed
        assert np.abs(off_diagonal(corr.entries)).max() <= 4.0 / math.sqrt(10_000)

    def test_full_correlation_makes_identical_series(self):
        config = SimConfig(5, 50, target_correlation=1.0, master_seed=3)
        panel = gen_one_factor_panel(config)
        np.testing.assert_allclose(
            panel.values, np.broadcast_to(panel.values[0], panel.values.shape), atol=0
        )
        corr = sample_moments(panel, COMPLETE_CASES)
        np.testing.assert_allclose(corr.entries, 1.0, atol=1e-12)

    def test_half_correlation_sample_mean(self):
        config = SimConfig(100, 5000, target_correlation=0.5, master_seed=20260810)
        corr = sample_moments(gen_one_factor_panel(config), COMPLETE_CASES)
        mean = float(off_diagonal(corr.entries).mean())
        assert abs(mean - 0.5) <= 0.03
        # seeded value frozen for regression protection
        assert mean == pytest.approx(0.500373226438785, abs=1e-12)

    def test_deterministic_under_seed(self):
        config = SimConfig(8, 64, target_correlation=0.3, master_seed=99)
        first = gen_one_factor_panel(config)
        second = gen_one_factor_panel(config)
        np.testing.assert_array_equal(first.values, second.values)
        other = gen_one_factor_panel(SimConfig(8, 64, target_correlation=0.3, master_seed=100))
        assert not np.array_equal(first.values, other.values)

    def test_loading_vector_supported(self):
        loadings = np.array([0.2, 0.5, 0.9, 0.0])
        config = SimConfig(4, 30_000, target_correlation=tuple(loadings), master_seed=5)
        corr = sample_moments(gen_one_factor_panel(config), COMPLETE_CASES)
        expected = one_factor_correlation(loadings)
        assert np.abs(corr.entries - expected).max() <= 0.05

    @pytest.mark.parametrize("target", [0.3, (0.2, 0.5, 0.9, 0.0, 1.0)])
    def test_matches_two_product_formula_bit_for_bit(self, target):
        config = SimConfig(5, 200, target_correlation=target, master_seed=41)
        rng = np.random.default_rng(np.random.SeedSequence([41]))
        common = rng.standard_normal(200)
        idiosyncratic = rng.standard_normal((5, 200))
        b = config.loadings()
        expected = b[:, None] * common[None, :] + np.sqrt(1.0 - b**2)[:, None] * idiosyncratic
        values = gen_one_factor_panel(config).values
        assert values.tobytes() == expected.tobytes()

    def test_the_draw_holds_one_n_by_m_array(self):
        # the panel keeps the drawn array, locked, instead of copying it
        n, m = 200, 4000
        tracemalloc.start()
        try:
            panel = gen_one_factor_panel(SimConfig(n, m, target_correlation=0.3, master_seed=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * n * m * 8
        assert TimeSeriesPanel(panel.series_ids, panel.values).values is panel.values

    def test_invalid_correlation_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(4, 10, target_correlation=1.5)
        with pytest.raises(ValueError):
            SimConfig(4, 10, target_correlation=-0.1)
        for loadings in ([0.5], [[0.3, 0.6]]):
            with pytest.raises(ValueError, match="^loadings must be a vector of length >= 2$"):
                one_factor_correlation(loadings)

    def test_population_matrix_shape(self):
        corr = one_factor_correlation([0.3, 0.6, 0.9])
        np.testing.assert_array_equal(np.diag(corr), 1.0)
        assert corr[0, 1] == pytest.approx(0.18)
        assert np.linalg.eigvalsh(corr).min() > 0


class TestSimulateCrossing:
    def test_perfect_offset(self):
        result = simulate_crossing([[+1.0, -0.5], [-1.0, +0.5]])
        assert result.gross_traded == 3.0
        assert result.netted_traded == 0.0
        assert result.crossing_ratio == 0.0

    def test_identical_trades_never_cross(self):
        result = simulate_crossing([[1.0, 1.0], [1.0, 1.0]])
        assert result.gross_traded == 4.0
        assert result.netted_traded == 4.0
        assert result.crossing_ratio == 1.0

    def test_partial_netting(self):
        result = simulate_crossing([[2.0, 0.0], [-1.0, 1.0]])
        assert result.gross_traded == 4.0
        assert result.netted_traded == 2.0
        assert result.crossing_ratio == 0.5

    def test_zero_gross_flagged(self):
        result = simulate_crossing(np.zeros((3, 2)))
        assert result.crossing_ratio == 1.0
        assert result.zero_gross_paths == 1

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            simulate_crossing([[np.nan, 1.0], [0.0, 2.0]])

    @pytest.mark.parametrize("trades", [[1.0, -1.0], np.ones((2, 2, 2))], ids=["vector", "3-D"])
    def test_trades_that_are_not_a_matrix_are_refused(self, trades):
        with pytest.raises(ValueError, match=r"^trades must be a 2-D matrix \(alphas x instruments\)$"):
            simulate_crossing(trades)

    @settings(max_examples=80, deadline=None)
    @given(
        trades=arrays(
            float,
            st.tuples(st.integers(1, 6), st.integers(1, 5)),
            elements=st.floats(-5, 5, allow_nan=False),
        )
    )
    def test_netting_never_exceeds_gross(self, trades):
        result = simulate_crossing(trades)
        assert result.netted_traded <= result.gross_traded + 1e-12
        single_signed = all(
            (trades[:, k] >= 0).all() or (trades[:, k] <= 0).all()
            for k in range(trades.shape[1])
        )
        if single_signed:
            assert result.netted_traded == pytest.approx(result.gross_traded, abs=1e-12)
        else:
            # offsetting flow per column; only assert a strict drop when the
            # cancelled mass is large enough to register in floating point
            positives = np.where(trades > 0, trades, 0.0).sum(axis=0)
            negatives = np.where(trades < 0, -trades, 0.0).sum(axis=0)
            cancelled = np.minimum(positives, negatives).sum()
            if cancelled > 1e-9 * max(result.gross_traded, 1.0):
                assert result.netted_traded < result.gross_traded


class TestCrossingPaths:
    def test_bitwise_deterministic(self):
        config = SimConfig(10, 2, 3, 0.4, master_seed=11, n_paths=32)
        first = simulate_crossing_paths(config)
        second = simulate_crossing_paths(config)
        assert first == second

    def test_more_correlation_less_crossing(self):
        low = simulate_crossing_paths(SimConfig(40, 2, 6, 0.2, 123, 256))
        high = simulate_crossing_paths(SimConfig(40, 2, 6, 0.8, 123, 256))
        assert high.mean > low.mean

    def test_nonvanishing_limit(self):
        rho = 0.25
        means = []
        for n in (10, 100, 1000):
            result = simulate_crossing_paths(SimConfig(n, 2, 4, rho, 20260810, 2000))
            means.append(result.mean)
        assert means[0] > means[1] > means[2]
        assert means[2] > 0.1 * math.sqrt(rho)

    def test_ratio_fields_consistent(self):
        result = simulate_crossing_paths(SimConfig(6, 2, 2, 0.5, 4, 17))
        assert len(result.per_path_ratios) == 17
        assert 0.0 <= result.crossing_ratio <= 1.0
        assert result.mean == pytest.approx(np.mean(result.per_path_ratios))
        assert result.std_error > 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        n=st.integers(2, 30),
        instruments=st.integers(1, 6),
        paths=st.integers(1, 12),
        data=st.data(),
    )
    def test_paths_equal_one_simulate_crossing_per_path(self, seed, n, instruments, paths, data):
        scalar = st.floats(0.0, 1.0)
        target = data.draw(scalar | st.tuples(*[scalar] * n), label="target_correlation")
        config = SimConfig(n, 2, instruments, target, seed, paths)
        per_path = [
            simulate_crossing(gen_trade_matrix(config, simulate._rng(seed, p))) for p in range(paths)
        ]
        ratios = np.array([r.crossing_ratio for r in per_path])
        gross = float(np.sum([r.gross_traded for r in per_path]))
        netted = float(np.sum([r.netted_traded for r in per_path]))
        std_error = float(ratios.std(ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0
        expected = SimResult(
            gross, netted, netted / gross if gross > 0 else 1.0, tuple(ratios),
            float(ratios.mean()), std_error, sum(r.zero_gross_paths for r in per_path),
        )
        result = simulate_crossing_paths(config)
        assert result == expected
        assert repr(result) == repr(expected)

    def test_trade_matrix_shape(self):
        config = SimConfig(7, 2, 5, 0.3, master_seed=1)
        trades = gen_trade_matrix(config, np.random.default_rng(0))
        assert trades.shape == (7, 5)
        assert np.isfinite(trades).all()

    @pytest.mark.parametrize("target", [0.3, (0.2, 0.5, 0.9, 0.0, 1.0)], ids=["scalar", "vector"])
    def test_trades_match_their_formula_bit_for_bit(self, target):
        # path 4's stream: the signals' two periods, then the exposures
        config = SimConfig(5, 2, 3, target, master_seed=17, n_paths=8)
        rng = np.random.default_rng(np.random.SeedSequence([17, 4]))
        common = rng.standard_normal(2)
        idiosyncratic = rng.standard_normal((5, 2))
        exposure = rng.uniform(0.5, 1.5, size=(5, 3))
        b = config.loadings()
        signal = np.multiply.outer(b, common) + np.sqrt(1.0 - b**2)[:, None] * idiosyncratic
        expected = exposure / 3 * (signal[:, 0] - signal[:, 1])[:, None]
        trades = gen_trade_matrix(config, simulate._rng(17, 4))
        assert trades.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_periods", [3, 500])
    def test_a_trade_needs_exactly_two_signal_periods(self, monkeypatch, n_periods):
        config = SimConfig(10, n_periods, 3, 0.4, master_seed=11, n_paths=8)
        message = (
            "^a trade is the change between two signal periods, so n_periods must be 2, "
            f"got {n_periods}$"
        )
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            gen_trade_matrix(config, rng)
        assert rng.bit_generator.state == state  # refused before any draw
        netted = []
        monkeypatch.setattr(simulate, "_gross_and_netted", netted.append)
        with pytest.raises(ValueError, match=message):
            simulate_crossing_paths(config)
        assert netted == []  # on the first path, before any netting


class TestNoInterceptRegression:
    def test_exact_fit_reports_infinite_f(self):
        slope, f_stat = no_intercept_regression([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        assert slope == 2.0
        assert math.isinf(f_stat)

    def test_near_fit_matches_least_squares_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([2.0, 4.0, 6.1])
        slope, f_stat = no_intercept_regression(x, y)
        oracle_slope = float(np.linalg.lstsq(x[:, None], y, rcond=None)[0][0])
        assert slope == pytest.approx(oracle_slope, rel=1e-12)
        fitted = oracle_slope * x
        oracle_f = float((fitted @ fitted) / (((y - fitted) ** 2).sum() / 2))
        assert f_stat == pytest.approx(oracle_f, rel=1e-9)
        assert f_stat == pytest.approx(3.2e4, rel=0.02)

    def test_orthogonal_target_gives_zero(self):
        slope, f_stat = no_intercept_regression([1.0, -1.0], [1.0, 1.0])
        assert slope == 0.0
        assert f_stat == 0.0

    def test_zero_regressor_rejected(self):
        with pytest.raises(UndefinedRegressorError):
            no_intercept_regression([0.0, 0.0], [1.0, 2.0])

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            no_intercept_regression([1.0], [2.0])

    @pytest.mark.parametrize(
        "x, y, message",
        [
            ([[1.0, 2.0]], [[2.0, 4.0]], "^x and y must be 1-D vectors of equal length$"),
            ([1.0, 2.0], [2.0, 4.0, 6.0], "^x and y must be 1-D vectors of equal length$"),
            ([1.0, np.nan], [2.0, 4.0], "^regression inputs must be finite$"),
            ([1.0, 2.0], [2.0, np.inf], "^regression inputs must be finite$"),
        ],
        ids=["2-D", "unequal-lengths", "nan-x", "inf-y"],
    )
    def test_malformed_inputs_are_refused(self, x, y, message):
        with pytest.raises(ValueError, match=message):
            no_intercept_regression(x, y)


class TestSweep:
    @pytest.mark.parametrize("floor", [0.0, -1.0, math.nan, math.inf])
    def test_options_refuse_a_floor_that_is_not_positive_and_finite(self, floor):
        calls = []
        with pytest.raises(ValueError, match="floor must be positive and finite"):
            sweep_rho_star([10, 20], lambda n, seed: calls.append(n), floor=floor)
        assert calls == []

    @pytest.mark.parametrize("floor", [np.nextafter(1.0, 2.0), 2.0])
    def test_a_floor_above_1_is_refused_before_any_panel(self, floor):
        # every sweep matrix is a correlation, whose mean diagonal is 1, so no
        # repair can meet such a floor
        calls = []
        with pytest.raises(InvalidMatrixError, match="exceeds the mean diagonal 1.0"):
            sweep_rho_star([10, 20], lambda n, seed: calls.append(n), floor=floor)
        assert calls == []

    def test_a_floor_without_repair_is_refused_before_any_panel(self):
        calls = []
        with pytest.raises(ValueError, match="a floor applies only with repair"):
            sweep_rho_star([10, 20], lambda n, seed: calls.append(n), repair=False, floor=0.5)
        assert calls == []

    def test_the_generator_runs_in_the_caller_once_per_n_in_grid_order(self):
        calls = []

        def logged(n_alphas, seed):
            calls.append((os.getpid(), n_alphas))
            return gen_one_factor_panel(SimConfig(n_alphas, 300, 1, 0.3, seed))

        assert sweep_rho_star([10, 20, 40, 80], panel_source(logged), seed=3).errors == ()
        assert calls == [(os.getpid(), n) for n in (10, 20, 40, 80)]

    def test_a_ragged_panel_is_estimated_from_complete_cases(self):
        panels = []

        def ragged(n_alphas, seed):
            panel = gen_one_factor_panel(SimConfig(n_alphas, 400, 1, 0.3, seed))
            values = panel.values.copy()  # the panel's own values are read-only
            values[np.arange(n_alphas), 7 * np.arange(n_alphas)] = np.nan  # a cell per series
            panels.append(TimeSeriesPanel(panel.series_ids, values))
            return panels[-1]

        result = sweep_rho_star([6, 12], panel_source(ragged), seed=4)
        assert result.errors == ()
        # the generator is called once per N, in grid order
        assert [panel.n_series for panel in panels] == [6, 12]
        for value, panel in zip(result.rho_stars, panels):
            complete = full_path_point(sample_moments(panel, COMPLETE_CASES), True, None)
            pairwise = full_path_point(sample_moments(panel, PAIRWISE_COMPLETE), True, None)
            assert value == pytest.approx(complete, rel=1e-12)
            assert value != pytest.approx(pairwise, rel=1e-6)

    def test_a_source_returning_a_panel_raises_type_error(self):
        def panels(n_alphas, seed):
            return gen_one_factor_panel(SimConfig(n_alphas, 50, 1, 0.3, seed))

        with pytest.raises(TypeError, match="must return a CorrelationMatrix, got TimeSeriesPanel"):
            sweep_rho_star([10, 20], panels, seed=3)

    def test_options_after_the_generator_are_keyword_only(self):
        with pytest.raises(TypeError):
            sweep_rho_star([10, 20], one_factor_source(0.3, 200), 5)

    def test_small_sweep_smoke(self):
        result = sweep_rho_star([10, 20], one_factor_source(0.3, 400), seed=5)
        assert result.grid == (10, 20)
        assert result.errors == ()
        assert all(math.isfinite(v) for v in result.rho_stars)
        assert all(abs(r) < 1.0 for r in result.residuals)
        assert result.f_statistic is None or result.f_statistic >= 0

    def test_deterministic(self):
        source = one_factor_source(0.3, 300)
        first = sweep_rho_star([10, 20, 40], source, seed=9)
        second = sweep_rho_star([10, 20, 40], source, seed=9)
        assert first == second

    def test_degenerate_top_changes_no_warning_filter(self, fixed_warning_filters):
        # rows of a Hadamard matrix: zero-mean, orthogonal series whose sample
        # correlation is exactly the identity, a fully degenerate spectrum
        hadamard = np.array([[1.0, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])

        def orthogonal(n_alphas, seed):
            ids = tuple(f"s{i}" for i in range(n_alphas))
            return TimeSeriesPanel(ids, hadamard[:n_alphas])

        with fixed_warning_filters():
            result = sweep_rho_star([2, 3], panel_source(orthogonal), seed=0)
        assert result.solvers == ("full", "full") and result.errors == ()
        assert np.isfinite(result.rho_stars).all()  # values of an arbitrary basis
        assert result.degenerate_top == (True, True)

    def test_single_grid_point_slope_without_f(self):
        result = sweep_rho_star([16], one_factor_source(0.4, 300), seed=2)
        assert result.f_statistic is None
        assert result.slope_no_intercept == pytest.approx(result.rho_stars[0])

    def test_generator_failure_yields_partial_result(self):
        def flaky(n_alphas, seed):
            if n_alphas == 20:
                raise RuntimeError("synthetic failure")
            return one_factor_source(0.3, 300)(n_alphas, seed)

        result = sweep_rho_star([10, 20, 40], flaky, seed=3)
        assert len(result.errors) == 1
        assert "N=20" in result.errors[0]
        assert math.isnan(result.rho_stars[1])
        assert math.isfinite(result.slope_no_intercept)

    def test_points_record_their_solver(self):
        def flaky(n_alphas, seed):
            if n_alphas == 20:
                raise RuntimeError("synthetic failure")
            return one_factor_source(0.3, 300)(n_alphas, seed)

        result = sweep_rho_star([10, 20, 40], flaky, seed=3)
        assert result.solvers == ("leading-pair", "failed", "leading-pair")
        assert result.degenerate_top == (False, False, False)  # a failed point included

    def test_non_package_errors_in_a_point_propagate(self, monkeypatch):
        def broken(corr, floor):
            raise TypeError("a bug, not a numeric failure")

        monkeypatch.setattr(simulate, "_leading_pair", broken)
        with pytest.raises(TypeError, match="a bug"):
            sweep_rho_star([10, 20], one_factor_source(0.3, 300), seed=3)

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, ValueError, InvalidMatrixError])
    def test_numeric_errors_in_a_point_leave_a_nan_point(self, monkeypatch, error):
        def failing(corr, floor):
            if corr.n == 20:
                raise error("synthetic numeric failure")
            return None

        monkeypatch.setattr(simulate, "_leading_pair", failing)
        result = sweep_rho_star([10, 20, 40], one_factor_source(0.3, 300), seed=3)
        assert result.errors == ("N=20: synthetic numeric failure",)
        assert math.isnan(result.rho_stars[1])
        assert result.solvers == ("full", "failed", "full")

    def test_a_floor_too_small_to_resolve_fails_each_point_alike_on_either_path(self, monkeypatch):
        # 1e-14 passes the check made before any draw (a 1 x 1 correlation's
        # bound, 2 * eps) but is at or below every point's 2 * N * eps * N; the
        # leading pair declines it, so the full path's refusal is each point's
        source = one_factor_source(0.3, 300)
        first = sweep_rho_star([10, 20, 40], source, seed=3, floor=1e-14)
        monkeypatch.setattr(simulate, "_leading_pair", lambda corr, floor: None)
        second = sweep_rho_star([10, 20, 40], source, seed=3, floor=1e-14)
        assert first.errors == second.errors
        assert [error.split(":")[0] for error in first.errors] == ["N=10", "N=20", "N=40"]
        assert all("too small to resolve" in error for error in first.errors)
        np.testing.assert_array_equal(first.rho_stars, second.rho_stars)
        assert first.solvers == second.solvers == ("failed",) * 3

    @pytest.mark.parametrize("rho, n_periods", [(1.5, 100), (-0.2, 100), (0.3, 1)])
    def test_generator_checks_its_arguments_when_built(self, rho, n_periods):
        with pytest.raises(ValueError):
            one_factor_source(rho, n_periods)

    def test_grid_validation(self):
        source = one_factor_source(0.2, 100)
        with pytest.raises(ValueError):
            sweep_rho_star([], source)
        with pytest.raises(ValueError):
            sweep_rho_star([1, 10], source)
        with pytest.raises(ValueError):
            sweep_rho_star([20, 10], source)

    def test_csv_layout(self, tmp_path):
        result = sweep_rho_star([10, 20], one_factor_source(0.3, 200), seed=1)
        buffer = io.StringIO()
        sweep_to_csv(result, buffer)
        sweep_to_csv(result, tmp_path / "sweep.csv")
        assert (tmp_path / "sweep.csv").read_bytes() == buffer.getvalue().encode()
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "N,rho_star,rho_star_times_n,slope,F"
        assert len(lines) == 3
        assert lines[1].startswith("10,")

    def test_csv_inf_sentinel(self):
        result = sweep_rho_star([10, 20], one_factor_source(0.3, 200), seed=1)
        exact = type(result)(
            grid=result.grid,
            rho_stars=result.rho_stars,
            rho_star_times_n=result.rho_star_times_n,
            slope_no_intercept=result.slope_no_intercept,
            f_statistic=math.inf,
            residuals=result.residuals,
        )
        buffer = io.StringIO()
        sweep_to_csv(exact, buffer)
        assert buffer.getvalue().strip().splitlines()[1].endswith(",inf")


class TestSimConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            SimConfig(1, 10)
        with pytest.raises(ValueError):
            SimConfig(4, 1)
        with pytest.raises(ValueError):
            SimConfig(4, 10, n_instruments=0)
        with pytest.raises(ValueError):
            SimConfig(4, 10, n_paths=0)
        with pytest.raises(ValueError):
            SimConfig(4, 10, master_seed=-1)

    def test_loading_vector_length_checked(self):
        with pytest.raises(ValueError):
            SimConfig(4, 10, target_correlation=(0.5, 0.5))

    def test_a_nan_loading_is_refused(self):
        # NaN fails both halves of an out-of-range test, so the rule is written
        # as an in-range test that NaN fails
        with pytest.raises(ValueError, match=r"loadings must lie in \[0, 1\]"):
            SimConfig(3, 4, 1, (0.5, math.nan, 0.5))
        with pytest.raises(ValueError, match=r"loadings must lie in \[0, 1\]"):
            one_factor_correlation([0.5, math.nan])


def sweep_point_values(source, n: int, seeds) -> np.ndarray:
    """rho_star of a one-point sweep at N = ``n`` for every seed in ``seeds``."""
    return np.array([sweep_rho_star([n], source, seed=seed).rho_stars[0] for seed in seeds])


class TestWishartSource:
    # K seeds per path; a sample mean over K draws has standard error sd / sqrt(K)
    # and a sample sd a relative error of about 1 / sqrt(2K), so the ratio of two
    # independent sds has one of about 1 / sqrt(K); both bands are SIGMAS of those
    K = 400
    SIGMAS = 4.0

    @pytest.mark.parametrize("n, m", [(60, 300), (30, 20)], ids=["full-rank", "singular"])
    def test_rho_star_has_the_panel_paths_law(self, n, m):
        # the panel path, estimated from complete cases, against the Wishart
        # draw, over disjoint seeds; (30, 20) has M - 1 < N, a singular matrix
        def panels(n_alphas, seed):
            return gen_one_factor_panel(SimConfig(n_alphas, m, 1, 0.25, seed))

        from_panels = sweep_point_values(panel_source(panels), n, range(self.K))
        drawn = sweep_point_values(one_factor_source(0.25, m), n, range(self.K, 2 * self.K))
        assert np.isfinite(from_panels).all() and np.isfinite(drawn).all()
        sd_panels, sd_drawn = from_panels.std(ddof=1), drawn.std(ddof=1)
        mean_band = self.SIGMAS * math.sqrt((sd_panels**2 + sd_drawn**2) / self.K)
        assert abs(drawn.mean() - from_panels.mean()) <= mean_band
        assert abs(sd_drawn / sd_panels - 1.0) <= self.SIGMAS / math.sqrt(self.K)

    def test_the_draw_does_not_grow_with_the_panel_length(self):
        # the panel itself would be N x M; the draw holds (N + 1) x (N + 1) arrays
        n = 200

        def peak(m: int) -> int:
            draw = one_factor_source(0.25, m)
            draw(n, 0)  # numpy's first-call allocations are not the draw's
            tracemalloc.start()
            try:
                draw(n, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(300), peak(30_000)
        assert long <= 1.05 * short
        assert long <= 2.5 * (n + 1) ** 2 * 8  # well under the 48 MB of the long panel

    def test_singular_draws_have_rank_m_minus_1(self):
        corr = one_factor_source(0.25, 20)(30, 4)
        assert np.linalg.matrix_rank(corr.entries) == 19

    @pytest.mark.parametrize(
        "target, m",
        [(0.3, 40), ((0.2, 0.5, 0.9, 0.0, 1.0, 0.7), 40), (0.3, 5)],
        ids=["scalar", "vector", "singular"],
    )
    def test_matches_its_formula_bit_for_bit(self, target, m):
        # A rebuilt from the same stream, X = sqrt(1 - b^2) A[1:] + b (x) A[0]
        # formed out of place, and W = X X^T scaled to a unit diagonal;
        # "singular" has M - 1 < N + 1, so A has M - 1 columns
        n = 6
        config = SimConfig(n, m, 1, target, master_seed=23)
        k = min(n + 1, m - 1)
        rng = np.random.default_rng(np.random.SeedSequence([23]))
        a = np.zeros((n + 1, k))
        below = np.tri(n + 1, k, -1, dtype=bool)
        a[below] = rng.standard_normal(np.count_nonzero(below))
        a[np.arange(k), np.arange(k)] = np.sqrt(rng.chisquare(m - 1 - np.arange(k)))
        b = config.loadings()
        x = np.sqrt(1.0 - b**2)[:, None] * a[1:] + np.multiply.outer(b, a[0])
        w = x @ x.T
        scale = 1.0 / np.sqrt(np.diag(w))
        expected = w * np.multiply.outer(scale, scale)
        np.fill_diagonal(expected, 1.0)  # as the wrapper sets it
        assert simulate._one_factor_wishart(config).entries.tobytes() == expected.tobytes()

    def test_the_draw_is_deterministic_under_seed(self):
        draw = one_factor_source(0.3, 500)
        first, second, other = draw(40, 9), draw(40, 9), draw(40, 10)
        assert first.entries.tobytes() == second.entries.tobytes()
        assert not np.array_equal(first.entries, other.entries)

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    def test_off_diagonal_mean_recovers_rho(self, rho):
        corr = one_factor_source(rho, 10_000)(100, 20260810)
        # the mean of 4950 correlations, each with sd below 1.1 / sqrt(M)
        assert abs(float(off_diagonal(corr.entries).mean()) - rho) <= 0.03

    def test_full_correlation_makes_a_matrix_of_ones(self):
        corr = one_factor_source(1.0, 50)(5, 3)
        np.testing.assert_allclose(corr.entries, 1.0, atol=1e-12)


def full_path_point(corr: CorrelationMatrix, repair: bool, floor: float | None) -> float:
    """A grid point's rho_star by the full path alone: repair, eigh, sign basis."""
    if repair:
        corr = rj_repair(corr, floor if floor is not None else default_floor(corr))
    return rho_star(fix_sign_basis(eigendecompose(corr)))


class TestSweepPointSolvers:
    N = 40

    def boundary_matrix(self, target: float) -> np.ndarray:
        """A one-factor sample correlation whose smallest eigenvalue is ``target``."""
        rng = np.random.default_rng(8)
        entries = np.corrcoef(rng.standard_normal((self.N, 3 * self.N)) + rng.standard_normal(3 * self.N))
        smallest = np.linalg.eigvalsh(entries)[0]
        shift = target * (1 - smallest) / (1 - target) - smallest
        entries = (entries + shift * np.eye(self.N)) / (1 + shift)
        np.fill_diagonal(entries, 1.0)
        return entries

    @pytest.mark.parametrize(
        "floor, target",
        [
            (None, 1.0 - 1e-3),  # default floor, just below it
            (None, 1.0 + 1e-13),  # default floor, inside the certificate's margin
            (1e-10, 1.0 - 1e-3),
            (1e-10, 1.0 + 1e-3),  # floor * 1e-3 is inside the margin at this floor
            (0.5, 1.0),  # a floor above the smallest eigenvalue: a real repair
        ],
    )
    def test_uncertified_points_take_the_full_path_bit_for_bit(self, floor, target):
        level = floor if floor is not None else default_floor(CorrelationMatrix(np.eye(self.N)))
        entries = self.boundary_matrix(min(level * target, 0.3))
        value, solver, degenerate = simulate._sweep_point(CorrelationMatrix(entries), True, floor)
        assert solver == "full" and not degenerate
        assert value == full_path_point(CorrelationMatrix(entries), True, floor)

    def test_points_clear_of_the_floor_take_the_leading_pair(self):
        entries = self.boundary_matrix(1e-3)
        for floor in (None, 1e-10):
            value, solver, degenerate = simulate._sweep_point(CorrelationMatrix(entries), True, floor)
            assert solver == "leading-pair" and not degenerate
            want = full_path_point(CorrelationMatrix(entries), True, floor)
            assert value == pytest.approx(want, rel=1e-12)

    def test_unrepaired_degenerate_top_takes_the_full_path_bit_for_bit(self):
        entries = np.kron(np.eye(2), np.full((self.N // 2, self.N // 2), 0.5))
        np.fill_diagonal(entries, 1.0)
        value, solver, degenerate = simulate._sweep_point(CorrelationMatrix(entries), False, None)
        assert solver == "full" and degenerate
        assert value == full_path_point(CorrelationMatrix(entries), False, None)

    @pytest.mark.parametrize("options", [{"repair": True, "floor": None}, {"repair": False, "floor": None}])
    def test_large_point_agrees_with_the_full_path(self, options):
        panel = gen_one_factor_panel(SimConfig(1200, 1500, target_correlation=0.25, master_seed=12))
        corr = sample_moments(panel, COMPLETE_CASES)
        value, solver, degenerate = simulate._sweep_point(corr, **options)
        assert solver == "leading-pair" and not degenerate
        assert value == pytest.approx(full_path_point(corr, **options), rel=1e-12)
