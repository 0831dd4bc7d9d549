"""Eigendecomposition, pruning and eigenvalue-floor repair."""

import dataclasses
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turnover_spectra import (
    COMPLETE_CASES,
    PAIRWISE_COMPLETE,
    CorrelationMatrix,
    CovarianceMatrix,
    DegenerateTopWarning,
    InvalidDiagonalError,
    InvalidMatrixError,
    SpectralDecomposition,
    TimeSeriesPanel,
    classify_definiteness,
    correlation_from_csv,
    default_floor,
    eigendecompose,
    fix_sign_basis,
    matrix_report,
    matrix_to_csv,
    prune_redundant,
    rj_repair,
    rho_star,
    sample_moments,
)
from turnover_spectra import conditioning
from turnover_spectra.conditioning import _condition, _spectrum, _square_from_csv

# eigenvalues (1.9, 1.9, -0.8): verified against the characteristic
# polynomial (trace 3, pairwise-product sum 0.57, determinant -2.888)
NON_PSD = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])


def uniform_correlation(n: int, rho: float) -> np.ndarray:
    return (1.0 - rho) * np.eye(n) + rho * np.ones((n, n))


def unsolved(matrix):
    """A fresh wrapper of the same kind over the same entries, with no memo,
    so that its spectrum is solved anew."""
    return type(matrix)(matrix.entries, ids=matrix.ids)


def correlation_floor(n: int) -> float:
    """``default_floor`` of every N x N correlation, whose trace is exactly N."""
    return default_floor(CorrelationMatrix(np.eye(n)))


def random_correlation(seed: int, n: int) -> CorrelationMatrix:
    rng = np.random.default_rng(seed)
    loadings = rng.standard_normal((n, max(2, n // 3)))
    cov = loadings @ loadings.T + np.diag(rng.uniform(0.3, 1.0, n))
    vols = np.sqrt(np.diag(cov))
    corr = cov / np.outer(vols, vols)
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(corr)


class TestEigendecompose:
    def test_identity_spectrum(self):
        decomp = eigendecompose(CorrelationMatrix(np.eye(4)))
        np.testing.assert_array_equal(decomp.eigenvalues, np.ones(4))
        assert decomp.top_gap == 0.0

    def test_uniform_three_by_three(self):
        decomp = eigendecompose(CorrelationMatrix(uniform_correlation(3, 0.5)))
        np.testing.assert_allclose(decomp.eigenvalues, [2.0, 0.5, 0.5], atol=1e-12)

    def test_two_by_two_closed_form(self):
        decomp = eigendecompose(CorrelationMatrix([[1.0, 0.6], [0.6, 1.0]]))
        np.testing.assert_allclose(decomp.eigenvalues, [1.6, 0.4], atol=1e-12)
        np.testing.assert_allclose(
            np.abs(decomp.eigenvectors[:, 0]), np.full(2, 1 / math.sqrt(2)), atol=1e-12
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction_orthonormality_trace(self, seed):
        corr = random_correlation(seed, 24)
        decomp = eigendecompose(corr)
        v, w = decomp.eigenvectors, decomp.eigenvalues
        assert np.abs((v * w) @ v.T - corr.entries).max() <= 1e-8
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
            eigendecompose(CorrelationMatrix(bad))

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidMatrixError):
            eigendecompose(CorrelationMatrix([[1.0, 0.5], [0.2, 1.0]]))

    def test_degenerate_direction_has_matching_sample_variance(self):
        # more series than timestamps: the spectrum has near-zero directions,
        # and each one is a combination with matching (tiny) sample variance
        rng = np.random.default_rng(42)
        values = rng.standard_normal((12, 8))
        cov = CovarianceMatrix(np.cov(values))
        decomp = eigendecompose(cov)
        tolerance = 1e-10 * decomp.eigenvalues[0] * cov.n
        small = decomp.eigenvalues <= tolerance
        assert small.any()
        for p in np.flatnonzero(small):
            combination = decomp.eigenvectors[:, p] @ values
            assert combination.var(ddof=1) <= tolerance * 1.01 + 1e-15


@st.composite
def symmetric_matrices(draw):
    """An exactly symmetric matrix: a random upper triangle mirrored, times a
    scale, with a positive diagonal."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]))
    upper = np.triu(rng.uniform(-scale, scale, (n, n)), 1)
    vols = rng.uniform(0.5, 2.0, n) * math.sqrt(scale)
    entries = upper + upper.T
    np.fill_diagonal(entries, vols**2)
    return entries


class TestSingleValidation:
    """The matrix wrappers check and symmetrize their entries once; no solve
    checks or symmetrizes them again."""

    @given(symmetric_matrices())
    @settings(max_examples=60, deadline=None)
    def test_exactly_symmetric_input_is_stored_and_solved_bit_for_bit(self, entries):
        n = entries.shape[0]
        cov = CovarianceMatrix(entries)
        np.testing.assert_array_equal(cov.entries, entries)
        unit = entries / np.abs(entries).max()  # exactly symmetric, entries in [-1, 1]
        np.fill_diagonal(unit, 1.0)
        corr = CorrelationMatrix(unit)
        np.testing.assert_array_equal(corr.entries, unit)
        for wrapper, bare in ((cov, entries), (corr, unit)):
            values, vectors = _spectrum(wrapper)
            reference_values, reference_vectors = np.linalg.eigh(bare)
            np.testing.assert_array_equal(values, reference_values)
            np.testing.assert_array_equal(vectors, reference_vectors)

    @given(symmetric_matrices(), st.sampled_from([0.25, 4.0]))
    @settings(max_examples=60, deadline=None)
    def test_one_asymmetry_tolerance_at_construction(self, entries, multiple):
        n = entries.shape[0]
        if n < 2:
            return
        bad = entries.copy()
        bad[0, 1] += multiple * 1e-12 * max(1.0, float(np.abs(entries).max()))
        if multiple > 1:
            with pytest.raises(InvalidMatrixError, match="not symmetric") as caught:
                CovarianceMatrix(bad)
            assert isinstance(caught.value, ValueError)
        else:
            cov = CovarianceMatrix(bad)
            np.testing.assert_array_equal(cov.entries, cov.entries.T)
            np.testing.assert_array_equal(cov.entries, 0.5 * (bad + bad.T))

    def test_exactly_symmetric_input_is_checked_with_no_float_temporary(self):
        # an exact comparison of the triangles comes first, so the wrapper
        # holds its copy of the entries and one N x N bool, not a float gap
        n = 800
        entries = np.eye(n)
        entries[0, 1], entries[1, 0] = 0.0, -0.0  # equal, as their gap of 0 says
        tracemalloc.start()
        try:
            corr = CorrelationMatrix(entries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n * n * 8
        assert corr.entries.tobytes() == entries.tobytes()

    def test_wrappers_are_solved_from_their_own_entries(self, monkeypatch):
        seen = []
        solver = np.linalg.eigh

        def spy(a, *args, **kwargs):
            seen.append(a)
            return solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        corr = random_correlation(3, 10)
        eigendecompose(corr)
        fresh = random_correlation(4, 10)
        rj_repair(fresh, default_floor(fresh))
        cov = CovarianceMatrix(4.0 * np.eye(3))
        classify_definiteness(cov)
        assert len(seen) == 3
        assert all(a is m.entries for a, m in zip(seen, (corr, fresh, cov)))

    def test_pairwise_estimates_are_stored_exactly_symmetric(self):
        rng = np.random.default_rng(8)
        values = rng.standard_normal((30, 60))
        mask = rng.random((30, 60)) > 0.3
        ids = tuple(f"s{i}" for i in range(30))
        panel = TimeSeriesPanel(ids, np.where(mask, values, np.nan))
        corr = sample_moments(panel, PAIRWISE_COMPLETE)
        np.testing.assert_array_equal(corr.entries, corr.entries.T)


class TestPruneRedundant:
    def test_spec_triangle(self):
        corr = CorrelationMatrix(
            [[1.0, 0.95, 0.2], [0.95, 1.0, 0.1], [0.2, 0.1, 1.0]],
            ids=("a", "b", "c"),
        )
        kept, pruned = prune_redundant(corr, 0.9)
        assert kept == [0, 2]
        assert pruned.ids == ("a", "c")
        assert pruned.entries[0, 1] == 0.2

    def test_identity_keeps_everything(self):
        corr = CorrelationMatrix(np.eye(5))
        kept, _ = prune_redundant(corr, 0.5)
        assert kept == [0, 1, 2, 3, 4]

    def test_chain_removal_keeps_first_only(self):
        corr = CorrelationMatrix(uniform_correlation(4, 0.99))
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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_per_pair_scan(self, data):
        """The kept list is the greedy scan's, entries exactly at the bound
        (and one ulp either side of it) included."""
        n = data.draw(st.integers(1, 9))
        bound = data.draw(st.sampled_from([0.5, 0.9]) | st.floats(0.01, 0.99))
        near = [bound, -bound, np.nextafter(bound, 1.0), np.nextafter(bound, 0.0)]
        cell = st.sampled_from(near) | st.floats(-1.0, 1.0)
        upper = np.array([[data.draw(cell) for _ in range(n)] for _ in range(n)])
        entries = np.where(np.triu(np.ones((n, n), dtype=bool)), upper, upper.T)
        np.fill_diagonal(entries, 1.0)
        corr = CorrelationMatrix(entries)

        scanned: list[int] = []
        for i in range(n):
            if all(abs(entries[k, i]) <= bound for k in scanned):
                scanned.append(i)
        kept, pruned = prune_redundant(corr, bound)
        assert kept == scanned
        np.testing.assert_array_equal(pruned.entries, entries[np.ix_(scanned, scanned)])

    def test_bound_outside_open_interval_rejected(self):
        corr = CorrelationMatrix(np.eye(3))
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
        corr = CorrelationMatrix(NON_PSD)
        repaired = rj_repair(corr, 1e-4)
        values = np.linalg.eigvalsh(repaired.entries)
        assert values.min() > 0
        np.testing.assert_allclose(np.diag(repaired.entries), 1.0, atol=1e-12)
        assert classify_definiteness(repaired) == "verified-PD"

    def test_repaired_minimum_clears_half_floor(self):
        corr = CorrelationMatrix(NON_PSD)
        floor = default_floor(corr)
        repaired = rj_repair(corr, floor)
        assert np.linalg.eigvalsh(repaired.entries).min() >= floor / 2

    def test_idempotent(self):
        repaired = rj_repair(CorrelationMatrix(NON_PSD), 1e-4)
        again = rj_repair(repaired, 1e-4)
        assert np.abs(again.entries - repaired.entries).max() <= 1e-10

    def test_covariance_diagonal_preserved_exactly(self):
        vols = np.array([2.0, 0.5, 1.5])
        entries = NON_PSD * np.outer(vols, vols)
        cov = CovarianceMatrix(entries, ids=("a", "b", "c"))
        # through the CSV the repair command reads, every bit of the entries survives
        buffer = io.StringIO()
        matrix_to_csv(cov, buffer)
        ids, read = _square_from_csv(io.StringIO(buffer.getvalue()))
        loaded = CovarianceMatrix(read, ids=ids)
        assert loaded == cov
        repaired = rj_repair(loaded, 1e-4)
        np.testing.assert_array_equal(np.diag(repaired.entries), vols**2)
        assert np.linalg.eigvalsh(repaired.entries).min() > 0

    @pytest.mark.parametrize("mode", [COMPLETE_CASES, PAIRWISE_COMPLETE])
    def test_vols_square_to_the_diagonal_through_csv_and_repair(self, mode):
        rng = np.random.default_rng(12)
        values = rng.standard_normal((8, 12)) * rng.uniform(0.01, 100.0, (8, 1))
        mask = rng.random((8, 12)) > 0.45
        mask[:, :4] = True  # every series and pair stays estimable
        panel = TimeSeriesPanel(tuple("abcdefgh"), np.where(mask, values, np.nan))
        corr = sample_moments(panel, mode)
        vols = np.nanstd(panel.values, axis=1, ddof=1)
        cov = CovarianceMatrix(corr.entries * np.outer(vols, vols), ids=corr.ids)
        buffer = io.StringIO()
        matrix_to_csv(cov, buffer)
        ids, read = _square_from_csv(io.StringIO(buffer.getvalue()))
        loaded = CovarianceMatrix(read, ids=ids)
        np.testing.assert_array_equal(loaded.entries, cov.entries)
        repaired = rj_repair(loaded, default_floor(loaded))
        for matrix in (cov, loaded, repaired):
            assert (vols**2).tobytes() == np.diag(matrix.entries).tobytes()

    def test_nonpositive_diagonal_rejected(self):
        # refused by the wrapper, before the repair is reached
        bad = np.array([[0.0, 0.1], [0.1, 1.0]])
        with pytest.raises(InvalidDiagonalError):
            rj_repair(CovarianceMatrix(bad), 1e-4)

    def test_nonpositive_floor_rejected(self):
        with pytest.raises(ValueError):
            rj_repair(CorrelationMatrix(NON_PSD), 0.0)

    @pytest.mark.parametrize("floor", [math.nan, math.inf])
    def test_non_finite_floor_rejected(self, floor):
        with pytest.raises(ValueError, match="floor must be positive and finite"):
            rj_repair(CorrelationMatrix(NON_PSD), floor)

    @pytest.mark.parametrize(
        "matrix, floor",
        [
            (CovarianceMatrix(1e-300 * np.eye(2)), 2e-8),
            (CovarianceMatrix(np.diag([3.0, 1.0, 2.0])), np.nextafter(2.0, 3.0)),
            (CorrelationMatrix(NON_PSD), 1.5),
        ],
        ids=["tiny-covariance", "one-ulp-past-the-mean", "correlation"],
    )
    def test_a_floor_above_the_mean_diagonal_is_refused_before_any_solve(
        self, matrix, floor, eigensolves
    ):
        # the repair keeps the trace, and the smallest eigenvalue is at most
        # trace / N, so no pass could meet such a floor
        with pytest.raises(InvalidMatrixError, match="exceeds the mean diagonal"):
            rj_repair(matrix, floor)
        assert eigensolves == []

    def test_a_repair_past_its_pass_cap_is_refused(self, monkeypatch):
        # NON_PSD needs more than one pass, so a cap of one leaves it unconverged
        monkeypatch.setattr(conditioning, "_REPAIR_MAX_PASSES", 1)
        with pytest.raises(
            InvalidMatrixError, match="^eigenvalue-floor repair did not converge in 1 passes$"
        ):
            rj_repair(CorrelationMatrix(NON_PSD), correlation_floor(3))

    def test_a_floor_at_the_mean_diagonal_is_met(self):
        repaired, record = _condition(CovarianceMatrix(2.0 * np.eye(3)), 2.0)
        assert record["repair_passes"] == 1
        np.testing.assert_array_equal(repaired.entries, 2.0 * np.eye(3))

    @pytest.mark.parametrize("kind", [CorrelationMatrix, CovarianceMatrix])
    def test_input_that_clears_the_floor_is_returned_with_no_copy(self, kind, eigensolves):
        n = 400
        vols = np.linspace(0.5, 2.0, n) if kind is CovarianceMatrix else np.ones(n)
        matrix = kind(uniform_correlation(n, 0.3) * np.outer(vols, vols))
        classify_definiteness(matrix)
        tracemalloc.start()
        try:
            repaired = rj_repair(matrix, default_floor(matrix))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert repaired is matrix
        assert len(eigensolves) == 1  # the classification's, through the memo
        assert peak < 0.1 * n * n * 8

    def test_a_spectrum_past_the_float64_limit_is_refused(self):
        # finite, symmetric, a positive diagonal, and eigenvalues inf, inf, -4.8e307
        entries = np.array([[1.2, 0.84, 0.84], [0.84, 1.2, -0.84], [0.84, -0.84, 1.2]]) * 1e308
        for solve in (
            lambda matrix: rj_repair(matrix, default_floor(matrix)),
            classify_definiteness,
            eigendecompose,
        ):
            with pytest.raises(InvalidMatrixError, match="spectrum overflows float64"):
                solve(CovarianceMatrix(entries))

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
        panel = TimeSeriesPanel(tuple(f"s{i}" for i in range(n)), np.where(mask, values, np.nan))
        corr = sample_moments(panel, PAIRWISE_COMPLETE)
        floor = default_floor(corr)
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


class TestSpectrumMemo:
    def test_classify_repair_decompose_share_one_solve(self, eigensolves):
        corr = random_correlation(5, 8)
        assert classify_definiteness(corr) == "verified-PD"
        repaired = rj_repair(corr, default_floor(corr))
        decomposition = eigendecompose(repaired)
        assert matrix_report(repaired)["psd_status"] == "verified-PD"
        assert len(eigensolves) == 1
        np.testing.assert_array_equal(decomposition.eigenvalues, _spectrum(corr)[0][::-1])

    def test_repair_passes_after_the_first_are_fresh_solves(self, eigensolves):
        corr = CorrelationMatrix(NON_PSD)
        classify_definiteness(corr)
        repaired = rj_repair(corr, default_floor(corr))
        passes = len(eigensolves)  # the first pass reused the classification's solve
        assert passes >= 2
        eigendecompose(repaired)
        classify_definiteness(repaired)
        assert len(eigensolves) == passes

    def test_memo_slot_is_private_and_read_only(self):
        for kind in (CorrelationMatrix, CovarianceMatrix):
            (slot,) = [f for f in dataclasses.fields(kind) if f.name == "_eigensystem"]
            assert not (slot.init or slot.repr or slot.compare)
        corr = random_correlation(3, 5)
        values, vectors = _spectrum(corr)
        assert _spectrum(corr)[0] is values
        assert not values.flags.writeable and not vectors.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0.0

    def test_no_memo_is_handed_on_when_the_wrapper_changes_the_iterate(self, monkeypatch):
        # the wrapper types clip and pin entries; stand in for a case where
        # that moves the final iterate by nudging one pair by an ulp
        class Nudged(CorrelationMatrix):
            def __post_init__(self):
                super().__post_init__()
                entries = self.entries.copy()
                entries[0, 1] = entries[1, 0] = np.nextafter(entries[0, 1], 0.0)
                object.__setattr__(self, "entries", entries)

        monkeypatch.setattr(conditioning, "CorrelationMatrix", Nudged)
        repaired = rj_repair(Nudged(NON_PSD), 1e-4)
        assert repaired._eigensystem is None
        values, _ = _spectrum(repaired)
        assert values.tobytes() == np.linalg.eigh(repaired.entries)[0].tobytes()

    def test_repair_label_agrees_with_classification_below_the_tolerance(self):
        # 1e-15 is at or below 2 * N * eps * trace = 4.0e-15 and refused;
        # 1e-14, the smallest power of ten accepted, leaves a smallest
        # eigenvalue below 1e-13 that still reads as positive definite
        with pytest.raises(InvalidMatrixError, match="too small to resolve"):
            rj_repair(CorrelationMatrix(NON_PSD), 1e-15)
        repaired = rj_repair(CorrelationMatrix(NON_PSD), 1e-14)
        assert 0 < np.linalg.eigvalsh(repaired.entries).min() < 1e-13
        # the memo the repair hands on classifies as a fresh solve does
        assert classify_definiteness(repaired) == "verified-PD"
        assert classify_definiteness(unsolved(repaired)) == "verified-PD"

    @pytest.mark.parametrize("n", [5, 12, 50])
    def test_default_floor_repair_is_verified_pd(self, n):
        rng = np.random.default_rng(n)
        entries = rng.uniform(-1.0, 1.0, (n, n))
        entries = (entries + entries.T) / 2
        np.fill_diagonal(entries, 1.0)
        corr = CorrelationMatrix(entries)
        assert classify_definiteness(corr) == "verified-not-PSD"
        repaired = rj_repair(corr, default_floor(corr))
        assert classify_definiteness(repaired) == "verified-PD"
        assert classify_definiteness(unsolved(repaired)) == "verified-PD"


def refusal_bound(matrix) -> float:
    """2 * N * eps * trace: the repair refuses a floor at or below it."""
    return 2 * matrix.n * np.finfo(float).eps * float(np.trace(matrix.entries))


@st.composite
def repair_inputs(draw):
    """Correlation or covariance wrappers, positive definite or not, and a
    floor the repair accepts: the default, 1e-3, or one a small multiple of
    the bound below which it refuses."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        entries = np.corrcoef(rng.standard_normal((n, n + draw(st.integers(2, 20)))))
    else:
        entries = rng.uniform(-1.0, 1.0, (n, n))
        entries = (entries + entries.T) / 2
        np.fill_diagonal(entries, 1.0)
    if draw(st.booleans()):
        matrix = CorrelationMatrix(entries)
    else:
        vols = rng.uniform(0.1, 10.0, n)
        matrix = CovarianceMatrix(entries * np.outer(vols, vols))
    bound = refusal_bound(matrix)
    return matrix, draw(st.sampled_from([default_floor(matrix), 1e-3, 2 * bound, 1e3 * bound]))


@settings(max_examples=150, deadline=None)
@given(case=repair_inputs(), classify_first=st.booleans())
def test_repair_memo_equals_a_fresh_solve_bit_for_bit(case, classify_first):
    matrix, floor = case
    if classify_first:
        classify_definiteness(matrix)
    repaired = rj_repair(matrix, floor)
    values, vectors = _spectrum(repaired)
    fresh_values, fresh_vectors = np.linalg.eigh(repaired.entries)
    assert values.tobytes() == fresh_values.tobytes()
    assert vectors.tobytes() == fresh_vectors.tobytes()
    assert not values.flags.writeable and not vectors.flags.writeable
    assert classify_definiteness(repaired) == classify_definiteness(unsolved(repaired))


@st.composite
def scaled_repair_inputs(draw):
    """A unit-diagonal matrix (full rank, rank-deficient, near rank one or
    indefinite), as a correlation or as a covariance whose variances are
    scaled by 1e-6 to 1e6, and a floor: the default, one near the refusal
    bound, or one drawn log-uniformly from below the bound to half the
    smallest variance (the smallest eigenvalue cannot exceed it)."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["full-rank", "rank-deficient", "near-rank-one", "indefinite"]))
    if kind == "full-rank":
        entries = np.corrcoef(rng.standard_normal((n, n + 10)))
    elif kind == "rank-deficient":
        entries = np.corrcoef(rng.standard_normal((n, max(2, n // 2))))
    elif kind == "near-rank-one":
        b = 1.0 - rng.uniform(0.0, 1e-6, n)
        entries = np.outer(b, b)
    else:
        entries = rng.uniform(-1.0, 1.0, (n, n))
    entries = np.clip((entries + entries.T) / 2, -1.0, 1.0)
    np.fill_diagonal(entries, 1.0)
    if draw(st.booleans()):
        matrix = CorrelationMatrix(entries)
    else:
        vols = math.sqrt(10.0 ** draw(st.floats(-6.0, 6.0))) * rng.uniform(0.5, 2.0, n)
        matrix = CovarianceMatrix(entries * np.outer(vols, vols))
    bound = refusal_bound(matrix)
    top = math.log10(0.5 * float(np.diag(matrix.entries).min()))
    near = st.sampled_from([0.5, 1 - 1e-9, 1 + 1e-9, 1.5, 3.0]).map(lambda k: k * bound)
    spread = st.floats(math.log10(bound) - 2.0, top).map(lambda e: 10.0**e)
    return matrix, draw(st.just(default_floor(matrix)) | near | spread)


@settings(max_examples=300, deadline=None)
@given(case=scaled_repair_inputs())
def test_every_floor_the_repair_accepts_gives_a_verified_pd_matrix(case):
    matrix, floor = case
    bound = refusal_bound(matrix)
    if floor < bound * (1 - 1e-12):
        with pytest.raises(InvalidMatrixError, match="too small to resolve"):
            rj_repair(matrix, floor)
        return
    try:
        repaired = rj_repair(matrix, floor)
    except InvalidMatrixError:
        # refused only at the bound itself, up to the rounding of its formula
        assert floor <= bound * (1 + 1e-12)
        return
    assert classify_definiteness(repaired) == "verified-PD"
    assert classify_definiteness(unsolved(repaired)) == "verified-PD"


class TestSerialization:
    def test_csv_roundtrip(self, tmp_path):
        corr = random_correlation(2, 6)
        buffer = io.StringIO()
        matrix_to_csv(corr, buffer)
        again = correlation_from_csv(io.StringIO(buffer.getvalue()))
        np.testing.assert_array_equal(again.entries, corr.entries)
        path = tmp_path / "corr.csv"
        matrix_to_csv(corr, path)
        assert path.read_bytes() == buffer.getvalue().encode()
        np.testing.assert_array_equal(correlation_from_csv(path).entries, corr.entries)

    def test_report_fields(self):
        report = matrix_report(rj_repair(CorrelationMatrix(NON_PSD), 1e-6))
        # the entries are the CSV's (matrix_to_csv), not repeated in the report
        assert set(report) == {"ids", "eigenvalues", "psd_status"}
        assert report["psd_status"] == "verified-PD"
        assert len(report["eigenvalues"]) == 3

    def test_report_reads_the_memoized_spectrum_in_descending_order(
        self, monkeypatch, eigensolves
    ):
        # eigendecompose's values, bit for bit, without its vector work
        matrix = rj_repair(CorrelationMatrix(NON_PSD), 1e-6)
        solves = len(eigensolves)

        def refused(matrix):
            raise AssertionError("the report decomposed the matrix")

        monkeypatch.setattr(conditioning, "eigendecompose", refused)
        report = matrix_report(matrix)
        assert len(eigensolves) == solves
        assert report["eigenvalues"] == eigendecompose(matrix).eigenvalues.tolist()

    def test_classify_definiteness(self):
        assert classify_definiteness(CorrelationMatrix(NON_PSD)) == "verified-not-PSD"
        assert classify_definiteness(CorrelationMatrix(np.eye(3))) == "verified-PD"
        v = np.array([1.0, 2.0])
        assert classify_definiteness(CovarianceMatrix(np.outer(v, v))) == "unverified"


def with_smallest_eigenvalue(entries: np.ndarray, target: float) -> np.ndarray:
    """Shift the spectrum of a unit-diagonal matrix and rescale it back to unit
    diagonal, so that its smallest eigenvalue becomes ``target``."""
    n = entries.shape[0]
    smallest = float(np.linalg.eigvalsh(entries)[0])
    shift = target * (1.0 - smallest) / (1.0 - target) - smallest
    out = (entries + shift * np.eye(n)) / (1.0 + shift)
    np.fill_diagonal(out, 1.0)
    return out


def full_path_rho_star(entries: np.ndarray, floor: float | None) -> float:
    """rho_star by the full path: repair (when a floor is given), eigh, sign basis."""
    corr = CorrelationMatrix(entries)
    if floor is not None:
        corr = rj_repair(corr, floor)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateTopWarning)
        return rho_star(fix_sign_basis(eigendecompose(corr)))


def leading_pair_rho_star(entries: np.ndarray, floor: float | None) -> float | None:
    decomposition = conditioning._leading_pair(CorrelationMatrix(entries), floor)
    return None if decomposition is None else rho_star(fix_sign_basis(decomposition))


@st.composite
def leading_pair_inputs(draw):
    """Unit-diagonal matrices of five kinds, and a floor (None: no repair)."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["one-factor", "multi-factor", "near-degenerate", "near-floor", "non-psd"]))
    floor = draw(st.sampled_from([None, correlation_floor(n), 1e-3]))
    if kind == "one-factor":
        b = rng.uniform(draw(st.sampled_from([0.0, 0.3, 0.7])), 1.0, n)
        entries = np.outer(b, b)
    elif kind == "multi-factor":
        factors = draw(st.integers(2, 4))
        loadings = rng.standard_normal((n, factors)) * rng.uniform(0.2, 3.0, factors)
        cov = loadings @ loadings.T + np.diag(rng.uniform(0.1, 1.0, n))
        entries = cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    elif kind == "near-degenerate":
        # two uncorrelated equicorrelated blocks: equal tops, split by ``delta``
        half = max(n // 2, 1)
        delta = draw(st.sampled_from([0.0, 1e-14, 1e-10, 1e-6, 1e-3, 0.05]))
        entries = np.zeros((n, n))
        entries[:half, :half] = 0.5
        entries[half:, half:] = 0.5 + delta
    elif kind == "near-floor":
        entries = np.corrcoef(rng.standard_normal((n, n + 5)))
        level = correlation_floor(n) if floor is None else floor
        scale = draw(st.sampled_from([1 - 1e-3, 1.0, 1 + 1e-12, 1 + 1e-3, 2.0]))
        entries = with_smallest_eigenvalue(entries, level * scale)
    else:
        entries = rng.uniform(-1.0, 1.0, (n, n))
    entries = (entries + entries.T) / 2
    np.fill_diagonal(entries, 1.0)
    return np.clip(entries, -1.0, 1.0), floor


@settings(max_examples=300, deadline=None)
@given(case=leading_pair_inputs())
def test_leading_pair_declines_or_agrees_with_the_full_path(case):
    entries, floor = case
    got = leading_pair_rho_star(entries, floor)
    if got is not None:
        want = full_path_rho_star(entries, floor)
        assert abs(got - want) <= 1e-12 * abs(want)


class TestLeadingPair:
    N = 50

    def base(self):
        """A one-factor sample correlation: its top clears the isolation test,
        so whether the leading pair is taken rests on the floor certificate."""
        rng = np.random.default_rng(3)
        return np.corrcoef(rng.standard_normal((self.N, 4 * self.N)) + rng.standard_normal(4 * self.N))

    def test_base_clear_of_the_floor_is_certified(self):
        entries = with_smallest_eigenvalue(self.base(), 1e-3)
        assert conditioning._leading_pair(CorrelationMatrix(entries), 1e-10) is not None
        assert leading_pair_rho_star(entries, correlation_floor(self.N)) is not None

    def test_solves_no_full_spectrum_and_fills_no_memo(self, eigensolves):
        corr = CorrelationMatrix(uniform_correlation(self.N, 0.3))
        decomposition = conditioning._leading_pair(corr, correlation_floor(self.N))
        assert decomposition.eigenvalues == pytest.approx([1 + (self.N - 1) * 0.3], rel=1e-14)
        assert decomposition.eigenvectors.shape == (self.N, 1)
        assert decomposition.source_dim == self.N
        assert eigensolves == []  # power iteration calls no eigh at all
        assert corr._eigensystem is None

    @pytest.mark.parametrize("scale", [1 - 1e-3, 1 - 1e-12, 1.0, 1 + 1e-3])
    def test_floor_boundary_is_never_certified(self, scale):
        # at this floor the whole band floor * (1 +- 1e-3) lies below floor + margin
        floor = 1e-10
        margin = conditioning._cholesky_margin(np.eye(self.N))
        assert floor * 1e-3 < margin
        entries = with_smallest_eigenvalue(self.base(), floor * scale)
        assert conditioning._leading_pair(CorrelationMatrix(entries), floor) is None

    @pytest.mark.parametrize("where", ["below", "inside-margin"])
    def test_default_floor_boundary_is_never_certified(self, where):
        floor = correlation_floor(self.N)
        margin = conditioning._cholesky_margin(np.eye(self.N))
        target = floor * (1 - 1e-3) if where == "below" else floor + margin / 2
        entries = with_smallest_eigenvalue(self.base(), target)
        assert conditioning._leading_pair(CorrelationMatrix(entries), floor) is None

    def test_clear_of_the_floor_is_certified_and_agrees(self):
        floor = correlation_floor(self.N)
        entries = with_smallest_eigenvalue(uniform_correlation(self.N, 0.4), floor * (1 + 1e-3))
        got = leading_pair_rho_star(entries, floor)
        assert got == pytest.approx(full_path_rho_star(entries, floor), rel=1e-12)

    def test_top_at_the_isolation_boundary_is_accepted_and_agrees(self):
        # two uncorrelated equicorrelated blocks, 24 and 19 series at 0.5: the
        # top leads by lambda_2 / lambda_1 = 10 / 12.5 = 0.8, so each power step
        # from the all-ones vector shrinks the error by only 0.8, yet the
        # Frobenius test still certifies the gap (the rest sum to 10.25 squared)
        n = 43
        entries = np.zeros((n, n))
        entries[:24, :24] = entries[24:, 24:] = 0.5
        np.fill_diagonal(entries, 1.0)
        values = np.linalg.eigvalsh(entries)
        assert values[-2] / values[-1] == pytest.approx(0.8, rel=1e-12)
        got = leading_pair_rho_star(entries, correlation_floor(n))
        assert got is not None
        assert got == pytest.approx(full_path_rho_star(entries, correlation_floor(n)), rel=1e-12)

    def test_degenerate_top_is_declined(self):
        entries = np.kron(np.eye(2), uniform_correlation(self.N // 2, 0.5))
        assert leading_pair_rho_star(entries, None) is None
        assert leading_pair_rho_star(entries, correlation_floor(self.N)) is None

    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.9])
    def test_gap_is_a_lower_bound_on_the_top_gap(self, rho):
        b = np.random.default_rng(4).uniform(np.sqrt(rho), 1.0, self.N)
        entries = np.outer(b, b)
        np.fill_diagonal(entries, 1.0)
        values = np.linalg.eigvalsh(entries)
        decomposition = conditioning._leading_pair(CorrelationMatrix(entries), None)
        assert 0 < decomposition.top_gap <= values[-1] - values[-2]


class TestRepairPasses:
    def test_wrapper_outputs_record_the_pass_count(self, eigensolves):
        _, clear = _condition(CorrelationMatrix(uniform_correlation(4, 0.2)), 1e-6)
        assert clear["repair_passes"] == len(eigensolves) == 1
        _, repaired = _condition(CorrelationMatrix(NON_PSD), correlation_floor(3))
        assert repaired["repair_passes"] == len(eigensolves) - 1 >= 2
        vols = np.array([1.0, 2.0, 3.0])
        cov = CovarianceMatrix(NON_PSD * np.outer(vols, vols))
        assert _condition(cov, correlation_floor(3))[1]["repair_passes"] == repaired["repair_passes"]

    def test_no_floor_returns_the_input_with_no_passes(self, eigensolves):
        corr = CorrelationMatrix(NON_PSD)
        out, record = _condition(corr, None)
        assert out is corr
        assert record == {"repair_passes": 0, "min_eigenvalue_input": _spectrum(corr)[0].min()}
        assert record["min_eigenvalue_input"] == pytest.approx(-0.8, abs=1e-12)
        assert len(eigensolves) == 1


@pytest.mark.parametrize("n", [2, 7])
def test_source_dim_is_the_length_of_the_vectors(n):
    # a property, not a field: the leading pair's one N x 1 column carries it too
    assert "source_dim" not in {f.name for f in dataclasses.fields(SpectralDecomposition)}
    entries = uniform_correlation(n, 0.3)
    full = eigendecompose(CorrelationMatrix(entries))
    leading = conditioning._leading_pair(CorrelationMatrix(entries), correlation_floor(n))
    assert leading.eigenvectors.shape == (n, 1)
    for decomposition in (full, leading):
        assert decomposition.source_dim == decomposition.eigenvectors.shape[0] == n
