"""Turnover models built on the correlation spectrum: sign-basis fixing,
the full weighted component-sum model, its leading-eigenvalue limit,
reduction coefficients and single-alpha calibration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditioning import MatrixLike, SpectralDecomposition
from .errors import CalibrationError

# How far a basis may miss the matrix it is said to come from, relative to the
# scale (its eigenvalues' sum against N; its top pair's residual on the
# matrix): far above a solve's rounding, so it refuses a mismatched pair only.
_BASIS_RTOL = 1e-6
# the condition number of |V| at which calibration is refused: past it, a
# solve's coefficients keep fewer than about 4 digits (cond * eps > 1e-4)
_CONDITION_LIMIT = 1e12
# how far the calibrated model may miss 1 on a single-alpha input: a solve
# that misses by more does not calibrate the model, whatever its condition
_CALIBRATION_RESIDUAL = 1e-8
# the top eigenvalue is degenerate when lambda_1 - lambda_2 <= this * N * |lambda_1|:
# about 5e5 times what a solve resolves, so no rounding-level gap passes as isolated
_DEGENERACY_RTOL = 1e-10
# how far sum |w_i| may sit from 1: room for the rounding of weights that a
# caller normalized in floats, about N * eps
_WEIGHT_SUM_TOL = 1e-10


@dataclass(frozen=True)
class SignedBasis(SpectralDecomposition):
    """A decomposition re-signed so the leading eigenvector is componentwise
    >= 0, built by :func:`fix_sign_basis`.

    It is the decomposition itself, its ``eigenvectors`` reflected row-wise
    by ``signs``, the per-series reflection; its eigenvalues, ``top_gap`` and
    ``orthonormality_residual`` are the source's, untouched.
    ``top_degenerate`` marks a leading eigenvalue too close to the next one
    for leading-eigenvector quantities to be well defined; it is the
    package's one report of that, and the functions that read the leading
    pair return their value for this basis either way, with no warning.
    """

    signs: np.ndarray
    top_degenerate: bool

    @property
    def first_eigenvector(self) -> np.ndarray:
        return self.eigenvectors[:, 0]

    def reflect(self, matrix: MatrixLike) -> np.ndarray:
        """A wrapper's entries re-expressed in the re-signed series basis: a
        fresh array, exactly symmetric as the entries are."""
        return matrix.entries * np.outer(self.signs, self.signs)


def fix_sign_basis(decomp: SpectralDecomposition) -> SignedBasis:
    """Flip series signs so every component of the leading eigenvector is >= 0.

    Components that are exactly zero keep sign +1. The same flip is applied
    to every eigenvector row, which re-expresses the source matrix in the
    reflected basis while leaving all eigenvalues unchanged. Applying the
    resulting signs twice recovers the original decomposition.

    The top is flagged degenerate when ``top_gap <= 1e-10 * N * |lambda_1|``,
    a tolerance relative to the spectrum's scale, so scaling the matrix
    never changes the flag (and an all-zero spectrum is degenerate).
    """
    tolerance = _DEGENERACY_RTOL * decomp.source_dim * abs(float(decomp.eigenvalues[0]))
    signs = np.where(decomp.eigenvectors[:, 0] < 0.0, -1.0, 1.0)
    return SignedBasis(
        decomp.eigenvalues, decomp.eigenvectors * signs[:, None], decomp.top_gap,
        decomp.orthonormality_residual, signs, bool(decomp.top_gap <= tolerance),
    )


def _as_turnovers(weighted_turnovers, n: int | None = None) -> np.ndarray:
    t = np.asarray(weighted_turnovers, dtype=float)
    if t.ndim != 1:
        raise ValueError("weighted turnovers must be a 1-D vector")
    if n is not None and t.shape != (n,):
        raise ValueError(f"weighted turnovers must have length {n}, got {t.shape[0]}")
    if not np.isfinite(t).all() or (t < 0).any():
        raise ValueError("weighted turnovers must be finite and nonnegative")
    return t


def _require_every_pair(basis: SignedBasis) -> None:
    """Refuse a basis that holds only some eigenpairs (a top pair from
    ``conditioning._leading_pair``, say) where every one is needed."""
    held, n = basis.eigenvectors.shape[1], basis.source_dim
    if held != n:
        raise ValueError(f"basis holds {held} of its {n} eigenpairs; this quantity needs all {n}")


def _require_correlation_basis(basis: SignedBasis) -> None:
    n = basis.source_dim
    if abs(float(basis.eigenvalues.sum()) - n) > _BASIS_RTOL * n:
        raise ValueError(
            "basis must come from a correlation matrix (eigenvalues sum to N)"
        )


def spectral_terms(basis: SignedBasis, weighted_turnovers) -> np.ndarray:
    """Per-component contributions ``w_p * |V^(p) . T|`` before normalization,
    one for each eigenpair the basis holds."""
    t = _as_turnovers(weighted_turnovers, basis.source_dim)
    projections = basis.eigenvectors.T @ t
    return basis.eigenvalues * np.abs(projections)


def spectral_turnover_full(basis: SignedBasis, weighted_turnovers) -> float:
    """All-components turnover model ``sum_p w_p |V^(p) . T| / sqrt(N)``.

    Exactly reproduces the closed form ``(1 + (N-1) rho) / N * sum(T)`` on
    a uniform-correlation basis with equal turnovers. On nearly uncorrelated
    matrices the finite-N value exceeds ``sum(T)/N`` (the model targets the
    large-N regime; the leading-component share quantifies how far off it is).
    """
    _require_every_pair(basis)
    _require_correlation_basis(basis)
    terms = spectral_terms(basis, weighted_turnovers)
    return float(terms.sum() / math.sqrt(basis.source_dim))


def p1_share(basis: SignedBasis, weighted_turnovers) -> float:
    """Fraction of the full model carried by the leading component; NaN when
    the model's total is not positive, where a share has no meaning. The
    basis must hold every eigenpair."""
    _require_every_pair(basis)
    terms = spectral_terms(basis, weighted_turnovers)
    total = float(terms.sum())
    if total <= 0.0:
        return math.nan
    return float(terms[0]) / total


def spectral_turnover_large_n(basis: SignedBasis, weighted_turnovers) -> float:
    """Leading-component approximation ``w_1 (V^(1) . T) / sqrt(N)``.

    Higher components shrink like 1/N for generic turnover profiles. When
    ``basis.top_degenerate`` is set the leading eigenvector, and hence the
    value, is an arbitrary choice within the top eigenspace.
    """
    t = _as_turnovers(weighted_turnovers, basis.source_dim)
    return float(
        basis.eigenvalues[0] * (basis.first_eigenvector @ t) / math.sqrt(basis.source_dim)
    )


def rho_star(basis: SignedBasis) -> float:
    """Turnover reduction coefficient ``w_1 * sum_i V^(1)_i / (N sqrt(N))``.

    Nonnegative in the sign-fixed basis. When ``basis.top_degenerate`` is
    set the leading eigenvector, and hence the value, is an arbitrary choice
    within the top eigenspace.
    """
    n = basis.source_dim
    return float(
        basis.eigenvalues[0] * basis.first_eigenvector.sum() / (n * math.sqrt(n))
    )


@dataclass(frozen=True)
class FactoredRelation:
    """Comparison of rho_star with the factored value sqrt(rho_one * rho_prime)."""

    rho_one: float
    factored_value: float
    relative_gap: float
    gap_is_absolute: bool
    rho_star: float
    rho_prime: float
    psi_star: float
    rho_bar: float
    rho_prime_spectral: float


def _check_matches_basis(basis: SignedBasis, reflected: np.ndarray) -> None:
    # cheap eigen-residual check that the matrix and basis belong together
    lead = float(basis.eigenvalues[0])
    v1 = basis.first_eigenvector
    residual = float(np.abs(reflected @ v1 - lead * v1).max())
    if residual > _BASIS_RTOL * max(1.0, abs(lead)):
        raise ValueError("correlation matrix does not match the supplied basis")


def rho_star_factored(basis: SignedBasis, corr: MatrixLike) -> FactoredRelation:
    """Factored approximation ``sqrt((w_1 / N) * rho_prime)`` and its gap.

    ``corr`` must be the matrix the basis was computed from. The mean-based
    quantities are evaluated in the re-signed basis, so that, like the
    turnover ``T_i = tau_i |w_i|``, they do not change when an alpha is
    written with the opposite sign: ``psi_star = sum_ij C_ij / N``, the
    least-squares scalar matching the row sums (their mean), ``rho_prime =
    psi_star / N`` and ``rho_bar = (psi_star - 1) / (N - 1)``, the mean
    off-diagonal correlation, of the reflected matrix ``C``. The identity
    ``rho_prime = sum_p (sum_i V^(p)_i)^2 w_p / N^2`` holds in any
    eigenbasis of ``C`` (``rho_prime_spectral`` reports the right-hand
    side; NaN on a basis that holds only some eigenpairs, whose sum would
    miss terms, while the fields read from ``C`` itself stay exact). When
    ``rho_star`` is zero the gap is reported as an absolute difference
    instead.
    """
    reflected = basis.reflect(corr)
    _check_matches_basis(basis, reflected)
    n = basis.source_dim
    if n < 2:
        raise ValueError("mean off-diagonal correlation undefined for one series")
    psi_star = float(reflected.sum()) / n
    rho_p, rho_bar = psi_star / n, (psi_star - 1.0) / (n - 1)
    rho_one = float(basis.eigenvalues[0]) / n
    product = rho_one * rho_p
    factored = math.sqrt(product) if product >= 0 else math.nan
    star = rho_star(basis)
    column_sums = basis.eigenvectors.sum(axis=0)
    held_sum = float((column_sums**2 * basis.eigenvalues).sum()) / n**2
    spectral = held_sum if column_sums.size == n else math.nan
    if star > 0:
        gap, absolute = abs(star - factored) / star, False
    else:
        gap, absolute = abs(star - factored), True
    return FactoredRelation(
        rho_one, factored, gap, absolute, star, rho_p, psi_star, rho_bar, spectral
    )


@dataclass(frozen=True)
class ExactCalibration:
    """Coefficients making the |projection| model return tau_l on every
    single-alpha input; ``has_negative`` marks a negative coefficient."""

    coefficients: np.ndarray
    has_negative: bool


def calibrate_exact_B(basis: SignedBasis) -> ExactCalibration:
    """Solve ``sum_p B_p |V^(p)_i| = 1`` for every series i.

    Fails when the absolute-eigenvector matrix is singular or has a
    condition number at or above 1e12. Any 2x2 correlation with a nonzero
    off-diagonal is unsolvable: both absolute columns coincide. For generic
    matrices some coefficients come out negative (``has_negative``). A basis
    that holds only some eigenpairs raises ``ValueError``.
    """
    _require_every_pair(basis)
    a = np.abs(basis.eigenvectors)
    condition = float(np.linalg.cond(a))
    if not math.isfinite(condition) or condition >= _CONDITION_LIMIT:
        raise CalibrationError(
            f"absolute-eigenvector matrix has condition estimate {condition:.3e} "
            f"(limit {_CONDITION_LIMIT:.0e}); single-alpha calibration is unsolvable"
        )
    try:
        coefficients = np.linalg.solve(a, np.ones(basis.source_dim))
    except np.linalg.LinAlgError as exc:
        raise CalibrationError("absolute-eigenvector matrix is singular") from exc
    residual = float(np.abs(a @ coefficients - 1.0).max())
    if residual > _CALIBRATION_RESIDUAL:
        raise CalibrationError(f"calibration residual {residual:.3e} exceeds {_CALIBRATION_RESIDUAL}")
    return ExactCalibration(coefficients, bool((coefficients < 0).any()))


def turnover_exact_b(
    basis: SignedBasis, calibration: ExactCalibration, weighted_turnovers
) -> float:
    """Evaluate the calibrated model ``sum_p B_p |V^(p) . T|``."""
    t = _as_turnovers(weighted_turnovers, basis.source_dim)
    return float(calibration.coefficients @ np.abs(basis.eigenvectors.T @ t))


def turnover_t2(rho_star_value: float, weighted_turnovers) -> float:
    """Cross-sectional-average model ``rho_star * sum_i T_i``.

    Matches the leading-component model when individual turnovers are
    uniform, and sidesteps leading-eigenvector components that happen to be
    small for particular series.
    """
    if rho_star_value < 0:
        raise ValueError("rho_star must be nonnegative")
    t = _as_turnovers(weighted_turnovers)
    return float(rho_star_value * t.sum())


@dataclass(frozen=True)
class TurnoverInputs:
    """Per-alpha turnovers and weights.

    ``individual_turnovers`` are fractions of invested dollars traded per
    period; weights must satisfy ``sum |w_i| = 1`` (negative weights are
    fine).
    """

    individual_turnovers: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        tau = np.asarray(self.individual_turnovers, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if tau.ndim != 1 or w.shape != tau.shape:
            raise ValueError("turnovers and weights must be 1-D and equally long")
        if not np.isfinite(tau).all() or (tau <= 0).any():
            raise ValueError("individual turnovers must be positive and finite")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if abs(float(np.abs(w).sum()) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError("weights must satisfy sum |w_i| = 1")
        object.__setattr__(self, "individual_turnovers", tau)
        object.__setattr__(self, "weights", w)

    @property
    def weighted_turnovers(self) -> np.ndarray:
        """T_i = tau_i |w_i|."""
        return self.individual_turnovers * np.abs(self.weights)


def naive_turnover(inputs: TurnoverInputs) -> float:
    """No-crossing reference ``sum_i tau_i |w_i|``."""
    return float(inputs.weighted_turnovers.sum())


def turnover_report(basis: SignedBasis, corr: MatrixLike, weighted_turnovers) -> dict:
    """Evaluate all models and coefficients on one matrix/basis pair.

    The report holds ``T_full``, ``T_large_n``, ``T_t2``, ``rho_star``,
    ``rho_prime``, ``psi_star``, ``rho_bar``, ``rho_one``,
    ``rho_star_factored``, ``rho_star_prime_max``, ``p1_share``,
    ``normalization`` and ``warnings``; a caller that records where the
    matrix came from adds that itself (``analyze`` adds ``inputs``).
    ``rho_star`` and ``rho_prime`` can disagree at finite N, so both are
    reported, with their max, rather than silently picking one. Degeneracy
    of the leading eigenvalue is recorded in ``warnings`` instead of
    raising. ``T_full`` and ``p1_share`` come from
    :func:`spectral_turnover_full` and :func:`p1_share`, so the basis must
    come from a correlation matrix (eigenvalues summing to N).
    """
    t = _as_turnovers(weighted_turnovers, basis.source_dim)
    t_full = spectral_turnover_full(basis, t)
    relation = rho_star_factored(basis, corr)
    notes: list[str] = []
    if basis.top_degenerate:
        notes.append(
            "degenerate-top: leading eigenvalue not isolated; rho_star and "
            "T_large_n depend on an arbitrary basis choice"
        )
    return {
        "T_full": t_full,
        "T_large_n": spectral_turnover_large_n(basis, t),
        "T_t2": turnover_t2(relation.rho_star, t),
        "rho_star": relation.rho_star,
        "rho_prime": relation.rho_prime,
        "psi_star": relation.psi_star,
        "rho_bar": relation.rho_bar,
        "rho_one": relation.rho_one,
        "rho_star_factored": relation.factored_value,
        "rho_star_prime_max": max(relation.rho_star, relation.rho_prime),
        "p1_share": p1_share(basis, t),
        "normalization": "inverse-sqrt-trace",
        "warnings": notes,
    }
