"""Turnover models built on the correlation spectrum: sign-basis fixing,
the full weighted component-sum model, its leading-eigenvalue limit,
reduction coefficients, single-alpha calibration, and linear-cost P&L."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .conditioning import MatrixLike, SpectralDecomposition, _matrix_entries
from .errors import CalibrationError, DegenerateTopWarning

_TRACE_RTOL = 1e-6
_CONDITION_LIMIT = 1e12
# the top eigenvalue is degenerate when lambda_1 - lambda_2 <= this * N * |lambda_1|
_DEGENERACY_RTOL = 1e-10


@dataclass(frozen=True)
class SignedBasis:
    """Decomposition re-signed so the leading eigenvector is componentwise >= 0.

    ``signs`` records the per-series reflection applied row-wise to every
    eigenvector; eigenvalues are untouched. ``top_degenerate`` marks a
    leading eigenvalue too close to the next one for leading-eigenvector
    quantities to be well defined (see :func:`fix_sign_basis`).
    """

    signs: np.ndarray
    decomposition: SpectralDecomposition
    top_degenerate: bool

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.decomposition.eigenvalues

    @property
    def eigenvectors(self) -> np.ndarray:
        return self.decomposition.eigenvectors

    @property
    def first_eigenvector(self) -> np.ndarray:
        return self.decomposition.eigenvectors[:, 0]

    @property
    def size(self) -> int:
        return self.decomposition.source_dim

    def reflect(self, matrix: MatrixLike) -> np.ndarray:
        """Matrix entries re-expressed in the re-signed series basis."""
        return _matrix_entries(matrix) * np.outer(self.signs, self.signs)


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
    flipped = decomp.eigenvectors * signs[:, None]
    resigned = SpectralDecomposition(
        decomp.eigenvalues,
        flipped,
        decomp.source_dim,
        decomp.top_gap,
        decomp.orthonormality_residual,
    )
    return SignedBasis(signs, resigned, bool(decomp.top_gap <= tolerance))


def _as_turnovers(weighted_turnovers, n: int | None = None) -> np.ndarray:
    t = np.asarray(weighted_turnovers, dtype=float)
    if t.ndim != 1:
        raise ValueError("weighted turnovers must be a 1-D vector")
    if n is not None and t.shape != (n,):
        raise ValueError(f"weighted turnovers must have length {n}, got {t.shape[0]}")
    if not np.isfinite(t).all() or (t < 0).any():
        raise ValueError("weighted turnovers must be finite and nonnegative")
    return t


def _require_correlation_basis(basis: SignedBasis) -> None:
    n = basis.size
    if abs(float(basis.eigenvalues.sum()) - n) > _TRACE_RTOL * n:
        raise ValueError(
            "basis must come from a correlation matrix (eigenvalues sum to N)"
        )


def spectral_terms(basis: SignedBasis, weighted_turnovers) -> np.ndarray:
    """Per-component contributions ``w_p * |V^(p) . T|`` before normalization."""
    t = _as_turnovers(weighted_turnovers, basis.size)
    projections = basis.eigenvectors.T @ t
    return basis.eigenvalues * np.abs(projections)


def spectral_turnover_full(basis: SignedBasis, weighted_turnovers) -> float:
    """All-components turnover model ``sum_p w_p |V^(p) . T| / sqrt(N)``.

    Exactly reproduces the closed form ``(1 + (N-1) rho) / N * sum(T)`` on
    a uniform-correlation basis with equal turnovers. On nearly uncorrelated
    matrices the finite-N value exceeds ``sum(T)/N`` (the model targets the
    large-N regime; the leading-component share quantifies how far off it is).
    """
    _require_correlation_basis(basis)
    terms = spectral_terms(basis, weighted_turnovers)
    return float(terms.sum() / math.sqrt(basis.size))


def p1_share(basis: SignedBasis, weighted_turnovers) -> float:
    """Fraction of the full model carried by the leading component; NaN when
    the model's total is not positive, where a share has no meaning."""
    terms = spectral_terms(basis, weighted_turnovers)
    total = float(terms.sum())
    if total <= 0.0:
        return math.nan
    return float(terms[0]) / total


def spectral_turnover_large_n(basis: SignedBasis, weighted_turnovers) -> float:
    """Leading-component approximation ``w_1 (V^(1) . T) / sqrt(N)``.

    Higher components shrink like 1/N for generic turnover profiles. A
    degenerate leading eigenvalue makes the result basis-dependent; the
    value is still returned but flagged with :class:`DegenerateTopWarning`.
    """
    t = _as_turnovers(weighted_turnovers, basis.size)
    if basis.top_degenerate:
        warnings.warn(
            "leading eigenvalue is degenerate; large-N turnover depends on an "
            "arbitrary basis choice",
            DegenerateTopWarning,
            stacklevel=2,
        )
    return _large_n(basis, t)


def _large_n(basis: SignedBasis, t: np.ndarray) -> float:
    """:func:`spectral_turnover_large_n` on checked turnovers, without its warning."""
    return float(
        basis.eigenvalues[0] * (basis.first_eigenvector @ t) / math.sqrt(basis.size)
    )


def rho_star(basis: SignedBasis) -> float:
    """Turnover reduction coefficient ``w_1 * sum_i V^(1)_i / (N sqrt(N))``.

    Nonnegative in the sign-fixed basis; warns when the leading eigenvalue
    is degenerate (the eigenvector, and hence the value, is then arbitrary).
    """
    if basis.top_degenerate:
        warnings.warn(
            "leading eigenvalue is degenerate; rho_star depends on an arbitrary "
            "basis choice",
            DegenerateTopWarning,
            stacklevel=2,
        )
    return _rho_star(basis)


def _rho_star(basis: SignedBasis) -> float:
    """:func:`rho_star` without its warning, for callers that record the
    degeneracy themselves."""
    n = basis.size
    return float(
        basis.eigenvalues[0] * basis.first_eigenvector.sum() / (n * math.sqrt(n))
    )


def rho_prime(corr: MatrixLike) -> tuple[float, float, float]:
    """Mean-based proxies ``(psi_star, rho_prime, rho_bar)``.

    ``psi_star = sum_ij corr_ij / N`` is the least-squares scalar matching
    the row sums (i.e. their mean), ``rho_prime = psi_star / N`` and
    ``rho_bar = (psi_star - 1) / (N - 1)`` is the mean off-diagonal
    correlation. Assumes a unit-diagonal matrix.
    """
    entries = _matrix_entries(corr)
    n = entries.shape[0]
    if n < 2:
        raise ValueError("mean off-diagonal correlation undefined for one series")
    psi_star = float(entries.sum()) / n
    return psi_star, psi_star / n, (psi_star - 1.0) / (n - 1)


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
    if residual > 1e-6 * max(1.0, abs(lead)):
        raise ValueError("correlation matrix does not match the supplied basis")


def rho_star_factored(basis: SignedBasis, corr: MatrixLike) -> FactoredRelation:
    """Factored approximation ``sqrt((w_1 / N) * rho_prime)`` and its gap.

    ``corr`` must be the matrix the basis was computed from. The mean-based
    quantities are evaluated in the re-signed basis, where the exact identity
    ``rho_prime = sum_p (sum_i V^(p)_i)^2 w_p / N^2`` holds
    (``rho_prime_spectral`` reports the right-hand side). When ``rho_star``
    is zero the gap is reported as an absolute difference instead.
    """
    reflected = basis.reflect(corr)
    _check_matches_basis(basis, reflected)
    psi_star, rho_p, rho_bar = rho_prime(reflected)
    n = basis.size
    rho_one = float(basis.eigenvalues[0]) / n
    product = rho_one * rho_p
    factored = math.sqrt(product) if product >= 0 else math.nan
    star = _rho_star(basis)
    column_sums = basis.eigenvectors.sum(axis=0)
    spectral = float((column_sums**2 * basis.eigenvalues).sum()) / n**2
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
    single-alpha input."""

    coefficients: np.ndarray
    abs_eigvec_matrix: np.ndarray
    condition_estimate: float
    has_negative: bool


def calibrate_exact_B(basis: SignedBasis) -> ExactCalibration:
    """Solve ``sum_p B_p |V^(p)_i| = 1`` for every series i.

    Fails when the absolute-eigenvector matrix is singular or has a
    condition number at or above 1e12. Any 2x2 correlation with a nonzero
    off-diagonal is unsolvable: both absolute columns coincide. For generic
    matrices some coefficients come out negative (``has_negative``).
    """
    a = np.abs(basis.eigenvectors)
    condition = float(np.linalg.cond(a))
    if not math.isfinite(condition) or condition >= _CONDITION_LIMIT:
        raise CalibrationError(
            f"absolute-eigenvector matrix has condition estimate {condition:.3e} "
            f"(limit {_CONDITION_LIMIT:.0e}); single-alpha calibration is unsolvable"
        )
    try:
        coefficients = np.linalg.solve(a, np.ones(basis.size))
    except np.linalg.LinAlgError as exc:
        raise CalibrationError("absolute-eigenvector matrix is singular") from exc
    residual = float(np.abs(a @ coefficients - 1.0).max())
    if residual > 1e-8:
        raise CalibrationError(f"calibration residual {residual:.3e} exceeds 1e-8")
    return ExactCalibration(
        coefficients, a, condition, bool((coefficients < 0).any())
    )


def turnover_exact_b(
    basis: SignedBasis, calibration: ExactCalibration, weighted_turnovers
) -> float:
    """Evaluate the calibrated model ``sum_p B_p |V^(p) . T|``."""
    t = _as_turnovers(weighted_turnovers, basis.size)
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
    """Per-alpha turnovers, weights and expected returns for P&L accounting.

    ``individual_turnovers`` are fractions of invested dollars traded per
    period; weights must satisfy ``sum |w_i| = 1`` (negative weights are
    fine). ``linear_cost_rate`` is cost per dollar traded.
    """

    individual_turnovers: np.ndarray
    weights: np.ndarray
    investment: float = 1.0
    linear_cost_rate: float = 0.0
    alphas_now: np.ndarray | None = None

    def __post_init__(self) -> None:
        tau = np.asarray(self.individual_turnovers, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if tau.ndim != 1 or w.shape != tau.shape:
            raise ValueError("turnovers and weights must be 1-D and equally long")
        if not np.isfinite(tau).all() or (tau <= 0).any():
            raise ValueError("individual turnovers must be positive and finite")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if abs(float(np.abs(w).sum()) - 1.0) > 1e-10:
            raise ValueError("weights must satisfy sum |w_i| = 1")
        if self.investment <= 0:
            raise ValueError("investment must be positive")
        if self.linear_cost_rate < 0:
            raise ValueError("linear_cost_rate must be nonnegative")
        alphas = self.alphas_now
        alphas = np.zeros_like(tau) if alphas is None else np.asarray(alphas, float)
        if alphas.shape != tau.shape or not np.isfinite(alphas).all():
            raise ValueError("alphas_now must be finite and match turnovers")
        object.__setattr__(self, "individual_turnovers", tau)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "alphas_now", alphas)

    @property
    def weighted_turnovers(self) -> np.ndarray:
        """T_i = tau_i |w_i|."""
        return self.individual_turnovers * np.abs(self.weights)


def naive_turnover(inputs: TurnoverInputs) -> float:
    """No-crossing reference ``sum_i tau_i |w_i|``."""
    return float(inputs.weighted_turnovers.sum())


def pnl_with_costs(inputs: TurnoverInputs, turnover: float) -> float:
    """``I * sum(alpha_i w_i) - cost_rate * I * turnover``; may go negative."""
    if turnover < 0:
        raise ValueError("turnover must be nonnegative")
    gross = inputs.investment * float(inputs.alphas_now @ inputs.weights)
    traded = inputs.investment * turnover
    return gross - inputs.linear_cost_rate * traded


@dataclass
class TurnoverReport:
    """Every turnover estimate and reduction coefficient for one matrix."""

    t_full: float
    t_large_n: float
    t_t2: float
    rho_star: float
    rho_prime: float
    psi_star: float
    rho_bar: float
    rho_one: float
    rho_star_factored: float
    p1_share: float
    warnings: list[str]
    basis: SignedBasis = field(repr=False)
    digest: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "T_full": self.t_full,
            "T_large_n": self.t_large_n,
            "T_t2": self.t_t2,
            "rho_star": self.rho_star,
            "rho_prime": self.rho_prime,
            "psi_star": self.psi_star,
            "rho_bar": self.rho_bar,
            "rho_one": self.rho_one,
            "rho_star_factored": self.rho_star_factored,
            "rho_star_prime_max": max(self.rho_star, self.rho_prime),
            "p1_share": self.p1_share,
            "normalization": "inverse-sqrt-trace",
            "warnings": list(self.warnings),
            "inputs": dict(self.digest),
        }


def turnover_report(
    basis: SignedBasis, corr: MatrixLike, weighted_turnovers, digest: dict | None = None
) -> TurnoverReport:
    """Evaluate all models and coefficients on one matrix/basis pair.

    ``rho_star`` and ``rho_prime`` can disagree at finite N, so both are
    reported (plus their max in the serialized form) rather than silently
    picking one. Degeneracy of the leading eigenvalue is recorded in
    ``warnings`` instead of raising. ``T_full`` and ``p1_share`` come from
    :func:`spectral_turnover_full` and :func:`p1_share`, so the basis must
    come from a correlation matrix (eigenvalues summing to N).
    """
    t = _as_turnovers(weighted_turnovers, basis.size)
    t_full = spectral_turnover_full(basis, t)
    t_large = _large_n(basis, t)
    relation = rho_star_factored(basis, corr)
    t_t2 = turnover_t2(relation.rho_star, t)
    notes: list[str] = []
    if basis.top_degenerate:
        notes.append(
            "degenerate-top: leading eigenvalue not isolated; rho_star and "
            "T_large_n depend on an arbitrary basis choice"
        )
    return TurnoverReport(
        t_full=t_full,
        t_large_n=t_large,
        t_t2=t_t2,
        rho_star=relation.rho_star,
        rho_prime=relation.rho_prime,
        psi_star=relation.psi_star,
        rho_bar=relation.rho_bar,
        rho_one=relation.rho_one,
        rho_star_factored=relation.factored_value,
        p1_share=p1_share(basis, t),
        warnings=notes,
        basis=basis,
        digest=digest or {},
    )
