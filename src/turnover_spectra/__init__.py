"""Turnover-reduction analytics for internally crossed alpha streams.

Combining many alpha streams on one execution platform nets offsetting
trades internally, so the combined book trades less than the sum of its
parts. This package estimates that reduction from the alpha correlation
matrix: panel ingestion with missing-data policies, redundancy pruning and
positive-definite repair, spectral turnover models built on the leading
eigenvalue/eigenvector, and a Monte-Carlo netting simulator for empirical
comparison.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# The public names, by the submodule that defines each. A name is imported on
# first use (PEP 562), so ``import turnover_spectra`` loads no numpy, and the
# command line can still choose numpy's BLAS thread count (see ``cli``).
_EXPORTS = {
    "conditioning": (
        "MatrixLike", "SpectralDecomposition", "classify_definiteness",
        "correlation_from_csv", "default_floor", "eigendecompose",
        "matrix_report", "matrix_to_csv", "prune_redundant", "rj_repair",
    ),
    "errors": (
        "CalibrationError", "CollinearFactorsError", "CoverageError",
        "DegenerateSeriesError", "DegenerateTopWarning",
        "InvalidDiagonalError", "InvalidMatrixError", "PanelFormatError",
        "RejectedSeriesError", "TurnoverSpectraError", "UndefinedRegressorError",
    ),
    "panel": (
        "COMPLETE_CASES", "PAIRWISE_COMPLETE",
        "CorrelationMatrix", "CovarianceMatrix", "TimeSeriesPanel",
        "load_panel", "ols_residualize", "sample_moments", "write_panel",
    ),
    "simulate": (
        "SimConfig", "SimResult", "SweepResult",
        "gen_one_factor_panel", "gen_trade_matrix", "no_intercept_regression",
        "one_factor_correlation", "one_factor_source", "panel_source",
        "simulate_crossing", "simulate_crossing_paths", "sweep_rho_star", "sweep_to_csv",
    ),
    "turnover": (
        "ExactCalibration", "FactoredRelation", "SignedBasis",
        "TurnoverInputs", "calibrate_exact_B", "fix_sign_basis",
        "naive_turnover", "p1_share", "rho_star",
        "rho_star_factored", "spectral_terms", "spectral_turnover_full",
        "spectral_turnover_large_n", "turnover_exact_b", "turnover_report",
        "turnover_t2",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A public name, from the submodule that defines it; or one of those
    submodules, which the package used to import eagerly."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
