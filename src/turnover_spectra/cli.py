"""Command-line front end: analyze panels, repair matrices, sweep the
reduction coefficient across N, and run crossing simulations.

Each command reads its own parsed arguments, and its artifact's ``config``
block echoes exactly those arguments (the flags' ``dest`` names), after
``main`` has resolved the seed, the grid and the estimation mode.

Exit codes: 0 success; 1 I/O or parse failure: a missing file, a bad
argument or a numeric flag out of range, a malformed CSV. Panels and matrix
CSVs share one reader and one header rule, so a blank or repeated id, or a
header with no data rows after it (a header-only matrix CSV included), exits
1 in either layout. 2 numeric-validity refusal: a matrix that is not square,
finite and symmetric, a correlation matrix whose diagonal is off 1 or whose
entries leave [-1, 1], a covariance matrix whose diagonal disagrees with its
vols (``InvalidMatrixError``, from ``repair`` and ``analyze --matrix``
alike), a non-positive diagonal to repair, a repair that does not converge, a
non-PSD matrix under ``--no-repair``, an indefinite quadratic form.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .conditioning import (
    _correlation_from_entries,
    _covariance_from_entries,
    _spectrum,
    _square_from_csv,
    classify_definiteness,
    correlation_from_csv,
    default_floor,
    eigendecompose,
    matrix_report,
    matrix_to_csv,
    prune_redundant,
    rj_repair,
)
from .errors import (
    IllDefinedVolatilityError,
    InvalidMatrixError,
    TurnoverSpectraError,
)
from .panel import (
    COMPLETE_CASES,
    PAIRWISE_COMPLETE,
    UNIT_DIAGONAL_TOL,
    load_panel,
    ols_residualize,
    sample_moments,
)
from .simulate import (
    SimConfig,
    SweepOptions,
    one_factor_generator,
    simulate_crossing_paths,
    sweep_rho_star,
    sweep_to_csv,
)
from .turnover import fix_sign_basis, turnover_report

SEED_ENV_VAR = "TURNOVER_SPECTRA_SEED"
EXIT_OK = 0
EXIT_IO = 1
EXIT_NUMERIC = 2

_MODE_BY_FLAG = {"complete": COMPLETE_CASES, "pairwise": PAIRWISE_COMPLETE}


class _Parser(argparse.ArgumentParser):
    # usage problems are parse failures, not the default argparse exit 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="turnover-spectra",
        description=(
            "Turnover-reduction analytics: estimate alpha correlations, "
            "condition them, and evaluate spectral turnover models."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    analyze = sub.add_parser("analyze", help="panel -> conditioned turnover report")
    analyze.add_argument("--input", dest="input_path", required=True,
                         help="panel CSV (or matrix CSV with --matrix)")
    analyze.add_argument("--output", dest="output_path", required=True, help="JSON report path")
    analyze.add_argument("--mode", dest="estimation_mode", choices=sorted(_MODE_BY_FLAG),
                         default="complete")
    analyze.add_argument("--prune", dest="prune_bound", type=float, default=0.9, metavar="BOUND",
                         help="redundancy bound on |correlation| (default 0.9)")
    analyze.add_argument("--repair", action=argparse.BooleanOptionalAction, default=True,
                         help="floor the spectrum to force positive definiteness")
    analyze.add_argument("--floor", dest="repair_floor", type=float, default=None,
                         help="eigenvalue floor (default 1e-8 * N)")
    # factors residualize a panel, so they have nothing to act on in a matrix
    source = analyze.add_mutually_exclusive_group()
    source.add_argument("--factors", dest="factor_path", default=None, metavar="PATH",
                        help="factor panel CSV; residualize the panel before estimating")
    source.add_argument("--matrix", dest="matrix_input", action="store_true",
                        help="treat --input as a correlation matrix CSV")

    repair = sub.add_parser("repair", help="matrix CSV -> positive-definite matrix CSV")
    repair.add_argument("--input", dest="input_path", required=True)
    repair.add_argument("--output", dest="output_path", required=True,
                        help="repaired matrix CSV (JSON summary alongside)")
    repair.add_argument("--floor", dest="repair_floor", type=float, default=None)

    sweep = sub.add_parser("sweep", help="rho_star * N versus N with through-origin fit")
    sweep.add_argument("--output", dest="output_path", required=True,
                       help="sweep CSV (JSON summary alongside)")
    sweep.add_argument("--grid", required=True, help="comma-separated N values, e.g. 50,100,200,400")
    sweep.add_argument("--rho", type=float, default=0.25)
    sweep.add_argument("--periods", dest="n_periods", type=int, default=2000,
                       help="panel length per grid point")
    sweep.add_argument("--mode", dest="estimation_mode", choices=sorted(_MODE_BY_FLAG),
                       default="complete")
    sweep.add_argument("--repair", action=argparse.BooleanOptionalAction, default=True)
    sweep.add_argument("--floor", dest="repair_floor", type=float, default=None)
    sweep.add_argument("--seed", type=int, default=0)

    simulate = sub.add_parser("simulate", help="Monte-Carlo trade-netting experiment")
    simulate.add_argument("--output", dest="output_path", required=True, help="JSON result path")
    simulate.add_argument("--rho", type=float, default=0.25)
    simulate.add_argument("--n-alphas", type=int, default=50)
    simulate.add_argument("--instruments", dest="n_instruments", type=int, default=4)
    simulate.add_argument("--paths", dest="n_paths", type=int, default=256)
    simulate.add_argument("--seed", type=int, default=0)

    return parser


# Each numeric flag's refusal rule, the library's own, checked before a command
# runs so that the message names the flag typed rather than a library field.
_FLAG_RULES = {
    "rho": ("--rho", "must lie in [0, 1]", lambda v: not 0.0 <= v <= 1.0),
    "n_periods": ("--periods", "must be at least 2", lambda v: v < 2),
    "n_alphas": ("--n-alphas", "must be at least 2", lambda v: v < 2),
    "n_instruments": ("--instruments", "must be at least 1", lambda v: v < 1),
    "n_paths": ("--paths", "must be at least 1", lambda v: v < 1),
    "prune_bound": ("--prune", "must lie in (0, 1)", lambda v: not 0.0 < v < 1.0),
    "repair_floor": (
        "--floor", "must be positive and finite", lambda v: v is not None and not 0 < v < math.inf
    ),
}


def _check_flags(args: argparse.Namespace) -> None:
    for dest, (flag, rule, refused) in _FLAG_RULES.items():
        if dest in args and refused(getattr(args, dest)):
            raise ValueError(f"{flag} {rule}, got {getattr(args, dest)}")


def _resolve_seed(cli_seed: int) -> int:
    """The seed from ``TURNOVER_SPECTRA_SEED`` when it is set, else ``--seed``;
    either must be an unsigned 64-bit integer (``SimConfig``'s rule, which
    ``sweep`` shares), and a refusal names the one that supplied it."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None or not raw.strip():
        source, seed = "--seed", cli_seed
    else:
        try:
            source, seed = SEED_ENV_VAR, int(raw)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    if not 0 <= seed < 2**64:
        raise ValueError(f"{source} must be an unsigned 64-bit integer, got {seed}")
    return seed


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return None
        return value
    return value


def _write_json(payload: dict, path: str | Path) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _parse_grid(spec: str) -> tuple[int, ...]:
    try:
        values = sorted({int(part) for part in spec.split(",") if part.strip()})
    except ValueError:
        raise ValueError(f"grid must be comma-separated integers, got {spec!r}") from None
    if len(values) < 2:
        raise ValueError("grid needs at least two distinct N values")
    if any(n < 2 for n in values):
        raise ValueError("grid values must be at least 2")
    return tuple(values)


def run_analyze(args: argparse.Namespace) -> int:
    residualized = False
    factor_ids: list[str] = []
    n_timestamps = None
    if args.matrix_input:
        corr = correlation_from_csv(args.input_path)
    else:
        panel = load_panel(args.input_path)
        n_timestamps = panel.n_periods
        if args.factor_path:
            factors = load_panel(args.factor_path)
            panel = ols_residualize(panel, factors, with_intercept=True, keep_intercept=True)
            residualized = True
            factor_ids = list(factors.series_ids)
        _, corr = sample_moments(panel, args.estimation_mode)
    n_input = corr.n

    kept, pruned = prune_redundant(corr, args.prune_bound)
    if pruned.n < 2:  # the mean off-diagonal correlation needs a pair
        raise ValueError(
            f"--prune {args.prune_bound} kept {pruned.n} of {n_input} series; "
            "the report needs at least 2"
        )
    floor = args.repair_floor if args.repair_floor is not None else default_floor(pruned.n)
    status_before = classify_definiteness(pruned)
    if not args.repair and status_before == "verified-not-PSD":
        print(
            "error: correlation matrix is not positive semi-definite; "
            "re-run with --repair to floor the spectrum",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    corr = rj_repair(pruned, floor) if args.repair else pruned

    # the classification's solve serves the repair's first pass, and the
    # repair hands its last solve on, so no spectrum below is solved again
    decomposition = eigendecompose(corr)
    basis = fix_sign_basis(decomposition)
    weighted = np.full(corr.n, 1.0 / corr.n)
    digest = {
        "n_series": n_input,
        "n_kept": corr.n,
        "kept_indices": list(kept),
        "n_timestamps": n_timestamps,
        "estimation_mode": corr.estimation_mode,
        "prune_bound": args.prune_bound,
        "repaired": bool(args.repair),
        "repair_floor": floor if args.repair else None,
        "psd_status_input": status_before,
        "min_eigenvalue_input": float(_spectrum(pruned)[0].min()),
        "min_eigenvalue_output": float(decomposition.eigenvalues[-1]),
        "repair_shift_fro": float(np.linalg.norm(corr.entries - pruned.entries)),
        "repair_passes": corr._repair_passes if args.repair else 0,
        "top_gap": decomposition.top_gap,
        "orthonormality_residual": decomposition.orthonormality_residual,
        "residualized": residualized,
        "factor_ids": factor_ids,
        "weights": "uniform (tau_i = 1, w_i = 1/N; turnovers are reduction factors)",
    }
    report = turnover_report(basis, corr, weighted, digest=digest)
    _write_json({"config": vars(args), "report": report.to_dict()}, args.output_path)
    return EXIT_OK


def run_repair(args: argparse.Namespace) -> int:
    ids, entries = _square_from_csv(args.input_path)
    if np.all(np.abs(np.diag(entries) - 1.0) <= UNIT_DIAGONAL_TOL):
        matrix = _correlation_from_entries(ids, entries)
    else:
        matrix = _covariance_from_entries(ids, entries)
    floor = args.repair_floor if args.repair_floor is not None else default_floor(matrix.n)
    repaired = rj_repair(matrix, floor)
    matrix_to_csv(repaired, args.output_path)
    summary = {
        "config": vars(args),
        "repair_floor": floor,
        "report": matrix_report(repaired),
    }
    _write_json(summary, Path(args.output_path).with_suffix(".json"))
    return EXIT_OK


def run_sweep(args: argparse.Namespace) -> int:
    generator = one_factor_generator(args.rho, args.n_periods)
    options = SweepOptions(
        estimation_mode=args.estimation_mode,
        repair=args.repair,
        repair_floor=args.repair_floor,
    )
    result = sweep_rho_star(args.grid, generator, options, args.seed)
    sweep_to_csv(result, args.output_path)
    summary = {
        "config": vars(args),
        "grid": list(result.grid),
        "rho_stars": list(result.rho_stars),
        "rho_star_times_n": list(result.rho_star_times_n),
        "slope_no_intercept": result.slope_no_intercept,
        "f_statistic": result.f_statistic if result.f_statistic is not None else "not-available",
        "residuals": list(result.residuals),
        "errors": list(result.errors),
        "solvers": list(result.solvers),
    }
    _write_json(summary, Path(args.output_path).with_suffix(".json"))
    return EXIT_OK


def run_simulate(args: argparse.Namespace) -> int:
    sim_config = SimConfig(
        n_alphas=args.n_alphas,
        n_periods=2,
        n_instruments=args.n_instruments,
        target_correlation=args.rho,
        master_seed=args.seed,
        n_paths=args.n_paths,
    )
    result = simulate_crossing_paths(sim_config)
    payload = {
        "config": vars(args),
        "gross_traded": result.gross_traded,
        "netted_traded": result.netted_traded,
        "crossing_ratio": result.crossing_ratio,
        "mean": result.mean,
        "std_error": result.std_error,
        "zero_gross_paths": result.zero_gross_paths,
        "per_path_ratios": list(result.per_path_ratios),
    }
    _write_json(payload, args.output_path)
    return EXIT_OK


_RUNNERS = {
    "analyze": run_analyze,
    "repair": run_repair,
    "sweep": run_sweep,
    "simulate": run_simulate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # only sweep and simulate draw random numbers, so only they take a seed
        if "seed" in args:
            args.seed = _resolve_seed(args.seed)
        if "grid" in args:
            args.grid = _parse_grid(args.grid)
        if "estimation_mode" in args:
            args.estimation_mode = _MODE_BY_FLAG[args.estimation_mode]
        _check_flags(args)
        return _RUNNERS[args.command](args)
    except (InvalidMatrixError, IllDefinedVolatilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (TurnoverSpectraError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
