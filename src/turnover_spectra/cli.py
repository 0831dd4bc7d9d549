"""Command-line front end: analyze panels, repair matrices, sweep the
reduction coefficient across N, and run crossing simulations.

Exit codes: 0 success, 1 I/O or parse failure, 2 numeric-validity refusal.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .conditioning import (
    _correlation_from_entries,
    _covariance_from_entries,
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
from .panel import COMPLETE_CASES, PAIRWISE_COMPLETE, load_panel, ols_residualize, sample_moments
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


@dataclass(frozen=True)
class RunConfig:
    """Echoed verbatim into every output artifact for reproducibility."""

    command: str
    input_path: str | None = None
    output_path: str | None = None
    estimation_mode: str = COMPLETE_CASES
    prune_bound: float = 0.9
    repair: bool = True
    repair_floor: float | None = None
    factor_path: str | None = None
    matrix_input: bool = False
    grid: tuple[int, ...] | None = None
    rho: float = 0.25
    seed: int = 0
    n_paths: int = 1
    n_alphas: int = 0
    n_instruments: int = 0
    n_periods: int = 0

    def echo(self) -> dict:
        return asdict(self)


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
    analyze.add_argument("--input", required=True, help="panel CSV (or matrix CSV with --matrix)")
    analyze.add_argument("--output", required=True, help="JSON report path")
    analyze.add_argument("--mode", choices=sorted(_MODE_BY_FLAG), default="complete")
    analyze.add_argument("--prune", type=float, default=0.9, metavar="BOUND",
                         help="redundancy bound on |correlation| (default 0.9)")
    analyze.add_argument("--repair", action=argparse.BooleanOptionalAction, default=True,
                         help="floor the spectrum to force positive definiteness")
    analyze.add_argument("--floor", type=float, default=None,
                         help="eigenvalue floor (default 1e-8 * N)")
    analyze.add_argument("--factors", default=None, metavar="PATH",
                         help="factor panel CSV; residualize the panel before estimating")
    analyze.add_argument("--matrix", action="store_true",
                         help="treat --input as a correlation matrix CSV")

    repair = sub.add_parser("repair", help="matrix CSV -> positive-definite matrix CSV")
    repair.add_argument("--input", required=True)
    repair.add_argument("--output", required=True, help="repaired matrix CSV (JSON summary alongside)")
    repair.add_argument("--floor", type=float, default=None)

    sweep = sub.add_parser("sweep", help="rho_star * N versus N with through-origin fit")
    sweep.add_argument("--output", required=True, help="sweep CSV (JSON summary alongside)")
    sweep.add_argument("--grid", required=True, help="comma-separated N values, e.g. 50,100,200,400")
    sweep.add_argument("--rho", type=float, default=0.25)
    sweep.add_argument("--periods", type=int, default=2000, help="panel length per grid point")
    sweep.add_argument("--mode", choices=sorted(_MODE_BY_FLAG), default="complete")
    sweep.add_argument("--repair", action=argparse.BooleanOptionalAction, default=True)
    sweep.add_argument("--floor", type=float, default=None)
    sweep.add_argument("--seed", type=int, default=0)

    simulate = sub.add_parser("simulate", help="Monte-Carlo trade-netting experiment")
    simulate.add_argument("--output", required=True, help="JSON result path")
    simulate.add_argument("--rho", type=float, default=0.25)
    simulate.add_argument("--n-alphas", type=int, default=50)
    simulate.add_argument("--instruments", type=int, default=4)
    simulate.add_argument("--paths", type=int, default=256)
    simulate.add_argument("--seed", type=int, default=0)

    return parser


def _resolve_seed(cli_seed: int) -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None or not raw.strip():
        return cli_seed
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


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


def run_analyze(config: RunConfig) -> int:
    residualized = False
    factor_ids: list[str] = []
    n_timestamps = None
    if config.matrix_input:
        corr = correlation_from_csv(config.input_path)
    else:
        panel = load_panel(config.input_path)
        n_timestamps = panel.n_periods
        if config.factor_path:
            factors = load_panel(config.factor_path)
            panel = ols_residualize(panel, factors, with_intercept=True, keep_intercept=True)
            residualized = True
            factor_ids = list(factors.series_ids)
        _, corr = sample_moments(panel, config.estimation_mode)
    n_input = corr.n

    kept, corr = prune_redundant(corr, config.prune_bound)
    floor = config.repair_floor if config.repair_floor is not None else default_floor(corr.n)
    status_before = classify_definiteness(corr)
    if config.repair:
        corr = rj_repair(corr, floor)
    elif status_before == "verified-not-PSD":
        print(
            "error: correlation matrix is not positive semi-definite; "
            "re-run with --repair to floor the spectrum",
            file=sys.stderr,
        )
        return EXIT_NUMERIC

    basis = fix_sign_basis(eigendecompose(corr))
    weighted = np.full(corr.n, 1.0 / corr.n)
    digest = {
        "n_series": n_input,
        "n_kept": corr.n,
        "kept_indices": list(kept),
        "n_timestamps": n_timestamps,
        "estimation_mode": config.estimation_mode,
        "prune_bound": config.prune_bound,
        "repaired": bool(config.repair),
        "repair_floor": floor if config.repair else None,
        "psd_status_input": status_before,
        "residualized": residualized,
        "factor_ids": factor_ids,
        "weights": "uniform (tau_i = 1, w_i = 1/N; turnovers are reduction factors)",
    }
    report = turnover_report(basis, corr, weighted, digest=digest)
    _write_json({"config": config.echo(), "report": report.to_dict()}, config.output_path)
    return EXIT_OK


def run_repair(config: RunConfig) -> int:
    ids, entries = _square_from_csv(config.input_path)
    if np.all(np.abs(np.diag(entries) - 1.0) <= 1e-12):
        matrix = _correlation_from_entries(ids, entries)
    else:
        matrix = _covariance_from_entries(ids, entries)
    floor = config.repair_floor if config.repair_floor is not None else default_floor(matrix.n)
    repaired = rj_repair(matrix, floor)
    matrix_to_csv(repaired, config.output_path)
    summary = {
        "config": config.echo(),
        "repair_floor": floor,
        "report": matrix_report(repaired),
    }
    _write_json(summary, Path(config.output_path).with_suffix(".json"))
    return EXIT_OK


def run_sweep(config: RunConfig) -> int:
    generator = one_factor_generator(config.rho, config.n_periods)
    options = SweepOptions(
        estimation_mode=config.estimation_mode,
        repair=config.repair,
        repair_floor=config.repair_floor,
    )
    result = sweep_rho_star(config.grid, generator, options, config.seed)
    sweep_to_csv(result, config.output_path)
    summary = {
        "config": config.echo(),
        "grid": list(result.grid),
        "rho_stars": list(result.rho_stars),
        "rho_star_times_n": list(result.rho_star_times_n),
        "slope_no_intercept": result.slope_no_intercept,
        "f_statistic": result.f_statistic if result.f_statistic is not None else "not-available",
        "residuals": list(result.residuals),
        "errors": list(result.errors),
    }
    _write_json(summary, Path(config.output_path).with_suffix(".json"))
    return EXIT_OK


def run_simulate(config: RunConfig) -> int:
    sim_config = SimConfig(
        n_alphas=config.n_alphas,
        n_periods=2,
        n_instruments=config.n_instruments,
        target_correlation=config.rho,
        master_seed=config.seed,
        n_paths=config.n_paths,
    )
    result = simulate_crossing_paths(sim_config)
    payload = {
        "config": config.echo(),
        "gross_traded": result.gross_traded,
        "netted_traded": result.netted_traded,
        "crossing_ratio": result.crossing_ratio,
        "mean": result.mean,
        "std_error": result.std_error,
        "zero_gross_paths": result.zero_gross_paths,
        "per_path_ratios": list(result.per_path_ratios),
    }
    _write_json(payload, config.output_path)
    return EXIT_OK


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # only sweep and simulate draw random numbers, so only they take a seed
    seed = _resolve_seed(args.seed) if "seed" in args else 0
    grid = _parse_grid(args.grid) if getattr(args, "grid", None) else None
    return RunConfig(
        command=args.command,
        input_path=getattr(args, "input", None),
        output_path=getattr(args, "output", None),
        estimation_mode=_MODE_BY_FLAG[getattr(args, "mode", "complete")],
        prune_bound=getattr(args, "prune", 0.9),
        repair=getattr(args, "repair", True),
        repair_floor=getattr(args, "floor", None),
        factor_path=getattr(args, "factors", None),
        matrix_input=getattr(args, "matrix", False),
        grid=grid,
        rho=getattr(args, "rho", 0.25),
        seed=seed,
        n_paths=getattr(args, "paths", 1),
        n_alphas=getattr(args, "n_alphas", 0),
        n_instruments=getattr(args, "instruments", 0),
        n_periods=getattr(args, "periods", 0),
    )


_RUNNERS = {
    "analyze": run_analyze,
    "repair": run_repair,
    "sweep": run_sweep,
    "simulate": run_simulate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        return _RUNNERS[args.command](config)
    except (InvalidMatrixError, IllDefinedVolatilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (TurnoverSpectraError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
