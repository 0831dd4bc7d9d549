"""Command-line front end: analyze panels, repair matrices, sweep the
reduction coefficient across N, and run crossing simulations.

Each command reads its own parsed arguments, and its artifact's ``config``
block echoes exactly those arguments (the flags' ``dest`` names), after
``main`` has resolved the seed, the grid and ``analyze``'s estimation mode
(``null`` for ``analyze --matrix``, whose estimator is unknown; its
report's ``inputs`` names it ``external``). ``sweep`` takes no mode: its
panels have no missing cell, so it estimates from complete cases.

Exit codes: 0 success; 1 I/O or parse failure: a missing file, a bad
argument or a numeric flag out of range, ``--mode`` given with ``--matrix``
or ``--floor`` with ``--no-repair``, an output (the CSV or the JSON) that is
the same file as ``--input`` or ``--factors``, by its own path or through a
link (each refused before any input is read, as ``--factors`` with
``--matrix`` is), a malformed CSV. Panels and matrix CSVs share one reader
and one header rule, so a blank or repeated id, or a header with no data
rows after it (a header-only matrix CSV included), exits 1 in either
layout. 2 numeric-validity refusal: a matrix that is not square, finite and
symmetric, a correlation matrix whose diagonal is off 1 or whose entries
leave [-1, 1] (``InvalidMatrixError``, from ``repair`` and ``analyze
--matrix`` alike), a covariance matrix with a non-positive diagonal entry
(``InvalidDiagonalError``), a repair that does not converge, a non-PSD
matrix under ``--no-repair``, a panel whose sample moments overflow
float64 (also an ``InvalidMatrixError``).

Artifacts. Each command's runner returns the body of its JSON artifact,
and ``main`` alone writes it, with sorted keys and the ``config`` block.
``repair`` and ``sweep`` also write a CSV, and their JSON goes beside it,
the CSV's path with a ``.json`` suffix (``_json_path``). So their
``--output`` may not itself end in ``.json``, in any case (``.JSON`` names
the same file on a case-insensitive file system), where the JSON would
overwrite the CSV: ``main`` refuses it (exit 1) before any input is read.

- ``analyze``: JSON ``config`` and ``report``: ``turnover.turnover_report``'s
  models, coefficients and ``warnings`` (which may hold ``degenerate-top``),
  and the ``inputs`` digest that ``run_analyze`` adds.
- ``repair``: CSV with the ids as header and one row of entries per id, the
  only copy of the repaired matrix; JSON ``config``, ``repair_floor`` and
  ``report`` with ``ids``, ``eigenvalues`` (descending) and ``psd_status``.
- ``sweep``: CSV with header ``N,rho_star,rho_star_times_n,slope,F``, one row
  per grid point; JSON ``config``, ``grid``, ``rho_stars``,
  ``rho_star_times_n``, ``slope_no_intercept``, ``f_statistic``,
  ``residuals``, ``errors``, ``solvers`` and ``degenerate_top``.
- ``simulate``: JSON ``config``, ``gross_traded``, ``netted_traded``,
  ``crossing_ratio``, ``mean``, ``std_error``, ``zero_gross_paths`` and
  ``per_path_ratios``.

Numbers as text: a CSV float is its shortest round-trip ``repr`` and a
missing panel cell is empty (``_grid.write_csv``); in JSON, infinity is the
string ``"inf"`` (``"-inf"``) and NaN is ``null``, so a failed sweep point is
``nan`` in the CSV and ``null`` in the JSON. An F statistic that cannot be
computed (fewer than two points) is ``not-available`` in both, and an exact
fit's is ``inf``.

Threads. A command runs numpy's BLAS on one thread: importing this module
sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS``
to ``1`` before numpy loads, unless the caller has set any of the three
(that choice is kept) or numpy is already loaded (a library caller's own
process, whose environment this leaves alone). The matrices here are small
enough (N up to about 800) that a second thread saves no wall time but
spin-waits on a core, and a fixed count keeps a command's floats from
depending on how many cores the machine has. Set ``OPENBLAS_NUM_THREADS``
for inputs of a few thousand series, where more threads do pay off. The
CSV reader uses the other cores through processes instead: it parses a
large file in parts, one per usable CPU, all but the first in forked
children that call no BLAS (``_grid._fork``); that changes no byte of any
artifact. ``sweep`` draws and solves every grid point in its own process,
in grid order.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import _THREAD_VARS

# Threads, as the module docstring says: BLAS reads these when numpy loads.
if "numpy" not in sys.modules and not any(var in os.environ for var in _THREAD_VARS):
    os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))

import numpy as np

from .conditioning import (
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
from .errors import InvalidMatrixError, TurnoverSpectraError
from .panel import (
    COMPLETE_CASES,
    PAIRWISE_COMPLETE,
    UNIT_DIAGONAL_TOL,
    CorrelationMatrix,
    CovarianceMatrix,
    load_panel,
    ols_residualize,
    sample_moments,
)
from .simulate import (
    SimConfig,
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
                         help="estimator for a panel (default complete); not with --matrix")
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
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return None
        return value
    return value


def _write_json(payload: dict, path: str | Path) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


# the commands whose ``--output`` is a CSV, with the JSON artifact beside it
_CSV_COMMANDS = ("repair", "sweep")
# the flags that name a file a command reads, by their ``dest``
_INPUT_FLAGS = (("--input", "input_path"), ("--factors", "factor_path"))


def _json_path(args: argparse.Namespace) -> Path:
    """Where the command's JSON artifact goes: ``--output`` itself, or for a
    command in ``_CSV_COMMANDS`` the CSV's path with a ``.json`` suffix (a
    path with no name, ``.`` say, then fails where the CSV is written)."""
    output = Path(args.output_path)
    return output.parent / f"{output.stem}.json" if args.command in _CSV_COMMANDS else output


def _refuse_overwriting_an_input(args: argparse.Namespace, json_path: Path) -> None:
    """Refuse an output, the CSV or the JSON, that is the same file as
    ``--input`` or ``--factors`` (through a symlink or a hard link too): the
    command would write over what it reads. A path that does not exist yet
    names no input."""
    inputs = [(flag, getattr(args, dest, None)) for flag, dest in _INPUT_FLAGS]
    for output in (Path(args.output_path), json_path):
        for flag, source in inputs:
            both_exist = bool(source) and output.exists() and Path(source).exists()
            if both_exist and os.path.samefile(output, source):
                raise ValueError(
                    f"{output} is the {flag} file {source}; the command would overwrite "
                    "its input, so give --output another path"
                )


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


def run_analyze(args: argparse.Namespace) -> dict:
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
            panel = ols_residualize(panel, factors, keep_intercept=True)
            residualized = True
            factor_ids = list(factors.series_ids)
        corr = sample_moments(panel, args.estimation_mode)
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
        raise InvalidMatrixError(
            "correlation matrix is not positive semi-definite; "
            "re-run with --repair to floor the spectrum"
        )
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
        "estimation_mode": "external" if args.matrix_input else args.estimation_mode,
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
    return {"report": {**turnover_report(basis, corr, weighted), "inputs": digest}}


def run_repair(args: argparse.Namespace) -> dict:
    ids, entries = _square_from_csv(args.input_path)
    if np.all(np.abs(np.diag(entries) - 1.0) <= UNIT_DIAGONAL_TOL):
        matrix = CorrelationMatrix(entries, ids=ids)
    else:
        matrix = CovarianceMatrix(entries, ids=ids)
    floor = args.repair_floor if args.repair_floor is not None else default_floor(matrix.n)
    repaired = rj_repair(matrix, floor)
    matrix_to_csv(repaired, args.output_path)
    return {"repair_floor": floor, "report": matrix_report(repaired)}


def run_sweep(args: argparse.Namespace) -> dict:
    generator = one_factor_generator(args.rho, args.n_periods)
    result = sweep_rho_star(
        args.grid, generator, seed=args.seed, repair=args.repair, floor=args.repair_floor
    )
    sweep_to_csv(result, args.output_path)
    return {**asdict(result), "f_statistic": result.reported_f}


def run_simulate(args: argparse.Namespace) -> dict:
    sim_config = SimConfig(
        n_alphas=args.n_alphas,
        n_periods=2,
        n_instruments=args.n_instruments,
        target_correlation=args.rho,
        master_seed=args.seed,
        n_paths=args.n_paths,
    )
    return asdict(simulate_crossing_paths(sim_config))


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
        if args.command == "analyze" and args.matrix_input:
            if args.estimation_mode is not None:
                raise ValueError(
                    "--mode does not apply with --matrix: the matrix's estimator is unknown"
                )
        elif "estimation_mode" in args:
            args.estimation_mode = _MODE_BY_FLAG[args.estimation_mode or "complete"]
        _check_flags(args)
        if "repair" in args and not args.repair and args.repair_floor is not None:
            raise ValueError(
                "--floor does not apply with --no-repair: only a repair floors the spectrum"
            )
        json_path = _json_path(args)
        _refuse_overwriting_an_input(args, json_path)
        # compared without case, as a case-insensitive file system names files
        if args.command in _CSV_COMMANDS and (
            json_path.name.lower() == Path(args.output_path).name.lower()
        ):
            raise ValueError(
                f"--output {args.output_path} ends in .json, where the JSON summary "
                "would overwrite the CSV; give the CSV another suffix"
            )
        body = _RUNNERS[args.command](args)
        _write_json({"config": vars(args), **body}, json_path)
        return EXIT_OK
    except InvalidMatrixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (TurnoverSpectraError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
