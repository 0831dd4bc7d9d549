"""Command-line front end: analyze panels, repair matrices, sweep the
reduction coefficient across N, and run crossing simulations.

Each command reads its own parsed arguments, and its artifact's ``config``
block echoes exactly those arguments (the flags' ``dest`` names) as given,
with only the grid and ``analyze``'s estimation mode resolved by ``main``
(the mode is ``null`` for ``analyze --matrix``, whose estimator is unknown;
its report's ``inputs`` names it ``external``). ``sweep`` and ``simulate``
take their seed from ``--seed`` alone. ``sweep`` takes no mode: it
draws each grid point's complete-cases sample correlation of a one-factor
panel straight from its Wishart law, with no panel to estimate from.

Exit codes: 0 success; 1 I/O or parse failure: a missing file, a bad
argument or a numeric flag out of range, ``--mode`` given with ``--matrix``
or ``--floor`` with ``--no-repair``, an output (the CSV or the JSON) that is
the same file as ``--input`` or ``--factors``, by its own path or through a
link (each refused before any input is read, as ``--factors`` with
``--matrix`` is), a malformed CSV. Panels and matrix CSVs share one reader
and one header rule, so a blank or repeated id, or a header with no data
rows after it (a header-only matrix CSV included), exits 1 in either
layout. So do the data refusals: a constant series (``zero sample
variance``, or constant on a pair's joint sample), a series with fewer
than 2 observations, a pair with fewer than 2 joint observations
(pairwise) or fewer than 2 timestamps observed across all series
(complete cases), a ``--factors`` panel on another timestamp grid, a
series with fewer rows jointly observed with the factors than their count
plus 2, a rank-deficient factor design, and a ``--prune`` that keeps fewer
than 2 series. 2 numeric-validity refusal: a matrix that is not square,
finite and symmetric, a correlation matrix whose diagonal is off 1 or whose
entries leave [-1, 1] (``InvalidMatrixError``, from ``repair`` and
``analyze --matrix`` alike), a covariance matrix with a non-positive
diagonal entry (``InvalidDiagonalError``), a matrix whose spectrum
overflows float64, a repair floor above the matrix's mean diagonal, a
repair floor too small for the spectrum to resolve, at or below ``2 * N *
eps * trace``, where the repaired matrix could read as other than
``verified-PD`` (both refused before any repair pass; ``analyze`` and
``sweep``, which repair only correlations, refuse a ``--floor`` above 1, or
at or below ``2 * eps``, a 1 x 1 correlation's bound, before any input is
read or any matrix drawn, and write nothing; a sweep point whose own bound
refuses the floor fails as a ``NaN`` point), a repair that does not
converge, a non-PSD matrix under ``--no-repair``, a panel whose sample
moments overflow float64 (also an ``InvalidMatrixError``).

Artifacts. Each command's runner returns the body of its JSON artifact,
and for ``repair`` and ``sweep`` what their CSV holds, and writes no file:
``main`` alone writes them once the runner has returned, the CSV first and
then the JSON, with sorted keys and the ``config`` block. Each is written
to a temporary file beside its target and renamed over it only once every
write has succeeded (``_write_artifacts``), so a failed write leaves no
artifact behind, and a file that stood at an output path keeps its bytes.
One window is left, for a permission change or a race between the two
renames: the CSV has been renamed into place and the JSON's rename then
fails, which leaves the new CSV beside the earlier JSON. An artifact is a
new file, not the earlier one rewritten: it takes the earlier file's
permission bits, and a symlinked output stays a link, now to the new file;
but another hard link to the earlier file keeps the earlier bytes, and a
read-only file is replaced wherever its directory may be written. An
output that exists and is not a regular file (a FIFO, ``/dev/stdout``) is
written in place. The JSON of ``repair`` and ``sweep`` goes beside their
CSV, the CSV's path with a ``.json`` suffix (``_json_path``). So their
``--output`` may not itself end in ``.json``, in any case (``.JSON`` names
the same file on a case-insensitive file system), where the JSON would
overwrite the CSV: ``main`` refuses it (exit 1) before any input is read.

- ``analyze``: JSON ``config`` and ``report``: ``turnover.turnover_report``'s
  models, coefficients and ``warnings`` (which may hold ``degenerate-top``),
  and the ``inputs`` digest that ``run_analyze`` adds. Its keys, by source:
  ``n_series`` (the matrix before pruning); ``n_kept`` and ``kept_indices``
  (``prune_redundant``); ``n_timestamps`` (the panel's periods, ``null``
  with ``--matrix``); ``estimation_mode``, ``prune_bound`` and ``repaired``
  (the flags); ``residualized`` and ``factor_ids`` (``--factors`` and its
  CSV's ids); ``repair_floor`` (``--floor`` or ``default_floor`` of the
  pruned matrix, ``null`` with ``--no-repair``); ``psd_status_input``
  (``classify_definiteness`` of the pruned matrix); ``min_eigenvalue_input``
  and ``repair_passes`` (the record of ``conditioning._condition``, 0
  passes with ``--no-repair``); ``repair_shift_fro`` (the Frobenius norm of
  what the repair moved); ``min_eigenvalue_output``, ``top_gap`` and
  ``orthonormality_residual`` (``eigendecompose`` of the conditioned
  matrix); and ``weights``, which names the uniform weights used.
- ``repair``: CSV with the ids as header and one row of entries per id, the
  only copy of the repaired matrix; JSON ``config``, ``repair_floor`` and
  ``report`` with ``ids``, ``eigenvalues`` (descending) and ``psd_status``.
- ``sweep``: CSV with header ``N,rho_star,rho_star_times_n,slope,F``, one row
  per grid point; JSON ``config``, ``grid``, ``rho_stars``,
  ``rho_star_times_n``, ``slope_no_intercept``, ``f_statistic``,
  ``residuals``, ``errors``, ``solvers`` and ``degenerate_top``.
- ``simulate``: JSON ``config``, ``gross_traded``, ``netted_traded``,
  ``crossing_ratio``, ``mean``, ``std_error``, ``zero_gross_paths`` and
  ``per_path_ratios``. ``crossing_ratio`` is the pooled ratio, the netted
  dollars summed over paths against the gross dollars summed over paths;
  ``mean`` is the mean of the per-path ratios, a different number, and
  ``std_error`` the standard error of that mean (``simulate.SimResult``).

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
artifact. ``sweep`` draws and solves every grid point in the command's own
process, in grid order.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

# Threads, as the module docstring says: BLAS reads these when numpy loads.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(var in os.environ for var in _THREAD_VARS):
    os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))

import numpy as np

from .conditioning import (
    _check_floor,
    _condition,
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
    CorrelationMatrix,
    CovarianceMatrix,
    _unit_diagonal,
    load_panel,
    ols_residualize,
    sample_moments,
)
from .simulate import (
    SimConfig,
    SweepResult,
    one_factor_source,
    simulate_crossing_paths,
    sweep_rho_star,
    sweep_to_csv,
)
from .turnover import fix_sign_basis, turnover_report

EXIT_OK = 0
EXIT_IO = 1
EXIT_NUMERIC = 2

_MODE_BY_FLAG = {"complete": COMPLETE_CASES, "pairwise": PAIRWISE_COMPLETE}
# every command's default --floor (conditioning.default_floor)
_FLOOR_DEFAULT = "default 1e-8 * trace, which is 1e-8 * N for a correlation"
_SEED_HELP = "seed of the draws, an unsigned 64-bit integer (default 0)"


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
                         help=f"eigenvalue floor <= 1, checked before any read ({_FLOOR_DEFAULT})")
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
    repair.add_argument("--floor", dest="repair_floor", type=float, default=None,
                        help=f"eigenvalue floor, at most the mean diagonal ({_FLOOR_DEFAULT})")

    sweep = sub.add_parser("sweep", help="rho_star * N versus N with through-origin fit")
    sweep.add_argument("--output", dest="output_path", required=True,
                       help="sweep CSV (JSON summary alongside)")
    sweep.add_argument("--grid", required=True, help="comma-separated N values, e.g. 50,100,200,400")
    sweep.add_argument("--rho", type=float, default=0.25)
    sweep.add_argument("--periods", dest="n_periods", type=int, default=2000,
                       help="periods per grid point; the sample matrix is drawn from its Wishart law")
    sweep.add_argument("--repair", action=argparse.BooleanOptionalAction, default=True)
    sweep.add_argument("--floor", dest="repair_floor", type=float, default=None,
                       help=f"eigenvalue floor <= 1, checked before any draw ({_FLOOR_DEFAULT})")
    sweep.add_argument("--seed", type=int, default=0, help=_SEED_HELP)

    simulate = sub.add_parser("simulate", help="Monte-Carlo trade-netting experiment")
    simulate.add_argument("--output", dest="output_path", required=True, help="JSON result path")
    simulate.add_argument("--rho", type=float, default=0.25)
    simulate.add_argument("--n-alphas", type=int, default=50)
    simulate.add_argument("--instruments", dest="n_instruments", type=int, default=4)
    simulate.add_argument("--paths", dest="n_paths", type=int, default=256)
    simulate.add_argument("--seed", type=int, default=0, help=_SEED_HELP)

    return parser


# Each numeric flag's refusal rule, the library's own, checked before a command
# runs so that the message names the flag typed rather than a library field.
_FLAG_RULES = {
    # SimConfig's master_seed rule, which sweep shares
    "seed": ("--seed", "must be an unsigned 64-bit integer", lambda v: not 0 <= v < 2**64),
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


def _write_artifacts(args: argparse.Namespace, json_path: Path, body: dict, table) -> None:
    """Write a runner's artifacts: the CSV of ``table`` for a command in
    ``_CSV_WRITERS``, then the JSON of ``body`` with the ``config`` block,
    each as UTF-8 with ``\n`` line ends.

    Each artifact is written to a new temporary file beside its target (a
    symlink's target, so the link stays), named by at most 16 characters of
    the target's name and a random token, so that neither a long name nor a
    file left by a killed run stops the write, and created only if no file
    has that name. It gets the mode a plain ``open`` gives under the umask,
    or the permission bits of the file it replaces. Only
    once every write has succeeded is each one renamed over its target, in
    order; when anything raises, the temporaries still there are removed
    before the error goes on. A target that exists and is not a regular file
    (a FIFO, ``/dev/stdout``, a directory) is opened in place instead, where
    a directory fails before any rename."""
    text = json.dumps(_jsonable({"config": vars(args), **body}), indent=2, sort_keys=True)
    writes = [(json_path, lambda handle: handle.write(text + "\n"))]
    if table is not None:
        writes.insert(0, (Path(args.output_path), partial(_CSV_WRITERS[args.command], table)))
    staged = []
    try:
        for path, write in writes:
            if path.exists() and not path.is_file():
                with open(path, "w", encoding="utf-8", newline="") as handle:
                    write(handle)
                continue
            target = Path(os.path.realpath(path)) if path.is_symlink() else path
            temporary = target.with_name(f".{target.name[:16]}.{os.urandom(8).hex()}.tmp")
            # a missing or unwritable directory fails here: name the output, not its temporary
            try:
                handle = open(temporary, "x", encoding="utf-8", newline="")
            except (FileNotFoundError, PermissionError) as exc:
                exc.filename = str(path)
                raise
            with handle:
                staged.append((temporary, target))
                if target.exists():
                    shutil.copymode(target, temporary)
                write(handle)
        for temporary, target in staged:
            os.replace(temporary, target)
    except BaseException:
        for temporary, _ in staged:  # one already renamed is no longer there
            with contextlib.suppress(OSError):
                temporary.unlink()
        raise


# the commands whose ``--output`` is a CSV, by the function that writes it,
# with the JSON artifact beside it
_CSV_WRITERS = {"repair": matrix_to_csv, "sweep": sweep_to_csv}
# the flags that name a file a command reads, by their ``dest``
_INPUT_FLAGS = (("--input", "input_path"), ("--factors", "factor_path"))


def _json_path(args: argparse.Namespace) -> Path:
    """Where the command's JSON artifact goes: ``--output`` itself, or for a
    command in ``_CSV_WRITERS`` the CSV's path with a ``.json`` suffix (a
    path with no name, ``.`` say, then fails where the CSV is written)."""
    output = Path(args.output_path)
    return output.parent / f"{output.stem}.json" if args.command in _CSV_WRITERS else output


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
    return tuple(values)


def run_analyze(args: argparse.Namespace) -> tuple[dict, None]:
    if args.repair_floor is not None:  # every matrix repaired here is a correlation
        _check_floor(args.repair_floor, 1, 1.0)
    factor_ids: list[str] = []
    n_timestamps = None
    if args.matrix_input:
        corr = correlation_from_csv(args.input_path)
    else:
        panel = load_panel(args.input_path)
        n_timestamps = panel.n_periods
        if args.factor_path:
            factors = load_panel(args.factor_path)
            panel = ols_residualize(panel, factors)
            factor_ids = list(factors.series_ids)
        corr = sample_moments(panel, args.estimation_mode)
    n_input = corr.n

    kept, pruned = prune_redundant(corr, args.prune_bound)
    if pruned.n < 2:  # the mean off-diagonal correlation needs a pair
        raise ValueError(
            f"--prune {args.prune_bound} kept {pruned.n} of {n_input} series; "
            "the report needs at least 2"
        )
    floor = args.repair_floor if args.repair_floor is not None else default_floor(pruned)
    status_before = classify_definiteness(pruned)
    if not args.repair and status_before == "verified-not-PSD":
        raise InvalidMatrixError(
            "correlation matrix is not positive semi-definite; "
            "re-run with --repair to floor the spectrum"
        )
    corr, record = _condition(pruned, floor if args.repair else None)

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
        **record,
        "min_eigenvalue_output": float(decomposition.eigenvalues[-1]),
        "repair_shift_fro": float(np.linalg.norm(corr.entries - pruned.entries)),
        "top_gap": decomposition.top_gap,
        "orthonormality_residual": decomposition.orthonormality_residual,
        "residualized": bool(args.factor_path),
        "factor_ids": factor_ids,
        "weights": "uniform (tau_i = 1, w_i = 1/N; turnovers are reduction factors)",
    }
    return {"report": {**turnover_report(basis, corr, weighted), "inputs": digest}}, None


def run_repair(args: argparse.Namespace) -> tuple[dict, CorrelationMatrix | CovarianceMatrix]:
    ids, entries = _square_from_csv(args.input_path)
    kind = CorrelationMatrix if _unit_diagonal(entries) else CovarianceMatrix
    matrix = kind(entries, ids=ids)
    floor = args.repair_floor if args.repair_floor is not None else default_floor(matrix)
    repaired = rj_repair(matrix, floor)
    return {"repair_floor": floor, "report": matrix_report(repaired)}, repaired


def run_sweep(args: argparse.Namespace) -> tuple[dict, SweepResult]:
    source = one_factor_source(args.rho, args.n_periods)
    result = sweep_rho_star(
        args.grid, source, seed=args.seed, repair=args.repair, floor=args.repair_floor
    )
    return {**asdict(result), "f_statistic": result.reported_f}, result


def run_simulate(args: argparse.Namespace) -> tuple[dict, None]:
    sim_config = SimConfig(
        n_alphas=args.n_alphas,
        n_periods=2,
        n_instruments=args.n_instruments,
        target_correlation=args.rho,
        master_seed=args.seed,
        n_paths=args.n_paths,
    )
    return asdict(simulate_crossing_paths(sim_config)), None


# each command's runner returns its JSON body and, for a command in
# ``_CSV_WRITERS``, what its CSV holds (None for the others)
_RUNNERS = {
    "analyze": run_analyze,
    "repair": run_repair,
    "sweep": run_sweep,
    "simulate": run_simulate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
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
        if args.command in _CSV_WRITERS and (
            json_path.name.lower() == Path(args.output_path).name.lower()
        ):
            raise ValueError(
                f"--output {args.output_path} ends in .json, where the JSON summary "
                "would overwrite the CSV; give the CSV another suffix"
            )
        _write_artifacts(args, json_path, *_RUNNERS[args.command](args))
        return EXIT_OK
    except InvalidMatrixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (TurnoverSpectraError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
