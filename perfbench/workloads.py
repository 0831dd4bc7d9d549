"""The benchmark's workloads: the commands of one pass and the check of each output.

Every workload is a list of ``turnover-spectra`` commands that a user would
run one after another. ``prepare`` writes the inputs for a seed (untimed) and
returns the commands, each with a check that reads the command's output and
returns ``None`` when it is correct, or the reason when it is not.

Why these workloads:

* ``analyze-complete`` is the common call: a fully observed panel CSV in
  complete-cases mode. CSV ingest dominates it.
* ``analyze-pairwise`` runs ragged panels in pairwise mode, which takes the
  masked moments kernel and the multi-pass eigenvalue-floor repair. Its
  most ragged panel makes the repair stall at 1000 passes and exit 2; that
  failure is kept and counted, not hidden.
* ``sweep`` builds its panels in memory and never reads a CSV, so a change to
  ingest must leave it unchanged.
* ``simulate`` runs only the Monte-Carlo netting simulator. It is not listed
  in BENCHMARK.json (see README.md) and is run by hand.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

PRUNE_BOUND = 0.9
RHO = 0.25

# Sizes per scale. "full" is what the benchmark measures; "tiny" is for the
# smoke test. Pairwise missing fractions: 10 % stays positive definite, 20 %
# needs a few repair passes, 45 % stalls the seed's repair on every seed tried.
SCALES = {
    "full": {
        "complete": {"n": 400, "m": 4000, "near_duplicates": 20},
        "pairwise": {"n": 300, "m": 900, "missing": (0.10, 0.20, 0.45)},
        "sweep": {"grid": (100, 200, 400, 800), "periods": 4000},
        "simulate": {"n_alphas": 1000, "instruments": 4, "paths": 20000, "reference_paths": 4000},
    },
    "tiny": {
        "complete": {"n": 40, "m": 200, "near_duplicates": 2},
        "pairwise": {"n": 40, "m": 120, "missing": (0.10, 0.20, 0.45)},
        "sweep": {"grid": (10, 20), "periods": 200},
        "simulate": {"n_alphas": 50, "instruments": 4, "paths": 200, "reference_paths": 400},
    },
}

# Stated tolerances.
# Analyze: the program and the reference differ only by rounding, plus the
# repair. The reference is taken before repair. Lifting the negative
# eigenvalues and restoring the unit diagonal shrinks every correlation by
# about (sum of |negative eigenvalues|) / N, so rho_star and rho_prime may
# move by up to twice that. Measured: 4e-4 against 9e-4 allowed at 20 %
# missing; 4.4 % against 9 % at 45 % missing when the repair converges.
ROUNDING_RTOL = 1e-9
REPAIR_RTOL_PER_NEGATIVE_MASS = 2.0
# Sweep: an estimate of rho_star from M periods has a standard error of at
# most about 0.4 / sqrt(M) around its population value rho + (1 - rho) / N
# (measured 0.003 to 0.005 at M = 4000); the check allows five of them.
SWEEP_ATOL_SQRT_M = 2.0
# Simulate: program and reference means of the per-path crossing ratio agree
# within this many combined standard errors.
SIMULATE_SIGMAS = 5.0


@dataclass
class Command:
    label: str
    argv: list[str]
    output: Path
    check: Callable[[], str | None]


def _close(name: str, got, want: float, rtol: float = 0.0, atol: float = 0.0) -> str | None:
    if got is None or not math.isfinite(got) or abs(got - want) > atol + rtol * abs(want):
        return f"{name} = {got!r}, reference {want!r}"
    return None


def greedy_prune(corr: np.ndarray, bound: float = PRUNE_BOUND) -> list[int]:
    """Keep index i unless some kept k has |corr[k, i]| > bound (ascending scan)."""
    magnitude = np.abs(corr)
    kept: list[int] = []
    for i in range(corr.shape[0]):
        if not kept or magnitude[kept, i].max() <= bound:
            kept.append(i)
    return kept


def pairwise_corr(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Sample correlation of every pair on the rows both series observe."""
    o = mask.astype(float)
    x = np.where(mask, values, 0.0)
    count = o @ o.T
    sx = x @ o.T  # sum of series i over the rows it shares with j
    sxx = (x * x) @ o.T
    cov = (x @ x.T - sx * sx.T / count) / (count - 1)
    var = (sxx - sx * sx / count) / (count - 1)
    corr = cov / np.sqrt(var * var.T)
    np.fill_diagonal(corr, 1.0)
    return corr


def reduction_coefficients(corr: np.ndarray) -> dict:
    """rho_star and rho_prime from the leading eigenpair, in the sign-fixed basis,
    and the spectrum's negative mass sum(|negative eigenvalues|) / N."""
    n = corr.shape[0]
    values, vectors = np.linalg.eigh(corr)
    lead, v1 = float(values[-1]), vectors[:, -1]
    signs = np.where(v1 < 0, -1.0, 1.0)
    reflected = corr * np.outer(signs, signs)
    return {
        "rho_star": lead * float(np.abs(v1).sum()) / (n * math.sqrt(n)),
        "rho_prime": float(reflected.sum()) / n**2,
        "negative_mass": float(-values[values < 0].sum()) / n,
    }


def _check_analyze(path: Path, kept: list[int], ref: dict) -> str | None:
    report = json.loads(path.read_text(encoding="utf-8"))["report"]
    if report["inputs"]["kept_indices"] != kept:
        return f"kept {report['inputs']['n_kept']} series, reference keeps {len(kept)}"
    rtol = ROUNDING_RTOL + REPAIR_RTOL_PER_NEGATIVE_MASS * ref["negative_mass"]
    for name in ("rho_star", "rho_prime"):
        problem = _close(name, report[name], ref[name], rtol=rtol)
        if problem:
            return problem
    return None


def _analyze_argv(csv_path: Path, out: Path, mode: str) -> list[str]:
    return ["analyze", "--input", str(csv_path), "--output", str(out), "--mode", mode]


def prepare_complete(seed: int, workdir: Path, size: dict) -> list[Command]:
    rng = inputs.rng_for(seed, 1)
    values = inputs.one_factor(rng, size["n"], size["m"], RHO)
    values = inputs.with_near_duplicates(rng, values, size["near_duplicates"])
    csv_path, out = workdir / "complete.csv", workdir / "complete.json"
    inputs.write_panel_csv(csv_path, values)
    kept = greedy_prune(np.corrcoef(values))
    ref = reduction_coefficients(np.corrcoef(values[kept]))
    check = partial(_check_analyze, out, kept, ref)
    return [Command("analyze-complete", _analyze_argv(csv_path, out, "complete"), out, check)]


def prepare_pairwise(seed: int, workdir: Path, size: dict) -> list[Command]:
    commands = []
    for k, missing in enumerate(size["missing"]):
        rng = inputs.rng_for(seed, 2, k)
        values = inputs.one_factor(rng, size["n"], size["m"], RHO)
        mask = inputs.ragged_mask(rng, size["n"], size["m"], missing)
        tag = f"pairwise-{round(100 * missing):02d}"
        csv_path, out = workdir / f"{tag}.csv", workdir / f"{tag}.json"
        inputs.write_panel_csv(csv_path, values, mask)
        corr = pairwise_corr(values, mask)
        kept = greedy_prune(corr)
        ref = reduction_coefficients(corr[np.ix_(kept, kept)])
        check = partial(_check_analyze, out, kept, ref)
        commands.append(Command(tag, _analyze_argv(csv_path, out, "pairwise"), out, check))
    return commands


def _check_sweep(path: Path, grid: tuple[int, ...], atol: float) -> str | None:
    summary = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    if summary["errors"]:
        return f"sweep errors: {summary['errors'][0]}"
    if tuple(summary["grid"]) != grid:
        return f"grid {summary['grid']} != {list(grid)}"
    population = [RHO + (1 - RHO) / n for n in grid]
    for n, got, want, times_n in zip(grid, summary["rho_stars"], population, summary["rho_star_times_n"]):
        problem = _close(f"rho_star(N={n})", got, want, atol=atol) or _close(
            f"rho_star_times_n(N={n})", times_n, got * n, rtol=1e-12
        )
        if problem:
            return problem
    xs = np.asarray(grid, dtype=float)
    slope = float(xs @ (np.asarray(population) * xs) / (xs @ xs))
    fitted = float(xs @ np.asarray(summary["rho_star_times_n"]) / (xs @ xs))
    problem = _close("slope_no_intercept", summary["slope_no_intercept"], slope, atol=atol) or _close(
        "slope of the reported points", summary["slope_no_intercept"], fitted, rtol=1e-9
    )
    if problem:
        return problem
    rows = path.read_text(encoding="utf-8").splitlines()
    if len(rows) != len(grid) + 1:
        return f"sweep CSV has {len(rows)} lines, expected {len(grid) + 1}"
    return None


def prepare_sweep(seed: int, workdir: Path, size: dict) -> list[Command]:
    out = workdir / "sweep.csv"
    grid = tuple(size["grid"])
    argv = [
        "sweep", "--output", str(out), "--grid", ",".join(map(str, grid)),
        "--periods", str(size["periods"]), "--rho", str(RHO), "--seed", str(seed),
    ]
    atol = SWEEP_ATOL_SQRT_M / math.sqrt(size["periods"])
    return [Command("sweep", argv, out, partial(_check_sweep, out, grid, atol))]


def crossing_reference(rng, n_alphas: int, instruments: int, paths: int) -> tuple[float, float]:
    """Mean and standard error of the per-path crossing ratio, by its definition.

    Each alpha's trade is the change of a one-factor signal over one period,
    spread over the instruments with uniform(0.5, 1.5) / K exposures; the
    ratio is sum_k |sum_i d_ik| / sum_ik |d_ik|. The draws come from the
    benchmark's own stream, so this checks the statistics, not the bits.
    """
    ratios = []
    for start in range(0, paths, 500):
        p = min(500, paths - start)
        common = rng.standard_normal((p, 1, 2))
        signal = math.sqrt(RHO) * common + math.sqrt(1 - RHO) * rng.standard_normal((p, n_alphas, 2))
        change = signal[:, :, 0] - signal[:, :, 1]
        trades = rng.uniform(0.5, 1.5, (p, n_alphas, instruments)) / instruments * change[:, :, None]
        ratios.append(np.abs(trades.sum(axis=1)).sum(axis=1) / np.abs(trades).sum(axis=(1, 2)))
    r = np.concatenate(ratios)
    return float(r.mean()), float(r.std(ddof=1) / math.sqrt(r.size))


def _check_simulate(path: Path, size: dict, reference: tuple[float, float], first: list) -> str | None:
    text = path.read_bytes()
    if not first:
        first.append(text)
    elif text != first[0]:
        return "output differs from the first run with the same seed"
    result = json.loads(text)
    if len(result["per_path_ratios"]) != size["paths"]:
        return f"{len(result['per_path_ratios'])} path ratios, expected {size['paths']}"
    if not 0.0 < result["crossing_ratio"] <= 1.0:
        return f"crossing_ratio {result['crossing_ratio']!r} outside (0, 1]"
    ref_mean, ref_se = reference
    tolerance = SIMULATE_SIGMAS * math.hypot(result["std_error"], ref_se)
    return _close("mean crossing ratio", result["mean"], ref_mean, atol=tolerance)


def prepare_simulate(seed: int, workdir: Path, size: dict) -> list[Command]:
    out = workdir / "simulate.json"
    argv = [
        "simulate", "--output", str(out), "--rho", str(RHO), "--n-alphas", str(size["n_alphas"]),
        "--instruments", str(size["instruments"]), "--paths", str(size["paths"]), "--seed", str(seed),
    ]
    reference = crossing_reference(
        inputs.rng_for(seed, 4), size["n_alphas"], size["instruments"], size["reference_paths"]
    )
    first: list[bytes] = []  # the first output, which every later run must repeat byte for byte
    return [Command("simulate", argv, out, partial(_check_simulate, out, size, reference, first))]


WORKLOADS = {
    "analyze-complete": ("complete", prepare_complete),
    "analyze-pairwise": ("pairwise", prepare_pairwise),
    "sweep": ("sweep", prepare_sweep),
    "simulate": ("simulate", prepare_simulate),
}


def prepare(name: str, seed: int, workdir: Path, scale: str = "full") -> list[Command]:
    key, build = WORKLOADS[name]
    return build(seed, workdir, SCALES[scale][key])
