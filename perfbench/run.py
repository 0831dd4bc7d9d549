"""End-to-end benchmark of the ``turnover-spectra`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is taken from
``src/`` (no install step). One client runs the workload's commands in a
closed loop, each as a fresh process the way a user runs the CLI, and
passes over the commands repeat until ``--seconds`` have gone by. Inputs
are made from ``--seed`` before timing starts, and every output is checked.

``--trace 0`` prints the end-to-end metrics (medians over passes).
``--trace 1`` alternates untraced passes with passes run under
``perfbench/tracer.py`` and prints the per-layer metrics. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric with its
sample count and quartiles, the environment, and the failed commands. The
full record, spans included, is written under ``.perfbench_out/``.

A command fails on a nonzero exit or on an output outside tolerance.
``correct`` is false when a command that exited 0 wrote a wrong output, or
when a command ended other than by exit 0, 1 or 2 (the program's
documented codes). The documented refusals count as failed, not incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

LAUNCH = "import sys; from turnover_spectra.cli import main; sys.exit(main())"
# Set-up time is sampled once before the first pass and once after every
# pass, so that its median covers the same stretch of time as the passes;
# runs with few passes are topped up to this many samples.
SETUP_SAMPLES = 7
# A command still running this long after the benchmark started is killed
# and counted as failed, so that a hung command cannot keep a run past 180 s.
RUN_LIMIT_S = 165.0
STARTED = time.monotonic()
DOCUMENTED_EXITS = (0, 1, 2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], env: dict, stderr_path: Path | None = None) -> dict:
    """Run one process to its end; wall time from spawn to exit and its rusage."""
    stderr = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=stderr)
        limit = max(1.0, RUN_LIMIT_S - (time.monotonic() - STARTED))
        watchdog = threading.Timer(limit, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stderr_path:
            stderr.close()
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
    }


def measure_setup(env: dict) -> float:
    """Wall seconds of a fresh interpreter running ``import turnover_spectra``."""
    record = spawn([sys.executable, "-c", "import turnover_spectra"], env)
    if record["exit"] != 0:
        raise SystemExit("error: `import turnover_spectra` failed in a fresh interpreter")
    return record["wall_s"]


def run_command(command: workloads.Command, env: dict, workdir: Path, spans_path: Path | None) -> dict:
    """Run one command (traced when ``spans_path`` is set) and check its output."""
    for stale in (command.output, command.output.with_suffix(".json")):
        stale.unlink(missing_ok=True)
    if spans_path is None:
        argv = [sys.executable, "-c", LAUNCH, *command.argv]
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *command.argv]
    stderr_path = workdir / "stderr.txt"
    record = spawn(argv, env, stderr_path)
    record["label"] = command.label
    lines = stderr_path.read_text(encoding="utf-8", errors="replace").splitlines()
    record["stderr"] = lines[0] if lines else ""
    record["problem"] = None
    if record["exit"] == 0:
        try:
            record["problem"] = command.check()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            record["problem"] = f"unreadable output: {type(exc).__name__}: {exc}"
    record["failed"] = record["exit"] != 0 or record["problem"] is not None
    record["incorrect"] = record["problem"] is not None or record["exit"] not in DOCUMENTED_EXITS
    return record


def run_pass(commands, env, workdir, traced: bool) -> dict:
    records = []
    for command in commands:
        spans_path = workdir / "spans.json" if traced else None
        record = run_command(command, env, workdir, spans_path)
        if traced:
            trace = {"spans": [], "eigensolves": 0, "unpatched": []}
            if spans_path.exists():
                trace = json.loads(spans_path.read_text(encoding="utf-8"))
                spans_path.unlink()
            record["trace"] = trace
        records.append(record)
    return {
        "traced": traced,
        "wall_s": sum(r["wall_s"] for r in records),
        "cpu_s": sum(r["cpu_s"] for r in records),
        "peak_rss_mb": max(r["maxrss_mb"] for r in records),
        "commands": records,
    }


def summary(values: list[float]) -> dict:
    values = sorted(values)
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1], "n": len(values)}


# Per-layer metrics: name -> unit. Times are seconds per pass, summed over
# the pass's commands; counts are per pass.
LAYER_UNITS = {
    "panel.load_panel_s": "s",
    "panel.load_panel_mcells_per_s": "Mcell/s",
    "panel.sample_moments_s": "s",
    "panel.moments_gflops": "GFLOP/s",
    "conditioning.prune_redundant_s": "s",
    "conditioning.series_pruned": "count",
    "conditioning.classify_definiteness_s": "s",
    "conditioning.rj_repair_s": "s",
    "conditioning.repair_passes": "count",
    "conditioning.repair_calls": "count",
    "conditioning.repair_failures": "count",
    "conditioning.repair_shift_fro": "fro",
    "conditioning.eigendecompose_s": "s",
    "conditioning.eigensolves": "count",
    "turnover.fix_sign_basis_s": "s",
    "turnover.turnover_report_s": "s",
    "simulate.sweep_rho_star_s": "s",
    "simulate.gen_one_factor_panel_s": "s",
    "simulate.sweep_points_failed": "count",
    "simulate.simulate_crossing_paths_s": "s",
    "simulate.paths_per_s": "1/s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "error_rate": "ratio",
}

# Time metrics that are the summed durations of one span name: "<span>_s".
SPAN_TIMES = {f"{span}_s": span for span in (
    "panel.load_panel",
    "panel.sample_moments",
    "conditioning.prune_redundant",
    "conditioning.classify_definiteness",
    "conditioning.rj_repair",
    "conditioning.eigendecompose",
    "turnover.fix_sign_basis",
    "turnover.turnover_report",
    "simulate.sweep_rho_star",
    "simulate.gen_one_factor_panel",
    "simulate.simulate_crossing_paths",
    "cli.main",
)}


def layer_values(traced_pass: dict) -> dict:
    """Per-layer numbers of one traced pass, from its spans."""
    spans = [s for r in traced_pass["commands"] for s in r["trace"]["spans"] if s["end"] is not None]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name, key=None):
        return sum((s.get(key, 0.0) if key else s["end"] - s["start"]) for s in named(name))

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    values = {metric: total(span) for metric, span in SPAN_TIMES.items()}
    repairs = named("conditioning.rj_repair")
    values.update({
        "panel.load_panel_mcells_per_s": rate(total("panel.load_panel", "cells") / 1e6, values["panel.load_panel_s"]),
        "panel.moments_gflops": rate(total("panel.sample_moments", "flops") / 1e9, values["panel.sample_moments_s"]),
        "conditioning.series_pruned": total("conditioning.prune_redundant", "pruned"),
        "conditioning.repair_passes": sum(s["eigensolves"] for s in repairs),
        "conditioning.repair_calls": len(repairs),
        "conditioning.repair_failures": sum(1 for s in repairs if s["error"]),
        "conditioning.repair_shift_fro": total("conditioning.rj_repair", "shift_fro"),
        "conditioning.eigensolves": sum(r["trace"]["eigensolves"] for r in traced_pass["commands"]),
        "simulate.sweep_points_failed": total("simulate.sweep_rho_star", "points_failed"),
        "simulate.paths_per_s": rate(total("simulate.simulate_crossing_paths", "paths"),
                                     values["simulate.simulate_crossing_paths_s"]),
    })
    # span ids restart with each command, so self time is taken per command
    values["cli.self_s"] = 0.0
    for r in traced_pass["commands"]:
        child = {}
        for s in r["trace"]["spans"]:
            if s["parent"] is not None and s["end"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        for s in r["trace"]["spans"]:
            if s["name"] == "cli.main" and s["end"] is not None:
                values["cli.self_s"] += s["end"] - s["start"] - child.get(s["id"], 0.0)
    return values


def environment(env: dict) -> dict:
    commit = "unknown"  # a source checkout without .git has no commit to report
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model,
        **{var: env.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def metric_line(name: str, unit: str, stats: dict) -> str:
    return (f"  {name:<40} {stats['median']:.6g} {unit}  (median of {stats['n']}; "
            f"q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, min {stats['min']:.6g}, max {stats['max']:.6g})")


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    if not (SRC / "turnover_spectra" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'turnover_spectra'}; "
                         "run from the root of a source checkout")
    env = child_env()
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = [measure_setup(env)]
        commands = workloads.prepare(workload, seed, workdir, scale)
        passes: list[dict] = []
        start = time.perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            passes.append(run_pass(commands, env, workdir, traced))
            setup.append(measure_setup(env))
            enough = not trace or len(passes) >= 2
            if enough and time.perf_counter() - start >= seconds:
                break
        while len(setup) < SETUP_SAMPLES:
            setup.append(measure_setup(env))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for p in passes for r in p["commands"]]
    attempted = len(records)
    failed = sum(r["failed"] for r in records)
    plain = [p for p in passes if not p["traced"]]
    if trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [layer_values(p) for p in traced]
        stats = {name: summary([v[name] for v in per_pass]) for name in per_pass[0]}
        overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(p["wall_s"] for p in plain)
        stats["trace.overhead_s"] = summary([overhead])
        stats["error_rate"] = summary([failed / attempted])
        units = LAYER_UNITS
    else:
        stats = {name: summary([p[name] for p in plain]) for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        stats["setup_s"] = summary(setup)
        stats["ok_rate"] = summary([1.0 - failed / attempted])
        units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ok_rate": "ratio"}
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "scale": scale,
        "environment": environment(env),
        "passes": len(passes),
        "commands_per_pass": len(commands),
        "attempted": attempted,
        "failed": failed,
        "correct": not any(r["incorrect"] for r in records),
        "failures": [
            {"label": r["label"], "exit": r["exit"], "stderr": r["stderr"], "problem": r["problem"]}
            for r in records if r["failed"]
        ],
        "stats": {name: stats[name] for name in units},
        "units": units,
        "pass_records": passes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="input seed; taken modulo 2**32 (the program's seeds must be nonnegative)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    result = run(args.workload, args.seed % 2**32, args.seconds, bool(args.trace), args.scale)
    OUT.mkdir(exist_ok=True)
    detail = OUT / f"{args.workload}-seed{result['seed']}-trace{args.trace}-{args.scale}.json"
    detail.write_text(json.dumps(result, indent=1), encoding="utf-8")

    print(f"workload {result['workload']} seed {result['seed']} trace {int(result['trace'])}: "
          f"{result['passes']} passes x {result['commands_per_pass']} commands")
    for name, unit in result["units"].items():
        print(metric_line(name, unit, result["stats"][name]))
    print(f"  error_rate {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']} of {result['attempted']} commands failed)")
    seen = set()
    for f in result["failures"]:
        key = (f["label"], f["exit"], f["stderr"], f["problem"])
        if key not in seen:
            seen.add(key)
            print(f"  failed: {f['label']} exit {f['exit']}: {f['problem'] or f['stderr']}")
    for record in next((p["commands"] for p in result["pass_records"] if p["traced"]), []):
        repairs = [s for s in record["trace"]["spans"] if s["name"] == "conditioning.rj_repair"]
        print(f"  traced: {record['label']} exit {record['exit']}, "
              f"{record['trace']['eigensolves']} eigensolves, rj_repair passes "
              + (", ".join(f"{s['eigensolves']}" + (f" ({s['error']})" if s["error"] else "") for s in repairs)
                 or "none"))
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    print(f"detail: {detail.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["stats"][name]["median"], "unit": unit}
            for name, unit in result["units"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
