"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Checks that every workload runs and prints every metric named in
BENCHMARK.json with its unit, that the traced counts repeat exactly over
two traced runs, that a malformed CSV is counted as a failed command (exit
1) without stopping the harness, and that the benchmark refuses to run
without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import run
import workloads


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args, "--seconds", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "0", "--trace", str(trace), "--scale", "tiny")
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_metrics(spec: dict, workload: str, trace: int, result: dict) -> None:
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"], f"{workload}: outputs incorrect"
    assert result["attempted"] >= 1
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        assert got is not None, f"{workload} trace {trace}: {metric['name']} missing"
        assert got["unit"] == metric["unit"], f"{metric['name']}: unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{metric['name']}: {got['value']!r}"
    assert len(result["metrics"]) == len(wanted), sorted(result["metrics"])


def check_counts_repeat(spec: dict, workload: str, first: dict) -> None:
    second = result_of(workload, 1)
    for metric in spec["per_layer"]:
        if metric["unit"] == "count":
            a, b = first["metrics"][metric["name"]]["value"], second["metrics"][metric["name"]]["value"]
            assert a == b, f"{workload}: {metric['name']} was {a}, then {b}"


def check_malformed_csv() -> None:
    workdir = run.OUT / "smoke-malformed"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bad = workdir / "bad.csv"
        bad.write_text("s0000,s0001\n0.5,oops\n0.1,0.2\n", encoding="utf-8")
        out = workdir / "bad.json"
        command = workloads.Command(
            "malformed", ["analyze", "--input", str(bad), "--output", str(out)], out, lambda: None
        )
        record = run.run_pass([command], run.child_env(), workdir, False)["commands"][0]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert record["exit"] == 1, record
    assert record["failed"] and not record["incorrect"], record
    assert record["stderr"].startswith("error:"), record


def check_refuses_without_source(spec: dict) -> None:
    bare = run.OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "sweep", "--seed", "0", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "ran without the package source"
    assert not proc.stdout.strip(), proc.stdout


def check_workload(spec: dict, workload: str, trace: int) -> None:
    result = result_of(workload, trace)
    check_metrics(spec, workload, trace, result)
    if trace:
        check_counts_repeat(spec, workload, result)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    checks = [("malformed CSV is a counted failure", check_malformed_csv),
              ("refuses to run without src/", partial(check_refuses_without_source, spec))]
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            checks.append((f"{workload} trace {trace}", partial(check_workload, spec, workload, trace)))
    failures = 0
    for name, check in checks:
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
