"""End-to-end metamorphic properties of ``analyze``: its models and
coefficients do not depend on how the series are ordered, signed or scaled.

The properties are stated within an ``N * eps`` relative tolerance rather
than bit for bit, so they guard any refactor of the pipeline that keeps its
mathematics. Each case holds two preconditions, asserted on the original
run: nothing is pruned (``prune_redundant`` scans greedily in index order,
so a permutation could keep other series) and the repair leaves the
spectrum alone, in one pass (inside a floored eigenvalue cluster the full
model depends on the basis the eigensolver picks).
"""

import json

import numpy as np
import pytest

from turnover_spectra import SimConfig, TimeSeriesPanel, gen_one_factor_panel, write_panel
from turnover_spectra.cli import EXIT_OK, main

N, M, RHO = 60, 300, 0.25
MISSING = 0.10
# the report's keys that hold text, compared exactly; every other key but
# ``inputs`` holds a model or a coefficient
STRINGS = ("normalization", "warnings")


def one_factor_values(seed: int, missing: float) -> np.ndarray:
    values = np.array(gen_one_factor_panel(SimConfig(N, M, 1, RHO, seed)).values)
    if missing:
        holes = np.random.default_rng([seed, 1]).random(values.shape) < missing
        values[holes] = np.nan
    return values


def transformed(values: np.ndarray, how: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 2])
    if how == "permuted":
        return values[rng.permutation(N)]
    if how == "re-signed":
        return values * np.where(rng.random(N) < 0.5, -1.0, 1.0)[:, None]
    return values * rng.uniform(0.1, 10.0, N)[:, None]


def report_of(tmp_path, name: str, values: np.ndarray, mode: str) -> dict:
    ids = tuple(f"a{i:02d}" for i in range(N))
    panel_csv, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
    write_panel(TimeSeriesPanel(ids, values), panel_csv)
    argv = ["analyze", "--input", str(panel_csv), "--output", str(out), "--mode", mode]
    assert main(argv) == EXIT_OK
    return json.loads(out.read_text(encoding="utf-8"))["report"]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "missing, mode", [(0.0, "complete"), (MISSING, "pairwise")], ids=["complete", "pairwise"]
)
def test_analyze_is_invariant_to_order_sign_and_scale(tmp_path, seed, missing, mode):
    values = one_factor_values(seed, missing)
    original = report_of(tmp_path, "original", values, mode)
    assert original["inputs"]["n_kept"] == N
    assert original["inputs"]["repair_passes"] == 1
    assert original["inputs"]["repair_shift_fro"] == 0.0
    numbers = sorted(key for key in original if key not in (*STRINGS, "inputs"))
    assert numbers  # the models and coefficients
    for how in ("permuted", "re-signed", "rescaled"):
        report = report_of(tmp_path, how, transformed(values, how, seed), mode)
        assert report.keys() == original.keys()
        for key in STRINGS:
            assert report[key] == original[key], (how, key)
        np.testing.assert_allclose(
            [report[key] for key in numbers],
            [original[key] for key in numbers],
            rtol=N * np.finfo(float).eps,
            atol=0.0,
            err_msg=f"{how}: {numbers}",
        )
