"""End-to-end command-line runs: artifacts, exit codes, reproducibility."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import turnover_spectra
from turnover_spectra import (
    PAIRWISE_COMPLETE,
    _THREAD_VARS,
    CovarianceMatrix,
    SimConfig,
    TimeSeriesPanel,
    cli,
    conditioning,
    eigendecompose,
    gen_one_factor_panel,
    load_panel,
    sample_moments,
    simulate,
    write_panel,
)
from turnover_spectra.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, SEED_ENV_VAR, main

_rng = np.random.default_rng(12345)
PANEL_CSV = "a1,a2,a3\n" + "\n".join(
    ",".join(f"{value:.6f}" for value in row)
    for row in _rng.standard_normal((16, 3))
) + "\n"

# disjoint observation windows engineered so the pairwise-complete
# correlations are exactly (+0.8, +0.8, -0.8): eigenvalues (1.8, 1.8, -0.6)
NON_PSD_PANEL_CSV = (
    "a,b,c\n"
    "1,2,\n-1,-2,\n2,1,\n-2,-1,\n"
    ",1,2\n,-1,-2\n,2,1\n,-2,-1\n"
    "1,,-2\n-1,,2\n2,,-1\n-2,,1\n"
)

FACTORS_CSV = "mkt\n" + "\n".join(
    f"{value:.6f}" for value in _rng.standard_normal(16)
) + "\n"


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestAnalyze:
    def test_happy_path_writes_full_report(self, tmp_path, monkeypatch):
        panel = write(tmp_path / "panel.csv", PANEL_CSV)
        out = tmp_path / "report.json"
        returned = []
        report_of = cli.turnover_report

        def recorded(*args):
            returned.append(report_of(*args))
            return returned[-1]

        monkeypatch.setattr(cli, "turnover_report", recorded)
        assert main(["analyze", "--input", panel, "--output", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text(encoding="utf-8"))
        report = payload["report"]
        assert set(report) - {"inputs"} == set(returned[0])
        for key in (
            "T_full", "T_large_n", "T_t2", "rho_star", "rho_prime", "psi_star",
            "rho_bar", "rho_one", "rho_star_factored", "rho_star_prime_max",
            "p1_share", "warnings", "inputs",
        ):
            assert key in report
        assert payload["config"]["command"] == "analyze"
        assert report["inputs"]["n_series"] == 3
        assert report["inputs"]["repaired"] is True

    def test_non_psd_pairwise_without_repair_exits_2(self, tmp_path, capsys):
        panel = write(tmp_path / "panel.csv", NON_PSD_PANEL_CSV)
        code = main([
            "analyze", "--input", panel, "--output", str(tmp_path / "r.json"),
            "--mode", "pairwise", "--no-repair",
        ])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "error: correlation matrix is not positive semi-definite; "
            "re-run with --repair to floor the spectrum\n"
        )
        assert sorted(path.name for path in tmp_path.iterdir()) == ["panel.csv"]

    def test_non_psd_pairwise_with_repair_succeeds(self, tmp_path):
        panel = write(tmp_path / "panel.csv", NON_PSD_PANEL_CSV)
        out = tmp_path / "r.json"
        code = main([
            "analyze", "--input", panel, "--output", str(out), "--mode", "pairwise",
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text(encoding="utf-8"))["report"]
        assert report["inputs"]["psd_status_input"] == "verified-not-PSD"
        assert report["inputs"]["repaired"] is True

    def test_engineered_panel_has_expected_pairwise_matrix(self, tmp_path):
        panel = load_panel(write(tmp_path / "panel.csv", NON_PSD_PANEL_CSV))
        corr = sample_moments(panel, PAIRWISE_COMPLETE)
        expected = np.array([[1.0, 0.8, -0.8], [0.8, 1.0, 0.8], [-0.8, 0.8, 1.0]])
        np.testing.assert_allclose(corr.entries, expected, atol=1e-12)

    def test_factors_recorded_in_metadata(self, tmp_path):
        panel = write(tmp_path / "panel.csv", PANEL_CSV)
        factors = write(tmp_path / "factors.csv", FACTORS_CSV)
        out = tmp_path / "report.json"
        code = main([
            "analyze", "--input", panel, "--output", str(out), "--factors", factors,
        ])
        assert code == EXIT_OK
        inputs = json.loads(out.read_text(encoding="utf-8"))["report"]["inputs"]
        assert inputs["residualized"] is True
        assert inputs["factor_ids"] == ["mkt"]

    def test_matrix_input_mode(self, tmp_path):
        matrix = write(
            tmp_path / "corr.csv",
            "x,y\n1.0,0.4\n0.4,1.0\n",
        )
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", matrix, "--output", str(out), "--matrix"]) == EXIT_OK
        report = json.loads(out.read_text(encoding="utf-8"))["report"]
        assert report["rho_star"] == pytest.approx(0.7, abs=1e-10)
        # the matrix's provenance, not the --mode default
        assert report["inputs"]["estimation_mode"] == "external"

    @pytest.mark.parametrize("mode", ["complete", "pairwise"])
    def test_mode_with_matrix_is_refused_before_any_input_is_read(self, tmp_path, capsys, mode):
        # the input does not exist: a refusal after reading it would say so instead
        out = tmp_path / "r.json"
        argv = ["analyze", "--input", str(tmp_path / "absent.csv"), "--output", str(out)]
        assert main([*argv, "--matrix", "--mode", mode]) == EXIT_IO
        assert capsys.readouterr().err == (
            "error: --mode does not apply with --matrix: the matrix's estimator is unknown\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "extra, echoed, reported",
        [
            ([], "complete-cases", "complete-cases"),
            (["--mode", "pairwise"], "pairwise-complete", "pairwise-complete"),
            (["--matrix"], None, "external"),
        ],
        ids=["panel-default", "panel-pairwise", "matrix"],
    )
    def test_config_and_report_echo_the_estimation_mode(self, tmp_path, extra, echoed, reported):
        matrix = "a,b,c\n1.0,0.4,0.1\n0.4,1.0,0.2\n0.1,0.2,1.0\n"
        source = write(tmp_path / "input.csv", matrix if "--matrix" in extra else PANEL_CSV)
        out = tmp_path / "r.json"
        assert main(["analyze", "--input", source, "--output", str(out), *extra]) == EXIT_OK
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["config"]["estimation_mode"] == echoed
        assert payload["report"]["inputs"]["estimation_mode"] == reported

    def test_factors_with_matrix_is_a_usage_error(self, tmp_path, capsys):
        matrix = write(tmp_path / "corr.csv", "x,y\n1.0,0.4\n0.4,1.0\n")
        factors = write(tmp_path / "factors.csv", FACTORS_CSV)
        with pytest.raises(SystemExit) as usage:
            main([
                "analyze", "--input", matrix, "--output", str(tmp_path / "r.json"),
                "--matrix", "--factors", factors,
            ])
        assert usage.value.code == EXIT_IO
        assert "not allowed with argument" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["corr.csv", "factors.csv"]

    @pytest.mark.parametrize(
        "text, extra, message",
        [
            ("a,b\n1,1.000001\n2,2.000001\n3,3.5\n", [], "kept 1 of 2 series"),
            ("a\n1.0\n", ["--matrix"], "kept 1 of 1 series"),
        ],
        ids=["near-duplicate-pair", "one-by-one-matrix"],
    )
    def test_prune_keeping_one_series_exits_1_before_any_output(
        self, tmp_path, capsys, text, extra, message
    ):
        source = write(tmp_path / "input.csv", text)
        code = main(["analyze", "--input", source, "--output", str(tmp_path / "r.json"), *extra])
        assert code == EXIT_IO
        assert capsys.readouterr().err == (
            f"error: --prune 0.9 {message}; the report needs at least 2\n"
        )
        assert [path.name for path in tmp_path.iterdir()] == ["input.csv"]

    def test_missing_input_exits_1(self, tmp_path):
        code = main([
            "analyze", "--input", str(tmp_path / "absent.csv"),
            "--output", str(tmp_path / "r.json"),
        ])
        assert code == EXIT_IO

    def test_malformed_input_exits_1(self, tmp_path):
        bad = write(tmp_path / "bad.csv", "a,b\n1,2\n3\n")
        code = main(["analyze", "--input", bad, "--output", str(tmp_path / "r.json")])
        assert code == EXIT_IO

    @pytest.mark.parametrize(
        "text, extra, passes",
        [(PANEL_CSV, [], 1), (NON_PSD_PANEL_CSV, ["--mode", "pairwise"], None), (PANEL_CSV, ["--no-repair"], 0)],
    )
    def test_report_carries_repair_passes(self, tmp_path, text, extra, passes):
        panel = write(tmp_path / "panel.csv", text)
        out = tmp_path / "r.json"
        assert main(["analyze", "--input", panel, "--output", str(out), *extra]) == EXIT_OK
        inputs = json.loads(out.read_text(encoding="utf-8"))["report"]["inputs"]
        if passes is None:  # a real repair: the count the library reports
            corr = sample_moments(load_panel(panel), PAIRWISE_COMPLETE)
            passes = conditioning.rj_repair(corr, inputs["repair_floor"])._repair_passes
            assert passes >= 2
        assert inputs["repair_passes"] == passes

    def test_positive_definite_panel_costs_one_eigensolve(self, tmp_path, eigensolves):
        panel = write(tmp_path / "panel.csv", PANEL_CSV)
        assert main(["analyze", "--input", panel, "--output", str(tmp_path / "r.json")]) == EXIT_OK
        assert eigensolves == [(3, 3)]

    def test_report_carries_spectral_diagnostics(self, tmp_path):
        panel = write(tmp_path / "panel.csv", NON_PSD_PANEL_CSV)
        out = tmp_path / "r.json"
        assert main(["analyze", "--input", panel, "--output", str(out), "--mode", "pairwise"]) == EXIT_OK
        inputs = json.loads(out.read_text(encoding="utf-8"))["report"]["inputs"]

        corr = sample_moments(load_panel(panel), PAIRWISE_COMPLETE)
        repaired = conditioning.rj_repair(corr, inputs["repair_floor"])
        before = np.linalg.eigvalsh(corr.entries)
        after = np.linalg.eigvalsh(repaired.entries)
        assert inputs["min_eigenvalue_input"] == pytest.approx(-0.6, abs=1e-12)
        assert inputs["min_eigenvalue_input"] == pytest.approx(before.min(), abs=1e-14)
        assert inputs["min_eigenvalue_output"] == pytest.approx(after.min(), abs=1e-14)
        assert inputs["min_eigenvalue_output"] >= inputs["repair_floor"] * (1 - 1e-6)
        shift = np.linalg.norm(repaired.entries - corr.entries)
        assert inputs["repair_shift_fro"] == pytest.approx(shift, rel=1e-12)
        assert inputs["top_gap"] == pytest.approx(after[-1] - after[-2], rel=1e-9)
        assert 0 <= inputs["orthonormality_residual"] < 1e-12

    def test_without_repair_the_output_spectrum_is_the_input_one(self, tmp_path):
        panel = write(tmp_path / "panel.csv", PANEL_CSV)
        out = tmp_path / "r.json"
        assert main(["analyze", "--input", panel, "--output", str(out), "--no-repair"]) == EXIT_OK
        inputs = json.loads(out.read_text(encoding="utf-8"))["report"]["inputs"]
        assert inputs["min_eigenvalue_output"] == inputs["min_eigenvalue_input"] > 0
        assert inputs["repair_shift_fro"] == 0.0

    def test_report_is_byte_identical_from_run_to_run(self, tmp_path):
        panel = write(tmp_path / "panel.csv", NON_PSD_PANEL_CSV)
        out = tmp_path / "r.json"
        args = ["analyze", "--input", panel, "--output", str(out), "--mode", "pairwise"]
        assert main(args) == EXIT_OK
        first = out.read_bytes()
        assert main(args) == EXIT_OK
        assert out.read_bytes() == first

    def test_takes_no_seed(self, tmp_path, monkeypatch):
        panel = write(tmp_path / "panel.csv", PANEL_CSV)
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as usage:
            main(["analyze", "--input", panel, "--output", str(out), "--seed", "3"])
        assert usage.value.code == EXIT_IO
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        assert main(["analyze", "--input", panel, "--output", str(out)]) == EXIT_OK
        assert "seed" not in json.loads(out.read_text(encoding="utf-8"))["config"]


def _oversized_field_text(layout):
    cell = "0." + "0" * csv.field_size_limit() + "1"  # one character over the limit
    if layout == "panel":
        return f"a,b\n1,2\n3,{cell}\n4,5\n"
    return f"a,b\n1.0,{cell}\n{cell},1.0\n"


@pytest.mark.parametrize(
    "layout, argv",
    [("panel", ["analyze"]), ("matrix", ["repair"]), ("matrix", ["analyze", "--matrix"])],
    ids=["panel-analyze", "matrix-repair", "matrix-analyze"],
)
def test_field_over_csv_limit_is_a_one_line_parse_error(tmp_path, capsys, layout, argv):
    source = write(tmp_path / "in.csv", _oversized_field_text(layout))
    code = main([*argv, "--input", source, "--output", str(tmp_path / "out.csv")])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    line = 3 if layout == "panel" else 2
    assert err == f"error: field larger than field limit ({csv.field_size_limit()}) at line {line}\n"


_INVALID_MATRICES = {
    "asymmetric": "a,b\n1.0,0.2\n0.3,1.0\n",
    "asymmetric-past-the-float64-limit": "a,b\n1,1e308\n-1e308,1\n",
    "nan": "a,b\n1.0,nan\n0.2,1.0\n",
    "non-square": "a,b\n1.0,0.2\n0.2,1.0\n0.1,0.1\n",
    "entry-range": "a,b\n1.0,1.5\n1.5,1.0\n",
}


@pytest.mark.parametrize(
    "command, text",
    [
        pytest.param(command, text, id=f"{name}-{kind}")
        for name, command in [("repair", ["repair"]), ("analyze", ["analyze", "--matrix"])]
        for kind, text in _INVALID_MATRICES.items()
    ]
    # repair reads a diagonal off 1 as a covariance matrix
    + [pytest.param(["analyze", "--matrix"], "a,b\n2.0,0.2\n0.2,2.0\n", id="analyze-diagonal")],
)
def test_invalid_matrix_csv_is_a_numeric_refusal(tmp_path, capsys, command, text):
    matrix = write(tmp_path / "matrix.csv", text)
    code = main([*command, "--input", matrix, "--output", str(tmp_path / "out.csv")])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("error: correlation matrix ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command, code, err",
    [
        (["repair"], EXIT_OK, ""),
        # a correlation matrix's diagonal is 1, so this one is refused by that rule alone
        (["analyze", "--matrix"], EXIT_NUMERIC, "error: correlation matrix diagonal must be 1 within 1e-12\n"),
    ],
    ids=["repair", "analyze"],
)
def test_a_matrix_near_the_float64_limit_is_symmetrized_without_overflow(tmp_path, capsys, command, code, err):
    # 1e308 + 1e308 overflows float64, and numpy's warning of it is an error
    # under the pytest settings; half of each is summed instead
    matrix = write(tmp_path / "matrix.csv", "a,b\n1e308,0.5\n0.5000000000000001,1e308\n")
    assert main([*command, "--input", matrix, "--output", str(tmp_path / "out.csv")]) == code
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "mode, text",
    [
        ("complete", "a,b\n1e308,1\n-1e308,2\n1e308,3\n"),
        ("pairwise", "a,b\n1e308,1\n-1e308,2\n1e308,3\n,4\n"),
    ],
    ids=["dense", "masked"],
)
def test_overflowing_moments_exit_2_with_one_line(tmp_path, mode, text):
    # a fresh interpreter, so that a numpy warning would be printed to stderr
    panel = write(tmp_path / "panel.csv", text)
    done = subprocess.run(
        [sys.executable, "-m", "turnover_spectra.cli", "analyze", "--input", panel,
         "--output", str(tmp_path / "r.json"), "--mode", mode],
        env=_thread_env(), capture_output=True, encoding="utf-8", timeout=60,
    )
    assert done.returncode == EXIT_NUMERIC
    assert done.stderr == (
        "error: sample moments overflow float64: the panel's values are too large\n"
    )
    assert list(tmp_path.iterdir()) == [tmp_path / "panel.csv"]


@pytest.mark.parametrize("command", [["repair"], ["analyze", "--matrix"]], ids=["repair", "analyze"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("a,a\n1.0,0.2\n0.2,1.0\n", "duplicate series ids in header (row 0)"),
        ("a,\n1.0,0.2\n0.2,1.0\n", "header must name every series (row 0)"),
        ("\na,b\n1.0,0.2\n0.2,1.0\n", "header must name every series (row 0)"),
        ("a,b\n", "no data rows after the header (row 1)"),
    ],
    ids=["duplicate-id", "blank-id", "blank-first-line", "header-only"],
)
def test_matrix_csv_header_follows_the_panel_rule(tmp_path, capsys, command, text, message):
    matrix = write(tmp_path / "matrix.csv", text)
    code = main([*command, "--input", matrix, "--output", str(tmp_path / "out.csv")])
    assert code == EXIT_IO
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "matrix.csv"]


class TestRepair:
    def test_positive_definite_matrix_costs_one_eigensolve(self, tmp_path, eigensolves):
        matrix = write(tmp_path / "corr.csv", "a,b,c\n1.0,0.3,0.2\n0.3,1.0,0.1\n0.2,0.1,1.0\n")
        assert main(["repair", "--input", matrix, "--output", str(tmp_path / "r.csv")]) == EXIT_OK
        assert eigensolves == [(3, 3)]

    def test_repairs_matrix_and_writes_summary(self, tmp_path):
        matrix = write(
            tmp_path / "corr.csv",
            "a,b,c\n1.0,0.8,-0.8\n0.8,1.0,0.8\n-0.8,0.8,1.0\n",
        )
        out = tmp_path / "repaired.csv"
        assert main(["repair", "--input", matrix, "--output", str(out)]) == EXIT_OK
        repaired = np.loadtxt(out, delimiter=",", skiprows=1, encoding="utf-8")
        assert np.linalg.eigvalsh(repaired).min() > 0
        np.testing.assert_allclose(np.diag(repaired), 1.0, atol=1e-12)
        summary = json.loads((tmp_path / "repaired.json").read_text(encoding="utf-8"))
        assert summary["report"]["psd_status"] == "verified-PD"

    def test_byte_order_mark_reaches_neither_artifact(self, tmp_path):
        text = "a,b\n4.0,1.0\n1.0,9.0\n"
        for name, prefix in (("plain", ""), ("marked", "\ufeff")):
            matrix = write(tmp_path / f"{name}.csv", prefix + text)
            out = str(tmp_path / f"{name}-out.csv")
            assert main(["repair", "--input", matrix, "--output", out]) == EXIT_OK
        for suffix in ("-out.csv", "-out.json"):  # the JSON's config names its own paths
            plain = (tmp_path / f"plain{suffix}").read_text(encoding="utf-8")
            marked = (tmp_path / f"marked{suffix}").read_text(encoding="utf-8")
            assert marked == plain.replace("plain", "marked")
        assert (tmp_path / "marked-out.csv").read_text(encoding="utf-8").startswith("a,b\n")

    def test_covariance_input_detected(self, tmp_path):
        matrix = write(
            tmp_path / "cov.csv",
            "a,b\n4.0,1.0\n1.0,9.0\n",
        )
        out = tmp_path / "repaired.csv"
        assert main(["repair", "--input", matrix, "--output", str(out)]) == EXIT_OK
        repaired = np.loadtxt(out, delimiter=",", skiprows=1, encoding="utf-8")
        np.testing.assert_allclose(np.diag(repaired), [4.0, 9.0], atol=1e-12)

    def test_covariance_diagonal_is_kept_bit_for_bit(self, tmp_path):
        # neither 2.0 nor 3.0 is the square of a double: sqrt(2.0)**2 reads
        # 2.0000000000000004, so vols stored beside the entries would move them
        matrix = write(tmp_path / "cov.csv", "a,b\n2.0,3.0\n3.0,3.0\n")  # not PSD
        out = tmp_path / "repaired.csv"
        assert main(["repair", "--input", matrix, "--output", str(out)]) == EXIT_OK
        repaired = np.loadtxt(out, delimiter=",", skiprows=1, encoding="utf-8")
        assert repaired[0, 1] < 3.0
        np.testing.assert_array_equal(np.diag(repaired), [2.0, 3.0])


    @pytest.mark.parametrize(
        "text",
        [
            "a,b,c\n1.0,0.8,-0.8\n0.8,1.0,0.8\n-0.8,0.8,1.0\n",
            "a,b,c\n4.0,4.8,-1.6\n4.8,9.0,2.4\n-1.6,2.4,1.0\n",
        ],
        ids=["correlation", "covariance"],
    )
    def test_parses_input_once_and_matches_separate_loaders(self, tmp_path, monkeypatch, text):
        matrix = write(tmp_path / "in.csv", text)
        calls = []
        parse = conditioning._square_from_csv

        def counting(source):
            calls.append(source)
            return parse(source)

        monkeypatch.setattr(conditioning, "_square_from_csv", counting)
        monkeypatch.setattr(cli, "_square_from_csv", counting)
        out = tmp_path / "repaired.csv"
        assert main(["repair", "--input", matrix, "--output", str(out)]) == EXIT_OK
        assert len(calls) == 1
        monkeypatch.undo()

        # reference: pick the loader from the diagonal, then load again
        diagonal = np.diag(np.loadtxt(matrix, delimiter=",", skiprows=1, encoding="utf-8"))
        if np.all(np.abs(diagonal - 1.0) <= 1e-12):
            loaded = conditioning.correlation_from_csv(matrix)
        else:
            ids, entries = conditioning._square_from_csv(matrix)
            loaded = CovarianceMatrix(entries, ids=ids)
        floor = conditioning.default_floor(loaded.n)
        repaired = conditioning.rj_repair(loaded, floor)
        expected_csv = io.StringIO()
        conditioning.matrix_to_csv(repaired, expected_csv)
        assert out.read_text(encoding="utf-8") == expected_csv.getvalue()
        summary = json.loads((tmp_path / "repaired.json").read_text(encoding="utf-8"))
        assert summary["repair_floor"] == floor
        expected_report = json.loads(json.dumps(cli._jsonable(conditioning.matrix_report(repaired))))
        assert summary["report"] == expected_report
        # the CSV is the one copy of the repaired matrix
        assert set(summary) == {"config", "repair_floor", "report"}
        assert set(summary["report"]) == {"ids", "eigenvalues", "psd_status"}


class TestSweep:
    def run_sweep(self, tmp_path, name, extra=()):
        out = tmp_path / name
        code = main([
            "sweep", "--output", str(out), "--grid", "8,16", "--rho", "0.3",
            "--periods", "120", "--seed", "7", *extra,
        ])
        assert code == EXIT_OK
        return out.read_bytes(), (tmp_path / name).with_suffix(".json").read_bytes()

    def test_deterministic_artifacts(self, tmp_path):
        csv_a, json_a = self.run_sweep(tmp_path, "one.csv")
        csv_b, json_b = self.run_sweep(tmp_path, "two.csv")
        assert csv_a == csv_b
        summary_a = json.loads(json_a)
        summary_b = json.loads(json_b)
        assert summary_a["rho_stars"] == summary_b["rho_stars"]
        assert summary_a["slope_no_intercept"] == summary_b["slope_no_intercept"]

    def test_certified_points_solve_no_full_spectrum_and_a_fallback_solves_one(
        self, tmp_path, eigensolves, monkeypatch
    ):
        _, json_bytes = self.run_sweep(tmp_path, "sweep.csv")
        assert json.loads(json_bytes)["solvers"] == ["leading-pair", "leading-pair"]
        assert json.loads(json_bytes)["degenerate_top"] == [False, False]
        assert eigensolves == []  # certified points call no eigh at all

        leading_pair = simulate._leading_pair
        monkeypatch.setattr(
            simulate, "_leading_pair", lambda corr, floor: None if corr.n == 16 else leading_pair(corr, floor)
        )
        eigensolves.clear()
        _, json_bytes = self.run_sweep(tmp_path, "forced.csv")
        assert json.loads(json_bytes)["solvers"] == ["leading-pair", "full"]
        assert eigensolves == [(16, 16)]

    def test_failing_points_leave_nan_points_and_their_messages(self, tmp_path, monkeypatch):
        # N=32 fails in its generator, N=64 in its solve
        one_factor = cli.one_factor_generator

        def failing_generator(rho, n_periods):
            generate = one_factor(rho, n_periods)

            def generator(n_alphas, seed):
                if n_alphas == 32:
                    raise RuntimeError("synthetic generator failure")
                return generate(n_alphas, seed)

            return generator

        leading_pair = simulate._leading_pair

        def failing_solve(corr, floor):
            if corr.n == 64:
                raise np.linalg.LinAlgError("synthetic numeric failure")
            return leading_pair(corr, floor)

        monkeypatch.setattr(cli, "one_factor_generator", failing_generator)
        monkeypatch.setattr(simulate, "_leading_pair", failing_solve)
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--output", str(out), "--grid", "8,16,32,64", "--rho", "0.3",
            "--periods", "200", "--seed", "7",
        ]) == EXIT_OK
        summary = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
        assert summary["errors"] == [
            "N=32: synthetic generator failure", "N=64: synthetic numeric failure",
        ]
        assert summary["solvers"] == ["leading-pair", "leading-pair", "failed", "failed"]

    def test_summary_embeds_config_and_seed(self, tmp_path):
        _, json_bytes = self.run_sweep(tmp_path, "sweep.csv")
        summary = json.loads(json_bytes)
        assert summary["config"]["seed"] == 7
        assert summary["config"]["grid"] == [8, 16]
        assert summary["config"]["rho"] == 0.3

    def test_single_point_grid_exits_1(self, tmp_path):
        code = main([
            "sweep", "--output", str(tmp_path / "s.csv"), "--grid", "100",
        ])
        assert code == EXIT_IO

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--rho", "1.5"], "--rho must lie in [0, 1], got 1.5"),
            (["--rho", "-0.2"], "--rho must lie in [0, 1], got -0.2"),
            (["--periods", "1"], "--periods must be at least 2, got 1"),
        ],
        ids=["rho-1.5", "rho-neg", "periods-1"],
    )
    def test_bad_generator_arguments_exit_1_before_any_output(self, tmp_path, capsys, extra, message):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--output", str(out), "--grid", "10,20", *extra]) == EXIT_IO
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_csv_has_f_column(self, tmp_path):
        csv_bytes, _ = self.run_sweep(tmp_path, "sweep.csv")
        header = csv_bytes.decode().splitlines()[0]
        assert header == "N,rho_star,rho_star_times_n,slope,F"

    def test_env_seed_overrides_flag(self, tmp_path, monkeypatch):
        baseline_csv, _ = self.run_sweep(tmp_path, "base.csv")

        monkeypatch.setenv(SEED_ENV_VAR, "7")
        out = tmp_path / "env.csv"
        code = main([
            "sweep", "--output", str(out), "--grid", "8,16", "--rho", "0.3",
            "--periods", "120", "--seed", "12345",
        ])
        assert code == EXIT_OK
        assert out.read_bytes() == baseline_csv
        assert json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))["config"]["seed"] == 7

    def test_bad_env_seed_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        code = main([
            "sweep", "--output", str(tmp_path / "s.csv"), "--grid", "8,16",
        ])
        assert code == EXIT_IO


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--rho", "1.5"], "--rho must lie in [0, 1], got 1.5"),
        (["simulate", "--n-alphas", "1"], "--n-alphas must be at least 2, got 1"),
        (["simulate", "--instruments", "0"], "--instruments must be at least 1, got 0"),
        (["simulate", "--paths", "0"], "--paths must be at least 1, got 0"),
        (["analyze", "--input", "PANEL", "--prune", "1.5"], "--prune must lie in (0, 1), got 1.5"),
        (["analyze", "--input", "PANEL", "--floor", "-1"],
         "--floor must be positive and finite, got -1.0"),
        (["repair", "--input", "MATRIX", "--floor", "0"],
         "--floor must be positive and finite, got 0.0"),
        (["sweep", "--grid", "10,20", "--floor", "-1"],
         "--floor must be positive and finite, got -1.0"),
        (["analyze", "--input", "PANEL", "--floor", "nan"],
         "--floor must be positive and finite, got nan"),
        (["analyze", "--input", "PANEL", "--no-repair", "--floor", "inf"],
         "--floor must be positive and finite, got inf"),
        (["repair", "--input", "MATRIX", "--floor", "inf"],
         "--floor must be positive and finite, got inf"),
        (["sweep", "--grid", "10,20", "--floor", "nan"],
         "--floor must be positive and finite, got nan"),
        (["simulate", "--seed", "-1"], "--seed must be an unsigned 64-bit integer, got -1"),
        (["sweep", "--grid", "10,20", "--seed", str(2**64)],
         f"--seed must be an unsigned 64-bit integer, got {2**64}"),
    ],
    ids=["simulate-rho", "n-alphas", "instruments", "paths", "prune", "analyze-floor",
         "repair-floor", "sweep-floor", "analyze-floor-nan", "analyze-floor-inf",
         "repair-floor-inf", "sweep-floor-nan", "simulate-seed", "sweep-seed"],
)
def test_numeric_flag_refusal_names_the_flag(tmp_path, capsys, argv, message):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    paths = {
        "PANEL": write(inputs / "panel.csv", PANEL_CSV),
        "MATRIX": write(inputs / "corr.csv", "a,b\n1.0,0.4\n0.4,1.0\n"),
    }
    out = tmp_path / "out"
    out.mkdir()
    argv = [paths.get(arg, arg) for arg in argv]
    assert main([*argv, "--output", str(out / "result.csv")]) == EXIT_IO
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv", [["analyze", "--input", "ABSENT"], ["sweep", "--grid", "10,20"]], ids=["analyze", "sweep"]
)
def test_floor_with_no_repair_is_refused_before_any_input_is_read(tmp_path, capsys, argv):
    # the input does not exist: a refusal after reading it would say so instead
    argv = [str(tmp_path / "absent.csv") if arg == "ABSENT" else arg for arg in argv]
    out = tmp_path / "out"
    out.mkdir()
    assert main([*argv, "--no-repair", "--floor", "0.5", "--output", str(out / "r.csv")]) == EXIT_IO
    assert capsys.readouterr().err == (
        "error: --floor does not apply with --no-repair: only a repair floors the spectrum\n"
    )
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("kind", ["same-path", "symlink", "hardlink"])
@pytest.mark.parametrize(
    "command, flag, source_name, output_name",
    [
        ("analyze", "--input", "panel.csv", "panel.csv"),
        ("analyze", "--factors", "factors.csv", "factors.csv"),
        ("repair", "--input", "corr.csv", "corr.csv"),
        ("repair", "--input", "corr.json", "corr.csv"),  # the JSON summary lands on the input
    ],
    ids=["analyze-input", "analyze-factors", "repair-csv", "repair-json"],
)
def test_an_output_that_is_an_input_is_refused_and_nothing_is_written(
    tmp_path, capsys, command, flag, source_name, output_name, kind
):
    texts = {"panel.csv": PANEL_CSV, "factors.csv": FACTORS_CSV}
    source = Path(write(tmp_path / source_name, texts.get(source_name, "a,b\n1.0,0.4\n0.4,1.0\n")))
    argv = [command, flag, str(source)]
    if flag == "--factors":
        argv += ["--input", write(tmp_path / "panel.csv", PANEL_CSV)]
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    # the output reaches the input by its own path, or through a link in another directory
    where = tmp_path
    if kind != "same-path":
        where = tmp_path / "links"
        where.mkdir()
        if kind == "symlink":
            (where / source_name).symlink_to(source)
        else:
            os.link(source, where / source_name)
    assert main([*argv, "--output", str(where / output_name)]) == EXIT_IO
    message = (
        f"{where / source_name} is the {flag} file {source}; the command would "
        "overwrite its input, so give --output another path"
    )
    assert capsys.readouterr().err == f"error: {message}\n"
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == before
    if kind != "same-path":
        assert [path.name for path in where.iterdir()] == [source_name]


@pytest.mark.parametrize(
    "argv", [["repair", "--input", "MATRIX"], ["sweep", "--grid", "10,20"]], ids=["repair", "sweep"]
)
def test_csv_output_ending_in_json_is_refused_before_any_work(tmp_path, capsys, argv):
    # the JSON summary goes to the CSV's path with a .json suffix, which would
    # then overwrite the CSV, the only copy of the repaired matrix or sweep
    # (in any case: on a case-insensitive file system result.JSON is result.json)
    matrix = write(tmp_path / "corr.csv", "a,b\n1.0,0.4\n0.4,1.0\n")
    out = tmp_path / "out"
    out.mkdir()
    argv = [matrix if arg == "MATRIX" else arg for arg in argv]
    for name in ("result.json", "result.JSON"):
        target = out / name
        assert main([*argv, "--output", str(target)]) == EXIT_IO
        message = (
            f"--output {target} ends in .json, where the JSON summary would overwrite "
            "the CSV; give the CSV another suffix"
        )
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv", [["repair", "--input", "MATRIX"], ["sweep", "--grid", "10,20"]], ids=["repair", "sweep"]
)
def test_csv_output_with_no_name_fails_where_the_csv_is_written(tmp_path, capsys, monkeypatch, argv):
    # the JSON path is derived without raising, so the error is the CSV write's own
    matrix = write(tmp_path / "corr.csv", "a,b\n1.0,0.4\n0.4,1.0\n")
    monkeypatch.chdir(tmp_path)
    argv = [matrix if arg == "MATRIX" else arg for arg in argv]
    assert main([*argv, "--output", "."]) == EXIT_IO
    assert capsys.readouterr().err == "error: [Errno 21] Is a directory: '.'\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["corr.csv"]


@pytest.mark.parametrize(
    "command, text",
    [("analyze", "a,b\n1.0,2.0\n2.0,1.0\n3.0,5.0\n"), ("repair", "a,b\n1.0,0.4\n0.4,1.0\n")],
    ids=["analyze", "repair"],
)
def test_a_csv_that_begins_with_two_byte_order_marks_exits_1_and_writes_nothing(
    tmp_path, capsys, command, text
):
    # the reader drops one mark, and the first id that the second one begins
    # would not read back as written: it is refused, not carried into an artifact
    source = tmp_path / "marked.csv"
    source.write_bytes(("\ufeff\ufeff" + text).encode("utf-8"))
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, "--input", str(source), "--output", str(out / "result.csv")]) == EXIT_IO
    assert capsys.readouterr().err == (
        "error: first id '\\ufeffa' begins with U+FEFF, a mark the reader drops\n"
    )
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--grid", "10,20"]],
                         ids=["simulate", "sweep"])
@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2**64"])
def test_seed_out_of_range_from_the_environment_names_the_variable(
    tmp_path, capsys, monkeypatch, command, seed
):
    monkeypatch.setenv(SEED_ENV_VAR, str(seed))
    out = tmp_path / "out"
    out.mkdir()
    assert main([*command, "--seed", "3", "--output", str(out / "result.csv")]) == EXIT_IO
    message = f"{SEED_ENV_VAR} must be an unsigned 64-bit integer, got {seed}"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out.iterdir()) == []


class TestSimulate:
    def test_artifact_fields_and_determinism(self, tmp_path):
        out = tmp_path / "sim.json"
        args = [
            "simulate", "--rho", "0.5", "--n-alphas", "12", "--paths", "40",
            "--seed", "3", "--output", str(out),
        ]
        assert main(args) == EXIT_OK
        first = out.read_bytes()
        assert main(args) == EXIT_OK
        assert out.read_bytes() == first
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert 0.0 <= payload["crossing_ratio"] <= 1.0
        assert len(payload["per_path_ratios"]) == 40
        assert payload["config"]["rho"] == 0.5


# the keys of each command's echoed ``config``: exactly the arguments it takes
CONFIG_KEYS = {
    "analyze": {
        "command", "input_path", "output_path", "estimation_mode", "prune_bound",
        "repair", "repair_floor", "factor_path", "matrix_input",
    },
    "repair": {"command", "input_path", "output_path", "repair_floor"},
    "sweep": {
        "command", "output_path", "grid", "rho", "n_periods",
        "repair", "repair_floor", "seed",
    },
    "simulate": {"command", "output_path", "rho", "n_alphas", "n_instruments", "n_paths", "seed"},
}


@pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
def test_config_echoes_exactly_the_arguments_its_command_takes(tmp_path, command):
    panel = write(tmp_path / "panel.csv", PANEL_CSV)
    matrix = write(tmp_path / "corr.csv", "a,b\n1.0,0.4\n0.4,1.0\n")
    output, extra, expected = {
        "analyze": (
            "report.json",
            ["--input", panel, "--mode", "pairwise", "--prune", "0.95"],
            {"estimation_mode": "pairwise-complete", "prune_bound": 0.95, "input_path": panel},
        ),
        "repair": ("out.csv", ["--input", matrix, "--floor", "0.001"], {"repair_floor": 0.001}),
        "sweep": (
            "sweep.csv",
            ["--grid", "16,8", "--periods", "120", "--no-repair"],
            {"grid": [8, 16], "n_periods": 120, "repair": False, "repair_floor": None},
        ),
        "simulate": (
            "sim.json",
            ["--n-alphas", "6", "--instruments", "2", "--paths", "5", "--rho", "0.4"],
            {"n_alphas": 6, "n_instruments": 2, "n_paths": 5, "rho": 0.4, "seed": 0},
        ),
    }[command]
    out = tmp_path / output
    assert main([command, "--output", str(out), *extra]) == EXIT_OK
    config = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))["config"]
    assert set(config) == CONFIG_KEYS[command]
    assert config["command"] == command
    assert config["output_path"] == str(out)
    for key, value in expected.items():
        assert config[key] == value


# every option of every command: (default, choices, required), as the flags were first defined
PARSER_OPTIONS = {
    "analyze": {
        "--input": (None, None, True),
        "--output": (None, None, True),
        # no default, so that main can refuse --mode with --matrix
        "--mode": (None, ["complete", "pairwise"], False),
        "--prune": (0.9, None, False),
        "--repair/--no-repair": (True, None, False),
        "--floor": (None, None, False),
        "--factors": (None, None, False),
        "--matrix": (False, None, False),
    },
    "repair": {
        "--input": (None, None, True),
        "--output": (None, None, True),
        "--floor": (None, None, False),
    },
    "sweep": {
        "--output": (None, None, True),
        "--grid": (None, None, True),
        "--rho": (0.25, None, False),
        "--periods": (2000, None, False),
        "--repair/--no-repair": (True, None, False),
        "--floor": (None, None, False),
        "--seed": (0, None, False),
    },
    "simulate": {
        "--output": (None, None, True),
        "--rho": (0.25, None, False),
        "--n-alphas": (50, None, False),
        "--instruments": (4, None, False),
        "--paths": (256, None, False),
        "--seed": (0, None, False),
    },
}


def test_parser_keeps_every_flag_default_and_choice():
    (commands,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert set(commands.choices) == set(PARSER_OPTIONS)
    for name, parser in commands.choices.items():
        options = {
            "/".join(action.option_strings): (action.default, action.choices, action.required)
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
        }
        assert options == PARSER_OPTIONS[name], name


class TestJsonSentinels:
    def test_inf_and_nan_serialization(self):
        from turnover_spectra.cli import _jsonable

        assert _jsonable(float("inf")) == "inf"
        assert _jsonable(float("-inf")) == "-inf"
        assert _jsonable(float("nan")) is None
        assert _jsonable({"x": (1, np.float64(2.5))}) == {"x": [1, 2.5]}


def _thread_env(threads: int | None = None) -> dict[str, str]:
    """This process's environment with the package's source importable and
    every BLAS thread count set to ``threads``, or none of them set."""
    src = str(Path(turnover_spectra.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key not in _THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if threads is not None:
        env.update(dict.fromkeys(_THREAD_VARS, str(threads)))
    return env


def _after_import(statement: str, env: dict[str, str]) -> tuple[dict, bool]:
    """The three thread counts, and whether numpy is loaded, in a fresh
    interpreter after ``statement``."""
    probe = (
        f"import json, os, sys; {statement}; "
        f"print(json.dumps([{{v: os.environ.get(v) for v in {_THREAD_VARS!r}}}, 'numpy' in sys.modules]))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=60,
                         capture_output=True, encoding="utf-8").stdout
    return tuple(json.loads(out))


def _run_with_threads(threads: int | None, *args: str) -> None:
    subprocess.run(
        [sys.executable, "-m", "turnover_spectra.cli", *args],
        env=_thread_env(threads), check=True, timeout=300,
    )


def _assert_close_json(one, two, tolerance: float, path: str = "") -> None:
    """Every float within ``tolerance``; every other value equal."""
    assert type(one) is type(two), path
    if isinstance(one, dict):
        assert one.keys() == two.keys(), path
        for key in one:
            _assert_close_json(one[key], two[key], tolerance, f"{path}/{key}")
    elif isinstance(one, list):
        assert len(one) == len(two), path
        for i, (a, b) in enumerate(zip(one, two)):
            _assert_close_json(a, b, tolerance, f"{path}[{i}]")
    elif isinstance(one, float):
        assert abs(one - two) <= tolerance, (path, one, two)
    else:
        assert one == two, path


class TestThreadCounts:
    """A command runs BLAS on one thread unless its caller sets a count, and
    artifacts under one and two threads agree within N * eps * max|lambda|.

    The sizes are where BLAS threads its products and ``eigh`` its updates:
    at 120 x 300 and 200 x 1000 the two runs are bit-identical, so a smaller
    case would show nothing. Values inside a degenerate eigenvalue cluster
    (``T_full`` on a floored spectrum) are not covered here.
    """

    N = 300

    def _pairwise_panel(self) -> TimeSeriesPanel:
        """N x 900 with 45 % of cells missing: its pairwise matrix is not PSD,
        and the repair floors a cluster of eigenvalues."""
        values = gen_one_factor_panel(SimConfig(self.N, 900, target_correlation=0.3, master_seed=6)).values
        mask = np.random.default_rng(3).random(values.shape) > 0.45
        ids = tuple(f"s{i}" for i in range(self.N))
        return TimeSeriesPanel(ids, np.where(mask, values, np.nan))

    def test_importing_the_cli_sets_one_thread(self):
        counts, _ = _after_import("import turnover_spectra.cli", _thread_env())
        assert counts == dict.fromkeys(_THREAD_VARS, "1")

    def test_a_count_the_caller_set_is_kept(self):
        env = dict(_thread_env(), OMP_NUM_THREADS="2")
        counts, _ = _after_import("import turnover_spectra.cli", env)
        assert counts == {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None}

    def test_the_package_import_loads_no_numpy_and_sets_nothing(self):
        counts, numpy_loaded = _after_import("import turnover_spectra", _thread_env())
        assert counts == dict.fromkeys(_THREAD_VARS) and not numpy_loaded
        # a library caller that reaches numpy through the package keeps its environment
        counts, numpy_loaded = _after_import(
            "import turnover_spectra; turnover_spectra.rho_star; import turnover_spectra.cli", _thread_env()
        )
        assert counts == dict.fromkeys(_THREAD_VARS) and numpy_loaded

    def test_pairwise_analyze_by_default_is_the_one_thread_run(self, tmp_path):
        write_panel(self._pairwise_panel(), tmp_path / "panel.csv")
        outputs = []
        for threads in (None, 1):
            out = tmp_path / f"threads{threads}.json"
            _run_with_threads(threads, "analyze", "--mode", "pairwise",
                              "--input", str(tmp_path / "panel.csv"), "--output", str(out))
            artifact = json.loads(out.read_text(encoding="utf-8"))
            del artifact["config"]
            outputs.append(json.dumps(artifact, sort_keys=True))
        assert outputs[0] == outputs[1]

    def test_analyze_on_a_complete_panel(self, tmp_path):
        panel = gen_one_factor_panel(SimConfig(self.N, 3000, target_correlation=0.3, master_seed=5))
        panel = TimeSeriesPanel(panel.series_ids, np.round(panel.values, 4))
        write_panel(panel, tmp_path / "panel.csv")
        top = eigendecompose(sample_moments(panel)).eigenvalues[0]
        reports = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}.json"
            _run_with_threads(threads, "analyze", "--input", str(tmp_path / "panel.csv"), "--output", str(out))
            reports.append(json.loads(out.read_text(encoding="utf-8"))["report"])
        _assert_close_json(*reports, self.N * np.finfo(float).eps * top)

    def test_repair_of_a_non_psd_pairwise_matrix(self, tmp_path):
        corr = sample_moments(self._pairwise_panel(), PAIRWISE_COMPLETE)
        assert conditioning.classify_definiteness(corr) == "verified-not-PSD"
        conditioning.matrix_to_csv(corr, tmp_path / "pairwise.csv")
        entries, summaries = [], []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}.csv"
            _run_with_threads(threads, "repair", "--input", str(tmp_path / "pairwise.csv"), "--output", str(out))
            entries.append(np.loadtxt(out, delimiter=",", skiprows=1, encoding="utf-8"))
            summaries.append(json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))["report"])
        tolerance = self.N * np.finfo(float).eps * max(map(abs, summaries[0]["eigenvalues"]))
        _assert_close_json(*summaries, tolerance)
        assert np.abs(entries[0] - entries[1]).max() <= tolerance
