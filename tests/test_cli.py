"""End-to-end command-line runs: artifacts, exit codes, reproducibility."""

import io
import json

import numpy as np
import pytest

from turnover_spectra import PAIRWISE_COMPLETE, cli, conditioning, load_panel, sample_moments
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
    def test_happy_path_writes_full_report(self, tmp_path):
        panel = write(tmp_path / "panel.csv", PANEL_CSV)
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", panel, "--output", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        report = payload["report"]
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
        assert "--repair" in capsys.readouterr().err

    def test_non_psd_pairwise_with_repair_succeeds(self, tmp_path):
        panel = write(tmp_path / "panel.csv", NON_PSD_PANEL_CSV)
        out = tmp_path / "r.json"
        code = main([
            "analyze", "--input", panel, "--output", str(out), "--mode", "pairwise",
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())["report"]
        assert report["inputs"]["psd_status_input"] == "verified-not-PSD"
        assert report["inputs"]["repaired"] is True

    def test_engineered_panel_has_expected_pairwise_matrix(self, tmp_path):
        panel = load_panel(write(tmp_path / "panel.csv", NON_PSD_PANEL_CSV))
        _, corr = sample_moments(panel, PAIRWISE_COMPLETE)
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
        inputs = json.loads(out.read_text())["report"]["inputs"]
        assert inputs["residualized"] is True
        assert inputs["factor_ids"] == ["mkt"]

    def test_matrix_input_mode(self, tmp_path):
        matrix = write(
            tmp_path / "corr.csv",
            "x,y\n1.0,0.4\n0.4,1.0\n",
        )
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", matrix, "--output", str(out), "--matrix"]) == EXIT_OK
        report = json.loads(out.read_text())["report"]
        assert report["rho_star"] == pytest.approx(0.7, abs=1e-10)

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

    def test_takes_no_seed(self, tmp_path, monkeypatch):
        panel = write(tmp_path / "panel.csv", PANEL_CSV)
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as usage:
            main(["analyze", "--input", panel, "--output", str(out), "--seed", "3"])
        assert usage.value.code == EXIT_IO
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        assert main(["analyze", "--input", panel, "--output", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["config"]["seed"] == 0


class TestRepair:
    def test_repairs_matrix_and_writes_summary(self, tmp_path):
        matrix = write(
            tmp_path / "corr.csv",
            "a,b,c\n1.0,0.8,-0.8\n0.8,1.0,0.8\n-0.8,0.8,1.0\n",
        )
        out = tmp_path / "repaired.csv"
        assert main(["repair", "--input", matrix, "--output", str(out)]) == EXIT_OK
        repaired = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.linalg.eigvalsh(repaired).min() > 0
        np.testing.assert_allclose(np.diag(repaired), 1.0, atol=1e-12)
        summary = json.loads((tmp_path / "repaired.json").read_text())
        assert summary["report"]["psd_status"] == "verified-PD"

    def test_covariance_input_detected(self, tmp_path):
        matrix = write(
            tmp_path / "cov.csv",
            "a,b\n4.0,1.0\n1.0,9.0\n",
        )
        out = tmp_path / "repaired.csv"
        assert main(["repair", "--input", matrix, "--output", str(out)]) == EXIT_OK
        repaired = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_allclose(np.diag(repaired), [4.0, 9.0], atol=1e-12)


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
        diagonal = np.diag(np.loadtxt(matrix, delimiter=",", skiprows=1))
        loader = (
            conditioning.correlation_from_csv
            if np.all(np.abs(diagonal - 1.0) <= 1e-12)
            else conditioning.covariance_from_csv
        )
        loaded = loader(matrix)
        floor = conditioning.default_floor(loaded.n)
        repaired = conditioning.rj_repair(loaded, floor)
        expected_csv = io.StringIO()
        conditioning.matrix_to_csv(repaired, expected_csv)
        assert out.read_text(encoding="utf-8") == expected_csv.getvalue()
        summary = json.loads((tmp_path / "repaired.json").read_text())
        assert summary["repair_floor"] == floor
        expected_report = json.loads(json.dumps(cli._jsonable(conditioning.matrix_report(repaired))))
        assert summary["report"] == expected_report


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
        assert json.loads(out.with_suffix(".json").read_text())["config"]["seed"] == 7

    def test_bad_env_seed_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        code = main([
            "sweep", "--output", str(tmp_path / "s.csv"), "--grid", "8,16",
        ])
        assert code == EXIT_IO


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
        payload = json.loads(out.read_text())
        assert 0.0 <= payload["crossing_ratio"] <= 1.0
        assert len(payload["per_path_ratios"]) == 40
        assert payload["config"]["rho"] == 0.5


class TestJsonSentinels:
    def test_inf_and_nan_serialization(self):
        from turnover_spectra.cli import _jsonable

        assert _jsonable(float("inf")) == "inf"
        assert _jsonable(float("-inf")) == "-inf"
        assert _jsonable(float("nan")) is None
        assert _jsonable({"x": (1, np.float64(2.5))}) == {"x": [1, 2.5]}
