import json

import numpy as np
import pytest

from qkalman import build_derived, riccati, solve_are, spec_to_dict
from qkalman.acceptance import POPULATION_SEED
from qkalman.cli import main

from conftest import random_spec


def run(argv, capsys=None):
    code = main(argv)
    return code


def read_json(path):
    return json.loads(path.read_text())


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


@pytest.fixture
def example2_spec_file(tmp_path):
    payload = {"G": [[0, 1], [1, 0]], "C_re": [1, 0], "C_im": [0, 1], "eta": 1.0}
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture
def zero_coupling_spec_file(tmp_path):
    payload = {"G": [[1, 0], [0, 1]], "C_re": [0, 0], "C_im": [0, 0], "eta": 1.0}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(payload))
    return path


class TestAnalyze:
    def test_example1_canonical(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "analyze",
                "--example",
                "1",
                "--set",
                "m=1,omega=1,alpha=0.5,eta=1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = read_json(out / "report.json")
        assert report["steady_state"]["det"] == pytest.approx(0.25, rel=1e-9)
        assert report["theorem"]["bound"] == pytest.approx(0.25)
        assert report["theorem"]["stability_class"] == "not_asymptotically_stable"
        assert report["existence"]["exists"] is True
        assert report["manifest"]["command"] == "analyze"
        assert (out / "manifest.json").exists()

    def test_spec_file_down_conversion(self, example2_spec_file, tmp_path):
        out = tmp_path / "out"
        code = run(["analyze", "--spec", str(example2_spec_file), "--out", str(out)])
        assert code == 0
        report = read_json(out / "report.json")
        assert report["derived"]["kappa"] == pytest.approx(1.0, rel=1e-12)  # gamma^2
        assert report["theorem"]["bound"] == pytest.approx(0.25)

    def test_zero_coupling_exit_three_with_report(self, zero_coupling_spec_file, tmp_path):
        out = tmp_path / "out"
        code = run(["analyze", "--spec", str(zero_coupling_spec_file), "--out", str(out)])
        assert code == 3
        report = read_json(out / "report.json")
        assert report["existence"]["exists"] is False
        assert report["steady_state"] is None
        assert report["theorem"]["steady_state_exists"] is False

    def test_ode_method(self, tmp_path):
        out = tmp_path / "out"
        code = run(["analyze", "--example", "2", "--method", "ode", "--out", str(out)])
        assert code == 0
        assert read_json(out / "report.json")["steady_state"]["method"] == "ode_limit"

    def test_small_hbar_population_spec_solves(self, tmp_path):
        # acceptance population spec 5 at hbar = 1e-34: a valid spec whose
        # steady state is hbar times the hbar = 1 solution
        rng = np.random.default_rng(POPULATION_SEED)
        spec = [random_spec(rng) for _ in range(6)][5]
        path = tmp_path / "small.json"
        path.write_text(json.dumps(dict(spec_to_dict(spec), hbar=1e-34)))
        out = tmp_path / "out"
        assert run(["analyze", "--spec", str(path), "--out", str(out)]) == 0
        V = np.array(read_json(out / "report.json")["steady_state"]["V_inf"]) / 1e-34
        ref = solve_are(build_derived(spec)).V_inf
        assert np.abs(V - ref).max() <= 1e-9 * (1.0 + np.abs(ref).max())

    def test_unknown_set_key(self, tmp_path, capsys):
        code = run(["analyze", "--example", "1", "--set", "beta=1", "--out", str(tmp_path)])
        assert code == 2

    def test_invalid_spec_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"G": [[1, 0], [0, 1]], "C_re": [1, 0], "C_im": [0, 0], "eta": 0}))
        code = run(["analyze", "--spec", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2


class TestSweep:
    def test_phi_sweep_matches_closed_form(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "sweep",
                "--example",
                "1",
                "--set",
                "eta=0.5",
                "--param",
                "phi",
                "--min",
                "-1",
                "--max",
                "1",
                "--steps",
                "21",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv_rows(out / "sweep.csv")
        assert header == ["param", "value", "kappa", "det", "product", "bound", "closed_form", "abs_diff"]
        assert len(rows) == 21
        diffs = [float(r["abs_diff"]) for r in rows]
        assert max(diffs) <= 1e-8

    def test_beta_log_sweep_strong_coupling_endpoint(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "sweep",
                "--example",
                "2",
                "--set",
                "eta=0.5,gamma=1",
                "--param",
                "beta",
                "--min",
                "1e-4",
                "--max",
                "10",
                "--steps",
                "15",
                "--log",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, rows = read_csv_rows(out / "sweep.csv")
        assert float(rows[0]["product"]) == pytest.approx(0.25, abs=1e-3)
        for r in rows:
            assert float(r["abs_diff"]) <= 1e-6

    def test_eta_sweep_bound_column(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "sweep",
                "--example",
                "1",
                "--param",
                "eta",
                "--min",
                "0.2",
                "--max",
                "1.0",
                "--steps",
                "9",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, rows = read_csv_rows(out / "sweep.csv")
        for r in rows:  # kappa <= 0 spec: bound = hbar^2 / (4 eta)
            assert float(r["bound"]) == pytest.approx(1.0 / (4.0 * float(r["value"])), rel=1e-12)

    def test_unknown_param_exit_two(self, tmp_path):
        code = run(
            ["sweep", "--example", "1", "--param", "zeta", "--min", "0", "--max", "1", "--steps", "3", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_inapplicable_param_exit_two(self, tmp_path):
        code = run(
            ["sweep", "--example", "2", "--param", "alpha", "--min", "0.1", "--max", "1", "--steps", "3", "--out", str(tmp_path)]
        )
        assert code == 2


class TestOneSolvePerSystem:
    """Each command enters the steady-solve routes once per system."""

    @pytest.fixture
    def route_entries(self, monkeypatch):
        entries = []
        for name in ("_solve_hamiltonian", "_solve_ode_limit"):

            def counted(*args, _name=name, _route=getattr(riccati, name), **kwargs):
                entries.append(_name)
                return _route(*args, **kwargs)

            monkeypatch.setattr(riccati, name, counted)
        return entries

    def test_analyze(self, route_entries, tmp_path):
        assert run(["analyze", "--example", "1", "--out", str(tmp_path)]) == 0
        assert route_entries == ["_solve_hamiltonian"]

    def test_analyze_ode_method_adds_one_ode_solve(self, route_entries, tmp_path):
        assert run(["analyze", "--example", "1", "--method", "ode", "--out", str(tmp_path)]) == 0
        assert route_entries == ["_solve_hamiltonian", "_solve_ode_limit"]

    def test_sweep(self, route_entries, tmp_path):
        argv = ["sweep", "--example", "1", "--param", "phi", "--min", "-1", "--max", "1"]
        assert run(argv + ["--steps", "5", "--out", str(tmp_path)]) == 0
        assert route_entries == ["_solve_hamiltonian"] * 5


class TestSimulate:
    def test_outputs_and_determinism(self, tmp_path):
        args = [
            "simulate",
            "--example",
            "2",
            "--set",
            "beta=1,gamma=1,eta=0.5",
            "--dt",
            "1e-3",
            "--t-final",
            "1.0",
            "--ensemble",
            "150",
            "--seed",
            "7",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        for name in ("trajectory.csv", "stats.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        stats = read_json(out1 / "stats.json")
        assert stats["stats"]["ensemble"] == 150
        assert stats["manifest"]["options"]["seed"] == 7

    def test_single_trajectory_skips_stats(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(
            ["simulate", "--example", "1", "--dt", "1e-2", "--t-final", "0.5", "--ensemble", "1", "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "statistics omitted" in captured.out
        assert (out / "trajectory.csv").exists()
        assert not (out / "stats.json").exists()

    def test_manifest_round_trip(self, tmp_path):
        out1 = tmp_path / "r1"
        assert (
            run(
                ["simulate", "--example", "1", "--set", "eta=0.8", "--dt", "1e-2", "--t-final", "0.5", "--seed", "3", "--out", str(out1)]
            )
            == 0
        )
        manifest = read_json(out1 / "manifest.json")
        params = manifest["spec_source"]["params"]
        opts = manifest["options"]
        out2 = tmp_path / "r2"
        argv = [
            "simulate",
            "--example",
            str(manifest["spec_source"]["example"]),
            "--set",
            ",".join(f"{k}={v}" for k, v in params.items()),
            "--dt",
            str(opts["dt"]),
            "--t-final",
            str(opts["t_final"]),
            "--seed",
            str(opts["seed"]),
            "--ensemble",
            str(opts["ensemble"]),
            "--out",
            str(out2),
        ]
        assert run(argv) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


class TestVerify:
    def test_filtered_criterion_passes(self, capsys):
        code = run(["verify", "--filter", "stability-classification"])
        captured = capsys.readouterr()
        assert code == 0
        assert "PASS  stability-classification" in captured.out

    def test_fault_injection_fails_heisenberg(self, capsys):
        code = run(["verify", "--filter", "heisenberg", "--fault", "wrong-d-sign"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL  heisenberg-floor-random" in captured.out

    def test_known_red_criterion_reports_failure(self, capsys):
        # the printed closed form this criterion transcribes disagrees with
        # the covariance flow (see the closed-form test module); the row must
        # stay an honest FAIL with exit status 1
        code = run(["verify", "--filter", "example1-product-phi0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL  example1-product-phi0" in captured.out
        assert "r1=100" in captured.out and "ok" in captured.out

    def test_unknown_filter_exit_two(self, capsys):
        assert run(["verify", "--filter", "nonexistent-criterion"]) == 2

    def test_theorem_filter_runs_only_theorem_rows(self, capsys):
        code = run(["verify", "--filter", "theorem"])
        captured = capsys.readouterr()
        assert code == 0
        rows = [l for l in captured.out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(rows) == 1 and "theorem-bound-random" in rows[0]


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "qkalman", "analyze", "--example", "2", "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "o" / "report.json").exists()
