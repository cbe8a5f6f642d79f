"""Tests for the benchmark itself.

Run from the root of the checkout:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stdout

import pytest

import bench_families as fam
import bench_worker
import run
from bench_trace import aggregate

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_are_well_formed():
    spec = _benchmark()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name


def test_every_declared_metric_is_computed():
    spec = _benchmark()
    rec = {"norm": [0.01, 0.02, 0.03], "work": [1.0, 1.0, 1.0]}
    fams = {name: rec for name in ("analyze", "sweep", "population", "simulate")}
    values, _ = run.end_to_end(fams, [2.0], [0.5], 60.0)
    assert set(values) == {m["name"] for m in spec["end_to_end"]}

    traced = {"layers": aggregate([])["metrics"], "families": {}}
    layer_values = run.per_layer(traced, {"families": {}})
    layer_values["check.failed_frac"] = 0.0
    assert set(layer_values) == {m["name"] for m in spec["per_layer"]}


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every fixed-size part of a run; the workloads keep their shape."""
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(
        run,
        "COMPANION",
        {
            "analyze": {"count": 4},
            "sweep": {"count": 2},
            "population": {"count": 4},
            "simulate": {"count": 1},
            "verify": {"count": 1, "rows": [["drive-invariance"]]},
        },
    )
    monkeypatch.setattr(run, "VERIFY_ROWS", [["example1-product-phi0"], ["drive-invariance"]])
    monkeypatch.setattr(run, "MC_REFERENCE_CALLS", 0)


def _run(*argv: str) -> tuple[int, dict]:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run.main(list(argv))
    return rc, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["cli-grid", "population", "ensemble", "verify"])
def test_workload_completes_at_tiny_size(tiny, workload, trace):
    rc, result = _run("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace)
    spec = _benchmark()["per_layer" if trace == "1" else "end_to_end"]
    assert rc == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec}
    if trace == "1" and workload == "cli-grid":
        assert result["metrics"]["cli.analyze.solves_per_call"]["value"] > 0
        assert result["metrics"]["cli.sweep.solves_per_point"]["value"] > 0


def test_perturbed_analyze_report_trips_the_check(tmp_path):
    qk = bench_worker._import_package(str(run.ROOT))
    ctx = fam.Context(out_dir=str(tmp_path), qk=qk)
    for inp in [next(fam.analyze_inputs(5)), {"example": 2, "params": {"beta": 0.5, "gamma": 1.0, "phi": 0.0, "eta": 0.5}}]:
        _, (rc, path) = fam.analyze_call(ctx, inp)
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        assert fam.check_analyze(qk, inp, rc, report) == []
        report["steady_state"]["V_inf"][0][0] *= 1.0 + 1e-5
        assert fam.check_analyze(qk, inp, rc, report)


def test_perturbed_route_raises_the_failure_count(tmp_path, monkeypatch):
    qk = bench_worker._import_package(str(run.ROOT))
    solve_are = qk.riccati.solve_are

    def skewed(model, method="hamiltonian"):
        steady = solve_are(model, method)
        if method == "ode":
            steady = type(steady)(steady.V_inf * (1.0 + 1e-6), steady.residual, steady.method, True)
        return steady

    plan = {
        "root": str(run.ROOT),
        "out": str(tmp_path),
        "seed": 1,
        "warmup": "population",
        "steps": [{"family": "population", "count": 5}],
    }
    clean = bench_worker.run_plan(plan, emit=lambda line: None)
    assert clean["families"]["population"]["failed"] == 0
    monkeypatch.setattr(qk.riccati, "solve_are", skewed)
    broken = bench_worker.run_plan(plan, emit=lambda line: None)
    assert broken["warmup_failures"]
    assert broken["families"]["population"]["failed"] == 5


def test_mc_statistics_check_flags_a_biased_covariance():
    stats = {
        "stats": {
            "checkpoint_times": [1.0],
            "riccati_values": [[[1.0, 0.0], [0.0, 1.0]]],
            "sample_error_cov": [[[1.04, 0.0], [0.0, 1.0]]],
            "standard_errors": [[[0.01, 0.01], [0.01, 0.01]]],
        }
    }
    assert fam.check_mc_statistics(stats) == []
    stats["stats"]["sample_error_cov"][0][0][0] = 1.06
    assert fam.check_mc_statistics(stats)


def test_verify_check_reports_a_flipped_red_row():
    class Row:
        def __init__(self, name, passed):
            self.name, self.passed = name, passed

    rows = ["drive-invariance", fam.RED_BY_DESIGN]
    assert fam.check_verify(rows, [Row("drive-invariance", True), Row(fam.RED_BY_DESIGN, False)]) == []
    assert fam.check_verify(rows, [Row("drive-invariance", True), Row(fam.RED_BY_DESIGN, True)])
    assert fam.check_verify(rows, [Row("drive-invariance", False), Row(fam.RED_BY_DESIGN, False)])
