"""Seeded inputs, timed calls and output checks for each command family.

A family is one kind of user operation: an ``analyze`` call, a ``sweep``
run, one population spec through the library pipeline, a ``simulate``
call, or an acceptance-suite run. ``inputs(seed)`` yields an endless,
deterministic stream of inputs for a workload seed, ``call`` times one
operation and returns what it produced, and ``check`` judges that output
outside the timed (and traced) region.

Every tolerance below is the repository's own (see ``qkalman.acceptance``):

* example-1 det vs ``example1_det``: 1e-8 relative;
* example-2 phase-0 product vs ``example2_product``: 1e-6 relative;
* Hamiltonian vs ODE route: 1e-8, relative to 1 + max|V|;
* det(V_inf) >= bound - 1e-10;
* Monte-Carlo covariance within max(5%, 3 SE) of the Riccati flow;
* the acceptance suite passes every row except ``example1-product-phi0``,
  which is red by design.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

#: Acceptance row that fails by design (printed product formula off by 41.7%).
RED_BY_DESIGN = "example1-product-phi0"

#: Simulation grid of the simulate family: n_steps = T_FINAL / DT = 1e4.
DT = 1e-3
T_FINAL = 10.0
ENSEMBLE = 300

#: Points per sweep run.
SWEEP_STEPS = 25


@dataclass
class Context:
    """Where a worker writes CLI outputs and which ``qkalman`` it drives."""

    out_dir: str
    qk: Any  # the imported ``qkalman`` package

    def out(self, family: str) -> str:
        path = os.path.join(self.out_dir, family)
        os.makedirs(path, exist_ok=True)
        return path


def _rng(seed: int, family: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, family))])


def _set_arg(params: dict[str, float]) -> str:
    return ",".join(f"{k}={v!r}" for k, v in params.items())


def _fresh(path: str) -> str:
    if os.path.exists(path):
        os.remove(path)
    return path


def _cli(ctx: Context, argv: list[str]) -> tuple[float, int]:
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        rc = ctx.qk.cli.main(argv)
        elapsed = time.perf_counter() - start
    return elapsed, rc


def _read_json(path: str) -> dict[str, Any] | None:
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


# ----------------------------------------------------------------------
# analyze: one `qkalman analyze` call on a random example-1 or -2 system.
# Parameter ranges are those of the acceptance suite's closed-form grids.


def analyze_inputs(seed: int) -> Iterator[dict[str, Any]]:
    rng = _rng(seed, "analyze")
    k = 0
    while True:
        if k % 2 == 0:
            params = {
                "m": float(rng.uniform(0.5, 2.0)),
                "omega": float(rng.uniform(0.5, 2.0)),
                "alpha": float(rng.uniform(0.5, 2.0)),
                "phi": float(rng.uniform(-1.0, 1.0)),
                "eta": float(rng.uniform(0.25, 1.0)),
            }
            yield {"example": 1, "params": params}
        else:
            # every other example-2 call sits at phase 0, where the
            # product closed form applies
            phi = 0.0 if k % 4 == 1 else float(rng.uniform(0.0, 2.0 * math.pi))
            params = {
                "beta": float(10.0 ** rng.uniform(-3.0, 1.0)),
                "gamma": float(rng.uniform(0.5, 2.0)),
                "phi": phi,
                "eta": float(rng.uniform(0.25, 1.0)),
            }
            yield {"example": 2, "params": params}
        k += 1


def analyze_call(ctx: Context, inp: dict[str, Any]) -> tuple[float, Any]:
    out = ctx.out("analyze")
    report_path = _fresh(os.path.join(out, "report.json"))
    argv = ["analyze", "--example", str(inp["example"]), "--set", _set_arg(inp["params"]), "--out", out]
    elapsed, rc = _cli(ctx, argv)
    return elapsed, (rc, report_path)


def check_analyze(qk, inp: dict[str, Any], rc: int, report: dict[str, Any] | None) -> list[str]:
    """Output checks for one analyze report, computed from its V_inf."""
    if rc != 0 or report is None:
        return [f"analyze: exit code {rc}"]
    steady = report.get("steady_state")
    if steady is None:
        return ["analyze: no steady state"]
    V = steady["V_inf"]
    det = V[0][0] * V[1][1] - V[0][1] * V[1][0]
    fails = []
    bound = report["theorem"]["bound"]
    if not det >= bound - 1e-10:
        fails.append(f"analyze: det {det!r} below bound {bound!r} - 1e-10")
    params = inp["params"]
    cf = qk.closedform
    if inp["example"] == 1:
        ref = cf.example1_det(cf.Example1Params(**params))
        if not _rel(det, ref) <= 1e-8:
            fails.append(f"analyze: example-1 det off closed form by {_rel(det, ref):.3e}")
    elif params["phi"] == 0.0:
        ref = cf.example2_product(cf.Example2Params(**params))
        product = V[0][0] * V[1][1]
        if not _rel(product, ref) <= 1e-6:
            fails.append(f"analyze: example-2 product off closed form by {_rel(product, ref):.3e}")
    return fails


def analyze_check(ctx: Context, inp: dict[str, Any], raw: Any) -> list[str]:
    rc, report_path = raw
    return check_analyze(ctx.qk, inp, rc, _read_json(report_path))


# ----------------------------------------------------------------------
# sweep: one `qkalman sweep` run, an example-1 phase sweep or an example-2
# log-beta sweep at phase 0


def sweep_inputs(seed: int) -> Iterator[dict[str, Any]]:
    rng = _rng(seed, "sweep")
    k = 0
    while True:
        if k % 2 == 0:
            fixed = {
                "m": float(rng.uniform(0.5, 2.0)),
                "omega": float(rng.uniform(0.5, 2.0)),
                "alpha": float(rng.uniform(0.5, 2.0)),
                "eta": float(rng.uniform(0.25, 1.0)),
            }
            yield {"example": 1, "set": fixed, "param": "phi", "min": -1.0, "max": 1.0, "log": False}
        else:
            fixed = {
                "gamma": float(rng.uniform(0.5, 2.0)),
                "eta": float(rng.uniform(0.25, 1.0)),
                "phi": 0.0,
            }
            yield {"example": 2, "set": fixed, "param": "beta", "min": 1e-3, "max": 10.0, "log": True}
        k += 1


def sweep_call(ctx: Context, inp: dict[str, Any]) -> tuple[float, Any]:
    out = ctx.out("sweep")
    csv_path = _fresh(os.path.join(out, "sweep.csv"))
    argv = [
        "sweep", "--example", str(inp["example"]), "--set", _set_arg(inp["set"]),
        "--param", inp["param"], "--min", repr(inp["min"]), "--max", repr(inp["max"]),
        "--steps", str(SWEEP_STEPS), "--out", out,
    ]
    if inp["log"]:
        argv.append("--log")
    elapsed, rc = _cli(ctx, argv)
    return elapsed, (rc, csv_path)


def check_sweep(inp: dict[str, Any], rc: int, rows: list[dict[str, str]] | None) -> list[str]:
    """Output checks for one sweep CSV."""
    if rc != 0 or rows is None:
        return [f"sweep: exit code {rc}"]
    if len(rows) != SWEEP_STEPS:
        return [f"sweep: {len(rows)} rows, expected {SWEEP_STEPS}"]
    fails = []
    for row in rows:
        det, bound, closed = float(row["det"]), float(row["bound"]), float(row["closed_form"])
        if not math.isfinite(det):
            fails.append(f"sweep: no steady solution at {row['param']}={row['value']}")
            continue
        if not det >= bound - 1e-10:
            fails.append(f"sweep: det {det!r} below bound {bound!r} - 1e-10")
        if not math.isfinite(closed):
            continue
        if inp["example"] == 1 and not _rel(det, closed) <= 1e-8:
            fails.append(f"sweep: example-1 det off closed form by {_rel(det, closed):.3e}")
        product = float(row["product"])
        if inp["example"] == 2 and not _rel(product, closed) <= 1e-6:
            fails.append(f"sweep: example-2 product off closed form by {_rel(product, closed):.3e}")
    return fails


def sweep_check(ctx: Context, inp: dict[str, Any], raw: Any) -> list[str]:
    rc, csv_path = raw
    rows = None
    if os.path.exists(csv_path):
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    return check_sweep(inp, rc, rows)


# ----------------------------------------------------------------------
# population: one acceptance-population spec through the library pipeline


def acceptance_population() -> list[dict[str, Any]]:
    """The acceptance suite's population, drawn as ``qkalman.acceptance``
    draws it: POPULATION_SIZE specs from POPULATION_SEED with G, Re C,
    Im C ~ U[-2, 2], eta in (0, 1], phi in [0, 2 pi)."""
    from qkalman.acceptance import POPULATION_SEED, POPULATION_SIZE

    rng = np.random.default_rng(POPULATION_SEED)
    specs = []
    for _ in range(POPULATION_SIZE):
        g11, g12, g22 = rng.uniform(-2.0, 2.0, 3)
        c_re = rng.uniform(-2.0, 2.0, 2)
        c_im = rng.uniform(-2.0, 2.0, 2)
        eta = 1.0 - rng.uniform(0.0, 1.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        specs.append({"G": ((g11, g12), (g12, g22)), "C": c_re + 1j * c_im, "phi": float(phi), "eta": float(eta)})
    return specs


def population_inputs(seed: int) -> Iterator[dict[str, Any]]:
    """The acceptance suite's population, in an order shuffled afresh from
    ``seed`` on every pass.

    Fresh draws from the same distribution are not used: about 6 in 10 000
    of them are ill-conditioned specs on which the two routes disagree by
    more than the cross-route tolerance (see README, "Known defect").
    """
    specs = acceptance_population()
    rng = _rng(seed, "population")
    while True:
        for k in rng.permutation(len(specs)):
            yield specs[k]


def population_call(ctx: Context, inp: dict[str, Any]) -> tuple[float, Any]:
    qk = ctx.qk
    no_steady = qk.riccati.NoSteadySolution
    start = time.perf_counter()
    spec = qk.model.SystemSpec(G=np.array(inp["G"]), C=inp["C"], phi=inp["phi"], eta=inp["eta"])
    model = qk.model.build_derived(spec)
    try:
        ham = qk.riccati.solve_are(model)
    except no_steady:
        ham = None
    try:
        ode = qk.riccati.solve_are(model, method="ode")
    except no_steady:
        ode = None
    report = qk.bounds.verify_theorem(spec)
    qk.bounds.classify_stability(model)
    if ham is not None and float(np.linalg.norm(model.Cr)) >= 1e-12:
        qk.bounds.det_quotient_identity(model, ham.V_inf)
    return time.perf_counter() - start, (model, ham, ode, report)


def check_population(qk, model, ham, ode, report) -> list[str]:
    """Output checks for one population spec.

    ``ham``/``ode`` are the two routes' SteadyState, or None where the route
    raised NoSteadySolution. A spec that neither route solves, and that
    ``verify_theorem`` also reports as unsolvable, is an expected outcome.
    An ODE-route failure next to a Hamiltonian success is left to
    :func:`population_tally`, which applies the acceptance suite's 2%
    allowance.
    """
    if ham is None:
        if ode is not None or report.steady_state_exists:
            return ["population: routes disagree on existence"]
        return []
    fails = []
    if not report.steady_state_exists:
        fails.append("population: verify_theorem found no steady state")
    det = float(np.linalg.det(ham.V_inf))
    bound = qk.bounds.theorem_bound(model)
    if not det >= bound - 1e-10:
        fails.append(f"population: det {det!r} below bound {bound!r} - 1e-10")
    if ode is not None:
        rel = float(np.abs(ham.V_inf - ode.V_inf).max() / (1.0 + np.abs(ham.V_inf).max()))
        if not rel <= 1e-8:
            fails.append(f"population: routes disagree by {rel:.3e}")
    return fails


def population_check(ctx: Context, inp: dict[str, Any], raw: Any) -> list[str]:
    return check_population(ctx.qk, *raw)


def population_tally(raws: list[Any]) -> list[str]:
    """The cross-solver row's allowance: the ODE route may fail on at most
    2% of the specs the Hamiltonian route solves."""
    solved = sum(1 for _, ham, _, _ in raws if ham is not None)
    ode_failed = sum(1 for _, ham, ode, _ in raws if ham is not None and ode is None)
    if ode_failed > 0.02 * solved:
        return [f"population: ODE route failed on {ode_failed} of {solved} solved specs (allowed 2%)"]
    return []


# ----------------------------------------------------------------------
# simulate: one `qkalman simulate` call, long horizon, ensemble in the hundreds


def simulate_inputs(seed: int) -> Iterator[dict[str, Any]]:
    rng = _rng(seed, "simulate")
    k = 0
    while True:
        if k % 2 == 0:
            example = 1
            params = {
                "m": float(rng.uniform(0.5, 2.0)),
                "omega": float(rng.uniform(0.5, 2.0)),
                "alpha": float(rng.uniform(0.25, 1.0)),
                "phi": float(rng.uniform(-1.0, 1.0)),
                "eta": float(rng.uniform(0.3, 1.0)),
            }
        else:
            example = 2
            params = {
                "beta": float(rng.uniform(0.2, 1.5)),
                "gamma": float(rng.uniform(0.8, 1.5)),
                "phi": float(rng.uniform(0.0, 2.0 * math.pi)),
                "eta": float(rng.uniform(0.3, 1.0)),
            }
        yield {
            "example": example,
            "params": params,
            "dt": DT,
            "t_final": T_FINAL,
            "ensemble": ENSEMBLE,
            "seed": int(rng.integers(0, 2**62)),
        }
        k += 1


def mc_reference_inputs(qk) -> list[dict[str, Any]]:
    """The acceptance suite's Monte-Carlo configuration: the seed, ensemble,
    grid and both systems of its ``monte-carlo-riccati`` row.

    The Monte-Carlo check is a 3-SE test, so on a random seed it fails by
    chance (5 of 80 calls at ensemble 300); it is applied on this fixed
    configuration, which the acceptance suite already holds to it.
    """
    common = {"dt": 1e-3, "t_final": 5.0, "ensemble": 2000, "seed": qk.acceptance.MC_SEED}
    return [
        {"example": 1, "params": {"eta": 1.0, "phi": 0.0}, **common},
        {"example": 2, "params": {"beta": 1.0, "gamma": 1.0, "eta": 0.5, "phi": 0.0}, **common},
    ]


def simulate_call(ctx: Context, inp: dict[str, Any]) -> tuple[float, Any]:
    out = ctx.out("simulate")
    stats_path = _fresh(os.path.join(out, "stats.json"))
    traj_path = _fresh(os.path.join(out, "trajectory.csv"))
    argv = [
        "simulate", "--example", str(inp["example"]), "--set", _set_arg(inp["params"]),
        "--dt", repr(inp["dt"]), "--t-final", repr(inp["t_final"]),
        "--ensemble", str(inp["ensemble"]), "--seed", str(inp["seed"]), "--out", out,
    ]
    elapsed, rc = _cli(ctx, argv)
    return elapsed, (rc, stats_path, traj_path)


def simulate_work(inp: dict[str, Any]) -> float:
    """Trajectory-steps: the ensemble plus the stored path, times n_steps."""
    return float((inp["ensemble"] + 1) * int(round(inp["t_final"] / inp["dt"])))


def check_simulate(qk, inp: dict[str, Any], rc: int, stats: dict[str, Any] | None, csv_rows: int) -> list[str]:
    """Deterministic checks for one simulate call.

    The reported Riccati values must equal the flow recomputed from the
    same spec and grid, the sample covariances must be finite, symmetric
    and positive on the diagonal, and the trajectory CSV must hold every
    step.
    """
    if rc != 0 or stats is None:
        return [f"simulate: exit code {rc}"]
    fails = []
    st = stats["stats"]
    n = int(round(inp["t_final"] / inp["dt"]))
    if st["ensemble"] != inp["ensemble"]:
        fails.append(f"simulate: ensemble {st['ensemble']} != {inp['ensemble']}")
    if csv_rows != n + 1:
        fails.append(f"simulate: trajectory has {csv_rows} rows, expected {n + 1}")
    cf = qk.closedform
    if inp["example"] == 1:
        spec = cf.example1_spec(cf.Example1Params(**inp["params"]))
    else:
        spec = cf.example2_spec(cf.Example2Params(**inp["params"]))
    flow = qk.riccati.integrate_riccati(
        qk.model.build_derived(spec), 0.5 * spec.hbar * np.eye(2), inp["t_final"], inp["dt"]
    )
    for t, ref, cov in zip(st["checkpoint_times"], st["riccati_values"], st["sample_error_cov"]):
        if not np.array_equal(np.array(ref), flow.values[int(round(t / inp["dt"]))]):
            fails.append(f"simulate: Riccati value at t={t} differs from the flow")
        c = np.array(cov)
        if not (np.all(np.isfinite(c)) and c[0, 1] == c[1, 0] and c[0, 0] > 0 and c[1, 1] > 0):
            fails.append(f"simulate: malformed sample covariance at t={t}")
    return fails


def check_mc_statistics(stats: dict[str, Any] | None) -> list[str]:
    """Monte-Carlo covariance within max(5%, 3 SE) of the Riccati flow."""
    if stats is None:
        return ["simulate: no statistics written"]
    st = stats["stats"]
    fails = []
    for t, ref, cov, se in zip(
        st["checkpoint_times"], st["riccati_values"], st["sample_error_cov"], st["standard_errors"]
    ):
        ref, cov, se = np.array(ref), np.array(cov), np.array(se)
        tol = np.maximum(0.05 * np.abs(ref), 3.0 * se)
        dev = np.abs(cov - ref)
        if not np.all(dev <= tol):
            fails.append(f"simulate: sample covariance at t={t} off the flow by {float((dev / tol).max()):.2f} tol")
    return fails


def _simulate_outputs(raw: Any) -> tuple[int, dict[str, Any] | None, int]:
    rc, stats_path, traj_path = raw
    rows = 0
    if os.path.exists(traj_path):
        with open(traj_path, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
    return rc, _read_json(stats_path), rows


def simulate_check(ctx: Context, inp: dict[str, Any], raw: Any) -> list[str]:
    return check_simulate(ctx.qk, inp, *_simulate_outputs(raw))


def mc_reference_check(ctx: Context, inp: dict[str, Any], raw: Any) -> list[str]:
    rc, stats, rows = _simulate_outputs(raw)
    return check_simulate(ctx.qk, inp, rc, stats, rows) + check_mc_statistics(stats)


# ----------------------------------------------------------------------
# verify: the acceptance suite; an input is the list of row names for one
# run_criteria() call


def verify_call(ctx: Context, rows: list[str]) -> tuple[float, Any]:
    start = time.perf_counter()
    results = ctx.qk.acceptance.run_criteria(rows)
    return time.perf_counter() - start, results


def check_verify(expected: list[str], results: list[Any]) -> list[str]:
    """Every expected row ran; every row passed except the red-by-design one,
    which must still fail."""
    got = {r.name: r.passed for r in results}
    fails = [f"verify: row {name} did not run" for name in expected if name not in got]
    for name, passed in got.items():
        if name == RED_BY_DESIGN and passed:
            fails.append(f"verify: by-design red row {name} now passes")
        elif name != RED_BY_DESIGN and not passed:
            fails.append(f"verify: row {name} failed")
    return fails


def verify_check(ctx: Context, rows: list[str], raw: Any) -> list[str]:
    return check_verify(rows, raw)


#: Acceptance row used to warm up a verify worker; it does not build the
#: cached random population, so the measured suite still starts cold.
VERIFY_WARMUP_ROW = "drive-invariance"


def warmup_input(name: str, seed: int) -> Any:
    """One input for a worker's warm-up call, drawn apart from the measured
    stream; the simulate warm-up is a short, small-ensemble call."""
    if name == "verify":
        return [VERIFY_WARMUP_ROW]
    inp = next(FAMILIES[name].inputs(seed ^ 0x5EED))
    if name == "simulate":
        inp = {**inp, "ensemble": 2, "t_final": 0.05}
    return inp


@dataclass(frozen=True)
class Family:
    call: Callable[[Context, Any], tuple[float, Any]]
    check: Callable[[Context, Any, Any], list[str]]
    work: Callable[[Any], float]
    inputs: Callable[[int], Iterator[Any]] | None = None
    #: Checks over the whole batch of raw outputs, after the per-op checks.
    tally: Callable[[list[Any]], list[str]] | None = None
    #: Operations last long enough (0.1 s and more) for the host's speed to
    #: change during one, so the worker samples it while they run.
    long_ops: bool = False


FAMILIES: dict[str, Family] = {
    "analyze": Family(analyze_call, analyze_check, lambda inp: 1.0, analyze_inputs),
    "sweep": Family(sweep_call, sweep_check, lambda inp: float(SWEEP_STEPS), sweep_inputs, long_ops=True),
    "population": Family(
        population_call, population_check, lambda inp: 1.0, population_inputs, population_tally
    ),
    "simulate": Family(simulate_call, simulate_check, simulate_work, simulate_inputs, long_ops=True),
    "mc_reference": Family(simulate_call, mc_reference_check, simulate_work, long_ops=True),
    "verify": Family(verify_call, verify_check, lambda rows: float(len(rows)), long_ops=True),
}
