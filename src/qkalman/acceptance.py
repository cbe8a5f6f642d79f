"""Built-in acceptance suite.

Each criterion is a named check returning (passed, detail). The registry is
shared by the ``qkalman verify`` CLI command and by the pytest acceptance
module, so both report the same rows. A fault hook can corrupt the model
pipeline (``wrong-d-sign``) to demonstrate that the suite actually detects
broken physics.

The random-population checks (bound, Heisenberg floor, proof identities,
cross-solver agreement, stability) share one cached population of 1000
specs drawn with G, Re C, Im C entries uniform in [-2, 2], eta uniform in
(0, 1] and phi uniform in [0, 2*pi). The proof-identities row promotes each
float64 model exactly to 60 digits and runs the float code's Newton step and
identity kernel on it; the projected equations then hold to about 1e-34
and the det quotient to about 1e-31.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import (
    DegenerateBasis,
    _projected_identities,
    classify_stability,
    det_quotient_identity,
    lemma_f_bound,
    theorem_bound,
)
from .closedform import (
    Example1Params,
    Example2Params,
    example1_det,
    example1_product,
    example1_spec,
    example2_product,
    example2_spec,
)
from .model import DerivedModel, SystemSpec, build_derived
from .riccati import NoSteadySolution, SteadyState, integrate_riccati, solve_are
from .riccati import _newton_step, _residual, _sym
from .sim import Drive, SimConfig, innovation_stats, monte_carlo, simulate_trajectory

__all__ = ["CriterionResult", "CRITERION_NAMES", "run_criteria", "POPULATION_SEED"]

POPULATION_SEED = 123456789
POPULATION_SIZE = 1000
MC_SEED = 20260810


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


@dataclass(frozen=True)
class _PopulationEntry:
    spec: SystemSpec
    model: DerivedModel
    steady: SteadyState | None


_population_cache: dict[str | None, list[_PopulationEntry]] = {}


def _apply_fault(model: DerivedModel, fault: str | None) -> DerivedModel:
    if fault is None:
        return model
    if fault == "wrong-d-sign":
        D = -model.D
        D.flags.writeable = False
        return dataclasses.replace(model, D=D)
    raise ValueError(f"unknown fault hook {fault!r}")


def _population(fault: str | None = None) -> list[_PopulationEntry]:
    if fault in _population_cache:
        return _population_cache[fault]
    rng = np.random.default_rng(POPULATION_SEED)
    entries = []
    for _ in range(POPULATION_SIZE):
        g11, g12, g22 = rng.uniform(-2.0, 2.0, 3)
        c_re = rng.uniform(-2.0, 2.0, 2)
        c_im = rng.uniform(-2.0, 2.0, 2)
        eta = 1.0 - rng.uniform(0.0, 1.0)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        spec = SystemSpec(
            G=np.array([[g11, g12], [g12, g22]]),
            C=c_re + 1j * c_im,
            phi=phi,
            eta=eta,
        )
        model = _apply_fault(build_derived(spec), fault)
        try:
            steady = solve_are(model)
        except NoSteadySolution:
            steady = None
        entries.append(_PopulationEntry(spec=spec, model=model, steady=steady))
    _population_cache[fault] = entries
    return entries


# ----------------------------------------------------------------------
# criterion 1: closed-form det grid for the monitored trapped particle

def _crit_example1_det(fault: str | None) -> tuple[bool, str]:
    worst = 0.0
    count = 0
    for phi in (0.0, 0.3, -0.3, 0.6, -0.6, 1.0, -1.0):
        for eta in (0.25, 0.5, 0.75, 1.0):
            for m in (0.5, 1.0, 2.0):
                for omega in (0.5, 1.0, 2.0):
                    for alpha in (0.5, 1.0, 2.0):
                        p = Example1Params(m=m, omega=omega, alpha=alpha, phi=phi, eta=eta)
                        model = _apply_fault(build_derived(example1_spec(p)), fault)
                        det = float(np.linalg.det(solve_are(model).V_inf))
                        ref = example1_det(p)
                        worst = max(worst, abs(det - ref) / abs(ref))
                        count += 1
    return worst <= 1e-8, f"{count} grid points, worst relative det deviation {worst:.3e} (tol 1e-8)"


# ----------------------------------------------------------------------
# criterion 2: closed-form product for the trapped particle at phi=0

def _crit_example1_product(fault: str | None) -> tuple[bool, str]:
    worst = 0.0
    for eta in (0.5, 1.0):
        for r1 in np.logspace(-3, 2, 20):
            alpha = 1.0 / (8.0 * eta * r1)  # m = omega = hbar = 1
            p = Example1Params(m=1.0, omega=1.0, alpha=alpha, phi=0.0, eta=eta)
            model = _apply_fault(build_derived(example1_spec(p)), fault)
            V = solve_are(model).V_inf
            numeric = float(V[0, 0] * V[1, 1])
            ref = example1_product(p)
            worst = max(worst, abs(numeric - ref) / abs(ref))
    grid_ok = worst <= 1e-6

    limit_ok = True
    limit_dev = 0.0
    for eta in (0.5, 1.0):
        r1 = 100.0
        alpha = 1.0 / (8.0 * eta * r1)
        p = Example1Params(m=1.0, omega=1.0, alpha=alpha, phi=0.0, eta=eta)
        model = _apply_fault(build_derived(example1_spec(p)), fault)
        V = solve_are(model).V_inf
        numeric = float(V[0, 0] * V[1, 1])
        floor = 1.0 / (4.0 * eta)
        dev = abs(numeric - floor) / floor
        limit_dev = max(limit_dev, dev)
        limit_ok = limit_ok and dev <= 0.01
    detail = (
        f"grid worst relative deviation from printed formula {worst:.3e} (tol 1e-6, "
        f"{'ok' if grid_ok else 'VIOLATED'}); r1=100 within {limit_dev:.2%} of floor "
        f"(tol 1%, {'ok' if limit_ok else 'VIOLATED'})"
    )
    return grid_ok and limit_ok, detail


# ----------------------------------------------------------------------
# criterion 3: closed-form product for the down-conversion system at phi=0

def _crit_example2_product(fault: str | None) -> tuple[bool, str]:
    worst = 0.0
    for eta in (0.25, 0.5, 0.75, 1.0):
        for r2 in np.logspace(-4, 1, 20):
            p = Example2Params(beta=r2, gamma=1.0, phi=0.0, eta=eta)
            model = _apply_fault(build_derived(example2_spec(p)), fault)
            V = solve_are(model).V_inf
            numeric = float(V[0, 0] * V[1, 1])
            ref = example2_product(p)
            worst = max(worst, abs(numeric - ref) / abs(ref))
    grid_ok = worst <= 1e-6

    strong_dev = 0.0
    for eta in (0.25, 0.5, 0.75, 1.0):
        p = Example2Params(beta=1e-4, gamma=1.0, phi=0.0, eta=eta)
        model = _apply_fault(build_derived(example2_spec(p)), fault)
        V = solve_are(model).V_inf
        strong_dev = max(strong_dev, abs(float(V[0, 0] * V[1, 1]) - 0.25))
    strong_ok = strong_dev <= 1e-3
    detail = (
        f"grid worst relative deviation {worst:.3e} (tol 1e-6); strong-coupling limit "
        f"|product - 1/4| = {strong_dev:.3e} (tol 1e-3)"
    )
    return grid_ok and strong_ok, detail


# ----------------------------------------------------------------------
# criterion 4: bound and Heisenberg floor on the random population

def _crit_theorem_bound(fault: str | None) -> tuple[bool, str]:
    entries = [e for e in _population(fault) if e.steady is not None]
    worst = np.inf  # in units of hbar^2
    for e in entries:
        det = float(np.linalg.det(e.steady.V_inf))
        worst = min(worst, (det - theorem_bound(e.model)) / e.model.hbar**2)
    ok = len(entries) >= 200 and worst >= -1e-10
    return ok, (
        f"{len(entries)}/{POPULATION_SIZE} specs with steady state, "
        f"min margin {worst:.3e} hbar^2 (tol -1e-10 hbar^2)"
    )


def _crit_heisenberg(fault: str | None) -> tuple[bool, str]:
    entries = [e for e in _population(fault) if e.steady is not None]
    worst = np.inf  # in units of hbar^2
    for e in entries:
        det = float(np.linalg.det(e.steady.V_inf))
        worst = min(worst, (det - 0.25 * e.model.hbar**2) / e.model.hbar**2)
    ok = len(entries) >= 200 and worst >= -1e-10
    return ok, (
        f"min det(V_inf) - hbar^2/4 = {worst:.3e} hbar^2 over {len(entries)} specs "
        f"(tol -1e-10 hbar^2)"
    )


# ----------------------------------------------------------------------
# criterion 5: projected steady-state identities and the scalar lemma

def _refine_reference(a, d, n, v, steps: int = 10):
    """Newton-refine the steady triple ``v`` at the working precision.

    Arguments as for :func:`qkalman.riccati._residual`. Returns the first
    iterate with residual below 1e-34, or None when ``steps`` steps (or a
    singular step) do not get there: an unconverged reference is none.
    """

    def converged(v):
        return max(map(abs, _residual(a, d, n, v))) < 1e-34

    for _ in range(steps):
        if converged(v):
            return v
        v = _newton_step(a, d, n, v)
        if v is None:
            return None
    return v if converged(v) else None


def _promote(mp, model: DerivedModel):
    """(A', D, N, Cr, Ci, eta, hbar) of the float64 model, promoted exactly to
    mpf, except N = (4 eta/hbar) Cr Cr^T: formed at the working precision,
    it stays exactly rank one, as the projected identities assume."""
    a, cr, ci = ([mp.mpf(x) for x in X.flat] for X in (model.Aprime, model.Cr, model.Ci))
    eta, hbar = mp.mpf(model.eta), mp.mpf(model.hbar)
    k = 4 * eta / hbar
    n = (k * cr[0] * cr[0], k * cr[0] * cr[1], k * cr[1] * cr[1])
    return a, tuple(map(mp.mpf, _sym(model.D.tolist()))), n, cr, ci, eta, hbar


def _crit_proof_identities(fault: str | None) -> tuple[bool, str]:
    import mpmath as mp

    entries = [e for e in _population(fault) if e.steady is not None]
    worst_eq = 0.0
    worst_quot = 0.0
    worst_d1 = 0.0
    checked = 0
    unrefined = 0
    with mp.workdps(60):
        for e in entries:
            # the float64 op must agree on its own d1 identity for every spec
            try:
                rep = det_quotient_identity(e.model, e.steady.V_inf)
            except DegenerateBasis:
                continue
            worst_d1 = max(worst_d1, rep.d1_residual)
            a, d, n, cr, ci, eta, hbar = _promote(mp, e.model)
            v = _refine_reference(a, d, n, tuple(map(mp.mpf, _sym(e.steady.V_inf.tolist()))))
            if v is None:
                unrefined += 1
                continue
            rep = _projected_identities(cr, ci, a, d, v, eta, hbar, mp.sqrt)
            worst_eq = max(worst_eq, float(max(rep.equation_residuals)))
            worst_quot = max(worst_quot, float(rep.quotient_residual))
            worst_d1 = max(worst_d1, float(rep.d1_residual))
            checked += 1

    rng = np.random.default_rng(POPULATION_SEED + 1)
    lemma_ok = True
    for _ in range(100):
        a = 10.0 ** rng.uniform(-2, 2)
        b = 10.0 ** rng.uniform(-2, 2)
        v_plus = 0.5 * (-a + np.sqrt(a * a + 4.0 * b))
        v = v_plus * (1.0 + np.logspace(-6, 6, 10_000))
        f = v * v / (v * v + a * v - b)
        bound = 4.0 * b / (4.0 * b + a * a)
        lemma_ok = lemma_ok and bool(np.all(f >= bound - 1e-12 * (1.0 + bound)))
        for vv in v[:: len(v) // 7]:
            lemma_ok = lemma_ok and lemma_f_bound(a, b, float(vv))

    ok = checked > 0 and unrefined == 0 and worst_eq <= 1e-9 and worst_quot <= 1e-9
    ok = ok and worst_d1 <= 1e-12 and lemma_ok
    detail = (
        f"{checked} specs ({unrefined} without a 60-digit reference below 1e-34): "
        f"max projected-equation residual {worst_eq:.2e}, quotient residual "
        f"{worst_quot:.2e} (tol 1e-9), d1 residual {worst_d1:.2e} (tol 1e-12); "
        f"lemma scan {'ok' if lemma_ok else 'VIOLATED'}"
    )
    return ok, detail


# ----------------------------------------------------------------------
# criterion 6: the two steady-state routes agree

def _crit_cross_solver(fault: str | None) -> tuple[bool, str]:
    entries = [e for e in _population(fault) if e.steady is not None]
    worst = 0.0
    ode_failures = 0
    for e in entries:
        try:
            ode = solve_are(e.model, method="ode")
        except NoSteadySolution:
            ode_failures += 1
            continue
        ham = e.steady
        rel = np.abs(ham.V_inf - ode.V_inf).max() / (1.0 + np.abs(ham.V_inf).max())
        worst = max(worst, float(rel))
    ok = worst <= 1e-8 and ode_failures <= 0.02 * len(entries)
    return ok, (
        f"{len(entries) - ode_failures}/{len(entries)} specs converged on both routes "
        f"({ode_failures} failed on the ODE route), "
        f"worst relative disagreement {worst:.3e} (tol 1e-8)"
    )


# ----------------------------------------------------------------------
# criterion 7: Monte-Carlo error statistics track the covariance flow

def _mc_case(spec: SystemSpec, fault: str | None) -> tuple[bool, str]:
    if fault is not None:
        raise NotImplementedError("fault hooks are not wired into the simulator")
    cfg = SimConfig(dt=1e-3, t_final=5.0, seed=MC_SEED, ensemble=2000)
    flow = integrate_riccati(build_derived(spec), 0.5 * spec.hbar * np.eye(2), cfg.t_final, cfg.dt)
    stats = monte_carlo(spec, cfg, flow)
    ok = True
    worst = 0.0
    for j in range(len(stats.checkpoint_times)):
        ref = stats.riccati_values[j]
        tol = np.maximum(0.05 * np.abs(ref), 3.0 * stats.standard_errors[j])
        dev = np.abs(stats.sample_error_cov[j] - ref)
        ok = ok and bool(np.all(dev <= tol))
        worst = max(worst, float((dev / tol).max()))
    traj = simulate_trajectory(spec, cfg, flow)
    mean, var = innovation_stats(traj)
    n = len(traj.innovations)
    mean_ok = abs(mean) <= 4.0 / np.sqrt(n)
    var_ok = abs(var - 1.0) <= 5.0 / np.sqrt(n)
    ok = ok and mean_ok and var_ok
    detail = (
        f"cov dev/tol max {worst:.2f}; innovations mean {mean:+.4f} (|..|<= {4 / np.sqrt(n):.4f}), "
        f"var {var:.4f} (1 +- {5 / np.sqrt(n):.4f})"
    )
    return ok, detail


def _crit_monte_carlo(fault: str | None) -> tuple[bool, str]:
    ok1, d1 = _mc_case(example1_spec(Example1Params(eta=1.0, phi=0.0)), fault)
    ok2, d2 = _mc_case(example2_spec(Example2Params(beta=1.0, gamma=1.0, eta=0.5, phi=0.0)), fault)
    return ok1 and ok2, f"trapped particle: {d1} | down-conversion: {d2}"


# ----------------------------------------------------------------------
# criterion 8: open-loop drive leaves the error sequence exactly unchanged

def _crit_drive_invariance(fault: str | None) -> tuple[bool, str]:
    if fault is not None:
        raise NotImplementedError("fault hooks are not wired into the simulator")
    spec = example1_spec(Example1Params(eta=1.0, phi=0.0))
    model = build_derived(spec)
    dt, t_final, seed = 1e-3, 2.0, 777
    flow = integrate_riccati(model, 0.5 * spec.hbar * np.eye(2), t_final, dt)
    cfg0 = SimConfig(dt=dt, t_final=t_final, seed=seed)
    drive = Drive(B=np.array([0.0, 1.0]), kind="sine", amplitude=1.0, frequency=1.0)
    cfg1 = SimConfig(dt=dt, t_final=t_final, seed=seed, drive=drive)
    t0 = simulate_trajectory(spec, cfg0, flow)
    t1 = simulate_trajectory(spec, cfg1, flow)
    exact = bool(np.array_equal(t0.err, t1.err))
    moved = float(np.abs(t1.x_hat - t0.x_hat).max())
    return exact and moved > 0.0, (
        f"error sequences bitwise equal: {exact}; driven estimate displaced by {moved:.3f}"
    )


# ----------------------------------------------------------------------
# criterion 9: stability classification

def _crit_stability(fault: str | None) -> tuple[bool, str]:
    worst = 0.0
    for e in _population(fault)[:500]:
        rep = classify_stability(e.model)
        an = np.sort_complex(rep.analytic_eigenvalues)
        nu = np.sort_complex(np.linalg.eigvals(e.model.A))
        worst = max(worst, float(np.abs(an - nu).max()))
    eig_ok = worst <= 1e-9

    osc_ok = True
    for omega in (1.0, 2.0):
        model = _apply_fault(
            build_derived(example1_spec(Example1Params(omega=omega))), fault
        )
        rep = classify_stability(model)
        target = np.sort_complex(np.array([1j * omega, -1j * omega]))
        osc_ok = osc_ok and bool(
            np.abs(np.sort_complex(np.linalg.eigvals(model.A)) - target).max() <= 1e-9
        )
        osc_ok = osc_ok and rep.stability_class == "not_asymptotically_stable"

    m_stable = _apply_fault(build_derived(example2_spec(Example2Params(beta=1.0, gamma=2.0))), fault)
    m_unstable = _apply_fault(build_derived(example2_spec(Example2Params(beta=4.0, gamma=1.0))), fault)
    cls_ok = (
        classify_stability(m_stable).stability_class == "asymptotically_stable"
        and classify_stability(m_unstable).stability_class == "not_asymptotically_stable"
    )
    ok = eig_ok and osc_ok and cls_ok
    return ok, (
        f"analytic vs numeric eigenvalues worst |diff| {worst:.2e} over 500 specs (tol 1e-9); "
        f"oscillator eigenvalues +-i*omega: {osc_ok}; down-conversion classes: {cls_ok}"
    )


_REGISTRY: list[tuple[str, Callable[[str | None], tuple[bool, str]]]] = [
    ("example1-det-grid", _crit_example1_det),
    ("example1-product-phi0", _crit_example1_product),
    ("example2-product-phi0", _crit_example2_product),
    ("theorem-bound-random", _crit_theorem_bound),
    ("heisenberg-floor-random", _crit_heisenberg),
    ("proof-identities", _crit_proof_identities),
    ("cross-solver-agreement", _crit_cross_solver),
    ("monte-carlo-riccati", _crit_monte_carlo),
    ("drive-invariance", _crit_drive_invariance),
    ("stability-classification", _crit_stability),
]

CRITERION_NAMES = [name for name, _ in _REGISTRY]


def run_criteria(names: list[str] | None = None, fault: str | None = None) -> list[CriterionResult]:
    """Run (a filtered subset of) the acceptance criteria.

    ``names`` entries match by substring. ``fault`` corrupts the model
    pipeline for the criteria that support it; criteria without fault
    support are skipped under a fault.
    """
    selected = _REGISTRY
    if names:
        selected = [
            (n, f) for n, f in _REGISTRY if any(pat in n for pat in names)
        ]
        if not selected:
            raise ValueError(f"no criteria match filters {names!r}")
    results = []
    for name, func in selected:
        try:
            passed, detail = func(fault)
        except NotImplementedError:
            continue
        except NoSteadySolution as exc:
            passed, detail = False, f"no steady solution during check: {exc}"
        results.append(CriterionResult(name=name, passed=bool(passed), detail=detail))
    return results
