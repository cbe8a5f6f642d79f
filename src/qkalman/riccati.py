"""Covariance flow and steady states of the measurement-conditioned
covariance.

The conditional covariance V of the monitored mode obeys the matrix Riccati
ODE

    dV/dt = A' V + V A'^T + D - (4*eta/hbar) * V Cr Cr^T V.

This module integrates the flow with a fixed-step classic Runge-Kutta scheme
(:func:`integrate_riccati`) and computes the unique stabilizing steady
solution by two independent routes (:func:`solve_are`):

* ``hamiltonian`` -- stable invariant subspace of the associated 4x4
  Hamiltonian matrix (ordered real Schur form);
* ``ode_limit``  -- integrate the flow from the vacuum covariance until the
  closed loop is stable, then Newton-Kleinman iterations.

Both routes finish with Newton polish whose residual is evaluated in extended
precision. On well-conditioned systems they agree far below the 1e-8
cross-check tolerance; on ill-conditioned ones (|V_inf| of 1e6 to 1e7),
about 6 in 10 000 random specs, they disagree by up to 4e-5 (see
"Known defect" in ``perfbench/README.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.linalg import schur

from .model import DerivedModel, symmetrize

__all__ = [
    "RiccatiFlow",
    "SteadyState",
    "ExistenceProbe",
    "NoSteadySolution",
    "RiccatiDivergence",
    "riccati_rhs",
    "integrate_riccati",
    "solve_are",
    "are_existence_probe",
]

#: Flow norm beyond which integration reports divergence.
DIVERGENCE_NORM = 1e12

#: Hamiltonian eigenvalues closer than this to the imaginary axis disqualify
#: the stable-subspace route.
AXIS_MARGIN = 1e-9

#: Time horizon after which the ODE route gives up.
ODE_MAX_TIME = 1e4


class NoSteadySolution(RuntimeError):
    """No stabilizing steady covariance exists (or none could be computed)."""


class RiccatiDivergence(RuntimeError):
    """The covariance flow exceeded the divergence threshold.

    Carries the time of divergence (``t``) and the flow computed so far
    (``flow``), which is useful when probing non-existence scenarios.
    """

    def __init__(self, t: float, flow: "RiccatiFlow"):
        super().__init__(f"covariance flow diverged at t={t:g} (norm > {DIVERGENCE_NORM:g})")
        self.t = t
        self.flow = flow


@dataclass(frozen=True)
class RiccatiFlow:
    """Sampled covariance flow: ``values[k]`` is V at ``times[k]``."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.times.ndim != 1 or self.values.shape != (len(self.times), 2, 2):
            raise ValueError("times and values have inconsistent shapes")

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class SteadyState:
    """Stabilizing steady solution of the covariance flow.

    ``residual`` is the operator norm of the algebraic-equation left-hand
    side at ``V_inf``; ``closed_loop_stable`` records whether
    A' - (4*eta/hbar) V_inf Cr Cr^T is Hurwitz.
    """

    V_inf: np.ndarray
    residual: float
    method: Literal["hamiltonian", "ode_limit"]
    closed_loop_stable: bool


@dataclass(frozen=True)
class ExistenceProbe:
    """Diagnostic for steady-solution existence.

    ``hamiltonian_eigenvalues`` is the 4-point spectrum, ``axis_distance``
    the smallest |Re| over it, and ``exists`` the verdict consistent with
    :func:`solve_are`.
    """

    hamiltonian_eigenvalues: np.ndarray
    axis_distance: float
    exists: bool
    detail: str

    @classmethod
    def of(cls, model: DerivedModel, steady: SteadyState | None) -> "ExistenceProbe":
        """View of ``steady = solve_are(model)`` (None if it raised)."""
        eig = np.linalg.eigvals(_hamiltonian_matrix(model))
        axis = float(np.min(np.abs(eig.real)))
        if steady is None:
            detail = "no stabilizing solution found by either route"
        elif steady.method == "hamiltonian":
            detail = "stable-subspace solution accepted"
        else:
            detail = "flow-limit solution accepted (subspace route failed)"
        return cls(eig, axis, steady is not None, detail)


def riccati_rhs(model: DerivedModel, V: np.ndarray) -> np.ndarray:
    """Right-hand side of the covariance ODE, symmetrized."""
    N = model.quadratic_coefficient()
    V = np.asarray(V, dtype=float)
    return symmetrize(model.Aprime @ V + V @ model.Aprime.T + model.D - V @ N @ V)


def _integrate_single(
    Ap: np.ndarray,
    D: np.ndarray,
    N: np.ndarray,
    V0: np.ndarray,
    t_final: float,
    dt: float,
    store: bool,
) -> tuple[np.ndarray, np.ndarray | None, float | None]:
    """Classic RK4 with per-step symmetrization for one system.

    Returns (final V, stored flow or None, divergence time or None). On
    divergence the stored flow covers the steps completed so far. The
    symmetric covariance is carried as the scalar triple (v11, v12, v22) to
    avoid numpy's per-call overhead on 2x2 operands; the off-diagonal of
    each RHS evaluation averages the two floating-point off-diagonal
    expressions, which is the triple-form of (X + X^T)/2.
    """
    n_steps = int(round(t_final / dt)) if t_final > 0 else 0
    a, b = float(Ap[0, 0]), float(Ap[0, 1])
    c, d = float(Ap[1, 0]), float(Ap[1, 1])
    d1, d2, d3 = float(D[0, 0]), float(D[0, 1]), float(D[1, 1])
    n1, n2, n3 = float(N[0, 0]), float(N[0, 1]), float(N[1, 1])
    v1, v2, v3 = float(V0[0, 0]), 0.5 * float(V0[0, 1] + V0[1, 0]), float(V0[1, 1])

    flow = None
    if store:
        flow = np.empty((n_steps + 1, 2, 2))
        flow[0] = ((v1, v2), (v2, v3))

    def rhs(v1, v2, v3):
        w11 = n1 * v1 + n2 * v2
        w12 = n1 * v2 + n2 * v3
        w21 = n2 * v1 + n3 * v2
        w22 = n2 * v2 + n3 * v3
        r1 = 2.0 * (a * v1 + b * v2) + d1 - (v1 * w11 + v2 * w21)
        r2 = (
            (a * v2 + b * v3) + (c * v1 + d * v2) + d2
            - 0.5 * ((v1 * w12 + v2 * w22) + (v2 * w11 + v3 * w21))
        )
        r3 = 2.0 * (c * v2 + d * v3) + d3 - (v2 * w12 + v3 * w22)
        return r1, r2, r3

    sixth = dt / 6.0
    half = 0.5 * dt
    limit = DIVERGENCE_NORM
    for k in range(n_steps):
        p1, p2, p3 = rhs(v1, v2, v3)
        q1, q2, q3 = rhs(v1 + half * p1, v2 + half * p2, v3 + half * p3)
        r1, r2, r3 = rhs(v1 + half * q1, v2 + half * q2, v3 + half * q3)
        s1, s2, s3 = rhs(v1 + dt * r1, v2 + dt * r2, v3 + dt * r3)
        v1 += sixth * (p1 + 2.0 * (q1 + r1) + s1)
        v2 += sixth * (p2 + 2.0 * (q2 + r2) + s2)
        v3 += sixth * (p3 + 2.0 * (q3 + r3) + s3)
        if store:
            flow[k + 1] = ((v1, v2), (v2, v3))
        bad = not (abs(v1) <= limit and abs(v2) <= limit and abs(v3) <= limit)
        if bad or v1 != v1 or v2 != v2 or v3 != v3:
            if store:
                flow = flow[: k + 2]
            return np.array([[v1, v2], [v2, v3]]), flow, (k + 1) * dt
    return np.array([[v1, v2], [v2, v3]]), flow, None


def integrate_riccati(
    model: DerivedModel, V0: np.ndarray, t_final: float, dt: float = 1e-3
) -> RiccatiFlow:
    """Integrate the covariance flow from V0 over [0, t_final].

    Fixed-step classic fourth-order Runge-Kutta with per-step
    symmetrization. ``t_final == 0`` returns a flow holding only V0.

    Raises
    ------
    RiccatiDivergence
        If the flow norm exceeds ``DIVERGENCE_NORM`` (signals a
        no-steady-solution scenario).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_final < 0:
        raise ValueError("t_final must be nonnegative")
    V0 = symmetrize(np.asarray(V0, dtype=float))
    N = model.quadratic_coefficient()
    _, flow, t_div = _integrate_single(model.Aprime, model.D, N, V0, t_final, dt, store=True)
    assert flow is not None
    values = flow
    times = np.arange(len(values)) * dt
    if t_div is not None:
        raise RiccatiDivergence(t_div, RiccatiFlow(times=times, values=values))
    return RiccatiFlow(times=times, values=values)


def _residual_matrix(Ap, D, N, V):
    return Ap @ V + V @ Ap.T + D - V @ N @ V


def _operator_norm(V: np.ndarray) -> float:
    return float(np.linalg.norm(V, 2))


def _newton_polish(
    Ap: np.ndarray, D: np.ndarray, N: np.ndarray, V: np.ndarray, iters: int = 30
) -> np.ndarray:
    """Newton iterations on the steady-state residual, best-by-residual.

    Each step solves the Lyapunov-type linearization
    Ac X + X Ac^T = -resid with Ac = A' - V N (a 3x3 linear system for the
    symmetric unknown). The residual is evaluated in extended precision so
    ill-conditioned solutions polish well below the float64 residual floor.
    """
    ApL = Ap.astype(np.longdouble)
    DL = D.astype(np.longdouble)
    NL = N.astype(np.longdouble)
    VL = V.astype(np.longdouble)

    def res(VL):
        return ApL @ VL + VL @ ApL.T + DL - VL @ NL @ VL

    best = VL
    best_norm = np.abs(res(VL)).max()
    for _ in range(iters):
        R = res(VL)
        Ac = np.asarray(ApL - VL @ NL, dtype=float)
        a, b, c, d = Ac[0, 0], Ac[0, 1], Ac[1, 0], Ac[1, 1]
        lin = np.array([[2 * a, 2 * b, 0.0], [c, a + d, b], [0.0, 2 * c, 2 * d]])
        rhs = -np.array([R[0, 0], R[0, 1], R[1, 1]], dtype=float)
        try:
            x = np.linalg.solve(lin, rhs)
        except np.linalg.LinAlgError:
            break
        VL = VL + np.array([[x[0], x[1]], [x[1], x[2]]], dtype=np.longdouble)
        VL = 0.5 * (VL + VL.T)
        norm = np.abs(res(VL)).max()
        if norm < best_norm:
            best, best_norm = VL, norm
        if best_norm == 0.0:
            break
    return np.asarray(best, dtype=float)


def _closed_loop(model: DerivedModel, V: np.ndarray) -> np.ndarray:
    return model.Aprime - V @ model.quadratic_coefficient()


def _is_stabilizing(model: DerivedModel, V: np.ndarray, margin: float = 0.0) -> bool:
    return float(np.linalg.eigvals(_closed_loop(model, V)).real.max()) < -margin


def _hamiltonian_matrix(model: DerivedModel) -> np.ndarray:
    N = model.quadratic_coefficient()
    return np.block([[model.Aprime.T, -N], [-model.D, -model.Aprime]])


def _accept(model: DerivedModel, V: np.ndarray) -> tuple[bool, float]:
    """Quality gate: symmetric PSD, small residual, Hurwitz closed loop."""
    N = model.quadratic_coefficient()
    scale = 1.0 + float((V * V).sum())
    resid = _operator_norm(_residual_matrix(model.Aprime, model.D, N, V))
    ok = (
        np.all(np.isfinite(V))
        and np.linalg.eigvalsh(V).min() > -1e-9 * (1.0 + np.abs(V).max())
        and resid <= 1e-9 * scale
        and _is_stabilizing(model, V)
    )
    return bool(ok), resid


def _solve_hamiltonian(model: DerivedModel) -> tuple[np.ndarray, float] | None:
    """Stabilizing solution and its residual from the stable invariant
    subspace, or None."""
    H = _hamiltonian_matrix(model)
    eig = np.linalg.eigvals(H)
    if np.min(np.abs(eig.real)) < AXIS_MARGIN:
        return None
    _, Z, sdim = schur(H, output="real", sort="lhp")
    if sdim != 2:
        return None
    U1 = Z[:2, :2]
    U2 = Z[2:, :2]
    if abs(np.linalg.det(U1)) < 1e-13:
        return None
    V = symmetrize(U2 @ np.linalg.inv(U1))
    V = _newton_polish(model.Aprime, model.D, model.quadratic_coefficient(), V)
    ok, resid = _accept(model, V)
    return (V, resid) if ok else None


def _solve_ode_limit(model: DerivedModel, max_time: float = ODE_MAX_TIME) -> tuple[np.ndarray, float] | None:
    """Flow from the vacuum covariance, then Newton-Kleinman polish.

    Returns the accepted solution and its residual, or None. Integrates in
    chunks with a stability-bounded step; as soon as the closed loop at the
    current V is Hurwitz, Newton iterations (globally convergent from a
    stabilizing iterate) finish the job.
    """
    Ap, D, N = model.Aprime, model.D, model.quadratic_coefficient()
    V = 0.5 * model.hbar * np.eye(2)
    t = 0.0
    stationary_chunks = 0
    rejected_polishes = 0
    while True:
        if _is_stabilizing(model, V, margin=AXIS_MARGIN):
            Vn = _newton_polish(Ap, D, N, V)
            ok, resid = _accept(model, Vn)
            if ok:
                return Vn, resid
            # Newton from a stabilizing iterate lands on the unique
            # stabilizing fixed point; if that one fails the quality gate,
            # further integration cannot change the outcome.
            rejected_polishes += 1
            if rejected_polishes >= 3:
                return None
        if t >= max_time:
            return None
        stiffness = np.abs(Ap).sum() + np.abs(V @ N).sum() + 1.0
        dt = min(1e-2, 1.0 / stiffness)
        n = max(1, int(round(1.0 / dt)))
        Vprev = V
        V, _, t_div = _integrate_single(Ap, D, N, V, n * dt, dt, store=False)
        if t_div is not None:
            return None
        t += n * dt
        # A frozen, non-stabilizing flow can never converge to a stabilizing
        # solution; bail out instead of burning the full time budget.
        if np.abs(V - Vprev).max() <= 1e-14 * (1.0 + np.abs(V).max()):
            stationary_chunks += 1
            if stationary_chunks >= 3:
                return None
        else:
            stationary_chunks = 0


def solve_are(
    model: DerivedModel, method: Literal["hamiltonian", "ode"] = "hamiltonian"
) -> SteadyState:
    """Compute the stabilizing steady covariance.

    ``method="hamiltonian"`` uses the stable invariant subspace of the 4x4
    Hamiltonian matrix and falls back to the ODE route if the subspace
    computation fails its quality gates. ``method="ode"`` forces the
    ODE-limit route.

    Raises
    ------
    NoSteadySolution
        If neither route produces a stabilizing, positive-semidefinite
        solution with a small residual.
    """
    if method not in ("hamiltonian", "ode"):
        raise ValueError(f"unknown method {method!r}")
    found = _solve_hamiltonian(model) if method == "hamiltonian" else None
    tag: Literal["hamiltonian", "ode_limit"] = "hamiltonian"
    if found is None:
        found = _solve_ode_limit(model)
        tag = "ode_limit"
    if found is None:
        raise NoSteadySolution(
            "no stabilizing steady solution: Hamiltonian spectrum touches the "
            "imaginary axis and the flow does not converge"
        )
    V, resid = found
    # Both routes return only solutions that passed _accept, whose gate
    # includes a Hurwitz closed loop.
    return SteadyState(V_inf=V, residual=resid, method=tag, closed_loop_stable=True)


def are_existence_probe(model: DerivedModel) -> ExistenceProbe:
    """Report the Hamiltonian spectrum and an existence verdict.

    One :func:`solve_are` call viewed through :meth:`ExistenceProbe.of`, so
    the verdict is True exactly when :func:`solve_are` succeeds.
    """
    try:
        steady = solve_are(model)
    except NoSteadySolution:
        steady = None
    return ExistenceProbe.of(model, steady)
