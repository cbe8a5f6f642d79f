"""Covariance flow and steady states of the measurement-conditioned
covariance.

The conditional covariance V of the monitored mode obeys the matrix Riccati
ODE

    dV/dt = A' V + V A'^T + D - (4*eta/hbar) * V Cr Cr^T V.

One exact propagator carries the flow and its limit. By Radon's lemma
V = Y X^-1 with d/dt [X; Y] = M [X; Y], M = [[-A'^T, N], [D, A']], so the
flow over a time t is the map V -> P + E V (I + W V)^-1 E^T built from
exp(M t), and composing the map with itself doubles t (Davison & Maki
1973; Chu, Fan, Lin & Wang 2004). As V is proportional to hbar, the
propagator works on V/hbar. :func:`integrate_riccati` applies the map over
one step at every step. :func:`solve_are` computes the unique stabilizing
steady solution by two independent routes:

* ``hamiltonian`` -- stable invariant subspace of the associated 4x4
  Hamiltonian matrix (ordered real Schur form), then Newton polish with an
  extended-precision residual;
* ``ode_limit``  -- the flow map from the vacuum covariance, doubled until
  the flow reaches its limit; exact up to rounding, with no polish.

On ill-conditioned systems (|V_inf| of 1e6 to 1e7, about 6 in 10 000
random specs) the Hamiltonian route misses a 60-digit reference by up to
7e-7 and the flow limit by at most 1.3e-9 (see "Known defect" in
``perfbench/README.md``); elsewhere both agree far below 1e-8.
"""

from __future__ import annotations

import math
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
        eig = np.linalg.eigvals(_hamiltonian_matrix(*_hbar_units(model)))
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


def _hbar_units(model: DerivedModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flow coefficients (A', D/hbar, hbar*N) of V/hbar.

    D is proportional to hbar and N to 1/hbar, so these do not depend on
    hbar; at hbar = 1 they are bit-identical to (A', D, N).
    """
    return model.Aprime, model.D / model.hbar, 4.0 * model.eta * np.outer(model.Cr, model.Cr)


#: Coefficients (E, P, W) of the flow map V -> P + E V (I + W V)^-1 E^T.
_FlowMap = tuple[np.ndarray, np.ndarray, np.ndarray]


def _hamiltonian_matrix(Ap: np.ndarray, D: np.ndarray, N: np.ndarray) -> np.ndarray:
    return np.block([[Ap.T, -N], [-D, -Ap]])


def _double(E: np.ndarray, P: np.ndarray, W: np.ndarray) -> _FlowMap:
    """Coefficients of the flow map composed with itself (twice the time).

    For symmetric P and W, (I + W P)^-1 = ((I + P W)^-1)^T, so one inverse
    serves all three updates.
    """
    K = np.linalg.inv(np.eye(2) + P @ W)
    KE = K @ E
    return E @ KE, symmetrize(P + E @ K @ P @ E.T), symmetrize(W + E.T @ W @ KE)


def _flow_map(Ap: np.ndarray, D: np.ndarray, N: np.ndarray, t: float) -> _FlowMap:
    """(E, P, W) of the exact flow map V -> P + E V (I + W V)^-1 E^T over t.

    With Phi = exp(M t): E = Phi11^-T, P = Phi21 Phi11^-1 and
    W = Phi11^-1 Phi12. Phi comes from a 20-term Taylor series at
    tau = t / 2^s, where s makes ||M tau||_1 <= 1/2, followed by s doublings.
    """
    M = -_hamiltonian_matrix(Ap, D, N)  # [[-A'^T, N], [D, A']]
    s = max(0, math.frexp(np.linalg.norm(M, 1) * t)[1] + 1)
    Mt = M * (t / 2.0**s)
    term = Phi = np.eye(4)
    for k in range(1, 21):
        term = term @ Mt / k
        Phi = Phi + term
    X = np.linalg.inv(Phi[:2, :2])
    E, P, W = X.T, symmetrize(Phi[2:, :2] @ X), symmetrize(X @ Phi[:2, 2:])
    for _ in range(s):
        E, P, W = _double(E, P, W)
    return E, P, W


def integrate_riccati(
    model: DerivedModel, V0: np.ndarray, t_final: float, dt: float = 1e-3
) -> RiccatiFlow:
    """Integrate the covariance flow from V0 over [0, t_final].

    Applies the exact flow map over one step ``dt`` at every step, so the
    samples carry rounding error only, whatever ``dt``. ``t_final == 0``
    returns a flow holding only V0.

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
    hbar = model.hbar
    n_steps = int(round(t_final / dt)) if t_final > 0 else 0
    E, P, W = _flow_map(*_hbar_units(model), dt)
    # V is carried as the scalar triple (v11, v12, v22), which avoids numpy's
    # per-call overhead on 2x2 operands; each off-diagonal averages its two
    # floating-point expressions, the triple form of (X + X^T)/2.
    e11, e12, e21, e22 = E.ravel().tolist()
    p1, p2, _, p3 = P.ravel().tolist()
    w1, w2, _, w3 = W.ravel().tolist()
    flow = np.empty((n_steps + 1, 2, 2))
    flow[0] = symmetrize(np.asarray(V0, dtype=float)) / hbar
    v1, v2, _, v3 = flow[0].ravel().tolist()
    limit = DIVERGENCE_NORM / hbar
    for k in range(n_steps):
        # S = V (I + W V)^-1, then V <- P + E S E^T
        z11 = 1.0 + w1 * v1 + w2 * v2
        z12 = w1 * v2 + w2 * v3
        z21 = w2 * v1 + w3 * v2
        z22 = 1.0 + w2 * v2 + w3 * v3
        r = 1.0 / (z11 * z22 - z12 * z21)
        s1 = (v1 * z22 - v2 * z21) * r
        s2 = 0.5 * ((v2 * z11 - v1 * z12) + (v2 * z22 - v3 * z21)) * r
        s3 = (v3 * z11 - v2 * z12) * r
        t11, t12 = e11 * s1 + e12 * s2, e11 * s2 + e12 * s3
        t21, t22 = e21 * s1 + e22 * s2, e21 * s2 + e22 * s3
        v1 = p1 + (t11 * e11 + t12 * e12)
        v2 = p2 + 0.5 * ((t11 * e21 + t12 * e22) + (t21 * e11 + t22 * e12))
        v3 = p3 + (t21 * e21 + t22 * e22)
        flow[k + 1] = ((v1, v2), (v2, v3))
        if not (abs(v1) <= limit and abs(v2) <= limit and abs(v3) <= limit):
            partial = RiccatiFlow(times=np.arange(k + 2) * dt, values=hbar * flow[: k + 2])
            raise RiccatiDivergence((k + 1) * dt, partial)
    return RiccatiFlow(times=np.arange(n_steps + 1) * dt, values=hbar * flow)


def _residual_matrix(Ap, D, N, V):
    return Ap @ V + V @ Ap.T + D - V @ N @ V


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


def _accept(model: DerivedModel, V: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Quality gate on V in units of hbar: symmetric PSD, small residual,
    Hurwitz closed loop.

    Returns hbar * V and its residual, or None if V fails the gate.
    """
    Ap, D, N = _hbar_units(model)
    scale = 1.0 + float((V * V).sum())
    resid = float(np.linalg.norm(_residual_matrix(Ap, D, N, V), 2))
    ok = (
        np.all(np.isfinite(V))
        and np.linalg.eigvalsh(V).min() > -1e-9 * (1.0 + np.abs(V).max())
        and resid <= 1e-9 * scale
        and np.linalg.eigvals(Ap - V @ N).real.max() < 0.0
    )
    return (model.hbar * V, model.hbar * resid) if ok else None


def _solve_hamiltonian(model: DerivedModel) -> tuple[np.ndarray, float] | None:
    """Stabilizing solution and its residual from the stable invariant
    subspace, or None."""
    Ap, D, N = _hbar_units(model)
    H = _hamiltonian_matrix(Ap, D, N)
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
    return _accept(model, _newton_polish(Ap, D, N, symmetrize(U2 @ np.linalg.inv(U1))))


def _solve_ode_limit(model: DerivedModel) -> tuple[np.ndarray, float] | None:
    """Limit of the flow from the vacuum covariance by doubling, or None.

    The flow is rebased at the vacuum V0 = I/2 (units of hbar): U = V - V0
    obeys the same equation with A0 = A' - V0 N and D0 the residual at V0,
    and from U = 0 the map over 2^k tau0 gives U = P_k, with E_k -> 0
    exactly when the limit is stabilizing. From V = 0 instead, the map can
    head for a non-stabilizing solution (diag(0, 1/4) for the
    down-conversion system at phi = 0). tau0 is the power of two with
    1/4 <= ||M tau0||_1 < 1/2, so rescaling time by a power of two leaves
    every operation exact.
    """
    Ap, D, N = _hbar_units(model)
    V0 = 0.5 * np.eye(2)
    A0 = Ap - V0 @ N
    D0 = symmetrize(_residual_matrix(Ap, D, N, V0))
    norm = np.linalg.norm(_hamiltonian_matrix(A0, D0, N), 1)
    if not norm > 0.0:
        return None
    E, P, W = _flow_map(A0, D0, N, math.ldexp(1.0, -1 - math.frexp(norm)[1]))
    eps = np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(64):
            E, P_next, W = _double(E, P, W)
            if not (np.isfinite(E).all() and np.isfinite(P_next).all() and np.isfinite(W).all()):
                return None
            stalled = np.abs(P_next - P).max() <= 4.0 * eps * np.abs(V0 + P_next).max()
            P = P_next
            if stalled and np.abs(E).max() < 1e-8:
                break
    return _accept(model, V0 + P)


def _try_route(route, model: DerivedModel) -> tuple[np.ndarray, float] | None:
    """A route's result; a numerical failure inside it means it failed."""
    try:
        return route(model)
    except np.linalg.LinAlgError:
        return None


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
    found = _try_route(_solve_hamiltonian, model) if method == "hamiltonian" else None
    tag: Literal["hamiltonian", "ode_limit"] = "hamiltonian"
    if found is None:
        found = _try_route(_solve_ode_limit, model)
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
