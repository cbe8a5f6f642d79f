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
steady solution by one of two independent routes:

* ``hamiltonian`` -- closed form. In units of hbar, N = q c c^T has rank
  one (c = Cr, q = 4 eta), so with e = adj(A')^T c the Hamiltonian matrix
  H has det(sI - H) = s^4 + p s^2 + r, r = det(A')^2 + q e^T D e. Its
  stable half s^2 - sigma s + pi has pi = sqrt(r) and sigma^2 = 2 pi - p =
  (tr A')^2 + q c^T D c + 2 (pi - det A'), the last term taken as
  2 q e^T D e / (pi + det A') when det A' > 0 (Kucera, Automatica 8
  (1972)); r <= 0 or sigma^2 <= 0 puts eigenvalues on the imaginary axis.
  As (H^2 - sigma H + pi I)(H^2 + sigma H + pi I) = 0 (Cayley-Hamilton),
  the range [X; Y] of K = H^2 + sigma H + pi I is the stable invariant
  subspace and V = Y X^-1 (Laub, IEEE TAC 24 (1979)). No polish follows;
* ``ode_limit``  -- the flow map from the vacuum covariance, doubled until
  the flow reaches its limit; exact up to rounding, with no polish.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .model import DerivedModel, symmetrize

__all__ = [
    "RiccatiFlow",
    "SteadyState",
    "ExistenceProbe",
    "NoSteadySolution",
    "RiccatiDivergence",
    "integrate_riccati",
    "solve_are",
]

#: Flow norm beyond which integration reports divergence.
DIVERGENCE_NORM = 1e12


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
        else:
            detail = "stable-subspace solution accepted"
        return cls(eig, axis, steady is not None, detail)


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


def _sym(X) -> tuple:
    """The triple (x11, x12, x22) of a symmetric 2x2 array or nested list."""
    return X[0][0], X[0][1], X[1][1]


def _triples(Ap: np.ndarray, D: np.ndarray, N: np.ndarray) -> tuple:
    """(A' row-major, D, N as triples): the scalar kernels' operands."""
    return Ap.ravel().tolist(), _sym(D.tolist()), _sym(N.tolist())


def _residual(a, d, n, v):
    """Residual A'V + VA'^T + D - VNV as a triple, with A' = ``a`` row-major and
    D, N, V the triples ``d``, ``n``, ``v``. Scalar +, -, * only, so it runs
    unchanged on floats, ``np.longdouble`` and ``mpmath.mpf``."""
    a11, a12, a21, a22 = a
    v1, v2, v3 = v
    m11, m12 = v1 * n[0] + v2 * n[1], v1 * n[1] + v2 * n[2]  # rows of VN
    m21, m22 = v2 * n[0] + v3 * n[1], v2 * n[1] + v3 * n[2]
    return (
        2 * (a11 * v1 + a12 * v2) + d[0] - (m11 * v1 + m12 * v2),
        (a11 * v2 + a12 * v3) + (a21 * v1 + a22 * v2) + d[1] - (m11 * v2 + m12 * v3),
        2 * (a21 * v2 + a22 * v3) + d[2] - (m21 * v2 + m22 * v3),
    )


def _closed_loop(a, n, v):
    """Ac = A' - VN row-major, in the precision of the inputs."""
    v1, v2, v3 = v
    return (
        a[0] - (v1 * n[0] + v2 * n[1]), a[1] - (v1 * n[1] + v2 * n[2]),
        a[2] - (v2 * n[0] + v3 * n[1]), a[3] - (v2 * n[1] + v3 * n[2]),
    )


def _newton_step(a, d, n, v):
    """One Newton step V + X on the residual, in the precision of the inputs.

    Solves Ac X + X Ac^T = -R with Ac = A' - VN = [[p, q], [r, s]], i.e.
    [[2p, 2q, 0], [r, p+s, q], [0, 2r, 2s]] x = -R, by Cramer's rule. Its
    determinant is 4 tr(Ac) det(Ac); None when that is zero or not finite."""
    b1, b2, b3 = (-x for x in _residual(a, d, n, v))
    p, q, r, s = _closed_loop(a, n, v)
    t = p + s
    det = 2 * t * (p * s - q * r)  # half the 3x3 determinant
    if not 0 < abs(det) < math.inf:
        return None
    x1 = ((s * t - q * r) * b1 - 2 * q * s * b2 + q * q * b3) / det
    x2 = (2 * p * s * b2 - r * s * b1 - p * q * b3) / det
    x3 = ((p * t - q * r) * b3 - 2 * p * r * b2 + r * r * b1) / det
    return v[0] + x1, v[1] + x2, v[2] + x3


def _accept(hbar: float, a, d, n, V: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Quality gate on the symmetric V in units of hbar, with the operands of
    :func:`_residual`: finite, PSD, small residual R, Hurwitz closed loop.
    Closed forms for symmetric 2x2: lambda_min(V) = (v1+v3)/2 -
    hypot((v1-v3)/2, v2), ||R||_2 = |(r1+r3)/2| + hypot((r1-r3)/2, r2), and
    Ac = A' - VN is Hurwitz iff tr Ac < 0 < det Ac.

    Returns hbar * V and its residual, or None if V fails the gate.
    """
    v = v1, v2, v3 = _sym(V.tolist())
    r1, r2, r3 = _residual(a, d, n, v)
    resid = abs(r1 + r3) / 2 + math.hypot((r1 - r3) / 2, r2)
    p, q, r, s = _closed_loop(a, n, v)
    ok = (
        all(map(math.isfinite, v))
        and (v1 + v3) / 2 - math.hypot((v1 - v3) / 2, v2) > -1e-9 * (1.0 + max(map(abs, v)))
        and resid <= 1e-9 * (1.0 + v1 * v1 + 2.0 * v2 * v2 + v3 * v3)
        and p + s < 0.0 < p * s - q * r
    )
    return (hbar * V, hbar * resid) if ok else None


def _stable_pair(a, d, c, q):
    """(sigma, pi) of the stable half of det(sI - H), or None when the
    spectrum touches the imaginary axis (see the module docstring). A' =
    ``a`` row-major, D the triple ``d``, N = q c c^T."""
    a11, a12, a21, a22 = a
    c1, c2 = c
    e1, e2 = a22 * c1 - a21 * c2, a11 * c2 - a12 * c1
    det = a11 * a22 - a12 * a21
    ede = e1 * (d[0] * e1 + d[1] * e2) + e2 * (d[1] * e1 + d[2] * e2)
    cdc = c1 * (d[0] * c1 + d[1] * c2) + c2 * (d[1] * c1 + d[2] * c2)
    r = det * det + q * ede
    if not r > 0.0:
        return None
    pi = math.sqrt(r)
    gap = 2.0 * q * ede / (pi + det) if det > 0.0 else 2.0 * (pi - det)
    tr = a11 + a22
    sigma2 = tr * tr + q * cdc + gap
    if not sigma2 > 0.0:
        return None
    return -math.sqrt(sigma2), pi


def _solve_hamiltonian(model: DerivedModel) -> tuple[np.ndarray, float] | None:
    """Stabilizing solution and its residual from the range of
    K = H^2 + sigma H + pi I, or None. Of K's six column pairs, the one with
    the largest |det| of its top 2x2 block over its column norms spans it."""
    Ap, D, N = _hbar_units(model)
    a, d, n = _triples(Ap, D, N)
    pair = _stable_pair(a, d, model.Cr.tolist(), 4.0 * model.eta)
    if pair is None:
        return None
    sigma, pi = pair
    H = _hamiltonian_matrix(Ap, D, N)
    K = H @ H + sigma * H + pi * np.eye(4)
    (t0, t1), norms = K[:2].tolist(), np.linalg.norm(K, axis=0).tolist()

    def conditioning(ij: tuple[int, int]) -> float:
        i, j = ij
        return abs(t0[i] * t1[j] - t0[j] * t1[i]) / (norms[i] * norms[j] or math.inf)

    ij = max(itertools.combinations(range(4), 2), key=conditioning)
    if not conditioning(ij) > 0.0:
        return None
    return _accept(model.hbar, a, d, n, symmetrize(K[2:, ij] @ np.linalg.inv(K[:2, ij])))


def _solve_ode_limit(model: DerivedModel) -> tuple[np.ndarray, float] | None:
    """Limit of the flow from the vacuum covariance by doubling, or None,
    also when 64 doublings do not reach it.

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
    a, d, n = _triples(Ap, D, N)
    V0 = 0.5 * np.eye(2)
    A0 = Ap - V0 @ N
    r1, r2, r3 = _residual(a, d, n, (0.5, 0.0, 0.5))
    D0 = np.array([[r1, r2], [r2, r3]])
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
        else:  # no limit within 64 doublings: fail closed
            return None
    return _accept(model.hbar, a, d, n, V0 + P)


def solve_are(
    model: DerivedModel, method: Literal["hamiltonian", "ode"] = "hamiltonian"
) -> SteadyState:
    """Compute the stabilizing steady covariance.

    ``method="hamiltonian"`` takes it in closed form from the stable
    invariant subspace of the 4x4 Hamiltonian matrix (derivation and refs
    in the module docstring); ``method="ode"`` takes it as the limit of the
    flow from the vacuum covariance. Each method runs its own route only;
    neither falls back to the other.

    Raises
    ------
    NoSteadySolution
        If the route produces no stabilizing, positive-semidefinite
        solution with a small residual.
    """
    if method not in ("hamiltonian", "ode"):
        raise ValueError(f"unknown method {method!r}")
    tag = "hamiltonian" if method == "hamiltonian" else "ode_limit"
    route = _solve_hamiltonian if method == "hamiltonian" else _solve_ode_limit
    try:
        found = route(model)
    except np.linalg.LinAlgError:  # a numerical failure inside the route
        found = None
    if found is None:
        raise NoSteadySolution(f"no stabilizing steady solution on the {tag} route")
    V, resid = found
    # Both routes return only solutions that passed _accept, whose gate
    # includes a Hurwitz closed loop.
    return SteadyState(V_inf=V, residual=resid, method=tag, closed_loop_stable=True)
