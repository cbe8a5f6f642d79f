"""Stability-dependent estimation bounds and their internal identities.

The steady estimation error obeys det(V_inf) >= hbar^2/(4*eta) when the
coupling invariant kappa = Cr^T Sigma Ci is nonpositive, and
det(V_inf) >= hbar^2/4 when kappa is positive; the Heisenberg floor
det >= hbar^2/4 holds regardless. kappa also governs stability of the
drift A, whose characteristic polynomial is
lambda^2 + 2*kappa*lambda + kappa^2 + det(G). This module implements the
bound selection, the stability classification, the verification report
(from a steady solution, or for a spec), and the projected-basis identities
used to derive the bound, as executable checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Literal

import numpy as np

from .model import DerivedModel, SystemSpec, build_derived
from .riccati import NoSteadySolution, SteadyState, _sym, solve_are

__all__ = [
    "DegenerateBasis",
    "StabilityReport",
    "TheoremReport",
    "ProofIdentityReport",
    "classify_stability",
    "theorem_bound",
    "theorem_report",
    "verify_theorem",
    "det_quotient_identity",
    "lemma_f_bound",
]

#: |kappa| at or below this times |C|^2 = ||Cr||^2 + ||Ci||^2 maps to the
#: "nonpositive" branch. |C|^2 is phase-invariant and scales with kappa
#: under time rescaling, so the verdict does not depend on the time unit.
KAPPA_DEADBAND = 1e-12


class DegenerateBasis(ValueError):
    """Cr vanishes, so the projected basis (Cr, Sigma^T Cr) does not exist."""


def _kappa_positive(model: DerivedModel) -> bool:
    """kappa above the dead-band KAPPA_DEADBAND * |C|^2."""
    c2 = float(model.Cr @ model.Cr + model.Ci @ model.Ci)
    return model.kappa > KAPPA_DEADBAND * c2


@dataclass(frozen=True)
class StabilityReport:
    """Drift stability classification.

    ``analytic_eigenvalues`` are the roots of
    lambda^2 + 2*kappa*lambda + kappa^2 + det(G). The drift is
    asymptotically stable iff kappa > 0 and kappa^2 + det(G) > 0.
    """

    kappa: float
    det_G: float
    analytic_eigenvalues: np.ndarray
    stability_class: Literal["asymptotically_stable", "not_asymptotically_stable"]


@dataclass(frozen=True)
class TheoremReport:
    """Bound verification for one system.

    ``margin = det_V_inf - bound``; ``heisenberg_ok`` checks the universal
    det >= hbar^2/4 floor with a slack of 1e-10*hbar^2;
    ``proof_identity_residual`` is the quotient-
    identity residual (NaN when Cr = 0 or no steady state exists).
    """

    kappa: float
    kappa_class: Literal["nonpositive", "positive"]
    stability_class: Literal["asymptotically_stable", "not_asymptotically_stable"]
    bound: float
    steady_state_exists: bool
    det_V_inf: float
    margin: float
    heisenberg_ok: bool
    proof_identity_residual: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "kappa": self.kappa,
            "kappa_class": self.kappa_class,
            "stability_class": self.stability_class,
            "bound": self.bound,
            "steady_state_exists": self.steady_state_exists,
            "det_V_inf": self.det_V_inf,
            "margin": self.margin,
            "heisenberg_ok": self.heisenberg_ok,
            "proof_identity_residual": self.proof_identity_residual,
        }


@dataclass(frozen=True)
class ProofIdentityReport:
    """Projected-basis quantities and identity residuals at a steady state.

    All quantities live in the orthonormal basis (chat, Sigma^T chat),
    chat = Cr/||Cr||, with the quadratic coefficient
    q = (4*eta/hbar)*||Cr||^2 folding the normalization; at ||Cr|| = 1 the
    three projected equations and the det quotient reduce verbatim to their
    unit-norm forms. ``equation_residuals`` are the three projected
    steady-state equations; ``d1_residual`` checks
    d1 = hbar*(1-eta)*(chat^T Sigma Ci)^2.
    """

    v: tuple[float, float, float]
    a: tuple[float, float, float, float]
    d: tuple[float, float, float]
    q: float
    det_V: float
    quotient: float
    equation_residuals: tuple[float, float, float]
    quotient_residual: float
    d1_residual: float


def classify_stability(model: DerivedModel) -> StabilityReport:
    """Classify drift stability from the roots -kappa +- sqrt(-det G) of its
    characteristic polynomial."""
    kappa = model.kappa
    (g11, g12), (g21, g22) = model.spec.G.tolist()
    det_G = g11 * g22 - g12 * g21
    root = math.sqrt(-det_G) if det_G <= 0.0 else 1j * math.sqrt(det_G)
    analytic = np.array([-kappa + root, -kappa - root], dtype=complex)
    stable = _kappa_positive(model) and kappa * kappa + det_G > 0.0
    return StabilityReport(
        kappa=kappa,
        det_G=det_G,
        analytic_eigenvalues=analytic,
        stability_class="asymptotically_stable" if stable else "not_asymptotically_stable",
    )


def theorem_bound(model: DerivedModel) -> float:
    """Estimation-error bound selected by the sign of kappa.

    hbar^2/(4*eta) for kappa <= 0 (dead-band included), hbar^2/4 otherwise.
    """
    hbar, eta = model.hbar, model.eta
    if _kappa_positive(model):
        return hbar * hbar / 4.0
    return hbar * hbar / (4.0 * eta)


def _projected_identities(cr, ci, a, d, v, eta, hbar, sqrt) -> ProofIdentityReport:
    """:func:`det_quotient_identity` on scalars: Cr, Ci as pairs, A' row-major,
    D and V_inf as triples (x11, x12, x22). Only +, -, *, / and the given
    ``sqrt`` are used, so the report's numbers have the type of the inputs:
    float, or ``mpmath.mpf`` in the 60-digit acceptance check."""
    s2 = cr[0] * cr[0] + cr[1] * cr[1]
    if s2 <= 1e-24 * (s2 + ci[0] * ci[0] + ci[1] * ci[1]):
        raise DegenerateBasis("Cr vanishes; projected basis undefined")
    s = sqrt(s2)
    c = (cr[0] / s, cr[1] / s)  # chat
    b = (-c[1], c[0])  # cbar = Sigma^T chat
    D, V = (d[0], d[1], d[1], d[2]), (v[0], v[1], v[1], v[2])

    def form(x, m, y):  # x^T M y, M row-major
        return x[0] * (m[0] * y[0] + m[1] * y[1]) + x[1] * (m[2] * y[0] + m[3] * y[1])

    v1, v2, v3 = form(c, V, c), form(c, V, b), form(b, V, b)
    a1, a2, a3, a4 = form(c, a, c), form(c, a, b), form(b, a, c), form(b, a, b)
    d1, d2, d3 = form(c, D, c), form(c, D, b), form(b, D, b)
    q = 4 * eta / hbar * s * s

    r1 = 2 * a1 * v1 + 2 * a2 * v2 + d1 - q * v1 * v1
    r2 = a3 * v1 + (a1 + a4) * v2 + a2 * v3 + d2 - q * v1 * v2
    r3 = 2 * a3 * v2 + 2 * a4 * v3 + d3 - q * v2 * v2

    det_V = v1 * v3 - v2 * v2
    denominator = v1 * v1 - 2 * (a1 + a4) * v1 / q - d1 / q
    numerator = d3 * v1 * v1 - 2 * d2 * v1 * v2 + d1 * v2 * v2
    quotient = numerator / (q * denominator)

    kappa_hat = c[0] * ci[1] - c[1] * ci[0]  # chat^T Sigma Ci
    d1_expected = hbar * (1 - eta) * kappa_hat * kappa_hat

    return ProofIdentityReport(
        v=(v1, v2, v3), a=(a1, a2, a3, a4), d=(d1, d2, d3), q=q, det_V=det_V, quotient=quotient,
        equation_residuals=(abs(r1), abs(r2), abs(r3)),
        quotient_residual=abs(quotient - det_V),
        d1_residual=abs(d1 - d1_expected),
    )


def det_quotient_identity(model: DerivedModel, V_inf: np.ndarray) -> ProofIdentityReport:
    """Evaluate the projected steady-state identities at a steady solution.

    Projects A', D and V_inf onto the orthonormal basis built from Cr,
    evaluates the three projected steady-state equations, the closed-form
    quotient for det(V_inf), and the d1 identity. Residuals are absolute.

    Raises
    ------
    DegenerateBasis
        If ||Cr|| <= 1e-12 * |C|, |C| = sqrt(||Cr||^2 + ||Ci||^2).
    """
    m, v = model, _sym(np.asarray(V_inf, dtype=float).tolist())
    a, d, cr, ci = m.Aprime.ravel().tolist(), _sym(m.D.tolist()), m.Cr.tolist(), m.Ci.tolist()
    return _projected_identities(cr, ci, a, d, v, m.eta, m.hbar, math.sqrt)


def lemma_f_bound(a: float, b: float, v: float) -> bool:
    """Check f(v) = v^2/(v^2 + a*v - b) >= 4b/(4b + a^2) at v.

    Requires a > 0 and b > 0. Vacuously true outside the domain
    v > 0 and v^2 + a*v - b > 0. Equality holds at v = 2b/a, so the
    comparison carries a small floating-point slack.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError("lemma requires a > 0 and b > 0")
    denom = v * v + a * v - b
    if not (v > 0.0 and denom > 0.0):
        return True
    f = v * v / denom
    bound = 4.0 * b / (4.0 * b + a * a)
    return f >= bound - 1e-12 * (1.0 + bound)


def theorem_report(model: DerivedModel, steady: SteadyState | None) -> TheoremReport:
    """Bound verification for one system from its steady solution.

    ``steady`` is the result of ``solve_are(model)``, or None when no
    steady solution exists; then the report says so and its numeric fields
    are NaN.
    """
    bound = theorem_bound(model)
    det = proof_residual = float("nan")
    if steady is not None:
        det = float(np.linalg.det(steady.V_inf))
        try:
            proof_residual = det_quotient_identity(model, steady.V_inf).quotient_residual
        except DegenerateBasis:
            pass
    hbar2 = model.hbar * model.hbar
    return TheoremReport(
        kappa=model.kappa,
        kappa_class="positive" if _kappa_positive(model) else "nonpositive",
        stability_class=classify_stability(model).stability_class,
        bound=bound,
        steady_state_exists=steady is not None,
        det_V_inf=det,
        margin=det - bound,
        heisenberg_ok=det >= 0.25 * hbar2 - 1e-10 * hbar2,  # False for NaN
        proof_identity_residual=proof_residual,
    )


def verify_theorem(spec: SystemSpec) -> TheoremReport:
    """Verify the estimation bound for one system.

    Computes the steady covariance (if it exists), the applicable bound,
    the margin, the Heisenberg floor check, and the quotient-identity
    residual; see :func:`theorem_report`.
    """
    model = build_derived(spec)
    try:
        steady = solve_are(model)
    except NoSteadySolution:
        steady = None
    return theorem_report(model, steady)
