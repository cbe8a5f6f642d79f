"""System description and derived matrices for a continuously monitored
one-dimensional linear quantum mode.

A system is specified by the Hamiltonian quadratic form G (2x2 real
symmetric), the complex field-coupling vector C = (c1, c2), the detector
phase phi, the detection efficiency eta in (0, 1], and hbar. From these,
:func:`build_derived` computes every matrix used downstream: the drift A,
the covariance-flow coefficients (A', D), the coupling invariant
kappa = Cr^T Sigma Ci, and the classical estimator surrogate (M, R, S, Q)
that reproduces the filter gain and the covariance flow exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

__all__ = [
    "SIGMA",
    "SystemSpec",
    "DerivedModel",
    "SpecValidationError",
    "validate_spec",
    "build_derived",
    "compute_kappa",
    "spec_to_dict",
    "spec_from_dict",
    "load_spec_file",
]

# Symplectic form. Sign convention fixed; do not change without revisiting
# every formula in this package.
SIGMA = np.array([[0.0, 1.0], [-1.0, 0.0]])
SIGMA.flags.writeable = False

#: Relative G-asymmetry below which the constructor symmetrizes instead of
#: rejecting (floating-point noise vs. user error).
G_ASYMMETRY_RTOL = 1e-9


class SpecValidationError(ValueError):
    """Raised when a system specification fails validation."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.flags.writeable = False
    return a


def symmetrize(V: np.ndarray) -> np.ndarray:
    """Return the symmetric part (V + V^T)/2."""
    return 0.5 * (V + V.T)


@dataclass(frozen=True)
class SystemSpec:
    """Validated description of the monitored system.

    Parameters
    ----------
    G : (2, 2) array_like
        Real symmetric Hamiltonian quadratic form. Asymmetry up to
        ``G_ASYMMETRY_RTOL * (1 + ||G||)`` is symmetrized away; larger
        asymmetry raises :class:`SpecValidationError`.
    C : (2,) array_like, complex
        Coupling coefficients (c1, c2) of the field interaction.
    phi : float
        Detector phase in radians, reduced to [0, 2*pi).
    eta : float
        Detection efficiency, in (0, 1].
    hbar : float
        Positive; defaults to 1.
    """

    G: np.ndarray
    C: np.ndarray
    phi: float = 0.0
    eta: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        G = np.array(self.G, dtype=float)
        C = np.array(self.C, dtype=complex).reshape(-1)
        if G.shape != (2, 2):
            raise SpecValidationError(f"G must be 2x2, got shape {G.shape}")
        if C.shape != (2,):
            raise SpecValidationError(f"C must be a 2-vector, got shape {C.shape}")
        if not np.all(np.isfinite(G)):
            raise SpecValidationError("G has non-finite entries")
        if not (np.all(np.isfinite(C.real)) and np.all(np.isfinite(C.imag))):
            raise SpecValidationError("C has non-finite entries")
        for name in ("phi", "eta", "hbar"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise SpecValidationError(f"{name} is not finite")
        if not (0.0 < self.eta <= 1.0):
            raise SpecValidationError(f"eta out of range: {self.eta!r} not in (0, 1]")
        if not self.hbar > 0.0:
            raise SpecValidationError(f"hbar must be positive, got {self.hbar!r}")
        asym = abs(G[0, 1] - G[1, 0])
        if asym > G_ASYMMETRY_RTOL * (1.0 + np.linalg.norm(G)):
            raise SpecValidationError(
                f"G is not symmetric: |G12 - G21| = {asym:g} exceeds tolerance"
            )
        G = symmetrize(G)
        object.__setattr__(self, "G", _readonly(G))
        object.__setattr__(self, "C", _readonly(C))
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * np.pi))
        object.__setattr__(self, "eta", float(self.eta))
        object.__setattr__(self, "hbar", float(self.hbar))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SystemSpec):
            return NotImplemented
        return (
            np.array_equal(self.G, other.G)
            and np.array_equal(self.C, other.C)
            and (self.phi, self.eta, self.hbar) == (other.phi, other.eta, other.hbar)
        )

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class DerivedModel:
    """Every matrix derived from a :class:`SystemSpec`.

    ``Cr``/``Ci`` are the real/imaginary parts of exp(-i*phi)*C. ``A`` is the
    drift of the mode, ``Aprime`` and ``D`` the covariance-flow coefficients,
    ``kappa = Cr^T Sigma Ci`` the phase-invariant coupling invariant, and
    (``M``, ``R``, ``S``, ``Q``) the classical surrogate: measurement row,
    measurement noise intensity, process/measurement noise cross-covariance,
    and process noise intensity. The surrogate satisfies
    ``Aprime = A - S R^-1 M`` and ``D = Q - S R^-1 S^T``.
    """

    spec: SystemSpec
    Sigma: np.ndarray
    Cr: np.ndarray
    Ci: np.ndarray
    A: np.ndarray
    Aprime: np.ndarray
    D: np.ndarray
    kappa: float
    M: np.ndarray
    R: float
    S: np.ndarray
    Q: np.ndarray

    @property
    def eta(self) -> float:
        return self.spec.eta

    @property
    def hbar(self) -> float:
        return self.spec.hbar


def validate_spec(raw: Mapping[str, Any] | SystemSpec) -> SystemSpec:
    """Validate a spec candidate and return a normalized :class:`SystemSpec`.

    Accepts an existing SystemSpec (returned as-is: instances are validated
    on construction) or a mapping in the spec JSON schema::

        {"G": [[g11, g12], [g21, g22]], "C_re": [a, b], "C_im": [c, d],
         "phi": x, "eta": y, "hbar": z}

    ``phi`` and ``hbar`` are optional (defaults 0 and 1). A mapping may also
    carry a complex ``C`` directly instead of ``C_re``/``C_im``.
    """
    if isinstance(raw, SystemSpec):
        return raw
    d = dict(raw)
    if "C" in d:
        C = np.array(d.pop("C"), dtype=complex)
    else:
        try:
            C_re = np.array(d.pop("C_re"), dtype=float)
            C_im = np.array(d.pop("C_im"), dtype=float)
        except KeyError as exc:
            raise SpecValidationError(f"missing required spec key: {exc}") from exc
        C = C_re + 1j * C_im
    try:
        G = d.pop("G")
    except KeyError as exc:
        raise SpecValidationError("missing required spec key: 'G'") from exc
    phi = float(d.pop("phi", 0.0))
    eta = float(d.pop("eta"))
    hbar = float(d.pop("hbar", 1.0))
    if d:
        raise SpecValidationError(f"unknown spec keys: {sorted(d)}")
    return SystemSpec(G=G, C=C, phi=phi, eta=eta, hbar=hbar)


def compute_kappa(spec: SystemSpec) -> float:
    """Coupling invariant kappa = Re(C)^T Sigma Im(C).

    Equals Cr^T Sigma Ci for every detector phase phi; its sign selects the
    estimation bound and governs stability of the drift.
    """
    return float(spec.C.real @ SIGMA @ spec.C.imag)


def build_derived(spec: SystemSpec) -> DerivedModel:
    """Derive all model matrices from a validated spec.

    Deterministic: identical specs produce bit-identical results.
    """
    z = np.exp(-1j * spec.phi) * spec.C
    Cr = z.real.copy()
    Ci = z.imag.copy()
    eta, hbar = spec.eta, spec.hbar

    cr_ci = np.outer(Cr, Ci)
    ci_cr = np.outer(Ci, Cr)
    A = SIGMA @ (spec.G + cr_ci - ci_cr)
    Aprime = SIGMA @ (spec.G + cr_ci + (2.0 * eta - 1.0) * ci_cr)
    D = hbar * SIGMA.T @ (np.outer(Cr, Cr) + (1.0 - eta) * np.outer(Ci, Ci)) @ SIGMA
    D = symmetrize(D)
    kappa = float(Cr @ SIGMA @ Ci)

    M = 2.0 * np.sqrt(eta) * Cr
    R = hbar
    S = np.sqrt(eta) * hbar * (SIGMA.T @ Ci)
    Q = hbar * SIGMA @ (np.outer(Cr, Cr) + np.outer(Ci, Ci)) @ SIGMA.T
    Q = symmetrize(Q)

    return DerivedModel(
        spec=spec,
        Sigma=SIGMA,
        Cr=_readonly(Cr),
        Ci=_readonly(Ci),
        A=_readonly(A),
        Aprime=_readonly(Aprime),
        D=_readonly(D),
        kappa=kappa,
        M=_readonly(M),
        R=R,
        S=_readonly(S),
        Q=_readonly(Q),
    )


def spec_to_dict(spec: SystemSpec) -> dict[str, Any]:
    """Serialize a spec to the JSON schema (plain Python types)."""
    return {
        "G": [[float(x) for x in row] for row in spec.G],
        "C_re": [float(x) for x in spec.C.real],
        "C_im": [float(x) for x in spec.C.imag],
        "phi": spec.phi,
        "eta": spec.eta,
        "hbar": spec.hbar,
    }


def spec_from_dict(d: Mapping[str, Any]) -> SystemSpec:
    """Parse the JSON schema into a validated spec."""
    return validate_spec(d)


def load_spec_file(path: str) -> SystemSpec:
    """Load and validate a spec from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise SpecValidationError("spec file must contain a JSON object")
    return spec_from_dict(data)
