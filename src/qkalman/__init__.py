"""Continuous-measurement Kalman filtering for a single linear quantum mode.

Covariance Riccati flow and steady states, stability-dependent estimation
bounds, closed-form example systems, and a seeded stochastic simulator for
the monitored mode and its optimal filter.
"""

__version__ = "0.1.0"

from .bounds import (
    DegenerateBasis,
    ProofIdentityReport,
    StabilityReport,
    TheoremReport,
    classify_stability,
    det_quotient_identity,
    lemma_f_bound,
    theorem_bound,
    theorem_report,
    verify_theorem,
)
from .closedform import (
    Example1Params,
    Example2Params,
    PhaseSingularity,
    example1_det,
    example1_product,
    example1_spec,
    example2_product,
    example2_spec,
)
from .model import (
    SIGMA,
    DerivedModel,
    SpecValidationError,
    SystemSpec,
    build_derived,
    compute_kappa,
    load_spec_file,
    spec_from_dict,
    spec_to_dict,
    validate_spec,
)
from .riccati import (
    ExistenceProbe,
    NoSteadySolution,
    RiccatiDivergence,
    RiccatiFlow,
    SteadyState,
    integrate_riccati,
    solve_are,
)
from .sim import (
    Drive,
    EnsembleStats,
    SimConfig,
    Trajectory,
    innovation_stats,
    monte_carlo,
    simulate_trajectory,
)

__all__ = [
    "__version__",
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
    "RiccatiFlow",
    "SteadyState",
    "ExistenceProbe",
    "NoSteadySolution",
    "RiccatiDivergence",
    "integrate_riccati",
    "solve_are",
    "StabilityReport",
    "TheoremReport",
    "ProofIdentityReport",
    "DegenerateBasis",
    "classify_stability",
    "theorem_bound",
    "theorem_report",
    "verify_theorem",
    "det_quotient_identity",
    "lemma_f_bound",
    "Example1Params",
    "Example2Params",
    "PhaseSingularity",
    "example1_spec",
    "example1_det",
    "example1_product",
    "example2_spec",
    "example2_product",
    "Drive",
    "SimConfig",
    "Trajectory",
    "EnsembleStats",
    "simulate_trajectory",
    "monte_carlo",
    "innovation_stats",
]
