import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qkalman import (
    DegenerateBasis,
    NoSteadySolution,
    SteadyState,
    SystemSpec,
    build_derived,
    classify_stability,
    det_quotient_identity,
    lemma_f_bound,
    solve_are,
    theorem_bound,
    theorem_report,
    verify_theorem,
)
from qkalman.closedform import (
    Example1Params,
    Example2Params,
    example1_spec,
    example2_spec,
)

from conftest import random_spec


def sorted_eigs(vals):
    return np.sort_complex(np.asarray(vals, dtype=complex))


class TestClassifyStability:
    def test_oscillator_marginal(self):
        for omega in (1.0, 2.0):
            model = build_derived(example1_spec(Example1Params(omega=omega)))
            rep = classify_stability(model)
            assert rep.stability_class == "not_asymptotically_stable"
            target = sorted_eigs([1j * omega, -1j * omega])
            assert np.abs(sorted_eigs(np.linalg.eigvals(model.A)) - target).max() <= 1e-9
            assert np.abs(sorted_eigs(rep.analytic_eigenvalues) - target).max() <= 1e-12

    def test_down_conversion_stable_case(self):
        # beta=1, gamma=2: kappa=4, kappa^2 + det G = 16 - 1 > 0
        model = build_derived(example2_spec(Example2Params(beta=1.0, gamma=2.0)))
        rep = classify_stability(model)
        assert rep.kappa == pytest.approx(4.0, rel=1e-12)
        assert rep.stability_class == "asymptotically_stable"
        # eigenvalue oracle straight from the drift matrix
        assert np.linalg.eigvals(model.A).real.max() < 0

    def test_down_conversion_unstable_despite_positive_kappa(self):
        # beta=4, gamma=1: kappa=1, kappa^2 + det G = 1 - 16 < 0
        model = build_derived(example2_spec(Example2Params(beta=4.0, gamma=1.0)))
        rep = classify_stability(model)
        assert rep.kappa == pytest.approx(1.0, rel=1e-12)
        assert rep.stability_class == "not_asymptotically_stable"
        eigs = np.linalg.eigvals(model.A)
        assert eigs.imag.max() == pytest.approx(0.0, abs=1e-12)
        assert eigs.real.max() > 0  # one growing direction

    def test_analytic_matches_numeric_random(self, rng):
        for _ in range(400):
            model = build_derived(random_spec(rng))
            rep = classify_stability(model)
            diff = np.abs(sorted_eigs(rep.analytic_eigenvalues) - sorted_eigs(np.linalg.eigvals(model.A)))
            assert diff.max() <= 1e-9

    def test_stable_implies_positive_kappa(self, rng):
        for _ in range(400):
            model = build_derived(random_spec(rng))
            rep = classify_stability(model)
            if rep.stability_class == "asymptotically_stable":
                assert model.kappa > 0


class TestTheoremBound:
    def test_nonpositive_kappa_quarter_eta(self):
        spec = SystemSpec(G=np.eye(2), C=np.array([1.0, 0.0]), eta=0.25)
        assert theorem_bound(build_derived(spec)) == pytest.approx(1.0, rel=1e-15)

    def test_positive_kappa(self):
        model = build_derived(example2_spec(Example2Params(beta=1.0, gamma=1.5, eta=0.3)))
        assert theorem_bound(model) == pytest.approx(0.25, rel=1e-15)

    def test_branches_coincide_at_full_efficiency(self):
        m1 = build_derived(example1_spec(Example1Params(eta=1.0)))
        m2 = build_derived(example2_spec(Example2Params(eta=1.0)))
        assert theorem_bound(m1) == theorem_bound(m2) == 0.25

    def test_hbar_scaling(self):
        spec = SystemSpec(G=np.eye(2), C=np.array([1.0, 0.0]), eta=0.5, hbar=2.0)
        assert theorem_bound(build_derived(spec)) == pytest.approx(2.0, rel=1e-15)


class TestVerifyTheorem:
    def test_trapped_particle_tight_at_zero_phase(self):
        rep = verify_theorem(example1_spec(Example1Params(phi=0.0, eta=0.5)))
        assert rep.steady_state_exists
        assert rep.det_V_inf == pytest.approx(0.5, rel=1e-9)
        assert rep.bound == pytest.approx(0.5, rel=1e-15)
        assert abs(rep.margin) <= 1e-9
        assert rep.heisenberg_ok

    def test_trapped_particle_off_phase(self):
        rep = verify_theorem(example1_spec(Example1Params(phi=np.pi / 3, eta=0.5)))
        assert rep.det_V_inf == pytest.approx(1.25, rel=1e-9)
        assert rep.margin == pytest.approx(0.75, rel=1e-8)

    def test_down_conversion_strong_coupling_reaches_floor(self):
        rep = verify_theorem(example2_spec(Example2Params(beta=1e-4, gamma=1.0, eta=0.7)))
        V_prod = rep.det_V_inf  # diagonal steady state: det = product
        assert abs(V_prod - 0.25) <= 1e-3
        assert rep.kappa_class == "positive"

    def test_no_solution_report(self):
        spec = SystemSpec(G=np.eye(2), C=np.array([0.0, 0.0]), eta=1.0)
        rep = verify_theorem(spec)
        assert not rep.steady_state_exists
        assert np.isnan(rep.det_V_inf) and np.isnan(rep.margin)
        assert not rep.heisenberg_ok

    def test_report_serialization(self):
        rep = verify_theorem(example1_spec(Example1Params()))
        d = rep.to_dict()
        assert set(d) == {
            "kappa",
            "kappa_class",
            "stability_class",
            "bound",
            "steady_state_exists",
            "det_V_inf",
            "margin",
            "heisenberg_ok",
            "proof_identity_residual",
        }

    def test_heisenberg_slack_scales_with_hbar(self):
        # At hbar = 1e-34 an absolute slack would pass any det(V_inf).
        hbar = 1e-34
        model = build_derived(example2_spec(Example2Params(hbar=hbar)))

        def report_at(det):
            V = np.sqrt(det) * np.eye(2)
            return theorem_report(model, SteadyState(V, 0.0, "hamiltonian", True))

        assert not report_at(hbar * hbar / 16.0).heisenberg_ok
        assert report_at(hbar * hbar / 4.0).heisenberg_ok

    def test_consistent_with_classify(self, rng):
        for _ in range(50):
            spec = random_spec(rng)
            rep = verify_theorem(spec)
            cls = classify_stability(build_derived(spec))
            assert rep.stability_class == cls.stability_class
            assert rep.kappa == cls.kappa


class TestDetQuotientIdentity:
    def test_trapped_particle_zero_phase(self):
        model = build_derived(example1_spec(Example1Params(phi=0.0, eta=0.5)))
        ss = solve_are(model)
        rep = det_quotient_identity(model, ss.V_inf)
        assert rep.d[0] == pytest.approx(0.0, abs=1e-15)  # d1 = 0 when kappa = 0
        assert rep.quotient_residual <= 1e-9
        assert max(rep.equation_residuals) <= 1e-9
        assert rep.d1_residual <= 1e-12
        assert rep.quotient == pytest.approx(rep.det_V, abs=1e-10)

    def test_down_conversion(self):
        model = build_derived(example2_spec(Example2Params(beta=1.0, gamma=1.0, eta=0.5)))
        ss = solve_are(model)
        rep = det_quotient_identity(model, ss.V_inf)
        assert rep.quotient_residual <= 1e-9
        assert max(rep.equation_residuals) <= 1e-9
        assert rep.d1_residual <= 1e-12

    def test_moderate_random_population(self, rng):
        checked = 0
        for _ in range(200):
            spec = random_spec(rng, span=1.5, eta_min=0.25)
            model = build_derived(spec)
            if np.linalg.norm(model.Cr) < 1e-6:
                continue
            try:
                ss = solve_are(model)
            except NoSteadySolution:
                continue
            # keep to solutions float64 can resolve at 1e-9
            w = np.linalg.eigvalsh(ss.V_inf)
            if w.max() > 50.0 or w.max() / max(w.min(), 1e-30) > 1e4:
                continue
            rep = det_quotient_identity(model, ss.V_inf)
            assert max(rep.equation_residuals) <= 1e-9
            assert rep.quotient_residual <= 1e-9
            assert rep.d1_residual <= 1e-12
            checked += 1
        assert checked >= 100

    def test_degenerate_basis_raises(self):
        # purely imaginary coupling at phi = 0 gives Cr = 0
        spec = SystemSpec(G=np.eye(2), C=np.array([1.0j, 0.0]), phi=0.0, eta=1.0)
        model = build_derived(spec)
        with pytest.raises(DegenerateBasis):
            det_quotient_identity(model, 0.5 * np.eye(2))

    def test_unit_norm_reduction(self):
        # when ||Cr|| = 1 the folded coefficient q equals 4*eta/hbar
        spec = SystemSpec(G=np.eye(2), C=np.array([1.0, 0.5j]), phi=0.0, eta=0.8)
        model = build_derived(spec)
        ss = solve_are(model)
        rep = det_quotient_identity(model, ss.V_inf)
        assert rep.q == pytest.approx(4.0 * 0.8, rel=1e-14)


class TestLemma:
    def test_equality_point(self):
        # v = 2b/a = 1 for a=2, b=1: f = 1/2 equals the bound 4/(4+4)
        assert lemma_f_bound(2.0, 1.0, 1.0)

    def test_large_v(self):
        # f(10) = 100/109 >= 4/5
        assert lemma_f_bound(1.0, 1.0, 10.0)

    def test_outside_domain_vacuous(self):
        assert lemma_f_bound(1.0, 1.0, -5.0)
        assert lemma_f_bound(1.0, 1.0, 0.5)  # 0.25 + 0.5 - 1 < 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            lemma_f_bound(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            lemma_f_bound(1.0, 0.0, 1.0)

    def test_grid_scan(self):
        a, b = 3.0, 0.5
        v_plus = 0.5 * (-a + np.sqrt(a * a + 4 * b))
        for v in v_plus * (1.0 + np.logspace(-6, 4, 10_000)):
            assert lemma_f_bound(a, b, float(v))

    def test_minimum_matches_calculus_oracle(self, rng):
        # numeric minimization of f over the domain agrees with 4b/(4b+a^2)
        for _ in range(25):
            a = 10.0 ** rng.uniform(-1, 1)
            b = 10.0 ** rng.uniform(-1, 1)
            v_plus = 0.5 * (-a + np.sqrt(a * a + 4 * b))

            def f(v):
                return v * v / (v * v + a * v - b)

            res = minimize_scalar(
                f, bounds=(v_plus * (1 + 1e-9), v_plus * (1 + 1e-9) + 100 * (1 + b / a)),
                method="bounded", options={"xatol": 1e-12},
            )
            assert res.fun == pytest.approx(4 * b / (4 * b + a * a), rel=1e-7)
