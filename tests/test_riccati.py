import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, solve_continuous_are

from qkalman import (
    ExistenceProbe,
    NoSteadySolution,
    RiccatiDivergence,
    RiccatiFlow,
    SteadyState,
    SystemSpec,
    are_existence_probe,
    build_derived,
    integrate_riccati,
    riccati_rhs,
    solve_are,
)
from qkalman.acceptance import POPULATION_SEED, _mp_matrix, _mp_refine
from qkalman.closedform import (
    Example1Params,
    Example2Params,
    example1_det,
    example1_spec,
    example2_spec,
)

from conftest import random_spec


def scipy_are_oracle(model):
    """Independent steady-state oracle via scipy's ARE solver."""
    return solve_continuous_are(
        model.Aprime.T,
        model.Cr.reshape(2, 1),
        model.D,
        np.array([[model.hbar / (4.0 * model.eta)]]),
    )


class TestRhs:
    def test_all_coefficients_vanish(self):
        spec = SystemSpec(G=np.zeros((2, 2)), C=np.array([0, 0]), eta=1.0)
        model = build_derived(spec)
        V = np.array([[1.3, 0.2], [0.2, 0.9]])
        assert np.all(riccati_rhs(model, V) == 0)

    def test_example1_vacuum_exact_value(self):
        # Exact-arithmetic oracle: with G = I, C = (1, 0), eta = hbar = 1 and
        # V = I/2, the linear terms cancel, the diffusion is diag(0, 1) and
        # the quadratic term is 4 * (1/2 e1)(e1^T /2) = diag(1, 0).
        from fractions import Fraction as F

        Sig = [[F(0), F(1)], [F(-1), F(0)]]
        G = [[F(1), F(0)], [F(0), F(1)]]
        Cr = [F(1), F(0)]

        def matmul(X, Y):
            return [[sum(X[i][k] * Y[k][j] for k in range(2)) for j in range(2)] for i in range(2)]

        def T(X):
            return [[X[j][i] for j in range(2)] for i in range(2)]

        Ap = matmul(Sig, G)
        V = [[F(1, 2), F(0)], [F(0), F(1, 2)]]
        CrCr = [[Cr[i] * Cr[j] for j in range(2)] for i in range(2)]
        D = matmul(matmul(T(Sig), CrCr), Sig)
        lin = [[matmul(Ap, V)[i][j] + matmul(V, T(Ap))[i][j] for j in range(2)] for i in range(2)]
        quad = matmul(matmul(V, CrCr), V)
        expected = [[lin[i][j] + D[i][j] - 4 * quad[i][j] for j in range(2)] for i in range(2)]
        assert expected == [[F(-1), F(0)], [F(0), F(1)]]

        model = build_derived(example1_spec(Example1Params(m=1, omega=1, alpha=0.5, eta=1)))
        rhs = riccati_rhs(model, 0.5 * np.eye(2))
        assert np.allclose(rhs, [[-1.0, 0.0], [0.0, 1.0]], atol=1e-14)

    def test_vanishes_at_steady_state(self, rng):
        for _ in range(20):
            model = build_derived(random_spec(rng, span=1.5, eta_min=0.2))
            try:
                ss = solve_are(model)
            except NoSteadySolution:
                continue
            scale = 1.0 + float((ss.V_inf**2).sum())
            assert np.linalg.norm(riccati_rhs(model, ss.V_inf), 2) <= 1e-9 * scale

    def test_output_is_symmetric(self, rng):
        model = build_derived(random_spec(rng))
        V = np.array([[1.0, 0.3], [0.3, 2.0]])
        out = riccati_rhs(model, V)
        assert np.array_equal(out, out.T)


class TestIntegrate:
    def test_example1_det_converges_to_closed_form(self):
        p = Example1Params(m=1, omega=1, alpha=0.5, phi=0.0, eta=1.0)
        model = build_derived(example1_spec(p))
        flow = integrate_riccati(model, 0.5 * np.eye(2), t_final=50.0, dt=1e-3)
        assert abs(np.linalg.det(flow.values[-1]) - 0.25) <= 1e-6

    def test_det_formula_off_axis_parameters(self):
        p = Example1Params(m=0.8, omega=1.3, alpha=1.1, phi=0.4, eta=0.5)
        model = build_derived(example1_spec(p))
        flow = integrate_riccati(model, 0.5 * np.eye(2), t_final=60.0, dt=1e-3)
        assert np.linalg.det(flow.values[-1]) == pytest.approx(example1_det(p), rel=1e-6)

    def test_zero_horizon_returns_initial_only(self):
        model = build_derived(example1_spec(Example1Params()))
        V0 = 0.5 * np.eye(2)
        flow = integrate_riccati(model, V0, t_final=0.0, dt=1e-3)
        assert len(flow) == 1 and np.array_equal(flow.values[0], V0)

    def test_zero_coupling_preserves_det(self):
        # No measurement, pure rotation generator: det(V_t) is conserved.
        spec = SystemSpec(G=np.eye(2), C=np.array([0, 0]), eta=1.0)
        model = build_derived(spec)
        for V0 in (0.5 * np.eye(2), np.diag([1.0, 0.5])):
            flow = integrate_riccati(model, V0, t_final=10.0, dt=1e-3)
            dets = np.linalg.det(flow.values)
            assert np.abs(dets - np.linalg.det(V0)).max() <= 1e-9

    def test_divergence_reported(self):
        # Unstable drift, no measurement: covariance grows exponentially.
        spec = SystemSpec(G=np.diag([2.0, -2.0]), C=np.array([0, 0]), eta=1.0)
        model = build_derived(spec)
        with pytest.raises(RiccatiDivergence) as err:
            integrate_riccati(model, 0.5 * np.eye(2), t_final=40.0, dt=1e-3)
        assert err.value.t > 0
        assert len(err.value.flow) >= 2

    def test_bad_arguments(self):
        model = build_derived(example1_spec(Example1Params()))
        with pytest.raises(ValueError):
            integrate_riccati(model, 0.5 * np.eye(2), t_final=1.0, dt=0.0)
        with pytest.raises(ValueError):
            integrate_riccati(model, 0.5 * np.eye(2), t_final=-1.0, dt=1e-3)

    def test_flow_matches_expm_oracle_for_every_step(self):
        # Radon's lemma: V(t) = (Phi21 + Phi22 V0)(Phi11 + Phi12 V0)^-1 with
        # Phi = exp(M t); the step map is exact, so dt changes only rounding.
        model = build_derived(example2_spec(Example2Params(beta=1.0, gamma=1.0, eta=0.5)))
        V0 = 0.5 * np.eye(2)
        N = model.quadratic_coefficient()
        Phi = expm(2.0 * np.block([[-model.Aprime.T, N], [model.D, model.Aprime]]))
        ref = (Phi[2:, :2] + Phi[2:, 2:] @ V0) @ np.linalg.inv(Phi[:2, :2] + Phi[:2, 2:] @ V0)
        ends = [
            integrate_riccati(model, V0, t_final=2.0, dt=dt).values[-1]
            for dt in (8e-3, 4e-3, 2e-3)
        ]
        scale = np.abs(ref).max()
        assert np.abs(ends[0] - ref).max() <= 1e-12 * scale
        for end in ends[1:]:
            assert np.abs(end - ends[0]).max() <= 1e-12 * scale

    def test_long_horizon_endpoint_insensitive_to_dt(self):
        model = build_derived(example1_spec(Example1Params()))
        V0 = 0.5 * np.eye(2)
        a = integrate_riccati(model, V0, t_final=50.0, dt=2e-3).values[-1]
        b = integrate_riccati(model, V0, t_final=50.0, dt=1e-3).values[-1]
        assert np.abs(a - b).max() <= 1e-10

    def test_flow_physicality_on_random_population(self, rng):
        # Starting from the vacuum, the flow keeps det >= hbar^2/4 and V >= 0
        # until it leaves the 1e10 box (parked there; no longer checked).
        def parked_flow(model):
            try:
                values = integrate_riccati(model, 0.5 * np.eye(2), t_final=10.0, dt=2e-3).values
                diverged = False
            except RiccatiDivergence as exc:
                values, diverged = exc.flow.values, True
            inside = np.isfinite(values).all(axis=(1, 2)) & (np.abs(values).max(axis=(1, 2)) < 1e10)
            cut = len(values) if inside.all() else int(np.argmin(inside))
            return values[:cut], cut < len(values), diverged

        n = 200
        alive = 0
        for _ in range(n):
            Vs, parked, _ = parked_flow(build_derived(random_spec(rng)))
            alive += not parked
            assert np.linalg.det(Vs).min() >= 0.25 - 1e-9
            assert np.linalg.eigvalsh(Vs)[:, 0].min() >= -1e-9
        assert alive >= n // 2

        # Unobserved unstable modes: these flows grow like exp(4t) and park.
        # Near |V| ~ 1e10, float64 resolves det(V) and the small eigenvalue
        # only to rounding relative to max|V|.
        eps = np.finfo(float).eps
        diverged = 0
        for C, eta in (((0, 0), 1.0), ((1j, 0), 0.5)):
            model = build_derived(SystemSpec(G=np.diag([2.0, -2.0]), C=np.array(C), eta=eta))
            Vs, parked, div = parked_flow(model)
            assert parked
            diverged += div
            big = np.abs(Vs).max(axis=(1, 2))
            assert np.all(np.linalg.det(Vs) >= 0.25 - 1e-9 - 64 * eps * big**2)
            assert np.all(np.linalg.eigvalsh(Vs)[:, 0] >= -1e-9 - 64 * eps * big)
        assert diverged >= 1


class TestSolveAre:
    def test_example2_diagonal_steady_state(self):
        model = build_derived(example2_spec(Example2Params(beta=1.0, gamma=1.0, phi=0.0, eta=1.0)))
        ss = solve_are(model)
        assert abs(ss.V_inf[0, 1]) <= 1e-9
        assert ss.V_inf[0, 0] * ss.V_inf[1, 1] == pytest.approx(0.25, rel=1e-10)
        # closed form for this point: diag(1, 1/4)
        assert np.allclose(ss.V_inf, np.diag([1.0, 0.25]), atol=1e-10)

    def test_example1_product_and_det(self):
        model = build_derived(example1_spec(Example1Params(m=1, omega=1, alpha=0.5, eta=1.0)))
        ss = solve_are(model)
        assert np.linalg.det(ss.V_inf) == pytest.approx(0.25, rel=1e-10)
        # steady covariance of this canonical point, frozen from the
        # flow-limit oracle (and matching the hand ARE solution
        # v12 = (sqrt(5)-1)/4, v11 = sqrt(v12/2), v22 = v11 (1 + 4 v12))
        v12 = (np.sqrt(5.0) - 1.0) / 4.0
        v11 = np.sqrt(v12 / 2.0)
        v22 = v11 * (1.0 + 4.0 * v12)
        assert np.allclose(ss.V_inf, [[v11, v12], [v12, v22]], rtol=1e-10)

    def test_hamiltonian_matches_long_flow(self):
        p = Example1Params(m=1, omega=1, alpha=0.5, eta=1.0)
        model = build_derived(example1_spec(p))
        flow = integrate_riccati(model, 0.5 * np.eye(2), t_final=60.0, dt=1e-3)
        ss = solve_are(model, method="hamiltonian")
        assert np.abs(ss.V_inf - flow.values[-1]).max() <= 1e-8

    def test_methods_agree_on_random_specs(self, rng):
        checked = 0
        for _ in range(60):
            model = build_derived(random_spec(rng))
            try:
                ham = solve_are(model, method="hamiltonian")
                ode = solve_are(model, method="ode")
            except NoSteadySolution:
                continue
            rel = np.abs(ham.V_inf - ode.V_inf).max() / (1.0 + np.abs(ham.V_inf).max())
            assert rel <= 1e-8
            checked += 1
        assert checked >= 30

    def test_against_scipy_oracle(self, rng):
        for _ in range(30):
            model = build_derived(random_spec(rng, span=1.5, eta_min=0.2))
            try:
                ss = solve_are(model)
            except NoSteadySolution:
                continue
            ref = scipy_are_oracle(model)
            assert np.abs(ss.V_inf - ref).max() <= 1e-7 * (1.0 + np.abs(ref).max())

    def test_steady_state_contract(self, rng):
        for _ in range(40):
            model = build_derived(random_spec(rng))
            try:
                ss = solve_are(model)
            except NoSteadySolution:
                continue
            assert ss.closed_loop_stable
            assert ss.residual <= 1e-9 * (1.0 + float((ss.V_inf**2).sum()))
            assert np.array_equal(ss.V_inf, ss.V_inf.T)
            assert np.linalg.eigvalsh(ss.V_inf).min() >= -1e-9 * (1 + np.abs(ss.V_inf).max())

    def test_ode_route_matches_60_digit_reference(self):
        # Six ill-conditioned draws of the acceptance distribution (|V_inf|
        # 5e5 to 4e7) and acceptance spec 741 (|V_inf| ~ 8e8), against Newton
        # on the same float64 model at 60 digits.
        rng = np.random.default_rng([474395620, 1099])
        defect_draws = [random_spec(rng) for _ in range(2441)]
        rng = np.random.default_rng(POPULATION_SEED)
        population = [random_spec(rng) for _ in range(742)]
        specs = [defect_draws[i] for i in (80, 251, 583, 1012, 2231, 2440)] + [population[741]]
        for spec in specs:
            model = build_derived(spec)
            V = solve_are(model, method="ode").V_inf
            with mp.workdps(60):
                A_, D_, N_ = (_mp_matrix(x, mp) for x in (model.Aprime, model.D, model.quadratic_coefficient()))
                ref = _mp_refine(mp, A_, D_, N_, _mp_matrix(V, mp))
                ref = np.array([[float(ref[i, j]) for j in range(2)] for i in range(2)])
            assert np.abs(V - ref).max() <= 1e-8 * (1.0 + np.abs(ref).max())

    @pytest.mark.filterwarnings("error")
    def test_no_measurement_raises(self):
        # zero coupling, a zero generator, and an unobserved unstable mode
        for G, C, eta in (
            (np.eye(2), (0, 0), 1.0),
            (np.zeros((2, 2)), (0, 0), 1.0),
            (np.diag([2.0, -2.0]), (1j, 0), 0.5),
        ):
            model = build_derived(SystemSpec(G=G, C=np.array(C), eta=eta))
            for method in ("hamiltonian", "ode"):
                with pytest.raises(NoSteadySolution):
                    solve_are(model, method=method)

    def test_unknown_method_rejected(self):
        model = build_derived(example1_spec(Example1Params()))
        with pytest.raises(ValueError):
            solve_are(model, method="magic")


_PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def _solve_or_none(model, method):
    try:
        return solve_are(model, method=method).V_inf
    except NoSteadySolution:
        return None


class TestInvariance:
    @_PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), u=st.floats(-34.0, 3.0))
    def test_v_inf_proportional_to_hbar(self, seed, u):
        spec = random_spec(np.random.default_rng(seed))
        hbar = 10.0**u
        scaled = SystemSpec(G=spec.G, C=spec.C, phi=spec.phi, eta=spec.eta, hbar=hbar)
        for method in ("hamiltonian", "ode"):
            base = _solve_or_none(build_derived(spec), method)
            assume(base is not None)
            V = solve_are(build_derived(scaled), method=method).V_inf / hbar
            assert np.abs(V - base).max() <= 1e-9 * (1.0 + np.abs(base).max())

    @_PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), j=st.integers(-8, 6))
    def test_ode_route_bitwise_invariant_under_time_rescaling(self, seed, j):
        # G -> s G, C -> sqrt(s) C with s = 4^j scales A', D and N by s, a
        # power of two, which leaves every operation of the route exact.
        spec = random_spec(np.random.default_rng(seed))
        base = _solve_or_none(build_derived(spec), "ode")
        assume(base is not None)
        rescaled = SystemSpec(G=4.0**j * spec.G, C=2.0**j * spec.C, phi=spec.phi, eta=spec.eta)
        assert np.array_equal(solve_are(build_derived(rescaled), method="ode").V_inf, base)


class TestExistenceProbe:
    def test_example2_exists(self):
        probe = are_existence_probe(build_derived(example2_spec(Example2Params(beta=1.0, gamma=1.0))))
        assert probe.exists
        assert probe.axis_distance > 1e-9

    def test_zero_coupling_marginal(self):
        spec = SystemSpec(G=np.eye(2), C=np.array([0, 0]), eta=1.0)
        probe = are_existence_probe(build_derived(spec))
        assert not probe.exists
        # Hamiltonian spectrum is {+-i} twice for this marginal system
        assert probe.axis_distance <= 1e-9
        assert np.allclose(np.sort(np.abs(probe.hamiltonian_eigenvalues.imag)), [1, 1, 1, 1], atol=1e-9)

    def test_example1_parameter_grid_exists(self):
        for m in (0.5, 2.0):
            for omega in (0.5, 2.0):
                for alpha in (0.5, 2.0):
                    for eta in (0.25, 1.0):
                        for phi in (0.0, 1.0):
                            p = Example1Params(m=m, omega=omega, alpha=alpha, phi=phi, eta=eta)
                            probe = are_existence_probe(build_derived(example1_spec(p)))
                            assert probe.exists, p

    def test_view_reads_route_of_solve_result(self):
        model = build_derived(example2_spec(Example2Params(beta=1.0, gamma=1.0)))
        steady = solve_are(model)
        assert ExistenceProbe.of(model, steady).detail == "stable-subspace solution accepted"
        fallback = SteadyState(steady.V_inf, steady.residual, "ode_limit", True)
        assert "subspace route failed" in ExistenceProbe.of(model, fallback).detail
        missing = ExistenceProbe.of(model, None)
        assert not missing.exists
        probe = are_existence_probe(model)
        assert np.array_equal(missing.hamiltonian_eigenvalues, probe.hamiltonian_eigenvalues)

    def test_consistent_with_solver(self, rng):
        for _ in range(25):
            model = build_derived(random_spec(rng))
            probe = are_existence_probe(model)
            try:
                solve_are(model)
                solved = True
            except NoSteadySolution:
                solved = False
            assert probe.exists == solved


class TestRiccatiFlowType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RiccatiFlow(times=np.arange(3.0), values=np.zeros((2, 2, 2)))
