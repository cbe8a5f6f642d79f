import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from qkalman import (
    Drive,
    SimConfig,
    SystemSpec,
    build_derived,
    innovation_stats,
    integrate_riccati,
    monte_carlo,
    simulate_trajectory,
    solve_are,
)
from qkalman import sim
from qkalman.closedform import Example1Params, Example2Params, example1_spec, example2_spec


#: Dense A, M and noise factor, so that the rounding order of every product shows.
DENSE = SystemSpec(G=np.array([[0.3, -1.1], [-1.1, 0.7]]), C=np.array([0.8 + 0.4j, -0.5 + 1.2j]), phi=0.77, eta=0.6)


def vacuum_flow(spec, t_final, dt):
    model = build_derived(spec)
    return integrate_riccati(model, 0.5 * spec.hbar * np.eye(2), t_final, dt)


class TestSurrogate:
    def test_trapped_particle_zero_phase(self):
        eta, alpha = 0.64, 0.5
        model = build_derived(example1_spec(Example1Params(alpha=alpha, eta=eta, phi=0.0)))
        M, R, S, Q = model.M, model.R, model.S, model.Q
        assert np.allclose(M, 2.0 * np.sqrt(eta) * np.sqrt(2 * alpha) * np.array([1.0, 0.0]))
        assert R == 1.0
        assert np.allclose(S, 0.0)
        assert np.allclose(Q, 2 * alpha * np.diag([0.0, 1.0]))

    def test_down_conversion_cross_covariance(self):
        eta = 0.5
        model = build_derived(example2_spec(Example2Params(gamma=1.0, eta=eta, phi=0.0)))
        M, R, S, Q = model.M, model.R, model.S, model.Q
        # Sigma^T (0, 1)^T = (-1, 0)^T
        assert np.allclose(S, np.sqrt(eta) * np.array([-1.0, 0.0]))
        identity_A = model.A - np.outer(S, M) / R
        assert np.abs(identity_A - model.Aprime).max() <= 1e-12
        identity_D = Q - np.outer(S, S) / R
        assert np.abs(identity_D - model.D).max() <= 1e-12

    def test_zero_coupling(self):
        model = build_derived(SystemSpec(G=np.eye(2), C=np.array([0, 0]), eta=0.5))
        M, R, S, Q = model.M, model.R, model.S, model.Q
        assert np.all(M == 0) and np.all(S == 0) and np.all(Q == 0)
        assert R == 1.0


class TestTrajectory:
    def test_seed_determinism(self):
        spec = example1_spec(Example1Params(eta=1.0, phi=0.0))
        cfg = SimConfig(dt=1e-3, t_final=1.0, seed=42)
        flow = vacuum_flow(spec, cfg.t_final, cfg.dt)
        a = simulate_trajectory(spec, cfg, flow)
        b = simulate_trajectory(spec, cfg, flow)
        for field in ("times", "x_true", "x_hat", "err", "dy", "innovations"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field

    def test_reconstruction_and_innovation_definitions(self):
        spec = example2_spec(Example2Params(beta=1.0, gamma=1.0, eta=0.5))
        cfg = SimConfig(dt=1e-3, t_final=1.0, seed=5)
        flow = vacuum_flow(spec, cfg.t_final, cfg.dt)
        traj = simulate_trajectory(spec, cfg, flow)
        model = build_derived(spec)
        assert np.array_equal(traj.x_true, traj.x_hat + traj.err)
        # innovations == (dy - M x_hat dt) / sqrt(R dt) by definition
        n = len(traj.dy)
        recon = (traj.dy - (traj.x_hat[:n] @ model.M) * cfg.dt) / np.sqrt(model.R * cfg.dt)
        assert np.abs(recon - traj.innovations).max() <= 1e-10

    def test_zero_noise_matches_matrix_exponential_oracles(self):
        spec = example1_spec(Example1Params(eta=1.0, phi=0.0))
        dt, t_final = 5e-6, 0.1
        cfg = SimConfig(dt=dt, t_final=t_final, seed=0)
        model = build_derived(spec)
        flow = vacuum_flow(spec, t_final, dt)
        e0 = np.array([0.3, -0.2])
        traj = simulate_trajectory(spec, cfg, flow, e0=e0, zero_noise=True)
        # truth follows dx/dt = A x exactly (x_hat starts at 0 so x = err ... )
        # here x_hat(0) = 0 and e(0) = e0, so x(0) = e0
        x_exact = expm(model.A * t_final) @ e0
        assert np.abs(traj.x_true[-1] - x_exact).max() <= 1e-6
        # error follows de/dt = (A - K_t M) e; piecewise-constant-exponential oracle
        n = cfg.n_steps
        K = np.sqrt(model.eta) * ((2 / model.hbar) * flow.values[:n] @ model.Cr + model.Sigma.T @ model.Ci)
        e = e0.copy()
        stride = 100
        prop = np.eye(2)
        for k in range(n):
            prop = expm((model.A - np.outer(K[k], model.M)) * dt) @ prop
            if (k + 1) % stride == 0:
                e = prop @ e  # flush accumulated propagator to limit matmul count
                prop = np.eye(2)
        e = prop @ e
        assert np.abs(traj.err[-1] - e).max() <= 1e-6
        assert traj.zero_noise

    def test_drive_invariance_exact(self):
        spec = example1_spec(Example1Params(eta=1.0, phi=0.0))
        dt, t_final, seed = 1e-3, 2.0, 7
        flow = vacuum_flow(spec, t_final, dt)
        undriven = simulate_trajectory(spec, SimConfig(dt=dt, t_final=t_final, seed=seed), flow)
        drive = Drive(B=np.array([0.0, 1.0]), kind="sine", amplitude=1.0, frequency=1.0)
        driven = simulate_trajectory(
            spec, SimConfig(dt=dt, t_final=t_final, seed=seed, drive=drive), flow
        )
        assert np.array_equal(undriven.err, driven.err)
        assert np.array_equal(undriven.innovations, driven.innovations)
        assert np.abs(driven.x_hat - undriven.x_hat).max() > 0.01

    def test_constant_drive_waveform(self):
        d = Drive(B=np.array([1.0, 0.0]), kind="constant", amplitude=2.5)
        assert np.all(d.u(np.linspace(0, 1, 5)) == 2.5)

    def test_flow_grid_mismatch_rejected(self):
        spec = example1_spec(Example1Params())
        flow = vacuum_flow(spec, 1.0, 1e-3)
        with pytest.raises(ValueError):
            simulate_trajectory(spec, SimConfig(dt=1e-3, t_final=2.0, seed=0), flow)
        with pytest.raises(ValueError):
            simulate_trajectory(spec, SimConfig(dt=2e-3, t_final=1.0, seed=0), flow)

    def test_csv_export(self, tmp_path):
        spec = example1_spec(Example1Params())
        cfg = SimConfig(dt=1e-2, t_final=0.1, seed=3)
        flow = vacuum_flow(spec, cfg.t_final, cfg.dt)
        traj = simulate_trajectory(spec, cfg, flow)
        path = tmp_path / "traj.csv"
        traj.write_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,q_true,p_true,q_hat,p_hat,dy,innov"
        assert len(lines) == cfg.n_steps + 2
        last = lines[-1].split(",")
        assert last[-1] == "nan" and last[-2] == "nan"
        # 17-significant-digit round trip
        assert float(lines[1].split(",")[1]) == traj.x_true[0, 0]


class TestInnovationStats:
    def test_matched_filter_whiteness(self):
        spec = example1_spec(Example1Params(eta=1.0, phi=0.0))
        cfg = SimConfig(dt=1e-2, t_final=50.0, seed=11)
        flow = vacuum_flow(spec, cfg.t_final, cfg.dt)
        traj = simulate_trajectory(spec, cfg, flow)
        mean, var = innovation_stats(traj)
        n = len(traj.innovations)
        assert abs(mean) <= 4.0 / np.sqrt(n)
        assert abs(var - 1.0) <= 5.0 / np.sqrt(n)

    def test_zero_gain_filter_fails_whiteness(self):
        spec = example1_spec(Example1Params(eta=1.0, phi=0.0))
        cfg = SimConfig(dt=1e-2, t_final=50.0, seed=11)
        flow = vacuum_flow(spec, cfg.t_final, cfg.dt)
        traj = simulate_trajectory(spec, cfg, flow, gain_override=np.zeros(2))
        mean, var = innovation_stats(traj)
        n = len(traj.innovations)
        assert abs(var - 1.0) > 5.0 / np.sqrt(n)

    def test_zero_noise_not_applicable(self):
        spec = example1_spec(Example1Params())
        cfg = SimConfig(dt=1e-3, t_final=2.0, seed=0)
        flow = vacuum_flow(spec, cfg.t_final, cfg.dt)
        traj = simulate_trajectory(spec, cfg, flow, zero_noise=True)
        with pytest.raises(ValueError, match="not applicable"):
            innovation_stats(traj)

    def test_short_trajectory_rejected(self):
        spec = example1_spec(Example1Params())
        cfg = SimConfig(dt=1e-2, t_final=1.0, seed=0)
        flow = vacuum_flow(spec, cfg.t_final, cfg.dt)
        traj = simulate_trajectory(spec, cfg, flow)
        with pytest.raises(ValueError, match="too short"):
            innovation_stats(traj)


class TestMonteCarlo:
    def test_insufficient_ensemble(self):
        spec = example1_spec(Example1Params())
        with pytest.raises(ValueError, match="insufficient ensemble"):
            monte_carlo(spec, SimConfig(dt=1e-3, t_final=1.0, seed=0, ensemble=1))

    def test_error_covariance_tracks_flow(self):
        spec = example2_spec(Example2Params(beta=1.0, gamma=1.0, eta=0.5))
        cfg = SimConfig(dt=1e-3, t_final=2.0, seed=2024, ensemble=400)
        stats = monte_carlo(spec, cfg)
        for j in range(len(stats.checkpoint_times)):
            ref = stats.riccati_values[j]
            tol = np.maximum(0.05 * np.abs(ref), 3.0 * stats.standard_errors[j])
            assert np.all(np.abs(stats.sample_error_cov[j] - ref) <= tol)

    def test_final_checkpoint_reaches_steady_state(self):
        spec = example2_spec(Example2Params(beta=1.0, gamma=1.0, eta=0.5))
        cfg = SimConfig(dt=1e-3, t_final=6.0, seed=99, ensemble=300)
        stats = monte_carlo(spec, cfg)
        V_inf = solve_are(build_derived(spec)).V_inf
        assert np.abs(stats.riccati_values[-1] - V_inf).max() <= 1e-6
        tol = np.maximum(0.05 * np.abs(V_inf), 3.0 * stats.standard_errors[-1])
        assert np.all(np.abs(stats.sample_error_cov[-1] - V_inf) <= tol)

    def test_block_and_chunk_constants(self, monkeypatch):
        spec = DENSE
        cfg = SimConfig(dt=1e-2, t_final=1.0, seed=5, ensemble=64)
        flow = vacuum_flow(spec, cfg.t_final, cfg.dt)

        def stats(name, value):
            monkeypatch.setattr(sim, name, value)
            s = monte_carlo(spec, cfg, flow)
            return s.sample_error_cov, s.standard_errors, s.innovation_mean, s.innovation_var

        whole = stats("_TIME_BLOCK", cfg.n_steps + 50)
        for block in (1, 7, cfg.n_steps):
            for a, b in zip(stats("_TIME_BLOCK", block), whole):
                assert np.array_equal(a, b), block
        a = stats("_MEMBER_CHUNK", 64)
        b = stats("_MEMBER_CHUNK", 7)
        assert np.allclose(a[0], b[0], rtol=0, atol=1e-12)
        assert a[3] == pytest.approx(b[3], abs=1e-12)

    def test_memory_independent_of_horizon(self):
        spec = example2_spec(Example2Params(beta=1.0, gamma=1.0, eta=0.5))

        def peak(t_final):
            cfg = SimConfig(dt=1e-3, t_final=t_final, seed=1, ensemble=50)
            flow = vacuum_flow(spec, t_final, cfg.dt)
            tracemalloc.start()
            try:
                monte_carlo(spec, cfg, flow)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(40.0) < 2 * peak(4.0)

    def test_noise_buffers_allocated_once_per_stack(self, monkeypatch):
        # one draw buffer and one increment buffer per stack, reused block
        # to block; fresh arrays per block peaked at about 4.3 blocks here
        monkeypatch.setattr(sim, "_MEMBER_CHUNK", 200)
        monkeypatch.setattr(sim, "_TIME_BLOCK", 256)
        spec = example2_spec(Example2Params(beta=1.0, gamma=1.0, eta=0.5))
        cfg = SimConfig(dt=1e-3, t_final=1.024, seed=1, ensemble=400)
        flow = vacuum_flow(spec, cfg.t_final, cfg.dt)
        tracemalloc.start()
        try:
            monte_carlo(spec, cfg, flow)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = (256 + 1) * 200 * 3 * 8  # bytes of one (block, stack, 3) buffer
        assert peak < 3.5 * block

    def test_member_zero_matches_single_trajectory(self):
        spec = DENSE
        cfg = SimConfig(dt=1e-3, t_final=2.5, seed=31)
        flow = vacuum_flow(spec, cfg.t_final, cfg.dt)
        model = build_derived(spec)
        n, dt = cfg.n_steps, cfg.dt
        assert n > 2 * sim._TIME_BLOCK
        # reference: the recursion written out with 1-D arrays and one
        # whole-path noise draw, independent of the streaming kernel
        K = sim._gains(model, flow, n)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
        e = sim._psd_factor(flow.values[0], "initial covariance") @ rng.standard_normal(2)
        W = rng.standard_normal((n, 3)) @ sim._joint_noise_factor(model).T * np.sqrt(dt)
        err, innov = [e], []
        for k in range(n):
            dw, dv = W[k, :2], W[k, 2]
            nu = (model.M @ e) * dt + dv
            innov.append(nu / np.sqrt(model.R * dt))
            e = e + (model.A @ e) * dt + dw - K[k] * nu
            err.append(e)
        traj = simulate_trajectory(spec, cfg, flow)
        assert np.array_equal(traj.err, np.array(err))
        assert np.array_equal(traj.innovations, np.array(innov))

    @pytest.mark.parametrize("dense", [False, True])
    def test_stacked_members_match_single_runs(self, dense):
        # Each row of the trapped particle's A and M has a zero, so every
        # product in the recursion is exact and member i of a stack equals the
        # lone run on substream i bit for bit. With dense A and M, numpy's
        # one-row products (gemv, dot) and many-row products (gemm) round
        # differently, and the two agree to rounding.
        spec = DENSE if dense else example1_spec(Example1Params(eta=1.0))
        cfg = SimConfig(dt=1e-3, t_final=2.5, seed=31, ensemble=3)
        flow = vacuum_flow(spec, cfg.t_final, cfg.dt)
        model = build_derived(spec)
        n, dt = cfg.n_steps, cfg.dt
        K = sim._gains(model, flow, n)
        children = np.random.SeedSequence(cfg.seed).spawn(cfg.ensemble)

        def run(e, members):
            rngs = [np.random.default_rng(children[i]) for i in members]
            for r in rngs:
                r.standard_normal(2)  # the initial-error draw
            steps = list(sim._error_steps(model, K, e, rngs, dt))
            return np.array([s[1] for s in steps]), np.array([s[2] for s in steps])

        e0 = np.random.default_rng(0).standard_normal((cfg.ensemble, 2))
        stack_err, stack_nu = run(e0, range(cfg.ensemble))
        for i in range(cfg.ensemble):
            err, nu = run(e0[i], [i])
            if not dense:
                assert np.array_equal(stack_err[:, i], err)
                assert np.array_equal(stack_nu[:, i], nu)
            else:
                assert np.abs(stack_err[:, i] - err).max() <= 1e-12 * np.abs(err).max()
                assert np.abs(stack_nu[:, i] - nu).max() <= 1e-12 * np.abs(nu).max()

    def test_drive_does_not_change_error_statistics(self):
        spec = example1_spec(Example1Params(eta=1.0))
        drive = Drive(B=np.array([0.0, 1.0]), kind="sine", amplitude=2.0, frequency=3.0)
        cfg0 = SimConfig(dt=1e-2, t_final=1.0, seed=8, ensemble=50)
        cfg1 = SimConfig(dt=1e-2, t_final=1.0, seed=8, ensemble=50, drive=drive)
        a = monte_carlo(spec, cfg0)
        b = monte_carlo(spec, cfg1)
        assert np.array_equal(a.sample_error_cov, b.sample_error_cov)

    def test_stats_serialization(self):
        spec = example1_spec(Example1Params())
        cfg = SimConfig(dt=1e-2, t_final=1.0, seed=1, ensemble=16)
        d = monte_carlo(spec, cfg).to_dict()
        assert set(d) == {
            "checkpoint_times",
            "sample_error_cov",
            "standard_errors",
            "riccati_values",
            "ensemble",
            "innovation_mean",
            "innovation_var",
        }
        assert len(d["checkpoint_times"]) == 3


class TestFilterStability:
    def test_gain_converges_and_closed_loop_hurwitz(self):
        spec = example2_spec(Example2Params(beta=1.0, gamma=1.0, eta=0.5))
        model = build_derived(spec)
        ss = solve_are(model)
        flow = vacuum_flow(spec, 8.0, 1e-3)
        K = np.sqrt(model.eta) * ((2 / model.hbar) * flow.values @ model.Cr + model.Sigma.T @ model.Ci)
        K_inf = np.sqrt(model.eta) * ((2 / model.hbar) * ss.V_inf @ model.Cr + model.Sigma.T @ model.Ci)
        drift = np.abs(K - K_inf).max(axis=1)
        assert drift[-1] <= 1e-6
        assert drift[-1] <= drift[len(drift) // 2] <= drift[0]
        assert ss.closed_loop_stable
        closed = model.A - np.outer(K_inf, model.M)
        assert np.linalg.eigvals(closed).real.max() < 0


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0, t_final=1.0, seed=0)
        with pytest.raises(ValueError):
            SimConfig(dt=2.0, t_final=1.0, seed=0)
        with pytest.raises(ValueError):
            SimConfig(dt=0.1, t_final=1.0, seed=0, ensemble=0)
