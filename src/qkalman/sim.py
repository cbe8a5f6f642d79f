"""Stochastic simulation of the monitored mode and its optimal filter.

The conditional dynamics of the monitored Gaussian mode is statistically
equivalent to a classical state-space model with correlated process and
measurement noise (the surrogate (M, R, S, Q) from :mod:`qkalman.model`,
pinned by the identities A' = A - S R^-1 M and D = Q - S R^-1 S^T). This
module Euler-Maruyama-integrates that surrogate together with the filter
mean, using the precomputed covariance flow for the time-varying gain
K_t = sqrt(eta) * ((2/hbar) V_t Cr + Sigma^T Ci).

Internally the truth/filter pair is propagated as (estimate, error): the
error recursion contains no drive term, so error sequences are exactly
(bitwise) invariant under any open-loop drive, and the true state is
reconstructed as estimate + error. One streaming kernel advances the error
of a single trajectory and of a stack of ensemble members alike; it draws
noise in time blocks, so memory is O(chunk * block) whatever the horizon.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Any, Iterator, Literal

import numpy as np

from .model import DerivedModel, SystemSpec, build_derived
from .riccati import RiccatiFlow, integrate_riccati

__all__ = [
    "Drive",
    "SimConfig",
    "Trajectory",
    "EnsembleStats",
    "simulate_trajectory",
    "monte_carlo",
    "innovation_stats",
]

_MEMBER_CHUNK, _TIME_BLOCK = 500, 1024  # trajectories per stack, noise steps per draw


@dataclass(frozen=True)
class Drive:
    """Open-loop drive: the mode and the filter both receive B*u(t)*dt.

    ``kind`` selects u(t): "none" (u = 0), "constant" (u = amplitude) or
    "sine" (u = amplitude * sin(frequency * t)).
    """

    B: np.ndarray = field(default_factory=lambda: np.zeros(2))
    kind: Literal["none", "constant", "sine"] = "none"
    amplitude: float = 0.0
    frequency: float = 1.0

    def u(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "none":
            return np.zeros_like(t)
        if self.kind == "constant":
            return np.full_like(t, self.amplitude)
        if self.kind == "sine":
            return self.amplitude * np.sin(self.frequency * t)
        raise ValueError(f"unknown drive kind {self.kind!r}")


@dataclass(frozen=True)
class SimConfig:
    """Simulation grid, seeding and optional drive.

    ``seed`` is a 64-bit master seed; trajectory i draws from the i-th
    spawned substream, so results do not depend on how trajectories are
    batched or parallelized.
    """

    dt: float
    t_final: float
    seed: int
    ensemble: int = 1
    drive: Drive | None = None

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.dt > self.t_final:
            raise ValueError("dt must not exceed t_final")
        if self.ensemble < 1:
            raise ValueError("ensemble must be >= 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass(frozen=True)
class Trajectory:
    """One simulated run.

    ``x_true``/``x_hat``/``err`` are (n+1, 2) state sequences with
    ``x_true = x_hat + err`` (``err`` is the propagated error, the quantity
    that is exactly drive-invariant); ``dy`` and ``innovations`` are the n
    output increments and normalized innovation increments
    (dy - M x_hat dt)/sqrt(R dt) over [t_k, t_k + dt).
    """

    times: np.ndarray
    x_true: np.ndarray
    x_hat: np.ndarray
    err: np.ndarray
    dy: np.ndarray
    innovations: np.ndarray
    zero_noise: bool = False

    def write_csv(self, path: str) -> None:
        """Write ``t,q_true,p_true,q_hat,p_hat,dy,innov`` rows at 17 sig digits.

        The last row carries the final state with NaN increments (increments
        belong to the preceding interval).
        """
        n = len(self.dy)
        dy = np.append(self.dy, np.nan)
        innov = np.append(self.innovations, np.nan)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "q_true", "p_true", "q_hat", "p_hat", "dy", "innov"])
            for k in range(n + 1):
                w.writerow(
                    [
                        f"{x:.17g}"
                        for x in (
                            self.times[k],
                            self.x_true[k, 0],
                            self.x_true[k, 1],
                            self.x_hat[k, 0],
                            self.x_hat[k, 1],
                            dy[k],
                            innov[k],
                        )
                    ]
                )


@dataclass(frozen=True)
class EnsembleStats:
    """Ensemble error statistics at checkpoint times.

    ``sample_error_cov[k]`` is the sample covariance of the error over the
    ensemble at ``checkpoint_times[k]``; ``standard_errors`` are per-entry
    Gaussian standard errors of those estimates; ``riccati_values`` are the
    covariance-flow values at the same times. Innovation moments are pooled
    over every increment of every trajectory.
    """

    checkpoint_times: np.ndarray
    sample_error_cov: np.ndarray
    standard_errors: np.ndarray
    riccati_values: np.ndarray
    ensemble: int
    innovation_mean: float
    innovation_var: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "checkpoint_times": [float(t) for t in self.checkpoint_times],
            "sample_error_cov": self.sample_error_cov.tolist(),
            "standard_errors": self.standard_errors.tolist(),
            "riccati_values": self.riccati_values.tolist(),
            "ensemble": self.ensemble,
            "innovation_mean": self.innovation_mean,
            "innovation_var": self.innovation_var,
        }


def _psd_factor(J: np.ndarray, context: str) -> np.ndarray:
    """Factor L with L L^T = J for symmetric PSD J; reject indefinite J."""
    w, U = np.linalg.eigh(0.5 * (J + J.T))
    if w.min() < -1e-10 * (1.0 + abs(w.max())):
        raise RuntimeError(f"{context}: matrix is not positive semidefinite (model bug)")
    return U * np.sqrt(np.clip(w, 0.0, None))


def _joint_noise_factor(model: DerivedModel) -> np.ndarray:
    """Factor of the joint (dw, dv) intensity [[Q, S], [S^T, R]]."""
    J = np.zeros((3, 3))
    J[:2, :2] = model.Q
    J[:2, 2] = model.S
    J[2, :2] = model.S
    J[2, 2] = model.R
    return _psd_factor(J, "joint noise covariance")


def _check_flow(flow: RiccatiFlow, cfg: SimConfig) -> None:
    n = cfg.n_steps
    if len(flow) < n + 1:
        raise ValueError("covariance flow does not cover [0, t_final] on the cfg grid")
    spacing = np.diff(flow.times[: n + 1])
    if spacing.size and not np.allclose(spacing, cfg.dt, rtol=0, atol=1e-12):
        raise ValueError("covariance flow grid spacing does not match cfg.dt")


def _gains(model: DerivedModel, flow: RiccatiFlow, n: int) -> np.ndarray:
    """Filter gain at each step's left endpoint, shape (n, 2)."""
    V = flow.values[:n]
    return np.sqrt(model.eta) * (
        (2.0 / model.hbar) * V @ model.Cr + (model.Sigma.T @ model.Ci)
    )


def _error_steps(
    model: DerivedModel, K: np.ndarray, e: np.ndarray, rngs: list | None, dt: float
) -> Iterator[tuple[int, np.ndarray, Any]]:
    """Advance the error ``e``, of shape (2,) or an (m, 2) stack, n = len(K) steps.

    e <- e + A e dt + dw - K_k nu with nu = M e dt + dv and (dw, dv) =
    sqrt(dt) L z, z drawn from member i's ``rngs[i]`` in blocks of
    ``_TIME_BLOCK`` steps (bit for bit one whole-path draw), or zero if
    ``rngs`` is None. Yields (k, e_{k+1}, nu_k) for k = 0..n-1.

    The draws and increments of every block go to the same two buffers,
    allocated once per call, so the call's peak memory is fixed by the
    stack and the block size and not by how the allocator placed earlier
    blocks.
    """
    A_T, M, LT, scale = model.A.T, model.M, _joint_noise_factor(model).T, np.sqrt(dt)
    n = len(K)
    rows = min(n, _TIME_BLOCK + 1)
    if rngs is not None:
        z_buf, w_buf = np.empty((rows, len(rngs), 3)), np.empty((rows, *e.shape[:-1], 3))
    start = 0
    while start < n:
        # a lone last step joins the block before it: numpy sends a one-row
        # product to gemv, which rounds unlike the gemm of a whole-path draw
        b = n - start if n - start <= _TIME_BLOCK + 1 else _TIME_BLOCK
        if rngs is None:
            W = np.zeros((b, *e.shape[:-1], 3))
        else:
            z, W = z_buf[:b], w_buf[:b]
            for i, r in enumerate(rngs):
                z[:, i] = r.standard_normal((b, 3))
            np.matmul(z.reshape(-1, 3), LT, out=W.reshape(-1, 3))
            W *= scale
        for k, dw, dv in zip(range(start, start + b), W[..., :2], W[..., 2]):
            nu = (e @ M) * dt + dv
            e = e + (e @ A_T) * dt + dw - nu[..., None] * K[k]
            yield k, e, nu
        start += b


def simulate_trajectory(
    spec: SystemSpec,
    cfg: SimConfig,
    V_flow: RiccatiFlow,
    *,
    e0: np.ndarray | None = None,
    zero_noise: bool = False,
    gain_override: np.ndarray | None = None,
) -> Trajectory:
    """Simulate one trajectory of the mode and its filter.

    The trajectory uses substream 0 of the master seed, so it coincides, to
    rounding, with member 0 of :func:`monte_carlo` under the same config.
    The filter mean starts at zero; the initial error is drawn from
    N(0, V_flow.values[0]) unless ``e0`` is given.

    Test hooks: ``zero_noise`` replaces all noise increments with zeros
    (flagging the trajectory so whiteness diagnostics report
    not-applicable); ``gain_override`` replaces the gain sequence, e.g.
    with zeros for a mismatched-filter control.
    """
    model = build_derived(spec)
    _check_flow(V_flow, cfg)
    n, dt = cfg.n_steps, cfg.dt
    K = _gains(model, V_flow, n)
    if gain_override is not None:
        K = np.broadcast_to(np.asarray(gain_override, dtype=float), (n, 2))
    drive = cfg.drive if cfg.drive is not None else Drive()
    times = np.arange(n + 1) * dt
    Bu = np.outer(drive.u(times[:n]), drive.B) * dt  # (n, 2) drive increments

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    L0 = _psd_factor(V_flow.values[0], "initial covariance")
    e = L0 @ rng.standard_normal(2) if e0 is None else np.array(e0, dtype=float)

    A, M = model.A, model.M
    xhat = np.zeros(2)
    err, xh = np.empty((2, n + 1, 2))
    dy, nus = np.empty((2, n))
    err[0], xh[0] = e, xhat
    for k, e, nu in _error_steps(model, K, e, None if zero_noise else [rng], dt):
        nus[k] = nu
        dy[k] = (M @ xhat) * dt + nu
        xhat = xhat + (A @ xhat) * dt + Bu[k] + K[k] * nu
        err[k + 1], xh[k + 1] = e, xhat
    return Trajectory(
        times=times,
        x_true=xh + err,
        x_hat=xh,
        err=err,
        dy=dy,
        innovations=nus / np.sqrt(model.R * dt),
        zero_noise=zero_noise,
    )


def monte_carlo(
    spec: SystemSpec,
    cfg: SimConfig,
    V_flow: RiccatiFlow | None = None,
) -> EnsembleStats:
    """Ensemble error statistics against the covariance flow.

    Runs ``cfg.ensemble`` independent trajectories (substream i for
    trajectory i), ``_MEMBER_CHUNK`` at a time, and collects the sample
    error covariance at the checkpoints {t_final/4, t_final/2, t_final}
    plus pooled innovation moments. Trajectories are combined in index
    order, so chunking changes the result only by rounding.
    """
    if cfg.ensemble < 2:
        raise ValueError("insufficient ensemble: statistics need at least 2 trajectories")
    model = build_derived(spec)
    if V_flow is None:
        V0 = 0.5 * spec.hbar * np.eye(2)
        V_flow = integrate_riccati(model, V0, cfg.t_final, cfg.dt)
    _check_flow(V_flow, cfg)
    n, dt = cfg.n_steps, cfg.dt
    K = _gains(model, V_flow, n)
    L0 = _psd_factor(V_flow.values[0], "initial covariance")
    sqrt_R_dt = np.sqrt(model.R * dt)

    checkpoints = sorted({max(1, n // 4), max(1, n // 2), n})
    sums = {k: np.zeros(2) for k in checkpoints}
    outer_sums = {k: np.zeros((2, 2)) for k in checkpoints}
    inn_sum = inn_sq = 0.0

    children = np.random.SeedSequence(cfg.seed).spawn(cfg.ensemble)
    for start in range(0, cfg.ensemble, _MEMBER_CHUNK):
        rngs = [np.random.default_rng(c) for c in children[start : start + _MEMBER_CHUNK]]
        e = np.stack([r.standard_normal(2) for r in rngs]) @ L0.T
        for k, e, nu in _error_steps(model, K, e, rngs, dt):
            inn = nu / sqrt_R_dt
            inn_sum += inn.sum()
            inn_sq += float(inn @ inn)
            if (k + 1) in sums:
                sums[k + 1] += e.sum(axis=0)
                outer_sums[k + 1] += e.T @ e

    N = cfg.ensemble
    cov = np.empty((len(checkpoints), 2, 2))
    se = np.empty_like(cov)
    for j, k in enumerate(checkpoints):
        mean = sums[k] / N
        c = (outer_sums[k] - N * np.outer(mean, mean)) / (N - 1)
        cov[j] = 0.5 * (c + c.T)
        d = np.diag(cov[j])
        se[j] = np.sqrt((np.outer(d, d) + cov[j] ** 2) / (N - 1))
    inn_mean = inn_sum / (N * n)
    inn_var = inn_sq / (N * n) - inn_mean * inn_mean
    return EnsembleStats(
        checkpoint_times=np.array([k * dt for k in checkpoints]),
        sample_error_cov=cov,
        standard_errors=se,
        riccati_values=np.stack([V_flow.values[k] for k in checkpoints]),
        ensemble=N,
        innovation_mean=inn_mean,
        innovation_var=inn_var,
    )


def innovation_stats(traj: Trajectory) -> tuple[float, float]:
    """Sample mean and variance of the normalized innovation increments.

    For a correctly matched filter these are ~0 and ~1 (within 4/sqrt(N)
    and 1 +- 5/sqrt(N)). Requires at least 1000 increments; not applicable
    to zero-noise trajectories.
    """
    if traj.zero_noise:
        raise ValueError("whiteness diagnostic not applicable to a zero-noise trajectory")
    x = traj.innovations
    if len(x) < 1000:
        raise ValueError("trajectory too short for whiteness diagnostics (need >= 1000 steps)")
    mean = float(x.mean())
    var = float(x.var())
    return mean, var
