"""Hessian and linearity diagnostics for the measurement map.

The tracker's linear model replaces the range/azimuth/range-rate map by
its Jacobian at the initial nominal state. Two ratios justify that:
D measures how much the Jacobian drifts along the nominal trajectory
(time invariance), E the size of the second-order Taylor term next to
the first-order one (linearity). Both stay small for the stock
geometries, below 0.06 and 0.02 respectively.

Matrix norms are spectral; the tensor contraction in E reduces to the
Euclidean norm of a 3-vector of quadratic forms. The Hessian comes from
central finite differences of the analytic Jacobian, ``gmti.jacobian_h``,
which is itself cross-checked against finite differences of the map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .filter_core import TargetModel
from .gmti import (PlatformState, jacobian_h, nonlinear_h, propagate_truth,
                   system_matrices)
from .streams import stream


# Central-difference step of hessian_h, relative to each component.
HESSIAN_REL_STEP = 1e-3


def hessian_h(s: np.ndarray, platform: PlatformState) -> np.ndarray:
    """3x4x4 Hessian tensor by central differences of the Jacobian.

    Steps are HESSIAN_REL_STEP times each component's magnitude (floor
    1.0); the result is symmetrized over the two derivative indices.
    """
    s = np.asarray(s, dtype=float)
    tensor = np.empty((3, 4, 4))
    for j in range(4):
        step = HESSIAN_REL_STEP * max(abs(s[j]), 1.0)
        bump = np.zeros(4)
        bump[j] = step
        jac_plus = jacobian_h(s + bump, platform)
        jac_minus = jacobian_h(s - bump, platform)
        tensor[:, :, j] = (jac_plus - jac_minus) / (2.0 * step)
    return 0.5 * (tensor + tensor.transpose(0, 2, 1))


def nominal_trajectory(s0: np.ndarray, f_matrix: np.ndarray,
                       n_steps: int) -> np.ndarray:
    """Noise-free propagation s_{k+1} = F s_k, rows 0..n_steps."""
    states = np.empty((n_steps + 1, 4))
    states[0] = np.asarray(s0, dtype=float)
    for k in range(n_steps):
        states[k + 1] = f_matrix @ states[k]
    return states


def true_trajectory(s0: np.ndarray, model: TargetModel, sigma_p: float,
                    n_steps: int, rng: np.random.Generator) -> np.ndarray:
    """Noisy truth propagation, rows 0..n_steps."""
    states = np.empty((n_steps + 1, 4))
    states[0] = np.asarray(s0, dtype=float)
    for k in range(n_steps):
        states[k + 1] = propagate_truth(states[k], model, sigma_p, rng)
    return states


def platform_track(platform0: PlatformState, n_steps: int,
                   period: float) -> list[PlatformState]:
    return [platform0.at_epoch(k, period) for k in range(n_steps + 1)]


def metric_D(nominal_states: np.ndarray, platforms: list[PlatformState],
             k: int) -> float:
    """Relative Jacobian drift between epochs 0 and k (spectral norm)."""
    if k < 0:
        raise ContractError("k must be nonnegative")
    jac_k = jacobian_h(nominal_states[k], platforms[k])
    jac_0 = jacobian_h(nominal_states[0], platforms[0])
    return float(np.linalg.norm(jac_k - jac_0, 2) / np.linalg.norm(jac_k, 2))


def metric_E(s: np.ndarray, s_bar: np.ndarray, platform: PlatformState,
             gamma: float) -> float:
    """Second-order to first-order Taylor term ratio at deviation s - s_bar.

    The Hessian is evaluated at the intermediate point
    gamma * s + (1 - gamma) * s_bar.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ContractError("gamma must lie in [0, 1]")
    s = np.asarray(s, dtype=float)
    s_bar = np.asarray(s_bar, dtype=float)
    d = s - s_bar
    if not np.any(d):
        raise ContractError("E is undefined at zero deviation")
    zeta = gamma * s + (1.0 - gamma) * s_bar
    hess = hessian_h(zeta, platform)
    quad = np.array([d @ hess[i] @ d for i in range(3)])
    numer = 0.5 * np.linalg.norm(quad)
    denom = np.linalg.norm(jacobian_h(s_bar, platform) @ d)
    return float(numer / denom)


# Stock geometry for the linearity study: platform altitude from a
# 15 degree depression angle, five representative ground targets, the
# stock scenarios' 0.1 s epoch and their 1.5 m/s^2 acceleration noise.
STUDY_PERIOD = 0.1
STUDY_SIGMA_P = 1.5
STUDY_PLATFORM_XI = (-35_000.0, 100.0, -15_000.0, 20.0)
STUDY_INITIAL_STATES = {
    "a": (100.0, 3.0, 40.0, 7.0),
    "b": (-20.0, -4.0, 200.0, 1.0),
    "c": (50.0, 2.0, 95.0, 10.0),
    "d": (-70.0, 5.0, -50.0, -6.0),
    "e": (150.0, -15.0, 10.0, 0.0),
}
STUDY_KS = (10, 50, 100)
STUDY_GAMMAS = (0.1, 0.8)
D_BOUND = 0.06
E_BOUND = 0.02


def study_platform() -> PlatformState:
    x, vx, y, vy = STUDY_PLATFORM_XI
    altitude = np.hypot(x, y) * np.tan(np.radians(15.0))
    return PlatformState(np.array([x, vx, y, vy]), altitude)


def study_model() -> TargetModel:
    f, g, q, r_base = system_matrices(STUDY_PERIOD, sigma_x=0.5, sigma_y=0.5,
                                      sigma_r=20.0,
                                      sigma_a=np.radians(0.5),
                                      sigma_rdot=5.0)
    h = jacobian_h(np.array(STUDY_INITIAL_STATES["a"]), study_platform())
    return TargetModel(F=f, G=g, H=h, Q=q, r_base=r_base, p_d=1.0,
                       delta=100.0)


@dataclass
class LinearityReport:
    """D and E over a (state, k) grid, with bound violations flagged."""

    state_labels: list
    ks: list
    gammas: list
    d_values: np.ndarray              # (n_states, n_ks)
    e_values: dict                    # gamma -> (n_states, n_ks) means
    n_seeds: int
    flags: list = field(default_factory=list)


def validate_linearization(initial_states: dict | None = None,
                           platform0: PlatformState | None = None,
                           ks: tuple = STUDY_KS,
                           gammas: tuple = STUDY_GAMMAS,
                           n_seeds: int = 100,
                           seed: int = 0) -> LinearityReport:
    """Evaluate D and E over the study grid and flag bound violations.

    D is deterministic. E depends on the realized true track (STUDY_SIGMA_P
    noise), so each cell reports the mean over ``n_seeds`` realizations.
    """
    if initial_states is None:
        initial_states = {k: np.array(v)
                          for k, v in STUDY_INITIAL_STATES.items()}
    if platform0 is None:
        platform0 = study_platform()
    model = study_model()
    max_k = max(ks)
    platforms = platform_track(platform0, max_k, STUDY_PERIOD)
    labels = list(initial_states)
    d_values = np.zeros((len(labels), len(ks)))
    e_values = {g: np.zeros((len(labels), len(ks))) for g in gammas}
    flags = []
    for i, label in enumerate(labels):
        s0 = np.asarray(initial_states[label], dtype=float)
        nominal = nominal_trajectory(s0, model.F, max_k)
        for j, k in enumerate(ks):
            d = metric_D(nominal, platforms, k)
            d_values[i, j] = d
            if d > D_BOUND:
                flags.append(("D", label, k, None, d))
        e_samples = {g: np.zeros((n_seeds, len(ks))) for g in gammas}
        for r in range(n_seeds):
            rng = stream(seed, f"linearization.truth.{label}", r)
            truth = true_trajectory(s0, model, STUDY_SIGMA_P, max_k, rng)
            for j, k in enumerate(ks):
                for g in gammas:
                    e_samples[g][r, j] = metric_E(truth[k], nominal[k],
                                                  platforms[k], g)
        for g in gammas:
            means = e_samples[g].mean(axis=0)
            e_values[g][i] = means
            for j, k in enumerate(ks):
                if means[j] > E_BOUND:
                    flags.append(("E", label, k, g, means[j]))
    return LinearityReport(state_labels=labels, ks=list(ks),
                           gammas=list(gammas), d_values=d_values,
                           e_values=e_values, n_seeds=n_seeds, flags=flags)
