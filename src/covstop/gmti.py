"""GMTI kinematics, the scenario type and the macro/micro loop.

The radar platform observes ground targets in range, azimuth and range
rate. On the decision-epoch time scale the targets follow a
constant-velocity model and the measurement map is linearized about
each target's initial estimate, which is accurate for the operating
geometries validated by the linearization module. The decision problem
itself consumes only covariances: simulated truth and measurement
values influence outcomes solely through the miss/detect pattern.

The two stock scenarios, a constant-velocity fly-by and a 72-segment
orbital persistent-surveillance run driven by a one-hot priority
macro-manager, are bundled JSON files; ``config.stock_scenario`` loads
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ContractError
from .filter_core import TargetModel, check_covariance, logdets
from .observability import Belief, CostWeights
from .optimizer import StopAt, _path_chunks, score_paths
from .policy import Action, PolicyParams
from .streams import child_seed


@dataclass(frozen=True)
class PlatformState:
    """Radar platform kinematics: planar state plus constant altitude."""

    xi: np.ndarray  # [x, x_dot, y, y_dot] in m, m/s
    altitude: float  # m, constant; may be 0 only in test fixtures

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        object.__setattr__(self, "xi", xi)
        if xi.shape != (4,) or not np.all(np.isfinite(xi)):
            raise ContractError("platform state must be a finite 4-vector")
        if self.altitude < 0.0:
            raise ContractError("altitude cannot be negative")

    def at_epoch(self, k: int, period: float) -> "PlatformState":
        """Constant-velocity propagation by k epochs of length period."""
        x, vx, y, vy = self.xi
        t = k * period
        return PlatformState(np.array([x + vx * t, vx, y + vy * t, vy]),
                             self.altitude)


@dataclass(frozen=True)
class OrbitSpec:
    """Circular platform track sampled at evenly spaced locations."""

    radius: float
    speed: float
    altitude: float
    n_locations: int = 72
    start_location: int = 1

    def __post_init__(self):
        if self.radius <= 0.0 or self.speed <= 0.0 or self.altitude <= 0.0:
            raise ContractError("orbit radius, speed and altitude must be "
                                "positive")
        if not 1 <= self.start_location <= self.n_locations:
            raise ContractError("start location out of range")


def platform_orbit_state(orbit: OrbitSpec, n: int) -> PlatformState:
    """Platform state at location n (1..orbit.n_locations) of an orbit
    sampled every 360 / orbit.n_locations degrees."""
    if not 1 <= n <= orbit.n_locations:
        raise ContractError(
            f"orbit location must lie in 1..{orbit.n_locations}")
    ang = math.radians(360.0 / orbit.n_locations * n)
    r, v = orbit.radius, orbit.speed
    xi = np.array([r * math.cos(ang), -v * math.sin(ang),
                   r * math.sin(ang), v * math.cos(ang)])
    return PlatformState(xi, orbit.altitude)


def system_matrices(period: float, sigma_x: float, sigma_y: float,
                    sigma_r: float, sigma_a: float, sigma_rdot: float
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Constant-velocity system matrices for one target.

    ``sigma_a`` is the azimuth noise standard deviation in radians (the
    measurement map returns radians); callers quoting degrees convert
    first. Returns (F, G, Q, r_base).
    """
    if period < 0.0:
        raise ContractError("sampling period cannot be negative")
    t = period
    f = np.array([[1.0, t, 0.0, 0.0],
                  [0.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, t],
                  [0.0, 0.0, 0.0, 1.0]])
    g = np.array([[t**2 / 2.0, 0.0],
                  [t, 0.0],
                  [0.0, t**2 / 2.0],
                  [0.0, t]])
    q = np.array([
        [t**4 / 4.0 * sigma_x**2, t**3 / 2.0 * sigma_x**2, 0.0, 0.0],
        [t**3 / 2.0 * sigma_x**2, t**2 * sigma_x**2, 0.0, 0.0],
        [0.0, 0.0, t**4 / 4.0 * sigma_y**2, t**3 / 2.0 * sigma_y**2],
        [0.0, 0.0, t**3 / 2.0 * sigma_y**2, t**2 * sigma_y**2],
    ])
    r_base = np.diag([sigma_r**2, sigma_a**2, sigma_rdot**2])
    return f, g, q, r_base


def nonlinear_h(s: np.ndarray, platform: PlatformState) -> np.ndarray:
    """Range (m), azimuth (rad, atan2) and range rate (m/s)."""
    dx = s[0] - platform.xi[0]
    dy = s[2] - platform.xi[2]
    dvx = s[1] - platform.xi[1]
    dvy = s[3] - platform.xi[3]
    rng = math.sqrt(dx * dx + dy * dy + platform.altitude**2)
    if rng == 0.0:
        raise ContractError("target coincides with the platform")
    return np.array([rng, math.atan2(dy, dx), (dx * dvx + dy * dvy) / rng])


def jacobian_h(s: np.ndarray, platform: PlatformState) -> np.ndarray:
    """Closed-form 3x4 Jacobian of the measurement map at state s."""
    s = np.asarray(s, dtype=float)
    dx = s[0] - platform.xi[0]
    dy = s[2] - platform.xi[2]
    dvx = s[1] - platform.xi[1]
    dvy = s[3] - platform.xi[3]
    rho2 = dx * dx + dy * dy
    r = np.sqrt(rho2 + platform.altitude**2)
    if r == 0.0 or rho2 == 0.0:
        raise ContractError("Jacobian undefined at zero range or directly "
                            "above the platform track")
    r3 = r**3
    return np.array([
        [dx / r, 0.0, dy / r, 0.0],
        [-dy / rho2, 0.0, dx / rho2, 0.0],
        [dvx / r - (dx * dy * dvy + dx * dx * dvx) / r3, dx / r,
         dvy / r - (dx * dy * dvx + dy * dy * dvy) / r3, dy / r],
    ])


def propagate_truth(s: np.ndarray, model: TargetModel, sigma_p: float,
                    rng: np.random.Generator) -> np.ndarray:
    """One truth step F s + G w with acceleration noise std sigma_p."""
    w = rng.normal(0.0, sigma_p, size=model.G.shape[1])
    return model.F @ s + model.G @ w


class MacroMode(Enum):
    FLYBY_FIXED = "flyby-fixed"
    PERSISTENT = "persistent"


def macro_select_priority(posteriors: Sequence[np.ndarray], mode: MacroMode,
                          fixed_nu: np.ndarray | None = None
                          ) -> tuple[int, np.ndarray]:
    """Priority vector for the next scheduling interval.

    Persistent mode points all resources at the target with largest
    posterior log-determinant; fly-by mode returns the configured
    vector, whose argmax names the priority target.
    """
    if len(posteriors) < 2:
        raise ContractError("need at least two targets")
    if mode is MacroMode.PERSISTENT:
        a = int(np.argmax(logdets(np.asarray(posteriors))[0]))
        nu = np.zeros(len(posteriors))
        nu[a] = 1.0
        return a, nu
    if fixed_nu is None:
        raise ContractError("fly-by mode needs the configured priorities")
    nu = np.asarray(fixed_nu, dtype=float)
    return int(np.argmax(nu)), nu


@dataclass(frozen=True)
class Scenario:
    """Everything a stopping-problem run needs, immutable once built."""

    models: tuple
    priorities: np.ndarray
    weights: CostWeights
    tau_max: int
    initial_posteriors: tuple
    initial_priors: tuple
    macro_mode: MacroMode = MacroMode.FLYBY_FIXED
    estimates: tuple | None = None
    orbit: OrbitSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "priorities",
                           np.asarray(self.priorities, dtype=float))
        object.__setattr__(self, "initial_posteriors",
                           tuple(self.initial_posteriors))
        object.__setattr__(self, "initial_priors", tuple(self.initial_priors))
        n = len(self.models)
        if n < 2:
            raise ContractError("a scenario needs at least two targets")
        if self.priorities.shape != (n,):
            raise ContractError("priorities must have one entry per target")
        if np.any(self.priorities < 0.0):
            raise ContractError("priorities cannot be negative")
        if abs(float(np.sum(self.priorities)) - 1.0) > 1e-9:
            raise ContractError("priorities must sum to 1")
        if self.weights.n_targets != n:
            raise ContractError("cost weights must cover every target")
        if self.tau_max < 1:
            raise ContractError("tau_max must be at least 1")
        if len(self.initial_posteriors) != n or len(self.initial_priors) != n:
            raise ContractError("initial covariances must cover every target")
        for l in range(n):
            check_covariance(self.initial_posteriors[l], f"P0[{l}]")
            check_covariance(self.initial_priors[l], f"Pbar0[{l}]")

    @property
    def n_targets(self) -> int:
        return len(self.models)

    @property
    def a(self) -> int:
        return int(np.argmax(self.priorities))

    def initial_belief(self) -> Belief:
        return Belief(self.initial_posteriors, self.initial_priors, self.a)

    def with_overrides(self, operating_cost: float | None = None,
                       p_d: float | None = None,
                       tau_max: int | None = None) -> "Scenario":
        """Copy with CLI-style overrides applied."""
        scenario = self
        if operating_cost is not None:
            weights = CostWeights(scenario.weights.alpha, scenario.weights.beta,
                                  operating_cost, scenario.weights.case)
            scenario = replace(scenario, weights=weights)
        if p_d is not None:
            models = tuple(replace(m, p_d=p_d) for m in scenario.models)
            scenario = replace(scenario, models=models)
        if tau_max is not None:
            scenario = replace(scenario, tau_max=tau_max)
        return scenario



def models_at_location(scenario: Scenario, location: int) -> tuple:
    """Re-linearize every target's observation map at an orbit location.

    Only the new H matrices are checked (``TargetModel.with_observation``);
    the rest of each model was validated with the scenario.
    """
    if scenario.orbit is None or scenario.estimates is None:
        return scenario.models
    platform = platform_orbit_state(scenario.orbit, location)
    return tuple(m.with_observation(jacobian_h(np.asarray(e), platform))
                 for m, e in zip(scenario.models, scenario.estimates))


@dataclass(frozen=True)
class MacroTrace:
    """Columns of a macro/micro run.

    One row per (cycle, epoch, target), in that order: the posterior and
    prior log-determinants after the epoch's update, the applied-
    detection flag and the action (stop at the cycle's last epoch,
    continue before it). ``stop_times`` and ``priority_targets`` hold
    one entry per cycle.
    """

    cycle: np.ndarray
    epoch: np.ndarray
    target: np.ndarray
    log_det_posterior: np.ndarray
    log_det_prior: np.ndarray
    detected: np.ndarray
    action: np.ndarray
    stop_times: np.ndarray
    priority_targets: np.ndarray


# What the path engine can stop a cycle with.
MacroPolicy = PolicyParams | StopAt


def _concat(parts: list, dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype)


def run_macro_cycles(scenario: Scenario, policy: MacroPolicy, n_cycles: int,
                     seed: int) -> MacroTrace:
    """Alternate priority selection and micro-manager stopping runs.

    ``policy``, PolicyParams or ``StopAt(k)``, stops every cycle; any
    other policy, a mapping included, raises ContractError. Each cycle
    simulates one path on the batched engine with seed
    ``child_seed(seed, "macro.cycle", cycle)``, and the engine stops
    simulating it at the cycle's stopping epoch (within one stop-check
    block), where ``rollout`` would stop. Posteriors carry across
    cycles; priors re-anchor to the posteriors when each micro clock
    resets, so zero-priority targets track their priors exactly within
    a cycle. The scenario's macro mode picks each cycle's priorities. An
    orbital scenario moves the platform one orbit location per cycle,
    and its re-linearized models are built once per location, with only
    their new H checked; a scenario without an orbit keeps its own
    models. Each cycle hands its models and priorities to the engine
    without building a scenario. The engine carries the cycle's prior in
    its state with the path's posterior, so each simulated epoch is one
    stacked predict, correct and log-determinant step.
    """
    if not isinstance(policy, MacroPolicy):
        raise ContractError("the macro-cycle policy must be PolicyParams or "
                            "StopAt(k)")
    n = scenario.n_targets
    posteriors = scenario.initial_posteriors
    location = scenario.orbit.start_location if scenario.orbit else None
    models_by_location = {}
    taus, priority_targets = [], []
    logdet_posts, logdet_priors, detected = [], [], []
    for cycle in range(n_cycles):
        a, nu = macro_select_priority(posteriors, scenario.macro_mode,
                                      scenario.priorities)
        if location not in models_by_location:
            models_by_location[location] = models_at_location(scenario,
                                                              location)
        (batch,) = _path_chunks(
            scenario, [child_seed(seed, "macro.cycle", cycle)], policy,
            belief=Belief(posteriors, posteriors, a),
            models=models_by_location[location], priorities=nu)
        path_tau, _ = score_paths(batch, policy)
        tau = int(path_tau[0])
        taus.append(tau)
        priority_targets.append(a)
        logdet_posts.append(batch.logdet_posteriors[0, :tau].ravel())
        logdet_priors.append(batch.logdet_priors[:tau].ravel())
        detected.append(batch.detections[0, :tau].ravel())
        posteriors = batch.posteriors[0, tau - 1]
        if location is not None:
            location = location % scenario.orbit.n_locations + 1
    stop_times = np.array(taus, dtype=int)
    cycle = np.repeat(np.arange(n_cycles), n * stop_times)
    # Row r is epoch r // n of the whole run, counted from 0; take off
    # the epochs of the cycles before its own.
    epochs_before = np.cumsum(stop_times) - stop_times
    epoch = np.arange(cycle.size) // n - epochs_before[cycle] + 1
    return MacroTrace(
        cycle=cycle, epoch=epoch,
        target=np.tile(np.arange(n), int(stop_times.sum())),
        log_det_posterior=_concat(logdet_posts, float),
        log_det_prior=_concat(logdet_priors, float),
        detected=_concat(detected, bool),
        action=np.where(epoch == stop_times[cycle], int(Action.STOP),
                        int(Action.CONTINUE)),
        stop_times=stop_times,
        priority_targets=np.array(priority_targets, dtype=int))
