"""Rollout cost evaluation and the SPSA policy-parameter search.

Given its seed, a rollout's belief path does not depend on the policy:
detections are drawn for every target at every epoch and the priors are
deterministic. The batched path engine uses that. ``simulate_paths``
runs the Riccati/Lyapunov recursion for many seeds at once on stacked
(paths, targets, m, m) arrays, with the priors computed once for all
paths, and records each path's log-determinants and stopping cost at
every epoch. ``score_paths`` then scores a parametrized policy on those
paths: its decision statistic is evaluated for the whole batch, tau is
the first epoch where it reaches 1, and the sample cost is (tau - 1)
times the operating cost plus the stopping cost at tau. Two views are
built on the engine: ``periodic_cost_curve`` and ``evaluate_cost`` for
PolicyParams. The SPSA search minimizes that mean sample cost over the
unconstrained policy parameters with a two-sided simultaneous-
perturbation gradient estimate; its two perturbed evaluations share one
simulation.

``gmti.run_macro_cycles`` is a view on the engine too: it simulates one
path per cycle and takes tau from ``score_paths`` or from a ``stop_at``
epoch. ``rollout`` keeps the scalar epoch-by-epoch loop, with one belief
object per epoch. It serves what the engine cannot or must not:
callable policies (``stop_at`` and arbitrary deciders, which see the
belief object) in ``evaluate_cost``, and ``periodic_policy_cost``,
which stays an independent reference that the engine is checked
against.

Determinism: everything is driven by named Philox streams, so identical
(scenario, params, seed) inputs reproduce rollouts bit for bit, and the
engine draws each seed's detections exactly as ``rollout`` does. The two
perturbed evaluations inside one gradient estimate share their detection
streams (common random numbers), which keeps the estimate exactly zero
for policy-independent objectives.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ContractError, NumericalError
from .filter_core import cho_solve
from .observability import (Belief, aggregate_rivals, belief_step,
                            stopping_cost)
from .policy import (Action, ParamLayout, PolicyParams, decide,
                     stacked_statistic)
from .streams import child_seed, stream

# A policy is PolicyParams or any callable (belief, epoch) -> Action.
PolicyLike = PolicyParams | Callable[[Belief, int], Action]
# An objective maps (phi, seed) to a scalar cost.
Objective = Callable[[np.ndarray, int], float]


@dataclass(frozen=True)
class SpsaSchedule:
    """Gain sequences and batch sizes for the stochastic search.

    Perturbation size follows omega / (n+1)^gamma and the iterate step
    epsilon / (n+1+s)^zeta, with the exponents constrained to
    0.5 <= gamma <= 1 and 0.5 < zeta <= 1.
    """

    omega: float = 0.2
    gamma: float = 0.602
    epsilon: float = 0.05
    s_offset: float = 10.0
    zeta: float = 0.801
    n_iterations: int = 500
    n_restarts: int = 8
    rollouts_per_eval: int = 16
    smooth_window: int = 32
    n_screen: int = 0  # random-search candidates screened per restart seat

    def __post_init__(self):
        if self.omega <= 0.0 or self.epsilon <= 0.0 or self.s_offset <= 0.0:
            raise ContractError("omega, epsilon and s_offset must be positive")
        if not 0.5 <= self.gamma <= 1.0:
            raise ContractError("gamma must lie in [0.5, 1]")
        if not 0.5 < self.zeta <= 1.0:
            raise ContractError("zeta must lie in (0.5, 1]")
        if self.n_iterations < 0 or self.n_restarts < 1:
            raise ContractError("need n_iterations >= 0 and n_restarts >= 1")
        if self.rollouts_per_eval < 1:
            raise ContractError("rollouts_per_eval must be at least 1")
        if self.n_screen < 0:
            raise ContractError("n_screen cannot be negative")

    def perturbation(self, n: int) -> float:
        return self.omega / (n + 1) ** self.gamma

    def step_size(self, n: int) -> float:
        # epsilon_{n+1} for the update applied at iteration n.
        return self.epsilon / (n + 2 + self.s_offset) ** self.zeta


@dataclass
class RolloutResult:
    """One simulated stopping episode."""

    tau: int
    sample_cost: float
    belief_trajectory: list
    truncated: bool
    detections: np.ndarray  # (tau, L) applied-detection flags

    def __post_init__(self):
        if self.tau < 1:
            raise ContractError("stopping epoch must be at least 1")
        if self.truncated and self.tau != len(self.belief_trajectory) - 1:
            raise ContractError("truncated rollouts must run to the horizon")


def _as_decider(policy: PolicyLike) -> Callable[[Belief, int], Action]:
    if isinstance(policy, PolicyParams):
        return lambda belief, epoch: decide(belief, policy)
    return policy


def rollout(scenario, policy: PolicyLike, seed: int,
            initial_belief: Belief | None = None) -> RolloutResult:
    """Simulate one episode of the stopping problem.

    The first belief update (epoch 1) is free of operating cost; the
    sample cost is (tau - 1) times the operating cost plus the stopping
    cost at the stopping belief. Detection draws for all targets are
    consumed every epoch regardless of priorities, so the event stream
    is policy independent.
    """
    if scenario.tau_max < 1:
        raise ContractError("tau_max must be at least 1")
    decider = _as_decider(policy)
    belief = initial_belief if initial_belief is not None else scenario.initial_belief()
    models = scenario.models
    priorities = np.asarray(scenario.priorities, dtype=float)
    p_d = np.array([m.p_d for m in models])
    measurable = priorities > 0.0
    gen = stream(seed, "rollout.detect")
    trajectory = [belief]
    detections = []
    tau = scenario.tau_max
    truncated = True
    for epoch in range(1, scenario.tau_max + 1):
        draws = gen.random(len(models))
        detected = (draws < p_d) & measurable
        try:
            belief = belief_step(belief, detected, models, priorities)
        except (ContractError, NumericalError) as exc:
            raise NumericalError(f"covariance update failed at epoch "
                                 f"{epoch}: {exc}") from exc
        trajectory.append(belief)
        detections.append(detected)
        if decider(belief, epoch) is Action.STOP:
            tau = epoch
            truncated = False
            break
        if epoch == scenario.tau_max:
            tau = epoch
            truncated = True
    try:
        cost = (tau - 1) * scenario.weights.operating_cost \
            + stopping_cost(belief, scenario.weights)
    except ContractError as exc:
        raise NumericalError(f"stopping cost failed at epoch {tau}: "
                             f"{exc}") from exc
    return RolloutResult(tau=tau, sample_cost=cost,
                         belief_trajectory=trajectory, truncated=truncated,
                         detections=np.array(detections))


# Posterior entries simulated together (8 MB of float64). Paths are
# simulated in chunks of this size whatever the number of seeds: 273
# flyby paths (60 epochs, four 4x4 targets) to a chunk, or 17,476 paths
# of a 30-epoch scalar two-target scenario.
_CHUNK_ENTRIES = 2**20


@dataclass(frozen=True)
class PathBatch:
    """Belief paths of a batch of seeds over the whole horizon.

    Axis 0 indexes seeds, axis 1 epochs: index k - 1 holds the belief
    after the k-th update. ``failed_at`` holds each path's first epoch
    whose covariance update failed or left a non-positive determinant,
    0 if there is none; a failed path's later entries are placeholders.
    """

    a: int
    operating_cost: float
    detections: np.ndarray  # (B, T, L) applied-detection flags
    posteriors: np.ndarray  # (B, T, L, m, m)
    priors: np.ndarray  # (T, L, m, m), shared by every path
    logdet_posteriors: np.ndarray  # (B, T, L)
    logdet_priors: np.ndarray  # (T, L)
    stopping_costs: np.ndarray  # (B, T)
    failed_at: np.ndarray  # (B,)

    def raise_failures(self, until: np.ndarray | None = None) -> None:
        """NumericalError for paths that failed at or before ``until``.

        ``until`` is a per-path epoch; None means the whole horizon.
        """
        failed = self.failed_at > 0
        if until is not None:
            failed &= self.failed_at <= until
        if failed.any():
            raise NumericalError(
                f"covariance update failed at epoch "
                f"{int(self.failed_at[failed].min())} on {int(failed.sum())} "
                f"of {failed.size} paths")


_PER_PATH_FIELDS = ("detections", "posteriors", "logdet_posteriors",
                    "stopping_costs", "failed_at")


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """filter_core.symmetrize for each matrix of a stack."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _cholesky(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a stack and a mask of its non-PD entries.

    A non-PD entry gets the identity factor as a placeholder.
    """
    try:
        return np.linalg.cholesky(s), np.zeros(len(s), dtype=bool)
    except np.linalg.LinAlgError:
        bad = np.zeros(len(s), dtype=bool)
        for i, matrix in enumerate(s):
            try:
                np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                bad[i] = True
        s = s.copy()
        s[bad] = np.eye(s.shape[-1])
        return np.linalg.cholesky(s), bad


def _logdets(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-determinants of a stack and a mask of non-positive ones."""
    sign, logdet = np.linalg.slogdet(p)
    return logdet, ~(sign > 0.0)


def _path_chunks(scenario, seeds: Sequence[int],
                 initial_belief: Belief | None) -> Iterator[PathBatch]:
    """Simulate the seeds' paths in chunks of about _CHUNK_ENTRIES.

    Failures are recorded in each batch's ``failed_at``, not raised.
    The arithmetic mirrors lyapunov_update and riccati_update operation
    by operation on stacked arrays.
    """
    seeds = list(seeds)
    if not seeds:
        raise ContractError("need at least one seed")
    belief = (initial_belief if initial_belief is not None
              else scenario.initial_belief())
    models = scenario.models
    n_targets, horizon = len(models), scenario.tau_max
    if belief.n_targets != n_targets:
        raise ContractError("belief and scenario disagree on target count")
    if len({(m.state_dim, m.obs_dim) for m in models}) != 1:
        raise ContractError("batched paths need one state and one "
                            "observation dimension for every target")
    priorities = np.asarray(scenario.priorities, dtype=float)
    measurable = priorities > 0.0
    p_d = np.array([m.p_d for m in models])
    f = np.array([m.F for m in models])
    ft = np.swapaxes(f, -1, -2)
    q = np.array([m.Q for m in models])
    h = np.array([m.H for m in models])
    ht = np.swapaxes(h, -1, -2)
    # Zero-priority targets are never measured; their entry is unused.
    r = np.array([m.effective_noise(nu) if nu > 0.0 else m.r_base
                  for m, nu in zip(models, priorities)])
    weights = scenario.weights

    # Priors are deterministic: one recursion serves every path.
    priors = np.empty((horizon,) + np.shape(belief.priors))
    prior = np.array(belief.priors)
    for k in range(horizon):
        prior = _symmetrize(f @ prior @ ft + q)
        priors[k] = prior
    logdet_priors, bad_priors = _logdets(priors)
    bad_priors = bad_priors.any(axis=1)  # a bad prior fails every path

    start_post = np.array(belief.posteriors)
    eye = np.eye(start_post.shape[-1])
    chunk_size = max(1, _CHUNK_ENTRIES // (horizon * start_post.size))
    for start in range(0, len(seeds), chunk_size):
        chunk = seeds[start:start + chunk_size]
        draws = np.array([stream(s, "rollout.detect").random(
            (horizon, n_targets)) for s in chunk])
        detections = (draws < p_d) & measurable
        n_paths = len(chunk)
        post = np.broadcast_to(start_post,
                               (n_paths,) + start_post.shape).copy()
        posteriors = np.empty((n_paths, horizon) + start_post.shape)
        logdet_posteriors = np.empty((n_paths, horizon, n_targets))
        failed_at = np.zeros(n_paths, dtype=int)
        for k in range(horizon):
            predicted = _symmetrize(f @ post @ ft + q)
            paths, targets = np.nonzero(detections[:, k])
            failed = np.zeros(n_paths, dtype=bool)
            if paths.size:
                p = post[paths, targets]
                pht = p @ ht[targets]
                chol, bad = _cholesky(_symmetrize(h[targets] @ pht
                                                 + r[targets]))
                fpht = f[targets] @ pht
                gain = fpht @ cho_solve(chol, np.swapaxes(fpht, -1, -2))
                predicted[paths, targets] = _symmetrize(
                    predicted[paths, targets] - gain)
                failed[paths[bad]] = True
            post = predicted
            logdet, bad_dets = _logdets(post)
            failed |= bad_dets.any(axis=1) | bad_priors[k]
            newly = failed & (failed_at == 0)
            failed_at[newly] = k + 1
            if failed.any():
                post[failed] = eye  # keep failed paths finite
            posteriors[:, k] = post
            logdet_posteriors[:, k] = logdet
        with np.errstate(invalid="ignore"):  # inf - inf on failed paths
            infos = weights.alpha * logdet_priors \
                - weights.beta * logdet_posteriors
        yield PathBatch(
            a=belief.a, operating_cost=weights.operating_cost,
            detections=detections, posteriors=posteriors, priors=priors,
            logdet_posteriors=logdet_posteriors, logdet_priors=logdet_priors,
            stopping_costs=aggregate_rivals(infos, belief.a, weights.case),
            failed_at=failed_at)


def _simulate(scenario, seeds: Sequence[int],
              initial_belief: Belief | None) -> PathBatch:
    batches = list(_path_chunks(scenario, seeds, initial_belief))
    return replace(batches[0], **{
        name: np.concatenate([getattr(b, name) for b in batches])
        for name in _PER_PATH_FIELDS})


def simulate_paths(scenario, seeds: Sequence[int],
                   initial_belief: Belief | None = None) -> PathBatch:
    """Simulate one belief path per seed over the whole horizon.

    Seed ``s`` draws its detections from the same stream as
    ``rollout(scenario, policy, s)`` and gets the same covariances, up
    to round-off in the last bits. Works through the seeds in chunks of
    fixed size. Raises NumericalError if any path's innovation
    covariance is not positive definite or any covariance loses its
    positive determinant.
    """
    batch = _simulate(scenario, seeds, initial_belief)
    batch.raise_failures()
    return batch


def score_paths(paths: PathBatch,
                params: PolicyParams) -> tuple[np.ndarray, np.ndarray]:
    """Stopping epochs and sample costs of a policy on simulated paths.

    tau is the first epoch whose decision statistic reaches 1, or the
    horizon if none does. As in ``rollout``, a path's numerical failure
    raises NumericalError only when it happens at or before its tau.
    """
    stops = stacked_statistic(paths.posteriors, paths.priors, paths.a,
                              params) >= 1.0
    tau = np.where(stops.any(axis=1), stops.argmax(axis=1) + 1,
                   stops.shape[1])
    paths.raise_failures(until=tau)
    costs = (tau - 1) * paths.operating_cost \
        + paths.stopping_costs[np.arange(tau.size), tau - 1]
    return tau, costs


def policy_costs(scenario, params: PolicyParams, seeds: Sequence[int],
                 initial_belief: Belief | None = None) -> np.ndarray:
    """Sample costs of a parametrized policy, one per seed.

    Equals ``rollout(scenario, params, s).sample_cost`` for each seed
    ``s`` up to round-off; the paths are simulated and scored chunk by
    chunk, so memory stays bounded however many seeds there are.
    """
    return np.concatenate([
        score_paths(batch, params)[1]
        for batch in _path_chunks(scenario, seeds, initial_belief)])


def _eval_seeds(seed: int, n_rollouts: int) -> list[int]:
    # Rollout 0 reuses the caller's seed so a single-rollout evaluation
    # matches rollout() exactly.
    if n_rollouts < 1:
        raise ContractError("need at least one rollout")
    return [seed] + [child_seed(seed, "eval.rollout", b)
                     for b in range(1, n_rollouts)]


def evaluate_cost(scenario, policy: PolicyLike, seed: int, n_rollouts: int,
                  initial_belief: Belief | None = None) -> float:
    """Monte-Carlo mean sample cost over decorrelated rollout streams.

    PolicyParams are scored on the batched path engine, callables on the
    scalar rollout loop.
    """
    seeds = _eval_seeds(seed, n_rollouts)
    if isinstance(policy, PolicyParams):
        costs = policy_costs(scenario, policy, seeds, initial_belief)
    else:
        costs = [rollout(scenario, policy, s,
                         initial_belief=initial_belief).sample_cost
                 for s in seeds]
    return float(np.mean(costs))


def rollout_objective(scenario, layout: ParamLayout, n_rollouts: int,
                      initial_belief: Belief | None = None) -> Objective:
    """Objective closure mapping (phi, seed) to the evaluated cost.

    Equals ``evaluate_cost`` on ``layout.build(phi)``. The path batch of
    the last seed is kept, so calls that share a seed, such as the two
    sides of an SPSA gradient estimate or the nominees of one re-rank
    seed, share one simulation.
    """
    last: dict = {}  # seed -> PathBatch, one slot

    def objective(phi: np.ndarray, seed: int) -> float:
        if seed not in last:
            last.clear()
            last[seed] = _simulate(scenario, _eval_seeds(seed, n_rollouts),
                                   initial_belief)
        _, costs = score_paths(last[seed], layout.build(phi))
        return float(np.mean(costs))

    return objective


def rademacher(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2, size=dim) * 2.0 - 1.0


def spsa_gradient(phi: np.ndarray, n: int, schedule: SpsaSchedule,
                  objective: Objective, seed: int,
                  direction: np.ndarray | None = None) -> np.ndarray:
    """Two-sided random-direction gradient estimate at iteration n.

    Both perturbed evaluations receive the same evaluation seed, so the
    detection streams are common to the plus and minus sides.
    """
    phi = np.asarray(phi, dtype=float)
    if direction is None:
        direction = rademacher(phi.shape[0], stream(seed, "spsa.direction", n))
    else:
        direction = np.asarray(direction, dtype=float)
    omega_n = schedule.perturbation(n)
    eval_seed = child_seed(seed, "spsa.eval", n)
    j_plus = objective(phi + omega_n * direction, eval_seed)
    j_minus = objective(phi - omega_n * direction, eval_seed)
    return (j_plus - j_minus) / (2.0 * omega_n) * direction


@dataclass
class TraceRecord:
    restart: int
    iteration: int
    phi: np.ndarray
    cost: float


@dataclass
class SpsaResult:
    best_phi: np.ndarray
    best_cost: float
    best_restart: int
    best_iteration: int
    trace: list = field(default_factory=list)
    best_params: PolicyParams | None = None


def spsa_minimize(objective: Objective, initial_phis: Sequence[np.ndarray],
                  schedule: SpsaSchedule, seed: int) -> SpsaResult:
    """Run the stochastic-approximation recursion from several starts.

    Each restart evaluates the running iterate once per iteration and
    nominates the iterate minimizing a trailing-window mean (raw sample
    costs are too noisy to rank directly; a window is eligible only
    once full, so single lucky draws cannot win). The per-restart
    nominees are then re-ranked on a common, larger evaluation. Every
    restart follows the schedule's gain sequences as given: omega and
    epsilon are absolute, whatever the magnitude of the start. A
    non-finite cost or iterate aborts the restart, not the search.
    """
    if len(initial_phis) == 0:
        raise ContractError("need at least one initial condition")
    result = SpsaResult(best_phi=None, best_cost=np.inf, best_restart=-1,
                        best_iteration=-1)
    min_window = min(schedule.smooth_window, schedule.n_iterations + 1)
    nominees = []  # (phi, restart, iteration)
    for r, phi0 in enumerate(initial_phis):
        phi = np.array(phi0, dtype=float)
        restart_seed = child_seed(seed, "spsa.restart", r)
        window: list[float] = []
        local_best = None
        local_cost = np.inf
        for n in range(schedule.n_iterations + 1):
            cost = objective(phi, child_seed(restart_seed, "spsa.iterate", n))
            result.trace.append(TraceRecord(r, n, phi.copy(), cost))
            if not np.isfinite(cost):
                break
            window.append(cost)
            smoothed = float(np.mean(window[-schedule.smooth_window:]))
            if len(window) >= min_window and smoothed < local_cost:
                local_cost = smoothed
                local_best = (phi.copy(), r, n)
            if n == schedule.n_iterations:
                break
            grad = spsa_gradient(phi, n, schedule, objective, restart_seed)
            phi = phi - schedule.step_size(n) * grad
            if not np.all(np.isfinite(phi)):
                break
        if local_best is not None:
            nominees.append(local_best)
    if not nominees:
        raise NumericalError("every restart produced non-finite costs")
    rerank_seed = child_seed(seed, "spsa.rerank")
    # Seed by seed, so an objective that keeps its last seed's simulation
    # simulates each re-rank batch once for all nominees.
    rerank = [[objective(phi, child_seed(rerank_seed, "rep", i))
               for phi, _, _ in nominees] for i in range(8)]
    for (phi, r, n), costs in zip(nominees, zip(*rerank)):
        score = np.mean(costs)
        if score < result.best_cost:
            result.best_cost = float(score)
            result.best_phi = phi
            result.best_restart = r
            result.best_iteration = n
    return result


def spsa_optimize(scenario, layout: ParamLayout,
                  initial_phis: Sequence[np.ndarray] | None,
                  schedule: SpsaSchedule, seed: int,
                  initial_belief: Belief | None = None) -> SpsaResult:
    """Optimize a policy family on a scenario.

    When ``initial_phis`` is None, restarts come from a random search:
    ``n_restarts * (1 + n_screen)`` uniform candidates are drawn,
    evaluated once each, and the best ``n_restarts`` seed the
    stochastic-approximation runs. The search converges only locally,
    so screening starts matters as much as refining them.
    """
    objective = rollout_objective(scenario, layout,
                                  schedule.rollouts_per_eval,
                                  initial_belief=initial_belief)
    if initial_phis is None:
        rng = stream(seed, "spsa.init")
        n_candidates = schedule.n_restarts * (1 + schedule.n_screen)
        candidates = [layout.random_init(rng) for _ in range(n_candidates)]
        if schedule.n_screen > 0:
            screen_seed = child_seed(seed, "spsa.screen")
            scores = [objective(phi, child_seed(screen_seed, "cand", i))
                      for i, phi in enumerate(candidates)]
            order = np.argsort(scores)[:schedule.n_restarts]
            initial_phis = [candidates[i] for i in order]
        else:
            initial_phis = candidates[:schedule.n_restarts]
    result = spsa_minimize(objective, initial_phis, schedule, seed)
    result.best_params = layout.build(result.best_phi)
    return result


@dataclass(frozen=True)
class StopAt:
    """Deterministic policy that stops at epoch ``k``, or at the horizon.

    A callable (belief, epoch) -> Action for ``rollout``; the path
    engine reads ``k`` directly.
    """

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ContractError("k_stop must be at least 1")

    def __call__(self, belief: Belief, epoch: int) -> Action:
        return Action.STOP if epoch >= self.k else Action.CONTINUE


def stop_at(k_stop: int) -> StopAt:
    """Deterministic policy that stops at a pre-specified epoch."""
    return StopAt(k_stop)


def periodic_policy_cost(scenario, k_stop: int, seed: int,
                         n_rollouts: int,
                         initial_belief: Belief | None = None) -> float:
    """Mean sample cost of the stop-at-k_stop policy."""
    if not 1 <= k_stop <= scenario.tau_max:
        raise ContractError("k_stop must lie in [1, tau_max]")
    return evaluate_cost(scenario, stop_at(k_stop), seed, n_rollouts,
                         initial_belief=initial_belief)


def periodic_cost_curve(scenario, seed: int, n_rollouts: int,
                        k_max: int | None = None,
                        initial_belief: Belief | None = None) -> np.ndarray:
    """Sample costs of every deterministic stopping time in one sweep.

    Returns an (n_rollouts, k_max) array whose [b, k-1] entry equals,
    up to round-off, periodic_policy_cost's underlying sample for the
    same seed, rollout index and k. A view on the batched path engine
    (``simulate_paths``): each rollout's path is simulated once, chunk
    by chunk, and its stopping costs serve every k. periodic_policy_cost
    keeps the scalar ``rollout`` loop, as do other callable policies, so
    the curve and the per-k cost stay independent and each checks the
    other. Any numerical failure within the horizon raises
    NumericalError.
    """
    k_max = scenario.tau_max if k_max is None else k_max
    if not 1 <= k_max <= scenario.tau_max:
        raise ContractError("k_max must lie in [1, tau_max]")
    stopping_costs = []
    for batch in _path_chunks(scenario, _eval_seeds(seed, n_rollouts),
                              initial_belief):
        batch.raise_failures()
        stopping_costs.append(batch.stopping_costs[:, :k_max])
    return np.arange(k_max) * scenario.weights.operating_cost \
        + np.concatenate(stopping_costs)
