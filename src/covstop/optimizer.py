"""Rollout cost evaluation and the SPSA policy-parameter search.

Given its seed, a rollout's belief path does not depend on the policy:
detections are drawn for every target at every epoch and the priors are
deterministic. The batched path engine uses that. ``_path_chunks`` runs
the Riccati/Lyapunov recursion for many seeds at once, calling
``filter_core``'s steps once per epoch on a stacked
(1 + paths, targets, m, m) state whose row 0 is the prior shared by
every path, and records each path's log-determinants and stopping cost
at every epoch. Every caller names the policy its chunks are for.
Under PolicyParams the engine checks the stopping rule every few epochs
and ends a chunk once every path has stopped, so a ``PathBatch``'s
epoch axis may end before the horizon; ``StopAt(k)`` runs k epochs, and
``StopAt(tau_max)`` the whole horizon. ``score_paths`` then scores a
policy on one chunk. For a parametrized policy the decision statistic
is weighed from per-covariance features (eigenvalues, or the matrices
for quadform) that the batch computes once and keeps, and tau is the
first epoch where the statistic reaches 1; ``StopAt(k)`` stops every
path at k. The sample cost is (tau - 1) times the operating cost plus
the stopping cost at tau. Views built on the engine, all chunk by
chunk: ``policy_costs`` and ``evaluate_cost``, which stop each chunk at
tau, and ``periodic_cost_curve`` and the SPSA objective, which score
many policies on full-horizon chunks. The SPSA search minimizes the
mean sample cost over the unconstrained policy parameters with a
two-sided simultaneous-perturbation gradient estimate; its two
perturbed evaluations share one simulation and its features.

``gmti.run_macro_cycles`` is a view on the engine too: it simulates one
path per cycle, stopped at tau, from the cycle's carried posteriors;
every other view starts from the scenario's own belief. ``rollout``,
an epoch-by-epoch loop with one belief object per epoch, is the scalar
reference the engine is checked against. Its one library caller is
``periodic_policy_cost``, kept independent of ``periodic_cost_curve``;
nothing the CLI runs reaches either. The benchmark pins both by name:
its traced run wraps ``rollout`` and its sweep check recomputes costs
with ``periodic_policy_cost``.

Determinism: everything is driven by named Philox streams, so identical
(scenario, params, seed) inputs reproduce rollouts bit for bit, and the
engine draws each seed's detections exactly as ``rollout`` does. The two
perturbed evaluations inside one gradient estimate share their detection
streams (common random numbers), which keeps the estimate exactly zero
for policy-independent objectives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ContractError, NumericalError
from .filter_core import correct, logdets, moment_blocks, predict
from .observability import (Belief, aggregate_rivals, belief_step,
                            stopping_cost)
from .policy import (Action, ParamLayout, PolicyFamily, PolicyParams,
                     covariance_features, decide, weigh_features)
from .streams import child_seed, stream

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
        if not all(0.0 < v < np.inf
                   for v in (self.omega, self.epsilon, self.s_offset)):
            raise ContractError("omega, epsilon and s_offset must be finite "
                                "and positive")
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


def rollout(scenario, policy: PolicyParams | Callable[[Belief, int], Action],
            seed: int, initial_belief: Belief | None = None) -> RolloutResult:
    """Simulate one episode of the stopping problem, the scalar reference.

    The first belief update (epoch 1) is free of operating cost; the
    sample cost is (tau - 1) times the operating cost plus the stopping
    cost at the stopping belief. Detection draws for all targets are
    consumed every epoch regardless of priorities, so the event stream
    is policy independent.
    """
    if scenario.tau_max < 1:
        raise ContractError("tau_max must be at least 1")
    decider = (policy if not isinstance(policy, PolicyParams)
               else lambda belief, epoch: decide(belief, policy))
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
# Epochs simulated between two checks of a policy's stopping rule; a
# chunk runs on for fewer than this many epochs after its last path has
# stopped. Smaller blocks waste fewer epochs but pay for more checks.
_STOP_BLOCK = 8


@dataclass
class PathBatch:
    """Belief paths of a batch of seeds.

    Axis 0 indexes seeds, axis 1 epochs: index k - 1 holds the belief
    after the k-th update. Axis 1 ends where the policy the chunk was
    simulated for needs it to (see ``_path_chunks``), which may be
    before the ``horizon``. ``failed_at`` holds each path's first epoch
    whose covariance update failed or left a non-positive determinant,
    0 if there is none; a failed path's later entries are placeholders.

    ``posteriors`` and ``priors`` (and their log-determinants) are
    views of the chunk's state buffer, in which the priors are row 0.
    ``features`` keeps the ``covariance_features`` of the posteriors and
    priors once something has computed them: the engine's stop check,
    or the first call for a family of the same kind (the eigen families
    share theirs).
    """

    a: int
    horizon: int
    operating_cost: float
    detections: np.ndarray  # (B, T, L) applied-detection flags
    posteriors: np.ndarray  # (B, T, L, m, m)
    priors: np.ndarray  # (T, L, m, m), shared by every path
    logdet_posteriors: np.ndarray  # (B, T, L)
    logdet_priors: np.ndarray  # (T, L)
    stopping_costs: np.ndarray  # (B, T)
    failed_at: np.ndarray  # (B,)
    # feature kind -> (K, B, T, L) and (K, T, L) features
    _features: dict = field(default_factory=dict, init=False, repr=False)

    def features(self, family: PolicyFamily) -> tuple[np.ndarray, np.ndarray]:
        """``covariance_features`` of the posteriors and the priors."""
        kind = _feature_kind(family)
        if kind not in self._features:
            self._features[kind] = (
                covariance_features(self.posteriors, family),
                covariance_features(self.priors, family))
        return self._features[kind]

    def raise_failures(self, until: np.ndarray | None = None) -> None:
        """NumericalError for paths that failed at or before ``until``.

        ``until`` is a per-path epoch; None means every simulated epoch.
        """
        failed = self.failed_at > 0
        if until is not None:
            failed &= self.failed_at <= until
        if failed.any():
            raise NumericalError(
                f"covariance update failed at epoch "
                f"{int(self.failed_at[failed].min())} on {int(failed.sum())} "
                f"of {failed.size} paths")


def _feature_kind(family: PolicyFamily) -> str:
    """Families with equal ``covariance_features`` share a kind."""
    return "entries" if family is PolicyFamily.QUADFORM else "eigenvalues"


def _path_chunks(scenario, seeds: Sequence[int],
                 policy: PolicyParams | StopAt, *,
                 belief: Belief | None = None,
                 models: Sequence | None = None,
                 priorities: np.ndarray | None = None
                 ) -> Iterator[PathBatch]:
    """Simulate the seeds' paths in chunks of about _CHUNK_ENTRIES.

    ``policy`` is the one policy the chunks will be scored with. Under
    ``StopAt(k)`` every chunk ends at epoch min(k, tau_max), so
    ``StopAt(tau_max)`` gives chunks any policy can be scored on. Under
    PolicyParams the decision statistic is evaluated every _STOP_BLOCK
    epochs, and a chunk ends at the first check by which every one of
    its paths has reached 1 (or at the horizon); the features the check
    computed stay in the batch. Chunk sizes do not depend on the policy.

    A chunk simulates one (1 + paths, targets, m, m) state: row 0 is the
    deterministic prior, shared by every path, and rows 1.. are the
    paths' posteriors. Each epoch makes one stacked ``predict`` and one
    ``logdets`` call for priors and posteriors together. It corrects
    only the span from the first to the last target of positive
    priority, whose moment blocks are built once per call: one
    ``correct`` of the span's previous posteriors, whose result replaces
    the prediction where the epoch's detection mask is set, and none at
    all on an epoch where no path detects a measured target. Each stop
    check makes one ``covariance_features`` call. These are
    ``filter_core``'s steps behind lyapunov_update and riccati_update,
    which give each matrix of a stack the bits it gets on its own, so
    every chunk recomputes the same priors. The batch's priors and
    posteriors are views of the chunk's state buffer.

    ``belief`` replaces the scenario's initial belief, and ``models``
    and ``priorities`` replace its own without being validated again:
    the macro cycles pass each cycle's, which were validated when they
    were built. Seed ``s`` draws its detections from the same stream as
    ``rollout(scenario, policy, s)``. Failures are recorded in each
    batch's ``failed_at``, not raised: a non-positive determinant, or a
    moment matrix that is not positive definite (a non-PD innovation
    covariance or posterior) where a detection was applied; a bad prior
    fails every path. An empty ``seeds`` raises ContractError on the
    first ``next``.
    """
    seeds = list(seeds)
    if not seeds:
        raise ContractError("need at least one seed")
    belief = scenario.initial_belief() if belief is None else belief
    models = scenario.models if models is None else models
    n_targets, horizon = len(models), scenario.tau_max
    if belief.n_targets != n_targets:
        raise ContractError("belief and scenario disagree on target count")
    if len({(m.state_dim, m.obs_dim) for m in models}) != 1:
        raise ContractError("batched paths need one state and one "
                            "observation dimension for every target")
    priorities = np.asarray(scenario.priorities if priorities is None
                            else priorities, dtype=float)
    measurable = priorities > 0.0
    p_d = np.array([m.p_d for m in models])
    f = np.array([m.F for m in models])
    q = np.array([m.Q for m in models])
    # The span of measured targets, a basic slice that reads and writes
    # views. A zero-priority target inside it is corrected with an unused
    # placeholder noise: its detections are always masked out.
    span = np.flatnonzero(measurable)
    measured = slice(span[0], span[-1] + 1) if span.size else slice(0, 0)
    h = np.array([m.H for m in models])
    r = np.array([m.effective_noise(nu) if nu > 0.0 else m.r_base
                  for m, nu in zip(models, priorities)])
    g, d = moment_blocks(f[measured], h[measured], q[measured], r[measured])
    weights = scenario.weights

    # Epochs a chunk may need, and how many it runs between stop checks.
    checked = isinstance(policy, PolicyParams)
    last = horizon if checked else min(policy.k, horizon)
    block = _STOP_BLOCK if checked else last

    start_prior = np.array(belief.priors)
    start_post = np.array(belief.posteriors)
    eye = np.eye(start_post.shape[-1])
    chunk_size = max(1, _CHUNK_ENTRIES // (horizon * start_post.size))
    for start in range(0, len(seeds), chunk_size):
        chunk = seeds[start:start + chunk_size]
        n_paths = len(chunk)
        # The state buffers come first: a horizon too long for memory
        # fails here, before any detection is drawn.
        states = np.empty((1 + n_paths, last) + start_post.shape)
        logdet_states = np.empty((1 + n_paths, last, n_targets))
        draws = np.array([stream(s, "rollout.detect").random(
            (last, n_targets)) for s in chunk])
        detections = (draws < p_d) & measurable
        hits = detections[..., measured]  # (paths, epochs, measured)
        any_hit = hits.any(axis=(0, 2))
        no_hits = np.zeros((n_paths, hits.shape[-1]), dtype=bool)
        # Each (m, m) matrix must be C-contiguous in its last two axes
        # (the path axis must not be innermost): on other strides numpy's
        # stacked matmul may not give each matrix the bits it gets on its
        # own. Slicing the leading axes keeps this.
        state = np.empty(states[:, 0].shape)
        state[0], state[1:] = start_prior, start_post
        block_features = []
        failed_at = np.zeros(n_paths, dtype=int)
        stopped = np.zeros(n_paths, dtype=bool)
        end = 0
        while end < last and not stopped.all():
            begin, end = end, min(end + block, last)
            for k in range(begin, end):
                predicted = predict(state, f, q)
                post = predicted[1:]
                hit = bad = no_hits
                if any_hit[k]:
                    hit = hits[:, k]
                    corrected, bad = correct(state[1:, measured], g, d)
                    post[:, measured] = np.where(hit[..., None, None],
                                                 corrected, post[:, measured])
                state = predicted
                logdet, bad_dets = logdets(state)
                if bad_dets.any() or bad.any():
                    failed = (bad_dets[1:].any(axis=1)
                              | (bad & hit).any(axis=1) | bad_dets[0].any())
                    failed_at[failed & (failed_at == 0)] = k + 1
                    post[failed] = eye  # keep failed paths finite
                states[:, k] = state
                logdet_states[:, k] = logdet
            if checked:
                features = covariance_features(states[:, begin:end],
                                               policy.family)
                block_features.append(features)
                stat = weigh_features(features[:, 1:], features[:, 0],
                                      belief.a, policy)
                stopped |= (stat >= 1.0).any(axis=1)
        states, logdet_states = states[:, :end], logdet_states[:, :end]
        with np.errstate(invalid="ignore"):  # inf - inf on failed paths
            infos = weights.alpha * logdet_states[0] \
                - weights.beta * logdet_states[1:]
        batch = PathBatch(
            a=belief.a, horizon=horizon, operating_cost=weights.operating_cost,
            detections=detections[:, :end], posteriors=states[1:],
            priors=states[0], logdet_posteriors=logdet_states[1:],
            logdet_priors=logdet_states[0],
            stopping_costs=aggregate_rivals(infos, belief.a, weights.case),
            failed_at=failed_at)
        if checked:
            features = np.concatenate(block_features, axis=-2)
            batch._features[_feature_kind(policy.family)] = (
                features[:, 1:], features[:, 0])
        yield batch


def score_paths(paths: PathBatch, policy: PolicyParams | StopAt
                ) -> tuple[np.ndarray, np.ndarray]:
    """Stopping epochs and sample costs of a policy on simulated paths.

    Under ``StopAt(k)`` tau is min(k, horizon) on every path. Under
    PolicyParams tau is the first epoch whose decision statistic reaches
    1, or the horizon if none does; the statistic is weighed from the
    batch's cached features, so scoring many policies on one batch
    decomposes each covariance once. As in ``rollout``, a path's
    numerical failure raises NumericalError only when it happens at or
    before its tau. A batch simulated for another policy may end before
    some path's tau; that raises ContractError.
    """
    if isinstance(policy, StopAt):
        tau = np.full(paths.failed_at.size, min(policy.k, paths.horizon))
    else:
        post, prior = paths.features(policy.family)
        stops = weigh_features(post, prior, paths.a, policy) >= 1.0
        tau = np.where(stops.any(axis=1), stops.argmax(axis=1) + 1,
                       paths.horizon)
    if tau.max() > paths.stopping_costs.shape[1]:
        raise ContractError("the paths end before this policy stops; "
                            "simulate them for it or for the whole horizon")
    paths.raise_failures(until=tau)
    costs = (tau - 1) * paths.operating_cost \
        + paths.stopping_costs[np.arange(tau.size), tau - 1]
    return tau, costs


def policy_costs(scenario, policy: PolicyParams | StopAt,
                 seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Stopping epochs and sample costs of a policy, one per seed.

    Equals ``rollout(scenario, policy, s)``'s tau and sample cost for
    each seed ``s``, costs up to round-off; the paths are simulated for
    this policy and scored chunk by chunk, so memory stays bounded
    however many seeds there are, and no chunk runs far past its last
    stop.
    """
    scored = [score_paths(batch, policy) for batch in
              _path_chunks(scenario, seeds, policy)]
    return (np.concatenate([tau for tau, _ in scored]),
            np.concatenate([costs for _, costs in scored]))


def _eval_seeds(seed: int, n_rollouts: int) -> list[int]:
    # Rollout 0 reuses the caller's seed so a single-rollout evaluation
    # matches rollout() exactly.
    if n_rollouts < 1:
        raise ContractError("need at least one rollout")
    return [seed] + [child_seed(seed, "eval.rollout", b)
                     for b in range(1, n_rollouts)]


def evaluate_cost(scenario, policy: PolicyParams | StopAt, seed: int,
                  n_rollouts: int) -> float:
    """Monte-Carlo mean sample cost over decorrelated rollout streams.

    The mean of ``policy_costs``; with one rollout it equals
    ``rollout(scenario, policy, seed).sample_cost`` up to round-off.
    """
    _, costs = policy_costs(scenario, policy, _eval_seeds(seed, n_rollouts))
    return float(np.mean(costs))


def rollout_objective(scenario, layout: ParamLayout,
                      n_rollouts: int) -> Objective:
    """Objective closure mapping (phi, seed) to the evaluated cost.

    Equals ``evaluate_cost`` on ``layout.build(phi)``: the mean of the
    ``score_paths`` costs over the seed's chunks. The last seed's
    full-horizon chunks are kept with their features, so calls that
    share a seed, such as the two sides of an SPSA gradient estimate or
    the nominees of one re-rank seed, share one simulation and one
    eigendecomposition of each covariance.
    """
    last: dict = {}  # seed -> list of PathBatch chunks, one slot

    def objective(phi: np.ndarray, seed: int) -> float:
        if seed not in last:
            last.clear()
            last[seed] = list(_path_chunks(scenario,
                                           _eval_seeds(seed, n_rollouts),
                                           StopAt(scenario.tau_max)))
        policy = layout.build(phi)
        return float(np.mean(np.concatenate(
            [score_paths(batch, policy)[1] for batch in last[seed]])))

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


def spsa_optimize(scenario, layout: ParamLayout, schedule: SpsaSchedule,
                  seed: int) -> SpsaResult:
    """Optimize a policy family on a scenario.

    Restarts come from a random search: ``n_restarts * (1 + n_screen)``
    uniform candidates are drawn, evaluated once each, and the best
    ``n_restarts`` seed the stochastic-approximation runs. The search
    converges only locally, so screening starts matters as much as
    refining them.
    """
    objective = rollout_objective(scenario, layout, schedule.rollouts_per_eval)
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

    The path engine and ``score_paths`` read ``k`` directly; the scalar
    reference ``rollout`` calls it as a (belief, epoch) -> Action.
    """

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ContractError("k_stop must be at least 1")

    def __call__(self, belief: Belief, epoch: int) -> Action:
        return Action.STOP if epoch >= self.k else Action.CONTINUE


def periodic_policy_cost(scenario, k_stop: int, seed: int,
                         n_rollouts: int) -> float:
    """Mean sample cost of stop-at-k_stop on the scalar ``rollout`` loop."""
    if not 1 <= k_stop <= scenario.tau_max:
        raise ContractError("k_stop must lie in [1, tau_max]")
    return float(np.mean([rollout(scenario, StopAt(k_stop), s).sample_cost
                          for s in _eval_seeds(seed, n_rollouts)]))


def periodic_cost_curve(scenario, seed: int, n_rollouts: int,
                        k_max: int | None = None) -> np.ndarray:
    """Sample costs of every deterministic stopping time in one sweep.

    Returns an (n_rollouts, k_max) array whose [b, k-1] entry equals,
    up to round-off, periodic_policy_cost's underlying sample for the
    same seed, rollout index and k. A view on the batched path engine:
    each rollout's path is simulated once under ``StopAt(tau_max)``,
    chunk by chunk, and its stopping costs serve every k.
    periodic_policy_cost keeps the scalar ``rollout`` loop, so the curve
    and the per-k cost stay independent and each checks the other. Any
    numerical failure within the horizon, even after k_max, raises
    NumericalError.
    """
    k_max = scenario.tau_max if k_max is None else k_max
    if not 1 <= k_max <= scenario.tau_max:
        raise ContractError("k_max must lie in [1, tau_max]")
    stopping_costs = []
    for batch in _path_chunks(scenario, _eval_seeds(seed, n_rollouts),
                              StopAt(scenario.tau_max)):
        batch.raise_failures()
        stopping_costs.append(batch.stopping_costs[:, :k_max])
    return np.arange(k_max) * scenario.weights.operating_cost \
        + np.concatenate(stopping_costs)
