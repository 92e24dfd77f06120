"""Rollout cost evaluation and the SPSA policy-parameter search.

Given its seed, a rollout's belief path does not depend on the policy:
detections are drawn for every target at every epoch and the priors are
deterministic. The batched path engine uses that. ``_path_chunks`` runs
the Riccati/Lyapunov recursion for many seeds at once, calling
``filter_core``'s predict and correct once per epoch on a stacked state
of rows: every target's prior, shared by every path, then each path's
posteriors of the targets that can differ from their priors (a target
that is never measured and starts at its prior has none). Everything
else it records is read off the stored rows once per block of epochs:
each path's log-determinants and first failed epoch, and under a policy
its stop check, the two epochs recorded by one rule. Every caller names
the policy its chunks are for. Under PolicyParams the engine checks the
stopping rule every few epochs and ends a chunk once every path has
stopped, so a ``PathBatch``'s epoch axis may end before the horizon;
``StopAt(k)`` runs k epochs, and ``StopAt(tau_max)`` the whole horizon.
``score_paths`` then scores a policy on one chunk. For the policy a
chunk was simulated for, tau is the epoch the engine's checks found.
For another parametrized policy the decision statistic is weighed from
per-covariance features (eigenvalues, or the matrices for quadform)
that the batch computes once and keeps, and tau is the first epoch
where the statistic reaches 1; ``StopAt(k)`` stops every path at k. The
sample cost is the entry at tau of ``PathBatch.sample_costs``, the one
statement of the cost rule: stopping at epoch k costs k - 1 times the
operating cost plus the stopping cost at k. Views built on the engine,
all chunk by chunk: ``policy_costs`` and ``evaluate_cost``, which stop
each chunk at tau, and ``periodic_cost_curve`` and the SPSA objective,
which score many policies on full-horizon chunks. The SPSA
search minimizes the mean sample cost over the unconstrained policy
parameters with a two-sided simultaneous-perturbation gradient
estimate; its two perturbed evaluations share one simulation and its
features.

``gmti.run_macro_cycles`` is a view on the engine too: it simulates one
path per cycle, stopped at tau, from the cycle's carried posteriors,
and reads tau without computing a cost; every other view starts from
the scenario's own belief. ``rollout``, an epoch-by-epoch loop with one
belief object per epoch, is the scalar reference the engine is checked
against. Its one library caller is ``periodic_policy_cost``, kept
independent of ``periodic_cost_curve``; nothing the CLI runs reaches
either. The benchmark pins both by name:
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
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ContractError, NumericalError
from .filter_core import correct, logdets, moment_blocks, predict
from .observability import (Belief, CostWeights, aggregate_rivals,
                            belief_step, stopping_cost)
from .policy import (Action, ParamLayout, PolicyFamily, PolicyParams,
                     covariance_features, decide, weigh_features)
from .streams import child_seed, stream

# An objective maps (phis, seed) to one cost per phi, all scored on the
# seed's rollouts.
Objective = Callable[[Sequence[np.ndarray], int], Sequence[float]]

# SPSA's fixed gains (Spall 1998): iteration n perturbs by
# _OMEGA / (n+1)^_GAMMA and steps by epsilon / (n+2+_S_OFFSET)^_ZETA.
# Nominees are ranked on a trailing mean of _SMOOTH_WINDOW iterate costs.
_OMEGA = 0.2
_GAMMA = 0.602
_S_OFFSET = 10.0
_ZETA = 0.801
_SMOOTH_WINDOW = 32


@dataclass(frozen=True)
class SpsaSchedule:
    """Step gain and batch sizes for the stochastic search: the whole
    budget, which the caller sets (the CLI from its training flags)."""

    epsilon: float
    n_iterations: int
    n_restarts: int
    rollouts_per_eval: int

    def __post_init__(self):
        if not 0.0 < self.epsilon < np.inf:
            raise ContractError("epsilon must be finite and positive")
        if self.n_iterations < 0 or self.n_restarts < 1:
            raise ContractError("need n_iterations >= 0 and n_restarts >= 1")
        if self.rollouts_per_eval < 1:
            raise ContractError("rollouts_per_eval must be at least 1")

    def perturbation(self, n: int) -> float:
        return _OMEGA / (n + 1) ** _GAMMA

    def step_size(self, n: int) -> float:
        # epsilon_{n+1} for the update applied at iteration n.
        return self.epsilon / (n + 2 + _S_OFFSET) ** _ZETA


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


@dataclass(frozen=True)
class _Rows:
    """Where a chunk keeps its covariances, one per row.

    Every target's prior comes first, shared by every path; then, path
    by path, the posteriors of the targets in the span ``distinct``. A
    target outside the span is shared: it is never measured and starts
    with its posterior equal to its prior, and both are only ever
    predicted, each matrix of a stack getting the bits it gets on its
    own; so its posterior equals its prior, bit for bit, on every path
    at every epoch, and it has no posterior row. ``split`` lays out any
    per-row values as a (posteriors, priors) pair.
    """

    n_targets: int
    n_paths: int
    distinct: slice

    @property
    def width(self) -> int:
        return self.distinct.stop - self.distinct.start

    def targets(self) -> np.ndarray:
        """Each row's target."""
        targets = np.arange(self.n_targets + self.n_paths * self.width)
        posterior_rows = targets[self.n_targets:]
        posterior_rows[:] = self.distinct.start \
            + (posterior_rows - self.n_targets) % self.width
        return targets

    def split(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-row values, (..., epochs, rows), as per-target ones: each
        path's posteriors', (..., paths, epochs, targets), a shared
        target's copied from its prior, and the priors', (..., epochs,
        targets). Both are new arrays: neither keeps ``values`` alive."""
        lead, n_epochs = values.shape[:-2], values.shape[-2]
        priors = values[..., :self.n_targets]
        posteriors = np.empty(lead + (self.n_paths, n_epochs, self.n_targets),
                              dtype=values.dtype)
        posteriors[...] = priors[..., None, :, :]
        posteriors[..., self.distinct] = values[..., self.n_targets:].reshape(
            lead + (n_epochs, self.n_paths, self.width)).swapaxes(-3, -2)
        return posteriors, priors.copy()


@dataclass
class PathBatch:
    """Belief paths of a batch of seeds.

    ``rows`` holds each covariance the engine simulated once, laid out
    by ``layout`` (see ``_Rows``); its axis 0 indexes epochs: index
    k - 1 holds the belief after the k-th update. The epoch axis ends
    where ``policy``, the policy the chunk was simulated for, needs it
    to (see ``_path_chunks``), which may be before the ``horizon``.
    ``posteriors`` and ``priors`` show every target, a shared target's
    posteriors being copies of its priors; the log-determinants and
    features are laid out alike, as ``layout.split`` pairs.
    ``sample_costs`` prices a stop at every epoch of every path.
    ``taus`` holds each path's stopping epoch under ``policy``, as the
    engine's stop checks decided it. ``failed_at`` holds each path's
    first epoch whose covariance update failed or left a non-positive
    determinant, 0 if there is none. A failed path's entries from
    ``failed_at`` on (that epoch included, and its sample costs and
    features) are placeholders: the engine finds a failure only at the
    end of the stop block it happened in, and runs the path on from its
    bad state until then.

    ``features`` computes each family's ``covariance_features`` of the
    posteriors and priors on its first call for that family and keeps
    them; the engine's stop checks keep theirs to themselves. They, the
    log-determinants and the sample costs are computed on the rows, so
    a shared target's are its prior's.
    """

    a: int
    horizon: int
    weights: CostWeights
    policy: PolicyParams | StopAt
    taus: np.ndarray  # (B,) stopping epochs under ``policy``
    layout: _Rows
    detections: np.ndarray  # (B, T, L) applied-detection flags
    rows: np.ndarray  # (T, L + B * layout.width, m, m)
    logdet_posteriors: np.ndarray  # (B, T, L)
    logdet_priors: np.ndarray  # (T, L)
    failed_at: np.ndarray  # (B,)
    # PolicyFamily -> (K, B, T, L) and (K, T, L) features
    _features: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def priors(self) -> np.ndarray:  # (T, L, m, m)
        return self.rows[:, :self.layout.n_targets]

    @cached_property
    def posteriors(self) -> np.ndarray:  # (B, T, L, m, m)
        # The entries of each matrix lead, as ``split`` takes them.
        entries, _ = self.layout.split(self.rows.transpose(2, 3, 0, 1))
        return np.ascontiguousarray(entries.transpose(2, 3, 4, 0, 1))

    @cached_property
    def sample_costs(self) -> np.ndarray:  # (B, T)
        """The sample cost of stopping at each epoch k of each path, k - 1
        times the operating cost plus the stopping cost at k, computed on
        first use. An overflow, or a failed path's inf - inf, gives a
        non-finite cost without a warning; callers refuse those."""
        weights = self.weights
        with np.errstate(invalid="ignore", over="ignore"):
            infos = weights.alpha * self.logdet_priors \
                - weights.beta * self.logdet_posteriors
            return np.arange(self.rows.shape[0]) * weights.operating_cost \
                + aggregate_rivals(infos, self.a, weights.case)

    def features(self, family: PolicyFamily) -> tuple[np.ndarray, np.ndarray]:
        """``covariance_features`` of the posteriors and the priors."""
        if family not in self._features:
            self._features[family] = self.layout.split(
                covariance_features(self.rows, family))
        return self._features[family]

    def stop_epochs(self, policy: PolicyParams | StopAt) -> np.ndarray:
        """Each path's stopping epoch under a policy.

        Under ``StopAt(k)`` tau is min(k, horizon) on every path. Under
        PolicyParams tau is the first epoch whose decision statistic
        reaches 1, or the horizon if none does. For ``policy`` itself,
        the one the batch was simulated for, tau is ``taus``, which the
        engine's stop checks decided; any other policy is weighed from
        the batch's cached features, so deciding many policies on one
        batch decomposes each covariance once. As in ``rollout``, a
        path's numerical failure raises NumericalError only when it
        happens at or before its tau. A batch simulated for another
        policy may end before some path's tau; that raises ContractError.
        """
        if policy is self.policy:
            tau = self.taus
        elif isinstance(policy, StopAt):
            tau = np.full(self.failed_at.size, min(policy.k, self.horizon))
        else:
            tau = np.zeros(self.failed_at.size, dtype=int)
            _record_first(tau, weigh_features(*self.features(policy.family),
                                              self.a, policy) >= 1.0, 0)
            tau[tau == 0] = self.horizon
        if tau.max() > self.rows.shape[0]:
            raise ContractError("the paths end before this policy stops; "
                                "simulate them for it or for the whole "
                                "horizon")
        self.raise_failures(until=tau)
        return tau

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


def _record_first(epochs: np.ndarray, mask: np.ndarray, begin: int) -> None:
    """Give each path whose ``epochs`` entry is 0 the first epoch of the
    block after ``begin`` at which its row of the (paths, block) ``mask``
    is set."""
    if mask.any():  # most blocks set nothing; this keeps them cheap
        new = mask.any(axis=1) & (epochs == 0)
        epochs[new] = begin + mask[new].argmax(axis=1) + 1


def _span(mask: np.ndarray) -> slice:
    """The slice from the first to the last True entry of a target mask."""
    index = np.flatnonzero(mask)
    return slice(index[0], index[-1] + 1) if index.size else slice(0, 0)


@dataclass(frozen=True)
class _Dynamics:
    """The targets' models and priorities as the path engine's stacks.

    ``f``, ``f_t`` (F') and ``q`` hold every target's F, F' and Q, and
    ``g``, ``g_t`` (G') and ``d`` the moment blocks of the ``measured``
    span, from the first to the last target of positive priority; a
    zero-priority target inside it gets an unused placeholder noise, as
    its detections are always masked out. Built by ``_dynamics``.
    """

    f: np.ndarray  # (L, m, m)
    f_t: np.ndarray
    q: np.ndarray
    measurable: np.ndarray  # (L,) positive priority
    p_d: np.ndarray  # (L,)
    measured: slice
    g: np.ndarray
    g_t: np.ndarray
    d: np.ndarray

    @property
    def n_targets(self) -> int:
        return self.f.shape[0]


def _dynamics(models: Sequence, priorities: np.ndarray) -> _Dynamics:
    """The path engine's ``_Dynamics`` of models and priorities, which
    are not validated again: ``Scenario`` gives every target one state
    and one observation dimension."""
    priorities = np.asarray(priorities, dtype=float)
    f = np.array([m.F for m in models])
    q = np.array([m.Q for m in models])
    measurable = priorities > 0.0
    measured = _span(measurable)
    h = np.array([m.H for m in models[measured]])
    r = np.array([m.effective_noise(nu) if nu > 0.0 else m.r_base
                  for m, nu in zip(models[measured], priorities[measured])])
    g, d = moment_blocks(f[measured], h, q[measured], r)
    # Each (m, m) matrix must be C-contiguous in its last two axes: on
    # other strides numpy's stacked matmul may not give each matrix the
    # bits it gets on its own. Taking rows of these stacks keeps this.
    return _Dynamics(f=f, f_t=f.swapaxes(-1, -2).copy(), q=q,
                     measurable=measurable,
                     p_d=np.array([m.p_d for m in models]),
                     measured=measured, g=g,
                     g_t=g.swapaxes(-1, -2).copy(), d=d)


def _path_chunks(scenario, seeds: Sequence[int],
                 policy: PolicyParams | StopAt, *,
                 belief: Belief | None = None,
                 dynamics: _Dynamics | None = None
                 ) -> Iterator[PathBatch]:
    """Simulate the seeds' paths in chunks of about _CHUNK_ENTRIES.

    ``policy`` is the one policy the chunks will be scored with. Under
    ``StopAt(k)`` every chunk ends at epoch min(k, tau_max), so
    ``StopAt(tau_max)`` gives chunks any policy can be scored on. Under
    PolicyParams the decision statistic is evaluated every _STOP_BLOCK
    epochs, and a chunk ends at the first check by which every one of
    its paths has reached 1 (or at the horizon); the first epoch at
    which each path reached it is its ``taus`` entry. The checks'
    features are not kept: scoring another policy on the batch computes
    its own (see ``PathBatch.features``). Chunk sizes do not depend on
    the policy.

    A chunk simulates one (rows, m, m) state laid out by ``_Rows``:
    every target's deterministic prior, then each path's posteriors of
    the targets that can differ from their priors, the span from the
    first to the last target that is measured (of positive priority) or
    starts with its posterior unequal to its prior. Each epoch runs
    only the recursion: one stacked ``predict`` of every row, and one
    ``correct`` of the previous posteriors on the span of measured
    targets, whose result replaces the prediction where the epoch's
    detection mask is set; an epoch on which no path detects a measured
    target makes no correction. The stacks of F, F' and Q and the
    measured span's moment blocks G, G' and D come from ``dynamics``
    (see ``_Dynamics``), built once per call unless the caller passes
    them; each chunk takes its rows' F, F' and Q from them. The epochs
    between two stop checks (all of them under ``StopAt``) form a block.
    At its end one ``logdets`` call and, under PolicyParams, one
    ``covariance_features`` call run on its rows, so each shared
    target's covariances are decomposed once, as priors. These are
    ``filter_core``'s steps behind lyapunov_update and riccati_update,
    which give each matrix of a stack the bits it gets on its own, so
    every chunk recomputes the same priors. ``_record_first`` then
    records each path's first failed epoch and, under PolicyParams, its
    first stop, from (paths, epochs) masks of the block.

    ``belief`` replaces the scenario's initial belief, and ``dynamics``
    the ``_dynamics`` of its models and priorities: the macro cycles
    pass each cycle's, built once per orbit location and priority
    target. Seed ``s`` draws its detections from the same stream as
    ``rollout(scenario, policy, s)``. Failures are recorded in each
    batch's ``failed_at``, not raised. A block's failure mask joins a
    moment matrix that is not positive definite (a non-PD innovation
    covariance or posterior) where a detection was applied and a
    non-positive determinant, so a path fails at the earlier of the
    two; a bad prior fails every path. A failed path's posterior rows
    are reset to the identity at the end of its block, so they stay
    finite. An empty ``seeds`` raises ContractError on the first
    ``next``.
    """
    seeds = list(seeds)
    if not seeds:
        raise ContractError("need at least one seed")
    belief = scenario.initial_belief() if belief is None else belief
    if dynamics is None:
        dynamics = _dynamics(scenario.models, scenario.priorities)
    n_targets, horizon = dynamics.n_targets, scenario.tau_max
    if belief.n_targets != n_targets:
        raise ContractError("belief and scenario disagree on target count")
    start_prior = np.array(belief.priors)
    start_post = np.array(belief.posteriors)
    # Basic slices, which read and write views. The measured span lies
    # in the distinct one, and is also taken relative to it.
    measured = dynamics.measured
    distinct = _span(dynamics.measurable
                     | (start_post != start_prior).any(axis=(-2, -1)))
    measured_rows = slice(measured.start - distinct.start,
                          measured.stop - distinct.start)
    g, d, g_t = dynamics.g, dynamics.d, dynamics.g_t

    # Epochs a chunk may need, and how many it runs between stop checks.
    checked = isinstance(policy, PolicyParams)
    last = horizon if checked else min(policy.k, horizon)
    block = _STOP_BLOCK if checked else last

    m = start_post.shape[-1]
    eye = np.eye(m)
    chunk_size = max(1, _CHUNK_ENTRIES // (horizon * start_post.size))
    for start in range(0, len(seeds), chunk_size):
        chunk = seeds[start:start + chunk_size]
        n_paths = len(chunk)
        layout = _Rows(n_targets, n_paths, distinct)
        targets = layout.targets()
        f_rows, f_rows_t = dynamics.f[targets], dynamics.f_t[targets]
        q_rows = dynamics.q[targets]
        by_path = (n_paths, layout.width, m, m)  # a state's posterior rows
        # The state buffers come first: a horizon too long for memory
        # fails here, before any detection is drawn.
        rows = np.empty((last, targets.size, m, m))
        logdet_rows = np.empty((last, targets.size))
        draws = np.array([stream(s, "rollout.detect").random(
            (last, n_targets)) for s in chunk])
        detections = (draws < dynamics.p_d) & dynamics.measurable
        hits = detections[..., measured]  # (paths, epochs, measured)
        any_hit = hits.any(axis=(0, 2))
        # Slicing and reshaping the leading axes keeps each (m, m) matrix
        # C-contiguous (see _dynamics).
        state = np.empty(rows.shape[1:])
        state[:n_targets] = start_prior
        state[n_targets:] = start_post[targets[n_targets:]]
        failed_at = np.zeros(n_paths, dtype=int)
        # Stopping epochs under a checked policy, 0 until a check finds one.
        taus = np.zeros(n_paths, dtype=int)
        end = 0
        while end < last and not taus.all():
            begin, end = end, min(end + block, last)
            # The block's failed (path, epoch) pairs, from both sources.
            failed = np.zeros((n_paths, end - begin), dtype=bool)
            for k in range(begin, end):
                predicted = predict(state, f_rows, q_rows, f_rows_t)
                if any_hit[k]:
                    hit = hits[:, k]
                    previous = state[n_targets:].reshape(by_path)
                    updated = predicted[n_targets:].reshape(by_path)
                    corrected, bad = correct(previous[:, measured_rows],
                                             g, d, g_t)
                    np.copyto(updated[:, measured_rows], corrected,
                              where=hit[..., None, None])
                    if bad is not None:
                        failed[:, k - begin] = (bad & hit).any(axis=1)
                rows[k] = state = predicted
            logdet, bad_dets = logdets(rows[begin:end])
            logdet_rows[begin:end] = logdet
            if bad_dets.any():
                # A bad prior, shared targets' included, fails every path.
                bad_posts, bad_priors = layout.split(bad_dets)
                failed |= bad_posts.any(axis=-1) | bad_priors.any(axis=-1)
            _record_first(failed_at, failed, begin)
            if failed_at.any():
                # keep failed paths finite
                state[n_targets:].reshape(by_path)[failed_at > 0] = eye
            if checked:
                _record_first(taus, weigh_features(*layout.split(
                    covariance_features(rows[begin:end], policy.family)),
                    belief.a, policy) >= 1.0, begin)
        taus[taus == 0] = last
        logdet_posteriors, logdet_priors = layout.split(logdet_rows[:end])
        yield PathBatch(
            a=belief.a, horizon=horizon, weights=scenario.weights,
            policy=policy, taus=taus, layout=layout,
            detections=detections[:, :end], rows=rows[:end],
            logdet_posteriors=logdet_posteriors,
            logdet_priors=logdet_priors, failed_at=failed_at)


def score_paths(paths: PathBatch, policy: PolicyParams | StopAt
                ) -> tuple[np.ndarray, np.ndarray]:
    """Stopping epochs and sample costs of a policy on simulated paths.

    tau is ``paths.stop_epochs(policy)``: the engine's own decision for
    the policy the batch was simulated for, and otherwise weighed from
    the batch's cached features; it raises as that does. Each path's
    sample cost is its ``paths.sample_costs`` entry at tau, which may
    not be finite; callers refuse non-finite costs.
    """
    tau = paths.stop_epochs(policy)
    return tau, paths.sample_costs[np.arange(tau.size), tau - 1]


def policy_costs(scenario, policy: PolicyParams | StopAt,
                 seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Stopping epochs and sample costs of a policy, one per seed.

    Equals ``rollout(scenario, policy, s)``'s tau and sample cost for
    each seed ``s``, costs up to round-off; the paths are simulated for
    this policy and scored chunk by chunk, so memory stays bounded
    however many seeds there are, and no chunk runs far past its last
    stop. A sample cost that is not finite, such as an operating cost
    that overflows over the epochs before tau, raises NumericalError.
    """
    scored = []
    for batch in _path_chunks(scenario, seeds, policy):
        tau, costs = score_paths(batch, policy)
        _check_finite_costs(costs, scenario)
        scored.append((tau, costs))
    return (np.concatenate([tau for tau, _ in scored]),
            np.concatenate([costs for _, costs in scored]))


def _check_finite_costs(costs: np.ndarray, scenario) -> None:
    if not np.all(np.isfinite(costs)):
        raise NumericalError(
            f"a sample cost is not finite (operating cost "
            f"{scenario.weights.operating_cost:g} per epoch)")


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
    """Objective closure mapping (phis, seed) to one cost per phi.

    Each cost equals ``evaluate_cost`` on ``layout.build(phi)``: the mean
    of the ``score_paths`` costs over the seed's chunks. A call simulates
    the seed's full-horizon chunks once, scoring every phi on a chunk
    before it simulates the next, so the two sides of an SPSA gradient
    estimate, or the nominees of one re-rank seed, share one simulation
    and one eigendecomposition of each covariance, and memory holds one
    chunk.
    """
    def objective(phis: Sequence[np.ndarray], seed: int) -> list[float]:
        policies = [layout.build(phi) for phi in phis]
        costs = [[] for _ in policies]
        for batch in _path_chunks(scenario, _eval_seeds(seed, n_rollouts),
                                  StopAt(scenario.tau_max)):
            for policy, scored in zip(policies, costs):
                scored.append(score_paths(batch, policy)[1])
        return [float(np.mean(np.concatenate(scored))) for scored in costs]

    return objective


def rademacher(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2, size=dim) * 2.0 - 1.0


def spsa_gradient(phi: np.ndarray, n: int, schedule: SpsaSchedule,
                  objective: Objective, seed: int) -> np.ndarray:
    """Two-sided random-direction gradient estimate at iteration n.

    The plus and minus sides are scored in one objective call, on one
    evaluation seed, so their detection streams are common.
    """
    phi = np.asarray(phi, dtype=float)
    direction = rademacher(phi.shape[0], stream(seed, "spsa.direction", n))
    omega_n = schedule.perturbation(n)
    j_plus, j_minus = objective(
        [phi + omega_n * direction, phi - omega_n * direction],
        child_seed(seed, "spsa.eval", n))
    return (j_plus - j_minus) / (2.0 * omega_n) * direction


@dataclass
class TraceRecord:
    restart: int
    iteration: int
    phi: np.ndarray
    cost: float


@dataclass
class SpsaResult:
    """The pick, its re-rank mean cost, where it was found, and every
    iterate scored; the pick's policy is ``layout.build(best_phi)``."""

    best_phi: np.ndarray
    best_cost: float
    best_restart: int
    best_iteration: int
    trace: list = field(default_factory=list)


def spsa_minimize(objective: Objective, initial_phis: Sequence[np.ndarray],
                  schedule: SpsaSchedule, seed: int) -> SpsaResult:
    """Run the stochastic-approximation recursion from several starts.

    Each restart evaluates the running iterate once per iteration and
    nominates the iterate minimizing a trailing-window mean (raw sample
    costs are too noisy to rank directly; a window is eligible only
    once full, so single lucky draws cannot win). The per-restart
    nominees are then re-ranked on a common, larger evaluation: eight
    seeds, each scoring every nominee in one objective call. Every
    restart follows the gain sequences as given: the perturbation and
    the step are absolute, whatever the magnitude of the start. A
    non-finite cost or iterate aborts the restart, not the search; a
    search in which no restart, or no nominee's re-rank, has a finite
    cost raises NumericalError.
    """
    if len(initial_phis) == 0:
        raise ContractError("need at least one initial condition")
    result = SpsaResult(best_phi=None, best_cost=np.inf, best_restart=-1,
                        best_iteration=-1)
    min_window = min(_SMOOTH_WINDOW, schedule.n_iterations + 1)
    nominees = []  # (phi, restart, iteration)
    for r, phi0 in enumerate(initial_phis):
        phi = np.array(phi0, dtype=float)
        restart_seed = child_seed(seed, "spsa.restart", r)
        window: list[float] = []
        local_best = None
        local_cost = np.inf
        for n in range(schedule.n_iterations + 1):
            (cost,) = objective(
                [phi], child_seed(restart_seed, "spsa.iterate", n))
            result.trace.append(TraceRecord(r, n, phi.copy(), cost))
            if not np.isfinite(cost):
                break
            window.append(cost)
            smoothed = float(np.mean(window[-_SMOOTH_WINDOW:]))
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
    rerank = [objective([phi for phi, _, _ in nominees],
                        child_seed(rerank_seed, "rep", i)) for i in range(8)]
    for (phi, r, n), costs in zip(nominees, zip(*rerank)):
        score = np.mean(costs)
        if score < result.best_cost:
            result.best_cost = float(score)
            result.best_phi = phi
            result.best_restart = r
            result.best_iteration = n
    if result.best_phi is None:
        raise NumericalError("no nominee has a finite re-rank cost")
    return result


def spsa_optimize(scenario, layout: ParamLayout, schedule: SpsaSchedule,
                  seed: int) -> SpsaResult:
    """Optimize a policy family on a scenario.

    The ``n_restarts`` starts are uniform draws from ``layout.random_init``
    on one stream; ``spsa_minimize`` refines them and picks the result.
    The caller builds the policy: ``layout.build(result.best_phi)``.
    """
    rng = stream(seed, "spsa.init")
    starts = [layout.random_init(rng) for _ in range(schedule.n_restarts)]
    objective = rollout_objective(scenario, layout, schedule.rollouts_per_eval)
    return spsa_minimize(objective, starts, schedule, seed)


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
                        k_max: int | None = None,
                        policy: PolicyParams | None = None
                        ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Sample costs of every deterministic stopping time in one sweep.

    Returns an (n_rollouts, k_max) array whose [b, k-1] entry equals,
    up to round-off, periodic_policy_cost's underlying sample for the
    same seed, rollout index and k. A view on the batched path engine:
    each rollout's path is simulated once under ``StopAt(tau_max)``,
    chunk by chunk, and its first k_max ``sample_costs`` are its row.
    periodic_policy_cost keeps the scalar ``rollout`` loop, so the curve
    and the per-k cost stay independent and each checks the other. Any
    numerical failure within the horizon, even after k_max, raises
    NumericalError, and so does a sample cost that is not finite.

    With ``policy``, returns the curve and that policy's (n_rollouts,)
    sample costs, scored by ``score_paths`` on the same chunks: their
    mean is ``evaluate_cost(scenario, policy, seed, n_rollouts)``.
    """
    k_max = scenario.tau_max if k_max is None else k_max
    if not 1 <= k_max <= scenario.tau_max:
        raise ContractError("k_max must lie in [1, tau_max]")
    curves, sample_costs = [], []
    for batch in _path_chunks(scenario, _eval_seeds(seed, n_rollouts),
                              StopAt(scenario.tau_max)):
        batch.raise_failures()
        curves.append(batch.sample_costs[:, :k_max])
        if policy is not None:
            sample_costs.append(score_paths(batch, policy)[1])
    curve = np.concatenate(curves)
    _check_finite_costs(curve, scenario)
    if policy is None:
        return curve
    costs = np.concatenate(sample_costs)
    _check_finite_costs(costs, scenario)
    return curve, costs
