"""Mutual-information stopping costs over tracker covariances.

For linear-Gaussian targets the mutual information between a target's
state and its measurement history reduces to a weighted log-determinant
difference of the prior (predictor-only) and posterior covariances. The
stopping cost compares the highest-priority target against the rest
through a designer-chosen aggregator (max, min or sum);
``aggregate_rivals`` takes any stack of per-target values, so the
batched path engine in ``optimizer`` shares it. ``stopping_cost`` and
``belief_step``, the one-epoch belief transition for a given detection
outcome, work on one belief at a time; only the scalar ``rollout``, the
reference the engine is checked against, calls them. The
value-iteration oracle in ``dp_oracle`` computes its own transformed
running cost, which re-centers Bellman's equation so that the stop
action has value zero.

Logs are natural; the per-target weights absorb base changes and the
Gaussian entropy constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ContractError
from .filter_core import (TargetModel, logdets, lyapunov_update,
                          riccati_update)


class StoppingCase(Enum):
    """Aggregator over the non-priority targets in the stopping cost."""

    MAX_DIFF = "max-diff"
    MIN_DIFF = "min-diff"
    AVG_DIFF = "avg-diff"


@dataclass(frozen=True)
class CostWeights:
    """Per-target mutual-information weights plus the operating cost.

    The conditional-entropy variant (all resources on one target) is
    AVG_DIFF with ``alpha`` identically zero. AVG_DIFF uses a plain sum;
    fold any 1/(L-1) normalization into the weights.
    """

    alpha: np.ndarray
    beta: np.ndarray
    operating_cost: float
    case: StoppingCase = StoppingCase.AVG_DIFF

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        if self.alpha.shape != self.beta.shape or self.alpha.ndim != 1:
            raise ContractError("alpha and beta must be 1-D and congruent")
        if np.any(self.alpha < 0.0) or np.any(self.beta < 0.0):
            raise ContractError("alpha and beta must be non-negative")
        if not 0.0 < self.operating_cost < np.inf:
            raise ContractError("operating cost must be finite and positive")

    @property
    def n_targets(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True)
class Belief:
    """Posterior and prior covariances for all targets.

    ``a`` is the index of the highest-priority target. Posteriors evolve
    through the measurement-dependent Riccati update, priors through the
    measurement-free Lyapunov update.
    """

    posteriors: tuple
    priors: tuple
    a: int

    def __post_init__(self):
        object.__setattr__(self, "posteriors", tuple(self.posteriors))
        object.__setattr__(self, "priors", tuple(self.priors))
        if len(self.posteriors) != len(self.priors):
            raise ContractError("posterior and prior lists must align")
        if len(self.posteriors) < 2:
            raise ContractError("a belief needs at least two targets")
        if not 0 <= self.a < len(self.posteriors):
            raise ContractError("highest-priority index out of range")

    @property
    def n_targets(self) -> int:
        return len(self.posteriors)


def mutual_information(prior: np.ndarray, posterior: np.ndarray,
                       alpha: float, beta: float) -> float:
    """alpha * log det(prior) - beta * log det(posterior), natural log."""
    (logdet_prior, logdet_post), bad = logdets(np.array([prior, posterior]))
    if bad.any():
        name = "prior" if bad[0] else "posterior"
        raise ContractError(f"{name} must have positive determinant")
    return alpha * float(logdet_prior) - beta * float(logdet_post)


def _target_infos(belief: Belief, weights: CostWeights) -> np.ndarray:
    if weights.n_targets != belief.n_targets:
        raise ContractError("weights do not match the number of targets")
    return np.array([
        mutual_information(belief.priors[l], belief.posteriors[l],
                           weights.alpha[l], weights.beta[l])
        for l in range(belief.n_targets)
    ])


# The ufunc reduction behind np.max, np.min and np.sum, without their
# Python wrappers.
_RIVAL_REDUCERS = {StoppingCase.MAX_DIFF: np.maximum.reduce,
                   StoppingCase.MIN_DIFF: np.minimum.reduce,
                   StoppingCase.AVG_DIFF: np.add.reduce}


@lru_cache(maxsize=None)
def _rival_index(n_targets: int, a: int) -> np.ndarray:
    """The targets other than ``a``, in order (read-only)."""
    index = np.delete(np.arange(n_targets), a)
    index.flags.writeable = False
    return index


def aggregate_rivals(values: np.ndarray, a: int,
                     case: StoppingCase) -> np.ndarray:
    """Minus the priority target's value plus the rivals' aggregate.

    ``values`` holds one entry per target on its last axis, so any stack
    of them aggregates at once; ``case`` picks max, min or sum over the
    rivals, in target order.
    """
    rivals = values.take(_rival_index(values.shape[-1], a), axis=-1)
    return -values[..., a] + _RIVAL_REDUCERS[case](rivals, axis=-1)


def stopping_cost(belief: Belief, weights: CostWeights) -> float:
    """Aggregated mutual-information difference at the stop action."""
    return float(aggregate_rivals(_target_infos(belief, weights), belief.a,
                                  weights.case))


def belief_step(belief: Belief, detected: Sequence[bool],
                models: Sequence[TargetModel],
                priorities: np.ndarray) -> Belief:
    """One-epoch belief transition for a given detection outcome.

    Posteriors follow the Riccati update when the target has positive
    priority and was detected, the Lyapunov update otherwise (a
    zero-priority target receives no measurements at all). Priors always
    follow the Lyapunov update.
    """
    posts = []
    priors = []
    for l in range(belief.n_targets):
        if priorities[l] > 0.0 and detected[l]:
            posts.append(riccati_update(belief.posteriors[l], models[l],
                                        priorities[l]))
        else:
            posts.append(lyapunov_update(belief.posteriors[l], models[l]))
        priors.append(lyapunov_update(belief.priors[l], models[l]))
    return Belief(tuple(posts), tuple(priors), belief.a)
