"""Monotone parametrized stop/continue policies.

Four families: three linear-in-eigenvalue rules that differ in how they
aggregate the non-priority targets (max, min, sum) and one quadratic
form in the covariances with unit-norm direction vectors. Nonnegative
(respectively unit-norm) parameter vectors are necessary and sufficient
for the decision to be monotone in the covariances: raising the priority
target's posterior or another target's prior can only move the decision
from stop toward continue, and raising another target's posterior or the
priority target's prior can only move it from continue toward stop.

The eigen families are optimized through the elementwise square
reparametrization, the quadratic family through spherical coordinates,
so the search space is unconstrained in both cases.

Every policy the CLI runs, and ``verify_monotone``, decides through
``covariance_features`` and ``weigh_features`` on stacks of covariances.
``decision_statistic`` and ``decide`` compute the same statistic one
``Belief`` at a time: the scalar reference for tests and ``rollout``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .errors import ContractError
from .filter_core import eigenvalues_sorted, symmetrize
from .observability import Belief, StoppingCase, aggregate_rivals
from .sampling import random_pd, random_psd, sample_blocks
from .streams import stream


class Action(IntEnum):
    STOP = 1
    CONTINUE = 2


class PolicyFamily(Enum):
    EIGEN_MAX = "eigen-max"
    EIGEN_MIN = "eigen-min"
    EIGEN_SUM = "eigen-sum"
    QUADFORM = "quadform"


_EIGEN_FAMILIES = (PolicyFamily.EIGEN_MAX, PolicyFamily.EIGEN_MIN,
                   PolicyFamily.EIGEN_SUM)
# How weigh_features aggregates the rival targets; the rest sum.
_RIVAL_AGGREGATE = {PolicyFamily.EIGEN_MAX: StoppingCase.MAX_DIFF,
                    PolicyFamily.EIGEN_MIN: StoppingCase.MIN_DIFF}


def reparam_positive(phi: np.ndarray) -> np.ndarray:
    """Elementwise square: unconstrained phi to nonnegative weights.

    An entry too large to square gives an infinite weight, without a
    warning: the search refuses the non-finite costs that follow.
    """
    phi = np.asarray(phi, dtype=float)
    with np.errstate(over="ignore"):
        return phi * phi


def reparam_spherical(phi: np.ndarray) -> np.ndarray:
    """Map m-1 unconstrained angles to a unit vector in R^m.

    theta(1) = cos phi(1), interior components carry a running product
    of sines, and theta(m) closes the product, so the Euclidean norm is
    exactly one ('m' here is len(phi) + 1).
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    m = phi.shape[0] + 1
    theta = np.empty(m)
    sin_prod = 1.0
    for i in range(m - 1):
        theta[i] = sin_prod * np.cos(phi[i])
        sin_prod *= np.sin(phi[i])
    theta[m - 1] = sin_prod
    return theta


@dataclass(frozen=True)
class PolicyParams:
    """Weight vectors for one policy family.

    ``theta`` weighs posteriors, ``theta_bar`` priors; one row per
    target. ``phi`` optionally records the unconstrained vector the
    weights came from.
    """

    family: PolicyFamily
    theta: np.ndarray
    theta_bar: np.ndarray
    phi: np.ndarray | None = None

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        theta_bar = np.asarray(self.theta_bar, dtype=float)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "theta_bar", theta_bar)
        if theta.ndim != 2 or theta.shape != theta_bar.shape:
            raise ContractError("theta and theta_bar must be (L, m) arrays")
        if self.family in _EIGEN_FAMILIES:
            if np.any(theta < 0.0) or np.any(theta_bar < 0.0):
                raise ContractError("eigen-family weights must be nonnegative")
        else:
            norms = np.concatenate([np.linalg.norm(theta, axis=1),
                                    np.linalg.norm(theta_bar, axis=1)])
            if np.any(np.abs(norms - 1.0) > 1e-12):
                raise ContractError("quadform weights must have unit norm")


def _eigen_statistic(belief: Belief, params: PolicyParams) -> float:
    lam_post = [eigenvalues_sorted(p) for p in belief.posteriors]
    lam_prior = [eigenvalues_sorted(p) for p in belief.priors]
    a = belief.a
    lhs = -params.theta[a] @ lam_post[a] + params.theta_bar[a] @ lam_prior[a]
    terms = [params.theta[l] @ lam_post[l] - params.theta_bar[l] @ lam_prior[l]
             for l in range(belief.n_targets) if l != a]
    if params.family is PolicyFamily.EIGEN_MAX:
        return float(lhs + max(terms))
    if params.family is PolicyFamily.EIGEN_MIN:
        return float(lhs + min(terms))
    return float(lhs + sum(terms))


def _quadform_statistic(belief: Belief, params: PolicyParams) -> float:
    a = belief.a
    lhs = (-params.theta[a] @ belief.posteriors[a] @ params.theta[a]
           + params.theta_bar[a] @ belief.priors[a] @ params.theta_bar[a])
    for l in range(belief.n_targets):
        if l == a:
            continue
        lhs += params.theta[l] @ belief.posteriors[l] @ params.theta[l]
        lhs -= params.theta_bar[l] @ belief.priors[l] @ params.theta_bar[l]
    return float(lhs)


def decision_statistic(belief: Belief, params: PolicyParams) -> float:
    """Left-hand side of the stop test; stop fires at values >= 1."""
    if params.family is PolicyFamily.QUADFORM:
        return _quadform_statistic(belief, params)
    return _eigen_statistic(belief, params)


def covariance_features(covariances: np.ndarray,
                        family: PolicyFamily) -> np.ndarray:
    """What ``weigh_features`` needs of each covariance of a stack.

    For (..., L, m, m) covariances, a (K, ..., L) array with one
    contiguous slice per feature: for the eigen families the K = m
    eigenvalues, largest first; for quadform the K = m(m+1)/2 entries on
    and above the diagonal. The covariances must be exactly symmetric,
    as every covariance update leaves them, so none is re-symmetrized
    here.
    """
    if family is PolicyFamily.QUADFORM:
        rows, cols = np.triu_indices(covariances.shape[-1])
        features = covariances[..., rows, cols]
    else:
        # eigvalsh sorts ascending; the weights pair with descending order
        features = np.linalg.eigvalsh(covariances)[..., ::-1]
    return np.ascontiguousarray(np.moveaxis(features, -1, 0))


def _feature_weights(family: PolicyFamily, theta: np.ndarray) -> np.ndarray:
    """(K, L) weights pairing with ``covariance_features``."""
    if family is PolicyFamily.QUADFORM:
        rows, cols = np.triu_indices(theta.shape[1])
        # theta' P theta counts each entry off the diagonal twice
        return (np.where(rows == cols, 1.0, 2.0) * theta[:, rows]
                * theta[:, cols]).T
    return theta.T


def _weighted_sum(features: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # One multiply makes every product; the adds stay left to right.
    products = features * weights.reshape(
        weights.shape[:1] + (1,) * (features.ndim - 2) + weights.shape[1:])
    total = products[0]
    for product in products[1:]:
        total += product
    return total


def weigh_features(post_features: np.ndarray, prior_features: np.ndarray,
                   a: int, params: PolicyParams) -> np.ndarray:
    """decision_statistic over stacks of beliefs, from their features.

    ``post_features`` and ``prior_features`` are ``covariance_features``
    of (..., L, m, m) posterior and prior stacks that broadcast against
    each other; the result has their broadcast leading shape. Callers
    that score many policies on one stack keep the features and pay only
    for this step. It adds the weighted features one by one, left to
    right, with elementwise operations. Those give the same bits
    whatever the leading shape and memory layout of the features, so a
    statistic computed block by block equals the one computed on the
    whole stack (einsum does not promise that). Weights large enough to
    overflow give an infinite or NaN statistic, without a warning; a NaN
    statistic never reaches 1.
    """
    family = params.family
    with np.errstate(over="ignore", invalid="ignore"):
        values = (_weighted_sum(post_features,
                                _feature_weights(family, params.theta))
                  - _weighted_sum(prior_features,
                                  _feature_weights(family, params.theta_bar)))
        return aggregate_rivals(values, a,
                                _RIVAL_AGGREGATE.get(family,
                                                     StoppingCase.AVG_DIFF))


def decide(belief: Belief, params: PolicyParams) -> Action:
    return Action.STOP if decision_statistic(belief, params) >= 1.0 \
        else Action.CONTINUE


@dataclass(frozen=True)
class ParamLayout:
    """How a flat unconstrained vector maps onto PolicyParams.

    ``share_other`` ties all non-priority targets to one weight block
    (their models are identical in the persistent-surveillance setup);
    ``tie_priors`` reuses the posterior weights for the priors. Blocks
    are ordered theta first, then theta_bar, priority target first.
    """

    family: PolicyFamily
    n_targets: int
    state_dim: int
    share_other: bool = False
    tie_priors: bool = False
    a: int = 0

    def __post_init__(self):
        if not 0 <= self.a < self.n_targets:
            raise ContractError(f"priority target {self.a} is not one of "
                                f"the {self.n_targets} targets")

    @property
    def block_size(self) -> int:
        if self.family is PolicyFamily.QUADFORM:
            return max(self.state_dim - 1, 0)
        return self.state_dim

    @property
    def n_theta_blocks(self) -> int:
        return 2 if self.share_other else self.n_targets

    @property
    def n_params(self) -> int:
        blocks = self.n_theta_blocks * (1 if self.tie_priors else 2)
        return blocks * self.block_size

    def _expand(self, blocks: np.ndarray) -> np.ndarray:
        """(n_theta_blocks, m) weight rows to (L, m)."""
        if not self.share_other:
            return blocks
        rows = np.repeat(blocks[1:], self.n_targets, axis=0)
        rows[self.a] = blocks[0]
        return rows

    def build(self, phi: np.ndarray) -> PolicyParams:
        """Each ``block_size`` slice of ``phi`` to a weight row, by
        ``reparam_spherical`` for quadform (no angles, on 1-D states,
        give [1.0]) and ``reparam_positive`` otherwise."""
        phi = np.asarray(phi, dtype=float)
        if phi.shape != (self.n_params,):
            raise ContractError(f"expected {self.n_params} parameters, "
                                f"got {phi.shape}")
        reparam = (reparam_spherical if self.family is PolicyFamily.QUADFORM
                   else reparam_positive)
        n = self.n_theta_blocks
        blocks = phi.reshape(n if self.tie_priors else 2 * n, self.block_size)
        rows = np.array([reparam(b) for b in blocks])
        theta = self._expand(rows[:n])
        theta_bar = theta if self.tie_priors else self._expand(rows[n:])
        return PolicyParams(self.family, theta, theta_bar, phi=phi)

    def random_init(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-1.0, 1.0, size=self.n_params)


def verify_monotone(params: PolicyParams, n_samples: int, seed: int) -> int:
    """Number of sampled decision flips that monotonicity forbids.

    Each sample draws a random belief of the params' (targets, m) shape,
    with priority target 0, and raises one covariance slot in the Loewner
    order (adding A A'). Raising the priority posterior or a rival's
    prior may only move the decision toward continue, any other slot
    only toward stop; valid parameter vectors give 0. The samples are
    decided in blocks (``sample_blocks``), each by the stacked statistic
    the path engine stops on.
    """
    rng = stream(seed, "policy.verify_monotone")
    n_targets, m = params.theta.shape
    count = 0
    for start, stop in sample_blocks(n_samples):
        # (samples, before/after, posteriors then priors, m, m)
        beliefs = np.empty((stop - start, 2, 2 * n_targets, m, m))
        slots = np.empty(stop - start, dtype=int)
        for i in range(stop - start):
            base_scale = rng.uniform(0.3, 3.0)
            for j in range(2 * n_targets):
                beliefs[i, :, j] = random_pd(
                    rng, m, base_scale * rng.uniform(0.5, 2.0))
            slots[i] = slot = rng.integers(2 * n_targets)
            bump = random_psd(rng, m, base_scale * rng.uniform(0.2, 4.0))
            beliefs[i, 1, slot] = symmetrize(beliefs[i, 0, slot] + bump)
        features = covariance_features(beliefs, params.family)
        stops = weigh_features(features[..., :n_targets],
                               features[..., n_targets:], 0, params) >= 1.0
        before, after = stops[:, 0], stops[:, 1]
        toward_continue = (slots == 0) | (slots > n_targets)
        forbidden = np.where(toward_continue, after & ~before,
                             before & ~after)
        count += int(forbidden.sum())
    return count
