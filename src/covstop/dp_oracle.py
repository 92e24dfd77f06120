"""Brute-force value iteration for the scalar two-target instance.

With one-dimensional states the covariances are positive scalars and
the stopping problem can be solved to numerical convergence on a
log-spaced grid, giving an optimality baseline for the parametrized
policies and a direct check of the monotone threshold structure.

The Bellman recursion runs in shifted coordinates where stopping is
worth exactly zero: V = min{0, C + E[V(next)]} with C the transformed
running cost and V0 = -Cbar. Next-state covariances leave the grid, so
V is interpolated linearly in log covariance (values clip to the grid
edges); the running cost itself uses exact next values. When the prior
weights are all zero the priors drop out of the cost and the state is
just the posterior pair; otherwise the table extends over deterministic
prior axes as well, at whatever resolution the grids specify.

Both targets' detections are independent and each axis's branch
depends only on its own target's detection, so E[V(next)] factorizes:
each axis applies one probability-averaged interpolation, a stencil of
two taps (gather indices and weights p(branch)*(1-w), p(branch)*w) per
branch with nonzero probability, and the axes are applied one after
another. A sweep runs over blocks of axis-0 rows sized to a fixed byte
budget, so a block's expectation, running cost, clip at zero and
residual stay in cache. Every stencil sum starts from +0.0. The table
equals the outcome sum (every outcome interpolated afresh, weighted and
added) up to rounding in the last bits: the same terms are summed in
another order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ContractError, NumericalError
from .filter_core import TargetModel
from .gmti import Scenario
from .observability import Belief, CostWeights, StoppingCase
from .policy import Action


@dataclass(frozen=True)
class ScalarTarget:
    """One-dimensional target parameters."""

    f: float
    h: float
    q: float
    r: float
    p_d: float

    def __post_init__(self):
        # The maps square f and h, so their squares must be finite too.
        if not np.all(np.isfinite([self.f * self.f, self.h * self.h,
                                   self.q, self.r])):
            raise ContractError("f**2, h**2, q and r must be finite")
        if self.q <= 0.0 or self.r <= 0.0:
            raise ContractError("q and r must be positive")
        if not 0.0 <= self.p_d <= 1.0:
            raise ContractError("p_d must lie in [0, 1]")

    def lyapunov(self, p):
        return self.f**2 * p + self.q

    def riccati_detected(self, p):
        return self.f**2 * p * self.r / (self.h**2 * p + self.r) + self.q


def log_grid(p_min: float, p_max: float, n: int) -> np.ndarray:
    if p_min <= 0.0 or p_max <= p_min or n < 1:
        raise ContractError("need 0 < p_min < p_max and n >= 1")
    return np.geomspace(p_min, p_max, n)


@dataclass(frozen=True)
class ScalarStopModel:
    """Two scalar targets, cost weights and the covariance grids.

    Prior grids are required exactly when some prior weight alpha is
    nonzero; with alpha identically zero the priors cannot influence
    costs and the state collapses to the posterior pair.
    """

    target_a: ScalarTarget
    target_other: ScalarTarget
    weights: CostWeights
    grid_a: np.ndarray
    grid_other: np.ndarray
    grid_prior_a: np.ndarray | None = None
    grid_prior_other: np.ndarray | None = None

    def __post_init__(self):
        if self.weights.n_targets != 2:
            raise ContractError("the oracle handles exactly two targets")
        for name in ("grid_a", "grid_other"):
            g = getattr(self, name)
            object.__setattr__(self, name, np.asarray(g, dtype=float))
        for name in ("grid_a", "grid_other", "grid_prior_a",
                     "grid_prior_other"):
            g = getattr(self, name)
            if g is None:
                continue
            if g[0] <= 0.0 or np.any(np.diff(g) <= 0.0):
                raise ContractError(f"{name} must be positive and ascending")
        if self.needs_priors and (self.grid_prior_a is None
                                  or self.grid_prior_other is None):
            raise ContractError("nonzero alpha weights need prior grids")

    @property
    def needs_priors(self) -> bool:
        return bool(np.any(self.weights.alpha > 0.0))


def make_scalar_model(f=1.0, h=1.0, q=1.0, r=1.0, p_d=0.75, c_nu=0.8,
                      beta=(1.0, 1.0), alpha=(0.0, 0.0),
                      case=StoppingCase.AVG_DIFF, p_d_other=None,
                      p_min=1e-2, p_max=1e3, n_a=128, n_other=128,
                      n_prior=16) -> ScalarStopModel:
    """Convenience builder with shared dynamics for both targets.

    ``p_d_other`` defaults to ``p_d``; set it to 0 for the
    one-filter-plus-predictor configuration where the rival target
    never receives measurements.
    """
    weights = CostWeights(np.asarray(alpha, dtype=float),
                          np.asarray(beta, dtype=float), c_nu, case)
    needs_priors = bool(np.any(weights.alpha > 0.0))
    if p_d_other is None:
        p_d_other = p_d
    return ScalarStopModel(
        target_a=ScalarTarget(f, h, q, r, p_d),
        target_other=ScalarTarget(f, h, q, r, p_d_other),
        weights=weights,
        grid_a=log_grid(p_min, p_max, n_a),
        grid_other=log_grid(p_min, p_max, n_other),
        grid_prior_a=log_grid(p_min, p_max, n_prior) if needs_priors else None,
        grid_prior_other=(log_grid(p_min, p_max, n_prior)
                          if needs_priors else None))


@dataclass(frozen=True)
class _Axis:
    """One state coordinate: grid, cost coefficient and its target."""

    name: str
    grid: np.ndarray
    cbar_coef: float          # coefficient of log(p) in Cbar
    target: ScalarTarget
    branches: bool            # whether detection changes this axis

    def step(self, p, detected: bool):
        """Next covariance: the Riccati map on a detection, else Lyapunov."""
        return (self.target.riccati_detected(p) if detected
                else self.target.lyapunov(p))


def _axes_for(model: ScalarStopModel) -> list[_Axis]:
    w = model.weights
    a, other = model.target_a, model.target_other
    axes = [_Axis("post_a", model.grid_a, float(w.beta[0]), a, True)]
    if model.needs_priors:
        axes.append(_Axis("prior_a", model.grid_prior_a, -float(w.alpha[0]),
                          a, False))
    axes.append(_Axis("post_other", model.grid_other, -float(w.beta[1]),
                      other, True))
    if model.needs_priors:
        axes.append(_Axis("prior_other", model.grid_prior_other,
                          float(w.alpha[1]), other, False))
    return axes


def _branches(ax: _Axis) -> list:
    """(detected, probability) of each branch of an axis, if nonzero."""
    if not ax.branches:
        return [(False, 1.0)]
    p_d = ax.target.p_d
    return [(hit, prob) for hit, prob in ((True, p_d), (False, 1.0 - p_d))
            if prob != 0.0]


def _outcomes(axes: list[_Axis]):
    """Detect/miss outcomes of one transition with nonzero probability.

    Yields (probability, detected), where detected[i] says whether axis
    i takes the detection branch; prior axes never do.
    """
    for branches in product(*(_branches(ax) for ax in axes)):
        prob = math.prod(p for _, p in branches)
        if prob != 0.0:
            yield prob, [hit for hit, _ in branches]


def _interp_table(grid: np.ndarray, values: np.ndarray):
    """Indices and weights for linear interpolation in log covariance."""
    values = np.atleast_1d(values)
    if len(grid) == 1:
        return np.zeros(values.shape, dtype=int), np.zeros(values.shape)
    x = np.log(grid)
    xq = np.log(np.clip(values, grid[0], grid[-1]))
    idx = np.clip(np.searchsorted(x, xq) - 1, 0, len(grid) - 2)
    denom = x[idx + 1] - x[idx]
    w = np.clip((xq - x[idx]) / denom, 0.0, 1.0)
    return idx, w


def _lerp_table(grid: np.ndarray, values: np.ndarray, axis: int,
                ndim: int):
    """Gather indices and broadcast weights interpolating along one axis."""
    idx, w = _interp_table(grid, values)
    shape = [1] * ndim
    shape[axis] = -1
    return (idx, np.minimum(idx + 1, len(grid) - 1),
            (1.0 - w).reshape(shape), w.reshape(shape))


def _broadcast_sum(vectors: list[np.ndarray]) -> np.ndarray:
    """Sum of per-axis 1-D vectors broadcast onto the full mesh."""
    ndim = len(vectors)
    total = 0.0
    for axis, vec in enumerate(vectors):
        shape = [1] * ndim
        shape[axis] = -1
        total = total + vec.reshape(shape)
    return total


@dataclass
class QTable:
    """Converged value table and the induced policy."""

    model: ScalarStopModel
    axis_names: list
    grids: list
    value: np.ndarray        # V in shifted coordinates, <= 0
    q_continue: np.ndarray   # Q(P, 2); Q(P, 1) is identically 0
    action: np.ndarray       # 1 stop, 2 continue
    running_cost: np.ndarray
    n_iterations: int
    residual: float


# Bytes of one row block of a Bellman sweep: 64 rows of a 512-column
# table. A block's buffers stay in cache while its axes are swept.
_BLOCK_BYTES = 2**18


def _stencil(grid: np.ndarray, steps: list, axis: int, ndim: int) -> list:
    """The probability-averaged interpolation of one axis.

    ``steps`` lists (probability, next covariances) per branch. Each
    branch adds two taps (gather indices, broadcast weight), its lower
    and upper interpolation neighbours.
    """
    taps = []
    for prob, nxt in steps:
        idx, idx_hi, w_lo, w_hi = _lerp_table(grid, nxt, axis, ndim)
        taps += [(idx, prob * w_lo), (idx_hi, prob * w_hi)]
    return taps


def _apply_stencil(v: np.ndarray, taps: list, axis: int, out: np.ndarray,
                   scratch: np.ndarray) -> np.ndarray:
    """Weighted sum of gathers of ``v`` along one axis, from +0.0.

    Indices are always in range, so mode="clip" changes nothing; it lets
    ``take`` write into ``scratch`` without an intermediate copy.
    """
    out.fill(0.0)
    for idx, weight in taps:
        term = np.take(v, idx, axis=axis, out=scratch, mode="clip")
        term *= weight
        out += term
    return out


class _ExpectedNext:
    """E[V(next)] as one averaged interpolation per axis, in row blocks.

    ``blocks(value)`` yields the expectation on successive blocks of
    axis-0 rows: the axis-0 stencil gathers the block's rows from the
    whole table, the later axes' stencils work inside the block. The
    three block buffers are reused from block to block and sweep to
    sweep, so a yielded block is valid until the next one is asked for.
    """

    def __init__(self, stencils: list, shape: tuple):
        self.stencils = stencils
        row_bytes = 8 * math.prod(shape[1:])
        self.height = max(1, _BLOCK_BYTES // row_bytes)
        block = (min(self.height, shape[0]),) + tuple(shape[1:])
        self.buffers = [np.empty(block) for _ in range(3)]

    def blocks(self, value: np.ndarray):
        n_rows = value.shape[0]
        for start in range(0, n_rows, self.height):
            rows = slice(start, min(start + self.height, n_rows))
            out, other, scratch = (b[:rows.stop - start]
                                   for b in self.buffers)
            nxt = _apply_stencil(value, [(idx[rows], w[rows])
                                         for idx, w in self.stencils[0]],
                                 0, out, scratch)
            for axis in range(1, value.ndim):
                nxt, other = _apply_stencil(nxt, self.stencils[axis], axis,
                                            other, scratch), nxt
            yield rows, nxt


def value_iterate(model: ScalarStopModel, tol: float = 1e-8,
                  max_iters: int = 100_000) -> QTable:
    """Fixed-point iteration of the shifted Bellman equation.

    Each sweep runs block by block over axis-0 rows: the expectation,
    plus the running cost, clipped at 0 (stopping), and the block's
    largest change. The running cost sums the detect/miss outcomes at
    the exact next values.
    """
    axes = _axes_for(model)
    grids = [ax.grid for ax in axes]
    cbar = _broadcast_sum([ax.cbar_coef * np.log(ax.grid) for ax in axes])

    # Checked below: a map that overflows on the grid is reported as a
    # numerical failure, not as floating-point warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        steps = {(axis, hit): ax.step(ax.grid, hit)
                 for axis, ax in enumerate(axes) for hit, _ in _branches(ax)}
    if not all(np.all(np.isfinite(v)) for v in steps.values()):
        raise NumericalError("value iteration diverged before iteration "
                             "1: a covariance map is not finite on the "
                             "grid")
    running = model.weights.operating_cost - cbar
    for prob, detected in _outcomes(axes):
        running = running + prob * _broadcast_sum(
            [ax.cbar_coef * np.log(steps[axis, hit])
             for axis, (ax, hit) in enumerate(zip(axes, detected))])
    expected_next = _ExpectedNext(
        [_stencil(ax.grid, [(prob, steps[axis, hit])
                            for hit, prob in _branches(ax)], axis, len(axes))
         for axis, ax in enumerate(axes)], cbar.shape)

    value = -cbar
    new_value = np.empty(cbar.shape)
    residual = math.inf
    for iteration in range(1, max_iters + 1):
        changes = []
        for rows, block in expected_next.blocks(value):
            block += running[rows]
            np.minimum(0.0, block, out=new_value[rows])
            np.subtract(new_value[rows], value[rows], out=block)
            changes.append(np.max(np.abs(block, out=block)))
        residual = float(np.max(changes))
        value, new_value = new_value, value
        if not math.isfinite(residual):
            raise NumericalError(f"value iteration diverged at iteration "
                                 f"{iteration} (residual {residual})")
        if residual < tol:
            break
    else:
        raise NumericalError(f"value iteration did not converge in "
                             f"{max_iters} iterations (residual {residual:.3e})")

    # The previous table is not needed any more; it takes Q_continue.
    q_continue = new_value
    for rows, block in expected_next.blocks(value):
        np.add(block, running[rows], out=q_continue[rows])
    action = np.where(q_continue >= 0.0, int(Action.STOP),
                      int(Action.CONTINUE)).astype(np.int8)
    return QTable(model=model, axis_names=[ax.name for ax in axes],
                  grids=grids, value=value, q_continue=q_continue,
                  action=action, running_cost=running,
                  n_iterations=iteration, residual=residual)


def extract_threshold(qtable: QTable) -> np.ndarray:
    """Stop/continue boundary as a function of the rival covariance.

    For each rival grid value, the smallest priority-target covariance
    at which the policy continues; stopping is optimal below it. An
    all-stop column returns the grid maximum as a sentinel, an
    all-continue column the grid minimum.
    """
    if qtable.action.ndim != 2:
        raise ContractError("threshold extraction needs the 2-D table")
    grid_a = qtable.grids[0]
    continues = qtable.action == int(Action.CONTINUE)
    first = np.argmax(continues, axis=0)
    return np.where(continues.any(axis=0), grid_a[first], grid_a[-1])


# Expected movement of the action value (1 stop, 2 continue) along each
# axis: +1 for nondecreasing, -1 for nonincreasing.
_AXIS_TREND = {"post_a": 1, "prior_a": -1, "post_other": -1, "prior_other": 1}


def check_monotone_policy(qtable: QTable) -> int:
    """Count adjacent grid pairs violating the monotone structure."""
    violations = 0
    for axis, name in enumerate(qtable.axis_names):
        trend = _AXIS_TREND[name]
        diffs = np.diff(qtable.action.astype(np.int16), axis=axis)
        violations += int(np.sum(trend * diffs < 0))
    return violations


def _interp_point(qtable: QTable, values: np.ndarray,
                  point: tuple) -> float:
    """``values`` interpolated at one point: each axis's one-branch
    stencil, from the last axis to the first."""
    out = values
    for grid, p in reversed(list(zip(qtable.grids, point))):
        taps = _stencil(grid, [(1.0, float(p))], -1, out.ndim)
        shape = out.shape[:-1] + (1,)
        out = _apply_stencil(out, taps, -1, np.empty(shape),
                             np.empty(shape))[..., 0]
    return float(out)


def _cbar_at(model: ScalarStopModel, point: tuple) -> float:
    return float(sum(ax.cbar_coef * math.log(p)
                     for ax, p in zip(_axes_for(model), point)))


def optimal_cost(qtable: QTable, point: tuple) -> float:
    """Optimal cost-to-go in original coordinates at a state point.

    ``point`` lists covariances in axis order. Points outside the grid
    raise: extrapolating the table is not meaningful.
    """
    point = tuple(float(p) for p in np.atleast_1d(point))
    if len(point) != len(qtable.grids):
        raise ContractError("point does not match the table axes")
    for p, grid in zip(point, qtable.grids):
        if not grid[0] <= p <= grid[-1]:
            raise ContractError(f"covariance {p} outside the grid "
                                f"[{grid[0]}, {grid[-1]}]")
    return _interp_point(qtable, qtable.value, point) \
        + _cbar_at(qtable.model, point)


def expected_optimal_cost(qtable: QTable, point: tuple) -> float:
    """Optimal cost averaged over the free first transition.

    Rollout sample costs charge no operating cost for the first belief
    update, so the comparable oracle quantity is the expectation of the
    cost-to-go over the first detect/miss outcome from ``point``.
    """
    point = tuple(float(p) for p in np.atleast_1d(point))
    axes = _axes_for(qtable.model)
    total = 0.0
    for prob, detected in _outcomes(axes):
        nxt = tuple(ax.step(p, hit)
                    for ax, p, hit in zip(axes, point, detected))
        total += prob * optimal_cost(qtable, nxt)
    return total


def greedy_policy(qtable: QTable):
    """Stationary policy induced by the converged table.

    Belief covariances are 1x1 matrices; values off the grid clip to
    the nearest edge before the continue-value lookup.
    """

    def decider(belief: Belief, epoch: int) -> Action:
        point = [float(belief.posteriors[0][0, 0])]
        if qtable.model.needs_priors:
            point.append(float(belief.priors[0][0, 0]))
        point.append(float(belief.posteriors[1][0, 0]))
        if qtable.model.needs_priors:
            point.append(float(belief.priors[1][0, 0]))
        clipped = tuple(min(max(p, g[0]), g[-1])
                        for p, g in zip(point, qtable.grids))
        q2 = _interp_point(qtable, qtable.q_continue, clipped)
        return Action.STOP if q2 >= 0.0 else Action.CONTINUE

    return decider


def scalar_scenario(model: ScalarStopModel, p0_a: float, p0_other: float,
                    pbar0_a: float | None = None,
                    pbar0_other: float | None = None,
                    tau_max: int = 100) -> Scenario:
    """Embed the scalar instance as a two-target simulation scenario.

    Both targets are measured; uniform priorities with an integration
    count of 2 make the effective measurement noise equal r exactly.
    """
    def as_model(t: ScalarTarget) -> TargetModel:
        return TargetModel(F=np.array([[t.f]]), G=np.array([[1.0]]),
                           H=np.array([[t.h]]), Q=np.array([[t.q]]),
                           r_base=np.array([[t.r]]), p_d=t.p_d, delta=2.0)

    pbar0_a = p0_a if pbar0_a is None else pbar0_a
    pbar0_other = p0_other if pbar0_other is None else pbar0_other
    return Scenario(
        models=(as_model(model.target_a), as_model(model.target_other)),
        priorities=np.array([0.5, 0.5]),
        weights=model.weights,
        tau_max=tau_max,
        initial_posteriors=(np.array([[float(p0_a)]]),
                            np.array([[float(p0_other)]])),
        initial_priors=(np.array([[float(pbar0_a)]]),
                        np.array([[float(pbar0_other)]])))
