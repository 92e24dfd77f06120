import numpy as np
import pytest

from covstop.dp_oracle import (QTable, ScalarStopModel, ScalarTarget,
                               check_monotone_policy, expected_optimal_cost,
                               extract_threshold, greedy_policy, log_grid,
                               make_scalar_model, optimal_cost,
                               scalar_scenario, value_iterate)
from covstop.dp_oracle import (_ExpectedNext, _axes_for, _broadcast_sum,
                               _interp_table, _lerp_table, _outcomes)
from covstop.errors import ContractError, NumericalError
from covstop.observability import (Belief, CostWeights, StoppingCase,
                                   transformed_running_cost)
from covstop.optimizer import rollout
from covstop.policy import Action
from covstop.streams import child_seed


def case4_model(**kwargs):
    defaults = dict(f=1.0, h=1.0, q=1.0, r=25.0, p_d=0.75, p_d_other=0.0,
                    c_nu=0.8, beta=(5.0, 1.0), n_a=96, n_other=96)
    defaults.update(kwargs)
    return make_scalar_model(**defaults)


def reference_apply_axis(v, idx, w, axis):
    lo = np.take(v, idx, axis=axis)
    hi = np.take(v, np.minimum(idx + 1, v.shape[axis] - 1), axis=axis)
    shape = [1] * v.ndim
    shape[axis] = -1
    w = w.reshape(shape)
    return lo * (1.0 - w) + hi * w


def reference_expected_next(value, outcomes):
    expected = 0.0
    for prob, tables in outcomes:
        nxt = value
        for axis, (idx, w) in enumerate(tables):
            nxt = reference_apply_axis(nxt, idx, w, axis)
        expected = expected + prob * nxt
    return expected


def reference_value_iterate(model, tol=1e-8, max_iters=100_000):
    """The loop reference: every outcome interpolates every axis afresh.

    Returns (value, q_continue, running_cost, iterations).
    """
    axes = _axes_for(model)
    cbar = _broadcast_sum([ax.cbar_coef * np.log(ax.grid) for ax in axes])
    running = model.weights.operating_cost - cbar
    outcomes = []
    for prob, detected in _outcomes(model, axes):
        next_vals = [ax.step(ax.grid, hit) for ax, hit in zip(axes, detected)]
        running = running + prob * _broadcast_sum(
            [ax.cbar_coef * np.log(v) for ax, v in zip(axes, next_vals)])
        outcomes.append((prob, [_interp_table(ax.grid, v)
                                for ax, v in zip(axes, next_vals)]))
    value = -cbar
    for iteration in range(1, max_iters + 1):
        new_value = np.minimum(0.0, running
                               + reference_expected_next(value, outcomes))
        residual = float(np.max(np.abs(new_value - value)))
        value = new_value
        if residual < tol:
            break
    q_continue = running + reference_expected_next(value, outcomes)
    return value, q_continue, running, iteration


def assert_matches_reference(model, tol=1e-8):
    qtable = value_iterate(model, tol=tol)
    value, q_continue, running, iterations = reference_value_iterate(model,
                                                                     tol)
    assert qtable.n_iterations == iterations
    assert np.array_equal(qtable.value, value)
    assert np.array_equal(qtable.q_continue, q_continue)
    assert np.array_equal(qtable.running_cost, running)
    # bit for bit includes the sign of every zero
    assert np.array_equal(np.signbit(qtable.value), np.signbit(value))
    assert np.array_equal(np.signbit(qtable.q_continue),
                          np.signbit(q_continue))
    return qtable


@pytest.fixture(scope="module")
def converged():
    model = case4_model()
    return model, value_iterate(model)


class TestValueIterate:
    def test_huge_operating_cost_stops_everywhere(self):
        model = case4_model(c_nu=1e6, n_a=32, n_other=32)
        qtable = value_iterate(model)
        assert np.all(qtable.action == int(Action.STOP))
        # stopping everywhere collapses the value to zero
        np.testing.assert_allclose(qtable.value, 0.0, atol=1e-12)

    def test_no_detections_matches_hand_unrolled_drift(self):
        # with p_d = 0 on both targets the recursion is deterministic:
        # V_k(P) = min(0, C(P) + V_{k-1}(lyapunov(P)))
        model = case4_model(p_d=0.0, p_d_other=0.0, n_a=24, n_other=24,
                            p_min=1e-1, p_max=1e4)
        qtable = value_iterate(model)
        grid_a, grid_o = qtable.grids
        i, j = 5, 7
        # replay the fixed point at one interior grid point by value
        # iteration in plain python with the same interpolation rule
        def interp(v, grid, x):
            lx = np.log(np.clip(x, grid[0], grid[-1]))
            xs = np.log(grid)
            k = min(max(np.searchsorted(xs, lx) - 1, 0), len(grid) - 2)
            w = (lx - xs[k]) / (xs[k + 1] - xs[k])
            w = min(max(w, 0.0), 1.0)
            return v[k] * (1 - w) + v[k + 1] * w

        def cbar(pa, po):
            return 5.0 * np.log(pa) - 1.0 * np.log(po)

        v = np.array([[-cbar(pa, po) for po in grid_o] for pa in grid_a])
        for _ in range(qtable.n_iterations + 5):
            new = np.empty_like(v)
            for a in range(len(grid_a)):
                for b in range(len(grid_o)):
                    pa, po = grid_a[a] + 1.0, grid_o[b] + 1.0
                    c = 0.8 - cbar(grid_a[a], grid_o[b]) + cbar(pa, po)
                    row = np.array([interp(v[:, bb], grid_a, pa)
                                    for bb in range(len(grid_o))])
                    nxt = interp(row, grid_o, po)
                    new[a, b] = min(0.0, c + nxt)
            v = new
        assert v[i, j] == pytest.approx(qtable.value[i, j], abs=1e-7)

    def test_bellman_residual_below_tolerance(self, converged):
        _, qtable = converged
        assert qtable.residual < 1e-8
        recomputed = np.minimum(0.0, qtable.q_continue)
        np.testing.assert_allclose(recomputed, qtable.value, atol=1e-7)

    @pytest.mark.parametrize("kwargs", [
        {},
        {"p_d_other": 0.75},
        {"p_d": 1.0, "p_d_other": 1.0},
        {"p_d": 0.0, "p_d_other": 0.3},
        {"n_a": 1, "n_other": 7},
        {"c_nu": 1e6},
    ], ids=["case4", "four-outcomes", "certain", "miss-a", "one-point",
            "all-stop"])
    def test_matches_reference_loop_bit_for_bit(self, kwargs):
        defaults = {"n_a": 40, "n_other": 33}
        defaults.update(kwargs)
        assert_matches_reference(case4_model(**defaults))

    def test_expected_sum_starts_from_positive_zero(self):
        # Every outcome adds -0.0 here; only a sum that starts from +0.0
        # ends at +0.0, as the reference's does.
        model = case4_model(p_d_other=0.75, n_a=5, n_other=4)
        axes = _axes_for(model)
        outcomes = [(prob, tuple(hits))
                    for prob, hits in _outcomes(model, axes)]
        tables = {(axis, hit): _lerp_table(ax.grid, ax.step(ax.grid, hit),
                                           axis, 2)
                  for axis, ax in enumerate(axes) for hit in (True, False)}
        value = np.full((5, 4), -0.0)
        got = _ExpectedNext(outcomes, tables, value.shape)(
            value, out=np.empty(value.shape))
        expected = reference_expected_next(value, [
            (prob, [_interp_table(ax.grid, ax.step(ax.grid, hit))
                    for ax, hit in zip(axes, hits)])
            for prob, hits in outcomes])
        assert np.array_equal(np.signbit(got), np.signbit(expected))
        assert not np.signbit(got).any()

    def test_nan_residual_raises_at_once(self):
        # f**2 is finite but f**2 * p overflows, so the first sweep would
        # be NaN; it must fail before that sweep, not spend the default
        # budget of 100,000 sweeps on it.
        model = make_scalar_model(f=1e154, n_a=16, n_other=16)
        with pytest.raises(NumericalError, match="before iteration 1:"):
            value_iterate(model)

    def test_overflowing_squares_rejected(self):
        for f, h in [(1e200, 1.0), (1.0, 1e200), (-1e160, 1.0)]:
            with pytest.raises(ContractError, match="finite"):
                ScalarTarget(f, h, 1.0, 1.0, 0.75)

    def test_nonconvergence_raises_with_residual(self):
        model = case4_model(n_a=32, n_other=32)
        with pytest.raises(NumericalError, match="residual"):
            value_iterate(model, tol=1e-8, max_iters=2)

    def test_running_cost_matches_transformed_running_cost(self, converged):
        # cross-module equality at grid points
        model, qtable = converged
        scenario = scalar_scenario(model, 1.0, 1.0)
        grid_a, grid_o = qtable.grids
        for i, j in [(3, 5), (40, 12), (80, 80), (12, 90)]:
            belief = Belief((np.array([[grid_a[i]]]), np.array([[grid_o[j]]])),
                            (np.eye(1), np.eye(1)), 0)
            expected = transformed_running_cost(belief, model.weights,
                                                scenario.models,
                                                scenario.priorities)
            assert qtable.running_cost[i, j] == pytest.approx(expected,
                                                              abs=1e-10)

    def test_value_monotone_in_state(self, converged):
        # V falls along the priority axis and rises along the rival axis
        _, qtable = converged
        assert np.all(np.diff(qtable.value, axis=0) <= 1e-12)
        assert np.all(np.diff(qtable.value, axis=1) >= -1e-12)


class TestThreshold:
    def test_all_stop_returns_grid_maximum(self):
        model = case4_model(c_nu=1e6, n_a=16, n_other=16)
        qtable = value_iterate(model)
        g = extract_threshold(qtable)
        np.testing.assert_array_equal(g, np.full(16, qtable.grids[0][-1]))

    def test_synthetic_monotone_fixture_recovers_exactly(self):
        model = case4_model(n_a=32, n_other=32)
        qtable = value_iterate(model)
        grid_a, grid_o = qtable.grids
        # plant a known threshold: continue strictly above index map
        target_idx = np.minimum(np.arange(32) // 2 + 4, 31)
        action = np.full((32, 32), int(Action.STOP), dtype=np.int8)
        for j, idx in enumerate(target_idx):
            action[idx:, j] = int(Action.CONTINUE)
        planted = QTable(model=model, axis_names=qtable.axis_names,
                         grids=qtable.grids, value=qtable.value,
                         q_continue=qtable.q_continue, action=action,
                         running_cost=qtable.running_cost, n_iterations=1,
                         residual=0.0)
        np.testing.assert_array_equal(extract_threshold(planted),
                                      grid_a[target_idx])

    def test_converged_threshold_nondecreasing(self, converged):
        _, qtable = converged
        g = extract_threshold(qtable)
        assert np.all(np.diff(g) >= 0.0)


class TestMonotonePolicy:
    def test_converged_table_has_no_violations(self, converged):
        _, qtable = converged
        assert check_monotone_policy(qtable) == 0

    def test_planted_violation_counted(self, converged):
        _, qtable = converged
        action = qtable.action.copy()
        action[10, 10] = int(Action.CONTINUE)
        action[11, 10] = int(Action.STOP)
        broken = QTable(model=qtable.model, axis_names=qtable.axis_names,
                        grids=qtable.grids, value=qtable.value,
                        q_continue=qtable.q_continue, action=action,
                        running_cost=qtable.running_cost, n_iterations=1,
                        residual=0.0)
        assert check_monotone_policy(broken) > 0

    def test_single_point_grid_trivially_monotone(self):
        model = case4_model(n_a=1, n_other=1)
        qtable = value_iterate(model)
        assert check_monotone_policy(qtable) == 0


class TestOptimalCost:
    def test_outside_grid_rejected(self, converged):
        _, qtable = converged
        with pytest.raises(ContractError):
            optimal_cost(qtable, (1e9, 1.0))

    def test_immediate_stop_regime_matches_stop_at_one_rollout(self):
        model = case4_model(c_nu=1e3, n_a=48, n_other=48)
        qtable = value_iterate(model)
        p0 = (20.0, 3.0)
        scenario = scalar_scenario(model, *p0, tau_max=10)
        costs = [rollout(scenario, greedy_policy(qtable),
                         child_seed(1, "mc", b)).sample_cost
                 for b in range(400)]
        expected = expected_optimal_cost(qtable, p0)
        se = np.std(costs) / np.sqrt(len(costs))
        assert abs(np.mean(costs) - expected) <= max(3 * se, 1e-6)

    def test_grid_refinement_changes_cost_below_one_percent(self):
        p0 = (20.0, 3.0)
        coarse = value_iterate(case4_model(n_a=96, n_other=96))
        fine = value_iterate(case4_model(n_a=192, n_other=192))
        c1 = expected_optimal_cost(coarse, p0)
        c2 = expected_optimal_cost(fine, p0)
        assert abs(c1 - c2) < 0.01 * abs(c2)

    def test_greedy_policy_monte_carlo_cross_check(self, converged):
        model, qtable = converged
        p0 = (50.0, 2.0)
        scenario = scalar_scenario(model, *p0, tau_max=100)
        policy = greedy_policy(qtable)
        costs = [rollout(scenario, policy, child_seed(2, "mc", b)).sample_cost
                 for b in range(2000)]
        expected = expected_optimal_cost(qtable, p0)
        se = np.std(costs) / np.sqrt(len(costs))
        assert abs(np.mean(costs) - expected) <= 3 * se + 0.01 * abs(expected)


class TestPriorAxes:
    def test_prior_weights_require_grids(self):
        with pytest.raises(ContractError):
            ScalarStopModel(
                target_a=ScalarTarget(1.0, 1.0, 1.0, 1.0, 0.75),
                target_other=ScalarTarget(1.0, 1.0, 1.0, 1.0, 0.0),
                weights=CostWeights(np.array([0.5, 0.0]),
                                    np.array([1.0, 1.0]), 0.8,
                                    StoppingCase.AVG_DIFF),
                grid_a=log_grid(1e-2, 1e3, 8),
                grid_other=log_grid(1e-2, 1e3, 8))

    def test_four_axis_table_with_zero_alpha_matches_two_axis(self):
        # forcing prior grids with alpha = 0 must not change the value
        base = case4_model(n_a=24, n_other=24)
        forced = ScalarStopModel(
            target_a=base.target_a, target_other=base.target_other,
            weights=CostWeights(np.array([1e-300, 0.0]),
                                base.weights.beta,
                                base.weights.operating_cost,
                                base.weights.case),
            grid_a=base.grid_a, grid_other=base.grid_other,
            grid_prior_a=log_grid(1e-1, 1e2, 4),
            grid_prior_other=log_grid(1e-1, 1e2, 4))
        qt2 = value_iterate(base)
        qt4 = value_iterate(forced)
        assert qt4.value.shape == (24, 4, 24, 4)
        np.testing.assert_allclose(qt4.value[:, 0, :, 0], qt2.value,
                                   atol=1e-6)

    @pytest.mark.parametrize("p_d_other", [0.0, 0.5])
    def test_four_axis_matches_reference_loop_bit_for_bit(self, p_d_other):
        model = make_scalar_model(f=1.0, h=1.0, q=1.0, r=25.0, p_d=0.75,
                                  p_d_other=p_d_other, c_nu=0.8,
                                  beta=(5.0, 1.0), alpha=(0.4, 0.3),
                                  n_a=9, n_other=8, n_prior=6,
                                  p_min=1e-1, p_max=1e2)
        qtable = assert_matches_reference(model, tol=1e-7)
        assert qtable.value.shape == (9, 6, 8, 6)

    def test_four_axis_monotone_structure(self):
        model = make_scalar_model(f=1.0, h=1.0, q=1.0, r=25.0, p_d=0.75,
                                  p_d_other=0.5, c_nu=0.8,
                                  beta=(5.0, 1.0), alpha=(0.4, 0.3),
                                  n_a=14, n_other=14, n_prior=10,
                                  p_min=1e-1, p_max=1e2)
        qtable = value_iterate(model, tol=1e-7)
        assert qtable.value.ndim == 4
        assert check_monotone_policy(qtable) == 0


class TestScalarScenario:
    def test_effective_noise_equals_r(self):
        model = case4_model()
        scenario = scalar_scenario(model, 5.0, 5.0)
        eff = scenario.models[0].effective_noise(scenario.priorities[0])
        assert eff[0, 0] == pytest.approx(25.0)

    def test_grid_validation(self):
        with pytest.raises(ContractError):
            log_grid(0.0, 1.0, 4)
        with pytest.raises(ContractError):
            log_grid(1.0, 0.5, 4)
