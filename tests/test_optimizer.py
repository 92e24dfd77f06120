import dataclasses
from collections import Counter

import numpy as np
import pytest

from covstop import optimizer
from covstop.config import stock_scenario
from covstop.dp_oracle import make_scalar_model, scalar_scenario
from covstop.errors import ContractError, NumericalError
from covstop.filter_core import TargetModel
from covstop.gmti import Scenario
from covstop.observability import Belief, CostWeights, stopping_cost
from covstop.optimizer import (_STOP_BLOCK, SpsaSchedule, StopAt,
                               _eval_seeds, _path_chunks, evaluate_cost,
                               periodic_cost_curve, periodic_policy_cost,
                               policy_costs, rademacher, rollout,
                               rollout_objective, score_paths, spsa_gradient,
                               spsa_minimize, spsa_optimize)
from covstop.policy import Action, ParamLayout, PolicyFamily, PolicyParams
from covstop.streams import child_seed, stream


def scalar_test_scenario(p0=(9.0, 4.0), tau_max=40, p_d=0.75, p_d_other=0.0):
    model = make_scalar_model(f=1.0, h=1.0, q=1.0, r=25.0, p_d=p_d,
                              p_d_other=p_d_other, c_nu=0.8, beta=(5.0, 1.0))
    return scalar_scenario(model, *p0, tau_max=tau_max)


def spsa_schedule(**overrides):
    """An SpsaSchedule with these tests' budget, ``overrides`` aside."""
    budget = dict(epsilon=0.05, n_iterations=500, n_restarts=8,
                  rollouts_per_eval=16)
    return SpsaSchedule(**{**budget, **overrides})


def always(action):
    return lambda belief, epoch: action


def batched(scalar):
    """An objective that scores each phi of a call with ``scalar``."""
    return lambda phis, seed: [scalar(phi, seed) for phi in phis]


def zero_priority_scenario():
    scenario = scalar_test_scenario(p_d=0.9, p_d_other=0.9)
    return dataclasses.replace(scenario, priorities=np.array([1.0, 0.0]))


class TestRollout:
    def test_immediate_stop(self):
        scenario = scalar_test_scenario()
        result = rollout(scenario, always(Action.STOP), seed=0)
        assert result.tau == 1
        assert not result.truncated
        assert len(result.belief_trajectory) == 2
        expected = stopping_cost(result.belief_trajectory[1],
                                 scenario.weights)
        assert result.sample_cost == expected

    def test_never_stop_truncates(self):
        scenario = scalar_test_scenario(tau_max=12)
        result = rollout(scenario, always(Action.CONTINUE), seed=0)
        assert result.tau == 12
        assert result.truncated
        final = result.belief_trajectory[-1]
        expected = 11 * scenario.weights.operating_cost \
            + stopping_cost(final, scenario.weights)
        assert result.sample_cost == expected

    def test_trajectory_matches_hand_unrolled_recursion(self):
        # Oracle: scalar arithmetic replay driven by the recorded
        # detection flags.
        scenario = scalar_test_scenario(p0=(9.0, 4.0), tau_max=3)
        result = rollout(scenario, always(Action.CONTINUE), seed=11)
        p_a, p_o = 9.0, 4.0
        pbar_a, pbar_o = 9.0, 4.0
        r_eff = 25.0  # r / (nu * delta) = 25 / (0.5 * 2)
        for k in range(3):
            det_a, det_o = result.detections[k]
            pbar_a, pbar_o = pbar_a + 1.0, pbar_o + 1.0
            p_a = (p_a * r_eff / (p_a + r_eff) if det_a else p_a) + 1.0
            p_o = (p_o * r_eff / (p_o + r_eff) if det_o else p_o) + 1.0
            belief = result.belief_trajectory[k + 1]
            assert belief.posteriors[0][0, 0] == pytest.approx(p_a, rel=1e-12)
            assert belief.posteriors[1][0, 0] == pytest.approx(p_o, rel=1e-12)
            assert belief.priors[0][0, 0] == pytest.approx(pbar_a, rel=1e-12)

    def test_bitwise_reproducible(self):
        scenario = stock_scenario("flyby")
        layout = ParamLayout(PolicyFamily.QUADFORM, 4, 4)
        params = layout.build(stream(1, "t").uniform(-1, 1, layout.n_params))
        r1 = rollout(scenario, params, seed=99)
        r2 = rollout(scenario, params, seed=99)
        assert r1.tau == r2.tau
        assert r1.sample_cost == r2.sample_cost
        assert np.array_equal(r1.detections, r2.detections)
        for b1, b2 in zip(r1.belief_trajectory, r2.belief_trajectory):
            for p1, p2 in zip(b1.posteriors, b2.posteriors):
                assert np.array_equal(p1, p2)

    def test_zero_priority_target_gets_no_detections(self):
        scenario = zero_priority_scenario()
        result = rollout(scenario, always(Action.CONTINUE), seed=3)
        assert not result.detections[:, 1].any()
        # posterior equals prior for the measurement-free target
        for belief in result.belief_trajectory:
            assert np.array_equal(belief.posteriors[1], belief.priors[1])


class TestEvaluateCost:
    def test_single_rollout_equals_rollout(self):
        scenario = scalar_test_scenario()
        policy = StopAt(4)
        assert evaluate_cost(scenario, policy, 17, 1) == \
            rollout(scenario, policy, 17).sample_cost

    def test_certain_detection_is_seed_invariant(self):
        scenario = scalar_test_scenario(p_d=1.0, p_d_other=1.0)
        policy = StopAt(6)
        costs = {evaluate_cost(scenario, policy, seed, 4)
                 for seed in (1, 2, 3)}
        assert len(costs) == 1

    def test_monte_carlo_self_consistency(self):
        scenario = scalar_test_scenario(tau_max=30)
        layout = ParamLayout(PolicyFamily.EIGEN_SUM, 2, 1)
        params = layout.build(np.array([0.3, 0.0, 0.25, 0.0]))
        _, small = policy_costs(scenario, params,
                                [child_seed(5, "mc", b) for b in range(10_000)])
        _, big = policy_costs(scenario, params,
                              [child_seed(6, "mc", b) for b in range(100_000)])
        se = np.std(big) / np.sqrt(len(small))
        assert abs(np.mean(small) - np.mean(big)) < 3 * se


class TestSpsaGradient:
    def test_constant_objective_zero_gradient(self):
        schedule = spsa_schedule()
        grad = spsa_gradient(np.zeros(4), 0, schedule,
                             batched(lambda phi, seed: 7.5), seed=1)
        assert np.array_equal(grad, np.zeros(4))

    def test_linear_objective_direction_average(self, monkeypatch):
        # For J = c.phi the estimate is (c.d) d; averaging over all
        # Rademacher directions recovers c exactly.
        c = np.array([1.0, -2.0, 0.5, 3.0])
        schedule = spsa_schedule()
        total = np.zeros(4)
        count = 0
        for bits in range(16):
            d = np.array([1.0 if bits & (1 << i) else -1.0
                          for i in range(4)])
            monkeypatch.setattr(optimizer, "rademacher",
                                lambda dim, rng, d=d: d)
            grad = spsa_gradient(np.zeros(4), 0, schedule,
                                 batched(lambda phi, seed: float(c @ phi)),
                                 seed=0)
            np.testing.assert_allclose(grad, (c @ d) * d, rtol=1e-12)
            total += grad
            count += 1
        np.testing.assert_allclose(total / count, c, rtol=1e-12)

    def test_quadratic_at_origin_is_exactly_zero(self):
        schedule = spsa_schedule()
        for n in range(5):
            grad = spsa_gradient(np.zeros(3), n, schedule,
                                 batched(lambda phi, seed: float(phi @ phi)),
                                 seed=4)
            np.testing.assert_array_equal(grad, np.zeros(3))

    def test_common_random_numbers_cancel_policy_independent_noise(self):
        # the two perturbed evaluations share their seed, so an
        # objective that ignores phi yields a zero estimate even
        # though it is random across seeds
        def noisy(phi, seed):
            return float(stream(seed, "noise").normal())

        schedule = spsa_schedule()
        grad = spsa_gradient(np.ones(4), 2, schedule, batched(noisy),
                             seed=9)
        assert np.array_equal(grad, np.zeros(4))

    def test_rademacher_signs(self):
        gen = stream(7, "test.rademacher")
        draws = rademacher(1000, gen)
        assert set(np.unique(draws)) == {-1.0, 1.0}
        assert abs(draws.mean()) < 0.1


class TestSpsaMinimize:
    def test_quadratic_stub_converges(self):
        target = np.array([1.0, -2.0])

        def objective(phi, seed):
            return float(np.sum((phi - target) ** 2))

        schedule = spsa_schedule(n_iterations=2000, n_restarts=1,
                                epsilon=0.4)
        result = spsa_minimize(batched(objective), [np.zeros(2)], schedule,
                               seed=5)
        assert np.linalg.norm(result.best_phi - target) < 1e-2
        # The gains are absolute: a start of small but nonzero magnitude
        # must converge just as a zero start does.
        result = spsa_minimize(batched(objective), [np.full(2, 1e-3)],
                               schedule, seed=5)
        assert np.linalg.norm(result.best_phi - target) < 1e-2

    def test_gains_follow_schedule_whatever_the_start(self):
        weights = np.array([1.0, 3.0])
        points = []

        def objective(phi, seed):
            points.append(np.array(phi))
            return float(weights @ phi)

        schedule = spsa_schedule(n_iterations=1, n_restarts=1)
        phi0 = np.array([10.0, -10.0])
        result = spsa_minimize(batched(objective), [phi0], schedule, seed=7)
        # points: the iterate's cost, then the plus and minus sides
        omega_0 = schedule.perturbation(0)
        np.testing.assert_allclose(np.abs(points[1] - phi0), omega_0)
        np.testing.assert_allclose(points[2] - phi0, phi0 - points[1])
        direction = (points[1] - phi0) / omega_0
        grad = (weights @ direction) * direction
        expected = phi0 - schedule.step_size(0) * grad
        np.testing.assert_allclose(result.trace[1].phi, expected)

    def test_zero_iterations_returns_best_init(self):
        def objective(phi, seed):
            return float(np.sum(phi ** 2))

        inits = [np.array([3.0, 0.0]), np.array([0.5, 0.5]),
                 np.array([2.0, 2.0])]
        schedule = spsa_schedule(n_iterations=0, n_restarts=3)
        result = spsa_minimize(batched(objective), inits, schedule, seed=2)
        np.testing.assert_array_equal(result.best_phi, inits[1])
        assert result.best_restart == 1

    def test_nonfinite_cost_aborts_restart_not_search(self):
        def objective(phi, seed):
            if phi[0] > 2.0:
                return float("nan")
            return float(np.sum(phi ** 2))

        schedule = spsa_schedule(n_iterations=5, n_restarts=2)
        result = spsa_minimize(batched(objective),
                               [np.array([3.0]), np.array([1.0])],
                               schedule, seed=3)
        assert result.best_restart == 1

    def test_empty_inits_rejected(self):
        with pytest.raises(ContractError):
            spsa_minimize(batched(lambda phi, seed: 0.0), [], spsa_schedule(),
                          0)

    def test_no_finite_rerank_cost_raises(self):
        # Finite on every iterate seed, NaN on the eight re-rank seeds:
        # the search has nominees but none with a finite score.
        rerank_seed = child_seed(3, "spsa.rerank")
        rerank = {child_seed(rerank_seed, "rep", i) for i in range(8)}

        def objective(phi, seed):
            return float("nan") if seed in rerank else float(phi @ phi)

        schedule = spsa_schedule(n_iterations=3, n_restarts=2)
        with pytest.raises(NumericalError, match="re-rank"):
            spsa_minimize(batched(objective), [np.ones(2), 2 * np.ones(2)],
                          schedule, seed=3)

    def test_schedule_validation(self):
        for bad in (dict(epsilon=0.0), dict(epsilon=np.inf),
                    dict(n_iterations=-1), dict(n_restarts=0),
                    dict(rollouts_per_eval=0), dict(n_screen=-1)):
            with pytest.raises(ContractError):
                spsa_schedule(**bad)

    def test_budget_has_no_defaults(self):
        # The CLI's training flags are the one budget; only screening,
        # which no flag sets, defaults (to none).
        with pytest.raises(TypeError):
            SpsaSchedule()
        schedule = SpsaSchedule(epsilon=0.25, n_iterations=200,
                                n_restarts=4, rollouts_per_eval=16)
        assert schedule.n_screen == 0

    def test_trace_records_every_iteration(self):
        def objective(phi, seed):
            return float(np.sum(phi ** 2))

        schedule = spsa_schedule(n_iterations=10, n_restarts=2)
        result = spsa_minimize(batched(objective),
                               [np.ones(2), 2 * np.ones(2)], schedule, seed=1)
        assert len(result.trace) == 2 * 11
        assert all(np.all(np.isfinite(t.phi)) for t in result.trace)


class TestSpsaOptimizeOnScenario:
    def test_finds_near_oracle_policy(self):
        # coarse end-to-end check; the acceptance suite runs the tight
        # 5 percent comparison
        scenario = scalar_test_scenario(p0=(50.0, 2.0), tau_max=60)
        layout = ParamLayout(PolicyFamily.EIGEN_SUM, 2, 1)
        schedule = spsa_schedule(n_iterations=120, n_restarts=3,
                                rollouts_per_eval=8, n_screen=15)
        result = spsa_optimize(scenario, layout, schedule, seed=8)
        cost = evaluate_cost(scenario, result.best_params, 99, 2000)
        never = evaluate_cost(scenario, StopAt(scenario.tau_max), 99, 200)
        immediate = evaluate_cost(scenario, StopAt(1), 99, 200)
        assert cost < min(never, immediate) - 1.0

    def test_each_objective_call_simulates_once(self, monkeypatch):
        # Two screened candidates per restart seat, then per restart 4
        # iterate calls and 3 gradient calls, then 8 re-rank calls: one
        # simulation each, whatever the number of phis scored.
        counts = Counter()
        monkeypatch.setattr(optimizer, "_path_chunks",
                            counting(optimizer._path_chunks, "simulate",
                                     counts))
        layout = ParamLayout(PolicyFamily.EIGEN_SUM, 2, 1)
        schedule = spsa_schedule(n_iterations=3, n_restarts=2,
                                rollouts_per_eval=4, n_screen=1)
        spsa_optimize(scalar_test_scenario(), layout, schedule, seed=4)
        assert counts["simulate"] == 4 + 2 * (4 + 3) + 8

    def test_best_params_round_trip(self):
        scenario = scalar_test_scenario()
        layout = ParamLayout(PolicyFamily.EIGEN_SUM, 2, 1)
        schedule = spsa_schedule(n_iterations=0, n_restarts=2)
        result = spsa_optimize(scenario, layout, schedule, seed=4)
        rebuilt = layout.build(result.best_phi)
        np.testing.assert_array_equal(rebuilt.theta,
                                      result.best_params.theta)


class TestPeriodicPolicies:
    def test_k1_charges_no_operating_cost(self):
        scenario = scalar_test_scenario()
        cost = periodic_policy_cost(scenario, 1, 12, 1)
        result = rollout(scenario, StopAt(1), 12)
        assert result.tau == 1
        assert cost == result.sample_cost

    def test_certain_detection_matches_noiseless_recursion(self):
        scenario = scalar_test_scenario(p_d=1.0, p_d_other=1.0)
        k = 5
        cost = periodic_policy_cost(scenario, k, 3, 2)
        p_a, p_o = 9.0, 4.0
        r_eff = 25.0
        for _ in range(k):
            p_a = p_a * r_eff / (p_a + r_eff) + 1.0
            p_o = p_o * r_eff / (p_o + r_eff) + 1.0
        pbar_a, pbar_o = 9.0 + k, 4.0 + k
        expected = (k - 1) * 0.8 + 5.0 * np.log(p_a) - 1.0 * np.log(p_o)
        assert cost == pytest.approx(expected, rel=1e-12)

    def test_curve_matches_per_k_calls_bitwise(self):
        scenario = scalar_test_scenario(tau_max=15)
        curve = periodic_cost_curve(scenario, 21, 5)
        for k in (1, 4, 9, 15):
            assert periodic_policy_cost(scenario, k, 21, 5) == \
                pytest.approx(curve[:, k - 1].mean(), abs=0)

    def test_flyby_sweep_has_interior_minimum(self):
        scenario = stock_scenario("flyby")
        curve = periodic_cost_curve(scenario, 13, 60)
        means = curve.mean(axis=0)
        k_best = int(np.argmin(means))
        assert 2 < k_best + 1 < scenario.tau_max - 2
        assert means[k_best] < means[0] - 1.0
        assert means[k_best] < means[-1] - 1.0

    def test_k_stop_bounds(self):
        scenario = scalar_test_scenario(tau_max=10)
        with pytest.raises(ContractError):
            periodic_policy_cost(scenario, 0, 1, 1)
        with pytest.raises(ContractError):
            periodic_policy_cost(scenario, 11, 1, 1)


ENGINE_SCENARIOS = {
    "flyby": lambda: stock_scenario("flyby"),
    "persistent-location-1": lambda: stock_scenario("persistent"),
    "scalar-zero-priority": zero_priority_scenario,
}


def identity_scenario(tau_max=6):
    # Two 2-D targets with F = H = Q = R = I, so a covariance moves by
    # exactly +I at each undetected step.
    model = TargetModel(F=np.eye(2), G=np.eye(2), H=np.eye(2), Q=np.eye(2),
                        r_base=np.eye(2), p_d=0.8)
    return Scenario(models=(model, model),
                    priorities=np.array([0.5, 0.5]),
                    weights=CostWeights(np.zeros(2), np.ones(2), 0.1),
                    tau_max=tau_max,
                    initial_posteriors=(np.eye(2), np.eye(2)),
                    initial_priors=(np.eye(2), np.eye(2)))


def counting(fn, name, counts):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def negative_posterior_belief(p_a):
    # The rival's posterior is fine, the priority target's negative. At
    # -10 the innovation variance -10 + 25 stays positive and the
    # updated posterior negative; at -30 the innovation is negative.
    return Belief((np.array([[p_a]]), np.array([[4.0]])),
                  (np.array([[9.0]]), np.array([[4.0]])), 0)


class TestPathEngine:
    @pytest.mark.parametrize("name", sorted(ENGINE_SCENARIOS))
    def test_matches_scalar_rollout(self, name):
        # The scalar rollout is the reference: same detections and tau,
        # sample costs equal up to round-off, for every family and a
        # spread of weight scales (early, interior and late stops).
        scenario = ENGINE_SCENARIOS[name]()
        seeds = [child_seed(31, "engine", b) for b in range(5)]
        (paths,) = _path_chunks(scenario, seeds, StopAt(scenario.tau_max))
        taus = set()
        for family in PolicyFamily:
            layout = ParamLayout(family, scenario.n_targets,
                                 scenario.models[0].state_dim)
            for scale in (0.03, 0.1, 1.0):
                for i in range(2):
                    phi = stream(i, "engine.params").uniform(
                        -1.0, 1.0, layout.n_params)
                    params = layout.build(scale * phi)
                    tau, costs = score_paths(paths, params)
                    for b, seed in enumerate(seeds):
                        ref = rollout(scenario, params, seed)
                        assert tau[b] == ref.tau
                        np.testing.assert_array_equal(
                            paths.detections[b, :ref.tau], ref.detections)
                        assert costs[b] == pytest.approx(ref.sample_cost,
                                                         rel=1e-12, abs=0)
                        taus.add(ref.tau)
        assert len(taus) > 2

    def test_stop_at_matches_scalar_rollout(self):
        scenario = scalar_test_scenario(tau_max=12)
        seeds = [child_seed(8, "engine", b) for b in range(4)]
        for k in (1, 5, 12, 20):
            tau, costs = policy_costs(scenario, StopAt(k), seeds)
            for b, seed in enumerate(seeds):
                ref = rollout(scenario, StopAt(k), seed)
                assert tau[b] == ref.tau
                assert costs[b] == pytest.approx(ref.sample_cost,
                                                 rel=1e-12, abs=0)

    def test_curve_means_match_periodic_policy_cost(self):
        scenario = stock_scenario("flyby")
        curve = periodic_cost_curve(scenario, 23, 20)
        for k in (1, 15, 60):
            expected = periodic_policy_cost(scenario, k, 23, 20)
            assert curve[:, k - 1].mean() == pytest.approx(expected,
                                                           rel=1e-12, abs=0)

    def test_evaluate_cost_matches_scalar_mean(self):
        scenario = stock_scenario("flyby")
        layout = ParamLayout(PolicyFamily.EIGEN_MIN, 4, 4)
        params = layout.build(0.1 * stream(0, "engine.params").uniform(
            -1.0, 1.0, layout.n_params))
        expected = np.mean([rollout(scenario, params, seed).sample_cost
                            for seed in [4] + [child_seed(4, "eval.rollout",
                                                          b)
                                               for b in range(1, 6)]])
        assert evaluate_cost(scenario, params, 4, 6) == \
            pytest.approx(expected, rel=1e-12, abs=0)
        objective = rollout_objective(scenario, layout, 6)
        assert objective([params.phi], 4) == \
            [evaluate_cost(scenario, params, 4, 6)]

    @pytest.mark.parametrize("chunk_paths", [1, 2, 3, 4, 5])
    def test_objective_equals_evaluate_cost_in_any_chunking(
            self, monkeypatch, chunk_paths):
        # Five seeds in five to one chunks. The objective scores every
        # policy on full-horizon chunks, evaluate_cost on chunks stopped
        # for that policy; the costs must agree bit for bit.
        scenario = stock_scenario("flyby")
        monkeypatch.setattr(optimizer, "_CHUNK_ENTRIES",
                            chunk_paths * 60 * 4 * 4 * 4)
        n_chunks = len(list(_path_chunks(scenario, _eval_seeds(4, 5),
                                         StopAt(scenario.tau_max))))
        assert n_chunks == -(-5 // chunk_paths)
        for family in PolicyFamily:
            layout = ParamLayout(family, 4, 4)
            objective = rollout_objective(scenario, layout, 5)
            phis = [scale * stream(1, "engine.params").uniform(
                -1.0, 1.0, layout.n_params) for scale in (0.03, 0.1, 1.0)]
            assert objective(phis, 4) == \
                [evaluate_cost(scenario, layout.build(phi), 4, 5)
                 for phi in phis]

    def test_objective_simulates_each_seed_once(self, monkeypatch):
        scenario = stock_scenario("flyby")
        monkeypatch.setattr(optimizer, "_CHUNK_ENTRIES", 2 * 60 * 4 * 4 * 4)
        counts = Counter()
        monkeypatch.setattr(optimizer, "_path_chunks",
                            counting(optimizer._path_chunks, "simulate",
                                     counts))
        layout = ParamLayout(PolicyFamily.EIGEN_SUM, 4, 4)
        objective = rollout_objective(scenario, layout, 5)
        phis = [0.1 * stream(i, "engine.params").uniform(
            -1.0, 1.0, layout.n_params) for i in range(3)]
        costs = objective(phis, 4)
        assert counts["simulate"] == 1 and len(set(costs)) == 3
        assert objective(phis[:1], 4) == costs[:1]
        assert counts["simulate"] == 2
        objective(phis, 5)
        assert counts["simulate"] == 3

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ContractError):
            next(_path_chunks(scalar_test_scenario(), [], StopAt(1)))
        with pytest.raises(ContractError):
            periodic_cost_curve(scalar_test_scenario(), 1, 0)

    def test_nonpd_posterior_is_a_numerical_failure(self, monkeypatch):
        scenario = scalar_test_scenario(p_d=1.0, p_d_other=1.0)
        for p_a in (-10.0, -30.0):
            belief = negative_posterior_belief(p_a)
            with pytest.raises(NumericalError):
                rollout(scenario, always(Action.STOP), 0,
                        initial_belief=belief)
            with pytest.raises(NumericalError):
                next(_path_chunks(scenario, [0, 1], StopAt(scenario.tau_max),
                                  belief=belief)).raise_failures()
        monkeypatch.setattr("covstop.observability.riccati_update",
                            lambda p, model, priority: -np.eye(1))
        with pytest.raises(NumericalError):
            rollout(scenario, always(Action.STOP), 0)

    def test_indefinite_posterior_fails_at_its_epoch(self):
        # Target 0's posterior diag(1, -1, -1) corrects to diag(~0.5, -1,
        # -1) at epoch 1: its innovation variance and its determinant are
        # positive, but it is not PSD, so its moment matrix has no
        # Cholesky factor. Every path detects it (p_d = 1).
        model = TargetModel(F=np.eye(3), G=np.eye(3), H=np.eye(1, 3),
                            Q=np.zeros((3, 3)), r_base=np.eye(1), p_d=1.0)
        scenario = Scenario(models=(model, model),
                            priorities=np.array([0.5, 0.5]),
                            weights=CostWeights(np.zeros(2), np.ones(2), 0.1),
                            tau_max=4, initial_posteriors=(np.eye(3),) * 2,
                            initial_priors=(np.eye(3),) * 2)
        belief = Belief((np.diag([1.0, -1.0, -1.0]), np.eye(3)),
                        (np.eye(3), np.eye(3)), 0)
        seeds = [child_seed(6, "engine", b) for b in range(3)]
        (batch,) = _path_chunks(scenario, seeds, StopAt(4), belief=belief)
        np.testing.assert_array_equal(batch.failed_at, 1)
        with pytest.raises(NumericalError, match="epoch 1 on 3 of 3 paths"):
            batch.raise_failures()

    def test_nonpd_prior_fails_every_path(self):
        # Target 1's prior diag(-3, -1.5) steps to diag(-2, -0.5), whose
        # determinant is positive, then to diag(-1, 0.5), whose is not.
        # The posteriors stay positive definite on every path.
        scenario = identity_scenario()
        belief = Belief((np.eye(2), np.eye(2)),
                        (np.eye(2), np.diag([-3.0, -1.5])), 0)
        seeds = [child_seed(5, "engine", b) for b in range(6)]
        full = StopAt(scenario.tau_max)
        with pytest.raises(NumericalError, match="epoch 2 on 6 of 6 paths"):
            next(_path_chunks(scenario, seeds, full,
                              belief=belief)).raise_failures()
        (batch,) = _path_chunks(scenario, seeds, full, belief=belief)
        np.testing.assert_array_equal(batch.failed_at, 2)

    def test_nonpd_prior_fails_after_the_first_block(self):
        # Target 1's prior diag(-20, -9.5) steps by +I: its determinant is
        # positive up to epoch 9, at (-11, -0.5), and negative at epoch
        # 10, which lies in the second stop block under a policy and in
        # the one block under StopAt(12).
        scenario = identity_scenario(tau_max=12)
        belief = Belief((np.eye(2), np.eye(2)),
                        (np.eye(2), np.diag([-20.0, -9.5])), 0)
        seeds = [child_seed(5, "engine", b) for b in range(6)]
        never = PolicyParams(PolicyFamily.EIGEN_SUM, np.zeros((2, 2)),
                             np.zeros((2, 2)))
        for policy in (StopAt(12), never):
            (batch,) = _path_chunks(scenario, seeds, policy, belief=belief)
            assert batch.posteriors.shape[1] == 12
            np.testing.assert_array_equal(batch.failed_at, 10)
            with pytest.raises(NumericalError,
                               match="epoch 10 on 6 of 6 paths"):
                batch.raise_failures()

    def test_one_predict_per_epoch_one_logdets_per_block(self, monkeypatch):
        # The priors ride in the simulated state with the posteriors: a
        # chunk makes one predict call per epoch, and one logdets and one
        # covariance_features call per stop block, however many chunks.
        # Under StopAt the whole chunk is one block.
        scenario = stock_scenario("flyby")
        layout = ParamLayout(PolicyFamily.EIGEN_SUM, 4, 4)
        # Interior stops: tau is 1, 12 or 14 on these seeds.
        params = layout.build(0.1 * stream(1, "engine.params").uniform(
            -1.0, 1.0, layout.n_params))
        seeds = [child_seed(9, "engine", b) for b in range(5)]
        # Two flyby paths (60 epochs of four 4x4 targets) to a chunk.
        monkeypatch.setattr(optimizer, "_CHUNK_ENTRIES", 2 * 60 * 4 * 4 * 4)
        epochs = [batch.posteriors.shape[1] for batch in
                  _path_chunks(scenario, seeds, params)]
        assert len(epochs) == 3 and min(epochs) < scenario.tau_max
        counts = Counter()
        for name in ("predict", "logdets", "covariance_features"):
            monkeypatch.setattr(optimizer, name,
                                counting(getattr(optimizer, name), name,
                                         counts))
        policy_costs(scenario, params, seeds)
        blocks = sum(-(-e // _STOP_BLOCK) for e in epochs)
        assert counts == {"predict": sum(epochs), "logdets": blocks,
                          "covariance_features": blocks}
        counts.clear()
        next(_path_chunks(scenario, seeds, StopAt(scenario.tau_max)))
        assert counts == {"predict": scenario.tau_max, "logdets": 1}

    def test_failure_raises_only_at_or_before_tau(self):
        scenario = scalar_test_scenario()
        (paths,) = _path_chunks(scenario, [1, 2, 3], StopAt(scenario.tau_max))
        failed = dataclasses.replace(paths, failed_at=np.full(3, 2))
        zeros = np.zeros((2, 1))
        stop_first = PolicyParams(PolicyFamily.EIGEN_SUM, zeros,
                                  np.array([[1e6], [0.0]]))
        tau, _ = score_paths(failed, stop_first)
        np.testing.assert_array_equal(tau, [1, 1, 1])
        never = PolicyParams(PolicyFamily.EIGEN_SUM, zeros, zeros)
        with pytest.raises(NumericalError):
            score_paths(failed, never)
