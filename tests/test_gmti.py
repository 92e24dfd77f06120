import dataclasses
import json
import math

import numpy as np
import pytest

from covstop.config import _bundled_path, scenario_from_dict, stock_scenario
from covstop.errors import ContractError
from covstop.filter_core import lyapunov_update, riccati_update
from covstop.gmti import (MacroMode, OrbitSpec, PlatformState, jacobian_h,
                          macro_select_priority, models_at_location,
                          nonlinear_h, platform_orbit_state, propagate_truth,
                          run_macro_cycles, system_matrices)
from covstop.observability import Belief
from covstop.optimizer import StopAt, rollout
from covstop.policy import Action, PolicyFamily, PolicyParams
from covstop.streams import child_seed, stream


class TestSystemMatrices:
    def test_period_dependent_entries(self):
        f, g, q, r = system_matrices(0.1, 0.5, 0.5, 20.0, np.radians(0.5), 5.0)
        assert f[0, 1] == pytest.approx(0.1)
        assert f[2, 3] == pytest.approx(0.1)
        assert q[0, 0] == pytest.approx(0.25 * 0.1**4 * 0.25)
        assert q[0, 1] == pytest.approx(0.5 * 0.1**3 * 0.25)
        assert g[0, 0] == pytest.approx(0.005)

    def test_zero_period_degenerates(self):
        f, g, q, _ = system_matrices(0.0, 0.5, 0.5, 20.0, 0.01, 5.0)
        np.testing.assert_array_equal(f, np.eye(4))
        np.testing.assert_array_equal(q, np.zeros((4, 4)))

    def test_measurement_noise_units(self):
        _, _, _, r = system_matrices(0.1, 0.5, 0.5, 20.0,
                                     math.radians(0.5), 5.0)
        np.testing.assert_allclose(
            np.diag(r), [400.0, math.radians(0.5) ** 2, 25.0])
        assert r[0, 1] == 0.0

    def test_process_noise_is_gain_outer_product(self):
        f, g, q, _ = system_matrices(0.2, 0.7, 0.3, 20.0, 0.01, 5.0)
        np.testing.assert_allclose(g @ np.diag([0.49, 0.09]) @ g.T, q,
                                   atol=1e-15)


class TestNonlinearH:
    def test_along_x_axis(self):
        platform = PlatformState(np.zeros(4), 0.0)
        z = nonlinear_h(np.array([100.0, 0.0, 0.0, 0.0]), platform)
        np.testing.assert_allclose(z, [100.0, 0.0, 0.0])

    def test_zero_relative_velocity_zero_range_rate(self):
        platform = PlatformState(np.array([0.0, 5.0, 0.0, -2.0]), 1000.0)
        z = nonlinear_h(np.array([300.0, 5.0, 400.0, -2.0]), platform)
        assert z[2] == pytest.approx(0.0)
        assert z[0] == pytest.approx(math.sqrt(300**2 + 400**2 + 1000**2))

    def test_azimuth_uses_full_quadrants(self):
        platform = PlatformState(np.zeros(4), 100.0)
        z = nonlinear_h(np.array([-50.0, 0.0, -50.0, 0.0]), platform)
        assert z[1] == pytest.approx(-3 * np.pi / 4)

    def test_coincident_rejected(self):
        platform = PlatformState(np.zeros(4), 0.0)
        with pytest.raises(ContractError):
            nonlinear_h(np.zeros(4), platform)


class TestTruthAndMeasurement:
    def test_zero_noise_is_deterministic(self):
        scenario = stock_scenario("flyby")
        model = scenario.models[0]
        s = np.array([10.0, 1.0, -5.0, 2.0])
        out = propagate_truth(s, model, 0.0, stream(0, "t"))
        np.testing.assert_allclose(out, model.F @ s)

    def test_zero_state_zero_noise(self):
        scenario = stock_scenario("flyby")
        out = propagate_truth(np.zeros(4), scenario.models[0], 0.0,
                              stream(0, "t"))
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_seeded_replay(self):
        scenario = stock_scenario("flyby")
        model = scenario.models[0]
        s = np.array([10.0, 1.0, -5.0, 2.0])
        a = propagate_truth(s, model, 1.5, stream(42, "truth"))
        b = propagate_truth(s, model, 1.5, stream(42, "truth"))
        np.testing.assert_array_equal(a, b)
        # replay the draw directly through the same stream
        w = stream(42, "truth").normal(0.0, 1.5, size=2)
        np.testing.assert_allclose(a, model.F @ s + model.G @ w)


def _orbit(n_locations: int) -> OrbitSpec:
    return OrbitSpec(radius=30_000.0, speed=250.0, altitude=5000.0,
                     n_locations=n_locations)


class TestPlatformOrbit:
    @pytest.mark.parametrize("n_locations", [36, 72, 100])
    def test_quarter_circle(self, n_locations):
        state = platform_orbit_state(_orbit(n_locations), n_locations // 4)
        np.testing.assert_allclose(state.xi, [0.0, -250.0, 30_000.0, 0.0],
                                   atol=1e-9)

    @pytest.mark.parametrize("n_locations", [36, 72, 100])
    def test_full_circle(self, n_locations):
        state = platform_orbit_state(_orbit(n_locations), n_locations)
        np.testing.assert_allclose(state.xi, [30_000.0, 0.0, 0.0, 250.0],
                                   atol=1e-8)
        assert state.altitude == 5000.0

    @pytest.mark.parametrize("n_locations,degrees", [(36, 10.0), (72, 5.0),
                                                     (100, 3.6)])
    def test_spacing_is_full_circle_over_locations(self, n_locations,
                                                   degrees):
        state = platform_orbit_state(_orbit(n_locations), 1)
        ang = math.radians(degrees)
        np.testing.assert_allclose(
            state.xi, [30_000.0 * math.cos(ang), -250.0 * math.sin(ang),
                       30_000.0 * math.sin(ang), 250.0 * math.cos(ang)],
            rtol=1e-12)

    def test_72_locations_are_5_degrees_apart_exactly(self):
        # The stock orbit's states must not move by a bit.
        for n in (1, 17, 72):
            ang = math.radians(5.0 * n)
            state = platform_orbit_state(_orbit(72), n)
            assert state.xi.tolist() == [
                30_000.0 * math.cos(ang), -250.0 * math.sin(ang),
                30_000.0 * math.sin(ang), 250.0 * math.cos(ang)]

    @pytest.mark.parametrize("n_locations", [36, 72, 100])
    def test_location_bounds(self, n_locations):
        with pytest.raises(ContractError):
            platform_orbit_state(_orbit(n_locations), 0)
        with pytest.raises(ContractError):
            platform_orbit_state(_orbit(n_locations), n_locations + 1)

    def test_same_angle_same_models(self):
        # location 9 of 36 and 18 of 72 both sit at 90 degrees
        s = stock_scenario("persistent")
        s36 = dataclasses.replace(
            s, orbit=dataclasses.replace(s.orbit, n_locations=36))
        for m36, m72 in zip(models_at_location(s36, 9),
                            models_at_location(s, 18)):
            np.testing.assert_array_equal(m36.H, m72.H)

    @pytest.mark.parametrize("location", [1, 19, 72])
    def test_models_equal_fully_validated_ones(self, location):
        # Swapping H alone gives the models a full re-validation would.
        s = stock_scenario("persistent")
        platform = platform_orbit_state(s.orbit, location)
        for model, estimate, fast in zip(s.models, s.estimates,
                                         models_at_location(s, location)):
            full = dataclasses.replace(
                model, H=jacobian_h(np.asarray(estimate), platform))
            for field in dataclasses.fields(full):
                np.testing.assert_array_equal(getattr(fast, field.name),
                                              getattr(full, field.name))

    def test_config_orbit_past_72_locations_runs(self):
        spec = json.loads(_bundled_path("persistent").read_text())
        spec["platform"].update(n_locations=100, start_location=90)
        s = scenario_from_dict(spec).with_overrides(tau_max=3)
        trace = run_macro_cycles(s, StopAt(1), 15, seed=1)
        assert trace.stop_times.size == 15


class TestMacroSelect:
    def test_persistent_picks_largest_logdet(self):
        posts = [2.0 * np.eye(2), np.eye(2)]
        a, nu = macro_select_priority(posts, MacroMode.PERSISTENT)
        assert a == 0
        np.testing.assert_array_equal(nu, [1.0, 0.0])

    def test_flyby_fixed_vector(self):
        nu_cfg = np.array([0.6, 0.39, 0.008, 0.002])
        a, nu = macro_select_priority([np.eye(2)] * 4, MacroMode.FLYBY_FIXED,
                                      nu_cfg)
        assert a == 0
        np.testing.assert_array_equal(nu, nu_cfg)

    def test_stock_target_mse_ordering(self):
        targets = json.loads(_bundled_path("flyby").read_text())["targets"]
        mses = []
        for t in targets:
            d = np.array(t["estimate"]) - np.array(t["true_state"])
            mses.append(np.mean(d * d))
        assert mses[0] == pytest.approx(710.87, abs=0.005)
        assert mses[1] == pytest.approx(222.16, abs=0.005)
        assert mses[2] == pytest.approx(187.37, abs=0.005)
        assert mses[3] == pytest.approx(140.15, abs=0.005)
        assert int(np.argmax(mses)) == 0


class TestScenarioBuilders:
    def test_flyby_constants(self):
        s = stock_scenario("flyby")
        assert s.models[0].p_d == 0.75
        assert s.weights.operating_cost == 0.8
        np.testing.assert_array_equal(s.priorities,
                                      [0.6, 0.39, 0.008, 0.002])
        np.testing.assert_array_equal(s.weights.beta,
                                      [5.0, 0.05, 0.05, 0.05])
        assert s.a == 0
        assert abs(np.sum(s.priorities) - 1.0) < 1e-12

    def test_persistent_constants(self):
        s = stock_scenario("persistent")
        assert s.models[0].p_d == 0.9
        np.testing.assert_array_equal(s.priorities, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(s.weights.alpha, [0.25, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(s.weights.beta, [0.25, 1.0, 1.0, 1.0])
        assert s.orbit is not None
        assert s.orbit.speed == 250.0
        assert s.orbit.altitude == 5000.0

    def test_models_have_distinct_observation_maps(self):
        s = stock_scenario("flyby")
        assert not np.array_equal(s.models[0].H, s.models[1].H)
        for model in s.models:
            assert model.H.shape == (3, 4)

    def test_priorities_must_be_simplex(self):
        s = stock_scenario("flyby")
        import dataclasses
        with pytest.raises(ContractError):
            dataclasses.replace(s, priorities=np.array([0.6, 0.39, 0.008,
                                                        0.01]))


class TestRunMacroCycles:
    def test_zero_cycles_empty(self):
        s = stock_scenario("persistent").with_overrides(tau_max=10)
        trace = run_macro_cycles(s, StopAt(3), 0, seed=1)
        assert trace.cycle.size == 0
        assert trace.log_det_posterior.size == 0
        assert trace.stop_times.size == 0

    def test_certain_detection_trace_matches_pure_recursion(self):
        # With p_d = 1 and stop-at-1 the logged covariances follow one
        # Riccati/Lyapunov step per cycle exactly.
        s = stock_scenario("persistent").with_overrides(tau_max=8).with_overrides(p_d=1.0)
        trace = run_macro_cycles(s, StopAt(1), 3, seed=5)
        posts = list(s.initial_posteriors)
        location = s.orbit.start_location
        for cycle in range(3):
            a, nu = macro_select_priority(posts, MacroMode.PERSISTENT)
            models = models_at_location(s, location)
            expected = []
            for l in range(4):
                if nu[l] > 0:
                    expected.append(riccati_update(posts[l], models[l],
                                                   nu[l]))
                else:
                    expected.append(lyapunov_update(posts[l], models[l]))
            rows = np.nonzero(trace.cycle == cycle)[0]
            assert len(rows) == 4  # one epoch per cycle, four targets
            for l, row in enumerate(rows):
                sign, logdet = np.linalg.slogdet(expected[l])
                assert trace.log_det_posterior[row] == pytest.approx(logdet)
                assert trace.action[row] == int(Action.STOP)
            posts = expected
            location = location % 72 + 1

    def test_persistent_logdet_directions(self):
        # within a cycle the filtered target's posterior log det falls
        # while the predictor-only targets' grow
        s = stock_scenario("persistent").with_overrides(tau_max=12)
        trace = run_macro_cycles(s, StopAt(12), 1, seed=9)
        a = trace.priority_targets[0]
        rows = {l: trace.log_det_posterior[trace.target == l]
                for l in range(4)}
        assert rows[a][-1] < rows[a][0]
        for l in range(4):
            if l != a:
                assert rows[l][-1] > rows[l][0]

    def test_priors_reset_each_cycle(self):
        s = stock_scenario("persistent").with_overrides(tau_max=5)
        trace = run_macro_cycles(s, StopAt(2), 2, seed=3)
        # measurement-free targets keep posterior equal to prior
        rival = trace.target != trace.priority_targets[trace.cycle]
        assert rival.any()
        np.testing.assert_allclose(trace.log_det_posterior[rival],
                                   trace.log_det_prior[rival])

    @pytest.mark.parametrize("policies", [
        lambda belief, epoch: Action.STOP,
        {1: StopAt(2), 2: lambda belief, epoch: Action.STOP},
        {location: StopAt(2) for location in range(1, 73)},
    ])
    def test_other_callables_rejected(self, policies):
        # One policy stops every cycle: a per-location mapping is
        # rejected even when each of its values would be accepted.
        s = stock_scenario("persistent").with_overrides(tau_max=5)
        with pytest.raises(ContractError):
            run_macro_cycles(s, policies, 2, seed=3)


def scalar_macro_cycles(scenario, policy, n_cycles, seed):
    """The scalar reference: one rollout per cycle, slogdet per record.

    An orbital scenario moves one orbit location per cycle; one without
    an orbit keeps its own models. Returns the seven trace columns
    stacked as rows, the stop times and the priority targets.
    """
    rows, stop_times, priority_targets = [], [], []
    posteriors = scenario.initial_posteriors
    location = scenario.orbit.start_location if scenario.orbit else None
    for cycle in range(n_cycles):
        a, nu = macro_select_priority(posteriors, scenario.macro_mode,
                                      scenario.priorities)
        cyc_scenario = dataclasses.replace(
            scenario, priorities=nu,
            models=models_at_location(scenario, location))
        result = rollout(cyc_scenario, policy,
                         child_seed(seed, "macro.cycle", cycle),
                         initial_belief=Belief(posteriors, posteriors, a))
        for epoch in range(1, result.tau + 1):
            stepped = result.belief_trajectory[epoch]
            action = Action.STOP if epoch == result.tau else Action.CONTINUE
            for l in range(scenario.n_targets):
                rows.append((cycle, epoch, l,
                             np.linalg.slogdet(stepped.posteriors[l])[1],
                             np.linalg.slogdet(stepped.priors[l])[1],
                             result.detections[epoch - 1, l], int(action)))
        stop_times.append(result.tau)
        priority_targets.append(a)
        posteriors = result.belief_trajectory[-1].posteriors
        if location is not None:
            location = location % scenario.orbit.n_locations + 1
    return np.array(rows).T, stop_times, priority_targets


def eigen_sum_first_axis(weight: float) -> PolicyParams:
    # theta = theta_bar = weight * e_1 on every target
    theta = np.zeros((4, 4))
    theta[:, 0] = weight
    return PolicyParams(PolicyFamily.EIGEN_SUM, theta, theta)


class TestMacroCyclesMatchScalarLoop:
    def assert_same(self, name, policy, seed):
        s = stock_scenario(name)
        trace = run_macro_cycles(s, policy, 20, seed)
        columns, stop_times, priority_targets = scalar_macro_cycles(
            s, policy, 20, seed)
        assert trace.stop_times.tolist() == stop_times
        assert trace.priority_targets.tolist() == priority_targets
        for name, expected in zip(("cycle", "epoch", "target", "detected",
                                   "action"), columns[[0, 1, 2, 5, 6]]):
            np.testing.assert_array_equal(getattr(trace, name), expected)
        for name, expected in zip(("log_det_posterior", "log_det_prior"),
                                  columns[[3, 4]]):
            np.testing.assert_allclose(getattr(trace, name), expected,
                                       rtol=1e-12, atol=0.0)
        return trace

    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_policy_params(self, seed):
        trace = self.assert_same("persistent", eigen_sum_first_axis(0.006),
                                 seed)
        assert len(set(trace.stop_times.tolist())) > 2
        assert trace.detected.any() and not trace.detected.all()

    @pytest.mark.parametrize("k", [1, 14, 60, 75])
    def test_stop_at(self, k):
        # 60 is the horizon and 75 lies past it
        trace = self.assert_same("persistent", StopAt(k), 4)
        assert trace.stop_times.tolist() == [min(k, 60)] * 20

    def test_flyby_policy_params(self):
        # The fly-by has no orbit: fixed priorities and models each cycle.
        trace = self.assert_same("flyby", eigen_sum_first_axis(0.05), 3)
        assert trace.stop_times[0] == 18
        assert (trace.priority_targets == 0).all()

    def test_flyby_stop_at_past_horizon(self):
        trace = self.assert_same("flyby", StopAt(75), 5)
        assert trace.stop_times.tolist() == [60] * 20
