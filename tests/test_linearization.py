import numpy as np
import pytest

from covstop.errors import ContractError
from covstop.gmti import PlatformState, nonlinear_h
from covstop.linearization import (STUDY_INITIAL_STATES, STUDY_KS,
                                   hessian_h, jacobian_h, metric_D, metric_E,
                                   nominal_trajectory, platform_track,
                                   study_model, study_platform,
                                   true_trajectory, validate_linearization)
from covstop.streams import stream


@pytest.fixture(scope="module")
def geometry():
    platform = study_platform()
    model = study_model()
    platforms = platform_track(platform, 100, 0.1)
    return platform, model, platforms


class TestJacobian:
    def test_on_axis_structure(self):
        # target on the platform's +x axis with matched velocities
        platform = PlatformState(np.array([0.0, 1.0, 0.0, 2.0]), 500.0)
        s = np.array([3000.0, 1.0, 0.0, 2.0])
        jac = jacobian_h(s, platform)
        r = np.sqrt(3000.0**2 + 500.0**2)
        np.testing.assert_allclose(jac[0], [3000.0 / r, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(jac[2, 0], 0.0, atol=1e-15)
        np.testing.assert_allclose(jac[2, 2], 0.0, atol=1e-15)

    def test_azimuth_row_ignores_velocities(self, geometry):
        platform, _, _ = geometry
        gen = stream(40, "test.jac")
        for _ in range(20):
            s = gen.uniform(-200, 200, 4)
            jac = jacobian_h(s, platform)
            assert jac[1, 1] == 0.0
            assert jac[1, 3] == 0.0
            assert jac[0, 1] == 0.0
            assert jac[0, 3] == 0.0

    def test_finite_difference_agreement(self, geometry):
        platform, _, _ = geometry
        gen = stream(41, "test.jac.fd")
        worst = 0.0
        for _ in range(1000):
            s = np.array([gen.uniform(-300, 300), gen.uniform(-20, 20),
                          gen.uniform(-300, 300), gen.uniform(-20, 20)])
            jac = jacobian_h(s, platform)
            fd = np.empty((3, 4))
            for j in range(4):
                h = 1e-4 * max(abs(s[j]), 1.0)
                e = np.zeros(4)
                e[j] = h
                fd[:, j] = (nonlinear_h(s + e, platform)
                            - nonlinear_h(s - e, platform)) / (2 * h)
            worst = max(worst,
                        np.max(np.abs(jac - fd)) / np.max(np.abs(jac)))
        assert worst < 1e-5

    def test_degenerate_geometry_rejected(self):
        platform = PlatformState(np.zeros(4), 100.0)
        with pytest.raises(ContractError):
            jacobian_h(np.array([0.0, 1.0, 0.0, 1.0]), platform)


class TestHessian:
    def test_slices_symmetric(self, geometry):
        platform, _, _ = geometry
        gen = stream(42, "test.hess")
        for _ in range(10):
            s = gen.uniform(-200, 200, 4)
            tensor = hessian_h(s, platform)
            for i in range(3):
                scale = np.max(np.abs(tensor[i])) or 1.0
                np.testing.assert_allclose(tensor[i], tensor[i].T,
                                           atol=1e-6 * scale)

    def test_range_curvature_on_axis(self):
        # with the target on the x axis, d2(range)/dy2 = 1/r
        platform = PlatformState(np.zeros(4), 0.0)
        s = np.array([5000.0, 0.0, 0.0, 0.0])
        tensor = hessian_h(s, platform)
        assert tensor[0, 2, 2] == pytest.approx(1.0 / 5000.0, rel=1e-5)

    def test_matches_second_difference_of_map(self, geometry):
        platform, _, _ = geometry
        s = np.array([120.0, 4.0, -80.0, 6.0])
        tensor = hessian_h(s, platform)
        # independent second-order finite difference of h itself
        for j in (0, 2):
            h = 1e-2 * max(abs(s[j]), 1.0)
            e = np.zeros(4)
            e[j] = h
            second = (nonlinear_h(s + e, platform)
                      - 2 * nonlinear_h(s, platform)
                      + nonlinear_h(s - e, platform)) / h**2
            for i in range(3):
                if abs(second[i]) > 1e-12:
                    assert tensor[i, j, j] == pytest.approx(second[i],
                                                            rel=1e-4,
                                                            abs=1e-12)


class TestMetricD:
    def test_zero_at_start(self, geometry):
        _, model, platforms = geometry
        nominal = nominal_trajectory(
            np.array(STUDY_INITIAL_STATES["a"]), model.F, 10)
        assert metric_D(nominal, platforms, 0) == 0.0

    def test_table_anchor_values_at_one_second(self, geometry):
        # printed values for the short-horizon column reproduce within
        # half a printed unit in the last decimal
        _, model, platforms = geometry
        printed_k10 = {"a": 0.0010, "b": 0.0009, "c": 0.0010, "d": 0.0007,
                       "e": 0.0010}
        for label, expected in printed_k10.items():
            nominal = nominal_trajectory(
                np.array(STUDY_INITIAL_STATES[label]), model.F, 10)
            got = metric_D(nominal, platforms, 10)
            assert got == pytest.approx(expected, abs=5e-4)

    def test_deterministic(self, geometry):
        _, model, platforms = geometry
        nominal = nominal_trajectory(
            np.array(STUDY_INITIAL_STATES["c"]), model.F, 50)
        a = metric_D(nominal, platforms, 50)
        b = metric_D(nominal, platforms, 50)
        assert a == b

    def test_grows_with_horizon(self, geometry):
        _, model, platforms = geometry
        nominal = nominal_trajectory(
            np.array(STUDY_INITIAL_STATES["a"]), model.F, 100)
        values = [metric_D(nominal, platforms, k) for k in STUDY_KS]
        assert values[0] < values[1] < values[2]
        assert values[2] < 0.06


class TestMetricE:
    def test_scales_linearly_in_small_deviations(self, geometry):
        platform, _, _ = geometry
        s_bar = np.array([100.0, 3.0, 40.0, 7.0])
        d = np.array([0.8, 0.1, -0.5, 0.2])
        e1 = metric_E(s_bar + d, s_bar, platform, 0.1)
        e2 = metric_E(s_bar + 0.5 * d, s_bar, platform, 0.1)
        assert e2 == pytest.approx(0.5 * e1, rel=0.1)

    def test_zero_deviation_rejected(self, geometry):
        platform, _, _ = geometry
        s = np.array([100.0, 3.0, 40.0, 7.0])
        with pytest.raises(ContractError):
            metric_E(s, s, platform, 0.5)

    def test_gamma_bounds(self, geometry):
        platform, _, _ = geometry
        s = np.array([100.0, 3.0, 40.0, 7.0])
        with pytest.raises(ContractError):
            metric_E(s + 1.0, s, platform, 1.5)

    def test_nonnegative_over_seeds(self, geometry):
        platform, model, platforms = geometry
        s0 = np.array(STUDY_INITIAL_STATES["b"])
        nominal = nominal_trajectory(s0, model.F, 50)
        for r in range(5):
            truth = true_trajectory(s0, model, 1.5, 50,
                                    stream(50, "test.e", r))
            for gamma in (0.1, 0.8):
                assert metric_E(truth[50], nominal[50], platforms[50],
                                gamma) >= 0.0


class TestValidateLinearization:
    def test_stock_grid_within_bounds(self):
        report = validate_linearization(n_seeds=5, seed=3)
        assert report.flags == []
        assert report.d_values.shape == (5, 3)
        assert np.all(report.d_values >= 0.0)
        assert np.all(report.d_values <= 0.06)
        for gamma in report.gammas:
            assert np.all(report.e_values[gamma] <= 0.02)

    def test_pathological_geometry_flags(self):
        # target skimming past the platform's ground projection bends
        # the measurement map hard
        platform = PlatformState(np.array([0.0, 0.0, 0.0, 0.0]), 40.0)
        states = {"x": np.array([30.0, -6.0, 4.0, 0.0])}
        report = validate_linearization(initial_states=states,
                                        platform0=platform,
                                        ks=(10, 50), gammas=(0.5,),
                                        n_seeds=3, seed=1)
        assert report.flags

    def test_deterministic_given_seed(self):
        r1 = validate_linearization(n_seeds=3, seed=11)
        r2 = validate_linearization(n_seeds=3, seed=11)
        np.testing.assert_array_equal(r1.d_values, r2.d_values)
        for gamma in r1.gammas:
            np.testing.assert_array_equal(r1.e_values[gamma],
                                          r2.e_values[gamma])
