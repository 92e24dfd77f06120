import numpy as np
import pytest

from covstop.errors import ContractError
from covstop.filter_core import symmetrize
from covstop.observability import Belief
from covstop.policy import (Action, ParamLayout, PolicyFamily,
                            PolicyParams, decide,
                            decision_statistic,
                            reparam_positive, reparam_spherical,
                            verify_monotone)
from covstop.sampling import random_pd, random_psd
from covstop.streams import stream

from belief_reference import replace_slot

EIGEN_FAMILIES = (PolicyFamily.EIGEN_MAX, PolicyFamily.EIGEN_MIN,
                  PolicyFamily.EIGEN_SUM)


def eigen_params(family, theta, theta_bar):
    return PolicyParams(family, np.asarray(theta, dtype=float),
                        np.asarray(theta_bar, dtype=float))


def random_belief(gen, n_targets=2, m=4, a=0, scale=1.0):
    posts = tuple(random_pd(gen, m, scale * gen.uniform(0.5, 2.0))
                  for _ in range(n_targets))
    priors = tuple(random_pd(gen, m, scale * gen.uniform(0.5, 2.0))
                   for _ in range(n_targets))
    return Belief(posts, priors, a)


class TestEigenDecisions:
    def test_zero_weights_continue(self):
        gen = stream(30, "test.policy")
        belief = random_belief(gen)
        params = eigen_params(PolicyFamily.EIGEN_SUM, np.zeros((2, 4)),
                              np.zeros((2, 4)))
        assert decide(belief, params) is Action.CONTINUE

    def test_scalar_rival_drives_stop(self):
        belief = Belief((np.array([[1.0]]), np.array([[1.5]])),
                        (np.array([[1.0]]), np.array([[1.5]])), 0)
        params = eigen_params(PolicyFamily.EIGEN_SUM,
                              [[0.0], [1.0]], [[0.0], [0.0]])
        assert decide(belief, params) is Action.STOP
        smaller = Belief((np.array([[1.0]]), np.array([[0.5]])),
                         belief.priors, 0)
        assert decide(smaller, params) is Action.CONTINUE

    def test_families_agree_with_single_rival(self):
        gen = stream(31, "test.policy.l2")
        for _ in range(50):
            belief = random_belief(gen)
            theta = gen.uniform(0.0, 1.0, (2, 4))
            theta_bar = gen.uniform(0.0, 1.0, (2, 4))
            actions = {decide(belief, eigen_params(f, theta, theta_bar))
                       for f in EIGEN_FAMILIES}
            assert len(actions) == 1

    def test_tie_stops(self):
        # statistic exactly at the threshold resolves to stop
        belief = Belief((np.array([[1.0]]), np.array([[1.0]])),
                        (np.array([[1.0]]), np.array([[1.0]])), 0)
        params = eigen_params(PolicyFamily.EIGEN_SUM, [[0.0], [1.0]],
                              [[0.0], [0.0]])
        assert decision_statistic(belief, params) == pytest.approx(1.0)
        assert decide(belief, params) is Action.STOP


class TestQuadformDecisions:
    def test_identical_covariances_continue(self):
        gen = stream(32, "test.policy.quad")
        p = random_pd(gen, 4, 1.0)
        belief = Belief((p, p), (p, p), 0)
        layout = ParamLayout(PolicyFamily.QUADFORM, 2, 4, tie_priors=True,
                             share_other=True)
        params = layout.build(gen.uniform(-1, 1, layout.n_params))
        assert decide(belief, params) is Action.CONTINUE

    def test_scalar_reduction(self):
        # at m = 1 every unit vector is +-1 and the rule is a plain
        # threshold on the covariance differences
        belief = Belief((np.array([[2.0]]), np.array([[4.0]])),
                        (np.array([[3.0]]), np.array([[2.5]])), 0)
        params = PolicyParams(PolicyFamily.QUADFORM,
                              np.array([[1.0], [-1.0]]),
                              np.array([[1.0], [1.0]]))
        expected = -2.0 + 3.0 + (4.0 - 2.5)
        assert decision_statistic(belief, params) == pytest.approx(expected)
        assert decide(belief, params) is Action.STOP

    def test_statistic_matches_direct_formula(self):
        gen = stream(33, "test.policy.quad2")
        for _ in range(20):
            belief = random_belief(gen, n_targets=3, a=1)
            layout = ParamLayout(PolicyFamily.QUADFORM, 3, 4, a=1)
            params = layout.build(gen.uniform(-1, 1, layout.n_params))
            a = belief.a
            expected = (-params.theta[a] @ belief.posteriors[a]
                        @ params.theta[a]
                        + params.theta_bar[a] @ belief.priors[a]
                        @ params.theta_bar[a])
            for l in range(3):
                if l == a:
                    continue
                expected += params.theta[l] @ belief.posteriors[l] \
                    @ params.theta[l]
                expected -= params.theta_bar[l] @ belief.priors[l] \
                    @ params.theta_bar[l]
            assert decision_statistic(belief, params) == pytest.approx(expected)


class TestReparametrizations:
    def test_square_map(self):
        np.testing.assert_array_equal(reparam_positive(np.zeros(3)),
                                      np.zeros(3))
        np.testing.assert_array_equal(reparam_positive(np.array([-2.0, 3.0])),
                                      np.array([4.0, 9.0]))

    def test_square_round_trip(self):
        theta = np.array([0.0, 0.25, 4.0, 1.7])
        np.testing.assert_allclose(reparam_positive(np.sqrt(theta)), theta)

    def test_spherical_axis_cases(self):
        np.testing.assert_allclose(reparam_spherical(np.zeros(3)),
                                   np.array([1.0, 0.0, 0.0, 0.0]),
                                   atol=1e-15)
        np.testing.assert_allclose(reparam_spherical(np.array([np.pi / 2])),
                                   np.array([0.0, 1.0]), atol=1e-15)

    def test_spherical_unit_norm(self):
        gen = stream(35, "test.policy.sph")
        for _ in range(200):
            phi = gen.uniform(-10, 10, size=gen.integers(1, 6))
            theta = reparam_spherical(phi)
            assert abs(np.linalg.norm(theta) - 1.0) < 1e-12

    def test_invalid_params_rejected(self):
        with pytest.raises(ContractError):
            eigen_params(PolicyFamily.EIGEN_SUM, [[-0.1] * 4, [0.0] * 4],
                         np.zeros((2, 4)))
        with pytest.raises(ContractError):
            PolicyParams(PolicyFamily.QUADFORM, np.ones((2, 4)),
                         np.ones((2, 4)))


class TestParamLayout:
    @pytest.mark.parametrize("family,expected", [
        (PolicyFamily.EIGEN_SUM, 16),
        (PolicyFamily.QUADFORM, 12),
    ])
    def test_param_counts(self, family, expected):
        assert ParamLayout(family, 2, 4).n_params == expected

    def test_share_and_tie(self):
        layout = ParamLayout(PolicyFamily.EIGEN_SUM, 4, 4, share_other=True,
                             tie_priors=True)
        assert layout.n_params == 8
        params = layout.build(np.arange(8.0))
        np.testing.assert_array_equal(params.theta[1], params.theta[2])
        np.testing.assert_array_equal(params.theta[1], params.theta[3])
        np.testing.assert_array_equal(params.theta_bar, params.theta)

    def test_build_validates_length(self):
        layout = ParamLayout(PolicyFamily.EIGEN_SUM, 2, 4)
        with pytest.raises(ContractError):
            layout.build(np.zeros(5))

    def test_quadform_scalar_state(self):
        layout = ParamLayout(PolicyFamily.QUADFORM, 2, 1)
        assert layout.n_params == 0
        params = layout.build(np.zeros(0))
        np.testing.assert_array_equal(np.abs(params.theta), np.ones((2, 1)))


# The sampler draws beliefs of the params' (targets, state dim) shape.
SAMPLED_SHAPES = {"2x4": (2, 4), "3x2": (3, 2)}


def unchecked_eigen_sum(theta, theta_bar):
    # PolicyParams without its nonnegativity check
    params = PolicyParams.__new__(PolicyParams)
    object.__setattr__(params, "family", PolicyFamily.EIGEN_SUM)
    object.__setattr__(params, "theta", np.asarray(theta, dtype=float))
    object.__setattr__(params, "theta_bar",
                       np.asarray(theta_bar, dtype=float))
    object.__setattr__(params, "phi", None)
    return params


def per_belief_violations(params, n_samples, seed):
    """verify_monotone's count, one Belief and one ``decide`` at a time.

    Draws the same samples from the same stream in the same order.
    """
    rng = stream(seed, "policy.verify_monotone")
    n_targets, m = params.theta.shape
    slots = [("posterior", l) for l in range(n_targets)]
    slots += [("prior", l) for l in range(n_targets)]
    count = 0
    for _ in range(n_samples):
        base_scale = rng.uniform(0.3, 3.0)
        posts = tuple(random_pd(rng, m, base_scale * rng.uniform(0.5, 2.0))
                      for _ in range(n_targets))
        priors = tuple(random_pd(rng, m, base_scale * rng.uniform(0.5, 2.0))
                       for _ in range(n_targets))
        belief = Belief(posts, priors, 0)
        slot, target = slots[rng.integers(len(slots))]
        bump = random_psd(rng, m, base_scale * rng.uniform(0.2, 4.0))
        current = (belief.posteriors if slot == "posterior"
                   else belief.priors)[target]
        bigger = replace_slot(belief, slot, target,
                              symmetrize(current + bump))
        before, after = decide(belief, params), decide(bigger, params)
        # the priority posterior and the rivals' priors raise continue
        toward_continue = (target == belief.a) == (slot == "posterior")
        forbidden = Action.STOP if toward_continue else Action.CONTINUE
        count += before != after and after is forbidden
    return count


class TestVerifyMonotone:
    @pytest.mark.parametrize("shape", sorted(SAMPLED_SHAPES))
    @pytest.mark.parametrize("family", list(PolicyFamily))
    def test_valid_params_have_no_violations(self, family, shape):
        gen = stream(36, f"test.monotone.{family.value}")
        layout = ParamLayout(family, *SAMPLED_SHAPES[shape])
        params = layout.build(gen.uniform(-1.0, 1.0, layout.n_params))
        count = verify_monotone(params, 1000, seed=17)
        assert count == 0
        assert count == per_belief_violations(params, 1000, seed=17)

    @pytest.mark.parametrize("theta,expected", [
        ([[-0.6, 0.2, 0.2, 0.2], [0.3, 0.3, 0.3, 0.3]], 22),
        ([[-0.6, 0.2], [0.3, 0.3], [0.3, 0.3]], 21)], ids=["2x4", "3x2"])
    def test_negated_weight_is_caught(self, theta, expected):
        # invariant-violating fixture: one negative priority-target
        # weight flips the monotone direction along that eigenvector
        theta = np.array(theta)
        params = unchecked_eigen_sum(theta, np.full(theta.shape, 0.25))
        count = verify_monotone(params, 800, seed=23)
        assert count == expected
        assert count == per_belief_violations(params, 800, seed=23)

    def test_explicit_violating_pair_for_negated_weight(self):
        # analytic construction: increasing the priority posterior
        # along the negated direction raises the statistic
        params = unchecked_eigen_sum([[-1.0, 0.0], [0.5, 0.5]],
                                     np.zeros((2, 2)))
        base = Belief((np.diag([0.5, 0.4]), np.diag([0.2, 0.2])),
                      (np.eye(2), np.eye(2)), 0)
        bigger = replace_slot(base, "posterior", 0, np.diag([1.5, 0.4]))
        assert decide(base, params) is Action.CONTINUE
        assert decide(bigger, params) is Action.STOP  # forbidden flip

    def test_monotone_direction_of_decision_map(self):
        # raising the priority posterior can only move stop toward
        # continue; raising a rival posterior only the reverse
        gen = stream(37, "test.monotone.dir")
        layout = ParamLayout(PolicyFamily.EIGEN_SUM, 2, 3)
        params = layout.build(gen.uniform(-1.0, 1.0, layout.n_params))
        flips = {"a_up": set(), "rival_up": set()}
        for _ in range(400):
            belief = random_belief(gen, m=3, scale=2.0)
            bump = random_psd(gen, 3, gen.uniform(0.5, 4.0))
            bigger_a = replace_slot(
                belief, "posterior", 0, belief.posteriors[0] + bump)
            bigger_r = replace_slot(
                belief, "posterior", 1, belief.posteriors[1] + bump)
            before = decide(belief, params)
            flips["a_up"].add((before, decide(bigger_a, params)))
            flips["rival_up"].add((before, decide(bigger_r, params)))
        assert (Action.CONTINUE, Action.STOP) not in flips["a_up"]
        assert (Action.STOP, Action.CONTINUE) not in flips["rival_up"]
