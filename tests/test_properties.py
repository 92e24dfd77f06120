"""Property tests of the covariance steps and the path engine.

The stacked covariance steps of ``filter_core``, which the path engine
calls, must give each matrix of a stack exactly what the per-matrix
``lyapunov_update``/``riccati_update`` give it, preserve the Loewner
order and keep covariances PSD; their Cholesky must flag exactly the
non-PD entries of a stack. The early-stopped engine must reproduce
full-horizon scoring bit for bit, whatever the family, weights, seeds
and chunking; the statistic weighed from cached features must agree
with the scalar ``decision_statistic``. The examples are derandomized,
so every run of the suite checks the same ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covstop import optimizer
from covstop.config import stock_scenario
from covstop.errors import ContractError
from covstop.filter_core import (TargetModel, cholesky, correct, loewner_geq,
                                 lyapunov_update, predict, riccati_update)
from covstop.observability import Belief
from covstop.optimizer import (_STOP_BLOCK, StopAt, _path_chunks,
                               policy_costs, score_paths, simulate_paths)
from covstop.policy import (ParamLayout, PolicyFamily, PolicyParams,
                            covariance_features, decision_statistic,
                            weigh_features)
from covstop.sampling import ordered_pair, random_pd, random_transition
from covstop.streams import child_seed, stream

SCENARIOS = {"flyby": stock_scenario("flyby"),
             "persistent": stock_scenario("persistent")}
# Entries of one 60-epoch path of four 4x4 targets.
PATH_ENTRIES = 60 * 4 * 4 * 4

scenario_names = st.sampled_from(sorted(SCENARIOS))
families = st.sampled_from(list(PolicyFamily))
seeds = st.integers(0, 2**32 - 1)


def random_models(gen, n, m, mz):
    # Stable or unstable dynamics, PD noise of widely varying size.
    return [TargetModel(F=random_transition(gen, m, gen.uniform(0.5, 1.5)),
                        G=np.eye(m), H=gen.normal(size=(mz, m)),
                        Q=random_pd(gen, m, gen.uniform(0.1, 2.0)),
                        r_base=random_pd(gen, mz, gen.uniform(0.1, 2.0)),
                        p_d=0.5, delta=gen.uniform(1.0, 100.0))
            for _ in range(n)]


def stacked(models, priorities):
    # The per-target matrices the engine stacks: F, Q, H and R.
    return (np.array([m.F for m in models]), np.array([m.Q for m in models]),
            np.array([m.H for m in models]),
            np.array([m.effective_noise(nu)
                      for m, nu in zip(models, priorities)]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=seeds, n_paths=st.integers(1, 5), n_targets=st.integers(1, 4),
       m=st.integers(1, 4), mz=st.integers(1, 3))
def test_stacked_steps_match_per_matrix_updates(seed, n_paths, n_targets, m,
                                                mz):
    gen = stream(seed, "prop.stacked")
    models = random_models(gen, n_targets, m, mz)
    priorities = gen.uniform(0.05, 1.0, n_targets)
    f, q, h, r = stacked(models, priorities)
    p = np.array([[random_pd(gen, m, gen.uniform(0.1, 10.0))
                   for _ in models] for _ in range(n_paths)])
    predicted = predict(p, f, q)
    corrected, bad = correct(predicted, p, f, h, r)
    assert not bad.any()
    for b in range(n_paths):
        for l, model in enumerate(models):
            assert np.array_equal(predicted[b, l],
                                  lyapunov_update(p[b, l], model))
            assert np.array_equal(corrected[b, l],
                                  riccati_update(p[b, l], model,
                                                 priorities[l]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=seeds, n=st.integers(1, 6), m=st.integers(1, 4),
       mz=st.integers(1, 3), gap=st.floats(0.01, 10.0))
def test_stacked_steps_preserve_loewner_order_and_psd(seed, n, m, mz, gap):
    gen = stream(seed, "prop.loewner")
    models = random_models(gen, n, m, mz)
    f, q, h, r = stacked(models, gen.uniform(0.05, 1.0, n))
    pairs = [ordered_pair(gen, m, gen.uniform(0.1, 10.0), gap)
             for _ in range(n)]
    p1, p2 = (np.array(side) for side in zip(*pairs))
    lyap1, lyap2 = predict(p1, f, q), predict(p2, f, q)
    ricc1, bad1 = correct(lyap1, p1, f, h, r)
    ricc2, bad2 = correct(lyap2, p2, f, h, r)
    assert not (bad1.any() or bad2.any())
    for i in range(n):
        tol = 1e-9 * float(np.trace(p1[i]) + np.trace(lyap1[i]))
        assert loewner_geq(lyap1[i], lyap2[i], tol)
        assert loewner_geq(ricc1[i], ricc2[i], tol)
        for out in (lyap1[i], lyap2[i], ricc1[i], ricc2[i]):
            assert loewner_geq(out, np.zeros((m, m)), tol)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=seeds, m=st.integers(1, 4),
       flags=st.lists(st.booleans(), min_size=1, max_size=12))
def test_cholesky_mask_flags_exactly_the_non_pd_entries(seed, m, flags):
    gen = stream(seed, "prop.cholesky")
    stack = []
    for non_pd in flags:
        s = random_pd(gen, m, gen.uniform(0.1, 10.0))
        if non_pd:  # push the smallest eigenvalue clearly below zero
            s = s - (np.linalg.eigvalsh(s)[0] + gen.uniform(0.1, 1.0)) \
                * np.eye(m)
        stack.append(s)
    stack = np.array(stack)
    chol, bad = cholesky(stack)
    np.testing.assert_array_equal(bad, flags)
    for s, factor, non_pd in zip(stack, chol, flags):
        expected = np.eye(m) if non_pd else np.linalg.cholesky(s)
        assert np.array_equal(factor, expected)
        single, single_bad = cholesky(s)
        assert single_bad.shape == () and bool(single_bad) == non_pd
        if not non_pd:
            assert np.array_equal(single, expected)


def random_params(family, log_scale, damp, seed, a):
    # Eigen weights are squares of phi; ``log_scale`` and the damping of
    # the rivals' prior weights (which push the statistic down) spread
    # stops from epoch 1 to never. Quadform weights are unit vectors.
    layout = ParamLayout(family, 4, 4)
    phi = stream(seed, "prop.params").uniform(-1.0, 1.0, layout.n_params)
    if family is not PolicyFamily.QUADFORM:
        theta_bar_blocks = np.arange(16, 32).reshape(4, 4)
        phi[theta_bar_blocks[np.arange(4) != a]] *= damp
    return layout.build(10.0**log_scale * phi)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=scenario_names, family=families,
       log_scale=st.floats(-2.5, 0.0), damp=st.floats(0.0, 1.0),
       seed=seeds, chunk_paths=st.integers(1, 7))
def test_early_stop_matches_full_horizon(name, family, log_scale, damp, seed,
                                         chunk_paths):
    scenario = SCENARIOS[name]
    params = random_params(family, log_scale, damp, seed, scenario.a)
    path_seeds = [child_seed(seed, "prop.path", b) for b in range(7)]
    full_tau, full_costs = score_paths(simulate_paths(scenario, path_seeds),
                                       params)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, "_CHUNK_ENTRIES", chunk_paths * PATH_ENTRIES)
        batches = list(_path_chunks(scenario, path_seeds, None, params))
        taus, costs = policy_costs(scenario, params, path_seeds)
    assert len(batches) == -(-len(path_seeds) // chunk_paths)
    scored = [score_paths(batch, params) for batch in batches]
    np.testing.assert_array_equal(np.concatenate([t for t, _ in scored]),
                                  full_tau)
    np.testing.assert_array_equal(np.concatenate([c for _, c in scored]),
                                  full_costs)
    np.testing.assert_array_equal(taus, full_tau)
    np.testing.assert_array_equal(costs, full_costs)
    for batch, (tau, _) in zip(batches, scored):
        # Each chunk ends at the first check after its last stop.
        blocks = -(-tau.max() // _STOP_BLOCK)
        assert batch.posteriors.shape[1] == min(scenario.tau_max,
                                                blocks * _STOP_BLOCK)
        assert batch.priors.shape[0] == batch.posteriors.shape[1]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(family=families, seed=seeds, n_targets=st.integers(2, 4),
       state_dim=st.integers(1, 4), data=st.data())
def test_feature_statistic_matches_decision_statistic(
        family, seed, n_targets, state_dim, data):
    a = data.draw(st.integers(0, n_targets - 1))
    rng = stream(seed, "prop.beliefs")
    n_beliefs = 5  # scored as one stack

    def stack():
        return np.array([[random_pd(rng, state_dim, rng.uniform(0.1, 30.0))
                          for _ in range(n_targets)]
                         for _ in range(n_beliefs)])

    posts, priors = stack(), stack()
    layout = ParamLayout(family, n_targets, state_dim, a=a)
    params = layout.build(rng.uniform(-1.5, 1.5, layout.n_params))
    stat = weigh_features(covariance_features(posts, family),
                          covariance_features(priors, family), a, params)
    assert stat.shape == (n_beliefs,)
    for i in range(n_beliefs):
        expected = decision_statistic(Belief(posts[i], priors[i], a), params)
        # Round-off relative to the size of the terms that cancel.
        size = (np.abs(params.theta).sum() + np.abs(params.theta_bar).sum()) \
            * max(np.abs(posts[i]).max(), np.abs(priors[i]).max())
        assert stat[i] == pytest.approx(expected, rel=0, abs=1e-13 * size)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(name=scenario_names, family=st.sampled_from(
    [f for f in PolicyFamily if f is not PolicyFamily.QUADFORM]), seed=seeds)
def test_stop_at_epoch_one_simulates_one_block(name, family, seed):
    # Weight on the priority target's prior only: the statistic is ten
    # times that prior's trace, far above 1 from epoch 1 on.
    scenario = SCENARIOS[name]
    theta_bar = np.zeros((4, 4))
    theta_bar[scenario.a] = 10.0
    params = PolicyParams(family, np.zeros((4, 4)), theta_bar)
    path_seeds = [child_seed(seed, "prop.path", b) for b in range(5)]
    (batch,) = _path_chunks(scenario, path_seeds, None, params)
    assert batch.posteriors.shape[1] == _STOP_BLOCK
    assert batch.priors.shape[0] == _STOP_BLOCK
    post_features, _ = batch.features(family)
    assert post_features.shape[2] == _STOP_BLOCK
    tau, _ = score_paths(batch, params)
    np.testing.assert_array_equal(tau, 1)


@pytest.mark.parametrize("k", [1, 9, 60, 75])
def test_stop_at_simulates_to_its_epoch(k):
    scenario = SCENARIOS["persistent"]
    (batch,) = _path_chunks(scenario, [3, 4], None, StopAt(k))
    full = simulate_paths(scenario, [3, 4])
    n = min(k, scenario.tau_max)
    assert batch.posteriors.shape[1] == n
    np.testing.assert_array_equal(batch.stopping_costs,
                                  full.stopping_costs[:, :n])
    np.testing.assert_array_equal(batch.posteriors, full.posteriors[:, :n])
    tau, costs = score_paths(batch, StopAt(k))
    np.testing.assert_array_equal(tau, n)
    np.testing.assert_array_equal(
        costs, (n - 1) * scenario.weights.operating_cost
        + full.stopping_costs[:, n - 1])


def test_batch_ending_before_tau_is_a_contract_error():
    scenario = SCENARIOS["flyby"]
    theta_bar = np.zeros((4, 4))
    theta_bar[scenario.a] = 10.0
    stop_first = PolicyParams(PolicyFamily.EIGEN_SUM, np.zeros((4, 4)),
                              theta_bar)
    never = PolicyParams(PolicyFamily.EIGEN_SUM, np.zeros((4, 4)),
                         np.zeros((4, 4)))
    (batch,) = _path_chunks(scenario, [1, 2], None, stop_first)
    with pytest.raises(ContractError):
        score_paths(batch, never)
    with pytest.raises(ContractError):
        score_paths(batch, StopAt(_STOP_BLOCK + 1))
