"""Property tests of the covariance steps and the path engine.

The stacked covariance steps of ``filter_core``, which the path engine
calls, must give each matrix of a stack exactly what the per-matrix
``lyapunov_update``/``riccati_update`` give it, preserve the Loewner
order and keep covariances PSD; their Cholesky must flag exactly the
non-PD entries of a stack. The engine, which corrects only targets of
positive priority and skips epochs with no detection, must give every
posterior the bits of the per-matrix update. The early-stopped engine
must reproduce full-horizon scoring bit for bit, whatever the family,
weights, seeds and chunking; every chunk must carry the exact Lyapunov
chain of the priors, and every missed entry the exact Lyapunov step of
its previous posterior; the statistic weighed from cached features must
agree with the scalar ``decision_statistic``. The examples are
derandomized, so every run of the suite checks the same ones.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from covstop import optimizer
from covstop.config import stock_scenario
from covstop.errors import ContractError
from covstop.filter_core import (TargetModel, cholesky, correct, loewner_geq,
                                 lyapunov_update, moment_blocks, predict,
                                 riccati_update)
from covstop.gmti import Scenario
from covstop.observability import Belief, CostWeights, aggregate_rivals
from covstop.optimizer import (_STOP_BLOCK, StopAt, _path_chunks,
                               policy_costs, score_paths)
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
    corrected, bad = correct(p, *moment_blocks(f, h, q, r))
    assert bad is None
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
    g, d = moment_blocks(f, h, q, r)
    pairs = [ordered_pair(gen, m, gen.uniform(0.1, 10.0), gap)
             for _ in range(n)]
    p1, p2 = (np.array(side) for side in zip(*pairs))
    lyap1, lyap2 = predict(p1, f, q), predict(p2, f, q)
    ricc1, bad1 = correct(p1, g, d)
    ricc2, bad2 = correct(p2, g, d)
    assert bad1 is None and bad2 is None
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
    # The mask exists only when some entry is not positive definite.
    assert (bad is None) == (not any(flags))
    if bad is not None:
        np.testing.assert_array_equal(bad, flags)
    for s, factor, non_pd in zip(stack, chol, flags):
        expected = np.eye(m) if non_pd else np.linalg.cholesky(s)
        assert np.array_equal(factor, expected)
        single, single_bad = cholesky(s)
        assert (single_bad is None if not non_pd
                else single_bad.shape == () and bool(single_bad))
        if not non_pd:
            assert np.array_equal(single, expected)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=seeds,
       measured=st.lists(st.booleans(), min_size=2, max_size=5).filter(any),
       p_d=st.sampled_from([0.0, 0.2, 0.6, 1.0]), m=st.integers(1, 4),
       mz=st.integers(1, 3), n_paths=st.integers(1, 4))
@example(seed=1, measured=[False, True, False, False], p_d=0.2, m=4, mz=3,
         n_paths=3)  # one-hot: a one-target slice
@example(seed=2, measured=[True, False, True, False, True], p_d=0.2, m=3,
         mz=2, n_paths=3)  # non-contiguous: a span with unmeasured targets
@example(seed=3, measured=[True, True, True], p_d=0.6, m=2, mz=1,
         n_paths=2)  # all positive: the whole stack
def test_engine_posteriors_match_per_matrix_updates(seed, measured, p_d, m,
                                                    mz, n_paths):
    # Zero priorities anywhere in the vector, and epochs on which no path
    # detects a measured target (every epoch at p_d = 0).
    gen = stream(seed, "prop.measured")
    n = len(measured)
    models = [replace(model, p_d=p_d)
              for model in random_models(gen, n, m, mz)]
    priorities = np.where(measured, gen.uniform(0.05, 1.0, n), 0.0)
    priorities /= priorities.sum()
    start = [[random_pd(gen, m, gen.uniform(0.1, 10.0)) for _ in range(n)]
             for _ in range(2)]
    scenario = Scenario(models=models, priorities=priorities,
                        weights=CostWeights(np.ones(n), np.ones(n), 1.0),
                        tau_max=6, initial_posteriors=start[0],
                        initial_priors=start[1])
    path_seeds = [child_seed(seed, "prop.measured", b)
                  for b in range(n_paths)]
    (batch,) = _path_chunks(scenario, path_seeds, StopAt(scenario.tau_max))
    assert not batch.detections[..., ~np.array(measured)].any()
    prior_failed = (np.linalg.slogdet(batch.priors)[0] <= 0.0).any(axis=1)
    for path, detected, failed_at in zip(batch.posteriors, batch.detections,
                                         batch.failed_at):
        previous, expected_failure = start[0], 0
        for k, (posteriors, hits) in enumerate(zip(path, detected)):
            expected = np.array([
                riccati_update(p, model, nu) if hit
                else lyapunov_update(p, model)
                for p, model, nu, hit in zip(previous, models, priorities,
                                             hits)])
            if not expected_failure and (
                    (np.linalg.slogdet(expected)[0] <= 0.0).any()
                    or prior_failed[k]):
                expected_failure = k + 1
                expected[:] = np.eye(m)  # the engine's placeholder
            assert np.array_equal(posteriors, expected)
            previous = posteriors
        assert failed_at == expected_failure


@pytest.mark.parametrize("name, p_d", [("persistent", 0.9),
                                       ("persistent", 0.0), ("flyby", 0.1)])
def test_engine_corrects_only_epochs_with_a_measured_detection(name, p_d):
    scenario = SCENARIOS[name].with_overrides(p_d=p_d)
    shapes = []

    def counted(p, *args):
        shapes.append(p.shape)
        return correct(p, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, "correct", counted)
        (batch,) = _path_chunks(scenario, [1], StopAt(scenario.tau_max))
    detected_epochs = int(batch.detections.any(axis=(0, 2)).sum())
    assert detected_epochs < scenario.tau_max
    span = np.flatnonzero(scenario.priorities > 0.0)
    width = int(span[-1] - span[0] + 1)
    assert shapes == [(1, width, 4, 4)] * detected_epochs


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
    (full,) = _path_chunks(scenario, path_seeds, StopAt(scenario.tau_max))
    full_tau, full_costs = score_paths(full, params)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, "_CHUNK_ENTRIES", chunk_paths * PATH_ENTRIES)
        batches = list(_path_chunks(scenario, path_seeds, params))
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


@settings(max_examples=30, deadline=None, derandomize=True)
@given(name=scenario_names, p_d=st.sampled_from([0.0, 0.5, 0.9]),
       stop=st.booleans(), family=families, log_scale=st.floats(-2.5, 0.0),
       seed=seeds, chunk_paths=st.integers(1, 2))
def test_chunks_carry_exact_priors_and_miss_updates(name, p_d, stop, family,
                                                    log_scale, seed,
                                                    chunk_paths):
    # The persistent scenario's one-hot priorities leave three targets
    # unmeasured; p_d = 0 makes every epoch a miss for every target.
    scenario = SCENARIOS[name].with_overrides(p_d=p_d)
    models = scenario.models
    policy = random_params(family, log_scale, 0.5, seed, scenario.a) \
        if stop else StopAt(scenario.tau_max)
    path_seeds = [child_seed(seed, "prop.chunk", b)
                  for b in range(3 * chunk_paths)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, "_CHUNK_ENTRIES", chunk_paths * PATH_ENTRIES)
        batches = list(_path_chunks(scenario, path_seeds, policy))
    assert len(batches) == 3
    start = scenario.initial_belief()
    for batch in batches:
        assert not batch.detections[..., scenario.priorities == 0.0].any()
        prior = start.priors
        for k in range(batch.priors.shape[0]):
            prior = [lyapunov_update(p, m) for p, m in zip(prior, models)]
            for l, p in enumerate(prior):
                assert np.array_equal(batch.priors[k, l], p)
                assert batch.logdet_priors[k, l] == np.linalg.slogdet(p)[1]
        for path, detected, logdets in zip(batch.posteriors, batch.detections,
                                           batch.logdet_posteriors):
            previous = start.posteriors
            for posteriors, hits, logdet in zip(path, detected, logdets):
                for l in np.flatnonzero(~hits):
                    assert np.array_equal(
                        posteriors[l], lyapunov_update(previous[l], models[l]))
                for l, p in enumerate(posteriors):
                    assert logdet[l] == np.linalg.slogdet(p)[1]
                previous = posteriors


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
    (batch,) = _path_chunks(scenario, path_seeds, params)
    assert batch.posteriors.shape[1] == _STOP_BLOCK
    assert batch.priors.shape[0] == _STOP_BLOCK
    post_features, _ = batch.features(family)
    assert post_features.shape[2] == _STOP_BLOCK
    tau, _ = score_paths(batch, params)
    np.testing.assert_array_equal(tau, 1)


@pytest.mark.parametrize("k", [1, 9, 60, 75])
def test_stop_at_simulates_to_its_epoch(k):
    scenario = SCENARIOS["persistent"]
    (batch,) = _path_chunks(scenario, [3, 4], StopAt(k))
    (full,) = _path_chunks(scenario, [3, 4], StopAt(scenario.tau_max))
    n = min(k, scenario.tau_max)
    assert batch.posteriors.shape[1] == n
    np.testing.assert_array_equal(batch.sample_costs,
                                  full.sample_costs[:, :n])
    np.testing.assert_array_equal(batch.posteriors, full.posteriors[:, :n])
    tau, costs = score_paths(batch, StopAt(k))
    np.testing.assert_array_equal(tau, n)
    weights = scenario.weights
    infos = weights.alpha * full.logdet_priors[n - 1] \
        - weights.beta * full.logdet_posteriors[:, n - 1]
    np.testing.assert_array_equal(
        costs, (n - 1) * weights.operating_cost
        + aggregate_rivals(infos, scenario.a, weights.case))


def test_batch_ending_before_tau_is_a_contract_error():
    scenario = SCENARIOS["flyby"]
    theta_bar = np.zeros((4, 4))
    theta_bar[scenario.a] = 10.0
    stop_first = PolicyParams(PolicyFamily.EIGEN_SUM, np.zeros((4, 4)),
                              theta_bar)
    never = PolicyParams(PolicyFamily.EIGEN_SUM, np.zeros((4, 4)),
                         np.zeros((4, 4)))
    (batch,) = _path_chunks(scenario, [1, 2], stop_first)
    with pytest.raises(ContractError):
        score_paths(batch, never)
    with pytest.raises(ContractError):
        score_paths(batch, StopAt(_STOP_BLOCK + 1))
