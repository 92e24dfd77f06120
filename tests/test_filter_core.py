import numpy as np
import pytest

from covstop.errors import ContractError, NumericalError
from covstop.filter_core import (TargetModel, correct, det_ratios,
                                 eigenvalues_sorted, loewner_geq,
                                 lyapunov_update, moment_blocks, predict,
                                 riccati_update, symmetrize)
from covstop.gmti import system_matrices
from covstop.sampling import ordered_pair, random_pd, random_psd, random_transition
from covstop.streams import stream


def make_model(f, h, q, r, p_d=1.0, delta=1.0, g=None):
    f = np.atleast_2d(np.asarray(f, dtype=float))
    m = f.shape[0]
    return TargetModel(F=f, G=np.eye(m) if g is None else g,
                       H=np.atleast_2d(np.asarray(h, dtype=float)),
                       Q=np.atleast_2d(np.asarray(q, dtype=float)),
                       r_base=np.atleast_2d(np.asarray(r, dtype=float)),
                       p_d=p_d, delta=delta)


def gmti_model(p_d=0.75):
    f, g, q, r = system_matrices(0.1, 0.5, 0.5, 20.0, np.radians(0.5), 5.0)
    h = np.vstack([np.eye(3), np.zeros((1, 3))]).T  # placeholder 3x4 map
    return TargetModel(F=f, G=g, H=h, Q=q, r_base=r, p_d=p_d, delta=100.0)


class TestLyapunov:
    def test_identity_transition_zero_noise(self):
        model = make_model(np.eye(2), np.eye(2), np.zeros((2, 2)), np.eye(2))
        p = np.array([[2.0, 0.3], [0.3, 1.0]])
        np.testing.assert_array_equal(lyapunov_update(p, model), p)

    def test_identity_transition_unit_noise(self):
        model = make_model(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        np.testing.assert_allclose(lyapunov_update(np.eye(2), model),
                                   2.0 * np.eye(2))

    def test_gmti_matches_straight_line_arithmetic(self):
        # Independent oracle: the same product written as explicit loops.
        f, g, q, r = system_matrices(0.1, 0.5, 0.5, 20.0, np.radians(0.5), 5.0)
        model = gmti_model()
        p = np.eye(4)
        expected = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                acc = q[i, j]
                for a in range(4):
                    for b in range(4):
                        acc += f[i, a] * p[a, b] * f[j, b]
                expected[i, j] = acc
        np.testing.assert_allclose(lyapunov_update(p, model), expected,
                                   rtol=1e-13)

    def test_dimension_mismatch(self):
        model = make_model(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        with pytest.raises(ContractError):
            lyapunov_update(np.eye(3), model)


class TestRiccati:
    def test_noise_free_full_observation_returns_q(self):
        q = np.diag([0.5, 2.0])
        model = make_model(np.eye(2), np.eye(2), q, 1e-30 * np.eye(2))
        p = np.array([[3.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(riccati_update(p, model), q,
                                   rtol=0, atol=1e-12)

    def test_matches_information_filter_form(self):
        # Oracle: explicit-inverse information filter identity.
        model = gmti_model()
        gen = stream(4, "test.riccati.info")
        priority = 0.6
        for _ in range(20):
            p = random_pd(gen, 4, gen.uniform(0.5, 20.0))
            r = model.r_base / (priority * model.delta)
            info = np.linalg.inv(np.linalg.inv(p)
                                 + model.H.T @ np.linalg.inv(r) @ model.H)
            expected = model.F @ info @ model.F.T + model.Q
            got = riccati_update(p, model, priority)
            np.testing.assert_allclose(
                got, expected, rtol=1e-8,
                atol=1e-8 * np.linalg.norm(expected))

    def test_zero_priority_rejected(self):
        model = gmti_model()
        with pytest.raises(ContractError):
            riccati_update(np.eye(4), model, priority=0.0)

    def test_priority_limit_approaches_lyapunov(self):
        # Gain vanishes linearly in priority as the scaled noise blows up.
        model = gmti_model()
        gen = stream(5, "test.riccati.limit")
        p = random_pd(gen, 4, 3.0)
        predicted = lyapunov_update(p, model)
        gap = [np.linalg.norm(riccati_update(p, model, nu) - predicted)
               for nu in (1e-4, 1e-7, 1e-10, 1e-13)]
        assert gap[0] > gap[1] > gap[2] > gap[3]
        assert gap[3] < 1e-5 * np.linalg.norm(predicted)

    def test_detection_never_increases_covariance(self):
        model = gmti_model()
        gen = stream(6, "test.riccati.order")
        for _ in range(50):
            p = random_psd(gen, 4, gen.uniform(0.2, 10.0))
            lo = riccati_update(p, model, 0.6)
            hi = lyapunov_update(p, model)
            assert loewner_geq(hi, lo)

    def test_positive_definite_closure(self):
        model = gmti_model()
        gen = stream(7, "test.riccati.pd")
        for _ in range(50):
            p = random_psd(gen, 4, 1.0)  # may be singular
            for upd in (riccati_update(p, model, 0.6),
                        lyapunov_update(p, model)):
                assert np.linalg.eigvalsh(upd)[0] > 0.0

    def test_indefinite_posterior_raises(self):
        # S = 1 + R is positive, but the posterior diag(~0.5, -1, -1) is
        # not, although its determinant is.
        model = make_model(np.eye(3), [[1.0, 0.0, 0.0]], np.zeros((3, 3)),
                           1.0)
        with pytest.raises(NumericalError, match="not positive definite"):
            riccati_update(np.diag([1.0, -1.0, -1.0]), model)


def subtractive_correct(p, f, h, q, r):
    # The detection update in its subtractive form: F P F' + Q minus the
    # information gain W'W, W = L^-1 H P F' with S = H P H' + R = L L',
    # by forward substitution.
    pht = p @ np.swapaxes(h, -1, -2)
    chol = np.linalg.cholesky(symmetrize(h @ pht + r))
    w = np.swapaxes(f @ pht, -1, -2).copy()
    inv_diag = 1.0 / np.diagonal(chol, axis1=-2, axis2=-1)[..., None]
    for i in range(chol.shape[-1]):
        w[..., i, :] *= inv_diag[..., i, :]
        w[..., i + 1:, :] -= chol[..., i + 1:, i, None] * w[..., i, None, :]
    return symmetrize(predict(p, f, q) - np.swapaxes(w, -1, -2) @ w)


def random_blocks(gen, n, m, mz, noise_scale=1.0):
    # n targets' F, H, Q and R, the noise covariances of about the squared
    # scales; the diagonal floors keep S well conditioned.
    f = np.array([random_transition(gen, m, gen.uniform(0.5, 1.5))
                  for _ in range(n)])
    h = gen.normal(size=(n, mz, m))
    q = np.array([random_pd(gen, m, 1.0, jitter=0.1) for _ in range(n)])
    r = np.array([random_pd(gen, mz, noise_scale, jitter=0.1)
                  for _ in range(n)])
    return f, h, q, r


DIMS = [(m, mz) for m in (1, 2, 3, 4) for mz in (1, 2, 3)]


class TestCorrect:
    @pytest.mark.parametrize("m, mz", DIMS)
    def test_stack_equals_each_matrix_bitwise(self, m, mz):
        gen = stream(29, "correct.stack", 10 * m + mz)
        f, h, q, r = random_blocks(gen, 3, m, mz)
        g, d = moment_blocks(f, h, q, r)
        p = np.array([[random_pd(gen, m, gen.uniform(0.1, 10.0))
                       for _ in range(3)] for _ in range(7)])
        stacked, bad = correct(p, g, d)
        assert stacked.shape == p.shape and bad.shape == (7, 3)
        assert not bad.any()
        for b in range(7):
            for l in range(3):
                single, single_bad = correct(p[b, l], g[l], d[l])
                assert single_bad.shape == () and not single_bad
                assert np.array_equal(stacked[b, l], single)

    @pytest.mark.parametrize("m, mz", DIMS)
    def test_matches_subtractive_form(self, m, mz):
        gen = stream(23, "correct.subtractive", 10 * m + mz)
        f, h, q, r = random_blocks(gen, 40, m, mz)
        p = np.array([random_pd(gen, m, gen.uniform(0.1, 10.0), jitter=0.1)
                      for _ in range(40)])
        got, bad = correct(p, *moment_blocks(f, h, q, r))
        assert not bad.any()
        ref = subtractive_correct(p, f, h, q, r)
        for out, expected in zip(got, ref):
            assert np.linalg.norm(out - expected) \
                <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("m, mz", DIMS)
    def test_posterior_is_symmetric_psd(self, m, mz):
        # Measurement noise from 1e-12 to 1 of the prior's scale, and
        # Q = 0: posteriors whose eigenvalues span many decades.
        gen = stream(37, "correct.psd", 10 * m + mz)
        f, h, _, r = random_blocks(gen, 60, m, mz)
        r *= 10.0 ** gen.uniform(-12.0, 0.0, 60)[:, None, None]
        p = np.array([random_pd(gen, m, gen.uniform(0.1, 10.0))
                      for _ in range(60)])
        post, bad = correct(p, *moment_blocks(f, h, np.zeros_like(p), r))
        assert np.array_equal(post, np.swapaxes(post, -1, -2))
        for out in post[~bad]:
            eig = np.linalg.eigvalsh(out)
            assert eig[0] >= -1e-13 * eig[-1]

    def test_psd_or_flagged_where_the_subtractive_form_is_not(self):
        # Q = 0, mz = m and a measurement-noise covariance about 1e-12 of
        # the prior's (priority * delta of about 1e12): the posterior is
        # about 1e-12 of the F P F' it is subtracted from, so the
        # subtraction keeps only a few digits. The moment matrix's factor
        # either exists, and its posterior is PSD, or fails and flags the
        # entry.
        gen = stream(7, "correct.indefinite")
        f, h, _, r = random_blocks(gen, 200, 4, 4, noise_scale=1e-6)
        q = np.zeros((200, 4, 4))
        p = np.array([random_pd(gen, 4) for _ in range(200)])
        post, bad = correct(p, *moment_blocks(f, h, q, r))
        old = np.linalg.eigvalsh(subtractive_correct(p, f, h, q, r))
        new = np.linalg.eigvalsh(post)
        indefinite = old[:, 0] < -1e-9 * old[:, -1]
        assert indefinite.sum() >= 3
        assert (indefinite & ~bad).any() and (indefinite & bad).any()
        assert (new[~bad, 0] >= -1e-13 * new[~bad, -1]).all()


class TestLoewner:
    def test_reflexive(self):
        p = np.diag([1.0, 2.0])
        assert loewner_geq(p, p)

    def test_strict_scaling(self):
        assert loewner_geq(2 * np.eye(2), np.eye(2))
        assert not loewner_geq(np.eye(2), 2 * np.eye(2))

    def test_incomparable_pair(self):
        p = np.diag([1.0, 2.0])
        q = np.diag([2.0, 1.0])
        assert not loewner_geq(p, q)
        assert not loewner_geq(q, p)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            loewner_geq(np.eye(2), np.eye(3))
        with pytest.raises(ContractError):
            loewner_geq(np.zeros((2, 3, 3)), np.zeros((3, 3, 3)))

    def test_stack_with_per_entry_tol(self):
        # Row 0 is dominated; row 1 exceeds P by 1e-6 I, inside a tol of
        # 1e-5 and outside one of 1e-7; row 2 is random.
        gen = stream(14, "test.loewner.stack")
        p = np.array([random_pd(gen, 3) for _ in range(12)]).reshape(3, 4, 3, 3)
        q = np.array([random_pd(gen, 3) for _ in range(12)]).reshape(3, 4, 3, 3)
        q[0], q[1] = 0.5 * p[0], p[1] + 1e-6 * np.eye(3)
        tol = gen.uniform(0.0, 1e-3, (3, 4))
        tol[1] = [1e-5, 1e-5, 1e-7, 1e-7]
        got = loewner_geq(p, q, tol)
        assert got.shape == (3, 4) and got.dtype == bool
        assert got[0].all() and list(got[1]) == [True, True, False, False]
        default = loewner_geq(p, q)
        for index in np.ndindex(3, 4):
            assert got[index] == loewner_geq(p[index], q[index], tol[index])
            assert default[index] == loewner_geq(p[index], q[index])


class TestEigenvalues:
    def test_identity(self):
        np.testing.assert_array_equal(eigenvalues_sorted(np.eye(3)),
                                      np.ones(3))

    def test_diagonal_order(self):
        np.testing.assert_array_equal(
            eigenvalues_sorted(np.diag([3.0, 1.0, 2.0])),
            np.array([3.0, 2.0, 1.0]))

    def test_matches_characteristic_polynomial_roots(self):
        # Oracle: Faddeev-LeVerrier coefficients, roots via companion.
        gen = stream(8, "test.eigs")
        for _ in range(10):
            p = random_pd(gen, 4, 2.0)
            coeffs = [1.0]
            mat = np.zeros_like(p)
            for k in range(1, 5):
                mat = p @ mat + coeffs[-1] * np.eye(4)
                coeffs.append(-np.trace(p @ mat) / k)
            roots = np.sort(np.roots(coeffs).real)[::-1]
            np.testing.assert_allclose(eigenvalues_sorted(p), roots,
                                       rtol=1e-9, atol=1e-9)


def ratios(p, model, priority=1.0):
    # det_ratios on one model's blocks: (Lyapunov, Riccati) per entry.
    return det_ratios(p, model.F, model.H, model.Q,
                      model.effective_noise(priority))


class TestDetRatios:
    def test_zero_transition(self):
        model = make_model(np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2))
        gen = stream(9, "test.detratio")
        p = random_pd(gen, 2, 1.5)
        np.testing.assert_allclose(ratios(p, model)[0],
                                   1.0 / np.linalg.det(p), rtol=1e-12)

    def test_scalar_lyapunov_values(self):
        model = make_model([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        lyap, _ = ratios(np.array([[[1.0]], [[2.0]]]), model)
        assert lyap == pytest.approx([2.0, 1.5])

    def test_scalar_riccati_values(self):
        # Hand evaluation of the determinant identity at P = 1 and P = 2.
        model = make_model([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        _, ricc = ratios(np.array([[[1.0]], [[2.0]]]), model)
        assert ricc == pytest.approx([1.5, 5.0 / 6.0])

    def test_zero_observation_reduces_to_lyapunov(self):
        model = make_model(np.eye(2) * 0.9, np.zeros((2, 2)), np.eye(2),
                           np.eye(2))
        gen = stream(10, "test.detratio.h0")
        p = random_pd(gen, 2, 2.0)
        lyap, ricc = ratios(p, model)
        assert ricc == pytest.approx(lyap)

    def test_riccati_ratio_matches_determinant_identity(self):
        gen = stream(11, "test.detratio.identity")
        m = 3
        f, q = np.empty((20, m, m)), np.empty((20, m, m))
        r, h = np.empty((20, 2, 2)), np.empty((20, 2, m))
        p = np.empty((20, m, m))
        for i in range(20):
            f[i] = random_transition(gen, m, gen.uniform(0.5, 1.5))
            q[i] = random_pd(gen, m, 1.0)
            r[i] = random_pd(gen, 2, 1.0, jitter=1e-2)
            h[i] = gen.normal(size=(2, m))
            p[i] = random_pd(gen, m, gen.uniform(0.5, 3.0))
        _, ricc = det_ratios(p, f, h, q, r)
        for i in range(20):
            expected = (np.linalg.det(q[i])
                        * np.linalg.det(np.linalg.inv(p[i])
                                        + h[i].T @ np.linalg.inv(r[i]) @ h[i]
                                        + f[i].T @ np.linalg.inv(q[i]) @ f[i])
                        * np.linalg.det(r[i])
                        / np.linalg.det(r[i] + h[i] @ p[i] @ h[i].T))
            assert ricc[i] == pytest.approx(expected, rel=1e-8)

    def test_nonpositive_determinant_rejected(self):
        model = make_model([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(ContractError):
            ratios(np.array([[[1.0]], [[0.0]]]), model)

    def test_moment_matrix_not_pd_raises(self):
        # As in test_indefinite_posterior_raises: the second entry's
        # det(P) is positive, but its posterior diag(~0.5, -1, -1) is not.
        model = make_model(np.eye(3), [[1.0, 0.0, 0.0]], np.zeros((3, 3)),
                           1.0)
        with pytest.raises(NumericalError, match="not positive definite"):
            ratios(np.array([np.eye(3), np.diag([1.0, -1.0, -1.0])]), model)

    @pytest.mark.parametrize("kind", [0, 1], ids=["lyapunov", "riccati"])
    def test_sampled_monotone_decrease(self, kind):
        # No stability assumption: spectral radii above 1 included.
        gen = stream(12, "test.detratio.monotone")
        m = 4
        f, q = np.empty((100, m, m)), np.empty((100, m, m))
        h, r = np.empty((100, 3, m)), np.empty((100, 3, 3))
        pairs = np.empty((2, 100, m, m))
        for i in range(100):
            f[i] = random_transition(gen, m, gen.uniform(0.5, 1.5))
            h[i] = gen.normal(size=(3, m))
            q[i] = random_pd(gen, m, gen.uniform(0.5, 2.0))
            r[i] = random_pd(gen, 3, 1.0, jitter=1e-2)
            pairs[:, i] = ordered_pair(gen, m, gen.uniform(0.5, 2.0))
        r1, r2 = det_ratios(pairs, f, h, q, r)[kind]
        assert np.all(r1 <= r2 + 1e-9 * np.maximum(np.abs(r1), np.abs(r2)))


class TestOperatorMonotonicity:
    def test_updates_preserve_loewner_order(self):
        model = gmti_model()
        gen = stream(13, "test.monotone.ops")
        pairs = np.empty((2, 100, 4, 4))
        for i in range(100):
            pairs[:, i] = ordered_pair(gen, 4, gen.uniform(0.3, 3.0))
        tol = 1e-9 * np.trace(pairs[0], axis1=-2, axis2=-1)
        post, bad = correct(pairs, *moment_blocks(
            model.F, model.H, model.Q, model.effective_noise(0.6)))
        assert not bad.any()
        for updated in (predict(pairs, model.F, model.Q), post):
            assert loewner_geq(updated[0], updated[1], tol).all()


class TestModelValidation:
    def test_detection_probability_range(self):
        with pytest.raises(ContractError):
            make_model(np.eye(2), np.eye(2), np.eye(2), np.eye(2), p_d=1.5)

    def test_measurement_noise_must_be_pd(self):
        with pytest.raises(ContractError):
            make_model(np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))

    @pytest.mark.parametrize("name", ["F", "G", "H"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_system_matrices_must_be_finite(self, name, value):
        model = gmti_model()
        fields = {f: getattr(model, f) for f in ("F", "G", "H", "Q", "r_base")}
        fields[name] = fields[name].copy()
        fields[name][0, 0] = value
        with pytest.raises(ContractError, match="finite"):
            TargetModel(**fields, p_d=model.p_d, delta=model.delta)

    def test_symmetrize_output(self):
        model = gmti_model()
        gen = stream(15, "test.symmetry")
        p = random_pd(gen, 4, 10.0)
        upd = riccati_update(p, model, 0.6)
        assert np.array_equal(upd, symmetrize(upd))

    @pytest.mark.parametrize("h", [np.ones((4, 4)), np.ones((3, 3)),
                                   np.ones(12),
                                   np.full((3, 4), np.nan),
                                   np.full((3, 4), np.inf)])
    def test_with_observation_rejects_bad_h(self, h):
        with pytest.raises(ContractError):
            gmti_model().with_observation(h)

    def test_with_observation_swaps_only_h(self):
        model = gmti_model()
        h = stream(17, "test.swap").normal(size=(3, 4))
        swapped = model.with_observation(h)
        assert np.array_equal(swapped.H, h)
        assert np.array_equal(model.H, gmti_model().H)
        for name in ("F", "G", "Q", "r_base"):
            assert getattr(swapped, name) is getattr(model, name)
        assert (swapped.p_d, swapped.delta) == (model.p_d, model.delta)
