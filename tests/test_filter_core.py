import numpy as np
import pytest

from covstop.errors import ContractError
from covstop.filter_core import (TargetModel, det_ratio_lyapunov,
                                 det_ratio_riccati, eigenvalues_sorted,
                                 forward_solve, loewner_geq, lyapunov_update,
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


def reference_forward_solve(chol, b):
    # The substitution loop on (..., n, k) slices; it takes the same
    # elementwise steps in the same order as forward_solve.
    x = b.copy()
    n = chol.shape[-1]
    inv_diag = 1.0 / np.diagonal(chol, axis1=-2, axis2=-1)[..., None]
    for i in range(n):
        x[..., i, :] *= inv_diag[..., i, :]
        x[..., i + 1:, :] -= chol[..., i + 1:, i, None] * x[..., i, None, :]
    return x


class TestForwardSolve:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_equals_reference_loop_bitwise(self, n, k):
        gen = stream(31 + k, "forward_solve.reference", n)
        for lead in ((), (7,), (2, 5)):
            s = np.array([random_pd(gen, n, gen.uniform(0.1, 10.0))
                          for _ in range(int(np.prod(lead)))])
            chol = np.linalg.cholesky(s.reshape(lead + (n, n)))
            b = gen.normal(size=lead + (n, k))
            x = forward_solve(chol, b)
            assert x.shape == b.shape
            assert np.array_equal(x, reference_forward_solve(chol, b))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_linalg_solve(self, n):
        gen = stream(23, "forward_solve", n)
        for k in (1, 2, 5):
            for _ in range(25):
                # The diagonal floor keeps the condition number below
                # about 100, so two backward-stable solves agree to 1e-12.
                chol = np.linalg.cholesky(random_pd(
                    gen, n, gen.uniform(0.1, 10.0), jitter=0.1))
                b = gen.normal(size=(n, k))
                x = forward_solve(chol, b)
                ref = np.linalg.solve(chol, b)
                assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_stack_equals_each_matrix_bitwise(self, n):
        gen = stream(29, "forward_solve.stack", n)
        chol = np.linalg.cholesky(np.array([random_pd(gen, n, 1.0)
                                            for _ in range(40)]))
        b = gen.normal(size=(40, n, 3))
        stacked = forward_solve(chol, b)
        for i in range(40):
            np.testing.assert_array_equal(stacked[i],
                                          forward_solve(chol[i], b[i]))


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


class TestDetRatios:
    def test_zero_transition(self):
        model = make_model(np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2))
        gen = stream(9, "test.detratio")
        p = random_pd(gen, 2, 1.5)
        np.testing.assert_allclose(det_ratio_lyapunov(p, model),
                                   1.0 / np.linalg.det(p), rtol=1e-12)

    def test_scalar_lyapunov_values(self):
        model = make_model([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert det_ratio_lyapunov(np.array([[1.0]]), model) == pytest.approx(2.0)
        assert det_ratio_lyapunov(np.array([[2.0]]), model) == pytest.approx(1.5)

    def test_scalar_riccati_values(self):
        # Hand evaluation of the determinant identity at P = 1 and P = 2.
        model = make_model([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert det_ratio_riccati(np.array([[1.0]]), model) == pytest.approx(1.5)
        assert det_ratio_riccati(np.array([[2.0]]), model) == pytest.approx(5.0 / 6.0)

    def test_zero_observation_reduces_to_lyapunov(self):
        model = make_model(np.eye(2) * 0.9, np.zeros((2, 2)), np.eye(2),
                           np.eye(2))
        gen = stream(10, "test.detratio.h0")
        p = random_pd(gen, 2, 2.0)
        assert det_ratio_riccati(p, model) == pytest.approx(
            det_ratio_lyapunov(p, model))

    def test_riccati_ratio_matches_determinant_identity(self):
        gen = stream(11, "test.detratio.identity")
        for _ in range(20):
            m = 3
            f = random_transition(gen, m, gen.uniform(0.5, 1.5))
            q = random_pd(gen, m, 1.0)
            r = random_pd(gen, 2, 1.0, jitter=1e-2)
            h = gen.normal(size=(2, m))
            model = TargetModel(F=f, G=np.eye(m), H=h, Q=q, r_base=r,
                                p_d=1.0, delta=1.0)
            p = random_pd(gen, m, gen.uniform(0.5, 3.0))
            expected = (np.linalg.det(q)
                        * np.linalg.det(np.linalg.inv(p)
                                        + h.T @ np.linalg.inv(r) @ h
                                        + f.T @ np.linalg.inv(q) @ f)
                        * np.linalg.det(r)
                        / np.linalg.det(r + h @ p @ h.T))
            assert det_ratio_riccati(p, model) == pytest.approx(expected,
                                                                rel=1e-8)

    def test_nonpositive_determinant_rejected(self):
        model = make_model([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(ContractError):
            det_ratio_lyapunov(np.array([[0.0]]), model)

    @pytest.mark.parametrize("ratio_fn", [
        det_ratio_lyapunov,
        lambda p, m: det_ratio_riccati(p, m, 1.0),
    ])
    def test_sampled_monotone_decrease(self, ratio_fn):
        # No stability assumption: spectral radii above 1 included.
        gen = stream(12, "test.detratio.monotone")
        for _ in range(100):
            m = 4
            f = random_transition(gen, m, gen.uniform(0.5, 1.5))
            model = TargetModel(F=f, G=np.eye(m),
                                H=gen.normal(size=(3, m)),
                                Q=random_pd(gen, m, gen.uniform(0.5, 2.0)),
                                r_base=random_pd(gen, 3, 1.0, jitter=1e-2),
                                p_d=1.0, delta=1.0)
            p1, p2 = ordered_pair(gen, m, gen.uniform(0.5, 2.0))
            r1, r2 = ratio_fn(p1, model), ratio_fn(p2, model)
            assert r1 <= r2 + 1e-9 * max(abs(r1), abs(r2))


class TestOperatorMonotonicity:
    def test_updates_preserve_loewner_order(self):
        model = gmti_model()
        gen = stream(13, "test.monotone.ops")
        for _ in range(100):
            p1, p2 = ordered_pair(gen, 4, gen.uniform(0.3, 3.0))
            tol = 1e-9 * float(np.trace(p1))
            assert loewner_geq(lyapunov_update(p1, model),
                               lyapunov_update(p2, model), tol)
            assert loewner_geq(riccati_update(p1, model, 0.6),
                               riccati_update(p2, model, 0.6), tol)


class TestModelValidation:
    def test_detection_probability_range(self):
        with pytest.raises(ContractError):
            make_model(np.eye(2), np.eye(2), np.eye(2), np.eye(2), p_d=1.5)

    def test_measurement_noise_must_be_pd(self):
        with pytest.raises(ContractError):
            make_model(np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))

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
