"""Covariance algebra for Kalman tracking with missed detections.

Implements the two covariance recursions of the tracker, the
measurement-dependent Riccati update and the measurement-free Lyapunov
(predictor) update, together with the Loewner-order check and the
determinant ratios whose monotonicity drives the stopping structure.

All operations are pure functions of ndarray inputs; covariances are
plain symmetric ``(m, m)`` float arrays. Updates re-symmetrize their
output as ``(A + A') / 2`` to control round-off drift. The detection
update, ``correct``, is one numpy Cholesky factorization of a moment
matrix, whose factor's trailing block is the posterior's square root:
no solve, no inverse, and no gain subtracted from the prediction.

This module is the one place that writes the recursion out. Its steps
(``symmetrize``, ``predict``, ``moment_blocks``, ``correct``,
``cholesky`` and ``logdets``) work on one ``(m, m)`` matrix and on
``(..., m, m)`` stacks alike, and give each matrix of a stack exactly
the result it gets on its own. The batched path engine in
``optimizer`` calls them on a stacked state of rows, every target's
prior shared by every path and then each path's posteriors, correcting
only the targets it measures; it runs only ``predict`` and ``correct``
epoch by epoch, and calls ``logdets`` once per block of stored epochs.
``det_ratios`` and ``loewner_geq`` decide ``verify-properties``' stacks
of sampled matrices. The products take a contiguous transpose (F' for
``predict``, G' for ``correct``), which the engine builds once per set
of models and priorities (``optimizer._dynamics``) and other callers
once per call. ``lyapunov_update`` and
``riccati_update`` are per-matrix views on a ``TargetModel``, which only
the scalar rollout, a reference for tests and the benchmark, calls.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError

# Eigenvalue floor for classifying a matrix as numerically PSD.
PSD_EIG_FLOOR = 1e-10
# Relative symmetry tolerance for validating covariance inputs.
SYMMETRY_RTOL = 1e-12


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of one matrix or of each matrix of a stack."""
    return a.swapaxes(-1, -2)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A') / 2 for one matrix or each matrix of a stack."""
    return 0.5 * (a + _t(a))


def cholesky(s: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Lower Cholesky factors of one matrix or a stack, and a mask of the
    entries that are not positive definite.

    The mask is built only when LAPACK refuses a factor, so it is None
    when every entry is positive definite and has a True entry
    otherwise. A non-PD entry gets the identity factor as a placeholder.
    """
    try:
        return np.linalg.cholesky(s), None
    except np.linalg.LinAlgError:
        bad = np.zeros(s.shape[:-2], dtype=bool)
        for index in np.ndindex(bad.shape):
            try:
                np.linalg.cholesky(s[index])
            except np.linalg.LinAlgError:
                bad[index] = True
        s = s.copy()
        s[bad] = np.eye(s.shape[-1])
        return np.linalg.cholesky(s), bad


def logdets(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-determinants of one matrix or a stack, and a mask of the
    non-positive determinants."""
    sign, logdet = np.linalg.slogdet(p)
    return logdet, ~(sign > 0.0)


def predict(p: np.ndarray, f: np.ndarray, q: np.ndarray,
            f_t: np.ndarray | None = None) -> np.ndarray:
    """Lyapunov prediction F P F' + Q, on one matrix or a stack.

    ``f_t`` is F' as a contiguous array (see ``correct`` for why); a
    caller that predicts many times with one F builds it once, and
    without it each call builds its own.
    """
    f_t = _t(f).copy() if f_t is None else f_t
    return symmetrize(f @ p @ f_t + q)


def moment_blocks(f: np.ndarray, h: np.ndarray, q: np.ndarray,
                  r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G = [H; F] and D = blockdiag(R, Q) for ``correct``, for one target
    or a stack of them."""
    mz = h.shape[-2]
    d = np.zeros(h.shape[:-2] + (mz + f.shape[-1],) * 2)
    d[..., :mz, :mz], d[..., mz:, mz:] = r, q
    return np.concatenate([h, f], axis=-2), d


def correct(p: np.ndarray, g: np.ndarray, d: np.ndarray,
            g_t: np.ndarray | None = None
            ) -> tuple[np.ndarray, np.ndarray | None]:
    """Riccati update of covariances after a detection, and a mask of
    failed entries.

    The square-root (array) form of the step. With ``g, d =
    moment_blocks(f, h, q, r)`` the moment matrix M = G P G' + D is
    [[S, H P F'], [F P H', F P F' + Q]], where S = H P H' + R is the
    innovation covariance. The trailing (m, m) block L22 of M's lower
    Cholesky factor has L22 L22' = F P F' + Q - F P H' S^-1 H P F', the
    Schur complement of S: the posterior, PSD by construction. Works on
    one matrix or a stack. An entry whose M is not positive definite
    (S is not, or the posterior would not be) is flagged in the mask,
    and its result is a placeholder; as for ``cholesky``, the mask is
    None when no entry is flagged. ``g_t`` is G' as a contiguous
    array, built here when it is not given, as for ``predict``'s F'.
    """
    m = p.shape[-1]
    # Every product takes a contiguous right operand: on a transposed
    # view numpy's stacked matmul is several times slower, and on L22's
    # own buffer it calls BLAS syrk, slower still on small matrices.
    g_t = _t(g).copy() if g_t is None else g_t
    chol, bad = cholesky(g @ p @ g_t + d)
    low = chol[..., -m:, -m:]
    return symmetrize(low @ _t(low).copy()), bad


def check_covariance(p: np.ndarray, name: str = "P") -> np.ndarray:
    """``p`` as a float array; ContractError unless it is square,
    finite, symmetric to SYMMETRY_RTOL and numerically PSD."""
    p = np.asarray(p, dtype=float)
    ok = (p.ndim == 2 and p.shape[0] == p.shape[1]
          and np.all(np.isfinite(p))
          and np.allclose(p, p.T, rtol=0.0, atol=max(
              SYMMETRY_RTOL * np.max(np.abs(p)), 1e-300)))
    if ok:
        eig = np.linalg.eigvalsh(symmetrize(p))
        ok = eig[0] >= -PSD_EIG_FLOOR * max(eig[-1], 0.0)
    if not ok:
        raise ContractError(f"{name} is not a symmetric PSD matrix")
    return p


@dataclass(frozen=True)
class TargetModel:
    """Linear-Gaussian system matrices for one target.

    ``F`` is the state transition, ``G`` the process-noise gain, ``H``
    the observation matrix, ``Q`` the process-noise covariance and
    ``r_base`` the per-observation measurement-noise covariance. The
    effective measurement noise under priority ``nu`` and integration
    count ``delta`` is ``r_base / (nu * delta)``.
    """

    F: np.ndarray
    G: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    r_base: np.ndarray
    p_d: float
    delta: float = 100.0

    def __post_init__(self):
        m = self.F.shape[0]
        if self.F.shape != (m, m):
            raise ContractError("F must be square")
        if self.Q.shape != (m, m):
            raise ContractError("Q must match the state dimension")
        if self.G.shape[0] != m:
            raise ContractError("G must have one row per state component")
        mz = self.H.shape[0]
        if self.H.shape != (mz, m):
            raise ContractError("H must map states to observations")
        if self.r_base.shape != (mz, mz):
            raise ContractError("r_base must match the observation dimension")
        if not all(np.all(np.isfinite(a)) for a in (self.F, self.G, self.H)):
            raise ContractError("F, G and H must be finite")
        check_covariance(self.Q, "Q")
        check_covariance(self.r_base, "r_base")
        if np.linalg.eigvalsh(symmetrize(self.r_base))[0] <= 0.0:
            raise ContractError("r_base must be strictly positive definite")
        if not 0.0 <= self.p_d <= 1.0:
            raise ContractError("p_d must lie in [0, 1]")
        if self.delta < 1.0:
            raise ContractError("delta must be at least 1")

    @property
    def state_dim(self) -> int:
        return self.F.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.H.shape[0]

    def with_observation(self, h: np.ndarray) -> "TargetModel":
        """Copy with observation matrix ``h``, such as a re-linearized H.

        Only ``h`` is checked, for the model's observation shape and for
        finite entries; the other fields were validated when this model
        was built.
        """
        h = np.asarray(h, dtype=float)
        if h.shape != self.H.shape or not np.all(np.isfinite(h)):
            raise ContractError("H must be a finite matrix of the "
                                "model's observation shape")
        model = copy.copy(self)
        object.__setattr__(model, "H", h)
        return model

    def effective_noise(self, priority: float) -> np.ndarray:
        """Measurement-noise covariance scaled by 1 / (priority * delta)."""
        if priority <= 0.0:
            raise ContractError("priority must be positive; zero-priority "
                                "targets use lyapunov_update")
        return self.r_base / (priority * self.delta)


def lyapunov_update(p: np.ndarray, model: TargetModel) -> np.ndarray:
    """Predictor update F P F' + Q (no measurement)."""
    if p.shape != (model.state_dim, model.state_dim):
        raise ContractError("covariance dimension does not match model")
    return predict(p, model.F, model.Q)


def riccati_update(p: np.ndarray, model: TargetModel,
                   priority: float = 1.0) -> np.ndarray:
    """Covariance update after a detection, with the measurement noise
    scaled by the target priority; ``correct`` on the model's blocks.

    NumericalError if the moment matrix is not positive definite: the
    innovation covariance is not, or the posterior would not be.
    """
    if p.shape != (model.state_dim, model.state_dim):
        raise ContractError("covariance dimension does not match model")
    updated, bad = correct(p, *moment_blocks(
        model.F, model.H, model.Q, model.effective_noise(priority)))
    if bad is not None:
        raise NumericalError("covariance update is not positive definite")
    return updated


def loewner_geq(p: np.ndarray, q: np.ndarray,
                tol: float | np.ndarray | None = None) -> bool | np.ndarray:
    """True iff P dominates Q in the positive semidefinite order; on
    stacks, one bool per entry.

    ``tol``, a number or one per entry, defaults to ``1e-9 * trace(p)``,
    a scale-aware slack for round-off in the eigenvalue check.
    """
    if p.shape != q.shape:
        raise ContractError("cannot compare matrices of different shapes")
    if tol is None:
        tol = 1e-9 * np.abs(np.trace(p, axis1=-2, axis2=-1))
    geq = np.linalg.eigvalsh(symmetrize(p - q))[..., 0] >= -np.asarray(tol)
    return bool(geq) if geq.ndim == 0 else geq


def eigenvalues_sorted(p: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a symmetric matrix in decreasing order."""
    return np.linalg.eigvalsh(symmetrize(p))[::-1]


def det_ratios(p: np.ndarray, f: np.ndarray, h: np.ndarray, q: np.ndarray,
               r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det(L(P)) / det(P) and det(R(P)) / det(P) for one matrix or each
    entry of a stack, L the Lyapunov map F P F' + Q and R the Riccati map
    ``correct`` on ``moment_blocks(f, h, q, r)``. Both decrease in P on
    the PSD cone.

    ContractError where det(P) is not positive; NumericalError where the
    moment matrix is not positive definite, as in ``riccati_update``. A
    ratio is 0 where the update's determinant is not positive.
    """
    posterior, bad = correct(p, *moment_blocks(f, h, q, r))
    logdet, nonpositive = logdets(np.stack([p, predict(p, f, q), posterior]))
    if nonpositive[0].any():
        raise ContractError("P must have positive determinant")
    if bad is not None:
        raise NumericalError("covariance update is not positive definite")
    ratios = np.where(nonpositive[1:], 0.0, np.exp(logdet[1:] - logdet[0]))
    return ratios[0], ratios[1]
