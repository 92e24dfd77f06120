"""Covariance algebra for Kalman tracking with missed detections.

Implements the two covariance recursions of the tracker, the
measurement-dependent Riccati update and the measurement-free Lyapunov
(predictor) update, together with the Loewner-order utilities and the
determinant-ratio quantities whose monotonicity drives the stopping
structure.

All operations are pure functions of ndarray inputs; covariances are
plain symmetric ``(m, m)`` float arrays. Updates re-symmetrize their
output as ``(A + A.T) / 2`` to control round-off drift. Linear solves
go through a numpy Cholesky factorization and ``cho_solve``, never
explicit inverses. ``cho_solve`` broadcasts over leading axes, so the
scalar update here and the batched path engine in ``optimizer`` share
one substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError

# Eigenvalue floor for classifying a matrix as numerically PSD.
PSD_EIG_FLOOR = 1e-10
# Relative symmetry tolerance for validating covariance inputs.
SYMMETRY_RTOL = 1e-12


def symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L L' X = B for a lower Cholesky factor L, or a stack of them.

    Forward then backward substitution, multiplying by the reciprocal of
    each pivot as LAPACK's triangular solves do. Works on ``(n, n)``
    factors and on ``(..., n, n)`` stacks alike, with ``b`` of shape
    ``(..., n, k)``; each matrix of a stack gets exactly the result it
    gets on its own.
    """
    x = b.copy()
    n = chol.shape[-1]
    inv_diag = 1.0 / np.diagonal(chol, axis1=-2, axis2=-1)[..., None]
    for i in range(n):
        x[..., i, :] *= inv_diag[..., i, :]
        x[..., i + 1:, :] -= chol[..., i + 1:, i, None] * x[..., i, None, :]
    for i in reversed(range(n)):
        x[..., i, :] *= inv_diag[..., i, :]
        x[..., :i, :] -= chol[..., i, :i, None] * x[..., i, None, :]
    return x


def is_covariance(p: np.ndarray, rtol: float = SYMMETRY_RTOL) -> bool:
    """True iff ``p`` is square, symmetric and numerically PSD."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        return False
    if not np.all(np.isfinite(p)):
        return False
    scale = np.max(np.abs(p))
    if not np.allclose(p, p.T, rtol=0.0, atol=max(rtol * scale, 1e-300)):
        return False
    eig = np.linalg.eigvalsh(symmetrize(p))
    return bool(eig[0] >= -PSD_EIG_FLOOR * max(eig[-1], 0.0))


def check_covariance(p: np.ndarray, name: str = "P") -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if not is_covariance(p):
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
    return symmetrize(model.F @ p @ model.F.T + model.Q)


def riccati_update(p: np.ndarray, detected: bool, model: TargetModel,
                   priority: float = 1.0) -> np.ndarray:
    """Measurement-dependent covariance update.

    On a miss the result is exactly ``lyapunov_update(p, model)``. On a
    detection the usual information gain is subtracted, with the
    measurement noise scaled by the target priority.
    """
    predicted = lyapunov_update(p, model)
    if not detected:
        return predicted
    r = model.effective_noise(priority)
    pht = p @ model.H.T
    s = symmetrize(model.H @ pht + r)
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - r_base > 0
        raise NumericalError(f"singular innovation covariance: {exc}") from exc
    fpht = model.F @ pht
    gain_term = fpht @ cho_solve(chol, fpht.T)
    return symmetrize(predicted - gain_term)


def loewner_geq(p: np.ndarray, q: np.ndarray, tol: float | None = None) -> bool:
    """True iff P dominates Q in the positive semidefinite order.

    ``tol`` defaults to ``1e-9 * trace(p)``, a scale-aware slack for
    round-off in the eigenvalue check.
    """
    if p.shape != q.shape:
        raise ContractError("cannot compare matrices of different shapes")
    if tol is None:
        tol = 1e-9 * abs(float(np.trace(p)))
    eig_min = np.linalg.eigvalsh(symmetrize(p - q))[0]
    return bool(eig_min >= -tol)


def eigenvalues_sorted(p: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a symmetric matrix in decreasing order."""
    return np.linalg.eigvalsh(symmetrize(p))[::-1]


def _logdet_pd(p: np.ndarray, name: str) -> float:
    sign, logdet = np.linalg.slogdet(p)
    if sign <= 0.0:
        raise ContractError(f"{name} must have positive determinant")
    return float(logdet)


def det_ratio_lyapunov(p: np.ndarray, model: TargetModel) -> float:
    """det(L(P)) / det(P), decreasing in P on the PSD cone."""
    logdet_p = _logdet_pd(p, "P")
    sign, logdet_next = np.linalg.slogdet(lyapunov_update(p, model))
    if sign <= 0.0:
        return 0.0
    return float(np.exp(logdet_next - logdet_p))


def det_ratio_riccati(p: np.ndarray, model: TargetModel,
                      priority: float = 1.0) -> float:
    """det(R(P, detected)) / det(P) for the detection branch."""
    logdet_p = _logdet_pd(p, "P")
    updated = riccati_update(p, True, model, priority)
    sign, logdet_next = np.linalg.slogdet(updated)
    if sign <= 0.0:
        return 0.0
    return float(np.exp(logdet_next - logdet_p))


def schur_det_identity_check(x: np.ndarray, y: np.ndarray, w: np.ndarray,
                             z: np.ndarray) -> float:
    """Residual |det(Z)det(X + Y Z^-1 W) - det(X)det(Z + W X^-1 Y)|.

    Test helper for the determinant identity behind the det-ratio
    algebra; callers assert the residual is small relative to
    |det(X)det(Z)|.
    """
    det_x = np.linalg.det(x)
    det_z = np.linalg.det(z)
    if det_x == 0.0 or det_z == 0.0 or not np.isfinite(det_x * det_z):
        raise ContractError("X and Z must be invertible")
    try:
        lhs = det_z * np.linalg.det(x + y @ np.linalg.solve(z, w))
        rhs = det_x * np.linalg.det(z + w @ np.linalg.solve(x, y))
    except np.linalg.LinAlgError as exc:
        raise ContractError("X and Z must be invertible") from exc
    return float(abs(lhs - rhs))
