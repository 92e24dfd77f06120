"""Random matrix samplers for property suites.

The policy monotonicity checker and the verify-properties filter suites
draw one sample at a time from a seeded stream, in a fixed order, into
stacks that they then decide all at once. Tests reuse the samplers for
inputs (never for expected values).
"""

from __future__ import annotations

import numpy as np

from .filter_core import symmetrize


def random_psd(rng: np.random.Generator, m: int, scale: float = 1.0) -> np.ndarray:
    """Sample A A' with A entries N(0, scale^2 / m)."""
    a = rng.normal(0.0, scale / np.sqrt(m), size=(m, m))
    return symmetrize(a @ a.T)


def random_pd(rng: np.random.Generator, m: int, scale: float = 1.0,
              jitter: float = 1e-6) -> np.ndarray:
    """Strictly positive definite sample: A A' plus a diagonal floor."""
    return random_psd(rng, m, scale) + jitter * scale**2 * np.eye(m)


def ordered_pair(rng: np.random.Generator, m: int, scale: float = 1.0,
                 gap: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Sample (P1, P2) with P1 >= P2 > 0 by adding a PSD increment."""
    p2 = random_pd(rng, m, scale)
    p1 = p2 + random_psd(rng, m, gap * scale)
    return p1, p2


def random_transition(rng: np.random.Generator, m: int,
                      spectral_radius: float) -> np.ndarray:
    """Random square F rescaled to the requested spectral radius."""
    f = rng.normal(size=(m, m))
    rho = np.max(np.abs(np.linalg.eigvals(f)))
    if rho == 0.0:
        f = f + np.eye(m)
        rho = np.max(np.abs(np.linalg.eigvals(f)))
    return f * (spectral_radius / rho)
