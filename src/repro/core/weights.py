"""Application requirement (preference) vectors -- §4.1.

An application expresses its requirement as a weight vector
``w = <w_thr, w_lat, w_loss>`` with each ``w_i`` in the *open* interval
(0, 1) and ``sum(w) = 1``.  Offline training uses "landmark" objectives
taken from a regular grid over that simplex: at step size ``1/k`` the
interior grid has ``(k-1)(k-2)/2`` points, giving the paper's
``omega ∈ {3, 6, 10, 36, 171}`` for ``k ∈ {4, 5, 6, 10, 20}``
(Fig. 16; the 36-point grid at step 1/10 is the default, Table 2).
"""

from __future__ import annotations

import numpy as np

from repro.netsim.env import sums_to_one

__all__ = [
    "THROUGHPUT_WEIGHTS",
    "LATENCY_WEIGHTS",
    "RTC_WEIGHTS",
    "BALANCE_WEIGHTS",
    "validate_weights",
    "simplex_grid",
    "step_for_omega",
    "omega_for_step",
    "sample_weight",
    "project_to_simplex",
    "nearest_grid_point",
]

#: w1 in Fig. 5/8: throughput-hungry applications (video streaming).
THROUGHPUT_WEIGHTS = np.array([0.8, 0.1, 0.1])
#: w2 in Fig. 5: latency-sensitive applications.
LATENCY_WEIGHTS = np.array([0.1, 0.8, 0.1])
#: Fig. 9's real-time communications weight.
RTC_WEIGHTS = np.array([0.4, 0.5, 0.1])
#: The "MOCC-Balance" variant of §6.4.
BALANCE_WEIGHTS = np.array([0.34, 0.33, 0.33])


def validate_weights(weights) -> np.ndarray:
    """Check the simplex constraint; return the vector as an ndarray.

    Raises ``ValueError`` when a component is outside (0, 1) or the
    components do not sum to one (:func:`~repro.netsim.env.sums_to_one`).
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (3,):
        raise ValueError(f"weight vector must have 3 components, got shape {w.shape}")
    if not sums_to_one(w):
        raise ValueError(f"weights must sum to 1 (got {w.sum():.6f})")
    if np.any(w <= 0.0) or np.any(w >= 1.0):
        raise ValueError(f"each weight must lie in the open interval (0, 1): {w}")
    return w


def simplex_grid(step_denominator: int) -> np.ndarray:
    """Interior grid points of the weight simplex at step ``1/k``.

    Returns an array of shape ``(omega, 3)`` with
    ``omega = (k-1)(k-2)/2``, ordered lexicographically by
    ``(w_thr, w_lat)``.
    """
    k = int(step_denominator)
    if k < 3:
        raise ValueError("need step denominator >= 3 for interior points")
    points = []
    for i in range(1, k - 1):
        for j in range(1, k - i):
            l = k - i - j
            if l >= 1:
                points.append((i / k, j / k, l / k))
    return np.array(points)


def omega_for_step(step_denominator: int) -> int:
    """Number of interior grid points at step ``1/k``."""
    k = int(step_denominator)
    return (k - 1) * (k - 2) // 2


def step_for_omega(omega: int) -> int:
    """Inverse of :func:`omega_for_step` for the paper's omega values."""
    k = 3
    while omega_for_step(k) < omega:
        k += 1
        if k > 1000:
            raise ValueError(f"no grid as large as omega={omega}")
    if omega_for_step(k) != omega:
        raise ValueError(f"omega={omega} is not a triangular grid size")
    return k


def sample_weight(rng: np.random.Generator) -> np.ndarray:
    """Draw one weight vector uniformly from the (slightly shrunk) simplex.

    The Dirichlet(1,1,1) draw is re-scaled so every component is at
    least 0.05, respecting the open-interval constraint.
    """
    raw = rng.dirichlet(np.ones(3))
    return project_to_simplex(raw, 0.05)


def project_to_simplex(weights, min_weight: float = 0.01) -> np.ndarray:
    """Clamp a vector onto the valid simplex interior.

    Used for the paper's "greedy" ``w = <1, 0, 0>`` (Fig. 10), which
    violates the open-interval constraint: components are floored at
    ``min_weight`` and the vector renormalised.
    """
    w = np.asarray(weights, dtype=np.float64).clip(min=0.0)
    total = w.sum()
    if total <= 0:
        return np.full(3, 1.0 / 3.0)
    w = w / total
    w = (1.0 - 3.0 * min_weight) * w + min_weight
    return w / w.sum()


def nearest_grid_point(weights, step_denominator: int) -> np.ndarray:
    """Closest landmark (Euclidean) to an arbitrary weight vector."""
    grid = simplex_grid(step_denominator)
    w = np.asarray(weights, dtype=np.float64)
    idx = int(np.argmin(np.sum((grid - w) ** 2, axis=1)))
    return grid[idx]
