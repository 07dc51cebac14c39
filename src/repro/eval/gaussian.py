"""Maximum-likelihood Gaussian ellipses for throughput-latency plots.

Fig. 1(b) summarises each scheme's runs as "the 1-sigma elliptic
contour of the maximum-likelihood 2D Gaussian distribution that
explains the points".  :func:`sigma_ellipse` computes that contour's
parameters (centre, axes, orientation) from raw samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Ellipse", "sigma_ellipse"]


@dataclass(frozen=True)
class Ellipse:
    """A 2-D confidence ellipse ``x = center + R(angle) @ diag(axes) @ unit``."""

    center: tuple[float, float]
    #: Semi-axis lengths (sqrt of covariance eigenvalues: one sigma).
    axes: tuple[float, float]
    #: Rotation of the major axis, radians counter-clockwise from +x.
    angle: float


def sigma_ellipse(samples: np.ndarray) -> Ellipse:
    """ML-Gaussian 1-sigma contour of 2-D ``samples`` (shape (n, 2))."""
    pts = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if pts.shape[1] != 2:
        raise ValueError("samples must be (n, 2)")
    center = pts.mean(axis=0)
    if len(pts) < 2:
        return Ellipse(center=tuple(center), axes=(0.0, 0.0), angle=0.0)
    cov = np.cov(pts.T, bias=True)  # ML estimate (1/n)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]
    axes = np.sqrt(eigvals)
    angle = float(np.arctan2(eigvecs[1, 0], eigvecs[0, 0]))
    return Ellipse(center=(float(center[0]), float(center[1])),
                   axes=(float(axes[0]), float(axes[1])), angle=angle)
