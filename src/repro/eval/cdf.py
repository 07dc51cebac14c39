"""Reward percentiles for the reward-distribution figures (6, 12, 16, 18)."""

from __future__ import annotations

import numpy as np

__all__ = ["format_cdf_table"]


def format_cdf_table(named_samples: dict[str, np.ndarray]) -> str:
    """Tabulate per-scheme reward percentiles (the figures' key content)."""
    percentiles = (10, 25, 50, 75, 90)
    header = "scheme".ljust(18) + "".join(f"p{p:<8}" for p in percentiles) + "mean"
    lines = [header]
    for name, samples in named_samples.items():
        samples = np.asarray(samples, dtype=np.float64)
        cells = "".join(f"{np.percentile(samples, p):<9.3f}" for p in percentiles)
        lines.append(name.ljust(18) + cells + f"{samples.mean():.3f}")
    return "\n".join(lines)
