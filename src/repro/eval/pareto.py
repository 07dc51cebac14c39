"""Pareto fronts and their hypervolume, for scoring a multi-objective
scheme (ROADMAP item 3).

Every objective is *maximised*: a scheme's point is, for example,
(throughput, -latency, -loss).  ``p`` dominates ``q`` when it is at
least as good in every objective and better in one.  The hypervolume
of a point set is the volume of the region that some point dominates
and that dominates a reference point ``ref`` -- the union of the boxes
``[ref, p]``.  Numpy only; exact, by slicing along the last objective,
which costs O(n^d) and is meant for the two or three objectives a
congestion-control scorecard has.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hypervolume", "non_dominated"]


def _as_points(points) -> np.ndarray:
    """``points`` as an ``(n, d)`` float array of finite values."""
    array = np.asarray(points, dtype=np.float64)
    if array.ndim != 2 or array.shape[1] == 0:
        raise ValueError(f"points must be an (n, d) array with d >= 1, "
                         f"not shape {array.shape}")
    if not np.isfinite(array).all():
        raise ValueError("points must be finite")
    return array


def non_dominated(points) -> np.ndarray:
    """The rows of ``points`` that no other row dominates, each distinct
    row once, sorted lexicographically (so the result does not depend
    on the input order)."""
    distinct = np.unique(_as_points(points), axis=0)
    # covers[i, j]: row i is at least row j everywhere.  Rows are
    # distinct, so off the diagonal that is domination.
    covers = (distinct[:, None, :] >= distinct[None, :, :]).all(axis=2)
    np.fill_diagonal(covers, False)
    return distinct[~covers.any(axis=0)]


def _sliced_volume(front: np.ndarray, ref: np.ndarray) -> float:
    """Volume of the union of ``[ref, p]`` over ``front``, every point of
    which exceeds ``ref`` in every objective."""
    if len(front) == 0:
        return 0.0
    if front.shape[1] == 1:
        return float(front[:, 0].max() - ref[0])
    volume, floor = 0.0, ref[-1]
    # Between two consecutive levels of the last objective the cross
    # section is the front of the points at or above the upper level.
    for level in np.unique(front[:, -1]):
        volume += (level - floor) * _sliced_volume(
            front[front[:, -1] >= level, :-1], ref[:-1])
        floor = level
    return volume


def hypervolume(points, ref) -> float:
    """Volume dominated by ``points`` above the reference point ``ref``.

    A point that does not exceed ``ref`` in every objective adds
    nothing; an empty set has volume 0."""
    points = _as_points(points)
    ref = np.asarray(ref, dtype=np.float64)
    if ref.shape != (points.shape[1],):
        raise ValueError(f"ref has shape {ref.shape}; the points have "
                         f"{points.shape[1]} objectives")
    return _sliced_volume(non_dominated(points[(points > ref).all(axis=1)]),
                          ref)
