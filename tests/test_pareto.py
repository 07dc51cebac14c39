"""Pareto fronts and hypervolume (``repro.eval.pareto``), ROADMAP item
3(a): four properties over point sets in two and three objectives,
drawn on an integer grid so every volume is exact in floats, plus a few
hand-checked values.

* a point some other point weakly dominates changes nothing;
* a point no other weakly dominates strictly grows the volume;
* the order of the points does not matter;
* both functions equal brute force: pairwise domination for the front,
  inclusion-exclusion over every subset for the volume.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.eval.pareto import hypervolume, non_dominated
from strategies import OBJECTIVE, objective_points

PROPERTY = settings(max_examples=150, derandomize=True, deadline=None)


def _origin(points: np.ndarray) -> np.ndarray:
    return np.zeros(points.shape[1])


def _with(points: np.ndarray, point) -> np.ndarray:
    return np.vstack([points, np.asarray(point, dtype=np.float64)])


def brute_front(points: np.ndarray) -> set:
    """Distinct points no other point dominates."""
    rows = {tuple(p) for p in points}
    return {p for p in rows
            if not any(q != p and all(a >= b for a, b in zip(q, p))
                       for q in rows)}


def brute_volume(points: np.ndarray, ref: np.ndarray) -> float:
    """Inclusion-exclusion over every non-empty subset of the boxes
    ``[ref, p]``: a subset's boxes meet in ``[ref, min of the subset]``."""
    volume = 0.0
    for size in range(1, len(points) + 1):
        for subset in combinations(points, size):
            corner = np.min(subset, axis=0)
            volume += (-1) ** (size + 1) * np.prod(np.maximum(corner - ref, 0))
    return volume


@PROPERTY
@given(objective_points().filter(len), st.data())
def test_a_dominated_point_changes_nothing(points, data):
    p = points[data.draw(st.integers(0, len(points) - 1))]
    offsets = data.draw(st.tuples(*[st.integers(0, 3)] * points.shape[1]))
    grown = _with(points, p - np.array(offsets, dtype=np.float64))
    ref = _origin(points)
    assert hypervolume(grown, ref) == hypervolume(points, ref)
    assert np.array_equal(non_dominated(grown), non_dominated(points))


@PROPERTY
@given(objective_points(), st.data())
def test_a_non_dominated_point_strictly_grows_the_volume(points, data):
    q = np.array(data.draw(st.tuples(*[OBJECTIVE.filter(lambda v: v > 0)]
                                     * points.shape[1])))
    assume(not (points >= q).all(axis=1).any())
    grown = _with(points, q)
    ref = _origin(points)
    assert hypervolume(grown, ref) > hypervolume(points, ref)
    assert tuple(q) in {tuple(p) for p in non_dominated(grown)}


@PROPERTY
@given(objective_points(), st.randoms(use_true_random=False))
def test_order_does_not_matter(points, rng):
    order = list(range(len(points)))
    rng.shuffle(order)
    shuffled = points[order]
    ref = _origin(points)
    assert hypervolume(shuffled, ref) == hypervolume(points, ref)
    assert np.array_equal(non_dominated(shuffled), non_dominated(points))


@PROPERTY
@given(objective_points())
def test_results_equal_brute_force(points):
    ref = _origin(points)
    assert hypervolume(points, ref) == brute_volume(points, ref)
    assert {tuple(p) for p in non_dominated(points)} == brute_front(points)


@pytest.mark.parametrize("points, ref, volume", [
    ([[3.0, 1.0], [1.0, 2.0]], [0.0, 0.0], 4.0),
    ([[3.0, 1.0], [1.0, 2.0]], [1.0, 0.0], 2.0),  # one box is flat
    ([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]], [0.0] * 3, 4.0),
    ([[-1.0, 5.0]], [0.0, 0.0], 0.0),  # below ref in one objective
    (np.empty((0, 3)), [0.0] * 3, 0.0),
])
def test_hand_checked_volumes(points, ref, volume):
    assert hypervolume(points, ref) == volume


def test_the_front_is_distinct_and_sorted():
    front = non_dominated([[1.0, 3.0], [3.0, 1.0], [1.0, 3.0], [1.0, 1.0]])
    assert front.tolist() == [[1.0, 3.0], [3.0, 1.0]]


@pytest.mark.parametrize("points, ref", [
    ([1.0, 2.0], [0.0, 0.0]),  # not (n, d)
    ([[1.0, 2.0]], [0.0, 0.0, 0.0]),  # ref of another dimension
    ([[1.0, np.nan]], [0.0, 0.0]),
])
def test_malformed_input_is_refused(points, ref):
    with pytest.raises(ValueError):
        hypervolume(points, ref)
