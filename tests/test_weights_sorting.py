"""Tests for weight vectors (§4.1) and the Appendix-B sorting algorithm."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import BOOTSTRAP_OBJECTIVES
from repro.core.offline import landmark_schedule
from repro.core.sorting import (
    bootstrap_indices,
    neighborhood_sort,
    objective_graph,
)
from repro.core.weights import (
    nearest_grid_point,
    omega_for_step,
    project_to_simplex,
    sample_weight,
    simplex_grid,
    step_for_omega,
    validate_weights,
)
from repro.models.zoo import BUDGETS
from repro.netsim.env import checked_objective


class TestValidation:
    def test_valid(self):
        w = validate_weights([0.8, 0.1, 0.1])
        np.testing.assert_allclose(w, [0.8, 0.1, 0.1])

    def test_wrong_sum(self):
        with pytest.raises(ValueError, match="sum"):
            validate_weights([0.5, 0.5, 0.5])

    def test_wrong_shape(self):
        with pytest.raises(ValueError, match="3 components"):
            validate_weights([0.5, 0.5])

    def test_open_interval(self):
        with pytest.raises(ValueError, match="open interval"):
            validate_weights([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="open interval"):
            validate_weights([-0.1, 0.6, 0.5])

    @pytest.mark.parametrize("check", [validate_weights, checked_objective])
    @pytest.mark.parametrize("excess", [1.09e-5, -1.09e-5, 1.11e-5, -1.11e-5])
    def test_sum_tolerance_is_isclose(self, check, excess):
        """Both simplex checks accept a sum just inside the edge of
        ``np.isclose(s, 1.0, atol=1e-6)`` (1.1e-5 from one) and refuse
        one just outside it."""
        w = np.array([0.5, 0.3, 0.2 + excess])
        if np.isclose(w.sum(), 1.0, atol=1e-6):
            assert abs(excess) < 1.1e-5
            assert check(w).tolist() == w.tolist()
        else:
            assert abs(excess) > 1.1e-5
            with pytest.raises(ValueError, match="sum"):
                check(w)


class TestSimplexGrid:
    @pytest.mark.parametrize("k,omega", [(4, 3), (5, 6), (6, 10), (10, 36), (20, 171)])
    def test_paper_omega_values(self, k, omega):
        """Fig. 16's omega in {3, 6, 10, 36, 171} for these step sizes."""
        assert omega_for_step(k) == omega
        assert len(simplex_grid(k)) == omega

    def test_grid_points_valid(self):
        for w in simplex_grid(10):
            validate_weights(w)

    def test_grid_unique(self):
        grid = simplex_grid(10)
        assert len({tuple(np.round(w, 9)) for w in grid}) == len(grid)

    def test_step_for_omega_roundtrip(self):
        for k in (4, 5, 6, 10, 20):
            assert step_for_omega(omega_for_step(k)) == k

    def test_step_for_omega_invalid(self):
        with pytest.raises(ValueError):
            step_for_omega(37)

    def test_bootstraps_on_grid(self):
        grid = {tuple(np.round(w, 9)) for w in simplex_grid(10)}
        for b in BOOTSTRAP_OBJECTIVES:
            assert tuple(np.round(b, 9)) in grid


class TestSampling:
    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_sample_weight_valid(self, seed):
        w = sample_weight(np.random.default_rng(seed))
        validate_weights(w)
        assert np.all(w >= 0.05 - 1e-9)

    @given(st.floats(0, 10), st.floats(0, 10), st.floats(0, 10))
    @settings(max_examples=30, deadline=None)
    def test_project_always_valid(self, a, b, c):
        w = project_to_simplex([a, b, c])
        validate_weights(w)

    def test_project_greedy_vector(self):
        """The paper's Fig. 10 w=<1,0,0> projected into the simplex."""
        w = project_to_simplex([1.0, 0.0, 0.0])
        assert w[0] > 0.9
        assert w[1] > 0.0 and w[2] > 0.0

    def test_nearest_grid_point(self):
        w = nearest_grid_point([0.79, 0.11, 0.10], 10)
        np.testing.assert_allclose(w, [0.8, 0.1, 0.1])


class TestObjectiveGraph:
    def test_paper_neighbour_examples(self):
        """Appendix B's worked examples at step 0.1."""
        grid = simplex_grid(10)
        adjacency = objective_graph(grid)
        index = {tuple(np.round(w, 6)): i for i, w in enumerate(grid)}

        a = index[(0.2, 0.4, 0.4)]
        b = index[(0.2, 0.5, 0.3)]
        c = index[(0.1, 0.5, 0.4)]
        d = index[(0.1, 0.3, 0.6)]
        assert b in adjacency[a]      # neighbours
        assert c in adjacency[a]      # neighbours
        assert d not in adjacency[a]  # not neighbours (2 steps away)

    def test_graph_connected(self):
        grid = simplex_grid(10)
        adjacency = objective_graph(grid)
        g = nx.Graph()
        g.add_nodes_from(range(len(grid)))
        for i, nbrs in enumerate(adjacency):
            g.add_edges_from((i, j) for j in nbrs)
        assert nx.is_connected(g)

    def test_symmetry(self):
        adjacency = objective_graph(simplex_grid(6))
        for i, nbrs in enumerate(adjacency):
            for j in nbrs:
                assert i in adjacency[j]

    def test_degree_bounded(self):
        """Each vertex has at most 6 neighbours (hex lattice)."""
        adjacency = objective_graph(simplex_grid(10))
        assert max(len(n) for n in adjacency) <= 6


class TestNeighborhoodSort:
    def test_is_permutation(self):
        grid = simplex_grid(10)
        order = neighborhood_sort(grid, BOOTSTRAP_OBJECTIVES)
        assert sorted(order) == list(range(len(grid)))

    def test_starts_at_a_bootstrap(self):
        grid = simplex_grid(10)
        order = neighborhood_sort(grid, BOOTSTRAP_OBJECTIVES)
        starts = bootstrap_indices(grid, BOOTSTRAP_OBJECTIVES)
        assert order[0] in starts

    def test_early_visits_near_bootstraps(self):
        """The first visits stay close to the pivots (transfer locality)."""
        grid = simplex_grid(10)
        adjacency = objective_graph(grid)
        g = nx.Graph()
        g.add_nodes_from(range(len(grid)))
        for i, nbrs in enumerate(adjacency):
            g.add_edges_from((i, j) for j in nbrs)
        sources = bootstrap_indices(grid, BOOTSTRAP_OBJECTIVES)
        dist = {}
        for idx in range(len(grid)):
            dist[idx] = min(nx.shortest_path_length(g, s, idx) for s in sources)
        order = neighborhood_sort(grid, BOOTSTRAP_OBJECTIVES)
        first_half = np.mean([dist[i] for i in order[:len(order) // 2]])
        second_half = np.mean([dist[i] for i in order[len(order) // 2:]])
        assert first_half <= second_half

    def test_works_on_small_grid(self):
        grid = simplex_grid(4)
        order = neighborhood_sort(grid, [(0.5, 0.25, 0.25)])
        assert sorted(order) == [0, 1, 2]


class TestLandmarkSchedule:
    """The §4.2 procedure as a schedule, built without any training."""

    @pytest.mark.parametrize("omega, bootstrap, traverse, cycles",
                             [(36, 4, 2, 2), (10, 3, 1, 3), (6, 1, 1, 1)])
    def test_bootstrap_then_sorted_traversal(self, omega, bootstrap,
                                             traverse, cycles):
        schedule = landmark_schedule(omega, bootstrap, traverse, cycles)
        pivots = np.array(BOOTSTRAP_OBJECTIVES)
        for phase, objectives in schedule[:bootstrap]:
            assert phase == "bootstrap"
            np.testing.assert_array_equal(objectives, pivots)
        grid = simplex_grid(step_for_omega(omega))
        visits = [i for i in neighborhood_sort(grid, BOOTSTRAP_OBJECTIVES)
                  if not np.isclose(grid[i], pivots).all(axis=1).any()]
        expected = [grid[i] for i in visits for _ in range(traverse)] * cycles
        assert len(schedule) == bootstrap + cycles * traverse * len(visits)
        for (phase, objectives), w in zip(schedule[bootstrap:], expected):
            assert phase == "traverse"
            np.testing.assert_array_equal(objectives, [w, *pivots])
            assert not np.isclose(objectives[0], pivots).all(axis=1).any()

    @pytest.mark.parametrize("quality, rollouts", [("fast", 432), ("full", 882)])
    def test_budget_rollout_counts(self, quality, rollouts):
        """omega = 36 has 33 non-pivot landmarks: 100 * 3 + 33 * 4 at
        ``fast``, 250 * 3 + 33 * 4 at ``full``."""
        budget = BUDGETS[quality]
        schedule = landmark_schedule(36, budget.bootstrap_iters,
                                     budget.traverse_iters, budget.cycles)
        traverse = [entry for entry in schedule if entry[0] == "traverse"]
        assert len(traverse) == 33
        assert sum(len(objectives) for _, objectives in schedule) == rollouts
