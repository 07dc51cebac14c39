"""Neighbourhood-based objective sorting (Appendix B, Algorithm 1).

Fast-traversal training visits the landmark objectives in an order that
keeps consecutive objectives *close* in preference space, so transfer
from the previous objective's policy is effective.  The paper builds an
undirected graph over the weight-simplex grid:

* vertices are the landmark weight vectors;
* two vectors are **neighbours** when they differ in at most two
  dimensions and each difference is within one grid step (so, on the
  integer grid, one unit moves from one coordinate to another);
* all edges have weight 1.

Algorithm 1 then interleaves Dijkstra expansions from each bootstrapped
objective, appending the nearest unvisited vertex each time and rotating
between bootstrap sources every ``ceil(|V| / |O|)`` visits, producing
the cyclic traversal of Fig. 4.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["objective_graph", "neighborhood_sort", "bootstrap_indices"]


def _as_integer_grid(grid: np.ndarray) -> tuple[np.ndarray, int]:
    """Recover the integer lattice (i, j, l) and step denominator k."""
    k = int(round(1.0 / np.min(grid[grid > 0])))
    ints = np.rint(grid * k).astype(int)
    if not np.allclose(ints / k, grid, atol=1e-9):
        raise ValueError("grid points are not on a regular simplex lattice")
    return ints, k


def objective_graph(grid: np.ndarray) -> list[list[int]]:
    """Adjacency lists for the neighbourhood graph over ``grid``.

    Two grid points are adjacent iff they differ in at most two
    coordinates and every coordinate differs by at most one step
    (Appendix B's definition; e.g. at step 0.1, <0.2,0.4,0.4> and
    <0.2,0.5,0.3> are neighbours but <0.2,0.4,0.4> and <0.1,0.3,0.6>
    are not).
    """
    ints, _ = _as_integer_grid(grid)
    index = {tuple(p): i for i, p in enumerate(ints)}
    adjacency: list[list[int]] = [[] for _ in range(len(ints))]
    # All moves that change exactly two coordinates by +-1 and conserve
    # the sum: transfer one unit between a pair of coordinates.
    moves = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    for i, p in enumerate(ints):
        for src, dst in moves:
            q = list(p)
            q[src] -= 1
            q[dst] += 1
            j = index.get(tuple(q))
            if j is not None and j > i:
                adjacency[i].append(j)
                adjacency[j].append(i)
    return adjacency


def bootstrap_indices(grid: np.ndarray, bootstraps) -> list[int]:
    """Indices in ``grid`` of the bootstrap objectives (nearest match)."""
    out = []
    for b in bootstraps:
        b = np.asarray(b, dtype=np.float64)
        out.append(int(np.argmin(np.sum((grid - b) ** 2, axis=1))))
    return out


def _bfs_distances(adjacency: list[list[int]], source: int) -> np.ndarray:
    """Unit-weight Dijkstra == breadth-first distances."""
    n = len(adjacency)
    dist = np.full(n, np.inf)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if dist[v] == np.inf:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def neighborhood_sort(grid: np.ndarray, bootstraps) -> list[int]:
    """Algorithm 1: the training order over ``grid``.

    Returns a permutation of ``range(len(grid))`` beginning with the
    bootstrap objectives' region and expanding outward, rotating
    between bootstrap sources so improvement stays balanced.
    """
    n = len(grid)
    adjacency = objective_graph(grid)
    sources = bootstrap_indices(grid, bootstraps)
    dist = [_bfs_distances(adjacency, s) for s in sources]

    visited = np.zeros(n, dtype=bool)
    order: list[int] = []
    per_source = math.ceil(n / len(sources))

    source_cycle = 0
    while len(order) < n:
        i = source_cycle % len(sources)
        source_cycle += 1
        budget = per_source
        s = sources[i]
        if not visited[s]:
            order.append(s)
            visited[s] = True
            budget -= 1
        while budget > 0 and len(order) < n:
            # Nearest unvisited vertex to this bootstrap source;
            # unreachable vertices (inf) are taken last, by index.
            candidates = np.where(~visited)[0]
            if len(candidates) == 0:
                break
            u = int(candidates[np.argmin(dist[i][candidates])])
            order.append(u)
            visited[u] = True
            budget -= 1
    return order
