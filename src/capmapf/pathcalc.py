"""Unweighted shortest-path distances and the sum-of-costs lower bound."""

from __future__ import annotations

from collections import deque

from .instance import Graph, Instance

#: explicit sentinel, never mixed into horizon arithmetic
UNREACHABLE = -1


class UnsolvableInstanceError(ValueError):
    """Some agent's goal is unreachable from its start."""


def bfs_distances(graph: Graph, source: int) -> tuple[int, ...]:
    """Exact hop distances from source; UNREACHABLE marks separate components."""
    dist = [UNREACHABLE] * graph.vertex_count
    dist[source] = 0
    queue = deque([source])
    adjacency = graph.adjacency
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in adjacency[u]:
            if dist[v] == UNREACHABLE:
                dist[v] = du
                queue.append(v)
    return tuple(dist)


def agent_path_costs(instance: Instance) -> list[int]:
    """Per-agent shortest start-to-goal distance; raises if any goal is unreachable."""
    costs = []
    by_source: dict[int, tuple[int, ...]] = {}
    for a in instance.agents:
        dist = by_source.get(a.start)
        if dist is None:
            dist = bfs_distances(instance.graph, a.start)
            by_source[a.start] = dist
        d = dist[a.goal]
        if d == UNREACHABLE:
            raise UnsolvableInstanceError(
                f"agent {a.id}: goal {a.goal} unreachable from start {a.start}"
            )
        costs.append(d)
    return costs


def cost_lower_bound(instance: Instance) -> int:
    """Sum of per-agent shortest-path lengths; no valid plan can cost less."""
    return sum(agent_path_costs(instance))
