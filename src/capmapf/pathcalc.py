"""Unweighted shortest-path distances, the sum-of-costs lower bound and the
root plan of independent shortest paths that attains it when nothing collides."""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from .plans import Plan

if TYPE_CHECKING:
    from .instance import Graph, Instance

#: explicit sentinel, never mixed into horizon arithmetic
UNREACHABLE = -1

#: per agent, (hop distances from its start, hop distances to its goal)
AgentDistances = list[tuple[tuple[int, ...], tuple[int, ...]]]


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


def agent_distances(instance: Instance) -> AgentDistances:
    """Two BFS per agent; raises if any goal is unreachable. Read it as
    `Instance.distances`, which computes it once per instance."""
    dists = []
    for i, a in enumerate(instance.agents):
        from_start = bfs_distances(instance.graph, a.start)
        if from_start[a.goal] == UNREACHABLE:
            raise UnsolvableInstanceError(f"agent {i}: goal {a.goal} unreachable"
                                          f" from start {a.start}")
        dists.append((from_start, bfs_distances(instance.graph, a.goal)))
    return dists


def agent_path_costs(instance: Instance) -> list[int]:
    """Per-agent shortest start-to-goal distance, read from `Instance.distances`."""
    return [from_start[a.goal] for a, (from_start, _) in zip(instance.agents, instance.distances)]


def cost_lower_bound(instance: Instance) -> int:
    """Sum of per-agent shortest-path lengths; no valid plan can cost less."""
    return sum(agent_path_costs(instance))


def shortest_path_plan(instance: Instance) -> Plan:
    """The root plan: each agent's BFS shortest path, taking the lowest-id
    vertex one step nearer its goal at every step, padded at its goal to a
    common length. Its sum of costs is `cost_lower_bound`."""
    adjacency = instance.graph.adjacency
    paths = []
    for a, (_, to_goal) in zip(instance.agents, instance.distances):
        path = [a.start]
        here = a.start
        while here != a.goal:
            nearer = to_goal[here] - 1
            here = min(u for u in adjacency[here] if to_goal[u] == nearer)
            path.append(here)
        paths.append(path)
    mu = max(map(len, paths))
    return Plan(tuple(tuple(p + [p[-1]] * (mu - len(p))) for p in paths))
