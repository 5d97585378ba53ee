"""Per-agent time expansion pruned by two-sided reachability and by the
agent's own cost budget.

A diagram spans the common horizon mu, but agent i must reach its goal for
the last time by its arrival step c_i + delta, where c_i is its
shortest-path length and delta = mu - max_j c_j is the cost slack. In a plan
of sum-of-costs <= xi0 + delta every other agent j pays at least c_j, so
agent i pays at most c_i + delta. Level t keeps vertex v iff the start
reaches v within t steps and v reaches the goal by the arrival step; past
that step only the goal remains, up to mu.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Graph, Instance
from .pathcalc import UNREACHABLE, AgentDistances, agent_distances, agent_path_costs, bfs_distances


class EmptyMddError(ValueError):
    """The goal cannot be reached within the given horizon."""


class HorizonContractError(ValueError):
    """Cost bound below the shortest-path lower bound."""


@dataclass(frozen=True)
class Mdd:
    agent: int
    horizon: int
    levels: tuple[tuple[int, ...], ...]          # levels[t] = sorted vertex ids
    arcs: tuple[tuple[tuple[int, int], ...], ...]  # arcs[t] = (u at t, v at t+1) pairs


def compute_horizon(instance: Instance, xi: int) -> int:
    """Number of time steps needed for any plan of sum-of-costs <= xi.

    Equals the largest per-agent shortest-path length plus the cost slack
    over the sum-of-costs lower bound.
    """
    return horizon_of(agent_path_costs(instance), xi)


def horizon_of(agent_costs: list[int], xi: int) -> int:
    """`compute_horizon` from the agents' shortest-path lengths."""
    xi0 = sum(agent_costs)
    if xi < xi0:
        raise HorizonContractError(f"cost bound {xi} below lower bound {xi0}")
    return max(agent_costs) + (xi - xi0)


def _closed_neighbourhoods(graph: Graph) -> list[tuple[int, ...]]:
    """Per vertex, itself and its neighbours in ascending order: the targets
    of a wait or a move."""
    return [tuple(sorted((u, *nbrs))) for u, nbrs in enumerate(graph.adjacency)]


def _diagram(agent: int, goal: int, mu: int, arrival: int, from_start: tuple[int, ...],
             to_goal: tuple[int, ...], closed: list[tuple[int, ...]]) -> Mdd:
    """Vertex v sits on the levels of its window [from_start[v],
    arrival - to_goal[v]]; the goal's window runs on to mu."""
    if from_start[goal] == UNREACHABLE or from_start[goal] > arrival:
        raise EmptyMddError(f"agent {agent}: goal not reachable within step {arrival}")
    first = [0] * len(from_start)
    last = [-1] * len(from_start)  # an empty window for every vertex left out
    levels: list[list[int]] = [[] for _ in range(mu + 1)]
    for v, lo in enumerate(from_start):
        if lo == UNREACHABLE:  # outside the start's component, so the goal is out of reach
            continue
        hi = mu if v == goal else arrival - to_goal[v]
        if lo > hi:
            continue
        first[v], last[v] = lo, hi
        for t in range(lo, hi + 1):
            levels[t].append(v)

    # Every kept node has an arc out (a wait if it can spare a step, else a
    # move nearer the goal) and, past level 0, an arc in (the mirror case),
    # so the windows alone leave no dead ends.
    arcs = [
        tuple((u, v) for u in levels[t] for v in closed[u] if first[v] <= t + 1 <= last[v])
        for t in range(mu)
    ]
    return Mdd(agent, mu, tuple(map(tuple, levels)), tuple(arcs))


def build_mdd(instance: Instance, agent: int, mu: int, arrival: int | None = None) -> Mdd:
    """Leveled diagram of all length-mu move/wait sequences from start to goal
    whose last arrival at the goal is at or before `arrival` (default mu)."""
    a = instance.agents[agent]
    graph = instance.graph
    return _diagram(
        agent, a.goal, mu, mu if arrival is None else arrival,
        bfs_distances(graph, a.start), bfs_distances(graph, a.goal),
        _closed_neighbourhoods(graph),
    )


def build_all_mdds(instance: Instance, mu: int, dists: AgentDistances | None = None,
                   closed: list[tuple[int, ...]] | None = None) -> list[Mdd]:
    """Every agent's diagram for the horizon mu, each cut at its own arrival
    step c_i + (mu - max_j c_j), from `agent_distances` and
    `_closed_neighbourhoods`, which a caller may compute once and pass in."""
    dists = dists or agent_distances(instance)
    closed = closed or _closed_neighbourhoods(instance.graph)
    costs = agent_path_costs(instance, dists)
    delta = mu - max(costs)
    return [
        _diagram(i, a.goal, mu, c + delta, from_start, to_goal, closed)
        for i, (a, c, (from_start, to_goal)) in enumerate(zip(instance.agents, costs, dists))
    ]
