"""Per-agent time expansion pruned by two-sided reachability and by the
agent's own cost budget.

At cost bound xi = xi0 + delta, where xi0 is the sum of the agents'
shortest-path lengths c_j and delta the cost slack, every diagram spans the
common horizon mu = max_j c_j + delta. Agent i must reach its goal for the
last time by its arrival step c_i + delta: in a plan of sum-of-costs <= xi
every other agent j pays at least c_j, so agent i pays at most c_i + delta.
Level t keeps vertex v iff the start reaches v within t steps and v reaches
the goal by the arrival step; past that step only the goal remains, up to mu.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance
from .pathcalc import UNREACHABLE, agent_path_costs


class EmptyMddError(ValueError):
    """The goal cannot be reached within the given horizon."""


class HorizonContractError(ValueError):
    """Cost bound below the shortest-path lower bound."""


@dataclass(frozen=True)
class Mdd:
    """One agent's diagram over the horizon mu = len(arcs) = len(levels) - 1."""
    levels: tuple[tuple[int, ...], ...]          # levels[t] = sorted vertex ids
    arcs: tuple[tuple[tuple[int, int], ...], ...]  # arcs[t] = (u at t, v at t+1) pairs


def compute_horizon(instance: Instance, xi: int) -> int:
    """Number of time steps needed for any plan of sum-of-costs <= xi.

    Equals the largest per-agent shortest-path length plus the cost slack
    over the sum-of-costs lower bound.
    """
    agent_costs = agent_path_costs(instance)
    delta = cost_slack(agent_costs, xi)
    return max(agent_costs) + delta


def cost_slack(agent_costs: list[int], xi: int) -> int:
    """The slack delta of cost bound xi over the lower bound sum(agent_costs)."""
    xi0 = sum(agent_costs)
    if xi < xi0:
        raise HorizonContractError(f"cost bound {xi} below lower bound {xi0}")
    return xi - xi0


def _diagram(agent: int, goal: int, mu: int, arrival: int, from_start: tuple[int, ...],
             to_goal: tuple[int, ...], closed: tuple[tuple[int, ...], ...]) -> Mdd:
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
    return Mdd(tuple(map(tuple, levels)), tuple(arcs))


def build_all_mdds(instance: Instance, delta: int) -> list[Mdd]:
    """Every agent's diagram at cost slack delta: horizon max_j c_j + delta,
    agent i cut at its arrival step c_i + delta, from `Instance.distances`."""
    costs = agent_path_costs(instance)
    mu = max(costs) + delta
    closed, distances = instance.graph.closed_neighbourhoods, instance.distances
    return [
        _diagram(i, a.goal, mu, c + delta, from_start, to_goal, closed)
        for i, (a, c, (from_start, to_goal)) in enumerate(zip(instance.agents, costs, distances))
    ]
