"""Per-agent time expansion pruned by two-sided reachability.

Level t keeps only vertices reachable from the agent's start within t
steps that can still reach the goal within the remaining horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance
from .pathcalc import UNREACHABLE, agent_path_costs, bfs_distances


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

    def dump(self) -> str:
        """One line per level listing vertex ids (debug aid)."""
        return "\n".join(
            f"t={t}: " + " ".join(str(v) for v in lvl) for t, lvl in enumerate(self.levels)
        )


def compute_horizon(instance: Instance, xi: int) -> int:
    """Number of time steps needed for any plan of sum-of-costs <= xi.

    Equals the largest per-agent shortest-path length plus the cost slack
    over the sum-of-costs lower bound.
    """
    costs = agent_path_costs(instance)
    xi0 = sum(costs)
    if xi < xi0:
        raise HorizonContractError(f"cost bound {xi} below lower bound {xi0}")
    return max(costs) + (xi - xi0)


def build_mdd(instance: Instance, agent: int, mu: int) -> Mdd:
    """Leveled diagram of all length-mu move/wait sequences from start to goal."""
    a = instance.agents[agent]
    graph = instance.graph
    from_start = bfs_distances(graph, a.start)
    to_goal = bfs_distances(graph, a.goal)
    if from_start[a.goal] == UNREACHABLE or from_start[a.goal] > mu:
        raise EmptyMddError(f"agent {agent}: goal not reachable within horizon {mu}")

    levels: list[set[int]] = []
    for t in range(mu + 1):
        levels.append({
            v for v in range(graph.vertex_count)
            if from_start[v] != UNREACHABLE and from_start[v] <= t
            and to_goal[v] != UNREACHABLE and to_goal[v] <= mu - t
        })

    # Every kept node has an arc out (a wait if it can spare a step, else a
    # move nearer the goal) and, past level 0, an arc in (the mirror case),
    # so two-sided reachability alone leaves no dead ends.
    arcs = [
        {(u, v) for u in levels[t] for v in (u, *graph.adjacency[u]) if v in levels[t + 1]}
        for t in range(mu)
    ]

    return Mdd(
        agent,
        mu,
        tuple(tuple(sorted(lvl)) for lvl in levels),
        tuple(tuple(sorted(arc_set)) for arc_set in arcs),
    )


def build_all_mdds(instance: Instance, mu: int) -> list[Mdd]:
    return [build_mdd(instance, i, mu) for i in range(instance.k)]
