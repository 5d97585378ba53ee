"""Per-agent time expansion pruned by two-sided reachability and by the
agent's own cost budget.

At cost bound xi = xi0 + delta, where xi0 is the sum of the agents'
shortest-path lengths c_j and delta the cost slack, every plan of
sum-of-costs <= xi has delays d_j (agent j pays c_j + d_j) that add up to at
most delta. Where the other agents are proven to be delayed by at least
cut_i in all (`pathcalc.cardinal_lift`, the cuts of `solvers.solve`), d_i <=
delta - cut_i, so agent i must reach its goal for the last time by its
arrival step c_i + delta - cut_i; a cut of 0, the default, leaves it the
whole slack. Agent i's diagram ends at that step, and level t keeps vertex v
iff the start reaches v within t steps and v reaches the goal by the
arrival step; the last level holds only the goal. After its arrival step
the agent stays at its goal, so a plan runs on to the horizon mu = max_j c_j
+ delta with every shorter path padded at its goal.

The diagram at slack delta contains the one at delta - 1: it adds exactly
the nodes (v, c_i + delta - cut_i - d_goal(v)) with d_start(v) + d_goal(v)
<= c_i + delta - cut_i, and the arcs into them. A node's arcs in never
change, and every arc out of a new node leads to a new node, so an encoding
grown bound by bound only ever adds (`build_all_mdds(..., since=)`), from
slack -1, whose diagrams are empty as d_start(v) + d_goal(v) >= c_i.

A vertex's detour e(v) = d_start(v) + d_goal(v) - c_i is the first slack
past the cut whose diagram has it, so a growth from slack delta' to delta
visits only the vertices of the agent's detour buckets 0..delta - cut_i
(`Instance.detours`), never the rest of the map: each gains the levels
max(d_start(v), c_i + delta' - cut_i - d_goal(v) + 1) to c_i + delta -
cut_i - d_goal(v).
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
    """One agent's diagram up to its arrival step len(arcs) = len(levels) - 1,
    or the part of it that a smaller slack's diagram lacks."""
    levels: tuple[tuple[int, ...], ...]          # levels[t] = sorted vertex ids
    arcs: tuple[tuple[tuple[int, int], ...], ...]  # arcs[t] = (u at t, v at t+1) pairs


def compute_horizon(instance: Instance, xi: int) -> int:
    """Number of time steps needed for any plan of sum-of-costs <= xi: the
    longest diagram's horizon.

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


def _diagram(agent: int, goal: int, arrival: int, from_start: tuple[int, ...],
             to_goal: tuple[int, ...], detours: tuple[tuple[int, ...], ...],
             closed: tuple[tuple[int, ...], ...], since: int = -1) -> Mdd:
    """Levels 0 to arrival: vertex v sits on the levels of its window
    [from_start[v], arrival - to_goal[v]], so the last level is (goal,).
    Each level is sorted by vertex id, and arcs[t] holds the arcs into
    level t + 1, grouped by their head.

    Only the growth over the diagram ending at the earlier arrival step
    `since`: the nodes whose level lies past since - to_goal[v], and the
    arcs into them. Below c_i, as at the default -1, that diagram is empty.
    A vertex's window is empty past its detour's bucket, so this visits the
    buckets `detours`[0..arrival - c_i] and no other vertex."""
    cost = from_start[goal]
    if cost == UNREACHABLE or cost > arrival:
        raise EmptyMddError(f"agent {agent}: goal not reachable within step {arrival}")
    levels: list[list[int]] = [[] for _ in range(arrival + 1)]
    for bucket in detours[:arrival - cost + 1]:
        for v in bucket:
            to_v = to_goal[v]
            for t in range(max(from_start[v], since - to_v + 1), arrival - to_v + 1):
                levels[t].append(v)
    for level in levels:
        level.sort()  # the buckets interleave by id within a level

    # The arcs into (v, t + 1) come from every (u, t) with u in v's closed
    # neighbourhood and from_start[u] <= t: to_goal[u] <= to_goal[v] + 1 puts
    # (u, t) inside its window's upper end. Every kept node has an arc out (a
    # wait if it can spare a step, else a move nearer the goal) and, past
    # level 0, an arc in, so the windows alone leave no dead ends.
    arcs = [
        tuple((u, v) for v in heads for u in closed[v] if from_start[u] <= t)
        for t, heads in enumerate(levels[1:])
    ]
    return Mdd(tuple(map(tuple, levels)), tuple(arcs))


def build_all_mdds(instance: Instance, delta: int, since: int = -1,
                   cuts: list[int] | None = None) -> list[Mdd]:
    """Every agent's diagram at cost slack delta: agent i's ends at its
    arrival step c_i + delta - cuts[i], each cut 0 by default. Built from
    `Instance.distances` and `Instance.detours`; raises EmptyMddError where
    a cut exceeds delta.

    Each diagram holds only its growth over the slack-`since` one, whose
    default -1 is the empty diagram: the new nodes and the arcs into them,
    which are all the arcs it gained."""
    costs = agent_path_costs(instance)
    closed = instance.graph.closed_neighbourhoods
    cuts = cuts or [0] * instance.k
    return [
        _diagram(i, a.goal, c + delta - cut, from_start, to_goal, detours, closed, c + since - cut)
        for i, (a, c, cut, (from_start, to_goal), detours) in enumerate(
            zip(instance.agents, costs, cuts, instance.distances, instance.detours))
    ]
