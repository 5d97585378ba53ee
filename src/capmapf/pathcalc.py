"""Unweighted shortest-path distances and the detour buckets they give, the
sum-of-costs lower bound and a lift over it by forced conflicts, and the
plans that can meet those bounds without SAT: independent BFS paths, and one
prioritized planner that keeps each agent clear of the capacities and swaps
of the agents before it within a total delay budget. At budget 0 it gives
the root plan, which attains the lower bound; at the lift's budget a plan
it finds attains the lifted bound."""

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

#: per agent, buckets[e] = the vertices of detour e, in ascending id order
AgentDetours = list[tuple[tuple[int, ...], ...]]


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


def agent_detours(instance: Instance) -> AgentDetours:
    """Per agent, its vertices bucketed by detour d_start(v) + d_goal(v) - c_i,
    the fewest steps a walk through v takes over the agent's shortest-path
    length c_i: bucket e holds those of detour e in ascending id order, and
    a vertex outside the start's component is in none. Agent i's diagram at
    cost slack delta holds exactly the vertices of buckets 0..delta (see
    `mdd`). One scan of the vertices per agent; read it as
    `Instance.detours`, which computes it once per instance."""
    detours = []
    for a, (from_start, to_goal) in zip(instance.agents, instance.distances):
        c = from_start[a.goal]
        buckets: list[list[int]] = []
        for v, (d, e) in enumerate(zip(from_start, to_goal)):
            if d != UNREACHABLE:
                detour = d + e - c
                if detour >= len(buckets):
                    buckets += [[] for _ in range(detour + 1 - len(buckets))]
                buckets[detour].append(v)
        detours.append(tuple(map(tuple, buckets)))
    return detours


def agent_path_costs(instance: Instance) -> list[int]:
    """Per-agent shortest start-to-goal distance, read from `Instance.distances`."""
    return [from_start[a.goal] for a, (from_start, _) in zip(instance.agents, instance.distances)]


def cost_lower_bound(instance: Instance) -> int:
    """Sum of per-agent shortest-path lengths; no valid plan can cost less."""
    return sum(agent_path_costs(instance))


def cardinal_lift(instance: Instance) -> tuple[int, list[bool]]:
    """A count of agents that must be delayed, read off the slack-0
    diagrams, and per agent whether a counted group holds it: every valid
    plan costs at least `cost_lower_bound` plus the count.

    Agent i's forced node at step t <= c_i is the one vertex of its shortest
    paths at distance t from its start, where only one is; for c_i < t <=
    max_j c_j it is the agent's goal. An agent with delay 0 follows a
    shortest path and stays at its goal from c_i on, so it holds every one
    of its forced nodes and makes every move between two of them.

    Greedily, over agents not counted yet: a forced node (t, v) of m of them,
    m > cap(v), cannot hold them all undelayed, so it adds m - cap(v) and
    counts all m; a forced move u -> v at step t that meets another's forced
    move v -> u at the same step is a swap at any capacity, so it adds 1 and
    counts both. The counted groups are disjoint and each agent's delay is
    an integer, so their delays add up to at least the lift. Without agent
    i its group, if any, counts exactly 1 less (a node group of m - 1 agents
    over cap(v) still adds m - 1 - cap(v) >= 0, a swap pair nothing), so the
    other agents' delays add up to at least the lift - 1 for a counted
    agent and the lift for any other: the per-agent cuts of `solve`.

    Each agent's shortest paths run through the vertices of its detour-0
    bucket (`Instance.detours`), the slack-0 diagram's, so the lift reads
    only those and dicts over the forced nodes and moves, O(|V_0| + k
    max_j c_j) with V_0 the buckets' vertices; no scan of the other
    vertices and no loop over pairs of agents."""
    costs = agent_path_costs(instance)
    mu = max(costs)
    nodes: dict[tuple[int, int], list[int]] = {}
    moves: dict[tuple[int, int, int], list[int]] = {}
    for i, (a, c, (from_start, _), buckets) in enumerate(
            zip(instance.agents, costs, instance.distances, instance.detours)):
        on_paths = [0] * (c + 1)  # per step, how many vertices of its shortest paths
        vertex = [0] * (c + 1)
        for v in buckets[0]:  # on a shortest path at step from_start[v]
            d = from_start[v]
            on_paths[d] += 1
            vertex[d] = v
        path = [v if n == 1 else None for v, n in zip(vertex, on_paths)] + [a.goal] * (mu - c)
        for t, v in enumerate(path):
            if v is not None:
                nodes.setdefault((t, v), []).append(i)
                if t and path[t - 1] not in (None, v):
                    moves.setdefault((t - 1, path[t - 1], v), []).append(i)
    caps = instance.capacities
    counted = [False] * instance.k
    lift = 0
    for (_, v), agents in nodes.items():
        if len(agents) > caps[v]:
            free = [i for i in agents if not counted[i]]
            if len(free) > caps[v]:
                lift += len(free) - caps[v]
                for i in free:
                    counted[i] = True
    for (t, u, v), agents in moves.items():
        for i in agents:
            if counted[i]:
                continue
            j = next((j for j in moves.get((t, v, u), ()) if not counted[j]), None)
            if j is not None:
                lift += 1
                counted[i] = counted[j] = True
    return lift, counted


def shortest_path_plan(instance: Instance) -> Plan:
    """The independent BFS paths, the root plan where prioritized planning
    finds none: each agent's BFS shortest path, taking the lowest-id vertex
    one step nearer its goal at every step, padded at its goal to a common
    length. Its sum of costs is `cost_lower_bound`."""
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


def prioritized_plan(instance: Instance, budget: int) -> Plan | None:
    """A plan that delays the agents by at most `budget` steps in total over
    their shortest-path lengths and breaks no capacity or swap rule, planned
    one agent at a time against a reservation table; None where this finds
    none. Its cost is at most `cost_lower_bound` + budget, so where that sum
    is a proven lower bound a plan from here is optimal.

    Agents go in priority order, at first by id. Each takes the earliest
    arrival A at most c_i plus the budget still left at which it has a clear
    walk: one through its diagram nodes of arrival A, from_start[v] <= t <=
    A - to_goal[v], waits included, that keeps every (vertex, step) it
    occupies, its goal from A up to the horizon max_j c_j + budget included,
    below the vertex's capacity among the agents already placed, and never
    moves against one of their moves on the same edge at the same step. Of
    those walks it takes the one that steps to the lowest-id vertex first.
    An agent with none moves to the front of the order and the build
    restarts with the whole budget; an agent that moved once and fails
    again ends the search. At budget 0 the diagrams hold only shortest
    paths, so every agent keeps to one: the root plan (`Instance.root_plan`)
    attains the lower bound, and where the paths of `shortest_path_plan` are
    clean the first order returns them."""
    order = list(range(instance.k))
    moved = set()
    while True:
        paths = _reserve_in_order(instance, order, budget)
        if isinstance(paths, list):
            return Plan(tuple(paths))
        if paths in moved:
            return None
        moved.add(paths)
        order.remove(paths)
        order.insert(0, paths)


def _reserve_in_order(instance: Instance, order: list[int],
                      budget: int) -> list[tuple[int, ...]] | int:
    """Each agent's clear walk at its earliest arrival, padded at its goal to
    the horizon max_j c_j + budget, planned in `order` within the budget; or
    the first agent that has none.

    At each arrival in turn, from the first after which its goal stays
    clear, an agent's walk is a depth-first search over its diagram nodes
    that tries successors lowest id first and remembers each (vertex, step)
    with no clear way on, so it visits each of them once at most. It finds
    the walk that a backward pass keeping the nodes with a clear way to the
    goal, then a forward walk to the lowest-id clear successor, would find,
    and when nothing blocks the lowest-id walk it takes one step per step."""
    neighbourhoods = instance.graph.closed_neighbourhoods
    caps = instance.capacities.values
    n = instance.graph.vertex_count
    costs = agent_path_costs(instance)
    horizon = max(costs) + budget
    occupants = [0] * ((horizon + 1) * n)  # t * n + v: agents placed at v at step t
    moves: set[int] = set()  # (t * n + u) * n + v: a placed agent moves u -> v at step t
    paths: list[tuple[int, ...]] = [()] * instance.k
    left = budget
    for i in order:
        a, (_, to_goal), c = instance.agents[i], instance.distances[i], costs[i]
        goal = a.goal
        blocked = max((t for t in range(c, horizon + 1) if occupants[t * n + goal] >= caps[goal]),
                      default=c - 1)
        for arrival in range(blocked + 1, c + left + 1):
            path = [a.start]  # step 0 is clear: the instance's starts fit their capacities
            successors = [iter(neighbourhoods[a.start])]
            dead = set()  # t * n + v: no clear way on from v at step t
            while path and len(path) <= arrival:
                t = len(path) - 1
                base, here, room = (t + 1) * n, path[-1], arrival - t - 1
                for u in successors[-1]:
                    if (to_goal[u] <= room and occupants[base + u] < caps[u] and base + u not in dead
                            and (t * n + u) * n + here not in moves):
                        path.append(u)
                        successors.append(iter(neighbourhoods[u]))
                        break
                else:
                    dead.add(t * n + path.pop())
                    successors.pop()
            if path:
                break
        else:
            return i
        left -= arrival - c
        path += [goal] * (horizon - arrival)
        for t, v in enumerate(path):
            occupants[t * n + v] += 1
        for t in range(arrival):
            if path[t] != path[t + 1]:
                moves.add((t * n + path[t]) * n + path[t + 1])
        paths[i] = tuple(path)
    return paths
