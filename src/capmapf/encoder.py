"""Translate instances and cost bounds into CNF, and decode models into plans.

Every variable is a vertex variable x_i(v,t), agent i at v at step t, for a
node of agent i's diagram, or an auxiliary one (settled flags, counters).
A move u->v between t and t+1 is the pair x_i(u,t), x_i(v,t+1), so no
diagram arc has a variable of its own. Agent i's diagram ends at its arrival
step; after it the agent is settled: at its goal for good, a fixed occupant
that the capacity, no-follow and conflict clauses count without a variable.

Two modes: the complete model posts every movement rule eagerly (swap
prohibition and per-vertex capacity cardinality at every step); the basic
model omits inter-agent rules and instead posts one elimination clause per
previously recorded conflict.

No clause keeps an agent to one vertex per step, so a model may set more of
an agent's nodes true than one walk uses. `extract_plan` decodes one walk
per agent through true nodes, back from its goal. The swap, capacity,
no-follow and conflict clauses hold vertex variables only negatively, so
they hold for any such walk; the walk waits at its goal wherever that node is
true, so it costs no more than the cost bound charged. Every valid plan of
cost <= xi has each agent home for good by its arrival step, so its nodes
set true and all others false are still a model, and an UNSAT bound still
proves that no plan fits it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cnf
from .cnf import CnfFormula
from .instance import Instance
from .mdd import Mdd, build_all_mdds, cost_slack
from .pathcalc import agent_path_costs
from .plans import CAPACITY, Conflict, Plan

COMPLETE = "complete"
BASIC = "basic"

#: xs[i][t][v]: the vertex variable of node (v, t) of the i-th diagram
VertexVars = list[list[dict[int, int]]]


class EncodingSoundnessError(AssertionError):
    """A model with a true node that no true node leads into, a conflict
    without a clause, or an eager plan that breaks a rule."""


@dataclass
class EncodingArtifacts:
    formula: CnfFormula
    xs: VertexVars


def _allocate_route_vars(formula: CnfFormula, mdds: list[Mdd]) -> VertexVars:
    """One vertex variable per diagram node, allocated level by level."""
    return [[{v: formula.allocate(cnf.var_key_vertex(i, v, t)) for v in level}
             for t, level in enumerate(m.levels)] for i, m in enumerate(mdds)]


def _encode_routes(formula: CnfFormula, instance: Instance, mdds: list[Mdd],
                   xs: VertexVars) -> None:
    """Groups (a)-(b) over vertex variables: endpoint units, and a successor
    and a predecessor clause per diagram node.

    The predecessor clauses x(v,t+1) -> OR x(u,t) over v's diagram arcs give
    every true node past level 0 a true node leading into it, so
    `extract_plan` can walk back from the goal unit to the start unit. The
    successor clauses x(u,t) -> OR x(w,t+1) are not needed for that; they are
    kept because they propagate (without them, eager solves per second on
    16x16 grids with 4 agents fall by about 40%).
    """
    for a, m, x in zip(instance.agents, mdds, xs):
        formula.add([x[0][a.start]])
        formula.add([x[-1][a.goal]])
        for t, arcs in enumerate(m.arcs):
            here, there = x[t], x[t + 1]
            successors: dict[int, list[int]] = {}
            predecessors: dict[int, list[int]] = {}
            for (u, v) in arcs:
                successors.setdefault(u, [-here[u]]).append(there[v])
                predecessors.setdefault(v, [-there[v]]).append(here[u])
            formula.add_all(successors.values())
            formula.add_all(predecessors.values())


def _encode_swaps(formula: CnfFormula, mdds: list[Mdd], xs: VertexVars) -> None:
    """Group (d): no pair of agents crosses an edge in opposite directions.

    One clause -x_i(u,t) | -x_i(v,t+1) | -x_j(v,t) | -x_j(u,t+1) per pair of
    opposite diagram arcs of two agents.
    """
    moves: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
    for i, (m, x) in enumerate(zip(mdds, xs)):
        for t, arcs in enumerate(m.arcs):
            here, there = x[t], x[t + 1]
            for (u, v) in arcs:
                if u != v:
                    moves.setdefault((u, v, t), []).append((i, -here[u], -there[v]))
    for (u, v, t), forward in moves.items():
        backward = moves.get((v, u, t))
        if u > v or backward is None:
            continue
        for i, leave_i, enter_i in forward:
            for j, leave_j, enter_j in backward:
                if i != j:
                    formula.add([leave_i, enter_i, leave_j, enter_j])


def _occupants(xs: VertexVars) -> list[dict[int, list[int]]]:
    """occupants[t][v]: the vertex variables of every agent whose diagram
    holds v at step t, in agent id order, for t up to the longest diagram's
    horizon."""
    occupants: list[dict[int, list[int]]] = [{} for _ in range(max(map(len, xs)))]
    for x in xs:
        for at_t, level in zip(occupants, x):
            for v, var in level.items():
                at_t.setdefault(v, []).append(var)
    return occupants


def _settled(instance: Instance, xs: VertexVars) -> list[dict[int, int]]:
    """settled[t][v]: how many agents are settled at v at step t, that is,
    have v as their goal and a diagram that ended before t."""
    settled: list[dict[int, int]] = [{} for _ in range(max(map(len, xs)))]
    for a, x in zip(instance.agents, xs):
        for at_t in settled[len(x):]:
            at_t[a.goal] = at_t.get(a.goal, 0) + 1
    return settled


def _encode_capacities(
    formula: CnfFormula, instance: Instance, occupants: list[dict[int, list[int]]],
    settled: list[dict[int, int]],
) -> None:
    """Group (e): per vertex and step, at most c(v) occupants. The settled
    agents there are fixed occupants, so they leave room for at most c(v)
    minus their number of the variable ones; with no room left, each of
    those is a unit."""
    caps = instance.capacities
    for at_t, fixed in zip(occupants, settled):
        for v in sorted(at_t):
            xs = at_t[v]
            room = caps[v] - fixed.get(v, 0)
            if len(xs) <= room:
                continue
            if room <= 0:
                formula.add_all([[-x] for x in xs])
            elif room == 1:
                formula.add_all(cnf.at_most_one_pairwise(xs))
            else:
                formula.add_all(cnf.at_most_k(formula, xs, room))


def _encode_no_follow(
    formula: CnfFormula, instance: Instance, mdds: list[Mdd], xs: VertexVars,
    occupants: list[dict[int, list[int]]], settled: list[dict[int, int]],
) -> None:
    """Vacate-before-enter semantics: moving u->v between t and t+1 requires
    at most c(v)-1 other agents at v at departure time. The agents settled
    at v count among them, so they leave room for c(v)-1 minus their number
    of the others with a variable there; with none left, the move is
    forbidden outright."""
    caps = instance.capacities
    for m, x in zip(mdds, xs):
        for t, arcs in enumerate(m.arcs):
            here, there = x[t], x[t + 1]
            for (u, v) in arcs:
                if u == v:
                    continue
                move = [-here[u], -there[v]]
                room = caps[v] - 1 - settled[t].get(v, 0)
                if room < 0:
                    formula.add(move)
                    continue
                own = here.get(v)
                others = [y for y in occupants[t].get(v, ()) if y != own]
                for clause in cnf.at_most_k(formula, others, room):
                    formula.add(clause + move)


def _encode_cost_bound(
    formula: CnfFormula, instance: Instance, agent_costs: list[int], delta: int, xs: VertexVars,
) -> None:
    """Group (f): settled flags over each agent's arrival window plus a
    global bound on extra cost.

    settled_i[t], for c_i <= t <= c_i + delta, means agent i is at its goal
    from step t on. Agent i's diagram ends at its arrival step c_i + delta,
    after which it stays at its goal, so settled_i[c_i + delta] is a unit.
    Each unsettled step of a window spends one unit of the slack: k*delta
    slack literals, at most delta of them true.
    """
    slack_lits: list[int] = []
    for i, (a, c0, x) in enumerate(zip(instance.agents, agent_costs, xs)):
        arrival = c0 + delta
        settled = [formula.allocate((cnf.AUX, f"settled_{i}", t))
                   for t in range(c0, arrival + 1)]
        for t, s in enumerate(settled, start=c0):
            formula.add([-s, x[t][a.goal]])
            if t < arrival:
                formula.add([-s, settled[t - c0 + 1]])
                slack_lits.append(-s)
        formula.add([settled[-1]])
    formula.add_all(cnf.at_most_k(formula, slack_lits, delta))


def _encode(instance: Instance, xi: int, mode: str, conflicts: list[Conflict] | None,
            no_follow: bool) -> EncodingArtifacts:
    agent_costs = agent_path_costs(instance)
    delta = cost_slack(agent_costs, xi)
    mdds = build_all_mdds(instance, delta)
    formula = CnfFormula()
    xs = _allocate_route_vars(formula, mdds)
    _encode_routes(formula, instance, mdds, xs)
    if mode == COMPLETE:
        _encode_swaps(formula, mdds, xs)
        occupants, settled = _occupants(xs), _settled(instance, xs)
        _encode_capacities(formula, instance, occupants, settled)
        if no_follow:
            _encode_no_follow(formula, instance, mdds, xs, occupants, settled)
    else:
        for conflict in conflicts or []:
            clause = conflict_clause(instance, xs, conflict)
            if clause is not None:
                formula.add(clause)
    _encode_cost_bound(formula, instance, agent_costs, delta, xs)
    return EncodingArtifacts(formula, xs)


def conflict_clause(instance: Instance, xs: VertexVars, conflict: Conflict) -> list[int] | None:
    """Elimination clause for a recorded conflict over the vertex variables
    `xs`; None when a node it names is absent from the current diagrams
    (vacuously satisfied), including an agent away from its goal past its
    arrival step. An agent settled at its goal there has no literal: it is
    certainly at that node, so the clause leaves it out.

    A capacity conflict forbids its agents together at (vertex, time); a
    swap conflict forbids i at u then v while j is at v then u.
    """
    t = conflict.time
    if conflict.kind == CAPACITY:
        nodes = [(a, conflict.vertex, t) for a in conflict.agents]
    else:
        i, j = conflict.agents
        u, v = conflict.vertex
        nodes = [(i, u, t), (i, v, t + 1), (j, v, t), (j, u, t + 1)]
    lits = []
    for agent, vertex, step in nodes:
        if step >= len(xs[agent]):  # settled at its goal
            if vertex != instance.agents[agent].goal:
                return None
            continue
        x = xs[agent][step].get(vertex)
        if x is None:
            return None
        lits.append(-x)
    return lits


def encode_complete(instance: Instance, xi: int, no_follow: bool = False) -> EncodingArtifacts:
    """Complete model: satisfiable iff a plan of sum-of-costs <= xi exists."""
    return _encode(instance, xi, COMPLETE, None, no_follow)


def encode_basic(instance: Instance, xi: int,
                 conflicts: list[Conflict] | None = None) -> EncodingArtifacts:
    """Relaxed model: no inter-agent rules beyond the recorded conflicts."""
    return _encode(instance, xi, BASIC, conflicts, False)


def extract_plan(instance: Instance, artifacts: EncodingArtifacts, model: list[bool]) -> Plan:
    """Each agent's path through true nodes, walked back from its goal at its
    arrival step: at step t the agent stays on its vertex v if (v, t) is
    true, and otherwise takes the first true (u, t) with u in v's closed
    neighbourhood, which are the diagram arcs into (v, t+1). Level 0 holds
    only the start. Each path is then padded at its goal up to the longest
    diagram's horizon.

    Staying first keeps the agent at its goal from its first settled step on,
    so it costs no more than the cost bound charged it. Raises
    EncodingSoundnessError when no true node leads into the current one.
    """
    closed = instance.graph.closed_neighbourhoods
    mu = max(map(len, artifacts.xs)) - 1
    paths = []
    for i, (a, x) in enumerate(zip(instance.agents, artifacts.xs)):
        v, path = a.goal, []
        for t in range(len(x) - 1, -1, -1):
            level = x[t]
            var = level.get(v)
            if var is None or not model[var]:
                u = next((u for u in closed[v]
                          if (var := level.get(u)) is not None and model[var]), None)
                if u is None:
                    raise EncodingSoundnessError(
                        f"agent {i}: no true node at step {t} leads on to vertex {v}")
                v = u
            path.append(v)
        paths.append(tuple(reversed(path)) + (a.goal,) * (mu + 1 - len(x)))
    return Plan(tuple(paths))
