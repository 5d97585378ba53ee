"""Translate instances and cost bounds into CNF, and decode models into plans.

Two modes: the complete model posts every movement rule eagerly (swap
prohibition and per-vertex capacity cardinality at every step); the basic
model omits inter-agent rules and instead posts one elimination clause per
previously recorded conflict.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cnf
from .cnf import CnfFormula
from .instance import Instance
from .mdd import Mdd, build_all_mdds, compute_horizon
from .pathcalc import agent_path_costs
from .plans import CAPACITY, Conflict, Plan

COMPLETE = "complete"
BASIC = "basic"


class EncodingSoundnessError(AssertionError):
    """A satisfying model did not decode to exactly one vertex per level."""


@dataclass
class EncodingArtifacts:
    formula: CnfFormula
    mdds: list[Mdd]
    instance: Instance


def _allocate_route_vars(formula: CnfFormula, mdds: list[Mdd]) -> None:
    for m in mdds:
        for t, level in enumerate(m.levels):
            for v in level:
                formula.allocate(cnf.var_key_vertex(m.agent, v, t))
        for t, arcs in enumerate(m.arcs):
            for (u, v) in arcs:
                formula.allocate(cnf.var_key_edge(m.agent, u, v, t))


def _encode_routes(formula: CnfFormula, instance: Instance, mdds: list[Mdd]) -> None:
    """Groups (a)-(c): endpoint units, one outgoing arc per occupied vertex,
    arc endpoint consistency.

    An occupied vertex past level 0 must also have a true incoming arc;
    together with the at-most-one-outgoing clauses this pins each agent to
    exactly one vertex per level, so decoding and the settled-flag cost
    accounting stay sound even on models with unconstrained variables.
    """
    for a, m in zip(instance.agents, mdds):
        formula.add([formula.lookup(cnf.var_key_vertex(a.id, a.start, 0))])
        formula.add([formula.lookup(cnf.var_key_vertex(a.id, a.goal, m.horizon))])
        for t in range(m.horizon):
            outgoing: dict[int, list[int]] = {}
            incoming: dict[int, list[int]] = {}
            for (u, v) in m.arcs[t]:
                e = formula.lookup(cnf.var_key_edge(a.id, u, v, t))
                outgoing.setdefault(u, []).append(e)
                incoming.setdefault(v, []).append(e)
                formula.add([-e, formula.lookup(cnf.var_key_vertex(a.id, u, t))])
                formula.add([-e, formula.lookup(cnf.var_key_vertex(a.id, v, t + 1))])
            for u, edge_vars in outgoing.items():
                x = formula.lookup(cnf.var_key_vertex(a.id, u, t))
                formula.add([-x] + edge_vars)
                formula.add_all(cnf.at_most_one_pairwise(edge_vars))
            for v, edge_vars in incoming.items():
                x = formula.lookup(cnf.var_key_vertex(a.id, v, t + 1))
                formula.add([-x] + edge_vars)


def _encode_swaps(formula: CnfFormula, mdds: list[Mdd]) -> None:
    """Group (d): no pair of agents crosses an edge in opposite directions."""
    moves: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    for m in mdds:
        for t, arcs in enumerate(m.arcs):
            for (u, v) in arcs:
                if u != v:
                    e = formula.lookup(cnf.var_key_edge(m.agent, u, v, t))
                    moves.setdefault((u, v, t), []).append((m.agent, e))
    for (u, v, t), forward in moves.items():
        backward = moves.get((v, u, t))
        if u > v or backward is None:
            continue
        for i, e1 in forward:
            for j, e2 in backward:
                if i != j:
                    formula.add([-e1, -e2])


def _occupants(formula: CnfFormula, mdds: list[Mdd], mu: int) -> list[dict[int, list[int]]]:
    """occupants[t][v]: the vertex variables of every agent whose diagram
    holds v at step t, in agent id order."""
    occupants: list[dict[int, list[int]]] = [{} for _ in range(mu + 1)]
    for m in mdds:
        for t, level in enumerate(m.levels):
            at_t = occupants[t]
            for v in level:
                at_t.setdefault(v, []).append(formula.lookup(cnf.var_key_vertex(m.agent, v, t)))
    return occupants


def _encode_capacities(
    formula: CnfFormula, instance: Instance, occupants: list[dict[int, list[int]]]
) -> None:
    """Group (e): per vertex and step, at most c(v) occupants."""
    caps = instance.capacities
    for at_t in occupants:
        for v in sorted(at_t):
            xs = at_t[v]
            if len(xs) <= caps[v]:
                continue
            if caps[v] == 1:
                formula.add_all(cnf.at_most_one_pairwise(xs))
            else:
                formula.add_all(cnf.at_most_k(formula, xs, caps[v]))


def _encode_no_follow(
    formula: CnfFormula, instance: Instance, mdds: list[Mdd],
    occupants: list[dict[int, list[int]]],
) -> None:
    """Vacate-before-enter semantics: entering v requires at most c(v)-1
    other agents there at departure time."""
    caps = instance.capacities
    for m in mdds:
        for t, arcs in enumerate(m.arcs):
            for (u, v) in arcs:
                if u == v:
                    continue
                e = formula.lookup(cnf.var_key_edge(m.agent, u, v, t))
                own = formula.lookup(cnf.var_key_vertex(m.agent, v, t))
                others = [x for x in occupants[t].get(v, ()) if x != own]
                for clause in cnf.at_most_k(formula, others, caps[v] - 1):
                    formula.add(clause + [-e])


def _encode_cost_bound(
    formula: CnfFormula, instance: Instance, mdds: list[Mdd],
    agent_costs: list[int], delta: int,
) -> None:
    """Group (f): monotone settled flags plus a global bound on extra cost.

    An agent is settled from its final goal arrival on; each unsettled step
    past the agent's shortest-path length spends one unit of the slack.
    """
    mu = mdds[0].horizon if mdds else 0
    slack_lits: list[int] = []
    for a, m, c0 in zip(instance.agents, mdds, agent_costs):
        settled = {
            t: formula.allocate((cnf.AUX, f"settled_{a.id}", t))
            for t in range(c0, mu + 1)
        }
        for t in range(c0, mu + 1):
            formula.add([-settled[t], formula.lookup(cnf.var_key_vertex(a.id, a.goal, t))])
            if t < mu:
                formula.add([-settled[t], settled[t + 1]])
                slack_lits.append(-settled[t])
        formula.add([settled[mu]])
    formula.add_all(cnf.at_most_k(formula, slack_lits, delta))


def _encode(instance: Instance, xi: int, mode: str,
            conflicts: list[Conflict] | None, no_follow: bool) -> EncodingArtifacts:
    agent_costs = agent_path_costs(instance)
    mu = compute_horizon(instance, xi)
    delta = xi - sum(agent_costs)
    mdds = build_all_mdds(instance, mu)
    formula = CnfFormula()
    _allocate_route_vars(formula, mdds)
    _encode_routes(formula, instance, mdds)
    if mode == COMPLETE:
        _encode_swaps(formula, mdds)
        occupants = _occupants(formula, mdds, mu)
        _encode_capacities(formula, instance, occupants)
        if no_follow:
            _encode_no_follow(formula, instance, mdds, occupants)
    else:
        for conflict in conflicts or []:
            clause = conflict_clause(formula, conflict)
            if clause is not None:
                formula.add(clause)
    _encode_cost_bound(formula, instance, mdds, agent_costs, delta)
    return EncodingArtifacts(formula, mdds, instance)


def conflict_clause(formula: CnfFormula, conflict: Conflict) -> list[int] | None:
    """Elimination clause for a recorded conflict; None when any referenced
    variable is absent from the current expansion (vacuously satisfied)."""
    if conflict.kind == CAPACITY:
        lits = []
        for a in conflict.agents:
            x = formula.lookup(cnf.var_key_vertex(a, conflict.vertex, conflict.time))
            if x is None:
                return None
            lits.append(-x)
        return lits
    i, j = conflict.agents
    u, v = conflict.vertex
    e1 = formula.lookup(cnf.var_key_edge(i, u, v, conflict.time))
    e2 = formula.lookup(cnf.var_key_edge(j, v, u, conflict.time))
    if e1 is None or e2 is None:
        return None
    return [-e1, -e2]


def encode_complete(instance: Instance, xi: int, no_follow: bool = False) -> EncodingArtifacts:
    """Complete model: satisfiable iff a plan of sum-of-costs <= xi exists."""
    return _encode(instance, xi, COMPLETE, None, no_follow)


def encode_basic(
    instance: Instance, xi: int, conflicts: list[Conflict] | None = None
) -> EncodingArtifacts:
    """Relaxed model: no inter-agent rules beyond the recorded conflicts."""
    return _encode(instance, xi, BASIC, conflicts, False)


def extract_plan(artifacts: EncodingArtifacts, model: list[bool]) -> Plan:
    """Decode each agent's occupied vertex per level out of a satisfying model."""
    formula = artifacts.formula
    paths = []
    for a, m in zip(artifacts.instance.agents, artifacts.mdds):
        path = []
        for t, level in enumerate(m.levels):
            occupied = [
                v for v in level
                if model[formula.lookup(cnf.var_key_vertex(a.id, v, t))]
            ]
            if len(occupied) != 1:
                raise EncodingSoundnessError(
                    f"agent {a.id} occupies {len(occupied)} vertices at step {t}"
                )
            path.append(occupied[0])
        paths.append(tuple(path))
    return Plan(tuple(paths))
