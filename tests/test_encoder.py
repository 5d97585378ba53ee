import hashlib
import random

import pytest

from capmapf import (
    cost_lower_bound,
    encode_basic,
    encode_complete,
    extract_plan,
    solve,
    validate_plan,
)
from capmapf import brute_force_optimal, cnf, encoder
from capmapf.cnf import AUX, VERTEX, CnfFormula, to_dimacs
from capmapf.encoder import EncodingSoundnessError
from capmapf.mdd import build_all_mdds
from capmapf.pathcalc import UnsolvableInstanceError, agent_path_costs
from capmapf.plans import CAPACITY, Conflict, Plan
from capmapf.satcore import SAT, UNSAT, CdclSolver
from capmapf.solvers import validate_candidate
from capmapf.verify import OPTIMAL

from conftest import grid3x3, make_instance, p3_swap, path_graph


def solve_clauses(clauses):
    solver = CdclSolver()
    for clause in clauses:
        solver.add_clause(clause)
    return solver.solve()


def solve_formula(artifacts):
    return solve_clauses(artifacts.formula.clauses)


def test_single_agent_shortest_path():
    inst = make_instance(path_graph(3), 1, [(0, 2)])
    artifacts = encode_complete(inst, 2)
    result = solve_formula(artifacts)
    assert result.outcome == SAT
    assert extract_plan(inst, artifacts, result.model).paths == ((0, 1, 2),)


def test_swap_unsat_at_every_bound():
    inst = p3_swap()
    for xi in range(4, 9):
        assert solve_formula(encode_complete(inst, xi)).outcome == UNSAT, xi


def test_swap_with_wide_middle_sat():
    inst = p3_swap(middle_capacity=2)
    artifacts = encode_complete(inst, 4)
    result = solve_formula(artifacts)
    assert result.outcome == SAT
    plan = extract_plan(inst, artifacts, result.model)
    assert validate_plan(inst, plan) == []
    assert plan.sum_of_costs <= 4
    # both agents cross through the middle at once
    assert any(plan.paths[0][t] == plan.paths[1][t] == 1 for t in range(plan.makespan + 1))


def test_basic_model_is_a_relaxation():
    inst = p3_swap()  # unsolvable, yet the relaxed model is satisfiable
    artifacts = encode_basic(inst, 4)
    result = solve_formula(artifacts)
    assert result.outcome == SAT
    plan = extract_plan(inst, artifacts, result.model)
    assert validate_plan(inst, plan) != []


def test_basic_model_honors_recorded_conflicts():
    inst = p3_swap()
    conflict = Conflict(CAPACITY, (0, 1), 1, 1)
    artifacts = encode_basic(inst, 6, [conflict])  # slack so agents can dodge
    result = solve_formula(artifacts)
    assert result.outcome == SAT
    plan = extract_plan(inst, artifacts, result.model)
    assert not (plan.paths[0][1] == 1 and plan.paths[1][1] == 1)


def test_conflict_on_absent_variable_skipped():
    inst = make_instance(path_graph(3), 1, [(0, 2)])
    stale = Conflict(CAPACITY, (0,), 0, 2)  # vertex 0 not in level 2 at tight horizon
    artifacts = encode_basic(inst, 2, [stale])
    assert solve_formula(artifacts).outcome == SAT


def test_conflict_past_an_arrival_names_only_the_agents_still_moving():
    # at slack 1 agent 0 is home at vertex 1 by step 2, its arrival step;
    # agent 1 can pass vertex 1 at step 2 or 3
    inst = make_instance(path_graph(4), 1, [(0, 1), (3, 0)])
    xs = encode_basic(inst, cost_lower_bound(inst) + 1).xs
    assert len(xs[0]) == 3 and len(xs[1]) == 5
    # at its arrival step agent 0 still has a literal
    at_arrival = Conflict(CAPACITY, (0, 1), 1, 2)
    assert encoder.conflict_clause(inst, xs, at_arrival) == [-xs[0][2][1], -xs[1][2][1]]
    # after it, agent 0 is settled at its goal and leaves its literal out
    settled_there = Conflict(CAPACITY, (0, 1), 1, 3)
    assert encoder.conflict_clause(inst, xs, settled_there) == [-xs[1][3][1]]
    # and it is nowhere else, so a conflict elsewhere is vacuous
    assert encoder.conflict_clause(inst, xs, Conflict(CAPACITY, (0, 1), 2, 3)) is None


def test_complete_sat_implies_basic_sat(corpus):
    for name, inst in corpus[::9]:
        xi = cost_lower_bound(inst) + 1
        complete = solve_formula(encode_complete(inst, xi)).outcome
        basic = solve_formula(encode_basic(inst, xi)).outcome
        if complete == SAT:
            assert basic == SAT, name


def test_sat_monotone_in_cost_bound(corpus):
    for name, inst in corpus[::13]:
        xi0 = cost_lower_bound(inst)
        outcomes = [
            solve_formula(encode_complete(inst, xi)).outcome for xi in range(xi0, xi0 + 3)
        ]
        for earlier, later in zip(outcomes, outcomes[1:]):
            assert not (earlier == SAT and later == UNSAT), name


def test_uniform_one_capacity_emits_pairwise():
    inst = make_instance(path_graph(3), 1, [(0, 2), (2, 0)])
    artifacts = encode_complete(inst, 4)
    f = artifacts.formula
    expected = set()
    for t in range(len(build_all_mdds(inst, 0)[0].levels)):
        for v in range(3):
            x0 = artifacts.xs[0][t].get(v)
            x1 = artifacts.xs[1][t].get(v)
            if x0 is not None and x1 is not None:
                expected.add(frozenset((-x0, -x1)))
    emitted = {
        frozenset(c) for c in f.clauses
        if len(c) == 2 and all(
            l < 0 and f.key_of(-l)[0] == "X" for l in c
        ) and f.key_of(-c[0])[1] != f.key_of(-c[1])[1]
    }
    assert expected <= emitted


@pytest.mark.parametrize("inst,slack", [
    (p3_swap(), 2),
    (make_instance(grid3x3(), 1, [(0, 8), (8, 0), (2, 6), (4, 1)]), 2),
])
def test_swap_clauses_are_opposite_arc_pairs(inst, slack):
    artifacts = encode_complete(inst, cost_lower_bound(inst) + slack)
    f = artifacts.formula
    mdds = build_all_mdds(inst, slack)

    def x(agent, v, t):
        return artifacts.xs[agent][t].get(v)

    expected = set()
    for i, mi in enumerate(mdds):
        for j, mj in enumerate(mdds):
            if i == j:
                continue
            for t in range(min(len(mi.arcs), len(mj.arcs))):  # a settled agent never moves
                for (u, v) in mi.arcs[t]:
                    if u != v and (v, u) in mj.arcs[t]:
                        expected.add(frozenset((
                            -x(i, u, t), -x(i, v, t + 1),
                            -x(j, v, t), -x(j, u, t + 1),
                        )))

    def crosses(clause):  # one agent at u then v, another at v then u
        if len(clause) != 4 or any(l > 0 for l in clause):
            return False
        keys = [f.key_of(-l) for l in clause]
        if any(k[0] != VERTEX for k in keys):
            return False
        steps = {}
        for _, agent, v, t in keys:
            steps.setdefault(agent, {})[t] = v
        if len(steps) != 2:
            return False
        a, b = steps.values()
        if len(a) != 2 or a.keys() != b.keys():
            return False
        t0, t1 = sorted(a)
        return t1 == t0 + 1 and a[t0] == b[t1] != a[t1] == b[t0]

    emitted = [frozenset(c) for c in f.clauses if crosses(c)]
    assert expected
    assert len(emitted) == len(set(emitted))
    assert set(emitted) == expected


def _diagram_walks(m):
    walks = {(v,) for v in m.levels[0]}
    for arcs in m.arcs:
        walks = {w + (v,) for w in walks for (u, v) in arcs if u == w[-1]}
    return walks


@pytest.mark.parametrize("graph,start,goal", [
    (path_graph(3), 0, 2),
    (path_graph(4), 1, 1),
    (grid3x3(), 0, 8),
    (grid3x3(), 4, 1),
    (grid3x3(), 3, 5),
])
@pytest.mark.parametrize("slack", [0, 1, 2])
def test_route_models_are_exactly_the_diagram_walks(graph, start, goal, slack):
    """Every model of the route group decodes to a diagram walk whose nodes
    are all true; blocking each decoded walk's node set enumerates exactly
    the diagram's mu-step walks; and each walk, set exactly, is a model."""
    inst = make_instance(graph, 1, [(start, goal)])
    m = build_all_mdds(inst, slack)[0]
    formula = CnfFormula()
    route_vars = encoder._allocate_route_vars(formula, [m])
    encoder._encode_routes(formula, inst, [m], route_vars)
    artifacts = encoder.EncodingArtifacts(formula, route_vars)
    x = route_vars[0]
    solver = CdclSolver()
    for clause in formula.clauses:
        solver.add_clause(clause)
    walks = set()
    while (result := solver.solve()).outcome == SAT:
        walk = extract_plan(inst, artifacts, result.model).paths[0]
        assert walk not in walks and all(result.model[x[t][v]] for t, v in enumerate(walk))
        walks.add(walk)
        solver.add_clause([-x[t][v] for t, v in enumerate(walk)])
    assert result.outcome == UNSAT
    assert walks == _diagram_walks(m)
    for walk in walks:
        true = {x[t][v] for t, v in enumerate(walk)}
        assert all(any((l > 0) == (abs(l) in true) for l in clause)
                   for clause in formula.clauses), walk


def test_cost_bound_counts_slack_inside_the_arrival_windows(corpus):
    """With every vertex variable fixed to an oracle-optimal plan (its nodes
    true, all others false), the cost bound admits it at its cost xi* and rejects it at xi* - 1, and each
    agent has delta + 1 settled flags."""
    checked = tight = 0
    for name, inst in corpus:
        oracle = brute_force_optimal(inst, 8)
        if oracle.status != OPTIMAL:
            continue
        costs = agent_path_costs(inst)
        delta = oracle.cost - sum(costs)
        artifacts = encode_complete(inst, oracle.cost)
        f = artifacts.formula
        mdds = build_all_mdds(inst, delta)
        mu = max(len(m.levels) for m in mdds) - 1
        settled = [k for k in map(f.key_of, range(1, f.variable_count + 1))
                   if k[0] == AUX and k[1].startswith("settled_")]
        assert len(settled) == inst.k * (delta + 1), name
        padded = [p + (p[-1],) * (mu + 1 - len(p)) for p in oracle.plan.paths]

        def plan_units(xs):  # every vertex variable fixed: plan nodes true, all others false
            return [[var if p[t] == v else -var]
                    for p, x in zip(padded, xs) for t, level in enumerate(x)
                    for v, var in level.items()]

        assert solve_clauses(f.clauses + plan_units(artifacts.xs)).outcome == SAT, name
        if delta > 0:  # the same diagrams under the bound xi* - 1
            g = CnfFormula()
            route_vars = encoder._allocate_route_vars(g, mdds)
            encoder._encode_routes(g, inst, mdds, route_vars)
            encoder._encode_cost_bound(g, inst, costs, delta - 1, route_vars)
            assert solve_clauses(g.clauses + plan_units(route_vars)).outcome == UNSAT, name
            tight += 1
        checked += 1
    assert checked >= 200 and tight >= 25


def test_extract_walks_back_through_true_nodes_waiting_at_the_goal():
    inst = make_instance(path_graph(3), 1, [(0, 2)])
    artifacts = encode_complete(inst, 3)  # slack 1: horizon 3
    result = solve_formula(artifacts)
    model = list(result.model)
    for level in artifacts.xs[0]:  # every diagram node true
        for var in level.values():
            model[var] = True
    assert extract_plan(inst, artifacts, model).paths == ((0, 1, 2, 2),)


def test_extract_rejects_a_true_node_without_a_true_predecessor():
    inst = make_instance(path_graph(3), 1, [(0, 2)])
    artifacts = encode_complete(inst, 3)
    model = list(solve_formula(artifacts).model)
    for var in artifacts.xs[0][2].values():  # nothing true leads into the goal at step 3
        model[var] = False
    with pytest.raises(EncodingSoundnessError):
        extract_plan(inst, artifacts, model)


@pytest.mark.parametrize("no_follow", [False, True])
def test_decoding_stays_sound_with_extra_true_nodes(corpus, no_follow):
    """Forcing a few diagram nodes off the decoded plan true, wherever the
    formula stays satisfiable, still decodes to a valid plan within the
    bound that uses only true nodes."""
    forced = 0
    for name, inst in corpus:
        try:
            xi0 = cost_lower_bound(inst)
        except UnsolvableInstanceError:
            continue
        rng = random.Random(name)
        for xi in range(xi0, xi0 + 3):
            artifacts = encode_complete(inst, xi, no_follow=no_follow)
            solver = CdclSolver()
            for clause in artifacts.formula.clauses:
                solver.add_clause(clause)
            result = solver.solve()
            if result.outcome != SAT:
                continue
            paths = extract_plan(inst, artifacts, result.model).paths
            off_plan = [var for p, x in zip(paths, artifacts.xs)
                        for t, level in enumerate(x) for v, var in level.items() if p[t] != v]
            for var in rng.sample(off_plan, min(3, len(off_plan))):
                solver.add_clause([var])
            result = solver.solve()
            if result.outcome != SAT:
                continue
            plan = extract_plan(inst, artifacts, result.model)
            assert validate_plan(inst, plan) == [], (name, xi)
            assert plan.sum_of_costs <= xi, (name, xi)
            # true nodes up to each arrival step, the goal after it
            assert all(result.model[x[t][v]] for p, x in zip(plan.paths, artifacts.xs)
                       for t, v in enumerate(p[:len(x)]))
            assert all(set(p[len(x) - 1:]) == {a.goal}
                       for a, p, x in zip(inst.agents, plan.paths, artifacts.xs))
            if no_follow:  # an agent enters only a vertex with room before the move
                for i, p in enumerate(plan.paths):
                    for t in range(plan.makespan):
                        if p[t] != p[t + 1]:
                            there = sum(q[t] == p[t + 1] for q in plan.paths)
                            assert there < inst.capacities[p[t + 1]], (name, xi)
            forced += 1
    assert forced >= 400


def test_decoded_plans_always_validate(corpus):
    for name, inst in corpus[::7]:
        xi0 = cost_lower_bound(inst)
        for xi in (xi0, xi0 + 2):
            artifacts = encode_complete(inst, xi)
            result = solve_formula(artifacts)
            if result.outcome == SAT:
                plan = extract_plan(inst, artifacts, result.model)
                assert validate_plan(inst, plan) == [], name
                assert plan.sum_of_costs <= xi, name


def test_no_follow_forbids_train_moves():
    from capmapf.solvers import EAGER, Limits

    inst = make_instance(path_graph(3), 1, [(0, 1), (1, 2)])
    default = solve(inst, EAGER, Limits(time_limit_s=10))
    strict = solve(inst, EAGER, Limits(time_limit_s=10), no_follow=True)
    assert default.optimal_cost == 2  # simultaneous shift is a legal follow move
    assert strict.optimal_cost == 3  # target vertex must have spare room beforehand


def test_no_follow_generalizes_with_capacity():
    inst = make_instance(path_graph(3), [1, 2, 1], [(0, 1), (1, 2)])
    from capmapf.solvers import EAGER, Limits

    # middle holds 2, so moving into it beside the current occupant is fine
    strict = solve(inst, EAGER, Limits(time_limit_s=10), no_follow=True)
    assert strict.optimal_cost == 2


def _scanned_encoding(inst, mdds, xi, no_follow):
    """The complete encoding of the same diagrams with the capacity and
    no-follow groups found by probing every (step, vertex, agent) node: an
    agent whose diagram ended before the step is a fixed occupant of its goal."""
    formula = CnfFormula()
    route_vars = encoder._allocate_route_vars(formula, mdds)
    encoder._encode_routes(formula, inst, mdds, route_vars)
    encoder._encode_swaps(formula, mdds, route_vars)
    mu, caps = max(len(m.levels) for m in mdds) - 1, inst.capacities

    def occupants(v, t, skip=None):
        return [x for i in range(inst.k) if i != skip and t < len(route_vars[i])
                if (x := route_vars[i][t].get(v)) is not None]

    def settled(v, t):
        return sum(t >= len(x) and a.goal == v for a, x in zip(inst.agents, route_vars))

    for t in range(mu + 1):
        for v in range(inst.graph.vertex_count):
            xs = occupants(v, t)
            room = caps[v] - settled(v, t)
            if len(xs) > room:
                if room == 0:
                    formula.add_all([[-x] for x in xs])
                elif room == 1:
                    formula.add_all(cnf.at_most_one_pairwise(xs))
                else:
                    formula.add_all(cnf.at_most_k(formula, xs, room))
    if no_follow:
        for i, m in enumerate(mdds):
            for t, arcs in enumerate(m.arcs):
                for (u, v) in arcs:
                    if u != v:
                        move = [-route_vars[i][t][u],
                                -route_vars[i][t + 1][v]]
                        room = caps[v] - 1 - settled(v, t)
                        if room < 0:
                            formula.add(move)
                            continue
                        for clause in cnf.at_most_k(formula, occupants(v, t, i), room):
                            formula.add(clause + move)
    costs = agent_path_costs(inst)
    encoder._encode_cost_bound(formula, inst, costs, xi - sum(costs), route_vars)
    return formula


@pytest.mark.parametrize("no_follow", [False, True])
def test_occupant_index_matches_full_scan(corpus, no_follow):
    checked = 0
    for name, inst in corpus[::3]:
        xi0 = cost_lower_bound(inst)
        for xi in (xi0, xi0 + 2):
            artifacts = encode_complete(inst, xi, no_follow=no_follow)
            mdds = build_all_mdds(inst, xi - xi0)
            expected = _scanned_encoding(inst, mdds, xi, no_follow)
            assert to_dimacs(artifacts.formula) == to_dimacs(expected), (name, xi)
            checked += 1
    assert checked >= 100


# sha256 over the DIMACS text of every encoding below. Any change to the
# variable numbering, the clauses or their order changes it, so a change
# meant to keep the encoding must reproduce it. No search runs to build its
# input, so a change confined to the SAT core leaves it alone.
ENCODING_DIGEST = "5d8dc35b992df2b9355b0c2919cd4a212393c8e061a9e0114a9ee3db7f877a03"


def _shortest_path_plan(inst):
    """Each agent's BFS shortest path, taking the lowest-id vertex one step
    nearer its goal at every step, padded at its goal to a common length."""
    paths = []
    for a, (_, to_goal) in zip(inst.agents, inst.distances):
        path = [a.start]
        while path[-1] != a.goal:
            here = path[-1]
            path.append(min(u for u in inst.graph.adjacency[here]
                            if to_goal[u] == to_goal[here] - 1))
        paths.append(path)
    mu = max(map(len, paths))
    return Plan(tuple(tuple(p + [p[-1]] * (mu - len(p))) for p in paths))


def test_encodings_match_pinned_digest(corpus):
    """The complete model with and without no-follow and the basic model
    with the conflicts of a fixed shortest-path plan, over the corpus at
    slack 0-2, reproduce a pinned digest of their DIMACS text."""
    digest = hashlib.sha256()
    encodings = with_conflicts = 0
    for name, inst in corpus:
        try:
            xi0 = cost_lower_bound(inst)
        except UnsolvableInstanceError:
            continue
        conflicts = validate_candidate(inst, _shortest_path_plan(inst))
        with_conflicts += bool(conflicts)
        for xi in range(xi0, xi0 + 3):
            for artifacts in (encode_complete(inst, xi),
                              encode_complete(inst, xi, no_follow=True),
                              encode_basic(inst, xi, conflicts)):
                digest.update(f"{name} {xi}\n".encode())
                digest.update(to_dimacs(artifacts.formula).encode())
                encodings += 1
    assert encodings >= 2000 and with_conflicts >= 50
    assert digest.hexdigest() == ENCODING_DIGEST
