import pytest

from capmapf import (
    cost_lower_bound,
    encode_basic,
    encode_complete,
    extract_plan,
    validate_plan,
)
from capmapf import cnf, encoder
from capmapf.cnf import EDGE, CnfFormula, to_dimacs, var_key_edge, var_key_vertex
from capmapf.encoder import EncodingSoundnessError
from capmapf.pathcalc import agent_path_costs
from capmapf.plans import CAPACITY, Conflict
from capmapf.satcore import SAT, UNSAT, CdclSolver

from conftest import grid3x3, make_instance, p3_swap, path_graph


def solve_formula(artifacts):
    solver = CdclSolver()
    for clause in artifacts.formula.clauses:
        solver.add_clause(clause)
    return solver.solve()


def test_single_agent_shortest_path():
    inst = make_instance(path_graph(3), 1, [(0, 2)])
    artifacts = encode_complete(inst, 2)
    result = solve_formula(artifacts)
    assert result.outcome == SAT
    assert extract_plan(artifacts, result.model).paths == ((0, 1, 2),)


def test_swap_unsat_at_every_bound():
    inst = p3_swap()
    for xi in range(4, 9):
        assert solve_formula(encode_complete(inst, xi)).outcome == UNSAT, xi


def test_swap_with_wide_middle_sat():
    inst = p3_swap(middle_capacity=2)
    artifacts = encode_complete(inst, 4)
    result = solve_formula(artifacts)
    assert result.outcome == SAT
    plan = extract_plan(artifacts, result.model)
    assert validate_plan(inst, plan) == []
    assert plan.sum_of_costs <= 4
    # both agents cross through the middle at once
    assert any(plan.paths[0][t] == plan.paths[1][t] == 1 for t in range(plan.makespan + 1))


def test_basic_model_is_a_relaxation():
    inst = p3_swap()  # unsolvable, yet the relaxed model is satisfiable
    artifacts = encode_basic(inst, 4)
    result = solve_formula(artifacts)
    assert result.outcome == SAT
    plan = extract_plan(artifacts, result.model)
    assert validate_plan(inst, plan) != []


def test_basic_model_honors_recorded_conflicts():
    inst = p3_swap()
    conflict = Conflict(CAPACITY, (0, 1), 1, 1)
    artifacts = encode_basic(inst, 6, [conflict])  # slack so agents can dodge
    result = solve_formula(artifacts)
    assert result.outcome == SAT
    plan = extract_plan(artifacts, result.model)
    assert not (plan.paths[0][1] == 1 and plan.paths[1][1] == 1)


def test_conflict_on_absent_variable_skipped():
    inst = make_instance(path_graph(3), 1, [(0, 2)])
    stale = Conflict(CAPACITY, (0,), 0, 2)  # vertex 0 not in level 2 at tight horizon
    artifacts = encode_basic(inst, 2, [stale])
    assert solve_formula(artifacts).outcome == SAT


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
    for t in range(artifacts.mdds[0].horizon + 1):
        for v in range(3):
            x0 = f.lookup(var_key_vertex(0, v, t))
            x1 = f.lookup(var_key_vertex(1, v, t))
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
    expected = set()
    for mi in artifacts.mdds:
        for mj in artifacts.mdds:
            if mi.agent == mj.agent:
                continue
            for t in range(artifacts.mdds[0].horizon):
                for (u, v) in mi.arcs[t]:
                    if u != v and (v, u) in mj.arcs[t]:
                        expected.add(frozenset((
                            -f.lookup(var_key_edge(mi.agent, u, v, t)),
                            -f.lookup(var_key_edge(mj.agent, v, u, t)),
                        )))

    def crosses(clause):  # two negated moves along one edge in opposite directions
        if len(clause) != 2 or any(l > 0 for l in clause):
            return False
        a, b = (f.key_of(-l) for l in clause)
        return a[0] == b[0] == EDGE and a[2] != a[3] and (a[2], a[3], a[4]) == (b[3], b[2], b[4])

    emitted = [frozenset(c) for c in f.clauses if crosses(c)]
    assert expected
    assert len(emitted) == len(set(emitted))
    assert set(emitted) == expected


def test_extract_rejects_ambiguous_model():
    inst = make_instance(path_graph(3), 1, [(0, 2)])
    artifacts = encode_complete(inst, 3)
    result = solve_formula(artifacts)
    model = list(result.model)
    f = artifacts.formula
    for v in (0, 1):  # force two occupied vertices at level 1
        model[f.lookup(var_key_vertex(0, v, 1))] = True
    with pytest.raises(EncodingSoundnessError):
        extract_plan(artifacts, model)


def test_decoded_plans_always_validate(corpus):
    for name, inst in corpus[::7]:
        xi0 = cost_lower_bound(inst)
        for xi in (xi0, xi0 + 2):
            artifacts = encode_complete(inst, xi)
            result = solve_formula(artifacts)
            if result.outcome == SAT:
                plan = extract_plan(artifacts, result.model)
                assert validate_plan(inst, plan) == [], name
                assert plan.sum_of_costs <= xi, name


def test_no_follow_forbids_train_moves():
    from capmapf import solve_eager
    from capmapf.solvers import Limits

    inst = make_instance(path_graph(3), 1, [(0, 1), (1, 2)])
    default = solve_eager(inst, Limits(time_limit_s=10))
    strict = solve_eager(inst, Limits(time_limit_s=10), no_follow=True)
    assert default.optimal_cost == 2  # simultaneous shift is a legal follow move
    assert strict.optimal_cost == 3  # target vertex must have spare room beforehand


def test_no_follow_generalizes_with_capacity():
    inst = make_instance(path_graph(3), [1, 2, 1], [(0, 1), (1, 2)])
    from capmapf import solve_eager
    from capmapf.solvers import Limits

    # middle holds 2, so moving into it beside the current occupant is fine
    strict = solve_eager(inst, Limits(time_limit_s=10), no_follow=True)
    assert strict.optimal_cost == 2


def _scanned_encoding(inst, mdds, xi, no_follow):
    """The complete encoding of the same diagrams with the capacity and
    no-follow groups found by probing every (step, vertex, agent) key."""
    formula = CnfFormula()
    encoder._allocate_route_vars(formula, mdds)
    encoder._encode_routes(formula, inst, mdds)
    encoder._encode_swaps(formula, mdds)
    mu, caps = mdds[0].horizon, inst.capacities

    def occupants(v, t, skip=None):
        return [x for i in range(inst.k) if i != skip
                if (x := formula.lookup(var_key_vertex(i, v, t))) is not None]

    for t in range(mu + 1):
        for v in range(inst.graph.vertex_count):
            xs = occupants(v, t)
            if len(xs) > caps[v]:
                if caps[v] == 1:
                    formula.add_all(cnf.at_most_one_pairwise(xs))
                else:
                    formula.add_all(cnf.at_most_k(formula, xs, caps[v]))
    if no_follow:
        for m in mdds:
            for t, arcs in enumerate(m.arcs):
                for (u, v) in arcs:
                    if u != v:
                        e = formula.lookup(var_key_edge(m.agent, u, v, t))
                        for clause in cnf.at_most_k(formula, occupants(v, t, m.agent), caps[v] - 1):
                            formula.add(clause + [-e])
    costs = agent_path_costs(inst)
    encoder._encode_cost_bound(formula, inst, mdds, costs, xi - sum(costs))
    return formula


@pytest.mark.parametrize("no_follow", [False, True])
def test_occupant_index_matches_full_scan(corpus, no_follow):
    checked = 0
    for name, inst in corpus[::3]:
        xi0 = cost_lower_bound(inst)
        for xi in (xi0, xi0 + 2):
            artifacts = encode_complete(inst, xi, no_follow=no_follow)
            expected = _scanned_encoding(inst, artifacts.mdds, xi, no_follow)
            assert to_dimacs(artifacts.formula) == to_dimacs(expected), (name, xi)
            checked += 1
    assert checked >= 100
