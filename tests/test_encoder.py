import hashlib
import itertools
import random
from functools import partial

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
from capmapf.cnf import to_dimacs
from capmapf.encoder import EncodingSoundnessError, variable_labels
from capmapf.mdd import build_all_mdds
from capmapf.pathcalc import UnsolvableInstanceError, agent_path_costs, shortest_path_plan
from capmapf.plans import CAPACITY, SWAP, Conflict, Plan
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


def encode_refined(inst, xi, conflicts):
    """A standalone basic encoding with `refine`'s clauses for `conflicts`
    posted after it, relabelled for the counters `refine` allocated."""
    artifacts = encode_basic(inst, xi)
    artifacts.formula.add_all(encoder.refine(artifacts, conflicts))
    artifacts.formula.labels = variable_labels(artifacts)
    return artifacts


def test_basic_model_honors_recorded_conflicts():
    inst = p3_swap()
    conflict = Conflict(CAPACITY, (0, 1), 1, 1)
    artifacts = encode_refined(inst, 6, [conflict])  # slack so agents can dodge
    result = solve_formula(artifacts)
    assert result.outcome == SAT
    plan = extract_plan(inst, artifacts, result.model)
    assert not (plan.paths[0][1] == 1 and plan.paths[1][1] == 1)


def test_refine_posts_a_vertex_group_once_per_call():
    """Two capacity conflicts at one vertex post its group once, and the
    clauses come in the conflicts' order."""
    inst = p3_swap()  # at slack 1, agent 0 can step 0 -> 1 as agent 1 steps 1 -> 0
    artifacts = encode_basic(inst, 5)
    group = encoder.capacity_group(encode_basic(inst, 5), 1)
    swap = Conflict(SWAP, (0, 1), (0, 1), 1)
    clauses = encoder.refine(artifacts, [swap, Conflict(CAPACITY, (0, 1), 1, 1),
                                         Conflict(CAPACITY, (0, 1), 1, 2)])
    assert group and clauses == [encoder.conflict_clause(artifacts.xs, swap)] + group
    assert artifacts.grouped == {1}


def test_refine_of_no_conflict_posts_nothing():
    inst = p3_swap()
    for artifacts in (encode_basic(inst, 4), encode_complete(inst, 4)):
        variables = artifacts.formula.variable_count
        assert encoder.refine(artifacts, []) == []
        assert artifacts.formula.variable_count == variables


def test_refine_rejects_a_conflict_against_a_posted_rule():
    """`refine` rejects a conflict against a group posted before the call,
    group by group: the complete model, with or without no-follow, posts
    every swap and capacity group up front, and the basic model a vertex's
    group once. A basic encoding with a group still maps a swap conflict to
    its clause, since it posts no swap rule."""
    inst = p3_swap()
    swap = Conflict(SWAP, (0, 1), (0, 1), 1)
    for complete in (encode_complete(inst, 5), encode_complete(inst, 5, no_follow=True)):
        for conflict in (Conflict(CAPACITY, (0, 1), 1, 1), swap):
            with pytest.raises(EncodingSoundnessError, match="posted rule"):
                encoder.refine(complete, [conflict])
    basic = encode_basic(inst, 5)
    assert encoder.refine(basic, [Conflict(CAPACITY, (0, 1), 1, 1)])
    with pytest.raises(EncodingSoundnessError, match="posted rule"):
        encoder.refine(basic, [Conflict(CAPACITY, (0, 1), 1, 2)])
    clause = encoder.conflict_clause(basic.xs, swap)
    assert basic.grouped == {1} and clause and encoder.refine(basic, [swap]) == [clause]


def test_encodings_of_the_other_model_are_rejected():
    """`onto` must be an encoding of the function's own model, only the
    complete model encodes no-follow, and no other model label is taken."""
    inst = p3_swap()
    with pytest.raises(ValueError, match="not a complete encoding"):
        encode_complete(inst, 4, onto=encoder.Encoding(inst, encoder.BASIC))
    with pytest.raises(ValueError, match="not a basic encoding"):
        encode_basic(inst, 4, onto=encoder.Encoding(inst, encoder.COMPLETE))
    with pytest.raises(ValueError, match="no-follow"):
        encoder.Encoding(inst, encoder.BASIC, no_follow=True)
    with pytest.raises(ValueError, match="unknown model 'eager'"):
        encoder.Encoding(inst, "eager")


def test_refine_rejects_a_fresh_conflict_without_a_clause():
    # vertex 0 is not on level 2 at the tight bound, so no group bounds it
    # there; a settled agent crosses no edge, so no swap clause names it
    inst = make_instance(path_graph(3), 1, [(0, 2)])
    with pytest.raises(EncodingSoundnessError, match="fresh conflict"):
        encoder.refine(encode_basic(inst, 2), [Conflict(CAPACITY, (0,), 0, 2)])
    inst = make_instance(path_graph(4), 1, [(0, 1), (3, 0)])
    with pytest.raises(EncodingSoundnessError, match="fresh conflict"):
        encoder.refine(encode_basic(inst, cost_lower_bound(inst) + 1),
                       [Conflict(SWAP, (0, 1), (1, 2), 2)])


def test_capacity_group_past_an_arrival_fixes_the_settled_agent():
    # at slack 1 agent 0 is home at vertex 1 by step 2, its arrival step;
    # agent 1 can pass vertex 1 at step 2 or 3
    inst = make_instance(path_graph(4), 1, [(0, 1), (3, 0)])
    artifacts = encode_basic(inst, cost_lower_bound(inst) + 1)
    xs = artifacts.xs
    assert len(xs[0]) == 3 and len(xs[1]) == 5
    variables = artifacts.formula.variable_count
    # at its arrival step agent 0 still has a node; after it, agent 0 is
    # settled at its goal and its settled flag for step 3 counts it there
    settled_at_3 = artifacts.settled[0][3 - 1]  # agent 0's flags start at its c_0 = 1
    assert encoder.capacity_group(artifacts, 1) == [[-xs[0][2][1], -xs[1][2][1]],
                                                   [-settled_at_3, -xs[1][3][1]]]
    # agent 0 is never at vertex 2, so agent 1 is alone there: nothing to post
    assert encoder.capacity_group(artifacts, 2) == []
    assert artifacts.formula.variable_count == variables


def test_swap_clause_past_an_arrival_is_vacuous():
    # agent 0 is home at vertex 1 from step 2 on, so it crosses no edge
    # after that step; a swap that names it there has no clause
    inst = make_instance(path_graph(4), 1, [(0, 1), (3, 0)])
    xs = encode_basic(inst, cost_lower_bound(inst) + 1).xs
    assert encoder.conflict_clause(xs, Conflict(SWAP, (0, 1), (1, 2), 2)) is None


def test_capacity_groups_are_clauses_of_the_complete_model(corpus):
    """Over the unit-capacity corpus, every clause of every vertex's group
    is one the complete model posts: both number the vertex variables
    alike, and a group is group (e) at one vertex. That holds for
    standalone encodings at slack 1, and for encodings grown bound by bound
    to slack 2, whose occupants are listed in the order they joined."""
    checked = 0
    for name, inst in corpus[::5]:
        try:
            xi0 = cost_lower_bound(inst)
        except UnsolvableInstanceError:
            continue
        if any(c > 1 for c in inst.capacities.values):
            continue  # room >= 2 uses a counter, whose numbering differs
        grown_complete = encoder.Encoding(inst, encoder.COMPLETE)
        grown_basic = encoder.Encoding(inst, encoder.BASIC)
        posted = []
        for xi in range(xi0, xi0 + 3):
            posted += encode_complete(inst, xi, onto=grown_complete).formula.clauses
            encode_basic(inst, xi, onto=grown_basic)
        for complete, basic in ((encode_complete(inst, xi0 + 1).formula.clauses,
                                 encode_basic(inst, xi0 + 1)), (posted, grown_basic)):
            groups = [clause for v in range(inst.graph.vertex_count)
                      for clause in encoder.capacity_group(basic, v)]
            in_complete = {tuple(c) for c in complete}
            assert all(tuple(c) in in_complete for c in groups), name
            checked += bool(groups)
    assert checked >= 10


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
    labels = variable_labels(artifacts)
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
            l < 0 and labels[-l - 1][0] == "X" for l in c
        ) and labels[-c[0] - 1][1] != labels[-c[1] - 1][1]
    }
    assert expected <= emitted


@pytest.mark.parametrize("inst,slack", [
    (p3_swap(), 2),
    (make_instance(grid3x3(), 1, [(0, 8), (8, 0), (2, 6), (4, 1)]), 2),
])
def test_swap_clauses_are_opposite_arc_pairs(inst, slack):
    artifacts = encode_complete(inst, cost_lower_bound(inst) + slack)
    f = artifacts.formula
    labels = variable_labels(artifacts)
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
        keys = [labels[-l - 1] for l in clause]
        if any(k[0] != "X" for k in keys):
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
    artifacts = encoder.Encoding(inst, encoder.BASIC)
    formula, route_vars = artifacts.formula, artifacts.xs
    encoder._allocate_route_vars(formula, [m], route_vars)
    encoder._encode_routes(formula, inst, [m], route_vars)
    x = route_vars[0]
    formula.add([x[-1][goal]])  # the arrival step's settled flag sets the goal in an encoding
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


def _false_units(encoding, true):
    """A negative unit for every vertex variable not in `true`."""
    true = set(true)
    return [[-var] for x in encoding.xs for level in x for var in level.values()
            if var not in true]


def test_plan_literals_put_an_optimal_plan_on_the_diagrams(corpus):
    """An oracle-optimal plan's literals, with every other vertex variable
    false, satisfy the complete encoding at its cost xi*, and `extract_plan`
    decodes the model back to the plan padded to the horizon."""
    checked = 0
    for name, inst in corpus:
        oracle = brute_force_optimal(inst, 8)
        if oracle.status != OPTIMAL:
            continue
        encoding = encode_complete(inst, oracle.cost)
        true = encoding.plan_literals(oracle.plan)
        result = solve_clauses(encoding.formula.clauses + [[lit] for lit in true]
                               + _false_units(encoding, true))
        assert result.outcome == SAT, name
        mu = max(map(len, encoding.xs)) - 1
        padded = tuple(p + (p[-1],) * (mu + 1 - len(p)) for p in oracle.plan.paths)
        assert extract_plan(inst, encoding, result.model).paths == padded, name
        checked += 1
    assert checked >= 200


def test_plan_literals_reject_a_plan_past_the_grown_slack():
    """A plan that costs more than the grown slack allows has a node
    outside the diagrams."""
    inst = make_instance(path_graph(3), 1, [(0, 2)])
    encoding = encode_complete(inst, 2)
    assert encoding.plan_literals(Plan(((0, 1, 2),))) == [
        encoding.xs[0][t][v] for t, v in enumerate((0, 1, 2))] + encoding.settled[0]
    with pytest.raises(KeyError):
        encoding.plan_literals(Plan(((0, 0, 1, 2),)))


def test_cost_bound_counts_slack_inside_the_arrival_windows(corpus):
    """With every vertex variable fixed to an oracle-optimal plan (its nodes
    true, all others false), the cost bound admits it at its cost xi* and
    rejects it at xi* - 1, and each agent has settled flags from its c_i out
    to the horizon."""
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
        settled = [k for k in variable_labels(artifacts)
                   if k[0] == "aux" and k[1].startswith("settled_")]
        assert len(settled) == sum(mu + 1 - c for c in costs), name

        def plan_units(encoding):  # every vertex variable fixed: plan nodes true, all others false
            true = encoding.plan_literals(oracle.plan)
            return [[lit] for lit in true] + _false_units(encoding, true)

        assert solve_clauses(f.clauses + plan_units(artifacts)).outcome == SAT, name
        if delta > 0:  # the same encoding held to the bound xi* - 1
            grown = encoder.Encoding(inst, encoder.COMPLETE)
            grown.grow(delta)
            units = [[lit] for lit in grown.bound_literals(delta - 1)]
            clauses = grown.formula.clauses + units + plan_units(grown)
            assert solve_clauses(clauses).outcome == UNSAT, name
            tight += 1
        checked += 1
    assert checked >= 200 and tight >= 25


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("delta", [0, 1, 2, 3])
def test_cost_bound_admits_exactly_the_delays_within_the_slack(k, delta):
    """Grown one slack at a time, at each slack d up to delta and with each
    agent's settled flags fixed to every delay vector in {0..d}^k, the
    encoding under its bound literals is SAT exactly when the delays sum to
    at most d. The register has d + 1 running-sum bits per agent after the
    first, and each agent settled flags from c_i out to the horizon."""
    inst = make_instance(path_graph(6), 5, [(0, i + 1) for i in range(k)])  # c_i = i + 1
    encoding = encoder.Encoding(inst, encoder.BASIC)
    clauses = []
    for d in range(delta + 1):
        encoding.grow(d)
        clauses += encoding.formula.clauses
        labels = variable_labels(encoding)
        assert sum(key[1].startswith("sum_") for key in labels if key[0] == "aux") == (k - 1) * (d + 1)
        assert [len(flags) for flags in encoding.settled] == [k + d - i for i in range(k)]
        bound = [[lit] for lit in encoding.bound_literals(d)]
        for delays in itertools.product(range(d + 1), repeat=k):
            units = [[flag if t >= n else -flag]  # flags[t] is step c_i + t: home for good from c_i + n
                     for flags, n in zip(encoding.settled, delays) for t, flag in enumerate(flags)]
            outcome = solve_clauses(clauses + bound + units).outcome
            assert outcome == (SAT if sum(delays) <= d else UNSAT), (d, delays)


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


def _scanned_occupants(inst, encoding, v, t, skip=None):
    """The literals that count the agents at (v, t), found by probing every
    agent of `encoding`, in id order, but the agent `skip`: its node where
    its diagram reaches step t, and otherwise, past its arrival step, its
    settled flag if v is its goal."""
    found = []
    for i, (a, c, x, flags) in enumerate(zip(inst.agents, encoding.costs, encoding.xs,
                                             encoding.settled)):
        if t < len(x):
            if i != skip and (var := x[t].get(v)) is not None:
                found.append(var)
        elif a.goal == v:
            found.append(flags[t - c])  # flags start at c_i
    return found


def _scanned_encoding(inst, delta, no_follow):
    """The complete encoding at slack delta with the swap, capacity and
    no-follow groups found by probing every (step, vertex, agent) node of
    the full diagrams: an agent whose diagram ended before the step counts
    by its settled flag at its goal. The routes, settled flags and cost
    register come from a basic encoding, which numbers them alike."""
    base = encoder.Encoding(inst, encoder.BASIC)
    base.grow(delta)
    formula, xs = base.formula, base.xs
    mdds = build_all_mdds(inst, delta)
    mu, caps = max(len(m.levels) for m in mdds) - 1, inst.capacities
    for i, mi in enumerate(mdds):
        for j, mj in enumerate(mdds[:i]):
            for t in range(min(len(mi.arcs), len(mj.arcs))):
                for (u, v) in mi.arcs[t]:
                    if u != v and (v, u) in mj.arcs[t]:
                        formula.add([-xs[i][t][u], -xs[i][t + 1][v], -xs[j][t][v], -xs[j][t + 1][u]])

    occupants = partial(_scanned_occupants, inst, base)
    for t in range(mu + 1):
        for v in range(inst.graph.vertex_count):
            lits = occupants(v, t)
            if len(lits) > caps[v]:
                if caps[v] == 1:
                    formula.add_all(cnf.at_most_one_pairwise(lits))
                else:
                    formula.add_all(cnf.at_most_k(formula, lits, caps[v]))
    if no_follow:
        for t in range(mu):
            for v in range(inst.graph.vertex_count):
                for i, m in enumerate(mdds):
                    if t >= len(m.arcs):
                        continue
                    for (u, w) in m.arcs[t]:
                        if w == v and u != v:
                            move = [-xs[i][t][u], -xs[i][t + 1][v]]
                            for clause in cnf.at_most_k(formula, occupants(v, t, i), caps[v] - 1):
                                formula.add(clause + move)
    formula.add_all([[lit] for lit in base.bound_literals(delta)])
    return formula


@pytest.mark.parametrize("no_follow", [False, True])
def test_occupant_index_matches_full_scan(corpus, no_follow):
    checked = 0
    for name, inst in corpus[::3]:
        xi0 = cost_lower_bound(inst)
        for xi in (xi0, xi0 + 2):
            artifacts = encode_complete(inst, xi, no_follow=no_follow)
            expected = _scanned_encoding(inst, xi - xi0, no_follow)
            assert artifacts.formula.variable_count == expected.variable_count, (name, xi)
            assert sorted(artifacts.formula.clauses) == sorted(expected.clauses), (name, xi)
            checked += 1
    assert checked >= 100


@pytest.mark.parametrize("mode", [encoder.COMPLETE, encoder.BASIC])
def test_occupant_index_holds_every_agent_at_every_step(corpus, mode):
    """In both models, grown slack by slack from 0 to 3 and in one step to
    slack 3, `occupants[t][v]` holds at every (v, t) exactly the literals a
    scan of every agent finds there, as a multiset: the basic model keeps
    the index where no group is posted yet, for a group to read."""
    checked = 0
    for name, inst in corpus[::3]:
        try:
            cost_lower_bound(inst)
        except UnsolvableInstanceError:
            continue
        stepwise, at_once = encoder.Encoding(inst, mode), encoder.Encoding(inst, mode)
        at_once.grow(3)
        for delta in range(4):
            stepwise.grow(delta)
            for encoding in (stepwise, at_once) if delta == 3 else (stepwise,):
                for t, at_t in enumerate(encoding.occupants):
                    for v in range(inst.graph.vertex_count):
                        assert (sorted(at_t.get(v, [])) ==
                                sorted(_scanned_occupants(inst, encoding, v, t))), (name, delta, t, v)
        checked += 1
    assert checked >= 75


def test_complete_model_attains_a_clean_root_at_the_lower_bound(corpus):
    """Wherever the root plan is clean, so that a solve encodes no bound,
    the complete model at the lower bound is satisfiable and decodes to a
    valid plan at that cost: the encoder keeps its coverage at xi_0."""
    checked = 0
    for name, inst in corpus:
        try:
            xi0 = cost_lower_bound(inst)
        except UnsolvableInstanceError:
            continue
        if validate_candidate(inst, inst.root_plan):
            continue
        artifacts = encode_complete(inst, xi0)
        result = solve_formula(artifacts)
        assert result.outcome == SAT, name
        plan = extract_plan(inst, artifacts, result.model)
        assert validate_plan(inst, plan) == [] and plan.sum_of_costs == xi0, name
        checked += 1
    assert checked >= 150


def _grown_outcomes(inst, mode, no_follow, xis, conflicts=()):
    """Each bound's answer from one encoding grown bound by bound and one
    SAT solver under the bound's literals; `refine`'s clauses for the
    conflicts are posted once, at the first bound."""
    encoding = encoder.Encoding(inst, mode, no_follow)
    solver = CdclSolver()
    outcomes = []
    for xi in xis:
        if mode == encoder.COMPLETE:
            encode_complete(inst, xi, no_follow, onto=encoding)
        else:
            encode_basic(inst, xi, onto=encoding)
        clauses = list(encoding.formula.clauses)
        if xi == xis[0]:
            clauses += encoder.refine(encoding, conflicts)
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.solve(assumptions=encoding.bound_literals(encoding.delta))
        assert not solver.contradiction
        if result.outcome == SAT:
            plan = extract_plan(inst, encoding, result.model)
            assert plan.sum_of_costs <= xi
            if mode == encoder.COMPLETE:
                assert validate_plan(inst, plan) == []
        outcomes.append(result.outcome)
    return outcomes


def _with_capacity(inst, c):
    from capmapf import CapacityMap, Instance

    return Instance(inst.graph, CapacityMap.uniform(inst.graph, c), inst.agents)


def test_grown_encoding_agrees_with_standalone_and_oracle(corpus):
    """At every bound from xi_0 up to the optimum (or three bounds, where
    the oracle finds no plan), at capacities 1-3: the complete encoding
    grown bound by bound answers as a standalone `encode_complete` and as
    the oracle, with and without no-follow the grown and standalone answers
    agree, and the basic encoding grown with the groups and clauses of the
    root's conflicts answers as a standalone `encode_basic` with them."""
    checked = 0
    cases = [(name, inst) for name, inst in corpus[::2]]
    cases += [(name + "-as-c3", _with_capacity(inst, 3)) for name, inst in corpus[::4]
              if "-c1-" in name]
    for name, inst in cases:
        try:
            xi0 = cost_lower_bound(inst)
        except UnsolvableInstanceError:
            continue
        oracle = brute_force_optimal(inst, 8)
        last = oracle.cost if oracle.status == OPTIMAL else xi0 + 2
        xis = list(range(xi0, last + 1))
        expected = [SAT if oracle.status == OPTIMAL and xi >= oracle.cost else UNSAT for xi in xis]
        standalone = [solve_formula(encode_complete(inst, xi)).outcome for xi in xis]
        assert standalone == expected, name
        assert _grown_outcomes(inst, encoder.COMPLETE, False, xis) == expected, name
        standalone = [solve_formula(encode_complete(inst, xi, no_follow=True)).outcome for xi in xis]
        assert _grown_outcomes(inst, encoder.COMPLETE, True, xis) == standalone, name
        conflicts = validate_candidate(inst, shortest_path_plan(inst))
        standalone = [solve_formula(encode_refined(inst, xi, conflicts)).outcome for xi in xis]
        assert _grown_outcomes(inst, encoder.BASIC, False, xis, conflicts) == standalone, name
        checked += 1
    assert checked >= 100


def test_bound_allocates_vertex_variables_for_exactly_its_new_nodes(corpus):
    """Growing slack by slack, bound delta allocates a vertex variable for
    each node that `build_all_mdds(inst, delta)` has beyond delta - 1, and
    for no other."""
    for name, inst in corpus[::3]:
        try:
            cost_lower_bound(inst)
        except UnsolvableInstanceError:
            continue
        encoding = encoder.Encoding(inst, encoder.COMPLETE)
        before = set()
        for delta in range(4):
            count = encoding.formula.variable_count
            encoding.grow(delta)
            allocated = {key[1:] for key in variable_labels(encoding)[count:] if key[0] == "X"}
            nodes = {(i, v, t) for i, m in enumerate(build_all_mdds(inst, delta))
                     for t, level in enumerate(m.levels) for v in level}
            assert allocated == nodes - before, (name, delta)
            before = nodes


@pytest.mark.parametrize("mode,no_follow", [(encoder.COMPLETE, False), (encoder.COMPLETE, True),
                                            (encoder.BASIC, False)])
def test_only_a_standalone_encoding_is_labelled(mode, no_follow):
    """A standalone encoding labels each of its variables once; one grown
    with `onto`, as a solve grows it, labels none."""
    inst = make_instance(grid3x3(), 2, [(0, 8), (8, 0), (2, 6), (4, 1)])
    xi = cost_lower_bound(inst) + 1
    encode = encode_basic if mode == encoder.BASIC else partial(encode_complete, no_follow=no_follow)
    standalone = encode(inst, xi).formula
    assert len(standalone.labels) == standalone.variable_count > 0
    assert len(set(standalone.labels)) == len(standalone.labels)
    grown = encode(inst, xi, onto=encoder.Encoding(inst, mode, no_follow))
    assert grown.formula.variable_count == standalone.variable_count
    assert grown.formula.labels == []
    assert variable_labels(grown) == standalone.labels


# sha256 over the DIMACS text of every encoding below. Any change to the
# variable numbering, the clauses or their order changes it, so a change
# meant to keep the encoding must reproduce it. No search runs to build its
# input, so a change confined to the SAT core leaves it alone. The complete
# models have their own pin, so a change to the basic model or to `refine`
# alone leaves it as it is.
ENCODING_DIGEST = "2a119310fb1a9f55b75c351167f2d5fbe5b6f76674107a7f4d935907684ac4b4"
REFINED_DIGEST = "767e9a75266eab11ea15717a377ccce7ec9b6e0b4e947989b5994b4265ffce18"


def _digest(corpus, encodings):
    """sha256 over the DIMACS text of `encodings(inst, xi, conflicts)` over
    the corpus at slack 0-2, where `conflicts` are those of a fixed
    shortest-path plan; with the number of encodings and of instances with
    conflicts."""
    digest = hashlib.sha256()
    count = with_conflicts = 0
    for name, inst in corpus:
        try:
            xi0 = cost_lower_bound(inst)
        except UnsolvableInstanceError:
            continue
        conflicts = validate_candidate(inst, shortest_path_plan(inst))
        with_conflicts += bool(conflicts)
        for xi in range(xi0, xi0 + 3):
            for artifacts in encodings(inst, xi, conflicts):
                digest.update(f"{name} {xi}\n".encode())
                digest.update(to_dimacs(artifacts.formula).encode())
                count += 1
    return digest.hexdigest(), count, with_conflicts


def test_encodings_match_pinned_digest(corpus):
    """The complete model with and without no-follow reproduces a pinned
    digest of its DIMACS text."""
    digest, count, _ = _digest(corpus, lambda inst, xi, conflicts: (
        encode_complete(inst, xi), encode_complete(inst, xi, no_follow=True)))
    assert count >= 1400
    assert digest == ENCODING_DIGEST


def test_refined_basic_encodings_match_pinned_digest(corpus):
    """The basic model with `refine`'s clauses for the conflicts of a fixed
    shortest-path plan reproduces a pinned digest of its DIMACS text."""
    digest, count, with_conflicts = _digest(corpus, lambda inst, xi, conflicts: (
        encode_refined(inst, xi, conflicts),))
    assert count >= 700 and with_conflicts >= 50
    assert digest == REFINED_DIGEST
