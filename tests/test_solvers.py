import sys
import time
import weakref

import pytest

from capmapf import (
    Graph,
    Plan,
    brute_force_optimal,
    compute_horizon,
    cost_lower_bound,
    generate_random,
    solve,
    validate_candidate,
    validate_plan,
)
from capmapf import encoder, mdd, pathcalc, satcore
from capmapf.instance import InstanceError
from capmapf.plans import CAPACITY, SWAP
from capmapf.solvers import EAGER, EXHAUSTED, LAZY, SOLVED, UNSOLVABLE, Limits
from capmapf.verify import OPTIMAL

from conftest import cycle_graph, grid3x3, load_check, make_instance, p3_swap, path_graph, star_graph


def test_eager_single_agent():
    """A lone agent's shortest path never collides: the root settles it."""
    report = solve(make_instance(path_graph(3), 1, [(0, 2)]), EAGER)
    assert report.status == SOLVED
    assert report.optimal_cost == 2
    assert report.plan == Plan(((0, 1, 2),)) and report.iterations == []


def _disjoint_paths():
    """path_graph(4) with agents 0->1 and 3->2: a root without conflicts."""
    return make_instance(path_graph(4), 1, [(0, 1), (3, 2)])


def test_eager_disjoint_paths_tight_bound():
    inst = _disjoint_paths()
    report = solve(inst, EAGER)
    assert report.status == SOLVED
    assert report.optimal_cost == cost_lower_bound(inst) == 2
    assert report.iterations == []


@pytest.mark.parametrize("solver", [EAGER, LAZY])
def test_clean_root_settles_without_encoding(solver, monkeypatch):
    """A root plan without conflicts is returned at the lower bound before
    any diagram is built or any bound encoded."""
    def unreachable(*args, **kwargs):
        raise AssertionError("a clean root needs no encoding")

    for module, name in ((encoder, "encode_complete"), (encoder, "encode_basic"),
                         (encoder, "build_all_mdds"), (mdd, "build_all_mdds")):
        monkeypatch.setattr(module, name, unreachable)
    inst = _disjoint_paths()
    report = solve(inst, solver)
    assert report.status == SOLVED and report.iterations == []
    assert report.optimal_cost == report.plan.sum_of_costs == cost_lower_bound(inst)
    assert report.plan == Plan(((0, 1), (3, 2))) and report.plan is inst.root_plan
    assert validate_plan(inst, report.plan) == []


@pytest.mark.parametrize("solver", [EAGER, LAZY])
def test_capacity_aware_root_settles_a_colliding_bfs_root(solver):
    """grid3x3 at c=2, two agents 0->8 and one 8->0: the BFS paths put all
    three on vertex 2 at step 2, but the root sends the third through the
    centre, so the solve returns it at the oracle's cost without a bound."""
    inst = make_instance(grid3x3(), 2, [(0, 8), (0, 8), (8, 0)])
    assert validate_candidate(inst, pathcalc.shortest_path_plan(inst)) != []
    report = solve(inst, solver)
    assert report.status == SOLVED and report.iterations == []
    assert report.plan is inst.root_plan and validate_plan(inst, report.plan) == []
    oracle = brute_force_optimal(inst, 6)
    assert oracle.status == OPTIMAL and report.optimal_cost == oracle.cost == cost_lower_bound(inst)


@pytest.mark.parametrize("solver", [EAGER, LAZY])
def test_clean_root_is_not_taken_below_the_lower_bound(solver):
    """A ceiling under the lower bound runs no bound, so the root is not
    taken either."""
    inst = _disjoint_paths()
    report = solve(inst, solver, Limits(xi_ceiling=cost_lower_bound(inst) - 1))
    assert report.status == EXHAUSTED and report.plan is None


@pytest.mark.parametrize("solver", [EAGER, LAZY])
def test_clean_root_is_not_taken_past_the_deadline(solver):
    """A solve whose deadline has already passed runs no bound, so the root
    is not taken either."""
    report = solve(_disjoint_paths(), solver, Limits(time_limit_s=0.0))
    assert report.status == EXHAUSTED and report.plan is None


def test_eager_swap_with_wide_middle():
    report = solve(p3_swap(middle_capacity=2), EAGER)
    assert report.status == SOLVED
    assert report.optimal_cost == 4
    assert brute_force_optimal(p3_swap(2), 6).cost == 4


def test_eager_unsolvable_hits_ceiling():
    report = solve(p3_swap(), EAGER, Limits(xi_ceiling=8))
    assert report.status == EXHAUSTED
    assert all(stat.outcome == "unsat" for stat in report.iterations)


def test_eager_unreachable_goal():
    from capmapf import Graph

    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert solve(make_instance(g, 1, [(0, 3)]), EAGER).status == UNSOLVABLE


@pytest.mark.parametrize("solver", [EAGER, LAZY])
def test_lower_bound_is_proven_wherever_the_solve_stops(solver):
    """`SolveReport.lower_bound`: the lifted first bound of a loop that the
    ceiling stops before it runs, one above the last UNSAT bound, the cost
    once solved, xi0 for a root-settled solve, and None when unsolvable."""
    inst = generate_random(16, 16, 4, 1, 101)  # xi0 51, one forced conflict, optimum 52
    report = solve(inst, solver, Limits(xi_ceiling=51))
    assert (report.status, report.iterations, report.lower_bound) == (EXHAUSTED, [], 52)
    report = solve(p3_swap(), solver, Limits(xi_ceiling=8))  # xi0 4 and a forced swap
    assert [stat.xi for stat in report.iterations] == [5, 6, 7, 8]
    assert (report.status, report.lower_bound) == (EXHAUSTED, 9)
    inst = generate_random(4, 4, 7, 1, 100)
    report = solve(inst, solver, Limits(xi_ceiling=23))
    assert report.status == EXHAUSTED and report.lower_bound == 24
    assert solve(inst, solver).lower_bound == 24
    inst = _disjoint_paths()
    assert solve(inst, solver).lower_bound == cost_lower_bound(inst) == 2
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert solve(make_instance(g, 1, [(0, 3)]), solver).lower_bound is None


def test_lazy_single_agent_no_refinements():
    report = solve(make_instance(path_graph(3), 1, [(0, 2)]), LAZY)
    assert report.status == SOLVED
    assert report.optimal_cost == 2
    assert report.total_refinements == 0


def test_lazy_capacity_refinement_on_star():
    # three agents funnel through the center, which holds only two
    inst = make_instance(star_graph(6), [2, 1, 1, 1, 1, 1, 1],
                         [(1, 4), (2, 5), (3, 6)])
    report = solve(inst, LAZY)
    assert report.status == SOLVED
    assert report.total_refinements >= 1
    oracle = brute_force_optimal(inst, 6)
    assert oracle.status == OPTIMAL and report.optimal_cost == oracle.cost == 7


def test_lazy_swap_unsolvable_never_returns_invalid():
    report = solve(p3_swap(), LAZY, Limits(xi_ceiling=8))
    assert report.status == EXHAUSTED
    assert report.plan is None


def test_lazy_matches_eager_with_swap_refinement():
    """Two agents exchanging adjacent vertices of a 4-cycle: the root swaps
    them on the shared edge, so lazy posts a swap refinement, and one agent
    goes the long way round at the optimum, above the lower bound."""
    inst = make_instance(cycle_graph(4), 1, [(0, 1), (1, 0)])
    assert [c.kind for c in validate_candidate(inst, inst.root_plan)] == [SWAP]
    lazy = solve(inst, LAZY)
    eager = solve(inst, EAGER)
    assert lazy.total_refinements >= 1
    oracle = brute_force_optimal(inst, 6)
    assert oracle.status == OPTIMAL
    assert lazy.optimal_cost == eager.optimal_cost == oracle.cost == 4 > cost_lower_bound(inst)
    assert validate_plan(inst, lazy.plan) == [] and validate_plan(inst, eager.plan) == []


def test_timeout_reports_exhausted():
    report = solve(p3_swap(), EAGER, Limits(time_limit_s=0.0))
    assert report.status == EXHAUSTED


def test_solve_dispatch():
    inst = make_instance(path_graph(3), 1, [(0, 2)])
    assert solve(inst, "eager").optimal_cost == 2
    assert solve(inst, "lazy").optimal_cost == 2
    with pytest.raises(ValueError):
        solve(inst, "magic")


def test_validate_candidate_clean():
    inst = make_instance(path_graph(3), 1, [(0, 2)])
    assert validate_candidate(inst, Plan(((0, 1, 2),))) == []


def test_validate_candidate_capacity_full_set():
    inst = make_instance(star_graph(3), [2, 1, 1, 1], [(1, 2), (2, 3), (3, 1)])
    plan = Plan(((1, 0, 2), (2, 0, 3), (3, 0, 1)))
    found = validate_candidate(inst, plan)
    assert len(found) == 1
    conflict = found[0]
    assert conflict.kind == CAPACITY
    assert conflict.agents == (0, 1, 2)
    assert (conflict.vertex, conflict.time) == (0, 1)


def test_validate_candidate_swap_pair():
    inst = p3_swap()
    found = validate_candidate(inst, Plan(((0, 1, 2), (1, 0, 0))))
    swaps = [c for c in found if c.kind == SWAP]
    assert len(swaps) == 1
    assert swaps[0].vertex == (0, 1) and swaps[0].time == 0


def test_pairwise_conflicts_under_unit_capacity():
    # with c=1 every capacity conflict involves exactly two agents
    inst = make_instance(path_graph(3), 1, [(0, 2), (2, 0)])
    found = validate_candidate(inst, Plan(((0, 1, 2), (2, 1, 0))))
    capacity = [c for c in found if c.kind == CAPACITY]
    assert capacity and all(len(c.agents) == 2 for c in capacity)


def test_lazy_rejects_no_follow():
    with pytest.raises(ValueError, match="no-follow"):
        solve(p3_swap(), "lazy", no_follow=True)


def test_capacity_relaxation_monotone():
    graph = cycle_graph(4)
    pairs = [(0, 2), (2, 0), (1, 3)]
    costs = []
    for c in (1, 2, 3):
        report = solve(make_instance(graph, c, pairs), EAGER)
        assert report.status == SOLVED
        costs.append(report.optimal_cost)
    assert costs[0] >= costs[1] >= costs[2]


def test_cross_solver_agreement_sample(corpus):
    for name, inst in corpus[::11]:
        eager = solve(inst, EAGER, Limits(time_limit_s=30, xi_ceiling=cost_lower_bound(inst) + 6))
        lazy = solve(inst, LAZY, Limits(time_limit_s=30, xi_ceiling=cost_lower_bound(inst) + 6))
        assert eager.status == lazy.status, name
        if eager.status == SOLVED:
            assert eager.optimal_cost == lazy.optimal_cost, name
            assert validate_plan(inst, eager.plan) == [], name
            assert validate_plan(inst, lazy.plan) == [], name


@pytest.mark.parametrize("solver", ["eager", "lazy"])
def test_solve_validates_instance(solver):
    overfull_start = make_instance(path_graph(3), 1, [(0, 2), (0, 1)])
    with pytest.raises(InstanceError, match="overfills"):
        solve(overfull_start, solver)


def test_lazy_fresh_conflict_without_a_clause_is_an_error(monkeypatch):
    # a conflict of the model just decoded names only diagram nodes, so a
    # missing clause is a fault; skipping it would find the same model again
    monkeypatch.setattr(encoder, "conflict_clause", lambda instance, xs, conflict: None)
    monkeypatch.setattr(encoder, "capacity_group", lambda instance, artifacts, vertex: [])
    with pytest.raises(encoder.EncodingSoundnessError, match="fresh conflict"):
        solve(generate_random(4, 4, 7, 1, 100), LAZY, Limits(time_limit_s=2))


def test_lazy_capacity_conflict_at_a_posted_vertex_is_an_error(monkeypatch):
    # a posted group keeps its vertex within capacity at every step, so a
    # later model that overfills it means the group is too weak
    monkeypatch.setattr(encoder, "_at_most", lambda formula, lits, new, cap: [[1, -1]])
    inst = generate_random(4, 4, 7, 1, 100)  # optimum 3 above the lower bound
    with pytest.raises(encoder.EncodingSoundnessError, match="posted rule"):
        solve(inst, LAZY, Limits(time_limit_s=5))


# generate_random(4, 4, k, 2, seed) instances where a lazy group has room
# >= 2 at some vertex, so its sequential counter allocates auxiliaries
# between solve() calls
CAPACITY_TWO = [(9, 2), (10, 1)]


@pytest.mark.parametrize("agents, seed", CAPACITY_TWO)
def test_lazy_agrees_with_eager_at_capacity_two(agents, seed, monkeypatch):
    inst = generate_random(4, 4, agents, 2, seed)
    eager = solve(inst, EAGER)
    groups, bounds = [], []
    original_group, original_basic = encoder.capacity_group, encoder.encode_basic

    def counting_group(instance, artifacts, vertex):
        groups[-1].append(vertex)
        return original_group(instance, artifacts, vertex)

    def counting_basic(instance, xi, onto=None):
        groups.append([])
        before = onto.formula.variable_count
        encoding = original_basic(instance, xi, onto)
        bounds.append(encoding.formula.variable_count - before)  # what the growth added
        return encoding

    monkeypatch.setattr(encoder, "capacity_group", counting_group)
    monkeypatch.setattr(encoder, "encode_basic", counting_basic)
    lazy = solve(inst, LAZY)
    assert eager.status == lazy.status == SOLVED
    assert lazy.optimal_cost == eager.optimal_cost
    assert validate_plan(inst, eager.plan) == [] and validate_plan(inst, lazy.plan) == []
    for posted in groups:  # each vertex's group at most once per bound
        assert len(posted) == len(set(posted))
    # some group was posted mid-search with a counter: the bound added more
    # variables than its growth did
    assert any(stat.variables > grown for stat, grown in zip(lazy.iterations, bounds))


def test_eager_plan_that_breaks_a_rule_is_an_error(monkeypatch):
    # eager posts every rule, so a conflict in its plan means a rule is missing
    monkeypatch.setattr(encoder.Encoding, "_encode_swaps", lambda encoding, mdds: None)
    monkeypatch.setattr(encoder, "_at_most", lambda formula, lits, new, cap: [])
    with pytest.raises(encoder.EncodingSoundnessError, match="posted rule"):
        solve(p3_swap(), EAGER, Limits(time_limit_s=2))


@pytest.mark.parametrize("solver", [EAGER, LAZY])
def test_contradictory_kept_clauses_are_an_error(solver, monkeypatch):
    """Every valid plan satisfies the clauses kept across bounds, so a
    contradiction among them, not an UNSAT under the bound's assumptions,
    means the encoding is unsound."""
    for name in ("encode_complete", "encode_basic"):
        original = getattr(encoder, name)

        def contradicting(*args, original=original, **kwargs):
            encoding = original(*args, **kwargs)
            encoding.formula.add_all([[1], [-1]])  # a contradictory pair
            return encoding

        monkeypatch.setattr(encoder, name, contradicting)
    with pytest.raises(encoder.EncodingSoundnessError, match="contradict"):
        solve(generate_random(4, 4, 7, 1, 100), solver, Limits(time_limit_s=5))


@pytest.mark.parametrize("solver", [EAGER, LAZY])
def test_settled_agent_leaves_room_for_one_more(solver):
    """Star with centre 0 of capacity 2: agent 0 starts and ends at the
    centre, so below slack 2 it is settled there from its arrival step on.
    Agents 1 and 2 swap leaves 1 and 2 through the centre. Beside the
    settled agent there is room for one of them at a time, so they cannot
    pass at once (cost 4): agent 0 steps aside to leaf 3 instead (cost 6).
    At capacity 3 the centre holds all three."""
    costs = {}
    for centre in (2, 3):
        inst = make_instance(star_graph(3), (centre, 1, 1, 1), [(0, 0), (1, 2), (2, 1)])
        oracle = brute_force_optimal(inst, 6)
        assert oracle.status == OPTIMAL
        report = solve(inst, solver)
        assert report.status == SOLVED and report.optimal_cost == oracle.cost
        assert validate_plan(inst, report.plan) == []
        costs[centre] = report.optimal_cost
    assert costs == {2: 6, 3: 4}


# eager optimal costs with vacate-before-enter (no-follow) semantics; each is
# above the plain optimum, so the no-follow clauses decide them
NO_FOLLOW_COSTS = {
    "c4-k3-c1-r3": 9,
    "c5-k3-c1-r0": 11,
    "star3-k3-c2-r1": 8,
    "grid3x3-k3-c1-r1": 8,
}


def test_no_follow_optimal_costs(corpus):
    instances = dict(corpus)
    for name, cost in NO_FOLLOW_COSTS.items():
        inst = instances[name]
        limits = Limits(time_limit_s=30, xi_ceiling=cost_lower_bound(inst) + 6)
        report = solve(inst, EAGER, limits, no_follow=True)
        assert report.status == SOLVED and report.optimal_cost == cost, name
        assert validate_plan(inst, report.plan) == [], name
        assert solve(inst, EAGER, limits).optimal_cost < cost, name


# eager no-follow optimal costs of generate_random(4, 4, 5, 1, seed), seeds
# 0-7: crowded 4x4 grids where movers meet agents that are already home
NO_FOLLOW_RANDOM_COSTS = [16, 12, 19, 11, 14, 12, 15, 22]


@pytest.mark.parametrize("seed", range(len(NO_FOLLOW_RANDOM_COSTS)))
def test_no_follow_optimal_costs_on_crowded_grids(seed):
    inst = generate_random(4, 4, 5, 1, seed)
    report = solve(inst, EAGER, Limits(time_limit_s=30), no_follow=True)
    assert report.status == SOLVED and report.optimal_cost == NO_FOLLOW_RANDOM_COSTS[seed]
    assert validate_plan(inst, report.plan) == []


@pytest.mark.parametrize("solver", ["eager", "lazy"])
def test_solve_runs_two_bfs_per_agent(solver, monkeypatch):
    """The distances are computed once per instance and serve every bound of
    every solve: one BFS from each agent's start and one from its goal,
    however many bounds the solves try."""
    original = pathcalc.bfs_distances
    sources = []

    def counting(graph, source):
        sources.append(source)
        return original(graph, source)

    for name, module in list(sys.modules.items()):
        if name == "capmapf" or name.startswith("capmapf."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    inst = generate_random(4, 4, 7, 1, 5)
    report = solve(inst, solver)
    assert report.status == SOLVED and len(report.iterations) >= 3
    assert len(sources) == 2 * inst.k
    assert sorted(sources) == sorted([a.start for a in inst.agents] + [a.goal for a in inst.agents])
    other = LAZY if solver == EAGER else EAGER
    assert solve(inst, other).optimal_cost == report.optimal_cost
    xi = report.optimal_cost
    encoder.encode_complete(inst, xi)
    compute_horizon(inst, xi)
    cost_lower_bound(inst)
    assert len(sources) == 2 * inst.k
    assert inst == generate_random(4, 4, 7, 1, 5)


@pytest.mark.parametrize("solver", ["eager", "lazy"])
def test_bound_encoded_past_the_deadline_is_not_loaded(solver, monkeypatch):
    """A bound whose encoding ends after the deadline returns EXHAUSTED
    before any clause reaches the SAT solver."""
    limit_s = 0.2
    for name in ("encode_complete", "encode_basic"):
        original = getattr(encoder, name)

        def slow(*args, original=original, **kwargs):
            encoding = original(*args, **kwargs)
            time.sleep(limit_s + 0.1)
            return encoding

        monkeypatch.setattr(encoder, name, slow)
    loaded = []
    monkeypatch.setattr(satcore.CdclSolver, "add_clause", lambda sat, clause: loaded.append(clause))
    inst = generate_random(4, 4, 7, 1, 100)  # optimum 3 above the lower bound
    assert validate_candidate(inst, inst.root_plan) != []  # so the root cannot settle it
    report = solve(inst, solver, Limits(time_limit_s=limit_s))
    assert report.status == EXHAUSTED and loaded == []


@pytest.mark.parametrize("solver", ["eager", "lazy"])
def test_time_limit_bounds_a_large_solve(solver):
    """24x24 grid, 40 agents: the solve returns within half a second of its
    one-second limit, diagram build, encoding and loading included."""
    inst = generate_random(24, 24, 40, 1, 1)
    started = time.monotonic()
    report = solve(inst, solver, Limits(time_limit_s=1.0))
    assert time.monotonic() - started < 1.5
    assert report.status in (SOLVED, EXHAUSTED)


@pytest.mark.parametrize("solver", ["eager", "lazy"])
def test_time_limit_is_reached_on_a_larger_solve(solver):
    """16x16 grid, 60 agents: no solver finishes it in a minute, so with a
    one-second limit the solve stops at the deadline and returns within
    half a second of it."""
    inst = generate_random(16, 16, 60, 1, 2)
    started = time.monotonic()
    report = solve(inst, solver, Limits(time_limit_s=1.0))
    assert time.monotonic() - started < 1.5
    assert report.status == EXHAUSTED


# generate_random's arguments, the optimal cost and the number of bounds of
# five open-grid rows from 8x8 to 16x16, where lazy posts capacity groups;
# four are rows of checks/frontier.py, whose pins give their costs
FRONTIER_BOUNDS = {"8x8-k20-s1": 7, "12x12-k36-s101": 7, "16x16-k40-s2": 4, "12x12-k30-s105": 6}
FRONTIER_ROWS = [(row.args, row.pin, FRONTIER_BOUNDS[row.name])
                 for row in load_check("frontier").ROWS if row.name in FRONTIER_BOUNDS]
FRONTIER_ROWS.append(((16, 16, 4, 1, 101), 52, 1))


@pytest.mark.parametrize("solver", [EAGER, LAZY])
@pytest.mark.parametrize("args,cost,bounds", FRONTIER_ROWS,
                         ids=[f"{w}x{h}-k{k}-s{seed}" for (w, h, k, _, seed), _, _ in FRONTIER_ROWS])
def test_frontier_rows_solve_to_their_pinned_cost(args, cost, bounds, solver):
    inst = generate_random(*args)
    report = solve(inst, solver)
    assert (report.status, report.optimal_cost, len(report.iterations)) == (SOLVED, cost, bounds)
    assert validate_plan(inst, report.plan) == []


# (optimal cost, conflicts of the solve's one CdclSolver, refinements, bounds)
# for generate_random(4, 4, 7, 1, seed), seeds 100-104; refinements count the
# clauses lazy posted between solve() calls
SEARCH_PIN = {
    EAGER: [(24, 8, 0, 3), (17, 14, 0, 4), (13, 1, 0, 2), (22, 38, 0, 4), (14, 1, 0, 2)],
    LAZY: [(24, 8, 48, 3), (17, 14, 43, 4), (13, 1, 7, 2), (22, 43, 64, 4), (14, 1, 6, 2)],
}


@pytest.mark.parametrize("solver", [EAGER, LAZY])
def test_search_matches_pin(solver, monkeypatch):
    """The SAT core's search path, pinned apart from the encoding: a change
    to branching, learning or restarts moves these counts and must update
    them on purpose."""
    made = []

    class Recording(satcore.CdclSolver):
        def __init__(self, num_vars=0):
            super().__init__(num_vars)
            made.append(self)

    monkeypatch.setattr(satcore, "CdclSolver", Recording)
    seen = []
    for seed in range(100, 105):
        made.clear()
        report = solve(generate_random(4, 4, 7, 1, seed), solver)
        seen.append((report.optimal_cost, sum(s.conflicts_total for s in made),
                     report.total_refinements, len(report.iterations)))
    assert seen == SEARCH_PIN[solver]


@pytest.mark.parametrize("solver", [EAGER, LAZY])
def test_unclean_root_seeds_the_first_bound(solver, monkeypatch):
    """The root of this 16x16 instance has a conflict, so the solve encodes.
    The lift starts it at the optimum, one above xi0, and that one bound
    decides along the root's paths and answers without a single SAT
    conflict."""
    made = []

    class Recording(satcore.CdclSolver):
        def __init__(self, num_vars=0):
            super().__init__(num_vars)
            made.append(self)

    monkeypatch.setattr(satcore, "CdclSolver", Recording)
    inst = generate_random(16, 16, 4, 1, 101)
    assert validate_candidate(inst, inst.root_plan) != []
    report = solve(inst, solver)
    assert (report.status, report.optimal_cost, len(report.iterations)) == (SOLVED, 52, 1)
    assert [s.conflicts_total for s in made] == [0]


def test_no_follow_builds_no_root():
    """No-follow skips the root check, so it neither builds nor seeds one."""
    inst = generate_random(4, 4, 7, 1, 100)
    report = solve(inst, EAGER, no_follow=True)
    assert report.status == SOLVED and "root_plan" not in inst.__dict__
    solve(inst, EAGER)
    assert "root_plan" in inst.__dict__  # where the root check runs, it is cached there


@pytest.mark.parametrize("solver", [EAGER, LAZY])
def test_one_solver_and_one_encoding_per_solve(solver, monkeypatch):
    """A solve grows one encoding bound by bound and answers every bound
    with one SAT solver; neither is alive once the solve returns."""
    made = []

    class Recording(satcore.CdclSolver):
        def __init__(self, num_vars=0):
            super().__init__(num_vars)
            made.append(weakref.ref(self))

    monkeypatch.setattr(satcore, "CdclSolver", Recording)
    grown = []
    for name in ("encode_complete", "encode_basic"):
        original = getattr(encoder, name)

        def recording(*args, original=original, **kwargs):
            encoding = original(*args, **kwargs)
            assert encoding is kwargs["onto"]
            grown.append((args[1], weakref.ref(encoding)))
            return encoding

        monkeypatch.setattr(encoder, name, recording)
    inst = generate_random(4, 4, 7, 1, 5)
    report = solve(inst, solver)
    assert report.status == SOLVED and len(report.iterations) == len(grown) == 5
    assert [xi for xi, _ in grown] == [stat.xi for stat in report.iterations]
    assert len(made) == 1 and made[0]() is None
    assert len({id(ref) for _, ref in grown}) == 1  # one referent has one weak reference
    assert all(ref() is None for _, ref in grown)


@pytest.mark.parametrize("solver", [EAGER, LAZY])
def test_bound_stats_count_what_each_bound_added(solver, monkeypatch):
    """Each IterationStat counts the variables the bound allocated and the
    clauses it loaded, refinements included, so their sums are the solve's
    totals: every clause the one SAT solver holds, learned ones aside."""
    made = []

    class Recording(satcore.CdclSolver):
        def __init__(self, num_vars=0):
            super().__init__(num_vars)
            made.append(self)

    monkeypatch.setattr(satcore, "CdclSolver", Recording)
    inst = generate_random(4, 4, 7, 1, 100)
    report = solve(inst, solver)
    assert report.status == SOLVED and len(report.iterations) == 3
    sat, = made
    assert sum(stat.clauses for stat in report.iterations) == len(sat.clauses)
    assert sum(stat.variables for stat in report.iterations) == sat.num_vars
    assert all(stat.clauses > 0 and stat.variables > 0 for stat in report.iterations)
