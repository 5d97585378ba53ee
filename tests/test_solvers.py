import sys
import time
import weakref

import pytest

from capmapf import (
    Plan,
    brute_force_optimal,
    compute_horizon,
    cost_lower_bound,
    generate_random,
    solve,
    validate_candidate,
    validate_plan,
)
from capmapf import encoder, pathcalc, satcore
from capmapf.instance import InstanceError
from capmapf.plans import CAPACITY, SWAP
from capmapf.solvers import EAGER, EXHAUSTED, LAZY, SOLVED, UNSOLVABLE, Limits
from capmapf.verify import OPTIMAL

from conftest import cycle_graph, make_instance, p3_swap, path_graph, star_graph


def test_eager_single_agent():
    report = solve(make_instance(path_graph(3), 1, [(0, 2)]), EAGER)
    assert report.status == SOLVED
    assert report.optimal_cost == 2
    assert len(report.iterations) == 1 and report.iterations[0].outcome == "sat"


def test_eager_disjoint_paths_tight_bound():
    inst = make_instance(path_graph(4), 1, [(0, 1), (3, 2)])
    report = solve(inst, EAGER)
    assert report.status == SOLVED
    assert report.optimal_cost == cost_lower_bound(inst) == 2
    assert len(report.iterations) == 1


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
    inst = p3_swap(middle_capacity=2)
    lazy = solve(inst, LAZY)
    eager = solve(inst, EAGER)
    assert lazy.optimal_cost == eager.optimal_cost == 4
    assert validate_plan(inst, lazy.plan) == []


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
    with pytest.raises(encoder.EncodingSoundnessError, match="fresh conflict"):
        solve(generate_random(4, 4, 7, 1, 100), LAZY, Limits(time_limit_s=2))


def test_eager_plan_that_breaks_a_rule_is_an_error(monkeypatch):
    # eager posts every rule, so a conflict in its plan means a rule is missing
    monkeypatch.setattr(encoder, "encode_complete",
                        lambda instance, xi, no_follow=False: encoder.encode_basic(instance, xi))
    with pytest.raises(encoder.EncodingSoundnessError, match="eager plan breaks"):
        solve(p3_swap(), EAGER, Limits(time_limit_s=2))


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

        def slow(*args, original=original):
            artifacts = original(*args)
            time.sleep(limit_s + 0.1)
            return artifacts

        monkeypatch.setattr(encoder, name, slow)
    loaded = []
    monkeypatch.setattr(satcore.CdclSolver, "add_clause", lambda sat, clause: loaded.append(clause))
    report = solve(generate_random(4, 4, 3, 1, 1), solver, Limits(time_limit_s=limit_s))
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
    """24x24 grid, 60 agents: the solve needs longer than its one-second
    limit, so it stops at the deadline and returns within half a second of it."""
    inst = generate_random(24, 24, 60, 1, 1)
    started = time.monotonic()
    report = solve(inst, solver, Limits(time_limit_s=1.0))
    assert time.monotonic() - started < 1.5
    assert report.status == EXHAUSTED


# (optimal cost, conflicts summed over the solve's CdclSolvers, refinements, bounds)
# for generate_random(4, 4, 7, 1, seed), seeds 100-104
SEARCH_PIN = {
    EAGER: [(24, 18, 0, 4), (17, 21, 0, 4), (13, 6, 0, 3), (22, 39, 0, 4), (14, 2, 0, 2)],
    LAZY: [(24, 14, 28, 4), (17, 45, 43, 4), (13, 3, 6, 3), (22, 24, 46, 4), (14, 2, 12, 2)],
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
def test_one_bound_alive_at_a_time(solver, monkeypatch):
    """Every earlier bound's SAT solver, encoding and SAT answer are garbage
    by the time the next bound is encoded."""
    earlier = []

    class Recording(satcore.CdclSolver):
        def __init__(self, num_vars=0):
            super().__init__(num_vars)
            earlier.append(weakref.ref(self))

        def solve(self, *args, **kwargs):
            result = super().solve(*args, **kwargs)
            earlier.append(weakref.ref(result))
            return result

    monkeypatch.setattr(satcore, "CdclSolver", Recording)
    bounds = []
    for name in ("encode_complete", "encode_basic"):
        original = getattr(encoder, name)

        def checked(*args, original=original, **kwargs):
            alive = [ref() for ref in earlier if ref() is not None]
            assert alive == [], f"encoding bound {args[1]}: alive {alive}"
            bounds.append(args[1])
            artifacts = original(*args, **kwargs)
            earlier.append(weakref.ref(artifacts))
            return artifacts

        monkeypatch.setattr(encoder, name, checked)
    report = solve(generate_random(4, 4, 7, 1, 5), solver)
    assert report.status == SOLVED and len(report.iterations) == len(bounds) == 5
