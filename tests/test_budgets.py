"""Per-agent cost budgets: the cuts that `solve` takes from the cardinal
lift, the lift less 1 for an agent it counted and the lift for any other,
end each agent's diagram early, and every plan of cost <= xi still fits."""

from collections import Counter

import pytest

from capmapf import (
    CapacityMap,
    Graph,
    Instance,
    Plan,
    brute_force_optimal,
    cost_lower_bound,
    extract_plan,
    solve,
    validate_plan,
)
from capmapf import encoder, mdd, solvers
from capmapf.encoder import variable_labels
from capmapf.pathcalc import UnsolvableInstanceError, cardinal_lift
from capmapf.satcore import SAT, CdclSolver
from capmapf.solvers import EAGER, LAZY, SOLVED, Limits
from capmapf.verify import OPTIMAL

from conftest import make_instance


def _cuts(inst):
    """The lift and each agent's cut, as `solve` takes them."""
    lift, counted = cardinal_lift(inst)
    return lift, [lift - 1 if c else lift for c in counted]


def _lifted(corpus):
    """The corpus instances with a positive lift."""
    lifted = []
    for name, inst in corpus:
        try:
            lift, _ = _cuts(inst)
        except UnsolvableInstanceError:
            continue
        if lift:
            lifted.append((name, inst))
    return lifted


def _variants(corpus):
    """Each corpus instance at its own capacity and every higher one up to 3."""
    return [(f"{name}-as-c{c}", Instance(inst.graph, CapacityMap.uniform(inst.graph, c), inst.agents))
            for name, inst in corpus for c in range(max(inst.capacities.values), 4)]


def _corridor():
    """A corridor 0-1-2-3 at capacity 2, agents 0->3 and 3->0 forced across
    the edge 1-2 against each other, and a third agent 4->6 on a corridor of
    its own: the lift is 1 and counts the first two."""
    graph = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)])
    return make_instance(graph, 2, [(0, 3), (3, 0), (4, 6)])


@pytest.mark.parametrize("solver", [EAGER, LAZY])
def test_first_bound_gives_counted_agents_slack_1_and_the_others_slack_0(solver, monkeypatch):
    """On the corridor, with the lifted plan patched out so that the solve
    encodes: at the first bound, xi0 + 1, which is the optimum, the counted
    agents' diagrams are their slack-1 diagrams and the third agent's is its
    slack-0 diagram."""
    inst = _corridor()
    assert cardinal_lift(inst) == (1, [True, True, False])
    monkeypatch.setattr(solvers, "prioritized_plan", lambda instance, budget: None)
    built = []
    original = encoder.build_all_mdds
    monkeypatch.setattr(encoder, "build_all_mdds",
                        lambda *args: built.append(original(*args)) or built[-1])
    report = solve(inst, solver)
    assert report.optimal_cost == cost_lower_bound(inst) + 1 and len(report.iterations) == 1
    slack0, slack1 = mdd.build_all_mdds(inst, 0), mdd.build_all_mdds(inst, 1)
    assert built[0] == slack1[:2] + slack0[2:]
    assert slack0[2] != slack1[2]


@pytest.mark.parametrize("solver", [EAGER, LAZY])
def test_the_lifted_plan_settles_the_corridor_without_a_bound(solver):
    """On the corridor, agent 1 waits one step on vertex 2 beside agent 0,
    which capacity 2 allows, and lets it pass: a clean plan at xi0 + 1, the
    lifted bound, returned without encoding."""
    inst = _corridor()
    report = solve(inst, solver)
    assert (report.status, report.optimal_cost, report.lower_bound, report.iterations) == (
        SOLVED, cost_lower_bound(inst) + 1, cost_lower_bound(inst) + 1, [])
    assert report.plan == Plan(((0, 1, 2, 3, 3), (3, 2, 2, 1, 0), (4, 5, 6, 6, 6)))
    assert validate_plan(inst, report.plan) == []


@pytest.mark.parametrize("solver", [EAGER, LAZY])
def test_a_lift_too_high_fails_the_solve(solver, monkeypatch):
    """With the corridor's lift raised by 1, the planner's clean plan at a
    budget of 2 costs xi0 + 1, below the bound the lift claims: the solve
    raises instead of returning it."""
    lift, counted = cardinal_lift(_corridor())
    monkeypatch.setattr(solvers, "cardinal_lift", lambda instance: (lift + 1, counted))
    with pytest.raises(solvers.LiftSoundnessError, match="costs 9, below the lifted bound 10"):
        solve(_corridor(), solver)


def test_every_plan_the_lift_settles_is_optimal(corpus):
    """On the corpus, at each instance's capacity and every higher one up
    to 3, every solve that the lifted plan settles (no bound encoded, a cost
    above xi0) costs what the oracle gives, for both solvers."""
    settled = 0
    for name, inst in _lifted(_variants(corpus)):
        xi0 = cost_lower_bound(inst)
        limits = Limits(xi_ceiling=xi0 + 6)
        eager, lazy = solve(inst, EAGER, limits), solve(inst, LAZY, limits)
        assert (eager.optimal_cost, len(eager.iterations)) == (lazy.optimal_cost, len(lazy.iterations)), name
        if eager.status == SOLVED and not eager.iterations and eager.optimal_cost > xi0:
            oracle = brute_force_optimal(inst, 8)
            assert oracle.status == OPTIMAL and oracle.cost == eager.optimal_cost, name
            assert validate_plan(inst, eager.plan) == [] and validate_plan(inst, lazy.plan) == [], name
            settled += 1
    assert settled >= 80


def _labelled(encoding, clauses):
    """The clauses with each variable read as its label, as a sorted list."""
    labels = variable_labels(encoding)
    return sorted(sorted((lit > 0, labels[abs(lit) - 1]) for lit in clause) for clause in clauses)


@pytest.mark.parametrize("mode", [encoder.COMPLETE, encoder.BASIC])
def test_cut_encoding_grown_bound_by_bound_holds_the_one_step_clauses(corpus, mode):
    """With the cuts of a lifted capacity-1 instance, where no counter is
    posted, the encoding grown from the first bound's slack, the lift, two
    slack steps further has the variables, label for label, of one grown in
    a single step to that slack, and each agent's diagram ends at c_i +
    slack - cut_i. It holds every clause of the one-step encoding. Its
    other clauses are capacity pairs that a step posted while an agent
    there counted by its settled flag, before its diagram reached the step;
    the basic model posts none of them."""
    checked = 0
    for name, inst in _lifted(corpus):
        if max(inst.capacities.values) > 1:
            continue
        lift, cuts = _cuts(inst)
        stepwise = encoder.Encoding(inst, mode, cuts=cuts)
        clauses = []
        for delta in range(lift, lift + 3):
            stepwise.grow(delta)
            clauses += stepwise.formula.clauses
        at_once = encoder.Encoding(inst, mode, cuts=cuts)
        at_once.grow(lift + 2)
        assert sorted(variable_labels(stepwise)) == sorted(variable_labels(at_once)), name
        assert [len(x) - 1 for x in stepwise.xs] == [
            c + lift + 2 - cut for c, cut in zip(stepwise.costs, cuts)], name
        grown, one_step = _labelled(stepwise, clauses), _labelled(at_once, at_once.formula.clauses)
        extra = list((Counter(map(tuple, grown)) - Counter(map(tuple, one_step))).elements())
        assert len(grown) - len(extra) == len(one_step), name
        assert all(any(label[0] == "aux" and label[1].startswith("settled_")
                       for _, label in clause) for clause in extra), name
        if mode == encoder.BASIC:
            assert extra == [], name
        checked += 1
    assert checked >= 20


def test_plan_literals_put_an_optimal_plan_on_the_cut_diagrams(corpus):
    """On every lifted corpus instance the oracle solves, at its own
    capacity and every higher one up to 3, an optimal plan fits the
    diagrams cut by the lift at its cost xi*: its literals, with every other
    vertex variable false, satisfy the complete encoding under the bound's
    literals, and the model decodes back to the plan."""
    checked = 0
    for name, inst in _lifted(_variants(corpus)):
        oracle = brute_force_optimal(inst, 8)
        if oracle.status != OPTIMAL:
            continue
        encoding = encoder.Encoding(inst, encoder.COMPLETE, cuts=_cuts(inst)[1])
        encoding.grow(oracle.cost - cost_lower_bound(inst))
        true = encoding.plan_literals(oracle.plan)
        on_plan = set(true)
        false = [[-var] for x in encoding.xs for level in x for var in level.values()
                 if var not in on_plan]
        solver = CdclSolver()
        for clause in encoding.formula.clauses + [[lit] for lit in true] + false:
            solver.add_clause(clause)
        result = solver.solve(assumptions=encoding.bound_literals(encoding.delta))
        assert result.outcome == SAT, name
        mu = max(map(len, encoding.xs)) - 1
        padded = tuple(p + (p[-1],) * (mu + 1 - len(p)) for p in oracle.plan.paths)
        assert extract_plan(inst, encoding, result.model).paths == padded, name
        checked += 1
    assert checked >= 80
