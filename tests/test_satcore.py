import random
from collections import Counter
from itertools import combinations

import pytest

from capmapf import cost_lower_bound, generate_random
from capmapf.cnf import parse_dimacs
from capmapf.encoder import encode_complete
from capmapf.satcore import SAT, UNKNOWN, UNSAT, CdclSolver


def bitset_sat(n_vars: int, clauses) -> bool:
    """Truth-table oracle: one bit per assignment, big-int column per variable."""
    total = 1 << (1 << n_vars) if n_vars else 2
    full = total - 1

    def column(v):  # v is 1-based
        i = v - 1
        x = ((1 << (1 << i)) - 1) << (1 << i)
        width = 1 << (i + 1)
        while width < (1 << n_vars):
            x |= x << width
            width <<= 1
        return x

    cols = {v: column(v) for v in range(1, n_vars + 1)}
    formula = full
    for clause in clauses:
        mask = 0
        for lit in clause:
            mask |= cols[lit] if lit > 0 else (~cols[-lit] & full)
        formula &= mask
        if formula == 0:
            return False
    return formula != 0


def model_satisfies(clauses, model) -> bool:
    return all(any(model[l] if l > 0 else not model[-l] for l in c) for c in clauses)


def php_clauses(pigeons: int, holes: int):
    def var(p, h):
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p, q in combinations(range(pigeons), 2):
            clauses.append([-var(p, h), -var(q, h)])
    return clauses


def test_single_unit():
    s = CdclSolver()
    s.add_clause([1])
    result = s.solve()
    assert result.outcome == SAT
    assert result.model[1] is True


def test_contradictory_units():
    s = CdclSolver()
    s.add_clause([1])
    s.add_clause([-1])
    assert s.solve().outcome == UNSAT


def test_empty_formula_sat():
    assert CdclSolver().solve().outcome == SAT


def test_empty_clause_permanent_unsat():
    s = CdclSolver()
    s.add_clause([])
    assert s.solve().outcome == UNSAT
    s.add_clause([1])
    assert s.solve().outcome == UNSAT


def test_triangle_two_coloring_unsat():
    s = CdclSolver()
    for u, v in ((1, 2), (2, 3), (1, 3)):
        s.add_clause([u, v])
        s.add_clause([-u, -v])
    assert s.solve().outcome == UNSAT


def test_pigeonhole_3_2_unsat():
    clauses = php_clauses(3, 2)
    assert not bitset_sat(6, clauses)
    s = CdclSolver()
    for c in clauses:
        s.add_clause(c)
    assert s.solve().outcome == UNSAT


def test_incremental_monotone_strengthening():
    s = CdclSolver()
    s.add_clause([1, 2])
    assert s.solve().outcome == SAT
    s.add_clause([-1])
    result = s.solve()
    assert result.outcome == SAT and result.model[2] is True
    s.add_clause([-2])
    assert s.solve().outcome == UNSAT


def test_random_formulas_against_truth_table():
    rng = random.Random(1234)
    disagreements = 0
    for i in range(200):
        n = rng.randint(5, 20)
        m = rng.randint(n, int(4.5 * n))
        clauses = []
        for _ in range(m):
            width = rng.choice((2, 2, 3, 3, 3, 4))
            vs = rng.sample(range(1, n + 1), min(width, n))
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        expected = bitset_sat(n, clauses)
        s = CdclSolver()
        for c in clauses:
            s.add_clause(c)
        result = s.solve()
        assert result.outcome in (SAT, UNSAT)
        if (result.outcome == SAT) != expected:
            disagreements += 1
        if result.outcome == SAT:
            assert model_satisfies(clauses, result.model)
    assert disagreements == 0


def test_determinism():
    clauses = php_clauses(4, 4)
    models = []
    for _ in range(2):
        s = CdclSolver()
        for c in clauses:
            s.add_clause(list(c))  # the solver reorders the lists it is handed
        result = s.solve()
        assert result.outcome == SAT
        models.append(result.model)
    assert models[0] == models[1]


def test_conflict_limit_unknown():
    s = CdclSolver()
    for c in php_clauses(6, 5):
        s.add_clause(c)
    assert s.solve(conflict_limit=2).outcome == UNKNOWN
    assert s.solve().outcome == UNSAT  # budget-free call still completes


def test_time_limit_zero_unknown():
    s = CdclSolver()
    for c in php_clauses(6, 5):
        s.add_clause(c)
    assert s.solve(time_limit=0.0).outcome == UNKNOWN


def test_tautology_ignored():
    s = CdclSolver()
    s.add_clause([1, -1])
    s.add_clause([2])
    result = s.solve()
    assert result.outcome == SAT and result.model[2] is True


def test_load_dimacs():
    formula = parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n")
    s = CdclSolver(formula.variable_count)
    for clause in formula.clauses:
        s.add_clause(clause)
    result = s.solve()
    assert result.outcome == SAT
    assert result.model[1] is False and result.model[2] is True


def _random_clause(rng, n):
    vs = rng.sample(range(1, n + 1), rng.choice((2, 2, 3, 3, 4)))
    return [v if rng.random() < 0.5 else -v for v in vs]


def _messy(rng, clause):
    """`clause` plus a second copy or the negation of one of its literals, shuffled."""
    lit = rng.choice(clause)
    messy = clause + [lit if rng.random() < 0.5 else -lit]
    rng.shuffle(messy)
    return messy


def _check_incremental_batches(messy: bool) -> None:
    """Clause batches between solve() calls, posted the way lazy refinement posts
    them: units and clauses the previous model falsifies, among random ones.
    Every answer must agree with the truth table of the clauses so far.  After
    each batch the same solver also answers under a random assumption set, so
    the next batch's call starts from the phases that call saved.

    A messy run repeats a literal of, or adds a complementary pair to, about half
    of the clauses, with draws from a second generator; the core loads such
    clauses as given, so they must reach it unchanged and be answered soundly."""
    rng = random.Random(4321)
    mess = random.Random(8765)
    steer = random.Random(2468)
    outcomes = {SAT: 0, UNSAT: 0}
    repeated = complementary = 0
    for _ in range(150):
        n = rng.randint(4, 14)
        s = CdclSolver()
        clauses: list[list[int]] = []
        model = None
        unsat = False
        for _ in range(rng.randint(2, 10)):
            batch = []
            for _ in range(rng.randint(1, 6)):
                roll = rng.random()
                if roll < 0.15:
                    v = rng.randint(1, n)
                    batch.append([v if rng.random() < 0.5 else -v])
                elif roll < 0.6 and model is not None:
                    vs = rng.sample(range(1, len(model)), min(rng.randint(1, 4), len(model) - 1))
                    batch.append([-v if model[v] else v for v in vs])  # false in the model
                else:
                    batch.append(_random_clause(rng, n))
            if messy:
                batch = [_messy(mess, c) if mess.random() < 0.5 else c for c in batch]
            for c in batch:
                s.add_clause(c)
            clauses.extend(batch)
            if rng.random() < 0.3:
                s.solve(conflict_limit=1)  # may stop mid-search; the next call resumes
            result = s.solve()
            expected = bitset_sat(n, clauses)
            assert result.outcome == (SAT if expected else UNSAT)
            assert not unsat or result.outcome == UNSAT
            outcomes[result.outcome] += 1
            if result.outcome == SAT:
                assert model_satisfies(clauses, result.model)
                model = result.model
            else:
                unsat = True
            assumed = _random_assumptions(steer, n)
            under = clauses + [[lit] for lit in assumed]
            result = s.solve(assumptions=assumed)
            assert result.outcome == (SAT if bitset_sat(n, under) else UNSAT)
            if result.outcome == SAT:
                assert model_satisfies(under, result.model)
        repeated += sum(len(set(c)) < len(c) for c in s.clauses)
        complementary += sum(any(-lit in c for lit in c) for c in s.clauses)
    assert outcomes[SAT] > 100 and outcomes[UNSAT] > 50
    if messy:
        assert repeated > 100 and complementary > 100
    else:
        assert repeated == complementary == 0


def test_incremental_batches_against_truth_table():
    _check_incremental_batches(messy=False)


def test_incremental_messy_batches_against_truth_table():
    _check_incremental_batches(messy=True)


def test_clause_false_at_level_zero_after_sat_stays_unsat():
    s = CdclSolver()
    s.add_clause([1])
    s.add_clause([-1, 2])
    s.add_clause([3, 4])
    result = s.solve()
    assert result.outcome == SAT and result.model[1] and result.model[2]
    s.add_clause([-1, -2])  # both literals false at level 0
    assert s.solve().outcome == UNSAT
    assert s.contradiction
    s.add_clause([5, 6])
    assert s.solve().outcome == UNSAT


def test_model_replay_rejects_violated_clause():
    s = CdclSolver()
    s.add_clause([1, 2])
    s.add_clause([-1, 3])
    s.add_clause([4])
    model = s.solve().model
    assert s._model_ok(model)
    assert not s._model_ok([False, False, False, False, True])  # violates [1, 2]
    assert not s._model_ok([False, True, False, False, True])   # violates [-1, 3]
    assert not s._model_ok([False, False, True, False, False])  # violates the unit [4]


@pytest.mark.parametrize("clause, lit, lit_level, solver_level", [
    ([4, 2], 4, 2, 2),       # all false, one literal on top: assert it one level down
    ([4, -5, 1], None, None, 3),  # all false, two on top: unassign both
    ([5, 1], 5, 1, 1),       # true only above its false literal: re-assert it lower
    ([5, 4], None, None, 4),  # true at the false literal's level: nothing to undo
    ([-2], -2, 0, 0),        # a unit belongs at level 0
])
def test_clause_added_to_live_trail_backtracks_only_as_needed(clause, lit, lit_level, solver_level):
    s = CdclSolver()
    s.add_clause([1, 2, 3, 4, 5])
    assert s.solve().outcome == SAT
    # false-first decisions -1, -2, -3, -4 at levels 1-4, then 5 is implied at level 4
    assert s.trail == [-1, -2, -3, -4, 5] and s.trail_lim == [0, 1, 2, 3]
    s.add_clause(clause)
    assert len(s.trail_lim) == solver_level
    if lit is not None:
        assert s._value(lit) == 1 and s.level[abs(lit)] == lit_level
    result = s.solve()
    assert result.outcome == SAT
    assert model_satisfies([[1, 2, 3, 4, 5], clause], result.model)


def test_learned_unit_is_asserted_at_level_zero():
    s = CdclSolver()
    s.add_clause([1, 2])
    s.add_clause([1, -2])
    result = s.solve()  # decision -1 conflicts at level 1 and learns the unit [1]
    assert result.outcome == SAT and result.model[1] is True
    assert s.assign[1] == 1 and s.level[1] == 0
    assert s.learned == [] and s.conflicts_total == 1


def test_activity_rescale_drops_stale_heap_keys():
    s = CdclSolver()
    s.add_clause([1, 2, 3, 4])
    s.var_inc = 1e99
    s._bump(1)
    s.var_inc = 1e100
    s._bump(3)
    s._bump(3)  # passes 1e100: every activity and var_inc are scaled by 1e-100
    for _ in range(5):
        s._bump(2)
    assert s.activity[1:] == pytest.approx([0.1, 5.0, 2.0, 0.0])
    assert s._decide() == -2


@pytest.mark.parametrize("between", ["clause", "restart", "assumptions"])
def test_a_variable_last_true_is_decided_true(between):
    """Variable 3, implied true at level 2 of the first descent, is decided
    true again once a unit clause, a restart or other assumptions unassign
    it; variable 1, last false, is decided false."""
    s = CdclSolver()
    s.add_clause([1, 2, 3])
    assert s.solve(assumptions=[-1]).outcome == SAT
    assert s.trail == [-1, -2, 3] and s.level[3] == 2
    s._bump(3)  # the next decision once it is unassigned
    assumed = [-1]
    if between == "clause":
        s.add_clause([4])  # a unit backtracks to level 0
    elif between == "restart":
        s._backtrack(0)
    else:
        assumed = [-2]
    assert s.solve(assumptions=assumed).outcome == SAT
    decisions = [s.trail[i] for i in s.trail_lim[1:]]
    assert decisions[0] == 3 and -1 in decisions + assumed


def test_preferred_phases_steer_the_first_decisions():
    """After prefer([2, -3]) the first decisions, in heap order, set 2 true
    and 3 false, even where 3 was last true; 1, never assigned and never
    preferred, is decided false."""
    s = CdclSolver(3)
    s.phase[3] = True  # as if 3 had been true before a backtrack
    s.prefer([2, -3])
    assert s.solve().outcome == SAT
    assert [s.trail[i] for i in s.trail_lim] == [-1, 2, -3]


def test_a_later_assignment_overrides_a_preference():
    """A preferred variable that an assumption then sets false keeps false
    as its saved phase once the assumption is dropped."""
    s = CdclSolver(2)
    s.prefer([1, 2])
    assert s.solve(assumptions=[-1]).outcome == SAT
    assert s.trail == [-1, 2]
    assert s.solve().outcome == SAT
    assert [s.trail[i] for i in s.trail_lim] == [-1, 2]


def heap_ok(heap) -> bool:
    return all(heap[(i - 1) // 2] <= heap[i] for i in range(1, len(heap)))


def test_presized_and_grown_heap_stays_valid():
    """CdclSolver(n) and growth between solve() calls keep the decision heap
    a valid heap, through bumps and an activity rescale, and every new
    variable still gets decided."""
    s = CdclSolver(6)
    assert s.num_vars == 6
    assert all(len(x) == 7 for x in (s.assign, s.level, s.reason, s.activity, s.seen))
    assert sorted(v for _, v in s.heap) == list(range(1, 7)) and heap_ok(s.heap)
    s.add_clause([1, 2, 3])
    s.add_clause([-1, 4])
    for v in (4, 2, 2, 5):
        s._bump(v)
    assert heap_ok(s.heap)
    assert s.solve().outcome == SAT
    s.add_clause([7, -8, 9])  # grows by three variables between calls
    assert s.num_vars == 9 and heap_ok(s.heap)
    s.var_inc = 1e100
    s._bump(3)
    s._bump(3)  # passes 1e100: rescale and heap rebuild
    assert heap_ok(s.heap)
    s.add_clause([-10, 12])  # grows again after the rescale
    assert s.num_vars == 12 and heap_ok(s.heap)
    s._bump(11)
    assert heap_ok(s.heap)
    result = s.solve()
    assert result.outcome == SAT
    assert model_satisfies([[1, 2, 3], [-1, 4], [7, -8, 9], [-10, 12]], result.model)
    assert all(s.assign[v] != 0 for v in range(1, 13))  # 6 and 11 sit in no clause


def test_growth_covers_literals_outside_the_watches():
    """A clause loaded before the first search is only watched, so a new
    variable past its first two literals is allocated when solve() starts.
    A clause added after a search goes on the trail at once and grows the
    solver at once, wherever its new variable sits."""
    s = CdclSolver(2)
    for clause in ([1, 2, 5], [-1], [-2]):
        s.add_clause(clause)
    assert s.num_vars == 2
    result = s.solve()
    assert result.outcome == SAT and result.model[5] is True and s.num_vars == 5
    s.add_clause([1, 2, -5, 8])  # 1, 2 and -5 are false at level 0
    assert s.num_vars == 8 and s.assign[8] == 1
    result = s.solve()
    assert result.outcome == SAT and result.model[8] is True and len(result.model) == 9


@pytest.mark.parametrize("seed", range(100, 110))
def test_decision_heap_holds_one_live_entry_per_unassigned_variable(seed):
    """After a solve of a crowded grid and a backtrack to level 0, every
    unassigned variable has exactly one heap entry keyed by its current
    activity, and `in_heap` is true exactly for the variables that have one."""
    inst = generate_random(4, 4, 7, 1, seed)
    formula = encode_complete(inst, cost_lower_bound(inst) + 2).formula
    s = CdclSolver(formula.variable_count)
    for clause in formula.clauses:
        s.add_clause(clause)
    assert s.solve().outcome in (SAT, UNSAT)
    s._backtrack(0)
    assert heap_ok(s.heap)
    live = Counter(v for key, v in s.heap if key == -s.activity[v])
    for v in range(1, s.num_vars + 1):
        assert live[v] == (1 if s.in_heap[v] else 0), v
        assert s.in_heap[v] or s.assign[v] != 0, v  # every unassigned variable is on the heap


def _random_formula(rng, n):
    return [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), min(3, n))]
            for _ in range(rng.randint(n, 4 * n))]


def _random_assumptions(rng, n):
    return [v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, n + 1), rng.randint(0, min(4, n)))]


def test_assumptions_agree_with_the_truth_table():
    """Random formulas, each asked under several random assumption sets by
    one solver, answer as the truth table of the formula plus the assumed
    literals as units; a SAT model satisfies both, and only a formula that
    is UNSAT on its own sets `contradiction`."""
    rng = random.Random(4242)
    for _ in range(150):
        n = rng.randint(3, 14)
        formula = _random_formula(rng, n)
        solver = CdclSolver()
        for clause in formula:
            solver.add_clause(list(clause))
        alone = bitset_sat(n, formula)
        for _ in range(6):
            assumed = _random_assumptions(rng, n)
            result = solver.solve(assumptions=assumed)
            expected = bitset_sat(n, formula + [[lit] for lit in assumed])
            assert (result.outcome == SAT) == expected, (formula, assumed)
            if expected:
                assert model_satisfies(formula + [[lit] for lit in assumed], result.model)
            assert solver.contradiction == (not alone)


def test_unsat_under_assumptions_is_not_final():
    """UNSAT under assumptions leaves `contradiction` unset and the solver at
    level 0; the same solver then answers SAT without them, UNSAT under them
    again, and UNSAT for good once their negation is a clause."""
    s = CdclSolver()
    for clause in ([1, 2], [-1, 3], [-2, 3]):
        s.add_clause(clause)
    assert s.solve(assumptions=[-3]).outcome == UNSAT
    assert not s.contradiction and s.trail_lim == []
    result = s.solve()
    assert result.outcome == SAT and result.model[3] is True
    assert s.solve(assumptions=[2, -3]).outcome == UNSAT and not s.contradiction
    assert s.solve(assumptions=[-1, 2]).outcome == SAT
    s.add_clause([-3])
    assert s.solve().outcome == UNSAT and s.contradiction


def test_clauses_added_at_level_zero_after_a_search_answer_as_loaded_ones():
    """Half of a random formula is loaded and searched under contradictory
    assumptions, which leaves the solver at level 0 after propagation; the
    other half added then gives the same answers, under random assumptions,
    as the whole formula loaded before any search."""
    rng = random.Random(77)
    for _ in range(150):
        n = rng.randint(3, 14)
        formula = _random_formula(rng, n)
        half = len(formula) // 2
        # a unit, so that level 0 holds a propagated literal some late clauses name
        first = formula[:half] + [[rng.choice((n, -n))]]
        late = CdclSolver()
        for clause in first:
            late.add_clause(list(clause))
        assert late.solve(assumptions=[1, -1]).outcome == UNSAT
        assert late.trail_lim == []
        for clause in formula[half:]:
            late.add_clause(list(clause))
        whole = first + formula[half:]
        early = CdclSolver()
        for clause in whole:
            early.add_clause(list(clause))
        for _ in range(4):
            assumed = _random_assumptions(rng, n)
            expected = bitset_sat(n, whole + [[lit] for lit in assumed])
            for solver in (late, early):
                result = solver.solve(assumptions=assumed)
                assert (result.outcome == SAT) == expected, (formula, assumed)
                if expected:
                    assert model_satisfies(whole + [[lit] for lit in assumed], result.model)


def test_model_replay_checks_the_assumptions():
    s = CdclSolver()
    s.add_clause([1, 2])
    model = s.solve(assumptions=[-1]).model
    assert model[2] is True and model[1] is False and s._model_ok(model)
    flipped = list(model)
    flipped[1] = True  # still satisfies [1, 2], but breaks the assumed -1
    assert not s._model_ok(flipped)
