from itertools import product

import pytest

from capmapf import (
    CnfFormula,
    at_most_k,
    at_most_one_pairwise,
    cost_lower_bound,
    encode_basic,
    generate_random,
    parse_dimacs,
    to_dimacs,
    validate_candidate,
)
from capmapf.encoder import refine, variable_labels
from capmapf.pathcalc import shortest_path_plan
from capmapf.satcore import SAT, CdclSolver


def test_allocate_distinct_keys():
    f = CnfFormula()
    a = f.allocate()
    b = f.allocate()
    assert (a, b) == (1, 2) and f.variable_count == 2
    assert f.labels == []  # allocating labels nothing


def test_key_map_round_trip():
    f = CnfFormula()
    f.labels = [("X", 0, 3, 1), ("aux", "settled_2", 4), ("aux", "s", 9)]
    for _ in f.labels:
        f.allocate()
    assert parse_dimacs(to_dimacs(f)).labels == f.labels  # ints and strings alike


def test_pairwise_counts():
    assert len(at_most_one_pairwise([1, 2, 3])) == 3
    assert at_most_one_pairwise([1]) == []
    assert len(at_most_one_pairwise([1, 2, 3, 4])) == 6


def _clauses_satisfied(clauses, assignment):
    """assignment: dict var -> bool over every var occurring in clauses."""
    return all(
        any(assignment[abs(l)] == (l > 0) for l in clause) for clause in clauses
    )


def test_pairwise_model_set_n4():
    clauses = at_most_one_pairwise([1, 2, 3, 4])
    good = 0
    for bits in product((False, True), repeat=4):
        assignment = {v: bits[v - 1] for v in range(1, 5)}
        if _clauses_satisfied(clauses, assignment):
            good += 1
            assert sum(bits) <= 1
    assert good == 5


def projected_models_match(n: int, k: int) -> bool:
    """Exhaustively check at_most_k's projection semantics for n vars, bound k."""
    f = CnfFormula()
    xs = [f.allocate() for _ in range(n)]
    clauses = at_most_k(f, xs, k)
    for bits in product((False, True), repeat=n):
        want = sum(bits) <= k
        solver = CdclSolver()
        for clause in clauses:
            solver.add_clause(clause)
        for x, b in zip(xs, bits):
            solver.add_clause([x if b else -x])
        got = solver.solve().outcome == SAT
        if got != want:
            return False
    return True


@pytest.mark.parametrize("n", range(1, 9))
def test_at_most_k_exhaustive(n):
    for k in range(n + 1):
        assert projected_models_match(n, k)


def test_at_most_k_vacuous_and_zero():
    f = CnfFormula()
    xs = [f.allocate() for _ in range(5)]
    assert at_most_k(f, xs, 5) == []
    f2 = CnfFormula()
    ys = [f2.allocate() for _ in range(2)]
    assert at_most_k(f2, ys, 0) == [[-ys[0]], [-ys[1]]]


def test_at_most_k_three_choose_two():
    f = CnfFormula()
    xs = [f.allocate() for _ in range(3)]
    clauses = at_most_k(f, xs, 2)
    sat_count = 0
    for bits in product((False, True), repeat=3):
        solver = CdclSolver()
        for clause in clauses:
            solver.add_clause(clause)
        for x, b in zip(xs, bits):
            solver.add_clause([x if b else -x])
        if solver.solve().outcome == SAT:
            sat_count += 1
    assert sat_count == 7  # only the all-true assignment is forbidden


def test_at_most_one_variants_agree():
    # k=1 pairwise fallback (small n) and sequential counter (larger n)
    for n in (3, 6, 7, 8):
        assert projected_models_match(n, 1)


def test_at_most_k_accepts_negative_literals():
    f = CnfFormula()
    xs = [f.allocate() for _ in range(3)]
    clauses = at_most_k(f, [-x for x in xs], 1)  # at most one false
    for bits in product((False, True), repeat=3):
        solver = CdclSolver()
        for clause in clauses:
            solver.add_clause(clause)
        for x, b in zip(xs, bits):
            solver.add_clause([x if b else -x])
        assert (solver.solve().outcome == SAT) == (sum(1 for b in bits if not b) <= 1)


def test_dimacs_empty():
    assert to_dimacs(CnfFormula()) == "p cnf 0 0\n"


def test_dimacs_single_unit():
    f = CnfFormula()
    x = f.allocate()
    f.add([x])
    text = to_dimacs(f)
    assert text == "p cnf 1 1\n1 0\n"  # an unlabelled formula has no `c var` lines
    f.labels = [("aux", "x", 1)]
    assert to_dimacs(f) == "c var 1 aux x 1\n" + text


def test_dimacs_rejects_labels_gone_stale():
    """A standalone encoding is labelled when it is encoded; the counters
    `refine` allocates after that leave some variables without a label,
    which `to_dimacs` refuses rather than write a partial `c var` list."""
    inst = generate_random(3, 3, 7, 2, 3)
    encoding = encode_basic(inst, cost_lower_bound(inst))
    f = encoding.formula
    f.add_all(refine(inst, encoding, validate_candidate(inst, shortest_path_plan(inst))))
    assert (len(f.labels), f.variable_count) == (62, 70)
    with pytest.raises(ValueError, match="62 labels for 70 variables"):
        to_dimacs(f)
    f.labels = variable_labels(encoding)
    assert sum(line.startswith("c var ") for line in to_dimacs(f).splitlines()) == 70


def test_dimacs_structural_round_trip():
    f = CnfFormula()
    a = f.allocate()
    b = f.allocate()
    f.labels = [("X", 0, 2, 1), ("aux", "settled_0", 1)]
    f.add([a, -b])
    f.add([-a, b])
    g = parse_dimacs(to_dimacs(f))
    assert g.variable_count == f.variable_count
    assert g.clauses == f.clauses
    assert g.labels[a - 1] == ("X", 0, 2, 1)
    assert g.labels[b - 1] == ("aux", "settled_0", 1)


def test_dimacs_byte_stable_round_trip():
    f = CnfFormula()
    a = f.allocate()
    b = f.allocate()
    f.labels = [("X", 0, 2, 1), ("aux", "seq", 2)]
    f.add([a, b])
    text = to_dimacs(f)
    assert to_dimacs(parse_dimacs(text)) == text


def test_parse_dimacs_plain():
    f = parse_dimacs("c comment\nc var 2 X 0 1 2\np cnf 3 2\n1 -2 0\n2 3 0\n")
    assert f.variable_count == 3
    assert f.clauses == [[1, -2], [2, 3]]
    assert f.labels == [("aux", "dimacs", 1), ("X", 0, 1, 2), ("aux", "dimacs", 3)]


def test_parse_dimacs_errors():
    with pytest.raises(ValueError):
        parse_dimacs("1 2 0\n")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 1\n1 2\n")
    with pytest.raises(ValueError, match="negative"):
        parse_dimacs("p cnf -3 0\n")
    with pytest.raises(ValueError, match="negative"):
        parse_dimacs("p cnf 3 -1\n1 0\n")
    with pytest.raises(ValueError, match="declares 5 clauses, found 1"):
        parse_dimacs("p cnf 2 5\n1 0\n")
    with pytest.raises(ValueError, match="declares 1 clauses, found 2"):
        parse_dimacs("p cnf 2 1\n1 0\n-2 0\n")
    with pytest.raises(ValueError, match="line 3: second problem line"):
        parse_dimacs("p cnf 1 1\n1 0\np cnf 3 1\n")
    with pytest.raises(ValueError, match="line 2: .*'x'"):
        parse_dimacs("p cnf 2 1\n1 x 0\n")
    with pytest.raises(ValueError, match="line 2: .*'extra'"):
        parse_dimacs("p cnf 2 1\n1 2 0 extra\n")
    with pytest.raises(ValueError, match="line 1: .*'x'"):
        parse_dimacs("p cnf x 1\n")
    with pytest.raises(ValueError, match="line 3: .*'2.0'"):
        parse_dimacs("c two floats\np cnf 2 1\n1 2.0 0\n")


def test_parse_dimacs_rejects_empty_and_unallocated():
    # CnfFormula.add takes literals as given; DIMACS text is checked as read.
    with pytest.raises(ValueError, match="line 3: empty clause"):
        parse_dimacs("p cnf 1 2\n1 0\n0\n")
    with pytest.raises(ValueError, match="line 2: literal 2 beyond the 1 declared"):
        parse_dimacs("p cnf 1 1\n2 0\n")
    with pytest.raises(ValueError, match="line 2: literal -3 beyond the 2 declared"):
        parse_dimacs("p cnf 2 1\n1 -3 0\n")
