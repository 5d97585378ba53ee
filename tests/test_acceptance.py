"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS line (visible with ``pytest -s``) after its
assertions hold; a failing test is the corresponding FAIL.
"""

import csv
import statistics
import time
from pathlib import Path

import pytest

from capmapf import (
    CapacityMap,
    Instance,
    at_most_k,
    brute_force_optimal,
    cost_lower_bound,
    encode_complete,
    generate_random,
    parse_dimacs,
    parse_map,
    serialize_map,
    solve,
    to_dimacs,
    validate_plan,
)
from capmapf.cli import BENCH_HEADER, bench_row
from capmapf.mdd import HorizonContractError, compute_horizon
from capmapf.pathcalc import UnsolvableInstanceError, agent_path_costs
from capmapf.satcore import SAT, UNSAT, CdclSolver
from capmapf.solvers import EAGER, LAZY, SOLVED, Limits
from capmapf.verify import OPTIMAL, UNSOLVABLE_WITHIN_BOUND

from conftest import make_instance, p3_swap, path_graph
from test_cnf import projected_models_match
from test_satcore import bitset_sat, model_satisfies, php_clauses

ORACLE_HORIZON = 8
ARTIFACTS = Path(__file__).parent / "_artifacts"


def _solver_ceiling(instance: Instance) -> int | None:
    """Cost bound below which any plan fits within the oracle's horizon."""
    try:
        costs = agent_path_costs(instance)
    except UnsolvableInstanceError:
        return None
    return sum(costs) + (ORACLE_HORIZON - max(costs, default=0))


def test_criterion_1_oracle_equivalence(corpus):
    assert len(corpus) >= 200
    started = time.monotonic()
    optimal = unsolvable = 0
    for name, inst in corpus:
        oracle = brute_force_optimal(inst, ORACLE_HORIZON)
        ceiling = _solver_ceiling(inst)
        limits = Limits(time_limit_s=60, xi_ceiling=ceiling)
        eager = solve(inst, EAGER, limits)
        lazy = solve(inst, LAZY, limits)
        if oracle.status == OPTIMAL:
            optimal += 1
            assert eager.status == lazy.status == SOLVED, name
            assert eager.optimal_cost == lazy.optimal_cost == oracle.cost, name
        else:
            assert oracle.status == UNSOLVABLE_WITHIN_BOUND, name
            unsolvable += 1
            # any solution at xi <= ceiling would fit in the oracle's horizon
            assert eager.status != SOLVED, name
            assert lazy.status != SOLVED, name
    elapsed = time.monotonic() - started
    assert elapsed < 300
    print(f"\n[criterion 1] oracle equivalence: PASS "
          f"({optimal} optimal + {unsolvable} unsolvable-within-bound "
          f"over {len(corpus)} instances, {elapsed:.1f}s)")


def test_criterion_2_cross_solver_agreement():
    runs = [(seed, k, c) for seed in range(17) for k in (5, 10) for c in (1, 2, 3)]
    runs = runs[:100]
    completed = agreed = 0
    started = time.monotonic()
    for seed, k, c in runs:
        inst = generate_random(8, 8, k, c, seed)
        eager = solve(inst, EAGER, Limits(time_limit_s=10))
        lazy = solve(inst, LAZY, Limits(time_limit_s=10))
        if eager.status != SOLVED or lazy.status != SOLVED:
            continue
        completed += 1
        assert eager.optimal_cost == lazy.optimal_cost, (seed, k, c)
        assert validate_plan(inst, eager.plan) == [], (seed, k, c)
        assert validate_plan(inst, lazy.plan) == [], (seed, k, c)
        agreed += 1
    elapsed = time.monotonic() - started
    assert completed >= 95
    print(f"\n[criterion 2] cross-solver agreement: PASS "
          f"({agreed}/{len(runs)} runs completed and agreed, {elapsed:.1f}s)")


def test_criterion_3_capacity_relaxation_monotone(corpus):
    bases = [(name, inst) for name, inst in corpus if "-c1-" in name]
    checked = 0
    for name, inst in bases:
        reports = []
        for c in (1, 2, 3):
            variant = Instance(inst.graph, CapacityMap.uniform(inst.graph, c),
                               inst.agents)
            ceiling = _solver_ceiling(variant)
            reports.append(solve(variant, EAGER, Limits(time_limit_s=60,
                                                        xi_ceiling=ceiling)))
        for lower, higher in zip(reports, reports[1:]):
            if lower.status == SOLVED:
                assert higher.status == SOLVED, name
                assert higher.optimal_cost <= lower.optimal_cost, name
        checked += 1
    print(f"\n[criterion 3] capacity relaxation monotone: PASS "
          f"({checked} base instances at c=1,2,3)")


def test_criterion_4_swap_fixture():
    narrow = p3_swap()
    assert brute_force_optimal(narrow, ORACLE_HORIZON).status == UNSOLVABLE_WITHIN_BOUND
    limits = Limits(xi_ceiling=_solver_ceiling(narrow))
    assert solve(narrow, EAGER, limits).status != SOLVED
    assert solve(narrow, LAZY, limits).status != SOLVED

    wide = p3_swap(middle_capacity=2)
    oracle = brute_force_optimal(wide, ORACLE_HORIZON)
    eager = solve(wide, EAGER)
    lazy = solve(wide, LAZY)
    assert oracle.status == OPTIMAL
    assert oracle.cost == eager.optimal_cost == lazy.optimal_cost == 4
    assert validate_plan(wide, eager.plan) == []
    print("\n[criterion 4] swap fixture: PASS "
          "(unsolvable at c=1; cost 4 with wide middle, all engines agree)")


def test_criterion_5_cardinality_exhaustive():
    started = time.monotonic()
    for n in range(1, 9):
        for k in range(n + 1):
            assert projected_models_match(n, k), (n, k)
    elapsed = time.monotonic() - started
    assert elapsed < 10
    print(f"\n[criterion 5] cardinality encoding: PASS "
          f"(exhaustive n<=8, all bounds, {elapsed:.1f}s)")


def test_criterion_6_horizon_formula():
    single = make_instance(path_graph(4), 1, [(0, 3)])
    assert compute_horizon(single, 3) == 3          # no slack
    assert compute_horizon(single, 5) == 5          # slack 2

    hetero = make_instance(path_graph(4), 1, [(0, 1), (0, 3)])
    assert compute_horizon(hetero, 4) == 3          # max shortest path dominates
    assert compute_horizon(hetero, 6) == 5          # slack lifts the longest agent

    with pytest.raises(HorizonContractError):
        compute_horizon(single, 2)                  # below the lower bound
    print("\n[criterion 6] horizon formula: PASS (tight, heterogeneous, slack cases)")


def test_criterion_7_congestion_trend():
    ARTIFACTS.mkdir(exist_ok=True)
    rows = []
    refinements: dict[int, list[int]] = {1: [], 2: []}
    clauses: dict[int, list[int]] = {1: [], 2: []}
    started = time.monotonic()
    for seed in range(100, 120):
        for c in (1, 2):
            inst = generate_random(8, 8, 12, c, seed)
            t0 = time.monotonic()
            report = solve(inst, LAZY, Limits(time_limit_s=30))
            elapsed = time.monotonic() - t0
            rows.append(bench_row(f"g8x8-k12-s{seed}", LAZY, c, 12, report, elapsed))
            if report.status == SOLVED:
                refinements[c].append(report.total_refinements)
                if report.iterations:  # a root-settled report encoded no bound
                    clauses[c].append(report.iterations[-1].clauses)
    out = ARTIFACTS / "congestion.csv"
    with out.open("w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=BENCH_HEADER, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    assert out.exists() and len(rows) == 40
    med_ref = {c: statistics.median(v) for c, v in refinements.items() if v}
    med_cls = {c: statistics.median(v) for c, v in clauses.items() if v}
    total = time.monotonic() - started
    print(f"\n[criterion 7] congestion trend: PASS (artifact {out}; "
          f"median refinements c1={med_ref.get(1)} c2={med_ref.get(2)}, "
          f"median clauses c1={med_cls.get(1)} c2={med_cls.get(2)}, {total:.1f}s)")


def test_criterion_8_sat_core():
    import random

    started = time.monotonic()
    rng = random.Random(987)
    for _ in range(200):
        n = rng.randint(5, 20)
        m = rng.randint(n, 4 * n)
        formula = []
        for _ in range(m):
            vs = rng.sample(range(1, n + 1), min(3, n))
            formula.append([v if rng.random() < 0.5 else -v for v in vs])
        expected = bitset_sat(n, formula)
        solver = CdclSolver()
        for clause in formula:
            solver.add_clause(clause)
        result = solver.solve()
        assert (result.outcome == SAT) == expected
        if result.outcome == SAT:
            assert model_satisfies(formula, result.model)

    solver = CdclSolver()
    for clause in php_clauses(3, 2):
        solver.add_clause(clause)
    assert solver.solve().outcome == UNSAT

    for xi in (4, 5, 6):
        artifacts = encode_complete(p3_swap(), xi)
        solver = CdclSolver()
        for clause in artifacts.formula.clauses:
            solver.add_clause(clause)
        assert solver.solve().outcome == UNSAT, xi
    elapsed = time.monotonic() - started
    assert elapsed < 60
    print(f"\n[criterion 8] SAT core: PASS "
          f"(200 random formulas vs truth table, pigeonhole, "
          f"pathfinding UNSAT fixtures, {elapsed:.1f}s)")


def test_criterion_9_round_trips():
    map_text = (Path(__file__).parent / "fixtures" / "tiny.map").read_text()
    assert serialize_map(parse_map(map_text)) == map_text
    walled = "type octile\nheight 2\nwidth 3\nmap\n.@.\n...\n"
    assert serialize_map(parse_map(walled)) == walled

    inst = make_instance(path_graph(3), 1, [(0, 2)])
    dimacs = to_dimacs(encode_complete(inst, 3).formula)
    assert to_dimacs(parse_dimacs(dimacs)) == dimacs
    print("\n[criterion 9] format round trips: PASS (map and DIMACS byte-stable)")
