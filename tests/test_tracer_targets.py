import importlib
from collections.abc import Sized
from pathlib import Path

from capmapf import CdclSolver, cost_lower_bound, encode_complete, generate_random, solve
from capmapf.mdd import build_all_mdds
from capmapf.satcore import SAT
from capmapf.solvers import SOLVED

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_finds_every_target(monkeypatch):
    """Every function the benchmark's tracer wraps still exists, so a traced
    run (`perfbench/run.py --trace 1`) does not refuse to measure."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    assert spans.Tracer().missing == []


def test_benchmark_tracer_finds_every_attribute():
    """The attributes the tracer counts from exist on real results. It reads
    the solver's counters through `getattr` defaults, so without this test a
    renamed counter would read as zero."""
    inst = generate_random(4, 4, 7, 1, 100)
    report = solve(inst)
    artifacts = encode_complete(inst, report.optimal_cost)
    assert artifacts.formula.variable_count > 0 and artifacts.formula.clauses
    for m in build_all_mdds(inst, report.optimal_cost - cost_lower_bound(inst)):
        assert m.levels and m.arcs
    sat = CdclSolver(artifacts.formula.variable_count)
    for clause in artifacts.formula.clauses:
        sat.add_clause(clause)
    assert sat.solve().outcome == SAT
    assert isinstance(sat.conflicts_total, int) and isinstance(sat.learned, Sized)
    assert report.status == SOLVED and report.optimal_cost is not None
    assert report.iterations and report.total_refinements == 0
