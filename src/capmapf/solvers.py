"""The optimal cost-bound loop and its two posting policies for the
inter-agent rules: eager posts them all with each bound's encoding, lazy
posts an elimination clause only for each conflict a candidate plan shows."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import encoder, satcore
from .instance import Instance, validate_instance
from .pathcalc import UnsolvableInstanceError, cost_lower_bound
from .plans import CAPACITY, SWAP, Conflict, Plan

SOLVED = "solved"
EXHAUSTED = "exhausted"
UNSOLVABLE = "unsolvable"

EAGER = "eager"
LAZY = "lazy"


@dataclass(frozen=True)
class Limits:
    time_limit_s: float = 500.0        # wall clock for the whole solve call
    xi_ceiling: int | None = None      # default: xi_0 + |V| * k


@dataclass(slots=True)
class IterationStat:
    xi: int
    outcome: str          # sat / unsat / unknown
    refinements: int
    variables: int
    clauses: int
    time_s: float


@dataclass(slots=True)
class SolveReport:
    status: str
    plan: Plan | None = None
    optimal_cost: int | None = None
    iterations: list[IterationStat] = field(default_factory=list)

    @property
    def total_refinements(self) -> int:
        return sum(s.refinements for s in self.iterations)


def validate_candidate(instance: Instance, plan: Plan) -> list[Conflict]:
    """All capacity and swap conflicts in a candidate plan."""
    conflicts: list[Conflict] = []
    paths = plan.paths
    caps = instance.capacities
    horizon = plan.makespan
    for t in range(horizon + 1):
        occupancy: dict[int, list[int]] = {}
        for i, path in enumerate(paths):
            occupancy.setdefault(path[t], []).append(i)
        for v, occupants in sorted(occupancy.items()):
            if len(occupants) > caps[v]:
                conflicts.append(Conflict(CAPACITY, tuple(occupants), v, t))
    for t in range(horizon):
        moves: dict[tuple[int, int], list[int]] = {}
        for i, path in enumerate(paths):
            u, v = path[t], path[t + 1]
            if u != v:
                moves.setdefault((u, v), []).append(i)
        for (u, v), movers in moves.items():
            if u < v and (v, u) in moves:
                for i in movers:
                    for j in moves[(v, u)]:
                        conflicts.append(Conflict(SWAP, (i, j), (u, v), t))
    return conflicts


def solve(instance: Instance, solver: str = EAGER, limits: Limits | None = None,
          no_follow: bool = False) -> SolveReport:
    """Iterate cost bounds from the lower bound up; the first bound with a
    clean plan is the optimum.

    Eager posts every capacity and swap constraint up front, so its first
    satisfying model decodes to a clean plan, which it checks once.  Lazy
    posts one elimination clause per conflict a candidate plan shows and
    re-solves; the recorded conflicts carry over to every later bound.

    Raises InstanceError for an instance that `validate_instance` rejects.
    """
    validate_instance(instance)
    if solver not in (EAGER, LAZY):
        raise ValueError(f"unknown solver {solver!r}")
    if no_follow and solver != EAGER:
        raise ValueError("no-follow is only supported with the eager solver")
    limits = limits or Limits()
    deadline = time.monotonic() + limits.time_limit_s
    try:
        xi0 = cost_lower_bound(instance)
    except UnsolvableInstanceError:
        return SolveReport(UNSOLVABLE)
    report = SolveReport(EXHAUSTED)
    conflicts: list[Conflict] = []
    ceiling = limits.xi_ceiling
    if ceiling is None:
        ceiling = xi0 + instance.graph.vertex_count * instance.k
    for xi in range(xi0, ceiling + 1):
        sat = artifacts = result = candidate = None  # free the last bound before encoding this one
        started = time.monotonic()
        if started >= deadline:
            return report
        if solver == EAGER:
            artifacts = encoder.encode_complete(instance, xi, no_follow)
        else:
            artifacts = encoder.encode_basic(instance, xi, conflicts)
        if time.monotonic() >= deadline:  # do not load a bound encoded past the deadline
            return report
        sat = satcore.CdclSolver(artifacts.formula.variable_count)
        for clause in artifacts.formula.clauses:
            sat.add_clause(clause)
        refinements = 0
        plan = None
        while plan is None:
            result = sat.solve(time_limit=deadline - time.monotonic())
            if result.outcome != satcore.SAT:
                break
            candidate = encoder.extract_plan(instance, artifacts, result.model)
            found = validate_candidate(instance, candidate)
            if found and solver == EAGER:  # every rule was posted, so a model cannot break one
                raise encoder.EncodingSoundnessError(f"eager plan breaks {found[0]}")
            if not found:
                plan = candidate
            for conflict in found:
                conflicts.append(conflict)
                clause = encoder.conflict_clause(instance, artifacts.xs, conflict)
                if clause is None:  # decoded from this model: its agents are on nodes or settled
                    raise encoder.EncodingSoundnessError(f"no clause for fresh conflict {conflict}")
                sat.add_clause(clause)
                refinements += 1
        report.iterations.append(IterationStat(
            xi, result.outcome, refinements,
            artifacts.formula.variable_count, len(artifacts.formula.clauses) + refinements,
            time.monotonic() - started,
        ))
        if plan is not None:
            report.status = SOLVED
            report.plan = plan
            report.optimal_cost = plan.sum_of_costs
            return report
        if result.outcome == satcore.UNKNOWN:
            return report
    return report


def format_plan(report: SolveReport) -> str:
    """One line per time step `t: v(a_0) ... v(a_k-1)` plus a summary line."""
    plan = report.plan
    lines = []
    for t in range(plan.makespan + 1):
        lines.append(f"{t}: " + " ".join(str(path[t]) for path in plan.paths))
    lines.append(summary_line(plan))
    return "\n".join(lines) + "\n"


def summary_line(plan: Plan) -> str:
    """The `cost=... makespan=...` line that ends a formatted plan."""
    return f"cost={plan.sum_of_costs} makespan={plan.makespan}"


def parse_plan(text: str) -> tuple[Plan, str | None]:
    """Inverse of format_plan: the plan and its summary line (None if absent),
    whitespace-normalised so it compares equal to `summary_line(plan)`.

    Raises ValueError naming the line on a malformed row: a token that is not
    an integer, or a step label that is not the row's index (labels run 0, 1, 2, ...)."""
    rows: list[list[int]] = []
    summary = None
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("cost="):
            summary = " ".join(line.split())
            continue
        label, _, rest = line.partition(":")
        try:
            step, row = int(label), [int(tok) for tok in rest.split()]
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from None
        if step != len(rows):
            raise ValueError(f"line {ln}: step label {step} out of sequence, expected {len(rows)}")
        rows.append(row)
    if not rows:
        raise ValueError("empty plan")
    k = len(rows[0])
    if any(len(r) != k for r in rows):
        raise ValueError("ragged plan rows")
    return Plan(tuple(tuple(row[i] for row in rows) for i in range(k))), summary
