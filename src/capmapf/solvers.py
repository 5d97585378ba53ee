"""The optimal cost-bound loop, one for both solvers, which differ only in
the inter-agent rule groups posted up front: all of them for eager (the
complete model), none for lazy (the basic model), where `encoder.refine`
posts a swap's elimination clause per swap conflict and a vertex's capacity
group at its first capacity conflict.

Before the loop, plans that meet a proven lower bound are tried without
SAT: the root plan at xi0, and, where the root is unclean, a prioritized
plan that delays the agents by at most `pathcalc.cardinal_lift` steps in
total (`pathcalc.prioritized_plan`) at xi0 plus the lift. The loop starts
at xi0, or at that lifted bound once the root is found unclean, and the
lift's counted agents also give each agent a cost budget: at slack delta
agent i's diagram ends at c_i + delta - cut_i, where cut_i, the lift less
1 for a counted agent and the lift for any other, is a lower bound on the
other agents' delays together. Every plan of cost <= xi keeps to its
budget, so an UNSAT bound still proves that none fits. One SAT solver and one
`encoder.Encoding` serve a whole solve. The first bound grows the encoding
from nothing to its slack and every later bound by one slack step; each
loads only the clauses it adds, and asks the solver under the bound's own
literals as assumptions; clauses, learned ones included, carry over to
every later bound."""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, field

from . import encoder, satcore
from .instance import Instance, validate_instance
from .pathcalc import UnsolvableInstanceError, cardinal_lift, cost_lower_bound, prioritized_plan
from .plans import CAPACITY, SWAP, Conflict, Plan

SOLVED = "solved"
EXHAUSTED = "exhausted"
UNSOLVABLE = "unsolvable"

EAGER = "eager"
LAZY = "lazy"


class LiftSoundnessError(AssertionError):
    """A clean plan that costs less than xi0 plus `cardinal_lift`, which
    should be a lower bound on every valid plan's cost."""


@dataclass(frozen=True)
class Limits:
    time_limit_s: float = 500.0        # wall clock for the whole solve call
    xi_ceiling: int | None = None      # default: xi_0 + |V| * k


@dataclass(slots=True)
class IterationStat:
    xi: int
    outcome: str          # sat / unsat / unknown
    refinements: int      # clauses lazy posted between solve() calls
    variables: int        # variables the bound allocated, refinements' counters included
    clauses: int          # clauses the bound loaded, refinements included
    time_s: float


@dataclass(slots=True)
class SolveReport:
    """How a solve ended, with one IterationStat per cost bound it encoded;
    `iterations` is empty when the root plan settled the instance.

    `lower_bound` is the proven lower bound on the optimum: the loop's first
    bound when it starts, one above each bound answered UNSAT, the cost once
    solved (xi0 when the root settles the instance), and None for an
    unsolvable instance. An exhausted solve states how far it got."""

    status: str
    plan: Plan | None = None
    optimal_cost: int | None = None
    iterations: list[IterationStat] = field(default_factory=list)
    lower_bound: int | None = None

    @property
    def total_refinements(self) -> int:
        return sum(s.refinements for s in self.iterations)


def validate_candidate(instance: Instance, plan: Plan) -> list[Conflict]:
    """All capacity and swap conflicts in a candidate plan."""
    return list(_conflicts(instance, plan))


def _conflicts(instance: Instance, plan: Plan) -> Iterator[Conflict]:
    """A plan's capacity conflicts step by step, then its swap conflicts."""
    caps = instance.capacities
    k = len(plan.paths)
    steps = list(zip(*plan.paths))  # steps[t][i]: agent i's vertex at step t
    for t, here in enumerate(steps):
        if len(set(here)) == k:  # every agent alone on its vertex; capacities are >= 1
            continue
        occupancy: dict[int, list[int]] = {}
        for i, v in enumerate(here):
            occupancy.setdefault(v, []).append(i)
        for v, occupants in sorted(occupancy.items()):
            if len(occupants) > caps[v]:
                yield Conflict(CAPACITY, tuple(occupants), v, t)
    for t in range(len(steps) - 1):
        moves: dict[tuple[int, int], list[int]] = {}
        for i, move in enumerate(zip(steps[t], steps[t + 1])):
            if move[0] != move[1]:
                moves.setdefault(move, []).append(i)
        for (u, v), movers in moves.items():
            if u < v and (v, u) in moves:
                for i in movers:
                    for j in moves[(v, u)]:
                        yield Conflict(SWAP, (i, j), (u, v), t)


def solve(instance: Instance, solver: str = EAGER, limits: Limits | None = None,
          no_follow: bool = False) -> SolveReport:
    """Iterate cost bounds from a lower bound up; the first bound with a
    clean plan is the optimum.

    Before the first bound, the root plan (`Instance.root_plan`) is checked:
    each agent's shortest path, planned in priority order to keep clear of
    the capacities and swaps of the agents before it. When it has no
    capacity or swap conflict it costs the lower bound xi0 and is returned
    as SOLVED without encoding anything, so `iterations` stays empty. An
    unclean root gives the lower bound xi0 + `cardinal_lift`, the agents that
    forced conflicts of the shortest paths must delay. Where the lift is
    positive and the first bound would run, the prioritized planner is asked
    for a plan that delays the agents by at most the lift in total
    (`prioritized_plan`); a clean one costs at most that bound, so it is
    returned as SOLVED at xi0 + lift, again with no iterations, and one that
    costs less raises LiftSoundnessError, as the lift is then not a lower
    bound. The plan is made on every such solve, not cached. Otherwise the
    loop starts at the lifted bound, cuts each agent's diagrams by the
    lift's proven delays of the other agents (the lift less 1 for an agent
    it counted, the lift for any other), and seeds the first bound's phases
    (`CdclSolver.prefer`): a decision on one of its nodes or settled flags
    sets it true, so the first descent follows the root's paths where the
    clauses allow; each root path is a shortest path, so it fits its cut
    diagrams. The lift is computed only then, so a solve the root settles
    pays nothing for it. Under no-follow, which `validate_candidate` does
    not check, or wherever the first bound would not run (past the ceiling
    or the deadline), the root is neither built nor seeded, no lifted plan
    is made, no diagram is cut, and the loop starts at xi0.

    The solver names the rule groups the one encoding posts up front, every
    group for eager and none for lazy. The first bound grows it from nothing
    to its slack, each later bound by one slack step (`onto=`), and each
    loads its new clauses into the one SAT solver, which answers under the
    bound's literals as assumptions. Each model decodes to a candidate; a
    clean one is the optimum, and for any other `encoder.refine`'s clauses
    are loaded and the bound is asked again. A conflict against a group
    posted up front, any conflict under eager, raises there. The kept
    clauses admit every valid plan, so a contradiction among them raises
    EncodingSoundnessError. `SolveReport.lower_bound` follows the loop.

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
    ceiling = limits.xi_ceiling
    if ceiling is None:
        ceiling = xi0 + instance.graph.vertex_count * instance.k
    root = cuts = None
    first = xi0
    if not no_follow and xi0 <= ceiling and time.monotonic() < deadline:
        root = instance.root_plan
        if next(_conflicts(instance, root), None) is None:  # the lower bound is attained
            return SolveReport(SOLVED, root, xi0, lower_bound=xi0)
        lift, counted = cardinal_lift(instance)
        first += lift
        cuts = [lift - 1 if c else lift for c in counted]
        if lift and first <= ceiling and time.monotonic() < deadline:
            plan = prioritized_plan(instance, lift)
            if plan is not None and next(_conflicts(instance, plan), None) is None:
                if plan.sum_of_costs < first:
                    raise LiftSoundnessError(f"a clean plan costs {plan.sum_of_costs}, below the"
                                             f" lifted bound {first}")
                return SolveReport(SOLVED, plan, first, lower_bound=first)
    report = SolveReport(EXHAUSTED, lower_bound=first)
    mode, encode = ((encoder.COMPLETE, encoder.encode_complete) if solver == EAGER
                    else (encoder.BASIC, encoder.encode_basic))
    encoding = encoder.Encoding(instance, mode, no_follow, cuts)
    sat = satcore.CdclSolver()
    for xi in range(first, ceiling + 1):
        started = time.monotonic()
        if started >= deadline:
            return report
        variables = encoding.formula.variable_count
        encode(instance, xi, onto=encoding)
        if time.monotonic() >= deadline:  # do not load a bound encoded past the deadline
            return report
        sat.reserve(encoding.formula.variable_count)
        if xi == first and root is not None:  # the first bound's decisions follow the unclean root
            sat.prefer(encoding.plan_literals(root))
        for clause in encoding.formula.clauses:
            sat.add_clause(clause)
        assumptions = encoding.bound_literals(encoding.delta)
        refinements = 0
        plan = None
        while True:
            result = sat.solve(time_limit=deadline - time.monotonic(), assumptions=assumptions)
            if result.outcome != satcore.SAT:
                break
            candidate = encoder.extract_plan(instance, encoding, result.model)
            found = validate_candidate(instance, candidate)
            if not found:
                plan = candidate
                break
            clauses = encoder.refine(encoding, found)
            for clause in clauses:
                sat.add_clause(clause)
            refinements += len(clauses)
        if sat.contradiction:  # every valid plan satisfies the clauses kept across bounds
            raise encoder.EncodingSoundnessError(f"the clauses kept at bound {xi} contradict")
        report.iterations.append(IterationStat(
            xi, result.outcome, refinements,
            encoding.formula.variable_count - variables,
            len(encoding.formula.clauses) + refinements,
            time.monotonic() - started,
        ))
        if plan is not None:
            report.status = SOLVED
            report.plan = plan
            report.optimal_cost = report.lower_bound = plan.sum_of_costs
            return report
        if result.outcome == satcore.UNKNOWN:
            return report
        report.lower_bound = xi + 1
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
