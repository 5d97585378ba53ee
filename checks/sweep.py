"""Differential sweep: eager, lazy and eager under no-follow on seeded random
grids, checked against each other, the plan validator and the oracle.

The instances are the 162 open grids `generate_random(w, w, 4 + s % 6, c, s)`
for w = 4-6, c = 1-3 and s = 0-17, and 120 crowded tiny grids within the
brute-force oracle's limits (at most 3 agents, 12 vertices and 8 steps),
`generate_random(w, h, 3, c, s)` for 2x2, 3x2 and 3x3, c = 1-2 and s = 0-19.
On 22 of those the root plan is unclean; the lifted plan settles 3 of them,
and on the other 19 the solvers encode a bound.
The sweep fails when
- eager and lazy differ in status, cost or number of cost bounds;
- no-follow, which only forbids plans, solves where eager does not or costs
  less than eager;
- a returned plan breaks a rule (`validate_plan`) or does not cost what the
  report says;
- on a tiny grid, a solve's cost is not the oracle's. Those solves stop at
  the highest cost bound at which every plan fits the oracle's horizon;
- on a tiny grid with a cardinal lift and an optimal plan from the oracle,
  an agent's delay in that plan exceeds its budget, (xi* - xi0) - cut_i,
  where cut_i is the lift less 1 for an agent the lift counted and the lift
  for any other: the cuts by which the solvers end each agent's diagram.

It prints one line per mismatch, then the number of eager and lazy solves
that the lifted plan settled (`solve` returned a plan above xi0 without
encoding a bound), the number of budgets checked and of those the oracle's
plan meets exactly, and a sha256 digest of the table of
(status, cost, bounds) per instance and setting, so two revisions can be
compared by their digests, and exits 1 on any mismatch or when the digest
is not `TABLE_DIGEST`, so a change to any row fails. Standard library only;
it reads the package from `src/` next to this directory:

    python3 -O checks/sweep.py
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from capmapf import generate_random, solve, validate_plan  # noqa: E402
from capmapf.pathcalc import UnsolvableInstanceError, agent_path_costs, cardinal_lift  # noqa: E402
from capmapf.solvers import EAGER, LAZY, SOLVED, Limits  # noqa: E402
from capmapf.verify import ORACLE_MAX_HORIZON, OPTIMAL, brute_force_optimal  # noqa: E402

TIME_LIMIT_S = 60.0
TABLE_DIGEST = "b979f4adbf621aa2e7373e2e9d2d19ff75003afdec688c938c3c571db894f648"
NO_FOLLOW = "no-follow"


def sweep_instances():
    """(name, instance, oracle) for every instance of the sweep; oracle is
    False for the grids too large for it."""
    for w in (4, 5, 6):
        for c in (1, 2, 3):
            for s in range(18):
                yield f"{w}x{w}-k{4 + s % 6}-c{c}-s{s}", generate_random(w, w, 4 + s % 6, c, s), False
    for w, h in ((2, 2), (3, 2), (3, 3)):
        for c in (1, 2):
            for s in range(20):
                yield f"{w}x{h}-k3-c{c}-s{s}", generate_random(w, h, 3, c, s), True


def oracle_ceiling(instance) -> int | None:
    """The cost bound up to which every plan fits the oracle's horizon."""
    try:
        costs = agent_path_costs(instance)
    except UnsolvableInstanceError:
        return None
    return sum(costs) + ORACLE_MAX_HORIZON - max(costs)


def budget_mismatches(name, instance, best) -> tuple[list[str], int, int]:
    """Each agent's delay in the oracle's optimal plan `best` against its
    budget: the mismatches, the budgets checked and those met exactly. None
    is checked where the lift is 0, as every budget is then the slack."""
    lift, counted = cardinal_lift(instance)
    if not lift:
        return [], 0, 0
    costs = agent_path_costs(instance)
    slack = best.cost - sum(costs)
    bad, exact = [], 0
    for i, (c, arrival, is_counted) in enumerate(zip(costs, best.plan.arrivals, counted)):
        budget = slack - (lift - 1 if is_counted else lift)
        if arrival - c > budget:
            bad.append(f"{name}: agent {i} is delayed by {arrival - c} in the oracle's plan, "
                       f"past its budget {budget}")
        exact += arrival - c == budget
    return bad, len(costs), exact


def check(name, instance, oracle) -> tuple[list[str], list[str], Counter]:
    """The instance's table rows, its mismatches, and a tally of its eager
    and lazy solves the lifted plan settled and of the budgets checked
    against the oracle and met exactly there."""
    ceiling = oracle_ceiling(instance) if oracle else None
    limits = Limits(time_limit_s=TIME_LIMIT_S, xi_ceiling=ceiling)
    reports = {EAGER: solve(instance, EAGER, limits), LAZY: solve(instance, LAZY, limits),
               NO_FOLLOW: solve(instance, EAGER, limits, no_follow=True)}
    rows = [f"{name} {setting} {r.status} {r.optimal_cost} {len(r.iterations)}"
            for setting, r in reports.items()]
    bad = []
    eager, lazy, no_follow = reports[EAGER], reports[LAZY], reports[NO_FOLLOW]
    if (eager.status, eager.optimal_cost, len(eager.iterations)) != (
            lazy.status, lazy.optimal_cost, len(lazy.iterations)):
        bad.append(f"{name}: eager and lazy differ")
    if no_follow.status == SOLVED and (
            eager.status != SOLVED or no_follow.optimal_cost < eager.optimal_cost):
        bad.append(f"{name}: no-follow solves below eager")
    for setting, r in reports.items():
        if r.status == SOLVED and (validate_plan(instance, r.plan)
                                   or r.plan.sum_of_costs != r.optimal_cost):
            bad.append(f"{name}: {setting} returns a plan that breaks a rule or its cost")
    tally = Counter(settled=sum(
        r.status == SOLVED and not r.iterations and r.optimal_cost > sum(agent_path_costs(instance))
        for r in (eager, lazy)))
    if oracle:
        best = brute_force_optimal(instance, ORACLE_MAX_HORIZON)
        expected = best.cost if best.status == OPTIMAL and best.cost <= ceiling else None
        for setting in (EAGER, LAZY):
            if reports[setting].optimal_cost != expected:
                bad.append(f"{name}: {setting} costs {reports[setting].optimal_cost}, "
                           f"the oracle {expected}")
        if best.status == OPTIMAL:
            over, tally["budgets"], tally["exact"] = budget_mismatches(name, instance, best)
            bad += over
    return rows, bad, tally


def main() -> int:
    digest = hashlib.sha256()
    mismatches = instances = 0
    tally = Counter()
    for name, instance, oracle in sweep_instances():
        rows, bad, counts = check(name, instance, oracle)
        digest.update("".join(row + "\n" for row in rows).encode())
        for line in bad:
            print(f"MISMATCH {line}")
        mismatches += len(bad)
        instances += 1
        tally.update(counts)
    print(f"{tally['settled']} eager and lazy solves settled by the lifted plan, without a bound")
    print(f"{tally['budgets']} agents' budgets checked against the oracle, {tally['exact']} met exactly")
    print(f"{instances} instances, {mismatches} mismatches, table sha256 {digest.hexdigest()}")
    if digest.hexdigest() != TABLE_DIGEST:
        print(f"MISMATCH table sha256, expected {TABLE_DIGEST}")
        return 1
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
