"""Regenerate `reference.json`, the optimal cost of every pool instance.

    python3 perfbench/make_reference.py

Each instance is solved by both solvers with a generous time limit; the
plans must pass `validate_plan` and the two costs must agree. The table is
made once, on a commit whose costs are trusted, and committed; the
benchmark then fails any run whose cost differs from it.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from capmapf import solvers  # noqa: E402
from capmapf.verify import validate_plan  # noqa: E402

import workloads  # noqa: E402


def optimal_cost(instance) -> int:
    costs = []
    for name in (solvers.EAGER, solvers.LAZY):
        report = solvers.solve(instance, name, solvers.Limits(time_limit_s=3600.0))
        if report.status != solvers.SOLVED or validate_plan(instance, report.plan):
            raise RuntimeError(f"{name}: no valid optimal plan ({report.status})")
        costs.append(report.optimal_cost)
    if costs[0] != costs[1]:
        raise RuntimeError(f"eager cost {costs[0]} != lazy cost {costs[1]}")
    return costs[0]


def main() -> int:
    costs = {}
    for name, workload in workloads.WORKLOADS.items():
        costs[name] = {}
        for key, instance in workloads.load_pool(workload):
            costs[name][key] = optimal_cost(instance)
            print(name, key, costs[name][key], file=sys.stderr)
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    ).stdout.strip() or None
    table = {"commit": commit, "python": platform.python_version(), "costs": costs}
    workloads.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
