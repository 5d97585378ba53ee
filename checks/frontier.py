"""The frontier: open-grid rows where the optimum lies above the lower bound
and a solve takes from a tenth of a second to more than a minute, each
solved with each solver in a fresh `python3 -O` process under a 60-s limit.

Per row and solver it prints one line of key=value fields: the status, the
cost, the number of cost bounds encoded, `SolveReport.lower_bound` (for a
row that times out, the progress measure: one above the last bound proven
UNSAT), the solve's wall time and the process's peak RSS. A row with a
pinned cost is checked against it; 16x16 k=60 s2 has none, as no solver
finishes it within a minute. It exits 1 when a solved row costs other than
its pin, or when a row's process fails. Obstacle rows are left out until
`generate_random` draws obstacles. Standard library only; it reads the
package from `src/` next to this directory:

    python3 checks/frontier.py

The pins are the optimal costs that `tests/test_solvers.py` checks its
frontier rows against.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"


class Row(NamedTuple):
    name: str
    args: tuple[int, int, int, int, int]  # generate_random(width, height, k, capacity, seed)
    pin: int | None  # the optimal cost, None where no solve has proven it


ROWS = [
    Row("8x8-k20-s1", (8, 8, 20, 1, 1), 114),
    Row("16x16-k40-s2", (16, 16, 40, 1, 2), 458),
    Row("12x12-k30-s105", (12, 12, 30, 1, 105), 233),
    Row("12x12-k36-s101", (12, 12, 36, 1, 101), 303),
    Row("12x12-k30-s101", (12, 12, 30, 1, 101), 251),
    Row("32x32-k40-s2", (32, 32, 40, 1, 2), 864),
    Row("16x16-k60-s2", (16, 16, 60, 1, 2), None),
]
SOLVERS = ("eager", "lazy")
SECONDS = 60.0  # the time limit of each solve


def solve_one(args: list[int], solver: str) -> dict:
    """Solve one row in this process: its report's fields, the solve's wall
    time and the process's peak RSS."""
    sys.path.insert(0, str(SRC))
    from capmapf import generate_random, solve
    from capmapf.solvers import Limits

    instance = generate_random(*args)
    started = time.monotonic()
    report = solve(instance, solver, Limits(time_limit_s=SECONDS))
    wall = time.monotonic() - started
    return {"status": report.status, "cost": report.optimal_cost,
            "bounds": len(report.iterations), "lower_bound": report.lower_bound,
            "wall_s": round(wall, 3),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def run(rows: list[Row], solvers: list[str]) -> int:
    """Solve every row with every solver, each in a fresh -O process, print
    a line per solve, and return 1 on a pin mismatch or a failed process."""
    failures = 0
    for row in rows:
        for solver in solvers:
            command = [sys.executable, "-O", __file__, "--one", solver, *map(str, row.args)]
            try:
                done = subprocess.run(command, capture_output=True, text=True,
                                      timeout=2 * SECONDS + 60)
                result = json.loads(done.stdout) if done.returncode == 0 else {
                    "status": f"failed:{done.returncode}"}
            except subprocess.TimeoutExpired:
                result = {"status": "killed"}
            fields = " ".join(f"{key}={value}" for key, value in result.items())
            print(f"{row.name} {solver} {fields} pin={row.pin}", flush=True)
            if result["status"] == "solved" and row.pin is not None and result["cost"] != row.pin:
                print(f"MISMATCH {row.name} {solver}: costs {result['cost']}, pinned {row.pin}")
                failures += 1
            elif result["status"] not in ("solved", "exhausted"):
                print(f"MISMATCH {row.name} {solver}: {result['status']}")
                failures += 1
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--one"]:  # one solve in this process: --one SOLVER W H K C SEED
        solver, *args = argv[1:]
        print(json.dumps(solve_one([int(a) for a in args], solver)))
        return 0
    return run(ROWS, list(SOLVERS))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
