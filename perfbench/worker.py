"""One solver in one fresh interpreter, driven pass by pass by `run.py`.

The worker sets up the pool, prints a ready line with its set-up time and
then reads commands from stdin, one per line:

    plain      solve the whole pool once, untraced; reply with the pass's wall time
    traced     the same under the tracer (see spans.py)
    finish     check every solve, print the final JSON line and exit

`run.py` alternates the eager and the lazy worker pass by pass, so both
solvers' samples spread over the whole run. With `--solver none` the worker
exits after the ready line, which gives `run.py` another set-up sample.

Every solve is checked after the timed passes: status, `validate_plan`, the
reported cost, and the reference optimal cost. A solve that raises is a
failed solve. No solve runs past `--solve-until`: the solves left then get
no time and fail, so a slow program shows as failed solves, not as a run
that never ends. The per-instance counts of all traced passes must be
equal, and the traced layers must agree with each other (see `LINKS`).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from capmapf import solvers  # noqa: E402
from capmapf.verify import validate_plan  # noqa: E402

import workloads  # noqa: E402
from spans import LAYER_OF, Tracer  # noqa: E402

SETUP_CALIBRATIONS = 9

# per-solve counts that must repeat exactly between traced passes
COUNT_KEYS = (
    "mdd.calls", "mdd.nodes", "mdd.arcs", "encoder.calls", "encoder.vars",
    "encoder.clauses", "encoder.conflict_clauses", "encoder.candidates",
    "cnf.at_most_k_calls", "satcore.load_calls", "satcore.solve_calls",
    "satcore.conflicts", "satcore.learned", "satcore.sat", "satcore.unsat",
    "satcore.unknown", "solvers.returned", "solvers.bounds", "solvers.refinements",
    "solvers.solved",
)


class Pass:
    """One pass over the pool: (pool index, seconds, report) per solve, and
    the calibration seconds measured just before each solve."""

    def __init__(self, number: int, traced: bool, first_solve_id: int):
        self.number = number
        self.traced = traced
        self.first_solve_id = first_solve_id  # tracer solve id of the pass's first solve
        self.solves: list[tuple[int, float, object]] = []
        self.calibration: list[float] = []
        self.wall = 0.0


_CAL_TABLE = {i: i * 7 for i in range(512)}


def calibrate() -> float:
    """Seconds for a fixed piece of interpreter work: integer arithmetic and
    dict lookups that allocate no containers, so neither the garbage collector
    nor the solver's heap can change how long it takes.

    Run before every solve; `run.py` scales each solve by the pass's median,
    which takes out the slow and fast spells of a shared machine.
    """
    table = _CAL_TABLE
    total = 0
    t = perf_counter()
    for i in range(12000):
        total += table[i & 511] ^ i
    return perf_counter() - t


def run_pass(pool, order, solver: str, p: Pass, tracer: Tracer | None, until: float) -> None:
    """Solve the pool once; each solve gets the time limit, cut to what is left before `until`."""
    started = perf_counter()
    for i in order:
        if tracer is not None:
            tracer.solve_id = p.first_solve_id + len(p.solves)
        p.calibration.append(calibrate())
        limits = solvers.Limits(time_limit_s=max(0.0, min(workloads.TIME_LIMIT_S, until - time.monotonic())))
        t = perf_counter()
        try:
            outcome = solvers.solve(pool[i][1], solver, limits)
        except Exception as exc:  # a raising solve is a failed solve, checked like any other
            outcome = exc
        p.solves.append((i, perf_counter() - t, outcome))
    p.wall = perf_counter() - started


def check(instance, report, expected: int) -> str | None:
    """Why the solve failed the correctness gate, or None if it passed."""
    if isinstance(report, Exception):
        return f"raised {report!r}"
    if report.status != solvers.SOLVED or report.plan is None:
        return f"status {report.status}"
    violations = validate_plan(instance, report.plan)
    if violations:
        return f"{len(violations)} rule violations, first {violations[0]}"
    if report.plan.sum_of_costs != report.optimal_cost:
        return f"plan costs {report.plan.sum_of_costs}, report says {report.optimal_cost}"
    if report.optimal_cost != expected:
        return f"cost {report.optimal_cost} != reference {expected}"
    return None


def summarise(pool, passes: list[Pass], reference) -> list[dict]:
    out = []
    for p in passes:
        first = len(out)
        for i, seconds, report in p.solves:
            key, instance = pool[i]
            failure = check(instance, report, reference[key])
            out.append({
                "instance": key, "pass": p.number, "traced": p.traced, "solve_s": seconds,
                "cal_s": p.calibration[len(out) - first],
                "cost": getattr(report, "optimal_cost", None), "ok": failure is None,
                "failure": failure,
            })
    return out


def per_solve_counts(tracer: Tracer) -> dict[int, dict[str, int]]:
    counts: dict[int, dict[str, int]] = {}
    for s in tracer.spans:
        if s.solve is None:
            continue
        c = counts.setdefault(s.solve, dict.fromkeys(COUNT_KEYS, 0))
        if s.name == "mdd.build_all_mdds":
            c["mdd.calls"] += 1
            c["mdd.nodes"] += s.counts.get("nodes", 0)
            c["mdd.arcs"] += s.counts.get("arcs", 0)
        elif s.name == "encoder.encode":
            c["encoder.calls"] += 1
            c["encoder.vars"] += s.counts.get("vars", 0)
            c["encoder.clauses"] += s.counts.get("clauses", 0)
        elif s.name == "encoder.conflict_clause":
            c["encoder.conflict_clauses"] += 1
        elif s.name == "encoder.extract_plan":
            c["encoder.candidates"] += 1
        elif s.name == "cnf.at_most_k":
            c["cnf.at_most_k_calls"] += 1
        elif s.name == "satcore.load":
            c["satcore.load_calls"] += s.counts.get("calls", 0)
        elif s.name == "satcore.search":
            c["satcore.solve_calls"] += 1
            c["satcore.conflicts"] += s.counts.get("conflicts", 0)
            c["satcore.learned"] += s.counts.get("learned", 0)
            for outcome in ("sat", "unsat", "unknown"):
                c["satcore." + outcome] += s.counts.get(outcome, 0)
        elif s.name == "solvers.solve" and s.counts:  # a call that raised has no counts
            c["solvers.returned"] += 1
            c["solvers.bounds"] += s.counts.get("bounds", 0)
            c["solvers.refinements"] += s.counts.get("refinements", 0)
            c["solvers.solved"] += s.counts.get("solved", 0)
    return counts


# Relations between the layers' counts that hold for every solve that returns.
# A layer whose calls stop being traced (a renamed function, a new call path)
# breaks one of them, so the traced run fails instead of reading 0 for it.
LINKS = (
    ("encoder.calls", ("solvers.bounds",)),            # one encoding per cost bound
    ("mdd.calls", ("solvers.bounds",)),                # one set of diagrams per encoding
    ("encoder.candidates", ("satcore.sat",)),          # every model is decoded
    ("satcore.load_calls", ("encoder.clauses", "solvers.refinements")),  # every clause is loaded
)


def link_failures(counts: dict[int, dict[str, int]]) -> list[str]:
    bad = set()
    for c in counts.values():
        if not c["solvers.returned"]:
            continue
        for left, right in LINKS:
            if c[left] != sum(c[k] for k in right):
                bad.add(f"traced {left} != {' + '.join(right)}")
    return sorted(bad)


def layer_report(tracer: Tracer, passes: list[Pass]) -> dict:
    """Per-solve means of every layer's self time and counts over the traced passes."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    n = sum(len(p.solves) for p in traced)
    times: dict[str, float] = {}
    parse_s = 0.0
    for s, self_s in zip(tracer.spans, tracer.self_times()):
        if s.solve is None:
            parse_s += self_s  # only set-up spans lie outside a solve
        else:
            times[LAYER_OF[s.name]] = times.get(LAYER_OF[s.name], 0.0) + self_s
    counts = per_solve_counts(tracer)
    totals = dict.fromkeys(COUNT_KEYS, 0)
    for c in counts.values():
        for k in COUNT_KEYS:
            totals[k] += c[k]
    layers = {name: t / n for name, t in times.items()}
    layers.update({k: v / n for k, v in totals.items()})
    search_s = times.get("satcore.search_s", 0.0)
    layers["satcore.conflicts_per_s"] = totals["satcore.conflicts"] / search_s if search_s else 0.0
    if totals["encoder.candidates"]:
        layers["solvers.candidate_yield"] = totals["solvers.solved"] / totals["encoder.candidates"]
    solve_wall = sum(seconds for p in traced for _, seconds, _ in p.solves)
    # the solve loop's own time is left out: it is whatever the layers below miss
    below = sum(t for name, t in times.items() if name != "solvers.self_s")
    layers["trace.coverage"] = below / solve_wall
    if plain:
        # pass walls in calibration units, so a slow spell of the machine is not overhead
        def rate(group):
            return sum(len(p.solves) for p in group) / sum(
                p.wall / statistics.median(p.calibration) for p in group)

        layers["trace.overhead"] = rate(plain) / rate(traced) - 1.0
    return {"layers": layers, "parse_s": parse_s, "counts": counts}


def repeat_mismatches(pool, passes: list[Pass], counts) -> list[str]:
    """Instances whose counts differ between traced passes."""
    first: dict[str, dict[str, int]] = {}
    bad = []
    for p in passes:
        if not p.traced:
            continue
        for n, (i, _, _) in enumerate(p.solves):
            key = pool[i][0]
            c = counts[p.first_solve_id + n]
            if key not in first:
                first[key] = c
            elif first[key] != c:
                diff = sorted(k for k in COUNT_KEYS if first[key][k] != c[k])
                bad.append(f"{key}: {', '.join(diff)}")
    return bad


def reply(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--solver", required=True, choices=["eager", "lazy", "none"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() when spawned")
    p.add_argument("--solve-until", type=float, required=True,
                   help="time.monotonic() after which solves get no more time")
    p.add_argument("--spans", type=Path, default=None, help="write traced spans here (JSONL)")
    args = p.parse_args(argv)
    if sys.flags.optimize:
        print("worker: interpreter checks are off (-O); refusing to measure", file=sys.stderr)
        return 2

    tracer = Tracer()
    tracer.install()  # records the parse spans of the set-up
    pool = workloads.load_pool(workloads.WORKLOADS[args.workload])
    tracer.uninstall()
    order = workloads.shuffled(len(pool), args.seed)
    setup_s = time.monotonic() - args.t0
    reply({"setup_s": setup_s, "cal_s": statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))})
    if args.solver == "none":
        return 0
    reference = workloads.load_reference()[args.workload]

    passes: list[Pass] = []
    traced_solves = 0
    for line in sys.stdin:
        command = line.strip()
        if command == "finish":
            break
        if command not in ("plain", "traced"):
            print(f"worker: unknown command {command!r}", file=sys.stderr)
            return 2
        current = Pass(len(passes), command == "traced", traced_solves)
        if current.traced:
            tracer.install()
            run_pass(pool, order, args.solver, current, tracer, args.solve_until)
            tracer.uninstall()
            traced_solves += len(current.solves)
        else:
            run_pass(pool, order, args.solver, current, None, args.solve_until)
        passes.append(current)
        reply({"pass_s": current.wall})

    out = {
        "optimize": sys.flags.optimize,
        "time_limit_s": workloads.TIME_LIMIT_S,
        "rows": summarise(pool, passes, reference),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced_solves:
        found = layer_report(tracer, passes)
        out["layers"] = found["layers"]
        out["parse_s"] = found["parse_s"]
        out["trace_problems"] = (
            [f"{name} not found, its layer is not traced" for name in tracer.missing]
            + link_failures(found["counts"])
            + [f"counts differ between traced passes: {m}"
               for m in repeat_mismatches(pool, passes, found["counts"])])
        if args.spans is not None:
            tracer.write(args.spans)
    reply(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
