"""Command-line surface: solve, bench, export-cnf, validate, sat.

Exit codes: 0 success, 1 error (a malformed flag included), 2 resource
exhausted.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time

from . import cnf, encoder, satcore, solvers, verify
from .instance import (
    CapacityMap,
    Instance,
    generate_random,
    load_capacities,
    parse_map,
    parse_scenario,
    validate_instance,
)
from .pathcalc import UnsolvableInstanceError, cost_lower_bound

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EXHAUSTED = 2


class UsageError(Exception):
    pass


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--map", help="movingai .map file")
    p.add_argument("--scen", help="movingai .scen file")
    p.add_argument("--agents", type=int, help="number of agents to take from the scenario")
    p.add_argument("--capacity", type=int, help="uniform vertex capacity")
    p.add_argument("--capacity-file", help="per-vertex capacity file")


def _build_instance(args) -> Instance:
    if not args.map or not args.scen:
        raise UsageError("--map and --scen are required")
    if args.capacity is not None and args.capacity_file:
        raise UsageError("--capacity and --capacity-file are mutually exclusive")
    if args.capacity is not None and args.capacity < 1:
        raise UsageError(f"--capacity must be >= 1, got {args.capacity}")
    with open(args.map, encoding="utf-8") as f:
        graph = parse_map(f.read())
    with open(args.scen, encoding="utf-8") as f:
        agents = parse_scenario(f.read(), graph)
    if args.agents is not None:
        if args.agents < 1:
            raise UsageError(f"--agents must be >= 1, got {args.agents}")
        if args.agents > len(agents):
            raise UsageError(f"scenario has only {len(agents)} agents")
        agents = agents[: args.agents]
    if args.capacity_file:
        with open(args.capacity_file, encoding="utf-8") as f:
            caps = load_capacities(f.read(), graph)
    else:
        caps = CapacityMap.uniform(graph, args.capacity if args.capacity is not None else 1)
    instance = Instance(graph, caps, tuple(agents))
    validate_instance(instance)
    return instance


def cmd_solve(args) -> int:
    instance = _build_instance(args)
    limits = solvers.Limits(time_limit_s=args.timeout)
    report = solvers.solve(instance, args.solver, limits, no_follow=args.no_follow)
    if report.status == solvers.SOLVED:
        sys.stdout.write(solvers.format_plan(report))
        return EXIT_OK
    if report.status == solvers.UNSOLVABLE:
        print("unsolvable: some goal is unreachable", file=sys.stderr)
        return EXIT_ERROR
    print("resource exhausted", file=sys.stderr)
    return EXIT_EXHAUSTED


BENCH_HEADER = ["instance", "solver", "capacity", "k", "outcome", "cost", "time_s",
                "vars", "clauses", "vars_total", "clauses_total", "refinements"]


def bench_row(name: str, solver: str, capacity: int, k: int,
              report: solvers.SolveReport, elapsed: float) -> dict:
    """One `bench` CSV row: `vars` and `clauses` are what the last bound
    added, refinements included; the `_total` columns sum them over every
    bound the solve encoded, which makes them the solve's totals."""
    last = report.iterations[-1] if report.iterations else None
    if report.status == solvers.SOLVED:
        outcome = "solved"
    elif report.status == solvers.UNSOLVABLE:
        outcome = "unsolvable"
    else:
        outcome = "timeout"
    return {
        "instance": name,
        "solver": solver,
        "capacity": capacity,
        "k": k,
        "outcome": outcome,
        "cost": report.optimal_cost if report.optimal_cost is not None else "",
        "time_s": f"{elapsed:.3f}",
        "vars": last.variables if last else 0,
        "clauses": last.clauses if last else 0,
        "vars_total": sum(s.variables for s in report.iterations),
        "clauses_total": sum(s.clauses for s in report.iterations),
        "refinements": report.total_refinements,
    }


def run_bench(args) -> list[dict]:
    """Every cell's instance is generated before the first solve, so a bad
    cell fails the run before any solving starts."""
    width, height = args.grid
    cells = [(capacity, k, seed, generate_random(width, height, k, capacity, seed))
             for capacity in args.capacities for k in args.agent_counts
             for seed in range(args.seed, args.seed + args.count)]
    rows = []
    for capacity, k, seed, instance in cells:
        name = f"g{width}x{height}-k{k}-s{seed}"
        for solver_name in args.solvers:
            limits = solvers.Limits(time_limit_s=args.timeout)
            started = time.monotonic()
            report = solvers.solve(instance, solver_name, limits)
            elapsed = time.monotonic() - started
            rows.append(bench_row(name, solver_name, capacity, k, report, elapsed))
    rows.sort(key=lambda r: (r["instance"], r["solver"], r["capacity"]))
    return rows


def _sorted_table(rows: list[dict]) -> str:
    """Per (solver, capacity) column of ascending runtimes over solved runs."""
    columns: dict[str, list[float]] = {}
    for row in rows:
        if row["outcome"] != "solved":
            continue  # runs beyond the time limit are excluded from the curves
        key = f"{row['solver']}_c{row['capacity']}"
        columns.setdefault(key, []).append(float(row["time_s"]))
    for series in columns.values():
        series.sort()
    names = sorted(columns)
    depth = max((len(columns[n]) for n in names), default=0)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["rank"] + names)
    for r in range(depth):
        writer.writerow(
            [r + 1] + [f"{columns[n][r]:.3f}" if r < len(columns[n]) else "" for n in names]
        )
    return out.getvalue()


def cmd_bench(args) -> int:
    rows = run_bench(args)
    if args.sorted:
        sys.stdout.write(_sorted_table(rows))
        return EXIT_OK
    writer = csv.DictWriter(sys.stdout, fieldnames=BENCH_HEADER, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return EXIT_OK


def cmd_export_cnf(args) -> int:
    if args.mode == "basic" and args.no_follow:
        raise UsageError("--no-follow needs --mode complete")
    instance = _build_instance(args)
    xi = cost_lower_bound(instance) if args.xi == "auto" else int(args.xi)
    if args.mode == "basic":
        artifacts = encoder.encode_basic(instance, xi)
    else:
        artifacts = encoder.encode_complete(instance, xi, args.no_follow)
    text = cnf.to_dimacs(artifacts.formula)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_validate(args) -> int:
    instance = _build_instance(args)
    with open(args.plan, encoding="utf-8") as f:
        plan, summary = solvers.parse_plan(f.read())
    violations = verify.validate_plan(instance, plan)
    for v in violations:
        print(f"{v.kind} at t={v.time} agents={list(v.agents)} where={v.where}")
    expected = solvers.summary_line(plan)
    wrong_summary = summary is not None and summary != expected
    if wrong_summary:
        print(f"wrong_summary: the file says {summary!r}, the rows give {expected!r}")
    if violations or wrong_summary:
        return EXIT_ERROR
    print("valid")
    return EXIT_OK


def cmd_sat(args) -> int:
    with open(args.cnf, encoding="utf-8") as f:
        formula = cnf.parse_dimacs(f.read())
    solver = satcore.CdclSolver(formula.variable_count)
    for clause in formula.clauses:
        solver.add_clause(clause)
    result = solver.solve(time_limit=args.timeout)
    if result.outcome == satcore.SAT:
        print("s SATISFIABLE")
        lits = [v if result.model[v] else -v for v in range(1, solver.num_vars + 1)]
        print(" ".join(map(str, ["v", *lits, 0])))
        return EXIT_OK
    if result.outcome == satcore.UNSAT:
        print("s UNSATISFIABLE")
        return EXIT_OK
    print("s UNKNOWN")
    return EXIT_EXHAUSTED


def _grid_arg(value: str) -> tuple[int, int]:
    try:
        w, h = map(int, value.lower().split("x"))
        if w >= 1 and h >= 1:
            return w, h
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected WxH with sides >= 1, got {value!r}")


def _positive(convert):
    """An argparse type: `convert(value)`, which must be > 0. `nan` is not, so
    it cannot switch a time limit off."""
    def parse(value: str):
        try:
            number = convert(value)
        except ValueError:
            number = 0  # rejected below like any other value that is not > 0
        if not number > 0:
            raise argparse.ArgumentTypeError(f"expected {convert.__name__} > 0, got {value!r}")
        return number
    return parse


def _int_list(value: str) -> list[int]:
    numbers = [int(tok) for tok in value.split(",") if tok]
    if not numbers:  # an empty list would make `bench` a silent no-op
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {value!r}")
    return numbers


def _solver_list(value: str) -> list[str]:
    names = [tok for tok in value.split(",") if tok]
    if not names or any(name not in (solvers.EAGER, solvers.LAZY) for name in names):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated {solvers.EAGER}/{solvers.LAZY}, got {value!r}")
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capmapf",
        description="Optimal multi-agent path finding with vertex capacities (SAT-based)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance and print the plan")
    _add_instance_flags(p)
    p.add_argument("--solver", choices=[solvers.EAGER, solvers.LAZY], default=solvers.EAGER)
    p.add_argument("--timeout", type=_positive(float), default=500.0,
                   help="seconds of wall clock")
    p.add_argument("--no-follow", action="store_true",
                   help="forbid moving into a vertex unless it has spare capacity beforehand")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run the benchmark grid and print CSV")
    p.add_argument("--grid", type=_grid_arg, default=(8, 8), help="open grid WxH")
    p.add_argument("--agent-counts", dest="agent_counts", type=_int_list, default=[5, 10])
    p.add_argument("--capacities", type=_int_list, default=[1, 2, 3])
    p.add_argument("--count", type=_positive(int), default=25, help="instances per cell")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--solvers", type=_solver_list, default=[solvers.EAGER, solvers.LAZY])
    p.add_argument("--timeout", type=_positive(float), default=10.0, help="seconds per run")
    p.add_argument("--sorted", action="store_true",
                   help="emit the sorted-runtime table instead of per-run rows")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export-cnf", help="write the encoding in DIMACS")
    _add_instance_flags(p)
    p.add_argument("--xi", default="auto", help="cost bound, or 'auto' for the lower bound")
    p.add_argument("--mode", choices=["complete", "basic"], default="complete")
    p.add_argument("--no-follow", action="store_true",
                   help="add the vacate-before-enter rule (complete mode only)")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.set_defaults(func=cmd_export_cnf)

    p = sub.add_parser("validate", help="check a plan file against the movement rules")
    _add_instance_flags(p)
    p.add_argument("--plan", required=True, help="plan file in solve output format")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sat", help="run the embedded SAT core on a DIMACS file")
    p.add_argument("cnf", help="DIMACS CNF file")
    p.add_argument("--timeout", type=_positive(float), default=None)
    p.set_defaults(func=cmd_sat)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a malformed flag, 0 after --help
        return EXIT_OK if not exc.code else EXIT_ERROR
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError, UnsolvableInstanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
