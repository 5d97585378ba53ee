"""Layered solve benchmark for capmapf.

    python3 perfbench/run.py --workload congestion --seed 1 --seconds 30 --trace 0

Runs one workload's instance pool through `capmapf.solvers.solve` for the
eager and the lazy solver, each in its own fresh interpreter. The two never
run at once: they take turns, one whole pass over the pool each, in rounds,
so that both solvers' samples spread over the whole run. Every answer is
checked (see worker.py). `--trace 0` prints the end-to-end metrics;
`--trace 1` prints the per-layer metrics of a traced run. The last stdout
line is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`; the line before it stamps the run. A full record, with every
solve, goes to `perfbench/out/`.

Exit code 0 when every check passed, 1 when a check failed, 2 when the
benchmark could not run. The command ends within `--seconds` + MARGIN_S.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("congestion", "open16", "dense4")
SOLVERS = ("eager", "lazy")
SETUP_PROBES = 5          # set-up-only interpreters, besides the two solver ones
# Rounds of one pass per solver that every run makes, and the tail percentile
# each workload reports: the highest whole percentile that leaves at least
# 10 of the MIN_ROUNDS x 20 pool solves beyond it.
MIN_ROUNDS = {"congestion": 2, "open16": 4, "dense4": 6}
TAIL_PERCENTILE = {"congestion": 75, "open16": 87, "dense4": 91}
MARGIN_S = 140.0          # the command ends within --seconds + MARGIN_S, or fails
FINISH_S = 20.0           # solves stop this long before that, to leave time for the checks
# End-to-end times are reported at a reference speed: each time is scaled by
# CAL_REF_S / (median seconds of worker.calibrate() measured alongside it).
CAL_REF_S = 0.001

END_TO_END_UNITS = {
    "solve_s.p50": "s",
    "solve_s.tail": "s",
    "solves_per_s": "1/s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; the solver name prefixes each, eager skips the lazy-only ones
LAYER_UNITS = {
    "pathcalc.s": "s", "mdd.s": "s", "mdd.calls": "count", "mdd.nodes": "count",
    "mdd.arcs": "count", "encoder.self_s": "s", "encoder.calls": "count",
    "encoder.vars": "count", "encoder.clauses": "count", "encoder.decode_s": "s",
    "encoder.conflict_clauses": "count", "cnf.at_most_k_s": "s",
    "cnf.at_most_k_calls": "count", "satcore.load_s": "s", "satcore.load_calls": "count",
    "satcore.search_s": "s", "satcore.solve_calls": "count", "satcore.conflicts": "count",
    "satcore.learned": "count", "satcore.conflicts_per_s": "1/s", "satcore.sat": "count",
    "satcore.unsat": "count", "satcore.unknown": "count", "solvers.self_s": "s",
    "solvers.bounds": "count", "solvers.refinements": "count", "solvers.validate_s": "s",
    "solvers.candidate_yield": "frac", "trace.coverage": "frac", "trace.overhead": "frac",
}
LAZY_ONLY = {
    "encoder.conflict_clauses", "solvers.refinements", "solvers.validate_s",
    "solvers.candidate_yield",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least (100 - q)% of the values lie at or above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


class Worker:
    """A `worker.py` process and its line protocol; no read waits past the deadline."""

    def __init__(self, args, solver: str, deadline: float, spans: Path | None = None):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--solver", solver, "--seed", str(args.seed),
               "--solve-until", repr(deadline - FINISH_S)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
        self.solver = solver
        self.deadline = deadline
        self.proc = subprocess.Popen(cmd + ["--t0", repr(time.monotonic())], cwd=ROOT, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            ready = self._read()
        except BaseException:
            self.close()
            raise
        self.setup_s = ready["setup_s"] * CAL_REF_S / ready["cal_s"]

    def _read(self) -> dict:
        remaining = max(0.0, self.deadline - time.monotonic())
        ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
        if not ready:
            raise BenchError(f"{self.solver} worker did not answer in time")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"{self.solver} worker exited with {self.proc.wait()}")
        return json.loads(line)

    def send(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def finish(self) -> dict:
        result = self.send("finish")
        try:
            code = self.proc.wait(timeout=max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{self.solver} worker did not exit in time") from exc
        if code != 0:
            raise BenchError(f"{self.solver} worker exited with {code}")
        return result

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def measure(args, deadline: float, tag: str) -> tuple[list[float], dict[str, dict]]:
    """Set-up samples, then the solver workers' results after alternating passes."""
    workers: list[Worker] = []
    try:
        setup = []
        for _ in range(0 if args.trace else SETUP_PROBES):
            workers.append(Worker(args, "none", deadline))
            setup.append(workers[-1].setup_s)
        live = {}
        for solver in SOLVERS:
            spans = OUT / f"spans-{tag}-{solver}.jsonl" if args.trace else None
            live[solver] = Worker(args, solver, deadline, spans)
            workers.append(live[solver])
            setup.append(live[solver].setup_s)
        if args.trace:
            # traced, untraced, traced: neither side pays the first pass's warm-up alone
            for command in ("traced", "plain", "traced"):
                for solver in SOLVERS:
                    live[solver].send(command)
        else:
            started = time.monotonic()
            rounds, last_round = 0, 0.0
            while (rounds < MIN_ROUNDS[args.workload]
                   or time.monotonic() - started + last_round <= args.seconds):
                round_started = time.monotonic()
                for solver in SOLVERS:
                    live[solver].send("plain")
                last_round = time.monotonic() - round_started
                rounds += 1
        return setup, {solver: live[solver].finish() for solver in SOLVERS}
    finally:
        for w in workers:
            w.close()


def scaled_times(rows: list[dict]) -> list[float]:
    """Solve seconds at the reference speed, scaled by the median calibration
    of the same pass (the speed of a pass is the machine's over that pass)."""
    by_pass: dict[int, list[float]] = {}
    for r in rows:
        by_pass.setdefault(r["pass"], []).append(r["cal_s"])
    speed = {p: CAL_REF_S / statistics.median(cal) for p, cal in by_pass.items()}
    return [r["solve_s"] * speed[r["pass"]] for r in rows]


def end_to_end(result: dict, tail: int) -> dict[str, float]:
    times = scaled_times(result["rows"])
    ok = sum(r["ok"] for r in result["rows"])
    return {
        "solve_s.p50": statistics.median(times),
        "solve_s.tail": percentile(times, tail),
        "solves_per_s": len(times) / sum(times),
        "ok_frac": ok / len(times),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def disagreements(results: dict[str, dict]) -> list[str]:
    """Instances on which the eager and lazy costs differ."""
    costs = {s: {r["instance"]: r["cost"] for r in results[s]["rows"]} for s in SOLVERS}
    return sorted(k for k in costs["eager"] if costs["eager"][k] != costs["lazy"].get(k))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True, help="shuffles the order of the pool")
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time; rounds continue while another one fits")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + args.seconds + MARGIN_S
    if not (ROOT / "src" / "capmapf" / "__init__.py").is_file():
        print(f"run.py: no capmapf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        setup, results = measure(args, deadline, tag)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    metrics: dict[str, dict] = {}
    if args.trace:
        parse = [results[s]["parse_s"] for s in SOLVERS]
        metrics["instance.parse_s"] = {"value": statistics.median(parse), "unit": "s"}
        for solver in SOLVERS:
            layers = results[solver]["layers"]
            for name, unit in LAYER_UNITS.items():
                if solver == "eager" and name in LAZY_ONLY:
                    continue
                metrics[f"{solver}.{name}"] = {"value": layers.get(name, 0.0), "unit": unit}
    else:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        for solver in SOLVERS:
            for name, value in end_to_end(results[solver], TAIL_PERCENTILE[args.workload]).items():
                metrics[f"{solver}.{name}"] = {"value": value, "unit": END_TO_END_UNITS[name]}

    rows = [dict(r, solver=s) for s in SOLVERS for r in results[s]["rows"]]
    failures = [f"{r['solver']} {r['instance']}: {r['failure']}" for r in rows if not r["ok"]]
    failures += [f"eager and lazy costs differ on {k}" for k in disagreements(results)]
    failures += [f"{s} {m}" for s in SOLVERS for m in results[s].get("trace_problems", [])]
    for line in failures:
        print(f"run.py: FAILED {line}", file=sys.stderr)

    stamp = {
        "python": platform.python_version(),
        "optimize": max(results[s]["optimize"] for s in SOLVERS),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "run_seed": args.seed,
        "instances": sorted({r["instance"] for r in rows}),
        "time_limit_s": results["eager"]["time_limit_s"],
        "tail_percentile": TAIL_PERCENTILE[args.workload],
        "setup_samples": len(setup),
        "calibration_ref_s": CAL_REF_S,
        "calibration_s": statistics.median(r["cal_s"] for r in rows),
    }
    result = {"correct": not failures, "attempted": len(rows), "failed": len(failures),
              "metrics": metrics}
    with open(OUT / f"run-{tag}.json", "w", encoding="utf-8") as f:
        json.dump({"stamp": stamp, "result": result, "rows": rows}, f, indent=1)
    print("stamp " + json.dumps(stamp))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
