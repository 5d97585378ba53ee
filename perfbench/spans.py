"""Spans around the calls into each capmapf module, recorded from outside.

`Tracer.install` replaces public functions and methods of the capmapf
modules with timing wrappers and `uninstall` puts the originals back; the
program's source is never edited. A function is replaced in its own module
and under every other capmapf module name bound to it, so callers that
imported it by name are traced too. A target that no longer exists is
listed in `Tracer.missing`, and the benchmark fails the traced run. Spans
are kept in memory and written out as JSON lines when the run ends. A
span's self time is its duration minus the time its child spans cover.

`CdclSolver.add_clause` runs about a million times per pass, so consecutive
calls under the same parent are folded into one `satcore.load` span that
counts them; the span then also covers the caller's loading loop.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from capmapf import solvers  # importing capmapf loads every module that is patched

# span name -> the per-layer time metric its self time adds to
LAYER_OF = {
    "solvers.solve": "solvers.self_s",
    "solvers.validate_candidate": "solvers.validate_s",
    "pathcalc.cost_lower_bound": "pathcalc.s",
    "pathcalc.agent_path_costs": "pathcalc.s",
    "pathcalc.bfs_distances": "pathcalc.s",
    "mdd.build_all_mdds": "mdd.s",
    "encoder.encode": "encoder.self_s",
    "encoder.conflict_clause": "encoder.self_s",
    "encoder.extract_plan": "encoder.decode_s",
    "cnf.at_most_k": "cnf.at_most_k_s",
    "satcore.load": "satcore.load_s",
    "satcore.search": "satcore.search_s",
    "instance.parse": "instance.parse_s",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "solve", "counts")

    def __init__(self, name: str, start: float, parent: int | None, solve: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.solve = solve
        self.counts: dict[str, int] = {}


def _mdd_counts(result) -> dict[str, int]:
    return {
        "nodes": sum(len(level) for m in result for level in m.levels),
        "arcs": sum(len(arcs) for m in result for arcs in m.arcs),
    }


def _encode_counts(result) -> dict[str, int]:
    return {"vars": result.formula.variable_count, "clauses": len(result.formula.clauses)}


def _solve_counts(report) -> dict[str, int]:
    return {
        "bounds": len(report.iterations),
        "refinements": report.total_refinements,
        "solved": int(report.status == solvers.SOLVED),
    }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.solve_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []  # patch targets not found in capmapf
        self._build_patches()

    # --- recording --------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, perf_counter(), parent, self.solve_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def _wrapper(self, original, name: str, counts=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if counts is not None:
                span.counts = counts(result)
            return result

        return traced

    def _search_wrapper(self, original):
        tracer = self

        def traced(solver, *args, **kwargs):
            conflicts = getattr(solver, "conflicts_total", 0)
            learned = len(getattr(solver, "learned", ()))
            span = tracer._open("satcore.search")
            try:
                result = original(solver, *args, **kwargs)
            finally:
                tracer._close(span)
            span.counts = {
                "conflicts": getattr(solver, "conflicts_total", 0) - conflicts,
                "learned": len(getattr(solver, "learned", ())) - learned,
                result.outcome: 1,
            }
            return result

        return traced

    def _load_wrapper(self, original):
        tracer = self
        spans = self.spans

        def traced(solver, *args, **kwargs):
            start = perf_counter()
            try:
                return original(solver, *args, **kwargs)
            finally:
                end = perf_counter()
                parent = tracer._stack[-1] if tracer._stack else None
                last = spans[-1] if spans else None
                if last is not None and last.name == "satcore.load" and last.parent == parent:
                    last.end = end
                    last.counts["calls"] += 1
                else:
                    span = Span("satcore.load", start, parent, tracer.solve_id)
                    span.end = end
                    span.counts = {"calls": 1}
                    spans.append(span)

        return traced

    # --- patching ---------------------------------------------------------

    def _build_patches(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "capmapf" or name.startswith("capmapf.")]

        def patch(target: str, make) -> None:
            """Wrap `module.function` or `module.Class.method` of capmapf."""
            owner, *path, attr = target.split(".")
            owner = sys.modules.get("capmapf." + owner)
            for name in path:
                owner = getattr(owner, name, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append("capmapf." + target)
                return
            traced = make(original)
            if path:  # a method: its class is the only binding
                self._patches.append((owner, attr, original, traced))
                return
            for module in modules:
                for name, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, name, original, traced))

        w = self._wrapper
        patch("solvers.solve", lambda f: w(f, "solvers.solve", _solve_counts))
        patch("solvers.validate_candidate", lambda f: w(f, "solvers.validate_candidate"))
        patch("pathcalc.cost_lower_bound", lambda f: w(f, "pathcalc.cost_lower_bound"))
        patch("pathcalc.agent_path_costs", lambda f: w(f, "pathcalc.agent_path_costs"))
        patch("pathcalc.bfs_distances", lambda f: w(f, "pathcalc.bfs_distances"))
        patch("encoder.encode_complete", lambda f: w(f, "encoder.encode", _encode_counts))
        patch("encoder.encode_basic", lambda f: w(f, "encoder.encode", _encode_counts))
        patch("encoder.conflict_clause", lambda f: w(f, "encoder.conflict_clause"))
        patch("encoder.extract_plan", lambda f: w(f, "encoder.extract_plan"))
        patch("mdd.build_all_mdds", lambda f: w(f, "mdd.build_all_mdds", _mdd_counts))
        patch("cnf.at_most_k", lambda f: w(f, "cnf.at_most_k"))
        patch("satcore.CdclSolver.add_clause", self._load_wrapper)
        patch("satcore.CdclSolver.solve", self._search_wrapper)
        patch("instance.parse_map", lambda f: w(f, "instance.parse"))
        patch("instance.parse_scenario", lambda f: w(f, "instance.parse"))

    def install(self) -> None:
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # --- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - covered[i] for i, s in enumerate(self.spans)]

    def write(self, path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "name": s.name,
                    "start": round(s.start - origin, 7),
                    "end": round(s.end - origin, 7),
                    "parent": s.parent,
                    "solve": s.solve,
                    **s.counts,
                }) + "\n")
