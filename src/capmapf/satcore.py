"""Self-contained CDCL SAT solver.

Two-watched-literal propagation, first-UIP clause learning, activity-based
branching (false-first polarity), geometric restarts.  Clauses may be added
between solve calls; learned clauses are kept, which stays sound because
clauses are only ever added.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


@dataclass
class SatResult:
    outcome: str
    model: list[bool] | None = None  # 1-based; model[0] unused

    def __bool__(self) -> bool:
        return self.outcome == SAT


class CdclSolver:
    def __init__(self):
        self.num_vars = 0
        self.clauses: list[list[int]] = []   # original, len >= 2
        self.learned: list[list[int]] = []
        self.units: list[int] = []
        self.contradiction = False
        self.watches: dict[int, list[list[int]]] = {}
        # per-variable state, 1-based
        self.assign: list[int] = [0]         # 0 unknown, 1 true, -1 false
        self.level: list[int] = [0]
        self.reason: list[list[int] | None] = [None]
        self.activity: list[float] = [0.0]
        self.conflicts_total = 0

    def _ensure_var(self, v: int) -> None:
        while self.num_vars < v:
            self.num_vars += 1
            self.assign.append(0)
            self.level.append(0)
            self.reason.append(None)
            self.activity.append(0.0)
            self.watches[self.num_vars] = []
            self.watches[-self.num_vars] = []

    def add_clause(self, lits: list[int]) -> None:
        """Permanently conjoin a clause; callable between solve() calls."""
        seen = set()
        clause = []
        for lit in lits:
            if lit == 0:
                raise ValueError("0 is not a literal")
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
            self._ensure_var(abs(lit))
        if not clause:
            self.contradiction = True
            return
        if len(clause) == 1:
            self.units.append(clause[0])
            return
        self.clauses.append(clause)
        self._watch(clause)

    def _watch(self, clause: list[int]) -> None:
        self.watches[clause[0]].append(clause)
        self.watches[clause[1]].append(clause)

    def load_dimacs(self, text: str) -> None:
        from .cnf import parse_dimacs

        formula = parse_dimacs(text)
        self._ensure_var(formula.variable_count)
        for clause in formula.clauses:
            self.add_clause(clause)

    # --- search -----------------------------------------------------------

    def _reset(self) -> None:
        for v in range(1, self.num_vars + 1):
            self.assign[v] = 0
            self.reason[v] = None
            self.level[v] = 0
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.heap: list[tuple[float, int]] = [
            (-self.activity[v], v) for v in range(1, self.num_vars + 1)
        ]
        heapq.heapify(self.heap)

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        v = abs(lit)
        val = 1 if lit > 0 else -1
        if self.assign[v] != 0:
            return self.assign[v] == val
        self.assign[v] = val
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)
        return True

    def _value(self, lit: int) -> int:
        a = self.assign[abs(lit)]
        return a if lit > 0 else -a

    def _propagate(self) -> list[int] | None:
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            false_lit = -lit
            watch_list = self.watches[false_lit]
            i = 0
            while i < len(watch_list):
                clause = watch_list[i]
                # put the false watch at position 1
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == 1:
                    i += 1
                    continue
                moved = False
                for j in range(2, len(clause)):
                    if self._value(clause[j]) != -1:
                        clause[1], clause[j] = clause[j], clause[1]
                        self.watches[clause[1]].append(clause)
                        watch_list[i] = watch_list[-1]
                        watch_list.pop()
                        moved = True
                        break
                if moved:
                    continue
                # unit or conflicting
                if self._value(first) == -1:
                    self.qhead = len(self.trail)
                    return clause
                self._enqueue(first, clause)
                i += 1
        return None

    def _bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for u in range(1, self.num_vars + 1):
                self.activity[u] *= 1e-100
            self.var_inc *= 1e-100
        heapq.heappush(self.heap, (-self.activity[v], v))

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learned clause and the level to backtrack to."""
        cur_level = len(self.trail_lim)
        seen = [False] * (self.num_vars + 1)
        learned = [0]  # placeholder for the asserting literal
        counter = 0
        lit = None
        reason = conflict
        idx = len(self.trail) - 1
        while True:
            for q in reason:
                if q == lit:
                    continue
                v = abs(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if self.level[v] >= cur_level:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            p = self.trail[idx]
            v = abs(p)
            seen[v] = False
            counter -= 1
            idx -= 1
            if counter == 0:
                learned[0] = -p
                break
            reason = self.reason[v]
            lit = p  # the reason clause contains p itself; skip it
        if len(learned) == 1:
            return learned, 0
        back_level = max(self.level[abs(q)] for q in learned[1:])
        # watch the asserting literal and a literal from the backtrack level
        for j in range(1, len(learned)):
            if self.level[abs(learned[j])] == back_level:
                learned[1], learned[j] = learned[j], learned[1]
                break
        return learned, back_level

    def _backtrack(self, target_level: int) -> None:
        while len(self.trail_lim) > target_level:
            mark = self.trail_lim.pop()
            for lit in self.trail[mark:]:
                v = abs(lit)
                self.assign[v] = 0
                self.reason[v] = None
                heapq.heappush(self.heap, (-self.activity[v], v))
            del self.trail[mark:]
        self.qhead = min(self.qhead, len(self.trail))

    def _decide(self) -> int:
        while self.heap:
            _, v = heapq.heappop(self.heap)
            if self.assign[v] == 0:
                return -v  # false-first polarity keeps models free of spurious truths
        return 0

    def solve(
        self,
        conflict_limit: int | None = None,
        time_limit: float | None = None,
    ) -> SatResult:
        """Complete decision procedure; UNKNOWN only when a budget runs out."""
        if self.contradiction:
            return SatResult(UNSAT)
        deadline = None if time_limit is None else time.monotonic() + time_limit
        self._reset()
        for lit in self.units:
            if not self._enqueue(lit, None):
                return SatResult(UNSAT)
        if self._propagate() is not None:
            return SatResult(UNSAT)

        conflicts = 0
        restart_limit = 100
        restarts = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflicts += 1
                self.conflicts_total += 1
                if len(self.trail_lim) == 0:
                    return SatResult(UNSAT)
                learned, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if len(learned) == 1:
                    self._enqueue(learned[0], None)
                else:
                    self.learned.append(learned)
                    self._watch(learned)
                    self._enqueue(learned[0], learned)
                self.var_inc /= 0.95
                if conflict_limit is not None and conflicts >= conflict_limit:
                    return SatResult(UNKNOWN)
                if deadline is not None and conflicts % 64 == 0 and time.monotonic() > deadline:
                    return SatResult(UNKNOWN)
                if conflicts >= restart_limit:
                    restarts += 1
                    restart_limit = int(restart_limit * 1.5) + conflicts
                    self._backtrack(0)
            else:
                if deadline is not None and time.monotonic() > deadline:
                    return SatResult(UNKNOWN)
                lit = self._decide()
                if lit == 0:
                    model = [False] * (self.num_vars + 1)
                    for v in range(1, self.num_vars + 1):
                        model[v] = self.assign[v] == 1
                    if __debug__:
                        assert self._model_ok(model), "model fails clause replay"
                    return SatResult(SAT, model)
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)

    def _model_ok(self, model: list[bool]) -> bool:
        def sat_lit(lit: int) -> bool:
            return model[lit] if lit > 0 else not model[-lit]

        return all(sat_lit(u) for u in self.units) and all(
            any(sat_lit(lit) for lit in clause) for clause in self.clauses
        )
