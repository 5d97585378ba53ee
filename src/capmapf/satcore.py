"""Self-contained incremental CDCL SAT solver.

Two-watched-literal propagation, first-UIP clause learning, activity-based
branching with saved phases, geometric restarts.  Clauses may be added
between solve calls; learned clauses are kept, which stays sound because
clauses are only ever added.  The trail, the decision heap, the variable
activities and the saved phases persist across calls.  A call may pass
assumptions: literals decided first, one per decision level, in the order
given, as MiniSat does (Een & Sorensson, SAT 2003).  They hold for that
call only, so learned clauses never depend on them; an assumption found
false ends the call UNSAT at level 0 with `contradiction` unset, and the
same solver can then answer under other assumptions.  The decision heap (`heapq` over
`(-activity, v)`) keeps one live entry per unassigned variable, as MiniSat's
order heap does: a bump re-keys only a variable on the heap, a backtrack puts
back only the variables that left it, and `_decide` drops the superseded keys
it pops.  One routine, `_attach`, puts a clause on the live trail, whether it
is a loaded unit, a clause added mid-search or a learned clause: it
watches the clause against the live assignment and backtracks only as far as
the watch invariant needs, so a re-solve resumes from the previous model
instead of descending again from the empty assignment.  Phase saving
(Pipatsrisawat & Darwiche, SAT 2007): `_backtrack` records each variable's
last value, and `_decide` assigns it that value again, so after a backtrack,
a restart or a change of assumptions the search returns towards the last
assignment; a variable never assigned is decided false unless `prefer` gave
it a phase.  Clauses are loaded as given: nonzero literals, repeats and
complementary pairs kept, no clean-up.
The solver adopts each clause list it is handed and reorders it in place, so
a clause exists once, shared with the caller (`CnfFormula` keeps the same
lists).  At level 0, loading a clause of two or more literals only watches
its first two, as MiniSat does, unless one of them is already false after
propagation; the variables its other literals name are range-checked, and
the solver grown to them, once per solve() call over the clauses added since
the previous call.  Units, and clauses added while a search's decisions are
on the trail, go onto the trail through `_attach`, with their own check.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


@dataclass
class SatResult:
    outcome: str
    model: list[bool] | None = None  # 1-based; model[0] unused


class CdclSolver:
    def __init__(self, num_vars: int = 0):  # presized; larger clauses still grow it
        self.num_vars = 0
        self.clauses: list[list[int]] = []   # original, units included
        self.checked = 0                     # clauses[:checked] are within num_vars
        self.learned: list[list[int]] = []   # len >= 2
        self.contradiction = False
        self.watches: dict[int, list[list[int]]] = {}
        # per-variable state, 1-based
        self.assign: list[int] = [0]         # 0 unknown, 1 true, -1 false
        self.level: list[int] = [0]
        self.reason: list[list[int] | None] = [None]
        self.activity: list[float] = [0.0]
        self.phase: list[bool] = [False]     # last value or preferred phase; else False
        self.seen: list[bool] = [False]      # scratch for _analyze, all False between calls
        # search state, kept across solve() calls
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.heap: list[tuple[float, int]] = []
        self.in_heap: list[bool] = [False]   # heap holds (-activity[v], v)
        self.var_inc = 1.0
        self.conflicts_total = 0
        self.assumed: list[int] = []         # the assumptions the trail's first levels decided
        self.reserve(num_vars)

    def reserve(self, num_vars: int) -> None:
        """Grow to `num_vars` variables at once; clauses naming more still grow it."""
        if num_vars > self.num_vars:
            self._ensure_var(num_vars)

    def prefer(self, literals: Sequence[int]) -> None:
        """Set each literal's variable's saved phase to the literal's sign, so
        a decision on the variable makes the literal true until an assignment
        saves another phase. Every variable must already be allocated."""
        phase = self.phase
        for lit in literals:
            phase[abs(lit)] = lit > 0

    def _ensure_var(self, v: int) -> None:
        # in bulk; activities are >= 0, so appending (0.0, u) in rising u keeps the heap valid
        new = range(self.num_vars + 1, v + 1)
        self.assign += [0] * len(new)
        self.level += [0] * len(new)
        self.reason += [None] * len(new)
        self.activity += [0.0] * len(new)
        self.phase += [False] * len(new)
        self.seen += [False] * len(new)
        self.watches |= {u: [] for u in new}
        self.watches |= {-u: [] for u in new}
        self.heap += [(0.0, u) for u in new]
        self.in_heap += [True] * len(new)
        self.num_vars = max(self.num_vars, v)

    def add_clause(self, lits: list[int]) -> None:
        """Permanently conjoin a clause as given, callable between solve() calls: nonzero
        literals, repeated and complementary ones kept, the empty clause sets `contradiction`.
        The solver keeps `lits` itself and reorders it; the caller must not rely on its order."""
        if not lits:
            self.contradiction = True
            return
        self.clauses.append(lits)
        if len(lits) > 1 and not self.trail_lim:
            # level 0: two watches suffice unless one is false and already propagated
            # past (a false literal the queue has yet to reach will still be visited);
            # solve() range-checks the other literals
            watches = self.watches
            a, b = lits[0], lits[1]
            try:
                first, second = watches[a], watches[b]
            except KeyError:  # a watched literal names a new variable
                self._ensure_var(max(map(abs, lits)))
                first, second = watches[a], watches[b]
            assign = self.assign
            if not self.qhead or ((assign[a] if a > 0 else -assign[-a]) != -1
                                  and (assign[b] if b > 0 else -assign[-b]) != -1):
                first.append(lits)
                second.append(lits)
                return
        if (top := max(map(abs, lits))) > self.num_vars:
            self._ensure_var(top)
        self._attach(lits)

    def _watch(self, clause: list[int]) -> None:
        self.watches[clause[0]].append(clause)
        self.watches[clause[1]].append(clause)

    def _attach(self, clause: list[int]) -> None:
        """Put `clause` on the live trail; every unit and learned clause comes here.

        A unit is asserted at level 0.  Otherwise non-false literals go first,
        false ones follow by decreasing level, and the first two are watched.
        A false watch is then fine only when the other watch is true at or
        below its level; otherwise backtrack just far enough and, if the
        clause is then unit, enqueue its literal.  A clause false at level 0
        sets `contradiction`.
        """
        if len(clause) == 1:
            self._backtrack(0)
            if not self._enqueue(clause[0], None):
                self.contradiction = True
            return
        level = self.level

        def rank(lit: int) -> tuple[bool, int]:
            return (self._value(lit) != -1, level[abs(lit)])

        clause.sort(key=rank, reverse=True)
        first, second = clause[0], clause[1]
        if self._value(second) != -1:  # two non-false watches
            self._watch(clause)
            return
        low = level[abs(second)]  # the highest level among the other, false, literals
        if self._value(first) == -1:  # falsified
            high = level[abs(first)]
            if high == 0:
                self.contradiction = True
                return
            if high == low:  # two literals share the top level: unassign both
                self._backtrack(high - 1)
                self._watch(clause)
                return
        elif self._value(first) == 1 and level[abs(first)] <= low:
            self._watch(clause)  # satisfied below every false literal
            return
        self._backtrack(low)
        self._watch(clause)
        self._enqueue(first, clause)

    # --- search -----------------------------------------------------------

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
        assign = self.assign
        level = self.level
        reason = self.reason
        watches = self.watches
        trail = self.trail
        current = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watch_list = watches[false_lit]
            i = 0
            n = len(watch_list)
            while i < n:
                clause = watch_list[i]
                # put the false watch at position 1
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                value = assign[first] if first > 0 else -assign[-first]
                if value == 1:
                    i += 1
                    continue
                for j in range(2, len(clause)):
                    lit = clause[j]
                    if (assign[lit] if lit > 0 else -assign[-lit]) != -1:
                        clause[1] = lit
                        clause[j] = false_lit
                        watches[lit].append(clause)
                        n -= 1
                        watch_list[i] = watch_list[n]
                        watch_list.pop()
                        break
                else:
                    # unit or conflicting
                    if value == -1:
                        self.qhead = len(trail)
                        return clause
                    if first > 0:
                        assign[first] = 1
                        v = first
                    else:
                        assign[-first] = -1
                        v = -first
                    level[v] = current
                    reason[v] = clause
                    trail.append(first)
                    i += 1
        self.qhead = qhead
        return None

    def _bump(self, v: int) -> None:
        activity = self.activity
        activity[v] += self.var_inc
        if activity[v] > 1e100:
            for u in range(1, self.num_vars + 1):
                activity[u] *= 1e-100
            self.var_inc *= 1e-100
            # keys pushed before the rescale would outrank every later one
            assign = self.assign
            self.heap = [(-activity[u], u) for u in range(1, self.num_vars + 1) if not assign[u]]
            heapq.heapify(self.heap)
            self.in_heap = [not a for a in assign]
        elif self.in_heap[v]:  # re-key; one off the heap gets its key when it is put back
            heapq.heappush(self.heap, (-activity[v], v))

    def _analyze(self, conflict: list[int]) -> list[int]:
        """First-UIP learned clause, its asserting literal first."""
        cur_level = len(self.trail_lim)
        seen = self.seen
        level = self.level
        trail = self.trail
        learned = [0]  # placeholder for the asserting literal
        counter = 0
        lit = None
        reason = conflict
        idx = len(trail) - 1
        while True:
            for q in reason:
                if q == lit:
                    continue
                v = abs(q)
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[abs(trail[idx])]:
                idx -= 1
            p = trail[idx]
            v = abs(p)
            seen[v] = False
            counter -= 1
            idx -= 1
            if counter == 0:
                learned[0] = -p
                break
            reason = self.reason[v]
            lit = p  # the reason clause contains p itself; skip it
        for q in learned[1:]:
            seen[abs(q)] = False
        return learned

    def _backtrack(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        mark = self.trail_lim[target_level]
        del self.trail_lim[target_level:]
        assign, reason, activity, heap = self.assign, self.reason, self.activity, self.heap
        in_heap, phase = self.in_heap, self.phase
        for lit in self.trail[mark:]:
            v = abs(lit)
            phase[v] = lit > 0
            assign[v] = 0
            reason[v] = None
            if not in_heap[v]:
                in_heap[v] = True
                heapq.heappush(heap, (-activity[v], v))
        del self.trail[mark:]
        self.qhead = min(self.qhead, mark)

    def _decide(self) -> int:
        heap, activity, assign, in_heap = self.heap, self.activity, self.assign, self.in_heap
        while heap:
            key, v = heapq.heappop(heap)
            if key != -activity[v]:
                continue  # superseded by a bump
            in_heap[v] = False
            if assign[v] == 0:
                return v if self.phase[v] else -v  # the saved or preferred phase, else false
        return 0

    def solve(
        self,
        conflict_limit: int | None = None,
        time_limit: float | None = None,
        assumptions: Sequence[int] = (),
    ) -> SatResult:
        """Complete decision procedure under `assumptions`; UNKNOWN only when a
        budget runs out.

        The assumptions are decided first, at levels 1, 2, ... in order; one
        already true gets an empty level.  One found false (implied by the
        clauses and the assumptions before it) answers UNSAT, backtracks to
        level 0 and leaves `contradiction` unset.  UNSAT found at level 0 is
        final: `contradiction` stays set.
        """
        if self.contradiction:
            return SatResult(UNSAT)
        if len(self.clauses) > self.checked:  # grow to the clauses loaded since the last call
            new = self.clauses[self.checked:] if self.checked else self.clauses  # first call: no copy
            self._ensure_var(max(max(chain.from_iterable(new)), -min(chain.from_iterable(new))))
            self.checked = len(self.clauses)
        assumptions = list(assumptions)
        if assumptions:
            self.reserve(max(map(abs, assumptions)))
        if assumptions != self.assumed:  # the trail's first levels decided other literals
            self._backtrack(0)
            self.assumed = assumptions
        deadline = None if time_limit is None else time.monotonic() + time_limit
        conflicts = 0
        restart_limit = 100
        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflicts += 1
                self.conflicts_total += 1
                if len(self.trail_lim) == 0:
                    self.contradiction = True
                    return SatResult(UNSAT)
                learned = self._analyze(conflict)
                if len(learned) > 1:
                    self.learned.append(learned)
                self._attach(learned)
                self.var_inc /= 0.95
                if conflict_limit is not None and conflicts >= conflict_limit:
                    return SatResult(UNKNOWN)
                if deadline is not None and conflicts % 64 == 0 and time.monotonic() > deadline:
                    return SatResult(UNKNOWN)
                if conflicts >= restart_limit:
                    restart_limit = int(restart_limit * 1.5) + conflicts
                    self._backtrack(0)
            else:
                if deadline is not None and time.monotonic() > deadline:
                    return SatResult(UNKNOWN)
                level = len(self.trail_lim)
                if level < len(assumptions):
                    lit = assumptions[level]
                    value = self._value(lit)
                    if value == -1:  # no model under the assumptions
                        self._backtrack(0)
                        return SatResult(UNSAT)
                    self.trail_lim.append(len(self.trail))
                    if value == 0:
                        self._enqueue(lit, None)
                    continue
                lit = self._decide()
                if lit == 0:
                    model = [a == 1 for a in self.assign]
                    assert self._model_ok(model), "model fails clause replay"  # off under -O
                    return SatResult(SAT, model)
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)

    def _model_ok(self, model: list[bool]) -> bool:
        """Replay every original clause, units included, and the literals the
        current call assumed against the model."""
        true = {v if value else -v for v, value in enumerate(model)}
        return true.issuperset(self.assumed) and not any(map(true.isdisjoint, self.clauses))
