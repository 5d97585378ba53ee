"""Translate instances and cost bounds into CNF, and decode models into plans.

One `Encoding` serves a whole solve and grows with the cost bound. The
diagrams at slack delta contain those at delta - 1 (see `mdd`), and every
clause the encoding posts holds for every valid plan of any cost, so a
bound only adds: variables for its new nodes and clauses over them, plus its
own literals (`Encoding.bound_literals`), each agent's settled flag at its
arrival step and the negated top bit of the cost register. The solve loop
hands these to one SAT solver as assumptions. A standalone
`encode_complete`/`encode_basic` is the same growth from nothing, with the
bound's literals posted as unit clauses.

Every variable is a vertex variable x_i(v,t), agent i at v at step t, for a
node of agent i's diagram, or an auxiliary one (settled flags, the cost
bound's running-sum registers, the capacity and no-follow counters).
A move u->v between t and t+1 is the pair x_i(u,t), x_i(v,t+1), so no
diagram arc has a variable of its own. settled_i[t], from agent i's
shortest-path length c_i up to the horizon max_j c_j + delta, means agent i
is at its goal from step t on. Agent i's diagram ends at its arrival step
c_i + delta - cut_i (see `mdd`): its cost budget is the slack less the
delays the other agents are proven to take, cut_i, 0 unless the solve loop
gives the encoding its cuts. After its arrival step the agent is settled,
and its settled flag stands in for it where the capacity and no-follow
clauses count the agents at its goal.

Eager and lazy differ only in which inter-agent rule groups are posted up
front: the complete model posts them all (swap prohibition and per-vertex
capacity cardinality at every step), the basic model none. `refine` posts
the others once a candidate plan's conflicts show that they bind: a swap's
elimination clause, and at a vertex's first capacity conflict its capacity
group over every step, which every later bound extends.

No clause keeps an agent to one vertex per step, so a model may set more of
an agent's nodes true than one walk uses. `extract_plan` decodes one walk
per agent through true nodes, back from its goal, along the predecessor
clauses. The swap, capacity, no-follow and conflict clauses hold vertex
variables only negatively, so they hold for any such walk; the walk waits at
its goal wherever that node is true, so it costs no more than the cost bound
charged. In every valid plan of cost <= xi the delays add up to at most
delta and the agents other than i take at least cut_i of them, so each
agent is home for good by its arrival step; the plan's nodes and settled
steps set true and all others false are still a model, and an UNSAT bound
still proves that no plan fits it.
"""

from __future__ import annotations

from . import cnf
from .cnf import CnfFormula
from .instance import Instance
from .mdd import Mdd, build_all_mdds, cost_slack
from .pathcalc import agent_path_costs
from .plans import CAPACITY, Conflict, Plan

COMPLETE = "complete"
BASIC = "basic"

#: xs[i][t][v]: the vertex variable of node (v, t) of the i-th diagram
VertexVars = list[list[dict[int, int]]]


class EncodingSoundnessError(AssertionError):
    """A model with a true node that no true node leads into, a conflict
    against a rule already posted or a fresh one without a clause
    (`refine`), or clauses kept across bounds that contradict each other."""


class Encoding:
    """One solve's formula, grown by `grow` one cost slack at a time from -1.

    `formula` numbers every variable of the solve, but its `clauses` hold
    only what the last growth posted (and, in a standalone encoding, what
    was posted after it). Only a standalone encoding labels its variables
    (`variable_labels`), for DIMACS. In both models the encoding indexes the
    agents at every (v, t), each by its node or, past its arrival step, by
    its settled flag at its goal: `_settle` alone decides who counts there.
    `mode` and `no_follow` are kept only as which rule groups are posted up
    front: `grouped`, the vertices whose capacity group (e) is posted (all
    in the complete model, none at first in the basic one), which a growth
    extends; the swap index `moves`, which agents move along each edge at
    each step, kept in the complete model only (None otherwise); and
    `entering`, the moves into each (v, t), kept under no-follow only.

    `cuts[i]`, 0 for every agent by default, is a lower bound on the delays
    of the agents other than i together in every valid plan; agent i's
    diagram then ends at c_i + delta - cuts[i], and no slack below a cut
    can be grown.
    """

    def __init__(self, instance: Instance, mode: str, no_follow: bool = False,
                 cuts: list[int] | None = None):
        if mode not in (COMPLETE, BASIC):
            raise ValueError(f"unknown model {mode!r}")
        if no_follow and mode != COMPLETE:
            raise ValueError("no-follow is only encoded in the complete model")
        self.instance = instance
        self.costs = agent_path_costs(instance)
        self.cuts = list(cuts) if cuts else [0] * instance.k
        self.delta = -1
        self.formula = CnfFormula()
        self.xs: VertexVars = [[] for _ in instance.agents]
        self.settled: list[list[int]] = [[] for _ in instance.agents]  # [i][t - c_i]
        self.sums: list[list[int]] = [[] for _ in instance.agents[1:]]  # registers R_1..R_{k-1}
        # occupants[t][v]: each agent's literal at (v, t), for every v
        self.occupants: list[dict[int, list[int]]] = []
        complete = mode == COMPLETE
        self.grouped: set[int] = set(range(instance.graph.vertex_count) if complete else ())
        # moves[(t * n + u) * n + v], n vertices: a bit per agent with a diagram arc u -> v
        # from step t, u != v
        self.moves: dict[int, int] | None = {} if complete else None
        # negated[x] = -x, one int object per variable for the swap clauses to share
        self.negated: list[int] = [0]
        # entering[(t, v)]: (agent, [-x(u, t), -x(v, t + 1)]) per diagram arc u -> v, u != v
        self.entering: dict[tuple[int, int], list[tuple[int, list[int]]]] | None = (
            {} if no_follow else None)

    def bound_literals(self, delta: int) -> list[int]:
        """The literals that hold the encoding to slack `delta`, at most the
        grown one and at least every cut: each agent settled by its arrival
        step c_i + delta - cut_i, and the running sum of the delays below
        delta + 1. At the grown slack they are the bound's own literals: the
        solve loop's assumptions, a standalone encoding's units."""
        top = self.sums[-1] if self.sums else [-s for s in self.settled[0]]
        return [flags[delta - cut] for flags, cut in zip(self.settled, self.cuts)] + [-top[delta]]

    def plan_literals(self, plan: Plan) -> list[int]:
        """The literals that put `plan` on the diagrams: each agent's node at
        every step of its diagram, past the plan's end its goal, and its
        settled flags from its arrival step on. With every other vertex
        variable false this is the model `extract_plan` decodes back to the
        plan padded to the horizon. Raises KeyError for a plan that does not
        fit the grown diagrams."""
        literals = []
        for a, c, x, flags, path, arrival in zip(self.instance.agents, self.costs, self.xs,
                                                 self.settled, plan.paths, plan.arrivals):
            literals += [x[t][path[t] if t < len(path) else a.goal] for t in range(len(x))]
            literals += flags[arrival - c:]
        return literals

    def grow(self, delta: int) -> None:
        """Grow to cost slack `delta`, above the current one: allocate the
        new nodes' variables, the new settled flags and register bits, and
        post every clause that names one of them. `formula.clauses` then
        holds exactly these clauses."""
        if delta <= self.delta:
            raise ValueError(f"slack {delta} does not grow slack {self.delta}")
        instance, formula = self.instance, self.formula
        formula.clauses = []
        old_mu = len(self.occupants) - 1
        mdds = build_all_mdds(instance, delta, self.delta, self.cuts)
        self.occupants += [{} for _ in range(max(self.costs) + delta - old_mu)]
        _allocate_route_vars(formula, mdds, self.xs)
        _encode_routes(formula, instance, mdds, self.xs)
        fresh = self._settle(mdds, delta, old_mu)
        self._encode_cost_bound(delta)
        if self.moves is not None:
            self._encode_swaps(mdds)
        caps, occupants = instance.capacities.values, self.occupants
        # _at_most posts nothing at or under capacity, where most (t, v) are:
        # leave those out before the sort
        crowded = [(key, new) for key, new in fresh.items()
                   if len(occupants[key[0]][key[1]]) > caps[key[1]]]
        for (t, v), new in sorted(crowded):
            formula.add_all(_at_most(formula, occupants[t][v], new, caps[v]))
        if self.entering is not None:
            self._encode_no_follow(mdds, fresh)
        self.delta = delta

    def _settle(self, mdds: list[Mdd], delta: int, old_mu: int) -> dict[tuple[int, int], list[int]]:
        """Settled flags out to the new horizon, chained settled_i[t] ->
        settled_i[t+1], with settled_i[t] -> x_i(goal, t) at each new goal
        node; then each new node and each new flag past its agent's arrival
        step joins the occupants of its vertex. A goal node where the
        agent's flag stood before takes its place, so the agent still counts
        once. Returns the new literals per (t, v) of a grouped vertex.

        Each agent has its own arrival step, c_i + delta - cut_i. Before the
        first growth its old one is taken as c_i - 1, the last step of the
        empty diagram, not c_i - 1 - cut_i, so that no flag is read below
        c_i."""
        formula, occupants, grouped = self.formula, self.occupants, self.grouped
        fresh: dict[tuple[int, int], list[int]] = {}
        mu = len(occupants) - 1
        for a, c, cut, m, x, flags in zip(self.instance.agents, self.costs, self.cuts, mdds,
                                          self.xs, self.settled):
            old_arrival, arrival, goal = max(c + self.delta - cut, c - 1), c + delta - cut, a.goal
            for t in range(c + len(flags), mu + 1):
                flag = formula.allocate()
                if flags:
                    formula.add([-flags[-1], flag])
                flags.append(flag)
            for t in range(old_arrival + 1, arrival + 1):
                formula.add([-flags[t - c], x[t][goal]])
            for t, level in enumerate(m.levels):
                at_t, here = occupants[t], x[t]
                for v in level:
                    var = here[v]
                    if v == goal and old_arrival < t <= old_mu:
                        lits = at_t[v]
                        lits[lits.index(flags[t - c])] = var
                    else:
                        at_t.setdefault(v, []).append(var)
                    if v in grouped:
                        fresh.setdefault((t, v), []).append(var)
            for t in range(max(arrival, old_mu) + 1, mu + 1):
                occupants[t].setdefault(goal, []).append(flags[t - c])
                if goal in grouped:
                    fresh.setdefault((t, goal), []).append(flags[t - c])
        return fresh

    def _encode_cost_bound(self, delta: int) -> None:
        """Group (f): a global bound on extra cost, as a running sum of the
        agents' delays grown to delta + 1 bits.

        The settled chain makes agent i's delay a sorted unary count:
        d_i >= j reads -settled_i[c_i + j - 1], for j = 1..delta + 1. A
        running sum of these counts, one register per agent after the
        first, reads the total delay; `bound_literals` keeps it below
        delta + 1 by its top bit, with no overflow clause that a higher
        bound would have to lift."""
        width = delta + 1
        total = [-s for s in self.settled[0][:width]]
        for flags, register in zip(self.settled[1:], self.sums):
            cnf.unary_sum(self.formula, total, [-s for s in flags[:width]], register)
            total = register

    def _encode_swaps(self, mdds: list[Mdd]) -> None:
        """Group (d): no pair of agents crosses an edge in opposite directions.

        One clause -x_i(u,t) | -x_i(v,t+1) | -x_j(v,t) | -x_j(u,t+1) per pair
        of opposite diagram arcs of two agents, posted when the later of the
        two arcs appears."""
        moves, formula, xs, neg = self.moves, self.formula, self.xs, self.negated
        neg += range(-len(neg), -formula.variable_count - 1, -1)
        n = self.instance.graph.vertex_count
        for i, (m, x) in enumerate(zip(mdds, xs)):
            bit = 1 << i
            for t, arcs in enumerate(m.arcs):
                here, there = x[t], x[t + 1]
                for (u, v) in arcs:
                    if u == v:
                        continue
                    others = moves.get((t * n + v) * n + u, 0) & ~bit
                    while others:
                        j = (others & -others).bit_length() - 1
                        others &= others - 1
                        formula.add([neg[here[u]], neg[there[v]],
                                     neg[xs[j][t][v]], neg[xs[j][t + 1][u]]])
                    key = (t * n + u) * n + v
                    moves[key] = moves.get(key, 0) | bit

    def _encode_no_follow(self, mdds: list[Mdd], fresh: dict[tuple[int, int], list[int]]) -> None:
        """Vacate-before-enter semantics: moving u->v between t and t+1
        requires at most c(v)-1 other agents at v at departure time, the
        settled ones counted by their flags. A new move gets this over all
        the others; an old one, where agents joined v at t, gets the clauses
        naming them at c(v) = 1 and a new counter over all the others
        otherwise."""
        entering, formula, caps = self.entering, self.formula, self.instance.capacities
        added: dict[tuple[int, int], int] = {}
        for i, (m, x) in enumerate(zip(mdds, self.xs)):
            for t, arcs in enumerate(m.arcs):
                here, there = x[t], x[t + 1]
                for (u, v) in arcs:
                    if u != v:
                        entering.setdefault((t, v), []).append((i, [-here[u], -there[v]]))
                        added[(t, v)] = added.get((t, v), 0) + 1
        for key in sorted(added.keys() | fresh.keys()):
            t, v = key
            moves = entering.get(key, [])
            room = caps[v] - 1
            joined = fresh.get(key, [])
            lits = self.occupants[t].get(v, [])
            for n, (i, move) in enumerate(moves):
                if n < len(moves) - added.get(key, 0):  # an old move
                    if not joined:
                        continue
                    if room == 0:
                        formula.add_all([[-y] + move for y in joined])
                        continue
                own = self.xs[i][t].get(v)
                others = [y for y in lits if y != own]
                for clause in cnf.at_most_k(formula, others, room):
                    formula.add(clause + move)


def _allocate_route_vars(formula: CnfFormula, mdds: list[Mdd], xs: VertexVars) -> None:
    """One vertex variable per new diagram node, allocated agent by agent
    and level by level into `xs`."""
    for m, x in zip(mdds, xs):
        x += [{} for _ in range(len(m.levels) - len(x))]
        for level, here in zip(m.levels, x):
            for v in level:
                here[v] = formula.allocate()


def _encode_routes(formula: CnfFormula, instance: Instance, mdds: list[Mdd],
                   xs: VertexVars) -> None:
    """Groups (a)-(b) over the new nodes of `mdds`: the start unit, and a
    predecessor clause x(v,t+1) -> OR x(u,t) over v's diagram arcs per node
    past level 0.

    A node's arcs in never change as the diagrams grow, so each clause is
    posted once. They give every true node past level 0 a true node leading
    into it, so `extract_plan` can walk back from the goal, which the
    arrival step's settled flag sets true, to the start unit. No successor
    clause x(u,t) -> OR x(w,t+1) is posted: soundness does not need one, and
    a node's successors grow with the bound until t + d_goal(u) <= c_i +
    delta - 2. Posting the clauses of the nodes whose successors no longer
    grow, once each, cost time: x0.92 eager and x0.97 lazy on the `dense4`
    pool (alternating in-process passes, 2-core container, Python 3.11).
    """
    for a, m, x in zip(instance.agents, mdds, xs):
        if a.start in m.levels[0]:
            formula.add([x[0][a.start]])
        for t, arcs in enumerate(m.arcs):
            here, there = x[t], x[t + 1]
            clauses: list[list[int]] = []
            head, clause = -1, []
            for (u, v) in arcs:  # grouped by head: one clause per head, begun at its first arc
                if v != head:
                    head, clause = v, [-there[v]]
                    clauses.append(clause)
                clause.append(here[u])
            formula.add_all(clauses)


def _at_most(formula: CnfFormula, lits: list[int], new: list[int], cap: int) -> list[list[int]]:
    """Group (e) at one vertex and step, where the literals `new` joined the
    agents' literals `lits`: at most `cap` of them true. With room for one,
    the pairs that name a new literal (every pair when all are new);
    otherwise a sequential counter over all of them, whose auxiliaries
    `formula` allocates."""
    if len(lits) <= cap:
        return []
    if cap > 1:
        return cnf.at_most_k(formula, lits, cap)
    if len(new) == len(lits):
        return cnf.at_most_one_pairwise(lits)
    new = set(new)
    return [[-a, -b] for j, b in enumerate(lits) for a in lits[:j] if a in new or b in new]


def capacity_group(encoding: Encoding, vertex: int) -> list[list[int]]:
    """Group (e) at one vertex, step by step up to the longest diagram's
    horizon, over the occupants `encoding` has indexed there: the clauses a
    complete model grown in one step posts there. The vertex joins
    `encoding.grouped`, so every later growth extends the group over its new
    occupants. Counter auxiliaries are allocated in `encoding.formula`; the
    clauses are returned, not added. Every plan that keeps the capacities
    satisfies them, so posting them keeps every plan of cost <= xi."""
    encoding.grouped.add(vertex)
    cap = encoding.instance.capacities[vertex]
    clauses: list[list[int]] = []
    for at_t in encoding.occupants:
        lits = at_t.get(vertex, [])
        clauses += _at_most(encoding.formula, lits, lits, cap)
    return clauses


def conflict_clause(xs: VertexVars, conflict: Conflict) -> list[int] | None:
    """Elimination clause for a recorded swap conflict over the vertex
    variables `xs`: i at u then v while j is at v then u is forbidden. None
    when a node it names is absent from the current diagrams (vacuously
    satisfied). A node past its agent's arrival step is absent too: a
    settled agent stays at its goal, so it crosses no edge there."""
    t = conflict.time
    i, j = conflict.agents
    u, v = conflict.vertex
    lits = []
    for agent, vertex, step in ((i, u, t), (i, v, t + 1), (j, v, t), (j, u, t + 1)):
        x = xs[agent][step].get(vertex) if step < len(xs[agent]) else None
        if x is None:
            return None
        lits.append(-x)
    return lits


def refine(encoding: Encoding, conflicts: list[Conflict]) -> list[list[int]]:
    """The clauses against `conflicts`, a candidate plan's conflicts in
    `validate_candidate`'s order, in that order: a swap's elimination clause
    (`conflict_clause`), and at a vertex's first capacity conflict its
    capacity group (`capacity_group`), once per call. Raises
    EncodingSoundnessError for a conflict against a group posted before the
    call, a swap while `encoding` keeps `moves` or a capacity conflict at a
    vertex in `grouped`, and for a fresh conflict with no clause, which a
    plan decoded from the encoding cannot show: its agents are on nodes or
    settled."""
    clauses: list[list[int]] = []
    grouping: set[int] = set()  # the vertices grouped by this call
    for conflict in conflicts:
        capacity = conflict.kind == CAPACITY
        if capacity and conflict.vertex in grouping:
            continue
        if (conflict.vertex in encoding.grouped) if capacity else (encoding.moves is not None):
            raise EncodingSoundnessError(f"conflict against a posted rule: {conflict}")
        if capacity:
            grouping.add(conflict.vertex)
            new = capacity_group(encoding, conflict.vertex)
        else:
            clause = conflict_clause(encoding.xs, conflict)
            new = [] if clause is None else [clause]
        if not new:
            raise EncodingSoundnessError(f"no clause for fresh conflict {conflict}")
        clauses += new
    return clauses


def _encode(encoding: Encoding, xi: int, standalone: bool) -> Encoding:
    """`encoding` grown to xi, a standalone one with its bound's units and labels."""
    encoding.grow(cost_slack(encoding.costs, xi))
    if standalone:
        encoding.formula.add_all([[lit] for lit in encoding.bound_literals(encoding.delta)])
        encoding.formula.labels = variable_labels(encoding)
    return encoding


def encode_complete(instance: Instance, xi: int, no_follow: bool = False,
                    onto: Encoding | None = None) -> Encoding:
    """Complete model: satisfiable iff a plan of sum-of-costs <= xi exists.

    Without `onto`, a fresh encoding grown to xi, whose formula ends with
    the bound's literals as unit clauses and labels every variable. With
    `onto`, a complete encoding of a lower bound (or none yet), grown to xi
    as it was built, with or without no-follow: its formula holds only the
    clauses this bound adds, and the bound's literals are left to the caller
    (`Encoding.bound_literals`). `no_follow` sets up a fresh encoding only."""
    if onto is not None and onto.moves is None:
        raise ValueError("onto is not a complete encoding")
    return _encode(onto or Encoding(instance, COMPLETE, no_follow), xi, onto is None)


def encode_basic(instance: Instance, xi: int, onto: Encoding | None = None) -> Encoding:
    """Relaxed model: the complete model without its inter-agent rules, each
    of which `refine` posts once a conflict shows that it binds. A satisfying
    model may decode to a plan with conflicts.

    `onto` is as for `encode_complete`, with a basic encoding, whose
    capacity groups the growth extends."""
    if onto is not None and onto.moves is not None:
        raise ValueError("onto is not a basic encoding")
    return _encode(onto or Encoding(instance, BASIC), xi, onto is None)


def variable_labels(encoding: Encoding) -> list[tuple]:
    """The label of each variable of `encoding`, variable n's at index
    n - 1, derived from the maps the encoding keeps; DIMACS `c var` comments
    carry them (`cnf.to_dimacs`), and nothing else reads them:
        ("X", i, v, t)           agent i's node (v, t)
        ("aux", "settled_i", t)  agent i's settled flag at step t
        ("aux", "sum_i", j)      bit j (reading "at least j") of register R_i
        ("aux", "seq", n)        any other variable n: a counter auxiliary
    """
    labels = [("aux", "seq", n) for n in range(1, encoding.formula.variable_count + 1)]
    for i, x in enumerate(encoding.xs):
        for t, level in enumerate(x):
            for v, var in level.items():
                labels[var - 1] = ("X", i, v, t)
    for i, (c, flags) in enumerate(zip(encoding.costs, encoding.settled)):
        for t, flag in enumerate(flags, start=c):
            labels[flag - 1] = ("aux", f"settled_{i}", t)
    for i, register in enumerate(encoding.sums, start=1):
        for j, bit in enumerate(register, start=1):
            labels[bit - 1] = ("aux", f"sum_{i}", j)
    return labels


def extract_plan(instance: Instance, encoding: Encoding, model: list[bool]) -> Plan:
    """Each agent's path through true nodes, walked back from its goal at its
    arrival step: at step t the agent stays on its vertex v if (v, t) is
    true, and otherwise takes the first true (u, t) with u in v's closed
    neighbourhood, which are the diagram arcs into (v, t+1). Level 0 holds
    only the start. Each path is then padded at its goal up to the longest
    diagram's horizon.

    Staying first keeps the agent at its goal from its first settled step on,
    so it costs no more than the cost bound charged it. Raises
    EncodingSoundnessError when no true node leads into the current one.
    """
    closed = instance.graph.closed_neighbourhoods
    mu = max(map(len, encoding.xs)) - 1
    paths = []
    for i, (a, x) in enumerate(zip(instance.agents, encoding.xs)):
        v, path = a.goal, []
        for t in range(len(x) - 1, -1, -1):
            level = x[t]
            var = level.get(v)
            if var is None or not model[var]:
                u = next((u for u in closed[v]
                          if (var := level.get(u)) is not None and model[var]), None)
                if u is None:
                    raise EncodingSoundnessError(
                        f"agent {i}: no true node at step {t} leads on to vertex {v}")
                v = u
            path.append(v)
        paths.append(tuple(reversed(path)) + (a.goal,) * (mu + 1 - len(x)))
    return Plan(tuple(paths))
