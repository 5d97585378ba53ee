"""Ground-truth plan validation and a brute-force optimality oracle.

Deliberately shares no code with the SAT encoding pipeline: the validator
checks the movement rules directly on vertex sequences, and the oracle
searches joint configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .instance import Instance
from .plans import Plan

NOT_EDGE = "not_edge"
SWAP = "swap"
OVER_CAPACITY = "over_capacity"
WRONG_START = "wrong_start"
WRONG_GOAL = "wrong_goal"
RAGGED = "ragged"
NOT_VERTEX = "not_vertex"

OPTIMAL = "optimal"
UNSOLVABLE_WITHIN_BOUND = "unsolvable_within_bound"

# brute_force_optimal guard rails; beyond this the joint search blows up
ORACLE_MAX_AGENTS = 3
ORACLE_MAX_VERTICES = 12
ORACLE_MAX_HORIZON = 8


class OracleBoundsError(ValueError):
    """Instance too large for exhaustive search."""


@dataclass(frozen=True)
class Violation:
    kind: str
    time: int
    agents: tuple[int, ...] = ()
    where: int | tuple[int, int] | None = None


@dataclass(frozen=True)
class OracleResult:
    status: str  # OPTIMAL or UNSOLVABLE_WITHIN_BOUND
    cost: int | None = None
    plan: Plan | None = None


def validate_plan(instance: Instance, plan: Plan) -> list[Violation]:
    """All movement-rule violations of an arbitrary (possibly malformed) plan."""
    violations: list[Violation] = []
    paths = plan.paths
    if len(paths) != instance.k:
        return [Violation(RAGGED, 0)]
    lengths = {len(p) for p in paths}
    if len(lengths) != 1 or 0 in lengths:
        return [Violation(RAGGED, 0)]
    horizon = len(paths[0]) - 1
    graph, caps = instance.graph, instance.capacities
    outside = [
        Violation(NOT_VERTEX, t, (i,), v)
        for i, path in enumerate(paths)
        for t, v in enumerate(path)
        if not 0 <= v < graph.vertex_count
    ]
    if outside:
        return outside

    for i, (a, path) in enumerate(zip(instance.agents, paths)):
        if path[0] != a.start:
            violations.append(Violation(WRONG_START, 0, (i,), path[0]))
        if path[-1] != a.goal:
            violations.append(Violation(WRONG_GOAL, horizon, (i,), path[-1]))

    for t in range(horizon):
        for i, path in enumerate(paths):
            u, v = path[t], path[t + 1]
            if u != v and v not in graph.adjacency[u]:
                violations.append(Violation(NOT_EDGE, t, (i,), (u, v)))
        moves = {}
        for i, path in enumerate(paths):
            u, v = path[t], path[t + 1]
            if u != v:
                moves.setdefault((u, v), []).append(i)
        for (u, v), movers in moves.items():
            if u < v and (v, u) in moves:
                for i in movers:
                    for j in moves[(v, u)]:
                        violations.append(Violation(SWAP, t, (i, j), (u, v)))

    for t in range(horizon + 1):
        occupancy: dict[int, list[int]] = {}
        for i, path in enumerate(paths):
            occupancy.setdefault(path[t], []).append(i)
        for v, occupants in sorted(occupancy.items()):
            if len(occupants) > caps[v]:
                violations.append(Violation(OVER_CAPACITY, t, tuple(occupants), v))
    return violations


def _joint_successors(instance: Instance, config: tuple[int, ...]):
    """All valid next configurations (movement rules i, ii, iii')."""
    graph, caps = instance.graph, instance.capacities
    options = [(v,) + graph.adjacency[v] for v in config]
    for nxt in product(*options):
        counts: dict[int, int] = {}
        ok = True
        for v in nxt:
            counts[v] = counts.get(v, 0) + 1
            if counts[v] > caps[v]:
                ok = False
                break
        if not ok:
            continue
        swap = False
        for i in range(len(config)):
            if config[i] == nxt[i]:
                continue
            for j in range(len(config)):
                if j != i and config[j] == nxt[i] and nxt[j] == config[i]:
                    swap = True
                    break
            if swap:
                break
        if not swap:
            yield nxt


def brute_force_optimal(instance: Instance, mu_max: int) -> OracleResult:
    """Exhaustive minimum sum-of-costs over all plans with horizon <= mu_max.

    Searches joint (configuration, settled-mask) states layer by time step;
    a settled agent sits at its goal forever and stops paying, every other
    agent pays one unit per step.  Completely independent of the encoder.
    """
    k = instance.k
    if (
        k > ORACLE_MAX_AGENTS
        or instance.graph.vertex_count > ORACLE_MAX_VERTICES
        or mu_max > ORACLE_MAX_HORIZON
    ):
        raise OracleBoundsError(
            f"refusing exhaustive search: k={k}, |V|={instance.graph.vertex_count}, "
            f"mu_max={mu_max}"
        )
    goals = tuple(a.goal for a in instance.agents)
    start = tuple(a.start for a in instance.agents)
    full = (1 << k) - 1

    def settle_options(config: tuple[int, ...], mask: int):
        # each at-goal unsettled agent may independently settle now
        free = [i for i in range(k) if not mask >> i & 1 and config[i] == goals[i]]
        for bits in product((0, 1), repeat=len(free)):
            m = mask
            for b, i in zip(bits, free):
                if b:
                    m |= 1 << i
            yield m

    # best[(config, mask)] = (cost, parent_state, parent_key)
    layer: dict[tuple[tuple[int, ...], int], tuple[int, tuple | None]] = {}
    for mask in settle_options(start, 0):
        layer[(start, mask)] = (0, None)
    history = [layer]
    best: tuple[int, int] | None = None  # (cost, time)
    for t in range(mu_max + 1):
        for (config, mask), (cost, _) in history[t].items():
            if mask == full and (best is None or cost < best[0]):
                best = (cost, t)
        if t == mu_max:
            break
        nxt_layer: dict = {}
        for (config, mask), (cost, _) in history[t].items():
            if mask == full:
                continue
            step_cost = k - bin(mask).count("1")
            if best is not None and cost + step_cost >= best[0]:
                continue  # any completion pays at least step_cost more
            for nconfig in _joint_successors_restricted(instance, config, mask, goals):
                for nmask in settle_options(nconfig, mask):
                    key = (nconfig, nmask)
                    ncost = cost + step_cost
                    old = nxt_layer.get(key)
                    if old is None or ncost < old[0]:
                        nxt_layer[key] = (ncost, (config, mask))
        history.append(nxt_layer)

    if best is None:
        return OracleResult(UNSOLVABLE_WITHIN_BOUND)

    cost, t_end = best
    # pick the reached goal state and walk parents back
    state = None
    for (config, mask), (c, parent) in history[t_end].items():
        if mask == full and c == cost:
            state = (config, mask)
            break
    configs = [state[0]]
    for t in range(t_end, 0, -1):
        state = history[t][state][1]
        configs.append(state[0])
    configs.reverse()
    paths = tuple(tuple(cfg[i] for cfg in configs) for i in range(k))
    plan = Plan(paths)
    assert plan.sum_of_costs == cost
    return OracleResult(OPTIMAL, cost, plan)


def _joint_successors_restricted(instance, config, mask, goals):
    """Joint successors where settled agents are pinned to their goals."""
    for nxt in _joint_successors(instance, config):
        if all(not mask >> i & 1 or nxt[i] == goals[i] for i in range(len(nxt))):
            yield nxt
