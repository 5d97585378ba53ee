"""The detour buckets (`Instance.detours`) and what is built from them, the
diagram growth and the cardinal lift, against full scans of the vertices
kept here as references."""

import pytest

from capmapf import UNREACHABLE, Graph, generate_random, parse_map
from capmapf.mdd import Mdd, build_all_mdds
from capmapf.pathcalc import agent_path_costs, cardinal_lift

from conftest import make_instance

# three components with edges and an isolated vertex
SPLIT = Graph.from_edges(10, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (3, 6), (7, 8)])

# blocked cells cut the map into a left and a right component
SPLIT_MAP = parse_map(
    "type octile\nheight 4\nwidth 6\nmap\n"
    "..@...\n"
    ".@@.@.\n"
    "..@...\n"
    "@@@.@.\n"
)


def _extra_instances():
    cell = SPLIT_MAP.cell_to_vertex
    return [
        ("split", make_instance(SPLIT, 1, [(0, 2), (6, 5), (5, 6), (3, 3), (7, 8), (9, 9)])),
        ("split-c2", make_instance(SPLIT, 2, [(4, 6), (6, 4), (2, 1), (8, 7)])),
        ("split-map", make_instance(SPLIT_MAP, 1, [(cell(0, 0), cell(1, 2)), (cell(1, 2), cell(0, 0)),
                                                   (cell(3, 0), cell(5, 3)), (cell(5, 3), cell(3, 3))])),
    ]


def _full_scan_diagram(goal, arrival, from_start, to_goal, closed, since):
    """The growth of one agent's diagram by a scan of every vertex: each
    vertex of the start's component on the levels of its window past
    since - to_goal[v], and the arcs into every level."""
    levels = [[] for _ in range(arrival + 1)]
    for v, lo in enumerate(from_start):
        if lo == UNREACHABLE:
            continue
        for t in range(max(lo, since - to_goal[v] + 1), arrival - to_goal[v] + 1):
            levels[t].append(v)
    arcs = [tuple((u, v) for v in levels[t + 1] for u in closed[v] if from_start[u] <= t)
            for t in range(arrival)]
    return Mdd(tuple(map(tuple, levels)), tuple(arcs))


def _full_scan_lift(instance):
    """`cardinal_lift`, the lift and the agents it counted, with each
    agent's shortest-path vertices found by a scan of every vertex,
    d_start(v) + d_goal(v) == c_i."""
    costs = agent_path_costs(instance)
    mu = max(costs)
    nodes, moves = {}, {}
    for i, (a, c, (from_start, to_goal)) in enumerate(
            zip(instance.agents, costs, instance.distances)):
        at_step = [[] for _ in range(c + 1)]
        for v, (d, e) in enumerate(zip(from_start, to_goal)):
            if d != UNREACHABLE and d + e == c:
                at_step[d].append(v)
        path = [vs[0] if len(vs) == 1 else None for vs in at_step] + [a.goal] * (mu - c)
        for t, v in enumerate(path):
            if v is not None:
                nodes.setdefault((t, v), []).append(i)
                if t and path[t - 1] not in (None, v):
                    moves.setdefault((t - 1, path[t - 1], v), []).append(i)
    caps = instance.capacities
    counted = [False] * instance.k
    lift = 0
    for (_, v), agents in nodes.items():
        free = [i for i in agents if not counted[i]]
        if len(free) > caps[v]:
            lift += len(free) - caps[v]
            for i in free:
                counted[i] = True
    for (t, u, v), agents in moves.items():
        for i in agents:
            if counted[i]:
                continue
            j = next((j for j in moves.get((t, v, u), ()) if not counted[j]), None)
            if j is not None:
                lift += 1
                counted[i] = counted[j] = True
    return lift, counted


@pytest.fixture(scope="module")
def instances(corpus):
    return list(corpus) + _extra_instances()


def test_buckets_hold_the_start_component_by_detour(instances):
    """Bucket e holds, in ascending id order, exactly the vertices of the
    start's component whose shortest walk through them takes e steps over
    c_i; the others are in no bucket."""
    for name, inst in instances:
        for a, (from_start, to_goal), buckets in zip(inst.agents, inst.distances, inst.detours):
            c = from_start[a.goal]
            for e, bucket in enumerate(buckets):
                assert list(bucket) == sorted(bucket), name
                assert all(from_start[v] + to_goal[v] - c == e for v in bucket), name
            reached = [v for v, d in enumerate(from_start) if d != UNREACHABLE]
            assert sorted(v for bucket in buckets for v in bucket) == reached, name


def test_bucketed_growth_matches_a_full_scan(instances):
    """Every agent's diagram at slack 0-3, grown from nothing and grown one
    slack step at a time, is the full scan's, level for level and arc for
    arc."""
    for name, inst in instances:
        closed = inst.graph.closed_neighbourhoods
        costs = agent_path_costs(inst)
        for delta in range(4):
            for since in (-1, delta - 1):
                grown = build_all_mdds(inst, delta, since)
                for i, (a, c, (from_start, to_goal), m) in enumerate(
                        zip(inst.agents, costs, inst.distances, grown)):
                    expected = _full_scan_diagram(a.goal, c + delta, from_start, to_goal, closed,
                                                  c + since)
                    assert m == expected, (name, i, since, delta)


def test_lift_matches_a_full_scan(instances):
    """On the corpus, the split graphs and the differential sweep's 162 open
    grids, the lift read off bucket 0 and the agents it counts are the full
    scan's."""
    grids = [generate_random(w, w, 4 + s % 6, c, s)
             for w in (4, 5, 6) for c in (1, 2, 3) for s in range(18)]
    lifted = 0
    for name, inst in instances + [(f"grid-{n}", g) for n, g in enumerate(grids)]:
        lift, counted = cardinal_lift(inst)
        assert (lift, counted) == _full_scan_lift(inst), name
        lifted += lift > 0
    assert lifted >= 50
