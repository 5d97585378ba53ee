from itertools import product

import pytest

from capmapf import (
    brute_force_optimal,
    compute_horizon,
    cost_lower_bound,
    encode_complete,
    extract_plan,
    Graph,
    parse_map,
)
from capmapf import mdd
from capmapf.mdd import EmptyMddError, HorizonContractError, build_all_mdds
from capmapf.pathcalc import agent_distances
from capmapf.verify import OPTIMAL

from conftest import cycle_graph, make_instance, path_graph, star_graph


def test_horizon_formula_heterogeneous():
    # shortest paths 2 and 3, bound 7: 3 + (7 - 5)
    inst = make_instance(path_graph(4), 2, [(0, 2), (3, 0)])
    assert compute_horizon(inst, 7) == 5


def test_horizon_at_lower_bound():
    inst = make_instance(path_graph(4), 2, [(0, 2), (3, 0)])
    assert compute_horizon(inst, 5) == 3


def test_horizon_single_agent():
    inst = make_instance(path_graph(3), 1, [(0, 2)])
    assert compute_horizon(inst, 4) == 4


def test_horizon_below_bound_rejected():
    inst = make_instance(path_graph(3), 1, [(0, 2)])
    with pytest.raises(HorizonContractError):
        compute_horizon(inst, 1)


def test_mdd_tight_horizon():
    inst = make_instance(path_graph(3), 1, [(0, 2)])
    m = build_all_mdds(inst, 0)[0]
    assert m.levels == ((0,), (1,), (2,))
    assert m.arcs == (((0, 1),), ((1, 2),))


def test_mdd_one_slack():
    inst = make_instance(path_graph(3), 1, [(0, 2)])
    m = build_all_mdds(inst, 1)[0]
    assert m.levels[0] == (0,)
    assert m.levels[1] == (0, 1)
    assert m.levels[2] == (1, 2)
    assert m.levels[3] == (2,)


def test_mdd_stationary_agent():
    inst = make_instance(path_graph(3), 2, [(1, 1)])
    m = build_all_mdds(inst, 2)[0]
    for t, level in enumerate(m.levels):
        assert 1 in level
    for t in range(2):
        assert (1, 1) in m.arcs[t]


def test_mdd_unreachable_within_horizon():
    inst = make_instance(path_graph(4), 1, [(0, 3)])
    with pytest.raises(EmptyMddError):
        build_all_mdds(inst, -1)[0]
    with pytest.raises(EmptyMddError):  # arrival step below the path length
        mdd._diagram(0, 3, 2, *inst.distances[0], inst.detours[0],
                     inst.graph.closed_neighbourhoods)


def test_mdd_arc_endpoints_present():
    inst = make_instance(cycle_graph(5), 1, [(0, 2)])
    m = build_all_mdds(inst, 2)[0]
    for t, arcs in enumerate(m.arcs):
        for (u, v) in arcs:
            assert u in m.levels[t]
            assert v in m.levels[t + 1]
            assert u == v or v in inst.graph.adjacency[u]


def _mdd_paths(m):
    paths = {(m.levels[0][0],)}
    for t in range(len(m.arcs)):
        nxt = set()
        for p in paths:
            for (u, v) in m.arcs[t]:
                if u == p[-1]:
                    nxt.add(p + (v,))
        paths = nxt
    return paths


def _last_arrival(walk, goal):
    """The step from which the walk stays at the goal."""
    t = len(walk) - 1
    while t > 0 and walk[t - 1] == goal:
        t -= 1
    return t


def _walks(graph, start, goal, length):
    """All move/wait sequences of the given length from start to goal."""
    out = set()
    for choices in product(range(graph.vertex_count), repeat=length):
        seq = (start,) + choices
        if seq[-1] != goal:
            continue
        if all(b == a or b in graph.adjacency[a] for a, b in zip(seq, seq[1:])):
            out.add(seq)
    return out


@pytest.mark.parametrize("graph,start,goal,mu", [
    (path_graph(3), 0, 2, 4),
    (cycle_graph(4), 0, 2, 4),
    (star_graph(3), 1, 3, 4),
    (cycle_graph(5), 1, 1, 3),
    (path_graph(4), 0, 3, 5),
])
def test_mdd_paths_are_exactly_length_mu_walks(graph, start, goal, mu):
    inst = make_instance(graph, 1, [(start, goal)])
    walks = _walks(graph, start, goal, mu)
    assert _mdd_paths(build_all_mdds(inst, mu - cost_lower_bound(inst))[0]) == walks
    # ended at an arrival step and padded at the goal up to mu: exactly the
    # walks that stay at the goal from then on
    for arrival in range(min(_last_arrival(w, goal) for w in walks), mu + 1):
        m = mdd._diagram(0, goal, arrival, *inst.distances[0], inst.detours[0],
                         inst.graph.closed_neighbourhoods)
        padded = {p + (goal,) * (mu - arrival) for p in _mdd_paths(m)}
        assert padded == {w for w in walks if _last_arrival(w, goal) <= arrival}


def test_short_agent_waits_at_goal_after_its_arrival_step():
    # path lengths 1 and 5: at slack 0 the short agent must be home by step 1,
    # where its diagram ends; the decoded plan waits at its goal up to step 5
    inst = make_instance(path_graph(8), 1, [(7, 6), (0, 5)])
    short, long = build_all_mdds(inst, 0)
    assert short.levels == ((7,), (6,))
    assert short.arcs == (((7, 6),),)
    assert len(long.arcs) == 5 == compute_horizon(inst, cost_lower_bound(inst))
    assert long.levels == tuple((t,) for t in range(6))
    artifacts = encode_complete(inst, cost_lower_bound(inst))
    model = [False] + [True] * artifacts.formula.variable_count
    assert extract_plan(inst, artifacts, model).paths == ((7,) + (6,) * 5, tuple(range(6)))
    # one unit of slack lets the short agent arrive by step 2
    short, _ = build_all_mdds(inst, 1)
    assert short.levels == ((7,), (6, 7), (6,))


def test_diagrams_follow_one_slack_rule(corpus):
    """At slack delta agent i's diagram ends at its arrival step
    c_i + delta with the level (goal,), and the longest diagram spans the
    horizon of cost bound xi0 + delta."""
    for name, inst in corpus:
        dists = agent_distances(inst)
        for delta in range(3):
            mu = compute_horizon(inst, cost_lower_bound(inst) + delta)
            mdds = build_all_mdds(inst, delta)
            for i, (a, m, (from_start, _)) in enumerate(zip(inst.agents, mdds, dists)):
                arrival = from_start[a.goal] + delta
                assert len(m.arcs) == arrival == len(m.levels) - 1, (name, delta, i)
                assert m.levels[arrival] == (a.goal,), (name, delta, i)
            assert max(len(m.arcs) for m in mdds) == mu, (name, delta)


def test_optimal_plans_run_through_the_diagrams(corpus):
    """Every oracle-optimal plan, padded with goal waits to the horizon of
    its cost, runs through each agent's diagram for that cost up to the
    agent's arrival step and waits at its goal after it."""
    checked = 0
    for name, inst in corpus:
        oracle = brute_force_optimal(inst, 8)
        if oracle.status != OPTIMAL:
            continue
        mu = compute_horizon(inst, oracle.cost)
        delta = oracle.cost - cost_lower_bound(inst)
        for i, (m, path) in enumerate(zip(build_all_mdds(inst, delta), oracle.plan.paths)):
            assert len(path) <= mu + 1, name
            path = path + (path[-1],) * (mu + 1 - len(path))
            assert path[0] in m.levels[0], name
            for t, arcs in enumerate(m.arcs):
                assert (path[t], path[t + 1]) in arcs, (name, i, t)
            assert set(path[len(m.arcs):]) == {m.levels[-1][0]}, (name, i)
        checked += 1
    assert checked >= 150


def test_level_sizes_monotone_in_horizon():
    inst = make_instance(cycle_graph(5), 1, [(0, 2)])
    prev = None
    for mu in range(2, 7):
        m = build_all_mdds(inst, mu - cost_lower_bound(inst))[0]
        sizes = [len(lvl) for lvl in m.levels]
        if prev is not None:
            for t in range(len(prev)):
                assert sizes[t] >= prev[t]
        prev = sizes


WALLED = parse_map(
    "type octile\nheight 4\nwidth 5\nmap\n"
    ".....\n"
    ".@@@.\n"
    "...@.\n"
    ".@...\n"
)


def test_every_node_has_through_arcs(corpus):
    walled = make_instance(WALLED, 1, [(0, 14), (10, 11), (8, 3)])
    cases = [(make_instance(cycle_graph(5), 1, [(0, 3)]), 1)]
    cases += [(inst, slack) for _, inst in corpus for slack in range(3)]
    cases += [(walled, slack) for slack in range(4)]
    for inst, slack in cases:
        for m in build_all_mdds(inst, slack):
            for t, level in enumerate(m.levels):
                for v in level:
                    if t < len(m.arcs):
                        assert any(u == v for (u, _) in m.arcs[t])
                    if t > 0:
                        assert any(w == v for (_, w) in m.arcs[t - 1])


def _nodes_and_arcs(mdds):
    nodes = {(i, v, t) for i, m in enumerate(mdds) for t, level in enumerate(m.levels) for v in level}
    arcs = {(i, t, u, v) for i, m in enumerate(mdds) for t, step in enumerate(m.arcs) for (u, v) in step}
    return nodes, arcs


def test_growth_is_what_the_larger_diagram_adds(corpus):
    """build_all_mdds(..., delta, since) holds exactly the nodes and arcs of
    the slack-delta diagrams that the slack-`since` ones lack, level for
    level, and each node's arcs in are the same in every diagram that has it.
    The slack -1 diagrams are empty, so the growth over them is everything."""
    for name, inst in corpus[::2]:
        for since, delta in ((-1, 0), (-1, 2), (0, 1), (1, 2), (0, 3)):
            small = (set(), set()) if since < 0 else _nodes_and_arcs(build_all_mdds(inst, since))
            large = _nodes_and_arcs(build_all_mdds(inst, delta))
            growth = build_all_mdds(inst, delta, since)
            assert [len(m.levels) for m in growth] == [len(m.levels) for m in build_all_mdds(inst, delta)]
            nodes, arcs = _nodes_and_arcs(growth)
            assert small[0] <= large[0] and small[1] <= large[1], (name, delta)
            assert nodes == large[0] - small[0], (name, since, delta)
            assert arcs == large[1] - small[1], (name, since, delta)
            assert all((i, v, t + 1) in nodes for i, t, _, v in arcs), (name, since, delta)
