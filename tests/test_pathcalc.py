import heapq
import random

import pytest

from capmapf import UNREACHABLE, bfs_distances, cost_lower_bound, Graph
from capmapf.pathcalc import UnsolvableInstanceError, shortest_path_plan

from conftest import make_instance, path_graph


def dijkstra_unit(graph: Graph, source: int) -> list[int]:
    dist = [UNREACHABLE] * graph.vertex_count
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if dist[u] != UNREACHABLE:
            continue
        dist[u] = d
        for v in graph.adjacency[u]:
            if dist[v] == UNREACHABLE:
                heapq.heappush(heap, (d + 1, v))
    return dist


def test_bfs_p3():
    assert bfs_distances(path_graph(3), 0) == (0, 1, 2)


def test_bfs_disconnected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    field = bfs_distances(g, 0)
    assert field == (0, 1, UNREACHABLE, UNREACHABLE)


def test_bfs_open_grid_is_manhattan():
    from capmapf import generate_random

    inst = generate_random(8, 8, 1, 1, seed=0)
    field = bfs_distances(inst.graph, 0)
    for v in range(64):
        x, y = v % 8, v // 8
        assert field[v] == x + y
    assert field == tuple(dijkstra_unit(inst.graph, 0))


def test_bfs_matches_dijkstra_on_random_graphs():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 12)
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(possible, min(len(possible), rng.randint(1, 2 * n)))
        g = Graph.from_edges(n, edges)
        src = rng.randrange(n)
        assert bfs_distances(g, src) == tuple(dijkstra_unit(g, src))


def test_bfs_edge_lipschitz():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    field = bfs_distances(g, 0)
    for u, v in g.edges():
        assert abs(field[u] - field[v]) <= 1


def test_lower_bound_single_agent():
    assert cost_lower_bound(make_instance(path_graph(3), 1, [(0, 2)])) == 2


def test_lower_bound_two_agents():
    assert cost_lower_bound(make_instance(path_graph(3), 1, [(0, 2), (2, 0)])) == 4


def test_lower_bound_settled_agent_free():
    assert cost_lower_bound(make_instance(path_graph(3), 2, [(1, 1)])) == 0


def test_lower_bound_unreachable():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(UnsolvableInstanceError):
        cost_lower_bound(make_instance(g, 1, [(0, 3)]))


def test_root_plan_attains_the_lower_bound(corpus):
    """Each root path is a shortest path that steps to the lowest-id vertex
    one step nearer its goal and waits there, so the plan costs exactly the
    lower bound; the instance builds it once."""
    checked = 0
    for _, inst in corpus:
        try:
            xi0 = cost_lower_bound(inst)
        except UnsolvableInstanceError:
            continue
        plan = inst.root_plan
        assert plan is inst.root_plan and plan == shortest_path_plan(inst)
        assert plan.sum_of_costs == xi0
        for a, (_, to_goal), path in zip(inst.agents, inst.distances, plan.paths):
            arrival = to_goal[a.start]
            assert path[0] == a.start and set(path[arrival:]) == {a.goal}
            for u, v in zip(path[:arrival], path[1:arrival + 1]):
                assert v == min(w for w in inst.graph.adjacency[u] if to_goal[w] == to_goal[u] - 1)
        checked += 1
    assert checked >= 50
