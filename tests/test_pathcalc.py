import heapq
import random

import pytest

from capmapf import (
    UNREACHABLE,
    Conflict,
    Graph,
    Instance,
    Plan,
    bfs_distances,
    cost_lower_bound,
    generate_random,
    validate_candidate,
    validate_plan,
)
from capmapf.instance import CapacityMap
from capmapf.pathcalc import UnsolvableInstanceError, cardinal_lift, shortest_path_plan
from capmapf.plans import CAPACITY, SWAP
from capmapf.verify import OPTIMAL, brute_force_optimal

from conftest import cycle_graph, grid3x3, make_instance, path_graph, star_graph


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


@pytest.mark.parametrize("capacity", [1, 2])
def test_lift_counts_a_corridor_swap_at_any_capacity(capacity):
    """path_graph(4), agents 0->3 and 3->0: at step 1 each is forced across
    the edge 1-2 against the other. The optimum at capacity 2 is xi0 + 1."""
    assert cardinal_lift(make_instance(path_graph(4), capacity, [(0, 3), (3, 0)])) == (1, [True, True])


@pytest.mark.parametrize("capacity, lift", [(1, 1), (2, 0)])
def test_lift_counts_a_full_vertex(capacity, lift):
    """Two agents across a star, 1->2 and 3->4, are both forced onto the
    centre at step 1; they cross no edge against each other."""
    inst = make_instance(star_graph(4), (capacity, 1, 1, 1, 1), [(1, 2), (3, 4)])
    assert cardinal_lift(inst) == (lift, [lift > 0] * 2)


def test_lift_counts_the_agents_over_a_capacity():
    """Three agents forced onto the centre of a star at step 1, capacity 2."""
    inst = make_instance(star_graph(6), (2, 1, 1, 1, 1, 1, 1), [(1, 2), (3, 4), (5, 6)])
    assert cardinal_lift(inst) == (1, [True, True, True])


def test_lift_counts_an_agent_settled_on_a_forced_node():
    """A T: path 0-1-2-3 with 4 hung on 2. Agent 1 goes 4->2 and is home by
    step 1; agent 0 goes 0->3 and is forced through 2 at step 2."""
    graph = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    assert cardinal_lift(make_instance(graph, 1, [(0, 3), (4, 2)])) == (1, [True, True])


def test_lift_adds_disjoint_groups():
    """Two corridors, each with a swap: the groups share no agent, so their
    delays add."""
    graph = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
    assert cardinal_lift(make_instance(graph, 1, [(0, 3), (3, 0), (4, 7), (7, 4)])) == (2, [True] * 4)


def test_lift_stays_at_or_below_the_optimum(corpus):
    """xi0 + lift <= the oracle's optimum on every corpus instance at its own
    capacity and every higher one up to 3, and the lift is 0 wherever the
    root plan, which costs xi0, is clean. Where it lifts, the budgets hold
    in the oracle's plan: the agents other than i are delayed by at least
    cut_i together (the lift less 1 for a counted agent, the lift for any
    other), so agent i by at most (xi* - xi0) - cut_i; some agent meets its
    budget exactly."""
    checked = lifted = exact = 0
    for name, inst in corpus:
        for c in range(max(inst.capacities.values), 4):
            variant = Instance(inst.graph, CapacityMap.uniform(inst.graph, c), inst.agents)
            lift, counted = cardinal_lift(variant)
            assert sum(counted) > lift if lift else not any(counted), (name, c)
            if validate_candidate(variant, variant.root_plan) == []:
                assert lift == 0, name
                continue
            oracle = brute_force_optimal(variant, 8)
            if oracle.status == OPTIMAL:
                xi0 = cost_lower_bound(variant)
                assert xi0 + lift <= oracle.cost, (name, c)
                checked += 1
                if lift == 0:
                    continue
                lifted += 1
                delays = [arrival - from_start[a.goal] for a, arrival, (from_start, _) in zip(
                    variant.agents, oracle.plan.arrivals, variant.distances)]
                for i, (d, is_counted) in enumerate(zip(delays, counted)):
                    cut = lift - 1 if is_counted else lift
                    assert sum(delays) - d >= cut, (name, c, i)
                    assert d <= oracle.cost - xi0 - cut, (name, c, i)
                    exact += d == oracle.cost - xi0 - cut
    assert checked >= 80 and lifted >= 80 and exact >= 1


def test_root_plan_attains_the_lower_bound(corpus):
    """Each root path is a shortest path that waits at its goal, so the plan
    costs exactly the lower bound; the instance builds it once, and wherever
    the independent BFS paths are clean the root is those paths."""
    checked = bfs_clean = 0
    for _, inst in corpus:
        try:
            xi0 = cost_lower_bound(inst)
        except UnsolvableInstanceError:
            continue
        plan = inst.root_plan
        assert plan is inst.root_plan
        assert plan.sum_of_costs == xi0
        for a, (_, to_goal), path in zip(inst.agents, inst.distances, plan.paths):
            arrival = to_goal[a.start]
            assert path[0] == a.start and set(path[arrival:]) == {a.goal}
            for u, v in zip(path[:arrival], path[1:arrival + 1]):
                assert v in inst.graph.adjacency[u] and to_goal[v] == to_goal[u] - 1
        bfs = shortest_path_plan(inst)
        if validate_candidate(inst, bfs) == []:
            assert plan == bfs
            bfs_clean += 1
        checked += 1
    assert checked >= 50 and bfs_clean >= 50


def test_shortest_path_plan_steps_to_the_lowest_id_vertex(corpus):
    """Each BFS path steps to the lowest-id vertex one step nearer its goal
    and waits there, so the plan costs exactly the lower bound."""
    checked = 0
    for _, inst in corpus:
        try:
            xi0 = cost_lower_bound(inst)
        except UnsolvableInstanceError:
            continue
        plan = shortest_path_plan(inst)
        assert plan.sum_of_costs == xi0
        for a, (_, to_goal), path in zip(inst.agents, inst.distances, plan.paths):
            arrival = to_goal[a.start]
            assert path[0] == a.start and set(path[arrival:]) == {a.goal}
            for u, v in zip(path[:arrival], path[1:arrival + 1]):
                assert v == min(w for w in inst.graph.adjacency[u] if to_goal[w] == to_goal[u] - 1)
        checked += 1
    assert checked >= 50


def _shortest_paths(inst, i):
    """Every shortest path of agent i, in ascending lexicographic order."""
    adjacency, (_, to_goal), goal = inst.graph.adjacency, inst.distances[i], inst.agents[i].goal
    stack = [(inst.agents[i].start,)]
    while stack:
        path = stack.pop()
        if path[-1] == goal:
            yield path
            continue
        nearer = to_goal[path[-1]] - 1
        stack.extend(path + (u,) for u in reversed(adjacency[path[-1]]) if to_goal[u] == nearer)


def _enumerated_root(inst):
    """Prioritized planning by enumeration, judged by the independent plan
    validator: in each order every agent takes its least shortest path that
    is valid alongside the agents already placed, all padded to max_j c_j."""
    mu = max(len(next(_shortest_paths(inst, i))) for i in range(inst.k))
    order, moved = list(range(inst.k)), set()
    while True:
        placed = {}
        for i in order:
            ids = [*placed, i]
            sub = Instance(inst.graph, inst.capacities, tuple(inst.agents[j] for j in ids))
            for path in _shortest_paths(inst, i):
                paths = [*placed.values(), path + (path[-1],) * (mu - len(path))]
                if validate_plan(sub, Plan(tuple(paths))) == []:
                    placed[i] = paths[-1]
                    break
            else:
                break
        else:
            return Plan(tuple(placed[i] for i in range(inst.k)))
        if i in moved:
            return shortest_path_plan(inst)
        moved.add(i)
        order.remove(i)
        order.insert(0, i)


def test_root_plan_matches_enumerated_prioritized_planning(corpus):
    """The root plan's search returns what enumerating every shortest path
    and checking it with the plan validator returns, restarts included."""
    instances = [inst for _, inst in corpus]
    instances += [generate_random(4, 4, k, c, seed) for k in (4, 6, 8) for c in (1, 2) for seed in range(10)]
    checked = 0
    for inst in instances:
        try:
            cost_lower_bound(inst)
        except UnsolvableInstanceError:
            continue
        assert inst.root_plan == _enumerated_root(inst)
        checked += 1
    assert checked >= 250


def test_root_plan_routes_around_a_full_vertex():
    """grid3x3 at c=2, two agents 0->8 and one 8->0: all three BFS paths
    reach vertex 2 at step 2, one over its capacity. The third agent takes
    the other shortest path, through the centre, and the root is clean."""
    inst = make_instance(grid3x3(), 2, [(0, 8), (0, 8), (8, 0)])
    assert validate_candidate(inst, shortest_path_plan(inst)) == [Conflict(CAPACITY, (0, 1, 2), 2, 2)]
    assert inst.root_plan == Plan(((0, 1, 2, 5, 8), (0, 1, 2, 5, 8), (8, 5, 4, 1, 0)))
    assert validate_candidate(inst, inst.root_plan) == []


def test_root_plan_restarts_with_a_blocked_agent_first():
    """cycle_graph(4) at c=1, agent 0 from 0 to 2 and agent 1 settled at 1:
    in id order agent 0 takes 0-1-2 and leaves agent 1 no room at step 1,
    so agent 1 goes first and agent 0 takes the other way round."""
    inst = make_instance(cycle_graph(4), 1, [(0, 2), (1, 1)])
    assert shortest_path_plan(inst) == Plan(((0, 1, 2), (1, 1, 1)))
    assert inst.root_plan == Plan(((0, 3, 2), (1, 1, 1)))
    assert validate_candidate(inst, inst.root_plan) == []


def test_root_plan_keeps_clear_of_a_swap():
    """cycle_graph(4) at c=1, two agents exchanging the adjacent vertices 0
    and 1: each one's only shortest path crosses the edge against the
    other's, in either order, so the root falls back to the BFS paths."""
    inst = make_instance(cycle_graph(4), 1, [(0, 1), (1, 0)])
    assert inst.root_plan == shortest_path_plan(inst) == Plan(((0, 1), (1, 0)))
    assert validate_candidate(inst, inst.root_plan) == [Conflict(SWAP, (0, 1), (0, 1), 0)]
