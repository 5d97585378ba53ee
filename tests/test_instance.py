import pytest

from capmapf import (
    CapacityMap,
    Graph,
    Instance,
    generate_random,
    load_capacities,
    parse_map,
    parse_scenario,
    serialize_map,
    solve,
    validate_instance,
    validate_plan,
)
from capmapf.instance import (
    CapacityError,
    InstanceError,
    MapFormatError,
    ScenarioError,
)
from capmapf.solvers import EAGER, LAZY, SOLVED

from conftest import make_instance, path_graph

OPEN_2X2 = "type octile\nheight 2\nwidth 2\nmap\n..\n..\n"
BLOCKED_2X2 = "type octile\nheight 2\nwidth 2\nmap\n..\n.@\n"
OPEN_1X3 = "type octile\nheight 1\nwidth 3\nmap\n...\n"


def test_parse_map_full_square():
    g = parse_map(OPEN_2X2)
    assert g.vertex_count == 4
    assert g.edges() == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_parse_map_blocked_corner():
    g = parse_map(BLOCKED_2X2)
    assert g.vertex_count == 3
    assert g.edges() == [(0, 1), (0, 2)]


def test_parse_map_row():
    g = parse_map(OPEN_1X3)
    assert g.vertex_count == 3
    assert g.edges() == [(0, 1), (1, 2)]


def test_parse_map_accepts_g_and_blocks_trees():
    g = parse_map("type octile\nheight 1\nwidth 4\nmap\n.GT@\n")
    assert g.vertex_count == 2
    assert g.edges() == [(0, 1)]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("height 2\nwidth 2\nmap\n..\n..\n", "type"),
        ("type octile\nheight 2\nmap\n..\n..\n", "width"),
        ("type octile\nheight 2\nwidth 2\nmap\n...\n..\n", "line 5"),
        ("type octile\nheight 3\nwidth 2\nmap\n..\n..\n", "rows"),
        ("type octile\nheight 1\nwidth 2\nmap\n.x\n", "line 5"),
        ("garbage\n", "line 1"),
    ],
)
def test_parse_map_errors(text, fragment):
    with pytest.raises(MapFormatError, match=fragment):
        parse_map(text)


def test_map_round_trip_byte_stable():
    for text in (OPEN_2X2, BLOCKED_2X2, OPEN_1X3):
        assert serialize_map(parse_map(text)) == text


def test_serialize_requires_grid():
    with pytest.raises(InstanceError):
        serialize_map(path_graph(3))


def test_parse_scenario_basic():
    g = parse_map(OPEN_1X3)
    agents = parse_scenario("version 1\n0\tm\t3\t1\t0\t0\t2\t0\t2\n", g)
    assert len(agents) == 1
    assert (agents[0].start, agents[0].goal) == (0, 2)


def test_parse_scenario_empty_body():
    g = parse_map(OPEN_1X3)
    assert parse_scenario("version 1\n", g) == []


def test_parse_scenario_blocked_cell():
    g = parse_map(BLOCKED_2X2)
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario("version 1\n0\tm\t2\t2\t1\t1\t0\t0\t1\n", g)


def test_parse_scenario_needs_grid():
    with pytest.raises(ScenarioError, match="grid"):
        parse_scenario("version 1\n", path_graph(3))


def test_parse_scenario_missing_version():
    g = parse_map(OPEN_1X3)
    with pytest.raises(ScenarioError, match="version"):
        parse_scenario("0\tm\t3\t1\t0\t0\t2\t0\t2\n", g)


def test_load_capacities_uniform():
    g = parse_map(OPEN_2X2)
    assert load_capacities("uniform(2)", g).values == (2, 2, 2, 2)


def test_load_capacities_per_vertex_defaults():
    g = parse_map(OPEN_1X3)
    caps = load_capacities("# middle is wide\n1 3\n", g)
    assert caps.values == (1, 3, 1)


def test_load_capacities_rejects_nonpositive():
    g = parse_map(OPEN_1X3)
    with pytest.raises(CapacityError):
        load_capacities("uniform(0)", g)
    with pytest.raises(CapacityError):
        load_capacities("1 0\n", g)
    with pytest.raises(CapacityError, match="unknown vertex"):
        load_capacities("9 2\n", g)
    with pytest.raises(CapacityError, match="line 2: vertex 0 already listed on line 1"):
        load_capacities("0 5\n0 2\n", g)


def test_generate_random_basic():
    inst = generate_random(8, 8, 10, 1, seed=7)
    assert inst.graph.vertex_count == 64
    assert inst.k == 10
    assert len({a.start for a in inst.agents}) == 10
    assert len({a.goal for a in inst.agents}) == 10
    validate_instance(inst)


def test_generate_random_with_capacity():
    inst = generate_random(1, 3, 2, 2, seed=1)
    assert inst.graph.vertex_count == 3
    validate_instance(inst)


def test_generate_random_deterministic():
    assert generate_random(5, 5, 6, 2, seed=42) == generate_random(5, 5, 6, 2, seed=42)
    assert generate_random(5, 5, 6, 2, seed=42) != generate_random(5, 5, 6, 2, seed=43)


def test_generate_random_infeasible():
    with pytest.raises(InstanceError):
        generate_random(2, 2, 5, 1, seed=0)


def test_a_slice_of_agents_is_an_instance():
    inst = generate_random(4, 4, 4, 1, 3)
    dropped = Instance(inst.graph, inst.capacities, inst.agents[1:])
    validate_instance(dropped)
    eager, lazy = solve(dropped, EAGER), solve(dropped, LAZY)
    assert eager.status == lazy.status == SOLVED
    assert eager.optimal_cost == lazy.optimal_cost
    assert validate_plan(dropped, eager.plan) == validate_plan(dropped, lazy.plan) == []


def test_validate_instance_overfull_start():
    inst = make_instance(path_graph(3), 1, [(0, 2), (0, 1)])
    with pytest.raises(InstanceError, match="overfills"):
        validate_instance(inst)


def test_capacity_map_rejects_zero():
    with pytest.raises(CapacityError):
        CapacityMap((1, 0, 1))


def test_graph_invariants_checked():
    with pytest.raises(InstanceError):
        Graph(((1,), ()))  # asymmetric
    with pytest.raises(InstanceError):
        Graph(((0,),))  # self-loop
