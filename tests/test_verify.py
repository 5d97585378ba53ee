import pytest

from pathlib import Path

from capmapf import Plan, brute_force_optimal, cost_lower_bound, parse_map, validate_plan
from capmapf.verify import (
    NOT_EDGE,
    NOT_VERTEX,
    OPTIMAL,
    OVER_CAPACITY,
    RAGGED,
    SWAP,
    UNSOLVABLE_WITHIN_BOUND,
    WRONG_GOAL,
    WRONG_START,
    OracleBoundsError,
)

from conftest import cycle_graph, make_instance, p3_swap, path_graph, star_graph


def test_valid_shortest_path():
    inst = make_instance(path_graph(3), 1, [(0, 2)])
    assert validate_plan(inst, Plan(((0, 1, 2),))) == []


def test_swap_detected():
    inst = p3_swap()
    violations = validate_plan(inst, Plan(((0, 1, 2), (1, 0, 0))))
    kinds = {v.kind for v in violations}
    assert SWAP in kinds
    swap = next(v for v in violations if v.kind == SWAP)
    assert swap.time == 0 and swap.where == (0, 1)


def test_over_capacity_detected():
    inst = make_instance(star_graph(3), [2, 1, 1, 1], [(1, 2), (2, 3), (3, 1)])
    # all three meet in the center, which holds only 2
    plan = Plan(((1, 0, 2), (2, 0, 3), (3, 0, 1)))
    violations = validate_plan(inst, plan)
    assert [v.kind for v in violations] == [OVER_CAPACITY]
    assert violations[0].agents == (0, 1, 2)
    assert violations[0].where == 0 and violations[0].time == 1


def test_wrong_endpoints():
    inst = make_instance(path_graph(3), 1, [(0, 2)])
    kinds = {v.kind for v in validate_plan(inst, Plan(((1, 1, 1),)))}
    assert kinds == {WRONG_START, WRONG_GOAL}


def test_not_edge():
    inst = make_instance(path_graph(3), 1, [(0, 2)])
    violations = validate_plan(inst, Plan(((0, 2, 2),)))
    assert any(v.kind == NOT_EDGE for v in violations)


def test_ragged_plan():
    inst = make_instance(path_graph(3), 1, [(0, 2), (2, 0)])
    assert validate_plan(inst, Plan(((0, 1, 2), (2, 0))))[0].kind == RAGGED


def test_out_of_range_vertex_reported():
    text = (Path(__file__).parent / "fixtures" / "tiny.map").read_text()
    inst = make_instance(parse_map(text), 1, [(0, 2)])
    violations = validate_plan(inst, Plan(((99, 2),)))
    assert [(v.kind, v.time, v.agents, v.where) for v in violations] == [
        (NOT_VERTEX, 0, (0,), 99)
    ]
    assert validate_plan(inst, Plan(((0, -1, 2),)))[0].kind == NOT_VERTEX


def test_follow_train_rotation_is_valid():
    # agents rotating around a cycle enter vertices being simultaneously vacated
    inst = make_instance(cycle_graph(3), 1, [(0, 1), (1, 2), (2, 0)])
    plan = Plan(((0, 1), (1, 2), (2, 0)))
    assert validate_plan(inst, plan) == []


def test_sum_of_costs_examples():
    assert Plan(((0, 1, 2),)).sum_of_costs == 2
    assert Plan(((0, 1, 1, 2),)).sum_of_costs == 3
    assert Plan(((2, 2, 2),)).sum_of_costs == 0
    assert Plan(((2, 2, 0, 2),)).sum_of_costs == 3  # leaving the goal re-charges


def test_oracle_single_agent():
    inst = make_instance(path_graph(3), 1, [(0, 2)])
    result = brute_force_optimal(inst, 4)
    assert result.status == OPTIMAL and result.cost == 2


def test_oracle_swap_unsolvable():
    assert brute_force_optimal(p3_swap(), 8).status == UNSOLVABLE_WITHIN_BOUND


def test_oracle_swap_with_wide_middle():
    # capacity 2 lets the agents cross through the middle simultaneously
    result = brute_force_optimal(p3_swap(middle_capacity=2), 6)
    assert result.status == OPTIMAL
    assert result.cost == 4
    assert validate_plan(p3_swap(2), result.plan) == []


def test_oracle_witness_consistency(corpus):
    for name, inst in corpus[:40]:
        result = brute_force_optimal(inst, 8)
        if result.status == OPTIMAL:
            assert validate_plan(inst, result.plan) == [], name
            assert result.plan.sum_of_costs == result.cost, name
            assert result.cost >= cost_lower_bound(inst), name


def test_oracle_refuses_large_inputs():
    from capmapf import generate_random

    with pytest.raises(OracleBoundsError):
        brute_force_optimal(generate_random(4, 4, 2, 1, seed=0), 4)
    with pytest.raises(OracleBoundsError):
        brute_force_optimal(make_instance(path_graph(3), 1, [(0, 2)]), 9)
    with pytest.raises(OracleBoundsError):
        brute_force_optimal(
            make_instance(path_graph(5), 2, [(0, 4), (1, 3), (2, 0), (4, 1)]), 6
        )
