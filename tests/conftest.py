import importlib.util
import random
from pathlib import Path

import pytest

from capmapf import Agent, CapacityMap, Graph, Instance, parse_map


def load_check(name: str):
    """A script of `checks/`, loaded as a module by its file path."""
    path = Path(__file__).resolve().parent.parent / "checks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def grid3x3() -> Graph:
    return parse_map("type octile\nheight 3\nwidth 3\nmap\n...\n...\n...\n")


def make_instance(graph: Graph, caps, pairs) -> Instance:
    if isinstance(caps, int):
        capacities = CapacityMap.uniform(graph, caps)
    else:
        capacities = CapacityMap(tuple(caps))
    agents = tuple(Agent(s, g) for s, g in pairs)
    return Instance(graph, capacities, agents)


def p3_swap(middle_capacity: int = 1) -> Instance:
    return make_instance(path_graph(3), (1, middle_capacity, 1), [(0, 2), (2, 0)])


def _sample_placement(rng: random.Random, n: int, c: int, k: int) -> list[int]:
    slots = rng.sample(range(n * c), k)
    return [s % n for s in slots]


def build_corpus() -> list[tuple[str, Instance]]:
    """Deterministic exhaustive-testing corpus: small graphs, k <= 3, c in {1, 2}."""
    graphs = [
        ("p2", path_graph(2)),
        ("p3", path_graph(3)),
        ("p4", path_graph(4)),
        ("c3", cycle_graph(3)),
        ("c4", cycle_graph(4)),
        ("c5", cycle_graph(5)),
        ("star3", star_graph(3)),
        ("grid3x3", grid3x3()),
    ]
    rng = random.Random(20240817)
    corpus = []
    for gname, graph in graphs:
        n = graph.vertex_count
        for k in (1, 2, 3):
            for c in (1, 2):
                if k > n * c:
                    continue
                for rep in range(5):
                    starts = _sample_placement(rng, n, c, k)
                    goals = _sample_placement(rng, n, c, k)
                    inst = make_instance(graph, c, list(zip(starts, goals)))
                    corpus.append((f"{gname}-k{k}-c{c}-r{rep}", inst))
    return corpus


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()
