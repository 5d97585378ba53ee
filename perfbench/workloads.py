"""Benchmark workloads: fixed instance pools and their text round trip.

Each workload is a pool of open-grid instances from `generate_random`. The
pool is fixed so that its optimal costs can be checked against the committed
reference table; the run seed only shuffles the order the pool is solved in.
Every instance reaches the solvers the way a user's input would: serialised
to movingai `.map`/`.scen` text and parsed back.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from capmapf import instance as inst_mod
from capmapf.instance import CapacityMap, Instance, generate_random, serialize_map, validate_instance

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

#: per-solve wall limit, far above the slowest pool solve when the table was made (2.5 s)
TIME_LIMIT_S = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    width: int
    height: int
    agents: int
    capacities: tuple[int, ...]
    seeds: tuple[int, ...]  # instance seeds handed to generate_random

    def pool(self) -> list[tuple[int, int]]:
        """(instance seed, capacity) for every pool member, in a fixed order."""
        return [(s, c) for c in self.capacities for s in self.seeds]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("congestion", 8, 8, 12, (1, 2), tuple(range(100, 110))),
        Workload("open16", 16, 16, 4, (1,), tuple(range(100, 120))),
        Workload("dense4", 4, 4, 7, (1,), tuple(range(100, 120))),
    )
}


def instance_key(seed: int, capacity: int) -> str:
    return f"s{seed}-c{capacity}"


def scenario_text(instance: Instance, map_name: str) -> str:
    """movingai `.scen` text for the instance's agents (optimal-length column 0)."""
    graph = instance.graph
    cells = [i for i, p in enumerate(graph.passable) if p]
    lines = ["version 1"]
    for a in instance.agents:
        s, g = cells[a.start], cells[a.goal]
        lines.append(
            f"0\t{map_name}\t{graph.width}\t{graph.height}\t"
            f"{s % graph.width}\t{s // graph.width}\t{g % graph.width}\t{g // graph.width}\t0"
        )
    return "\n".join(lines) + "\n"


def load_pool(workload: Workload) -> list[tuple[str, Instance]]:
    """Generate, serialise and re-parse the pool; the solvers only see parsed input."""
    out = []
    for seed, capacity in workload.pool():
        generated = generate_random(workload.width, workload.height, workload.agents, capacity, seed)
        map_text = serialize_map(generated.graph)
        scen_text = scenario_text(generated, f"{workload.name}.map")
        graph = inst_mod.parse_map(map_text)
        agents = inst_mod.parse_scenario(scen_text, graph)
        parsed = Instance(graph, CapacityMap.uniform(graph, capacity), tuple(agents))
        validate_instance(parsed)
        if parsed != generated:
            key = instance_key(seed, capacity)
            raise ValueError(f"{workload.name} {key}: text round trip changed the instance")
        out.append((instance_key(seed, capacity), parsed))
    return out


def shuffled(n: int, seed: int) -> list[int]:
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


def load_reference() -> dict[str, dict[str, int]]:
    with open(REFERENCE, encoding="utf-8") as f:
        return json.load(f)["costs"]
