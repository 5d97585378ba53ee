"""Capacitated MAPF instances: graphs, vertex capacities, agents, file formats.

Vertices are dense integers.  Graphs built from grid maps assign ids
row-major over passable cells and keep the grid metadata so scenario
coordinates can be resolved back to vertex ids.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .pathcalc import (AgentDetours, AgentDistances, agent_detours, agent_distances,
                       prioritized_root_plan)
from .plans import Plan

PASSABLE_CHARS = frozenset(".G")
BLOCKED_CHARS = frozenset("@OTW")


class MapFormatError(ValueError):
    """Malformed movingai .map input."""


class ScenarioError(ValueError):
    """Malformed or inconsistent movingai .scen input."""


class CapacityError(ValueError):
    """Invalid capacity specification."""


class InstanceError(ValueError):
    """Instance violates a structural invariant."""


@dataclass(frozen=True)
class Graph:
    """Undirected graph; adjacency lists are sorted, symmetric, loop-free."""

    adjacency: tuple[tuple[int, ...], ...]
    # grid metadata, present only when built from a map
    width: int | None = None
    height: int | None = None
    passable: tuple[bool, ...] | None = None  # row-major, len == width*height

    def __post_init__(self):
        n = len(self.adjacency)
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if not 0 <= v < n:
                    raise InstanceError(f"neighbor {v} of {u} out of range")
                if v == u:
                    raise InstanceError(f"self-loop at {u}")
                if u not in self.adjacency[v]:
                    raise InstanceError(f"asymmetric edge {u}-{v}")
            if len(set(nbrs)) != len(nbrs):
                raise InstanceError(f"duplicate neighbor in list of {u}")

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    @cached_property
    def closed_neighbourhoods(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, itself and its neighbours in ascending order: the
        targets of a wait or a move. Computed on first use."""
        return tuple(tuple(sorted((u, *nbrs))) for u, nbrs in enumerate(self.adjacency))

    @cached_property
    def _cells_before(self) -> tuple[int, ...]:
        """Per grid cell, the passable cells before it in row-major order: a
        passable cell's vertex id, as `_grid_graph` numbers it. Computed on
        first use."""
        return tuple(accumulate(self.passable, initial=0))

    @property
    def has_grid(self) -> bool:
        return self.width is not None

    def cell_to_vertex(self, x: int, y: int) -> int | None:
        """Vertex id for grid cell (x=column, y=row); None if blocked/out of bounds."""
        if not self.has_grid:
            raise InstanceError("graph has no grid metadata")
        if not (0 <= x < self.width and 0 <= y < self.height):
            return None
        idx = y * self.width + x
        if not self.passable[idx]:
            return None
        return self._cells_before[idx]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.vertex_count) for v in self.adjacency[u] if u < v]

    @staticmethod
    def from_edges(vertex_count: int, edges: list[tuple[int, int]]) -> "Graph":
        adj: list[set[int]] = [set() for _ in range(vertex_count)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        return Graph(tuple(tuple(sorted(s)) for s in adj))


@dataclass(frozen=True)
class CapacityMap:
    """Per-vertex positive agent capacity."""

    values: tuple[int, ...]

    def __post_init__(self):
        if any(c < 1 for c in self.values):
            raise CapacityError("every capacity must be >= 1")

    def __getitem__(self, v: int) -> int:
        return self.values[v]

    def __len__(self) -> int:
        return len(self.values)

    @staticmethod
    def uniform(graph: Graph, c: int) -> "CapacityMap":
        if c < 1:
            raise CapacityError(f"uniform capacity must be >= 1, got {c}")
        return CapacityMap((c,) * graph.vertex_count)


@dataclass(frozen=True)
class Agent:
    """Identified by its position in `Instance.agents`."""
    start: int
    goal: int


@dataclass(frozen=True)
class Instance:
    graph: Graph
    capacities: CapacityMap
    agents: tuple[Agent, ...]

    @property
    def k(self) -> int:
        return len(self.agents)

    @cached_property
    def distances(self) -> AgentDistances:
        """Per agent, its BFS distances from its start and to its goal, the
        input of every cost bound's diagrams. Computed on first use, once
        per instance; raises UnsolvableInstanceError, and caches nothing,
        while some goal is unreachable."""
        return agent_distances(self)

    @cached_property
    def detours(self) -> AgentDetours:
        """Per agent, its vertices bucketed by detour d_start(v) + d_goal(v)
        - c_i (`agent_detours`): the diagrams at cost slack delta hold only
        the vertices of buckets 0..delta, so a growth to delta and
        `cardinal_lift`, which reads bucket 0, visit no other vertex.
        Computed from `distances` on first use, once per instance, so a
        solve the root plan settles never builds it."""
        return agent_detours(self)

    @cached_property
    def root_plan(self) -> Plan:
        """Each agent's shortest path, padded at its goal, planned in
        priority order to keep clear of the capacities and swaps of the
        agents before it (`prioritized_root_plan`): a plan that costs the
        sum-of-costs lower bound and, when it has no conflict, is optimal.
        Computed on first use, once per instance, so the reports of repeated
        solves share it."""
        return prioritized_root_plan(self)


def _grid_graph(width: int, height: int, passable: list[bool]) -> Graph:
    ids = tuple(accumulate(passable, initial=0))  # as Graph._cells_before
    adj: list[list[int]] = [[] for _ in range(ids[-1])]
    for y in range(height):
        for x in range(width):
            i = y * width + x
            if not passable[i]:
                continue
            for dx, dy in ((1, 0), (0, 1)):
                nx, ny = x + dx, y + dy
                if nx < width and ny < height:
                    j = ny * width + nx
                    if passable[j]:
                        adj[ids[i]].append(ids[j])
                        adj[ids[j]].append(ids[i])
    return Graph(tuple(tuple(sorted(a)) for a in adj), width, height, tuple(passable))


def parse_map(text: str) -> Graph:
    """Parse a movingai .map file into a 4-connected grid graph.

    `.` and `G` are passable; `@`, `O`, `T`, `W` are blocked.  Anything
    else is an error.  Raises MapFormatError with the offending line number.
    """
    lines = text.splitlines()
    header: dict[str, str] = {}
    body_start = None
    for ln, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped == "map":
            body_start = ln
            break
        parts = stripped.split(None, 1)
        if len(parts) != 2:
            raise MapFormatError(f"line {ln}: malformed header line {stripped!r}")
        header[parts[0]] = parts[1]
    if body_start is None:
        raise MapFormatError("missing 'map' header terminator")
    if "type" not in header:
        raise MapFormatError("missing 'type' header")
    try:
        height = int(header["height"])
        width = int(header["width"])
    except (KeyError, ValueError) as exc:
        raise MapFormatError(f"missing or non-integer height/width: {exc}") from exc
    rows = lines[body_start:]
    while rows and rows[-1] == "":
        rows.pop()
    if len(rows) != height:
        raise MapFormatError(f"line {body_start}: expected {height} map rows, got {len(rows)}")
    passable: list[bool] = []
    for i, row in enumerate(rows):
        ln = body_start + 1 + i
        if len(row) != width:
            raise MapFormatError(f"line {ln}: row length {len(row)} != width {width}")
        for ch in row:
            if ch in PASSABLE_CHARS:
                passable.append(True)
            elif ch in BLOCKED_CHARS:
                passable.append(False)
            else:
                raise MapFormatError(f"line {ln}: unknown cell character {ch!r}")
    return _grid_graph(width, height, passable)


def serialize_map(graph: Graph) -> str:
    """Inverse of parse_map on the passable mask; emits canonical `.`/`@` cells."""
    if not graph.has_grid:
        raise InstanceError("cannot serialize a graph without grid metadata")
    rows = []
    for y in range(graph.height):
        row = graph.passable[y * graph.width:(y + 1) * graph.width]
        rows.append("".join("." if p else "@" for p in row))
    return (
        f"type octile\nheight {graph.height}\nwidth {graph.width}\nmap\n"
        + "\n".join(rows)
        + "\n"
    )


def parse_scenario(text: str, graph: Graph) -> list[Agent]:
    """Parse a movingai .scen file; agents are numbered in file order.

    Columns used are start-x, start-y, goal-x, goal-y; the bucket, map name
    and optimal-length columns are parsed and ignored.
    """
    if not graph.has_grid:
        raise ScenarioError("graph lacks grid metadata; cannot resolve coordinates")
    lines = text.splitlines()
    if not lines or not lines[0].startswith("version"):
        raise ScenarioError("line 1: missing 'version' header")
    agents: list[Agent] = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) < 8:
            raise ScenarioError(f"line {ln}: expected >= 8 columns, got {len(fields)}")
        try:
            sx, sy, gx, gy = (int(f) for f in fields[4:8])
        except ValueError as exc:
            raise ScenarioError(f"line {ln}: non-integer coordinate: {exc}") from exc
        start = graph.cell_to_vertex(sx, sy)
        goal = graph.cell_to_vertex(gx, gy)
        if start is None:
            raise ScenarioError(f"line {ln}: start ({sx},{sy}) blocked or out of bounds")
        if goal is None:
            raise ScenarioError(f"line {ln}: goal ({gx},{gy}) blocked or out of bounds")
        agents.append(Agent(start, goal))
    return agents


_UNIFORM_RE = re.compile(r"^uniform\(\s*(-?\d+)\s*\)$")


def load_capacities(spec: str, graph: Graph) -> CapacityMap:
    """Build a CapacityMap from `uniform(c)` or per-vertex `vertex_id capacity` lines.

    Unlisted vertices default to capacity 1; a vertex listed twice is an
    error.  `#` starts a comment.
    """
    m = _UNIFORM_RE.match(spec.strip())
    if m:
        return CapacityMap.uniform(graph, int(m.group(1)))
    values = [1] * graph.vertex_count
    listed_on: dict[int, int] = {}  # vertex -> the line that set it
    for ln, line in enumerate(spec.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise CapacityError(f"line {ln}: expected 'vertex_id capacity', got {line!r}")
        try:
            v, c = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise CapacityError(f"line {ln}: {exc}") from exc
        if not 0 <= v < graph.vertex_count:
            raise CapacityError(f"line {ln}: unknown vertex id {v}")
        if c < 1:
            raise CapacityError(f"line {ln}: capacity must be >= 1, got {c}")
        if v in listed_on:
            raise CapacityError(f"line {ln}: vertex {v} already listed on line {listed_on[v]}")
        listed_on[v] = ln
        values[v] = c
    return CapacityMap(tuple(values))


def _random_placement(rng: random.Random, n_vertices: int, capacity: int, k: int) -> list[int]:
    # sample k of the n*capacity occupancy slots; slot -> vertex keeps counts <= capacity
    slots = rng.sample(range(n_vertices * capacity), k)
    return [s % n_vertices for s in slots]


def generate_random(width: int, height: int, k: int, capacity: int, seed: int) -> Instance:
    """Random open-grid instance; pure function of its arguments.

    Starts and goals are drawn independently, each respecting the uniform
    vertex capacity.
    """
    if capacity < 1:
        raise CapacityError(f"capacity must be >= 1, got {capacity}")
    if k < 1:
        raise InstanceError(f"an instance needs at least one agent, got k={k}")
    n = width * height
    if k > capacity * n:
        raise InstanceError(f"cannot place {k} agents on {n} vertices with capacity {capacity}")
    graph = _grid_graph(width, height, [True] * n)
    rng = random.Random(seed)
    starts = _random_placement(rng, n, capacity, k)
    goals = _random_placement(rng, n, capacity, k)
    agents = tuple(map(Agent, starts, goals))
    return Instance(graph, CapacityMap.uniform(graph, capacity), agents)


def validate_instance(instance: Instance) -> None:
    """Raise InstanceError unless the instance invariants hold."""
    g, caps = instance.graph, instance.capacities
    if len(caps) != g.vertex_count:
        raise InstanceError("capacity map size != vertex count")
    if not instance.agents:
        raise InstanceError("instance has no agents")
    if instance.k > g.vertex_count * max(caps.values, default=1):
        raise InstanceError("more agents than total capacity")
    for i, a in enumerate(instance.agents):
        for v in (a.start, a.goal):
            if not 0 <= v < g.vertex_count:
                raise InstanceError(f"agent {i}: vertex {v} out of range")
    for v, cnt in Counter(a.start for a in instance.agents).items():
        if cnt > caps[v]:
            raise InstanceError(f"initial configuration overfills vertex {v}: {cnt} > {caps[v]}")
    for v, cnt in Counter(a.goal for a in instance.agents).items():
        if cnt > caps[v]:
            raise InstanceError(f"goal configuration overfills vertex {v}: {cnt} > {caps[v]}")
