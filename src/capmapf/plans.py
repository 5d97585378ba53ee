"""Plans and recorded rule violations shared by the solvers and the validator."""

from __future__ import annotations

from dataclasses import dataclass

CAPACITY = "capacity"
SWAP = "swap"


@dataclass(frozen=True, slots=True)
class Plan:
    """Per-agent vertex sequences over discrete time steps, all the same length."""

    paths: tuple[tuple[int, ...], ...]

    @property
    def makespan(self) -> int:
        return len(self.paths[0]) - 1 if self.paths else 0

    @property
    def arrivals(self) -> tuple[int, ...]:
        """Each agent's final arrival step: the step after it was last away
        from its own last vertex, which is taken as its goal."""
        return tuple(max((t + 1 for t, v in enumerate(path) if v != path[-1]), default=0)
                     for path in self.paths)

    @property
    def sum_of_costs(self) -> int:
        """Total moves and waits up to each agent's final arrival; waits at
        the goal after it are free."""
        return sum(self.arrivals)


@dataclass(frozen=True, slots=True)
class Conflict:
    """A capacity conflict (agent set, vertex, time) or swap conflict (pair, edge, time).

    For CAPACITY, `agents` is the full set occupying `vertex` at `time` and
    `vertex` holds the overfilled vertex.  For SWAP, `agents` is the ordered
    pair (i traverses u->v, j traverses v->u) and `vertex` holds (u, v).
    """

    kind: str
    agents: tuple[int, ...]
    vertex: int | tuple[int, int]
    time: int
