"""Vertex assignment within a task's polygon formation, and its outcome.

A full team whose members lack slots asks for its vacant vertices, and
the members pick them greedily in priority-queue order: each robot in turn
claims the nearest still-unclaimed vertex. This is deliberately not an
optimal assignment. A task completes once its team has held formation
long enough, and times out otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .world import Position, RobotState, Task, euclidean


@dataclass(frozen=True)
class DistanceMatrix:
    """Robot-to-vertex distances; rows keyed by robot id, columns by vertex."""

    robot_ids: tuple[int, ...]
    entries: Sequence[Sequence[float]]  # one row per robot id

    @classmethod
    def build(cls, robots: Sequence[RobotState],
              vertices: Sequence[Position]) -> "DistanceMatrix":
        ids = tuple(r.id for r in robots)
        entries = tuple(tuple(euclidean(r.pos, v) for v in vertices) for r in robots)
        return cls(robot_ids=ids, entries=entries)

    def row(self, robot_id: int) -> Sequence[float]:
        return self.entries[self.robot_ids.index(robot_id)]


@dataclass(frozen=True)
class FormationPlan:
    """Bijection from group members to vertex indices of one task."""

    slot_of: Mapping[int, int]


def formation_assign(queue: Sequence[int], matrix: DistanceMatrix) -> FormationPlan:
    """Greedy serial vertex choice in queue order.

    Each robot takes its nearest unclaimed vertex; distance ties break
    toward the lower vertex index. ``queue`` must cover exactly the matrix
    rows and the matrix must be square.
    """
    n = len(matrix.entries)
    if any(len(row) != n for row in matrix.entries):
        raise ValueError("matrix must be square")
    if sorted(queue) != sorted(matrix.robot_ids):
        raise ValueError("queue must cover exactly the matrix rows")
    claimed: set[int] = set()
    slot_of: dict[int, int] = {}
    for robot_id in queue:
        row = matrix.row(robot_id)
        best = min((v for v in range(n) if v not in claimed),
                   key=lambda v: (row[v], v))
        claimed.add(best)
        slot_of[robot_id] = best
    return FormationPlan(slot_of=slot_of)


def open_vertices(slots: Iterable[int | None], n: int) -> list[int]:
    """The vertex indices below ``n`` that none of ``slots`` holds, ascending."""
    taken = set(slots)
    return [v for v in range(n) if v not in taken]


def slot_requests(tasks: Iterable[Task], members_of: Mapping[int, Sequence[int]],
                  robots: Mapping[int, RobotState]) -> list[tuple[int, list[int], list[int]]]:
    """``(task id, members without a slot, vacant vertices)`` for each of
    ``tasks``, in order, whose team (``members_of``, ascending ids) is full
    and has a member without a slot."""
    requests = []
    for task in tasks:
        members = members_of.get(task.id, ())
        if len(members) != task.required:
            continue
        free = [rid for rid in members if robots[rid].slot is None]
        if free:
            vacant = open_vertices((robots[rid].slot for rid in members), task.required)
            requests.append((task.id, free, vacant))
    return requests


def in_formation(robots: Sequence[RobotState], required: int,
                 tolerance: float) -> bool:
    """Whether ``robots`` are a full team of ``required`` members, each
    within ``tolerance`` of its goal vertex."""
    return len(robots) == required and all(
        r.goal is not None and euclidean(r.pos, r.goal) <= tolerance
        for r in robots)


def task_outcomes(active: Mapping[int, int], tasks: Mapping[int, Task],
                  members_of: Mapping[int, Sequence[int]], robots: Mapping[int, RobotState],
                  tick: int, tolerance: float) -> tuple[dict[int, int], dict[int, bool]]:
    """The tasks of ``active`` (id -> consecutive ticks :func:`in_formation`)
    that stay active after tick ``tick``, with their new counts, and those
    that end in it: True once the count reaches the task's ``duration``,
    else False on the ``timeout``-th tick since its arrival."""
    held: dict[int, int] = {}
    ended: dict[int, bool] = {}
    for tid, count in active.items():
        task = tasks[tid]
        team = [robots[rid] for rid in members_of.get(tid, ())]
        count = count + 1 if in_formation(team, task.required, tolerance) else 0
        if count >= task.duration:
            ended[tid] = True
        elif tick - task.arrival_tick + 1 >= task.timeout:
            ended[tid] = False
        else:
            held[tid] = count
    return held, ended


def slot_swaps(robots: Sequence[RobotState],
               vertices: Sequence[Position]) -> list[tuple[int, int]]:
    """2-opt slot swaps among one task's members en route, in the order
    they apply: a pair swaps when that shortens both journeys combined.

    The greedy assignment can leave robot A parked next to B's vertex
    while its own vertex lies behind B; the two then block each other
    indefinitely. Each swap strictly shrinks the total remaining travel,
    so the loop ends and cannot oscillate. This is formation-stage
    conflict avoidance for the needs-hierarchy laws: the utility-matrix
    baseline (CATA_U) considers conflicts only while routing, so it keeps
    whatever vertex assignment the greedy pass produced.
    """
    slot = {r.id: r.slot for r in robots}
    swaps: list[tuple[int, int]] = []
    improved = True
    while improved:
        improved = False
        for i, ra in enumerate(robots):
            for rb in robots[i + 1:]:
                a, b = ra.id, rb.id
                now = (euclidean(ra.pos, vertices[slot[a]])
                       + euclidean(rb.pos, vertices[slot[b]]))
                swapped = (euclidean(ra.pos, vertices[slot[b]])
                           + euclidean(rb.pos, vertices[slot[a]]))
                if swapped < now - 1e-9:
                    slot[a], slot[b] = slot[b], slot[a]
                    swaps.append((a, b))
                    improved = True
    return swaps
