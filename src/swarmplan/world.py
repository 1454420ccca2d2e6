"""Core domain records: positions, robots, tasks, the plane's geometry and
the energy ledger.

Everything downstream (gossip, planning, the tick loop) works in terms of
these value types. A :class:`Position` is an immutable ``(x, y)`` named
tuple: it unpacks, equals the plain tuple of the same coordinates and
hashes as that tuple does, so every distance is one C call. Energy
accounting is centralized in :class:`EnergyLedger` so that the
conservation invariant (initial battery - current battery == ledger sum,
per robot) can be checked exactly after any run.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Iterable, Mapping, NamedTuple


class Position(NamedTuple("_Position", [("x", float), ("y", float)])):
    """A point on the continuous 2-D plane, in meters."""

    __slots__ = ()

    def __new__(cls, x: float, y: float) -> Position:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite position ({x}, {y})")
        return tuple.__new__(cls, (x, y))

    @classmethod
    def _make(cls, iterable: Iterable[float]) -> Position:
        """The named tuple's builder, which ``_replace`` also calls, made to
        go through ``__new__``'s finiteness check."""
        return cls(*iterable)


#: Straight-line distance between two points, in meters. ``math.dist`` and
#: ``math.hypot`` share one norm routine, so ``euclidean(a, b)`` is the bits
#: of ``math.hypot(a.x - b.x, a.y - b.y)`` on every CPython.
euclidean = math.dist


def left_sum(values: Iterable[float]) -> float:
    """Float total added left to right, the same bits on every Python
    (``sum`` compensates its rounding from CPython 3.12 on)."""
    return reduce(operator.add, values, 0.0)


def polygon_vertices(center: Position, n: int, radius: float) -> list[Position]:
    """Vertices of a regular n-gon around ``center``.

    Vertex 0 sits due North of the center; subsequent vertices follow
    clockwise. Requires ``n >= 1`` and ``radius > 0``.
    """
    if n < 1:
        raise ValueError("polygon needs at least one vertex")
    if radius <= 0:
        raise ValueError("polygon radius must be positive")
    out = []
    for k in range(n):
        theta = math.pi / 2.0 - 2.0 * math.pi * k / n
        out.append(Position(center.x + radius * math.cos(theta),
                            center.y + radius * math.sin(theta)))
    return out


def segment_distance(p1: Position, p2: Position,
                     q1: Position, q2: Position) -> float:
    """Minimum distance between segments p1-p2 and q1-q2."""
    (p1x, p1y), (p2x, p2y), (q1x, q1y), (q2x, q2y) = p1, p2, q1, q2
    d1x, d1y = p2x - p1x, p2y - p1y
    d2x, d2y = q2x - q1x, q2y - q1y
    rx, ry = q1x - p1x, q1y - p1y
    denom = d1x * d2y - d1y * d2x
    if denom != 0.0:
        t = (rx * d2y - ry * d2x) / denom
        u = (rx * d1y - ry * d1x) / denom
        # near-parallel segments turn t and u into rounding noise; a real
        # crossing also needs the bounding boxes to meet, which is exact
        if 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0 and (
                max(p1x, p2x) >= min(q1x, q2x) and max(q1x, q2x) >= min(p1x, p2x)
                and max(p1y, p2y) >= min(q1y, q2y) and max(q1y, q2y) >= min(p1y, p2y)):
            return 0.0  # proper intersection
    return min(
        _point_segment_distance(p1x, p1y, q1x, q1y, q2x, q2y),
        _point_segment_distance(p2x, p2y, q1x, q1y, q2x, q2y),
        _point_segment_distance(q1x, q1y, p1x, p1y, p2x, p2y),
        _point_segment_distance(q2x, q2y, p1x, p1y, p2x, p2y),
    )


def _point_segment_distance(px: float, py: float, ax: float, ay: float,
                            bx: float, by: float) -> float:
    """Distance from point (px, py) to segment (ax, ay)-(bx, by)."""
    dx, dy = bx - ax, by - ay
    length_sq = dx * dx + dy * dy
    if length_sq == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / length_sq
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


@dataclass(slots=True)
class RobotState:
    """Per-robot mutable state for one simulation run.

    ``group`` is the id of the task the robot is committed to (None while
    unassigned), ``slot`` the polygon vertex index agreed in the formation
    phase, and ``goal`` the concrete vertex position it is routing toward.
    """

    id: int
    pos: Position
    battery: float
    group: int | None = None
    slot: int | None = None
    goal: Position | None = None

    @property
    def alive(self) -> bool:
        return self.battery > 0.0


@dataclass(frozen=True)
class Task:
    """A task to be served by ``required`` robots holding formation.

    The task id doubles as its default priority rank (lower id = higher
    priority) unless the scenario supplies an explicit priority order.
    ``duration`` (at least 1) is the number of consecutive ticks the full
    formation must hold at the vertices; ``timeout`` is the abandonment
    deadline measured from ``arrival_tick``.
    """

    id: int
    center: Position
    required: int
    duration: int
    timeout: int
    arrival_tick: int = 0

    def __post_init__(self) -> None:
        if self.required < 1:
            raise ValueError(f"task {self.id}: required must be >= 1")
        if self.duration < 1:
            raise ValueError(f"task {self.id}: duration must be >= 1")
        if self.duration > self.timeout:
            raise ValueError(f"task {self.id}: duration exceeds timeout")
        if self.arrival_tick < 0:
            raise ValueError(f"task {self.id}: negative arrival tick")


@dataclass(frozen=True)
class EnergyModel:
    """Battery cost of each action kind, in percent-points.

    Defaults: 0.1 per moving step, 0.01 per communication round, 0.04 per
    stationary tick.
    """

    move_cost: float = 0.1
    comm_cost: float = 0.01
    idle_cost: float = 0.04

    def __post_init__(self) -> None:
        if not all(0 <= c < math.inf for c in (self.move_cost, self.comm_cost,
                                               self.idle_cost)):
            raise ValueError("energy costs must be non-negative and finite")


class ChargeKind(Enum):
    MOVE = "move"
    IDLE = "idle"
    COMM_ROUND = "comm_round"


class EnergyLedger:
    """Per-robot accumulators of energy spent, split by cause.

    Communication energy is split between plain knowledge gossip and
    negotiation traffic (plan exchange and conflict resolution), since the
    two are reported separately. A per-task communication accumulator
    records negotiation spend attributable to a specific task. It prices
    every action from the run's ``model`` and books the team ``robots``,
    whose accounts open at zero in the order given.
    """

    def __init__(self, model: EnergyModel, robots: Iterable[RobotState]) -> None:
        self.model = model
        self.initial = {r.id: r.battery for r in robots}
        self.moving = dict.fromkeys(self.initial, 0.0)
        self.idle = dict.fromkeys(self.initial, 0.0)
        self.comm_gossip = dict.fromkeys(self.initial, 0.0)
        self.comm_negotiation = dict.fromkeys(self.initial, 0.0)
        self.per_task_comm: dict[int, float] = {}

    def charge_many(
        self,
        robots: Iterable[RobotState],
        kind: ChargeKind,
        *,
        task_of: Mapping[int, int | None] | None = None,
        times: int = 1,
    ) -> list[RobotState]:
        """Deduct the cost of ``times`` actions of one kind from each alive
        robot in turn and record it; returns the robots it killed, in order.

        A comm charge with ``task_of`` is negotiation, attributed to the task
        ``task_of`` names for the robot; one without it is gossip. Move and
        idle charges ignore ``task_of``. The battery clamps at zero; only the
        actually-deducted amount enters the accumulators, so conservation
        holds exactly. Each action is deducted and accumulated on its own,
        so ``times=k`` leaves every float exactly as ``k`` single charges
        would.
        """
        if kind is ChargeKind.MOVE:
            cost, acc, task_of = self.model.move_cost, self.moving, None
        elif kind is ChargeKind.IDLE:
            cost, acc, task_of = self.model.idle_cost, self.idle, None
        elif kind is ChargeKind.COMM_ROUND:
            cost = self.model.comm_cost
            acc = self.comm_gossip if task_of is None else self.comm_negotiation
        else:
            raise ValueError(f"unknown charge kind {kind!r}")
        died = []
        if times == 1 and task_of is None:
            # one unattributed action, the loop below without its rounds or
            # tasks: ``battery > cost`` leaves ``battery - cost > 0`` for
            # doubles, so only the second branch kills
            for robot in robots:
                battery = robot.battery
                if battery > cost:
                    robot.battery = battery - cost
                    acc[robot.id] += cost
                elif battery > 0.0:
                    spent = battery if battery < cost else cost
                    robot.battery = battery - spent
                    acc[robot.id] += spent
                    died.append(robot)
            return died
        per_task_comm = self.per_task_comm
        for robot in robots:
            battery = robot.battery
            if not battery > 0.0:  # dead
                continue
            rid = robot.id
            task = None if task_of is None else task_of.get(rid)
            total = acc[rid]
            for _ in range(times):
                spent = battery if battery < cost else cost  # min(cost, battery)
                battery -= spent
                total += spent
                if task is not None:
                    per_task_comm[task] = per_task_comm.get(task, 0.0) + spent
                if not battery > 0.0:
                    died.append(robot)
                    break
            robot.battery, acc[rid] = battery, total
        return died

    def spent(self, robot_id: int) -> float:
        return (self.moving[robot_id] + self.idle[robot_id]
                + self.comm_gossip[robot_id] + self.comm_negotiation[robot_id])

    def conservation_error(self, robot: RobotState) -> float:
        """Absolute gap between battery drop and recorded spend."""
        return abs((self.initial[robot.id] - robot.battery) - self.spent(robot.id))
