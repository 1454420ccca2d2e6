"""Per-tick motion: straight-line steps, conflict detection and resolution.

There are no fixed obstacles, so a robot's path is the straight segment
to its goal, advanced ``step_length`` per tick. Robots without a goal step
out of the way of formation vertices and movers. Two robots conflict
when their intended motion segments for the tick pass within twice the
safety radius. A cluster is one connected component of the conflicting
pairs, a plain frozenset of robot ids (:func:`comms.components`); each
cluster lets one mover step and stops the rest. Separation enforcement
then turns crowding steps into one-sided detours or stops. A tick is
``current`` (every robot's position) and ``moves`` (each mover's
intended step, highest priority first); that order is the only priority
routing reads. One predicate, ``_crowds``, answers every clearance
question of yielding, cluster settling and separation; ``yield_step``
alone states the two yield radii; one generator, ``_turns``, rotates,
clamps and skips every candidate step of yields and detours. These are
pure functions of plain data: ``settle_cluster`` returns the one mover
of a cluster that steps, or None when the cluster relaxes and every mover
may step; the engine stops the others and turns the cluster into events
and energy charges. Every cluster is settled before the engine calls
``enforce_separation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .comms import components
from .world import Position, RobotState, euclidean, segment_distance

#: Ticks without progress toward a goal before a robot escalates its
#: conflict avoidance (full-circle detours, cluster relaxation).
STALL_ESCAPE = 12
_DETOUR_ANGLES = (30, 60, 90, 120, 150)
_ESCAPE_ANGLES = (30, 60, 90, 120, 150, 180, 210, 240, 270, 300, 330)
_YIELD_ANGLES = (0, 45, -45, 90, -90, 135, -135)
#: Margin (m) by which the conflict broad phase widens the detection
#: distance; far above the narrow phase's rounding error at world scale.
_BROAD_SLACK = 1e-9


@dataclass(frozen=True)
class Geometry:
    """The scenario lengths motion is planned with, in meters."""

    safety_radius: float
    step_length: float
    world_size: float

    @property
    def limit(self) -> float:
        """Separation enforced between executed positions: slightly above
        the detection threshold, so robots never settle inside the band
        that would re-trigger detection forever."""
        return 2.0 * self.safety_radius + 1e-6


def next_step(robot: RobotState, goal: Position, step_length: float) -> Position:
    """Advance ``step_length`` straight toward the goal, clamping at it."""
    d = euclidean(robot.pos, goal)
    if d <= step_length:
        return goal
    f = step_length / d
    return Position(robot.pos.x + f * (goal.x - robot.pos.x),
                    robot.pos.y + f * (goal.y - robot.pos.y))


def detect_conflicts(
    current: Mapping[int, Position],
    proposed: Mapping[int, Position],
    safety_radius: float,
) -> set[tuple[int, int]]:
    """Pairs whose proposed positions or motion segments come too close.

    A pair (i, j) is flagged when the proposed endpoints are closer than
    2 * safety_radius, or the segments current->proposed pass within that
    distance (covers head-on swaps whose endpoints look safe). Stationary
    robots participate with proposed == current. Only pairs whose segment
    bounding boxes come that close are tested exactly (sweep-and-prune),
    so the cost follows the number of nearby pairs, not n².
    """
    limit = 2.0 * safety_radius
    reach = limit + _BROAD_SLACK
    # broad phase: sweep the segments' bounding boxes in min-x order; a pair
    # whose boxes are ``reach`` apart on either axis cannot pass the exact
    # test below, so it is never handed to it
    boxes = []
    for i in proposed:
        (cx, cy), (px, py) = current[i], proposed[i]
        x0, x1 = (px, cx) if px < cx else (cx, px)
        y0, y1 = (py, cy) if py < cy else (cy, py)
        boxes.append((x0, x1, y0, y1, i))
    boxes.sort()
    pairs: set[tuple[int, int]] = set()
    for a, (_, ax1, ay0, ay1, ai) in enumerate(boxes):
        for b in range(a + 1, len(boxes)):
            bx0, _, by0, by1, bi = boxes[b]
            if bx0 - ax1 >= reach:
                break
            if by0 - ay1 >= reach or ay0 - by1 >= reach:
                continue
            i, j = (ai, bi) if ai < bi else (bi, ai)
            if euclidean(proposed[i], proposed[j]) < limit or segment_distance(
                    current[i], proposed[i], current[j], proposed[j]) < limit:
                pairs.add((i, j))
    return pairs


def cluster_conflicts(pairs: Iterable[tuple[int, int]]) -> list[frozenset[int]]:
    """Connected components of the conflict relation, one cluster each,
    ordered by their lowest member id."""
    adjacency: dict[int, set[int]] = {}
    for i, j in pairs:
        adjacency.setdefault(i, set()).add(j)
        adjacency.setdefault(j, set()).add(i)
    return components(adjacency)


def _turns(pos: Position, dx: float, dy: float, length: float,
           angles: Iterable[float], world: float) -> Iterator[Position]:
    """``pos`` moved ``length`` along nonzero (dx, dy) rotated
    counterclockwise by each of ``angles`` degrees in turn, clamped to the
    world. A step that clamping collapses onto ``pos`` is skipped: it
    wastes the robot's turn without being safe ground."""
    norm = math.hypot(dx, dy)
    ux, uy = dx / norm, dy / norm
    for degrees in angles:
        angle = math.radians(degrees)
        cos_a, sin_a = math.cos(angle), math.sin(angle)
        rx, ry = ux * cos_a - uy * sin_a, ux * sin_a + uy * cos_a
        step = Position(min(world, max(0.0, pos.x + length * rx)),
                        min(world, max(0.0, pos.y + length * ry)))
        if euclidean(step, pos) > 1e-9:
            yield step


def detours(pos: Position, toward: Position, stall: int,
            geometry: Geometry) -> Iterator[Position]:
    """Rotated steps from ``pos`` toward ``toward``, in the order to try them.

    A step is at most ``step_length`` and never overshoots ``toward``.
    Rotations are one-sided (counterclockwise), because symmetric avoidance
    oscillates between two head-on robots; a robot stalled for
    ``STALL_ESCAPE`` ticks searches the whole circle to break a livelock.
    """
    dx, dy = toward.x - pos.x, toward.y - pos.y
    d = math.hypot(dx, dy)
    if d == 0.0:
        return
    yield from _turns(pos, dx, dy, min(geometry.step_length, d),
                      _ESCAPE_ANGLES if stall >= STALL_ESCAPE else _DETOUR_ANGLES,
                      geometry.world_size)


def _crowds(point: Position, rid: int, others: Iterable[int],
            positions: Mapping[int, Position], limit: float) -> bool:
    """Whether ``point`` comes within ``limit`` of any robot but ``rid``:
    the clearance rule of yielding, cluster settling and separation."""
    for other in others:
        if other != rid and euclidean(point, positions[other]) < limit:
            return True
    return False


def _steps(rid: int, current: Mapping[int, Position], moves: Mapping[int, Position],
           goals: Mapping[int, Position], stall: Mapping[int, int],
           geometry: Geometry) -> Iterator[Position]:
    """Mover ``rid``'s intended step, then its :func:`detours` toward its
    goal (or, without one, toward that step), in the order to try them."""
    step = moves[rid]
    yield step
    yield from detours(current[rid], goals.get(rid, step), stall.get(rid, 0), geometry)


def yield_steps(current: Mapping[int, Position], moves: Mapping[int, Position],
                idle: Sequence[int], vertices: Sequence[Position],
                geometry: Geometry) -> dict[int, Position]:
    """``moves`` plus the :func:`yield_step` of each robot in ``idle``.

    The goal-less robots of ``idle`` decide in order, each seeing the
    yields before it as moves. Without yielding, surplus robots form
    static walls that starve routing progress forever.
    """
    moves = dict(moves)
    for rid in idle:
        step = yield_step(rid, current, moves, vertices, geometry)
        if step is not None:
            moves[rid] = step
    return moves


def yield_step(rid: int, current: Mapping[int, Position],
               moves: Mapping[int, Position], vertices: Sequence[Position],
               geometry: Geometry) -> Position | None:
    """Where goal-less robot ``rid`` steps to make way, or None to stay.

    ``current`` holds every robot's position, ``moves`` each mover's
    intended position and ``vertices`` the active formation vertices. The
    robot steps away from the nearest vertex closer than the clearance
    (the first listed on a tie) or, failing that, from the nearest mover
    closer than the band whose step closes in on it (the lowest id on a
    tie).
    """
    pos = current[rid]
    clearance = 2.0 * geometry.safety_radius + 0.2
    threat, nearest = None, clearance
    for vertex in vertices:
        if (d := euclidean(pos, vertex)) < nearest:
            threat, nearest = vertex, d
    if threat is None:
        band = 2.0 * geometry.safety_radius + 2.0 * geometry.step_length
        closest = None  # (distance, id) of the nearest mover closing in
        for mid, step in moves.items():
            d = euclidean(pos, current[mid])
            # only yield to movers actually closing in
            if (d < band and (closest is None or (d, mid) < closest)
                    and euclidean(step, pos) < d):
                closest = d, mid
        if closest is None:
            return None
        threat = current[closest[1]]
    dx, dy = pos.x - threat.x, pos.y - threat.y
    if dx == dy == 0.0:
        dx, dy = 1.0, 0.0
    # yielding straight away from the threat can run into another robot
    # or onto a formation vertex someone still needs; try rotated escapes
    # and take the first one with clear ground
    first, roomy = None, []
    for step in _turns(pos, dx, dy, geometry.step_length, _YIELD_ANGLES,
                       geometry.world_size):
        if first is None:
            first = step
        if not _crowds(step, rid, current, current, geometry.limit):
            if all(euclidean(step, v) >= clearance for v in vertices):
                return step
            roomy.append(step)
    if not roomy:
        return first
    # nothing fully clears the vertex zone in one step (it may hug a
    # world boundary); keep escaping via the step with the most room
    return max(roomy, key=lambda step: min(
        [euclidean(step, q) for other, q in current.items() if other != rid],
        default=math.inf))


def settle_cluster(cluster: Collection[int], current: Mapping[int, Position],
                   moves: Mapping[int, Position], goals: Mapping[int, Position],
                   stall: Mapping[int, int], geometry: Geometry) -> int | None:
    """The one mover of a conflict cluster that steps, or None when every
    mover may step; the caller stops the cluster's other movers.

    ``cluster`` holds the members in any order (a :func:`cluster_conflicts`
    component); ``goals`` and ``stall`` hold each robot's formation goal and
    ticks without progress.
    ``moves`` maps each mover to its intended step, highest priority first;
    the members not in it stand still. The winner is the first mover neither
    blocked (its step crowds a member) nor pinned (a member holds its goal,
    so it could only orbit); failing that, the first unpinned mover with a
    clear step or detour, then the first mover with one. A cluster holding
    a stalled mover cannot advance one robot at a time, so it relaxes to
    all movers (None, as for a cluster without movers); separation
    enforcement still keeps the executed positions apart.
    """
    moving = [rid for rid in moves if rid in cluster]
    if moving and max(stall.get(rid, 0) for rid in moving) >= STALL_ESCAPE:
        return None
    limit = geometry.limit

    def blocked(rid: int) -> bool:
        return _crowds(moves[rid], rid, cluster, current, limit)

    def pinned(rid: int) -> bool:
        goal = goals.get(rid)
        return goal is not None and _crowds(goal, rid, cluster, current, limit)

    def can_step(rid: int) -> bool:
        return any(not _crowds(p, rid, current, current, limit)
                   for p in _steps(rid, current, moves, goals, stall, geometry))

    winner = next((rid for rid in moving if not blocked(rid) and not pinned(rid)),
                  None)
    if winner is None:
        winner = next((rid for rid in moving if not pinned(rid) and can_step(rid)),
                      None)
    if winner is None:
        # a winner who can neither step nor detour freezes the cluster
        winner = next((rid for rid in moving if can_step(rid)),
                      moving[0] if moving else None)
    return winner


def enforce_separation(current: Mapping[int, Position], moves: Mapping[int, Position],
                       goals: Mapping[int, Position], stall: Mapping[int, int],
                       geometry: Geometry) -> tuple[dict[int, Position], list[int]]:
    """Final positions that keep the safety distance, and the movers stopped.

    ``moves`` maps each mover to its intended step, highest priority first.
    Every robot starts where it stands; each mover in turn takes its step
    if that is clear of everyone else's final or, for movers still to
    decide, current position. Otherwise it takes the first clear detour,
    or, when stalled with a goal, the clear detour that regains the most
    ground. With none clear it stays put, which is safe because current
    positions already keep the distance.
    """
    limit = geometry.limit
    final = dict(current)
    stopped: list[int] = []
    for rid in moves:
        clear = (p for p in _steps(rid, current, moves, goals, stall, geometry)
                 if not _crowds(p, rid, final, final, limit))
        step = next(clear, None)
        if step is None:
            stopped.append(rid)
            continue
        goal = goals.get(rid)
        if step != moves[rid] and goal is not None and stall.get(rid, 0) >= STALL_ESCAPE:
            step = min(chain([step], clear), key=lambda p: euclidean(p, goal))
        final[rid] = step
    return final, stopped


def track_progress(mark: tuple[Position, float] | None, stall: int,
                   pos: Position, goal: Position | None,
                   ) -> tuple[tuple[Position, float] | None, int]:
    """Next (goal mark, stall count) after a robot's move.

    The mark holds the goal and the closest distance to it so far; the
    count is the ticks since that distance last shrank or the goal changed.
    """
    if goal is None:
        return None, 0
    gd = euclidean(pos, goal)
    if mark is None or mark[0] != goal or gd < mark[1] - 1e-9:
        return (goal, gd), 0
    return mark, stall + 1
