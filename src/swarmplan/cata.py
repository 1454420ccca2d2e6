"""Collision-aware utility-matrix baseline for the selection phase.

A robot scores each task as a base reward minus a distance penalty minus a
per-peer penalty for motion segments that would pass too close to peers
already headed somewhere. Robots claim tasks greedily in low-energy order,
each taking its maximum-utility task that still has an open slot. The
resulting plan feeds the same formation/routing/negotiation machinery as
the native planner.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .priority import PriorityLaw, compile_law, sort_queue
from .selection import SelectionPlan, alive_team
from .world import Position, RobotState, Task, euclidean, segment_distance


#: The surrogate reward: a base, less W_D per meter of distance and W_C per
#: conflicting peer.
BASE, W_D, W_C = 100.0, 1.0, 10.0


def collision_penalty(robot_i: RobotState, robot_j: RobotState,
                      goal_i: Position, goal_j: Position,
                      safety_radius: float = 0.5) -> int:
    """1 when the two straight robot->goal segments pass too close."""
    d = segment_distance(robot_i.pos, goal_i, robot_j.pos, goal_j)
    return 1 if d < 2.0 * safety_radius else 0


def utility(robot: RobotState, task: Task,
            others: Sequence[tuple[RobotState, Position]],
            safety_radius: float = 0.5) -> float:
    """Reward of ``task`` for ``robot`` given peers already bound to goals."""
    penalty = sum(collision_penalty(robot, peer, task.center, goal, safety_radius)
                  for peer, goal in others)
    return BASE - W_D * euclidean(robot.pos, task.center) - W_C * penalty


def cata_select(
    robots: Sequence[RobotState],
    tasks: Sequence[Task],
    context: Mapping[int, Mapping[str, float]],
    safety_radius: float = 0.5,
) -> SelectionPlan:
    """Greedy max-utility claims in low-energy priority order.

    Each robot in turn claims the open-slot task with the highest utility
    (ties to the lower task id), the utility accounting for collision
    penalties against peers that have already claimed. Surplus robots stay
    unassigned once all slots are filled. Raises as
    :func:`selection.alive_team` does.
    """
    alive = alive_team(robots, tasks)
    by_id = {r.id: r for r in alive}
    order = sort_queue([r.id for r in alive], context, compile_law(PriorityLaw.LOW_E))
    open_slots = {t.id: t.required for t in tasks}
    by_task = {t.id: t for t in tasks}
    committed: list[tuple[RobotState, Position]] = []
    assignment: dict[int, int | None] = {r.id: None for r in robots}

    for rid in order:
        open_ids = [tid for tid in sorted(open_slots) if open_slots[tid] > 0]
        if not open_ids:
            break
        robot = by_id[rid]
        best = max(open_ids,
                   key=lambda tid: (utility(robot, by_task[tid], committed,
                                            safety_radius), -tid))
        assignment[rid] = best
        open_slots[best] -= 1
        committed.append((robot, by_task[best].center))

    return SelectionPlan(assignment=assignment)
