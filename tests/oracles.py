"""Exact test oracles for the planners, kept out of the package: the
Hungarian assignment bounds the greedy formation from below, and an
exhaustive search bounds the linear-cut selection. They need scipy, from
the ``dev`` extra, which the simulator does not need."""

from __future__ import annotations

import itertools
from typing import Sequence

from scipy.optimize import linear_sum_assignment

from swarmplan.formation import DistanceMatrix, FormationPlan
from swarmplan.selection import InsufficientRobotsError, SelectionPlan, estimate_cost
from swarmplan.world import EnergyModel, RobotState, Task


def hungarian_oracle(matrix: DistanceMatrix) -> tuple[dict[int, int], float]:
    """Exact minimum total-distance assignment (test oracle, <= 20x20)."""
    n = len(matrix.entries)
    if any(len(row) != n for row in matrix.entries):
        raise ValueError("matrix must be square")
    if n > 20:
        raise ValueError("oracle limited to 20x20")
    rows, cols = linear_sum_assignment(matrix.entries)
    slot_of = {matrix.robot_ids[r]: int(c) for r, c in zip(rows, cols)}
    total = float(sum(matrix.entries[r][c] for r, c in zip(rows, cols)))
    return slot_of, total


def plan_total(plan: FormationPlan, matrix: DistanceMatrix) -> float:
    """Total robot-to-vertex distance of a formation plan."""
    return float(sum(matrix.row(r)[v] for r, v in plan.slot_of.items()))


def selection_oracle(
    robots: Sequence[RobotState],
    tasks: Sequence[Task],
    model: EnergyModel,
    step_length: float = 1.0,
) -> tuple[dict[int, int | None], float]:
    """Exhaustive minimum-cost grouping, contiguity not required.

    Desk-scale only (<= 10 robots, <= 3 tasks); used as the independent
    reference that bounds the planner's cost from below.
    """
    alive = [r for r in robots if r.alive]
    if len(alive) > 10 or len(tasks) > 3:
        raise ValueError("oracle limited to 10 robots / 3 tasks")
    need = sum(t.required for t in tasks)
    if need > len(alive):
        raise InsufficientRobotsError(f"need {need} robots, have {len(alive)} alive")

    ids = [r.id for r in alive]
    by_id = {r.id: r for r in alive}
    ordered_tasks = sorted(tasks, key=lambda t: t.id)
    best_cost = float("inf")
    best: dict[int, int | None] = {}

    def recurse(remaining: list[int], idx: int, acc: float,
                partial: dict[int, int | None]) -> None:
        nonlocal best_cost, best
        if acc >= best_cost:
            return
        if idx == len(ordered_tasks):
            if acc < best_cost:
                best_cost = acc
                best = dict(partial)
                for i in remaining:
                    best[i] = None
            return
        task = ordered_tasks[idx]
        for combo in itertools.combinations(remaining, task.required):
            extra = sum(estimate_cost(by_id[i], task, model, step_length)
                        for i in combo)
            for i in combo:
                partial[i] = task.id
            rest = [i for i in remaining if i not in combo]
            recurse(rest, idx + 1, acc + extra, partial)
            for i in combo:
                del partial[i]

    recurse(ids, 0, 0.0, {})
    return best, best_cost


def plan_cost(
    plan: SelectionPlan,
    robots: Sequence[RobotState],
    tasks: Sequence[Task],
    model: EnergyModel,
    step_length: float = 1.0,
) -> float:
    """Total estimated moving energy of a selection plan."""
    by_robot = {r.id: r for r in robots}
    by_task = {t.id: t for t in tasks}
    return sum(
        estimate_cost(by_robot[r], by_task[t], model, step_length)
        for r, t in plan.assignment.items() if t is not None
    )
