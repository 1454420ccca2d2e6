"""Grouping robots to tasks by cutting a priority-ordered sequence.

Robots are first ordered by the active priority law; the caller ranks the
tasks. The ordered robot sequence is then cut into contiguous blocks, one
per task, sized exactly by each task's required count; a dynamic program
places the cut points (surplus robots may be skipped between blocks) to
minimize the total estimated moving energy. An exhaustive oracle over
unrestricted groupings measures the contiguity gap in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .priority import PriorityLaw, compile_law, sort_queue
from .world import EnergyModel, RobotState, Task, euclidean, left_sum


class InsufficientRobotsError(Exception):
    """Fewer alive robots than the sum of the tasks' required counts."""


@dataclass(frozen=True)
class SelectionPlan:
    """Mapping of every robot to its task, ``None`` marking surplus."""

    assignment: Mapping[int, int | None]

    def group(self, task_id: int) -> list[int]:
        return sorted(r for r, t in self.assignment.items() if t == task_id)


def estimate_cost(
    robot: RobotState,
    task: Task,
    model: EnergyModel,
    step_length: float = 1.0,
) -> float:
    """Estimated moving energy for the robot to reach the task center."""
    steps = math.ceil(euclidean(robot.pos, task.center) / step_length)
    return model.move_cost * steps


def open_tasks(ranked_tasks: Sequence[Task], members_of: Mapping[int, Sequence[int]],
               budget: int) -> list[Task]:
    """The active ``ranked_tasks`` (in priority order) still short of
    members, each cut to its shortfall, taken while the ``budget`` of free
    robots covers it; a task that does not fit is passed over."""
    chosen: list[Task] = []
    for task in ranked_tasks:
        missing = task.required - len(members_of.get(task.id, ()))
        if 0 < missing <= budget:
            chosen.append(replace(task, required=missing))
            budget -= missing
    return chosen


def alive_team(robots: Sequence[RobotState], tasks: Sequence[Task]) -> list[RobotState]:
    """The alive ``robots``, the selection planners' one precondition: raises
    ``ValueError`` without ``tasks``, :class:`InsufficientRobotsError` when
    fewer robots are alive than the tasks require in total."""
    if not tasks:
        raise ValueError("no tasks to select for")
    alive = [r for r in robots if r.alive]
    need = sum(t.required for t in tasks)
    if need > len(alive):
        raise InsufficientRobotsError(f"need {need} robots, have {len(alive)} alive")
    return alive


def select(
    robots: Sequence[RobotState],
    tasks: Sequence[Task],
    law: PriorityLaw,
    model: EnergyModel,
    context: Mapping[int, Mapping[str, float]],
    step_length: float = 1.0,
) -> SelectionPlan:
    """Partition ``robots`` over ``tasks``, given in priority rank order
    (as :func:`open_tasks` returns them), by the law-ordered linear cut.

    ``context`` supplies the per-robot sort keys for the law. Raises as
    :func:`alive_team` does.
    """
    alive = alive_team(robots, tasks)
    ordered_ids = sort_queue([r.id for r in alive], context, compile_law(law))
    by_id = {r.id: r for r in alive}
    ordered = [by_id[i] for i in ordered_ids]

    cost = [[estimate_cost(r, t, model, step_length) for t in tasks]
            for r in ordered]
    blocks = _min_cost_cut(cost, [t.required for t in tasks])

    assignment: dict[int, int | None] = {r.id: None for r in robots}
    for j, block in enumerate(blocks):
        for i in block:
            assignment[ordered[i].id] = tasks[j].id
    return SelectionPlan(assignment=assignment)


def _min_cost_cut(cost: list[list[float]], sizes: list[int]) -> list[range]:
    """Choose contiguous, in-order blocks of the given sizes minimizing cost.

    ``cost[i][j]`` is robot i's cost toward task j. Robots between blocks
    are skipped (left unassigned). Returns one index range per task.
    """
    m, k = len(cost), len(sizes)
    # f[i][j]: min cost using the first i robots with the first j blocks
    # placed; set only where i covers those blocks, since a cost, or a sum
    # of costs, may itself be infinite
    f = [[math.inf] * (k + 1) for _ in range(m + 1)]
    choice = [[False] * (k + 1) for _ in range(m + 1)]  # block j ends at robot i
    for i in range(m + 1):
        f[i][0] = 0.0
    need = 0  # robots the first j blocks take
    for j in range(1, k + 1):
        s = sizes[j - 1]
        need += s
        for i in range(need, m + 1):
            if i > need:  # skip robot i - 1
                f[i][j] = f[i - 1][j]
            c = f[i - s][j - 1] + left_sum(cost[x][j - 1] for x in range(i - s, i))
            # with no robot to skip, block j must end here
            if i == need or c < f[i][j]:
                f[i][j] = c
                choice[i][j] = True
    blocks: list[range] = []
    i, j = m, k
    while j > 0:
        if choice[i][j]:
            blocks.append(range(i - sizes[j - 1], i))
            i -= sizes[j - 1]
            j -= 1
        else:
            i -= 1
    blocks.reverse()
    return blocks
