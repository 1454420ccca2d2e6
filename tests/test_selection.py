import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from swarmplan.priority import PriorityLaw
from swarmplan.selection import (InsufficientRobotsError, estimate_cost,
                                 open_tasks, select)
from swarmplan.world import EnergyModel, Position, Task
from helpers import make_robot
from oracles import plan_cost, selection_oracle


def task(tid, x, y, required=1, duration=1, timeout=100):
    return Task(id=tid, center=Position(x, y), required=required,
                duration=duration, timeout=timeout)


def equal_ctx(robots):
    return {r.id: {"battery": r.battery, "task_rank": 0.0, "utility": 0.0}
            for r in robots}


MODEL = EnergyModel()


class TestEstimateCost:
    def test_ten_steps(self):
        robot = make_robot(1, 0, 0)
        assert estimate_cost(robot, task(1, 10, 0), MODEL) == pytest.approx(1.0)

    def test_already_there(self):
        robot = make_robot(1, 3, 3)
        assert estimate_cost(robot, task(1, 3, 3), MODEL) == 0.0

    def test_fractional_distance_rounds_up(self):
        robot = make_robot(1, 0, 0)
        assert estimate_cost(robot, task(1, 2.5, 0), MODEL) == pytest.approx(0.3)


class TestSelect:
    def test_two_blocks_on_a_line(self):
        robots = [make_robot(i + 1, x, 0.0) for i, x in enumerate([0, 1, 8, 9])]
        tasks = [task(1, 0, 0, required=2), task(2, 9, 0, required=2)]
        plan = select(robots, tasks, PriorityLaw.LOW_E, MODEL, equal_ctx(robots))
        assert plan.group(1) == [1, 2]
        assert plan.group(2) == [3, 4]

    def test_single_robot_single_task(self):
        robots = [make_robot(1, 0, 0)]
        plan = select(robots, [task(1, 5, 0)], PriorityLaw.LOW_E, MODEL,
                      equal_ctx(robots))
        assert plan.assignment == {1: 1}

    def test_surplus_robot_unassigned(self):
        robots = [make_robot(1, 0, 0, battery=50.0),
                  make_robot(2, 0, 1, battery=90.0)]
        context = equal_ctx(robots)
        plan = select(robots, [task(1, 0, 0)], PriorityLaw.LOW_E, MODEL, context)
        assigned = [r for r, t in plan.assignment.items() if t is not None]
        assert len(assigned) == 1
        assert plan.assignment[assigned[0]] == 1

    def test_insufficient_robots(self):
        robots = [make_robot(1, 0, 0)]
        with pytest.raises(InsufficientRobotsError):
            select(robots, [task(1, 0, 0, required=2)], PriorityLaw.LOW_E,
                   MODEL, equal_ctx(robots))

    def test_no_tasks_rejected(self):
        robots = [make_robot(1, 0, 0)]
        with pytest.raises(ValueError):
            select(robots, [], PriorityLaw.LOW_E, MODEL, equal_ctx(robots))

    def test_infinite_costs_still_fill_every_task(self):
        # 1e308 per step: every robot's estimated cost overflows to infinity
        robots = [make_robot(i + 1, 0.0, 2.0 * i) for i in range(5)]
        tasks = [task(1, 20, 0, required=2), task(2, 20, 9, required=3)]
        plan = select(robots, tasks, PriorityLaw.LOW_E, EnergyModel(move_cost=1e308),
                      equal_ctx(robots))
        assert [len(plan.group(t.id)) for t in tasks] == [2, 3]

    def test_dead_robots_ignored(self):
        robots = [make_robot(1, 0, 0, battery=0.0), make_robot(2, 1, 0)]
        plan = select(robots, [task(1, 0, 0)], PriorityLaw.LOW_E, MODEL,
                      equal_ctx([robots[1]]))
        assert plan.assignment == {1: None, 2: 1}

    def test_task_order_override(self):
        # tasks come ranked 2 before 1: the head of the queue serves task 2
        robots = [make_robot(1, 0, 0, battery=10.0),
                  make_robot(2, 0, 2, battery=90.0)]
        context = equal_ctx(robots)
        tasks = [task(2, 0, 2), task(1, 0, 0)]
        plan = select(robots, tasks, PriorityLaw.LOW_E, MODEL, context)
        assert plan.assignment == {1: 2, 2: 1}

    def test_determinism(self):
        rng = random.Random(7)
        robots = [make_robot(i, rng.uniform(0, 20), rng.uniform(0, 20),
                             battery=rng.uniform(50, 100)) for i in range(6)]
        tasks = [task(1, 5, 5, required=2), task(2, 15, 15, required=3)]
        context = equal_ctx(robots)
        a = select(robots, tasks, PriorityLaw.T_LOW_E, MODEL, context)
        b = select(robots, tasks, PriorityLaw.T_LOW_E, MODEL, context)
        assert a.assignment == b.assignment


class TestOracle:
    def test_matches_select_on_line_example(self):
        robots = [make_robot(i + 1, x, 0.0) for i, x in enumerate([0, 1, 8, 9])]
        tasks = [task(1, 0, 0, required=2), task(2, 9, 0, required=2)]
        plan = select(robots, tasks, PriorityLaw.LOW_E, MODEL, equal_ctx(robots))
        best, best_cost = selection_oracle(robots, tasks, MODEL)
        assert best == dict(plan.assignment)
        assert plan_cost(plan, robots, tasks, MODEL) == pytest.approx(best_cost)

    def test_uncrossed_matching(self):
        robots = [make_robot(1, 0, 0), make_robot(2, 10, 0)]
        tasks = [task(1, 0, 1), task(2, 10, 1)]
        best, _ = selection_oracle(robots, tasks, MODEL)
        assert best == {1: 1, 2: 2}

    def test_size_guard(self):
        robots = [make_robot(i, i, 0) for i in range(11)]
        with pytest.raises(ValueError):
            selection_oracle(robots, [task(1, 0, 0)], MODEL)

    def test_select_never_beats_oracle(self):
        rng = random.Random(11)
        for trial in range(60):
            n = rng.randrange(2, 8)
            k = rng.randrange(1, 4)
            sizes = []
            budget = n
            for j in range(k):
                hi = budget - (k - 1 - j)
                if hi < 1:
                    break
                s = rng.randrange(1, hi + 1)
                sizes.append(s)
                budget -= s
            if len(sizes) < k:
                continue
            robots = [make_robot(i, rng.uniform(0, 20), rng.uniform(0, 20),
                                 battery=rng.uniform(50, 100)) for i in range(n)]
            tasks = [task(j + 1, rng.uniform(0, 20), rng.uniform(0, 20),
                          required=sizes[j]) for j in range(k)]
            context = equal_ctx(robots)
            law = rng.choice([PriorityLaw.LOW_E, PriorityLaw.HIGH_E,
                              PriorityLaw.T_LOW_E])
            plan = select(robots, tasks, law, MODEL, context)
            _, oracle_cost = selection_oracle(robots, tasks, MODEL)
            # plan feasibility: every task exactly staffed
            for t in tasks:
                assert len(plan.group(t.id)) == t.required
            assert plan_cost(plan, robots, tasks, MODEL) >= oracle_cost - 1e-9


def ref_open_tasks(tasks, active, members_of, rank, budget):
    """Reference: the engine's former ``_open_requirements`` followed by
    ``_feasible_tasks``, over every task, the active ids and the ranks."""
    open_need = {}
    for tid in sorted(tasks):
        if tid in active:
            missing = tasks[tid].required - len(members_of.get(tid, ()))
            if missing > 0:
                open_need[tid] = missing
    chosen = []
    for tid in sorted(open_need, key=lambda t: (rank.get(t, 1_000_000), t)):
        if open_need[tid] <= budget:
            chosen.append(replace(tasks[tid], required=open_need[tid]))
            budget -= open_need[tid]
    return chosen


@st.composite
def task_books(draw):
    """Tasks under sparse ids, a rank permutation, the active ids, each
    task's members (short of, at or past its required count) and a budget."""
    ids = draw(st.lists(st.integers(0, 99), unique=True, max_size=7))
    tasks = {tid: task(tid, 0, 0, required=draw(st.integers(1, 5))) for tid in ids}
    order = draw(st.permutations(ids))
    active = draw(st.sets(st.sampled_from(ids))) if ids else set()
    members_of = {}
    for tid in ids:
        count = draw(st.integers(0, tasks[tid].required + 1))
        if count:
            members_of[tid] = list(range(100 * tid, 100 * tid + count))
    return tasks, order, active, members_of, draw(st.integers(0, 12))


class TestOpenTasks:
    def test_shortfall_in_rank_order_within_budget(self):
        tasks = [task(3, 0, 0, required=4), task(1, 0, 0, required=2),
                 task(2, 0, 0, required=3)]
        # task 3 lacks 3 and fits; task 1 is staffed; task 2 lacks 3 > 2 left
        chosen = open_tasks(tasks, {3: [7], 1: [8, 9]}, budget=5)
        assert [(t.id, t.required) for t in chosen] == [(3, 3)]

    def test_skips_a_task_that_does_not_fit(self):
        tasks = [task(1, 0, 0, required=3), task(2, 0, 0, required=1)]
        assert [t.id for t in open_tasks(tasks, {}, budget=2)] == [2]

    @given(task_books())
    @settings(deadline=None, max_examples=300)
    def test_matches_reference(self, book):
        tasks, order, active, members_of, budget = book
        rank = {tid: k for k, tid in enumerate(order)}
        ranked = [tasks[tid] for tid in order if tid in active]
        assert open_tasks(ranked, members_of, budget) == ref_open_tasks(
            tasks, active, members_of, rank, budget)

