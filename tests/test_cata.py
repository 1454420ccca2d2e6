import math

import pytest

from swarmplan.cata import (CataWeights, cata_select, collision_penalty,
                            utility)
from swarmplan.selection import InsufficientRobotsError, SelectionPlan
from swarmplan.world import Position, Task
from helpers import make_robot


def task(tid, x, y, required=1):
    return Task(id=tid, center=Position(x, y), required=required,
                duration=1, timeout=100)


def ctx(robots):
    return {r.id: {"battery": r.battery, "task_rank": 0.0, "utility": 0.0}
            for r in robots}


class TestCataWeights:
    def test_defaults(self):
        w = CataWeights()
        assert (w.base, w.w_d, w.w_c) == (100.0, 1.0, 10.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            CataWeights(w_d=0.0)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["base", "w_d", "w_c"])
    def test_rejects_non_finite(self, name, weight):
        with pytest.raises(ValueError, match="finite"):
            CataWeights(**{name: weight})


class TestCollisionPenalty:
    def test_parallel_corridors_clear(self):
        a, b = make_robot(1, 0, 0), make_robot(2, 0, 5)
        assert collision_penalty(a, b, Position(10, 0), Position(10, 5),
                                 safety_radius=0.5) == 0

    def test_crossing_segments(self):
        a, b = make_robot(1, 0, 0), make_robot(2, 0, 2)
        assert collision_penalty(a, b, Position(2, 2), Position(2, 0),
                                 safety_radius=0.5) == 1

    def test_coincident_goals(self):
        a, b = make_robot(1, 0, 0), make_robot(2, 10, 10)
        assert collision_penalty(a, b, Position(5, 5), Position(5, 5),
                                 safety_radius=0.5) == 1


class TestUtility:
    def test_distance_ten_no_conflicts(self):
        robot = make_robot(1, 0, 0)
        assert utility(robot, task(1, 10, 0), [], CataWeights()) == pytest.approx(90.0)

    def test_one_conflicting_peer(self):
        robot = make_robot(1, 0, 0)
        peer = make_robot(2, 10, 0)
        others = [(peer, Position(0, 0))]  # head-on opposing segment
        assert utility(robot, task(1, 10, 0), others,
                       CataWeights()) == pytest.approx(80.0)

    def test_distance_zero_is_base(self):
        robot = make_robot(1, 4, 4)
        assert utility(robot, task(1, 4, 4), [], CataWeights()) == pytest.approx(100.0)

    def test_monotone_in_distance(self):
        robot = make_robot(1, 0, 0)
        utils = [utility(robot, task(1, d, 0), [], CataWeights())
                 for d in (1, 5, 9, 13)]
        assert utils == sorted(utils, reverse=True)


class TestCataSelect:
    def test_nearer_task_wins(self):
        # first claimant (lowest battery) takes its max-utility task,
        # which for equal rewards is the nearer one (3 m vs 7 m)
        robots = [make_robot(1, 0, 0, battery=60.0),
                  make_robot(2, 20, 20, battery=90.0)]
        tasks = [task(1, 3, 0), task(2, 7, 0)]
        plan = cata_select(robots, tasks, ctx(robots))
        assert plan.assignment[1] == 1

    def test_equal_battery_lower_id_claims_first(self):
        robots = [make_robot(1, 0, 0, battery=80.0),
                  make_robot(2, 0, 0.1, battery=80.0)]
        tasks = [task(1, 0, 0), task(2, 20, 20)]
        plan = cata_select(robots, tasks, ctx(robots))
        assert plan.assignment[1] == 1
        assert plan.assignment[2] == 2

    def test_slot_exhaustion_falls_to_next_best(self):
        robots = [make_robot(1, 5, 0, battery=50.0),
                  make_robot(2, 5, 1, battery=60.0),
                  make_robot(3, 5, 2, battery=70.0)]
        tasks = [task(1, 5, 0), task(2, 5, 20, required=2)]
        plan = cata_select(robots, tasks, ctx(robots))
        assert plan.assignment[1] == 1     # lowest battery claims the near task
        assert plan.assignment[2] == 2
        assert plan.assignment[3] == 2

    def test_surplus_unassigned(self):
        robots = [make_robot(1, 0, 0, battery=50.0),
                  make_robot(2, 1, 0, battery=90.0)]
        plan = cata_select(robots, [task(1, 0, 0)], ctx(robots))
        assert plan.assignment == {1: 1, 2: None}

    def test_insufficient_robots(self):
        robots = [make_robot(1, 0, 0)]
        with pytest.raises(InsufficientRobotsError):
            cata_select(robots, [task(1, 0, 0, required=2)], ctx(robots))

    def test_returns_selection_plan(self):
        robots = [make_robot(1, 0, 0)]
        plan = cata_select(robots, [task(1, 1, 1)], ctx(robots))
        assert isinstance(plan, SelectionPlan)
