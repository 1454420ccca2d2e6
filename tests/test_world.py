import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from swarmplan.world import (ChargeKind, EnergyLedger, EnergyModel, Position,
                             Task, euclidean, left_sum,
                             polygon_vertices)
from helpers import make_robot


#: Coordinates from subnormal to 1e300, and ints that floats hold exactly.
COORDINATES = (st.floats(-1e300, 1e300) | st.floats(-1e-300, 1e-300)
               | st.integers(-2**53, 2**53))


class TestPosition:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Position(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Position(0.0, float("inf"))

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.inf),
                                      (-math.inf, 1.0), (1, -math.nan)])
    def test_non_finite_message(self, x, y):
        message = re.escape(f"non-finite position ({x}, {y})")
        with pytest.raises(ValueError, match=message):
            Position(x, y)
        with pytest.raises(ValueError, match="non-finite position"):
            Position(x=x, y=y)

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.inf),
                                      (-math.inf, 1.0)])
    def test_make_and_replace_reject_non_finite(self, x, y):
        with pytest.raises(ValueError, match=re.escape(f"non-finite position ({x}, {y})")):
            Position._make([x, y])
        with pytest.raises(ValueError, match="non-finite position"):
            Position(1.0, 2.0)._replace(x=x, y=y)
        with pytest.raises(ValueError, match="non-finite position"):
            Position(1.0, 2.0)._replace(y=math.nan)

    def test_make_and_replace_build_positions(self):
        moved = Position(1.0, 2.0)._replace(y=3.0)
        assert type(moved) is Position and moved == Position._make((1.0, 3.0))
        with pytest.raises(TypeError):
            Position._make([1.0])
        with pytest.raises(ValueError):
            Position(1.0, 2.0)._replace(z=3.0)

    def test_named_tuple_of_its_coordinates(self):
        p = Position(x=1.0, y=2.0)
        assert repr(p) == "Position(x=1.0, y=2.0)"
        assert p == Position(1.0, 2.0) == (1.0, 2.0)
        assert p != Position(2.0, 1.0) and p != (2.0, 1.0)
        x, y = p
        assert (x, y) == (p.x, p.y) == (1.0, 2.0)
        assert p._fields == ("x", "y")

    def test_immutable(self):
        p = Position(1.0, 2.0)
        with pytest.raises(AttributeError):
            p.x = 3.0
        with pytest.raises(AttributeError):
            p.z = 3.0
        assert p == (1.0, 2.0)

    @given(COORDINATES, COORDINATES)
    @example(0.0, -0.0)
    @example(5e-324, 1e300)
    @example(-1, 2)
    @settings(deadline=None)
    def test_hash_is_the_tuple_hash(self, x, y):
        """The hash of the frozen dataclass that ``Position`` was, so no
        set or dict of positions changes its order."""
        assert hash(Position(x, y)) == hash((x, y))


class TestEuclidean:
    def test_three_four_five(self):
        assert euclidean(Position(0, 0), Position(3, 4)) == 5.0

    def test_identity(self):
        assert euclidean(Position(1, 1), Position(1, 1)) == 0.0

    def test_unit_diagonal(self):
        assert euclidean(Position(0, 0), Position(1, 1)) == pytest.approx(
            math.sqrt(2.0), abs=1e-5)

    @given(st.floats(-100, 100), st.floats(-100, 100),
           st.floats(-100, 100), st.floats(-100, 100))
    @settings(deadline=None)
    def test_symmetric_nonnegative(self, ax, ay, bx, by):
        a, b = Position(ax, ay), Position(bx, by)
        assert euclidean(a, b) == euclidean(b, a) >= 0.0

    @given(COORDINATES, COORDINATES, COORDINATES, COORDINATES)
    @example(5e-324, 0.0, 0.0, 5e-324)  # subnormal differences
    @example(1e300, -1e300, -1e300, 1e300)  # near the overflow of hypot
    @example(3, 4, 0, 0)
    @example(2**53, -2**53, -2**53, 2**53)
    @settings(deadline=None, max_examples=300)
    def test_bits_of_hypot_of_differences(self, ax, ay, bx, by):
        """``euclidean`` is ``math.dist``; it must give the bits of the
        ``hypot`` of the coordinate differences that it replaced."""
        a, b = Position(ax, ay), Position(bx, by)
        assert euclidean(a, b).hex() == math.hypot(a.x - b.x, a.y - b.y).hex()


class TestLeftSum:
    def test_adds_left_to_right(self):
        # a compensated sum (``sum`` on CPython 3.12+) gives 1.0 here
        assert left_sum([1e16, 1.0, -1e16]) == 0.0

    def test_empty_is_float_zero(self):
        assert repr(left_sum([])) == "0.0"


class TestPolygonVertices:
    def test_square(self):
        verts = polygon_vertices(Position(0, 0), 4, 10)
        expected = [(0, 10), (10, 0), (0, -10), (-10, 0)]
        for v, (x, y) in zip(verts, expected):
            assert v.x == pytest.approx(x, abs=1e-9)
            assert v.y == pytest.approx(y, abs=1e-9)

    def test_single_vertex_due_north(self):
        verts = polygon_vertices(Position(5, 5), 1, 2)
        assert len(verts) == 1
        assert verts[0].x == pytest.approx(5.0, abs=1e-9)
        assert verts[0].y == pytest.approx(7.0, abs=1e-9)

    def test_triangle(self):
        # angles 90, -30, -150 degrees: (0,1), (cos -30, sin -30), ...
        verts = polygon_vertices(Position(0, 0), 3, 1)
        half_sqrt3 = math.sqrt(3.0) / 2.0
        expected = [(0.0, 1.0), (half_sqrt3, -0.5), (-half_sqrt3, -0.5)]
        for v, (x, y) in zip(verts, expected):
            assert v.x == pytest.approx(x, abs=1e-9)
            assert v.y == pytest.approx(y, abs=1e-9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            polygon_vertices(Position(0, 0), 0, 1.0)
        with pytest.raises(ValueError):
            polygon_vertices(Position(0, 0), 3, 0.0)

    @given(st.integers(1, 12), st.floats(0.1, 50),
           st.floats(-100, 100), st.floats(-100, 100))
    @settings(deadline=None)
    def test_radius_exact_and_translation_invariant(self, n, radius, cx, cy):
        center = Position(cx, cy)
        verts = polygon_vertices(center, n, radius)
        origin = polygon_vertices(Position(0, 0), n, radius)
        assert len(verts) == n
        for v, o in zip(verts, origin):
            assert euclidean(v, center) == pytest.approx(radius, abs=1e-9)
            assert v.x - cx == pytest.approx(o.x, abs=1e-9)
            assert v.y - cy == pytest.approx(o.y, abs=1e-9)


class TestTask:
    def test_validation(self):
        with pytest.raises(ValueError):
            Task(id=1, center=Position(0, 0), required=0, duration=1, timeout=10)
        with pytest.raises(ValueError):
            Task(id=1, center=Position(0, 0), required=1, duration=11, timeout=10)
        for duration in (0, -1):
            with pytest.raises(ValueError, match="duration must be >= 1"):
                Task(id=1, center=Position(0, 0), required=1, duration=duration,
                     timeout=10)
        with pytest.raises(ValueError):
            Task(id=1, center=Position(0, 0), required=1, duration=1, timeout=10,
                 arrival_tick=-1)


class TestEnergyModel:
    def test_defaults(self):
        model = EnergyModel()
        assert (model.move_cost, model.comm_cost, model.idle_cost) == (0.1, 0.01, 0.04)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EnergyModel(move_cost=-0.1)

    @pytest.mark.parametrize("cost", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["move_cost", "comm_cost", "idle_cost"])
    def test_rejects_non_finite(self, name, cost):
        with pytest.raises(ValueError, match="finite"):
            EnergyModel(**{name: cost})


def reference_charge(ledger, robot, kind, model, task_of=None):
    """One action charged the way the ledger charged before it batched; a
    comm charge with ``task_of`` is negotiation."""
    if not robot.alive:
        return
    if kind is ChargeKind.MOVE:
        cost, acc = model.move_cost, ledger.moving
    elif kind is ChargeKind.IDLE:
        cost, acc = model.idle_cost, ledger.idle
    else:
        cost = model.comm_cost
        acc = ledger.comm_gossip if task_of is None else ledger.comm_negotiation
    spent = min(cost, robot.battery)
    robot.battery -= spent
    acc[robot.id] += spent
    task = None if task_of is None else task_of.get(robot.id)
    if kind is ChargeKind.COMM_ROUND and task is not None:
        ledger.per_task_comm[task] = ledger.per_task_comm.get(task, 0.0) + spent


def at_the_cost(test):
    """``@example``s of one unattributed action of every kind under the
    default, a zero-cost and an int-cost model: batteries at the cost, just
    above and just below it, and a dead robot between live ones."""
    for model in (EnergyModel(), EnergyModel(0.0, 0.0, 0.0), EnergyModel(1, 1, 1)):
        costs = {ChargeKind.MOVE: model.move_cost, ChargeKind.IDLE: model.idle_cost,
                 ChargeKind.COMM_ROUND: model.comm_cost}
        for kind, cost in costs.items():
            batteries = [float(cost), math.nextafter(cost, math.inf), 0.0,
                         math.nextafter(cost, 0.0), 0.5]
            test = example(batteries=batteries, kind=kind, tasks=[None] * 6,
                           attribute=False, times=1, model=model)(test)
    return test


class TestEnergyLedger:
    def _ledger_robot(self, battery, model=EnergyModel()):
        robot = make_robot(1, battery=battery)
        return EnergyLedger(model, [robot]), robot

    def test_built_with_the_team_in_its_order(self):
        model = EnergyModel(move_cost=0.2)
        robots = [make_robot(rid, battery=b)
                  for rid, b in ((5, 30.0), (2, 0.0), (9, 1.5))]
        ledger = EnergyLedger(model, robots)
        assert ledger.model is model
        assert list(ledger.initial.items()) == [(5, 30.0), (2, 0.0), (9, 1.5)]
        for acc in (ledger.moving, ledger.idle, ledger.comm_gossip,
                    ledger.comm_negotiation):
            assert list(acc.items()) == [(5, 0.0), (2, 0.0), (9, 0.0)]
        assert ledger.per_task_comm == {}

    def test_move_charge(self):
        ledger, robot = self._ledger_robot(90.0)
        ledger.charge_many([robot], ChargeKind.MOVE)
        assert robot.battery == pytest.approx(89.9, abs=1e-12)

    def test_idle_charge(self):
        ledger, robot = self._ledger_robot(100.0)
        ledger.charge_many([robot], ChargeKind.IDLE)
        assert robot.battery == pytest.approx(99.96, abs=1e-12)

    def test_clamp_at_zero_kills(self):
        ledger, robot = self._ledger_robot(0.05)
        ledger.charge_many([robot], ChargeKind.MOVE)
        assert robot.battery == 0.0
        assert not robot.alive
        assert ledger.conservation_error(robot) == 0.0

    def test_dead_robot_charge_is_dropped(self):
        ledger, robot = self._ledger_robot(0.0)
        before = self._state(ledger, robot)
        for kind in ChargeKind:
            assert ledger.charge_many([robot], kind, task_of={1: 7}, times=3) == []
        assert self._state(ledger, robot) == before
        assert ledger.spent(1) == 0.0

    def test_unknown_kind_raises(self):
        ledger, robot = self._ledger_robot(50.0)
        with pytest.raises(ValueError, match="unknown charge kind 'sensing'"):
            ledger.charge_many([robot], "sensing")
        assert robot.battery == 50.0

    def test_negotiation_and_task_attribution(self):
        ledger, robot = self._ledger_robot(50.0)
        ledger.charge_many([robot], ChargeKind.COMM_ROUND)
        ledger.charge_many([robot], ChargeKind.COMM_ROUND, task_of={1: 7})
        assert ledger.comm_gossip[1] == pytest.approx(0.01)
        assert ledger.comm_negotiation[1] == pytest.approx(0.01)
        assert ledger.per_task_comm == {7: pytest.approx(0.01)}

    @given(st.floats(0.01, 100.0),
           st.lists(st.sampled_from(list(ChargeKind)), max_size=60))
    @settings(deadline=None)
    def test_conservation_under_random_charges(self, battery, kinds):
        ledger, robot = self._ledger_robot(battery)
        for kind in kinds:
            ledger.charge_many([robot], kind)
        assert ledger.conservation_error(robot) <= 1e-12

    @staticmethod
    def _state(ledger, robot):
        return repr((robot.battery, ledger.moving, ledger.idle, ledger.comm_gossip,
                     ledger.comm_negotiation, ledger.per_task_comm))

    @given(battery=st.floats(0.0, 1.0), kind=st.sampled_from(list(ChargeKind)),
           attribute=st.booleans(), task=st.none() | st.integers(0, 2),
           times=st.integers(0, 40), earlier=st.booleans(),
           model=st.builds(EnergyModel, st.floats(0.0, 0.3), st.floats(0.0, 0.3),
                           st.floats(0.0, 0.3)))
    # dies in the fourth of ten rounds; the last six are not charged
    @example(battery=0.035, kind=ChargeKind.COMM_ROUND, attribute=True, task=7,
             times=10, earlier=False, model=EnergyModel())
    @settings(deadline=None, max_examples=200)
    def test_batched_charge_equals_single_charges(self, battery, kind, attribute,
                                                  task, times, earlier, model):
        task_of = {1: task} if attribute else None
        batched = self._ledger_robot(battery, model)
        single = self._ledger_robot(battery, model)
        for ledger, robot in (batched, single):
            if earlier:  # a task total that already exists
                ledger.charge_many([robot], ChargeKind.COMM_ROUND, task_of={1: task})
        batched[0].charge_many([batched[1]], kind, task_of=task_of, times=times)
        for _ in range(times):
            single[0].charge_many([single[1]], kind, task_of=task_of)
        assert self._state(*batched) == self._state(*single)

    @given(batteries=st.lists(st.floats(0.0, 1.0) | st.just(0.0), max_size=6),
           kind=st.sampled_from(list(ChargeKind)),
           tasks=st.lists(st.none() | st.integers(0, 2), min_size=6, max_size=6),
           attribute=st.booleans(), times=st.integers(0, 12),
           model=st.builds(EnergyModel, st.floats(0.0, 0.3), st.floats(0.0, 0.3),
                           st.floats(0.0, 0.3)))
    # an already-dead robot, then one dying in the fourth of ten rounds
    @example(batteries=[0.5, 0.0, 0.035, 0.9], kind=ChargeKind.COMM_ROUND,
             tasks=[7, 7, 7, None, 2, 2], attribute=True, times=10,
             model=EnergyModel())
    # a battery equal to the cost, and one just below it, both die
    @example(batteries=[0.1, math.nextafter(0.1, 0.0)], kind=ChargeKind.MOVE,
             tasks=[None] * 6, attribute=False, times=2, model=EnergyModel())
    @example(batteries=[0.01, math.nextafter(0.01, 0.0)], kind=ChargeKind.COMM_ROUND,
             tasks=[7] * 6, attribute=True, times=1, model=EnergyModel())
    # an int cost is spent as written when the battery equals it
    @example(batteries=[1.0, math.nextafter(1.0, 0.0)], kind=ChargeKind.IDLE,
             tasks=[None] * 6, attribute=False, times=1,
             model=EnergyModel(idle_cost=1))
    # a move charge names tasks too, but move energy is never a task's
    @example(batteries=[0.5, 0.9], kind=ChargeKind.MOVE,
             tasks=[7, 7, 7, None, 2, 2], attribute=True, times=3,
             model=EnergyModel())
    @at_the_cost
    @settings(deadline=None, max_examples=200)
    def test_charge_many_equals_single_charges(self, batteries, kind, tasks,
                                               attribute, times, model):
        """``charge_many`` equals ``times`` reference charges per robot, in
        order, and returns the robots those killed."""
        def team():
            robots = [make_robot(3 * k + 1, battery=b) for k, b in enumerate(batteries)]
            return EnergyLedger(model, robots), robots

        task_of = ({3 * k + 1: t for k, t in enumerate(tasks) if k % 2 == 0}
                   if attribute else None)
        (batched, robots), (single, copies) = team(), team()
        died = batched.charge_many(robots, kind, task_of=task_of, times=times)
        expected = []
        for robot in copies:
            was_alive = robot.alive
            for _ in range(times):
                reference_charge(single, robot, kind, model, task_of)
            if was_alive and not robot.alive:
                expected.append(robot.id)
        assert [r.id for r in died] == expected
        assert ([self._state(batched, r) for r in robots]
                == [self._state(single, r) for r in copies])
