import math
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import swarmplan
from swarmplan.formation import (DistanceMatrix,
                                 formation_assign, in_formation, open_vertices,
                                 slot_requests, slot_swaps, task_outcomes)
from swarmplan.world import Position, Task, euclidean
from helpers import make_robot
from oracles import hungarian_oracle, plan_total


def matrix(entries, ids=None):
    rows = tuple(tuple(float(d) for d in row) for row in entries)
    ids = tuple(ids) if ids else tuple(range(1, len(rows) + 1))
    return DistanceMatrix(robot_ids=ids, entries=rows)


class TestFormationAssign:
    def test_no_contention(self):
        plan = formation_assign([1, 2], matrix([[1, 5], [2, 1]]))
        assert plan.slot_of == {1: 0, 2: 1}
        assert plan_total(plan, matrix([[1, 5], [2, 1]])) == pytest.approx(2.0)

    def test_greedy_suboptimal(self):
        m = matrix([[1, 2], [1, 9]])
        plan = formation_assign([1, 2], m)
        assert plan.slot_of == {1: 0, 2: 1}
        assert plan_total(plan, m) == pytest.approx(10.0)
        _, optimal = hungarian_oracle(m)
        assert optimal == pytest.approx(3.0)

    def test_single_robot(self):
        plan = formation_assign([1], matrix([[4]]))
        assert plan.slot_of == {1: 0}

    def test_tie_breaks_to_lower_vertex(self):
        plan = formation_assign([1, 2], matrix([[3, 3], [3, 3]]))
        assert plan.slot_of == {1: 0, 2: 1}

    def test_queue_order_changes_assignment(self):
        m = matrix([[1, 2], [1, 9]])
        first = formation_assign([1, 2], m)
        second = formation_assign([2, 1], m)
        assert first.slot_of != second.slot_of
        assert second.slot_of == {2: 0, 1: 1}

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            formation_assign([1], matrix([[1, 2]]))

    def test_rejects_queue_mismatch(self):
        with pytest.raises(ValueError):
            formation_assign([1, 3], matrix([[1, 5], [2, 1]]))

    def test_bijectivity_random(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randrange(1, 8)
            m = matrix([[rng.uniform(0, 30) for _ in range(n)] for _ in range(n)])
            queue = list(m.robot_ids)
            rng.shuffle(queue)
            plan = formation_assign(queue, m)
            assert sorted(plan.slot_of) == sorted(m.robot_ids)
            assert sorted(plan.slot_of.values()) == list(range(n))


class TestHungarianOracle:
    def test_simulator_runs_without_numpy_or_scipy(self):
        # only the oracle (and the tests) need them: a None entry in
        # sys.modules makes any import of either raise ImportError
        script = "\n".join([
            "import sys",
            "sys.modules['numpy'] = sys.modules['scipy'] = None",
            "sys.path[:0] = sys.argv[1:]",
            "from helpers import TEMPLATE, suite_scenario",
            "from swarmplan import SweepSpec, run, run_sweep",
            "metrics, _ = run(suite_scenario('t_low_e', 'R20+T3', 'static', 0))",
            "rows, _ = run_sweep(SweepSpec(template=TEMPLATE, laws=['t_low_e']))",
            "print(metrics.tasks_completed, len(rows), [r['error'] for r in rows])",
        ])
        src = str(Path(swarmplan.__file__).resolve().parents[1])
        tests = str(Path(__file__).resolve().parent)
        out = subprocess.run([sys.executable, "-c", script, src, tests],
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["3", "1", "['']"]

    def test_examples(self):
        _, total = hungarian_oracle(matrix([[1, 5], [2, 1]]))
        assert total == pytest.approx(2.0)
        _, total = hungarian_oracle(matrix([[1, 2], [1, 9]]))
        assert total == pytest.approx(3.0)
        slots, total = hungarian_oracle(matrix([[0, 9], [9, 0]]))
        assert slots == {1: 0, 2: 1}
        assert total == pytest.approx(0.0)

    def test_size_guard(self):
        m = matrix([[0.0] * 21] * 21)
        with pytest.raises(ValueError):
            hungarian_oracle(m)

    def test_greedy_never_beats_oracle(self):
        rng = random.Random(9)
        for _ in range(120):
            n = rng.randrange(1, 8)
            m = matrix([[rng.uniform(0, 30) for _ in range(n)] for _ in range(n)])
            plan = formation_assign(list(m.robot_ids), m)
            _, optimal = hungarian_oracle(m)
            assert plan_total(plan, m) >= optimal - 1e-9

    def test_equality_on_dominant_diagonal(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randrange(1, 7)
            entries = [[rng.uniform(10, 30) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                entries[i][i] = rng.uniform(0, 1)
            m = matrix(entries)
            plan = formation_assign(list(m.robot_ids), m)
            _, optimal = hungarian_oracle(m)
            assert plan_total(plan, m) == pytest.approx(optimal)
            assert all(plan.slot_of[m.robot_ids[i]] == i for i in range(n))


class TestDistanceMatrixBuild:
    def test_build_from_robots(self):
        robots = [make_robot(5, 0, 0), make_robot(7, 3, 4)]
        vertices = [Position(0, 0), Position(3, 0)]
        m = DistanceMatrix.build(robots, vertices)
        assert m.robot_ids == (5, 7)
        assert m.row(5)[0] == pytest.approx(0.0)
        assert m.row(5)[1] == pytest.approx(3.0)
        assert m.row(7)[0] == pytest.approx(5.0)
        assert m.row(7)[1] == pytest.approx(4.0)
        assert all(d >= 0 for row in m.entries for d in row)


def ref_slot_swaps(robots, verts):
    """Reference: the engine's former in-place 2-opt loop, run on copies of
    ``robots`` and recording each swap as it applied it."""
    robots = {r.id: replace(r) for r in robots}
    en_route = list(robots)
    swaps = []
    improved = True
    while improved:
        improved = False
        for i, a in enumerate(en_route):
            for b in en_route[i + 1:]:
                ra, rb = robots[a], robots[b]
                now = (euclidean(ra.pos, verts[ra.slot])
                       + euclidean(rb.pos, verts[rb.slot]))
                swapped = (euclidean(ra.pos, verts[rb.slot])
                           + euclidean(rb.pos, verts[ra.slot]))
                if swapped < now - 1e-9:
                    ra.slot, rb.slot = rb.slot, ra.slot
                    ra.goal, rb.goal = verts[ra.slot], verts[rb.slot]
                    swaps.append((a, b))
                    improved = True
    return swaps


coords = st.floats(0.0, 30.0, allow_nan=False)


@st.composite
def slotted_teams(draw, parked=False):
    """Vertices, robots under sparse ids each holding a distinct slot, and
    (with ``parked``) more robots standing exactly on their own vertex,
    mixed into the list at random places."""
    n_verts = draw(st.integers(1, 8))
    verts = [Position(draw(coords), draw(coords)) for _ in range(n_verts)]
    slots = draw(st.permutations(range(n_verts)))
    n_parked = draw(st.integers(0, n_verts)) if parked else 0
    n_moving = draw(st.integers(0, n_verts - n_parked))
    ids = draw(st.lists(st.integers(0, 99), unique=True,
                        min_size=n_parked + n_moving, max_size=n_parked + n_moving))
    moving = []
    for rid, slot in zip(ids, slots[:n_moving]):
        robot = make_robot(rid, draw(coords), draw(coords))
        robot.slot, robot.goal = slot, verts[slot]
        moving.append(robot)
    standing = []
    for rid, slot in zip(ids[n_moving:], slots[n_moving:n_moving + n_parked]):
        robot = make_robot(rid, verts[slot].x, verts[slot].y)
        robot.slot, robot.goal = slot, verts[slot]
        standing.append(robot)
    mixed = list(moving)
    for robot in standing:
        mixed.insert(draw(st.integers(0, len(mixed))), robot)
    return verts, moving, mixed


class TestSlotSwaps:
    def test_parked_before_the_other_vertex(self):
        # A stands next to B's vertex while its own lies behind B
        verts = [Position(2.5, 0.0), Position(5.0, 0.0)]
        a, b = make_robot(1, 2.0, 0.0), make_robot(2, 4.0, 0.0)
        a.slot, b.slot = 1, 0
        assert slot_swaps([a, b], verts) == [(1, 2)]
        assert (a.slot, b.slot) == (1, 0)  # the caller applies the swaps

    def test_no_swap_without_a_gain(self):
        verts = [Position(0.0, 0.0), Position(10.0, 0.0)]
        a, b = make_robot(1, 1.0, 0.0), make_robot(2, 9.0, 0.0)
        a.slot, b.slot = 0, 1
        assert slot_swaps([a, b], verts) == []

    @given(slotted_teams())
    @settings(deadline=None, max_examples=300)
    def test_matches_reference(self, team):
        verts, robots, _ = team
        before = [replace(r) for r in robots]
        assert slot_swaps(robots, verts) == ref_slot_swaps(robots, verts)
        assert robots == before

    @given(slotted_teams(parked=True))
    @settings(deadline=None, max_examples=300)
    def test_robots_on_their_vertex_change_nothing(self, team):
        # triangle inequality: |A vb| + |B va| >= |B vb| when A stands on va
        verts, moving, mixed = team
        assert slot_swaps(mixed, verts) == slot_swaps(moving, verts)


def ref_open_vertices(robots, required):
    """Reference: the engine's former inline vacancy check."""
    taken = {r.slot for r in robots} - {None}
    return [v for v in range(required) if v not in taken]


def ref_in_formation(robots, required, verts, tolerance):
    """Reference: the engine's former inline completion check, which read
    each member's vertex through its slot."""
    return (len(robots) == required
            and all(r.slot is not None
                    and euclidean(r.pos, verts[r.slot]) <= tolerance
                    for r in robots))


@st.composite
def formation_teams(draw):
    """Vertices, a required count that may differ from the team size, and
    robots under distinct slots or none, each with ``goal = vertices[slot]``
    and standing on, near or far from its vertex."""
    n_verts = draw(st.integers(1, 8))
    verts = [Position(draw(coords), draw(coords)) for _ in range(n_verts)]
    slots = draw(st.permutations(range(n_verts)))
    robots = []
    for rid in range(draw(st.integers(0, n_verts))):
        slot = draw(st.none() | st.just(slots[rid]))
        at = verts[slot] if slot is not None else verts[0]
        where = draw(st.sampled_from(["on", "near", "far"]))
        if where == "far":
            robot = make_robot(rid, draw(coords), draw(coords))
        else:
            off = st.just(0.0) if where == "on" else st.floats(-0.1, 0.1)
            robot = make_robot(rid, at.x + draw(off), at.y + draw(off))
        robot.slot = slot
        robot.goal = None if slot is None else verts[slot]
        robots.append(robot)
    required = draw(st.integers(1, n_verts))
    return verts, required, robots


class TestFormationChecks:
    def test_open_vertices(self):
        assert open_vertices([None, 2, 0], 4) == [1, 3]
        assert open_vertices([], 3) == [0, 1, 2]
        assert open_vertices([1, 0], 2) == []

    def test_tolerance_boundary(self):
        robot = make_robot(1, 0.1, 0.0)
        robot.slot, robot.goal = 0, Position(0.0, 0.0)
        assert in_formation([robot], 1, 0.1)
        robot.pos = Position(math.nextafter(0.1, 1.0), 0.0)
        assert not in_formation([robot], 1, 0.1)

    def test_goal_less_member_is_out(self):
        placed, loose = make_robot(1), make_robot(2, 5.0, 0.0)
        placed.slot, placed.goal = 0, Position(0.0, 0.0)
        assert not in_formation([placed, loose], 2, 0.1)

    def test_member_count_must_match(self):
        robots = [make_robot(rid, float(rid), 0.0) for rid in range(3)]
        for robot in robots:
            robot.slot, robot.goal = robot.id, robot.pos
        assert in_formation(robots, 3, 0.1)
        assert not in_formation(robots[:2], 3, 0.1)
        assert not in_formation(robots, 2, 0.1)

    @given(formation_teams(), st.sampled_from([0.0, 0.1, 1.0]))
    @settings(deadline=None, max_examples=300)
    def test_matches_reference(self, team, tolerance):
        verts, required, robots = team
        slots = [r.slot for r in robots]
        assert open_vertices(slots, required) == ref_open_vertices(robots, required)
        assert (in_formation(robots, required, tolerance)
                == ref_in_formation(robots, required, verts, tolerance))


def task(tid, required, duration=3, timeout=20, arrival_tick=0):
    return Task(id=tid, center=Position(10.0, 10.0), required=required,
                duration=duration, timeout=timeout, arrival_tick=arrival_tick)


def slotted(rid, slot, x=0.0, y=0.0, goal=None):
    robot = make_robot(rid, x, y)
    robot.slot, robot.goal = slot, goal
    return robot


def ref_slot_requests(tasks, members_of, robots):
    """Reference: the engine's former formation loop, which skipped each
    task whose team was not full or held no member without a slot."""
    requests = []
    for t in tasks:
        members = members_of.get(t.id, ())
        if len(members) != t.required:
            continue
        free = [rid for rid in members if robots[rid].slot is None]
        if not free:
            continue
        taken = {robots[rid].slot for rid in members}
        requests.append((t.id, free, [v for v in range(t.required) if v not in taken]))
    return requests


class TestSlotRequests:
    def test_full_team_with_a_slotless_member(self):
        robots = {1: slotted(1, 2), 4: slotted(4, None), 6: slotted(6, None)}
        assert slot_requests([task(9, 3)], {9: [1, 4, 6]}, robots) == [
            (9, [4, 6], [0, 1])]

    def test_team_short_of_members_waits(self):
        robots = {1: slotted(1, None), 2: slotted(2, None)}
        assert slot_requests([task(9, 3)], {9: [1, 2]}, robots) == []
        assert slot_requests([task(9, 3)], {}, robots) == []

    def test_every_member_slotted_asks_nothing(self):
        robots = {1: slotted(1, 1), 2: slotted(2, 0)}
        assert slot_requests([task(9, 2)], {9: [1, 2]}, robots) == []

    def test_in_task_order(self):
        robots = {1: slotted(1, None), 2: slotted(2, None)}
        tasks = [task(8, 1), task(3, 1)]
        assert slot_requests(tasks, {3: [1], 8: [2]}, robots) == [
            (8, [2], [0]), (3, [1], [0])]

    @given(st.lists(formation_teams(), max_size=4))
    @settings(deadline=None, max_examples=200)
    def test_matches_reference(self, teams):
        tasks, members_of, robots = [], {}, {}
        for k, (_, required, team) in enumerate(teams):
            for robot in team:
                robot.id += 10 * k
                robots[robot.id] = robot
            tasks.append(task(k, required))
            if team:
                members_of[k] = [r.id for r in team]
        assert (slot_requests(tasks, members_of, robots)
                == ref_slot_requests(tasks, members_of, robots))


def ref_task_outcomes(active, tasks, members_of, robots, tick, tolerance):
    """Reference: the engine's former completion loop, run on a copy of
    ``active``, which it updated in place while recording each ending."""
    active, ended = dict(active), {}
    for tid, held in list(active.items()):
        t = tasks[tid]
        members = members_of.get(tid, ())
        in_place = in_formation([robots[rid] for rid in members], t.required, tolerance)
        active[tid] = held = held + 1 if in_place else 0
        if held >= t.duration:
            ended[tid] = True
        elif tick - t.arrival_tick + 1 >= t.timeout:
            ended[tid] = False
        else:
            continue
        del active[tid]
    return active, ended


class TestTaskOutcomes:
    PLACED = {1: slotted(1, 0, goal=Position(0.0, 0.0))}
    ASTRAY = {1: slotted(1, 0, goal=Position(5.0, 0.0))}

    def outcome(self, robots, held, tick=4, **timing):
        return task_outcomes({7: held}, {7: task(7, 1, **timing)}, {7: [1]},
                             robots, tick, 0.1)

    def test_hold_count_grows_in_formation_and_resets_out_of_it(self):
        assert self.outcome(self.PLACED, 1) == ({7: 2}, {})
        assert self.outcome(self.ASTRAY, 2) == ({7: 0}, {})

    def test_completes_when_the_count_reaches_the_duration(self):
        assert self.outcome(self.PLACED, 2) == ({}, {7: True})

    def test_times_out_on_the_timeout_th_tick_since_arrival(self):
        # arrival tick 2 is the task's first tick, so tick 7 is its sixth
        timing = {"timeout": 6, "arrival_tick": 2}
        assert self.outcome(self.ASTRAY, 0, tick=7, **timing) == ({}, {7: False})
        assert self.outcome(self.ASTRAY, 0, tick=6, **timing) == ({7: 0}, {})

    def test_completion_wins_over_a_timeout_on_the_same_tick(self):
        assert self.outcome(self.PLACED, 2, tick=19) == ({}, {7: True})

    def test_a_team_without_members_holds_nothing(self):
        assert task_outcomes({7: 3}, {7: task(7, 1)}, {}, {}, 0, 0.1) == ({7: 0}, {})

    @given(st.lists(st.tuples(formation_teams(), st.integers(0, 4),
                              st.integers(1, 4), st.integers(0, 6),
                              st.integers(0, 8)), max_size=4),
           st.integers(0, 12), st.sampled_from([0.0, 0.1, 1.0]))
    @settings(deadline=None, max_examples=200)
    def test_matches_reference(self, entries, tick, tolerance):
        active, tasks, members_of, robots = {}, {}, {}, {}
        for k, ((_, required, team), held, duration, extra, arrival) in enumerate(entries):
            for robot in team:
                robot.id += 10 * k
                robots[robot.id] = robot
            tasks[k] = task(k, required, duration, duration + extra, arrival)
            members_of[k] = [r.id for r in team]
            active[k] = held
        held, ended = task_outcomes(active, tasks, members_of, robots, tick, tolerance)
        ref_held, ref_ended = ref_task_outcomes(active, tasks, members_of, robots,
                                                tick, tolerance)
        assert list(held.items()) == list(ref_held.items())
        assert list(ended.items()) == list(ref_ended.items())
