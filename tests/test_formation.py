import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest

import swarmplan
from swarmplan.formation import (DistanceMatrix, FormationPlan,
                                 formation_assign, hungarian_oracle,
                                 plan_total)
from swarmplan.world import Position
from helpers import make_robot


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
