import hashlib
import json
import math
import statistics
from dataclasses import MISSING, fields

import pytest

from swarmplan.cata import CataWeights
from swarmplan.priority import PriorityLaw
from swarmplan.scenario import (InvalidScenarioError, InvalidTemplateError,
                                RobotSpec, Scenario, generate)
from swarmplan.world import EnergyModel, Position, Task
from helpers import prompt


#: Every optional scenario field and its default, read off the dataclass.
_DEFAULTS = {f.name: f.default if f.default_factory is MISSING else f.default_factory()
             for f in fields(Scenario)
             if f.default is not MISSING or f.default_factory is not MISSING}


def template(**overrides):
    base = {
        "world_size": 20.0,
        "n_robots": 4,
        "tasks": [{"id": 1, "x": 10.0, "y": 10.0, "required": 2,
                   "duration": 3, "timeout": 100}],
    }
    base.update(overrides)
    return base


class TestGenerate:
    def test_deterministic(self):
        a = generate(template(), seed=5)
        b = generate(template(), seed=5)
        assert a.to_json() == b.to_json()

    def test_seed_changes_output(self):
        a = generate(template(), seed=1)
        b = generate(template(), seed=2)
        assert a.to_json() != b.to_json()

    def test_degenerate_gaussian(self):
        scenario = generate(template(battery_mean=90.0, battery_sd=0.0), seed=0)
        assert all(r.battery == 90.0 for r in scenario.robots)

    def test_wide_gaussian_clamped_spread(self):
        scenario = generate(template(n_robots=100, world_size=60.0,
                                     battery_sd=30.0), seed=0)
        batteries = [r.battery for r in scenario.robots]
        assert all(50.0 <= b <= 100.0 for b in batteries)
        assert 15.0 <= statistics.stdev(batteries) <= 45.0

    def test_positions_respect_separation(self):
        scenario = generate(template(n_robots=10, safety_radius=1.0), seed=3)
        robots = scenario.robots
        for i in range(len(robots)):
            for j in range(i + 1, len(robots)):
                d = math.hypot(robots[i].x - robots[j].x,
                               robots[i].y - robots[j].y)
                assert d >= 2.0

    def test_explicit_positions(self):
        scenario = generate(template(positions=[[1, 1], [2, 2], [3, 3], [4, 4]]),
                            seed=0)
        assert [(r.x, r.y) for r in scenario.robots] == [
            (1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]

    def test_positions_length_mismatch(self):
        with pytest.raises(InvalidTemplateError):
            generate(template(positions=[[1, 1]]), seed=0)

    def test_huge_team_rejected_before_any_draw(self):
        # 10**19 disks of radius 0.5 cannot fit in the 21 m square around a
        # 20 m world; sampling would first draw one battery per robot
        with prompt(0.1), pytest.raises(InvalidTemplateError) as info:
            generate(template(n_robots=10**19), seed=0)
        assert str(info.value) == "could not place robots with required separation"
        # listed positions are counted against the team first too
        with prompt(0.1), pytest.raises(InvalidTemplateError) as info:
            generate(template(n_robots=10**19, positions=[[1, 1]]), seed=0)
        assert str(info.value) == "positions length != n_robots"

    def test_bad_template(self):
        with pytest.raises(InvalidTemplateError):
            generate({"n_robots": 3}, seed=0)
        with pytest.raises(InvalidTemplateError):
            generate(template(n_robots=0), seed=0)

    @pytest.mark.parametrize("size", [0, -5.0])
    def test_world_size_not_positive_rejected_before_sampling(self, size):
        with pytest.raises(InvalidTemplateError, match="world_size: must be positive"):
            generate({"world_size": size, "n_robots": 3, "tasks": []}, seed=0)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_non_finite_safety_radius_rejected_before_sampling(self, radius):
        # sampling would reject every placement after the first
        with pytest.raises(InvalidTemplateError, match="safety_radius.*finite"):
            generate(template(n_robots=20, safety_radius=radius), seed=0)

    def test_law_passthrough(self):
        scenario = generate(template(law="cata_u"), seed=0)
        assert scenario.law is PriorityLaw.CATA_U


class TestValidation:
    def _scenario(self, **overrides):
        fields = dict(
            world_size=20.0,
            robots=[RobotSpec(id=1, x=1.0, y=1.0, battery=90.0),
                    RobotSpec(id=2, x=5.0, y=5.0, battery=80.0)],
            tasks=[Task(id=1, center=Position(10, 10), required=1,
                        duration=2, timeout=50)],
        )
        fields.update(overrides)
        return Scenario(**fields)

    def test_valid_passes(self):
        self._scenario().validate()

    def test_duplicate_robot_ids(self):
        s = self._scenario(robots=[RobotSpec(1, 1, 1, 90), RobotSpec(1, 2, 2, 80)])
        with pytest.raises(InvalidScenarioError, match="duplicate ids"):
            s.validate()

    def test_duplicate_task_ids(self):
        again = Task(id=1, center=Position(5, 5), required=1, duration=2, timeout=50)
        s = self._scenario(tasks=[*self._scenario().tasks, again])
        with pytest.raises(InvalidScenarioError, match="tasks: duplicate ids"):
            s.validate()

    def test_out_of_bounds_position(self):
        s = self._scenario(robots=[RobotSpec(1, 25.0, 1.0, 90)])
        with pytest.raises(InvalidScenarioError, match="outside world bounds"):
            s.validate()

    def test_battery_range(self):
        s = self._scenario(robots=[RobotSpec(1, 1, 1, 150.0)])
        with pytest.raises(InvalidScenarioError, match="battery"):
            s.validate()

    def test_required_exceeds_robots(self):
        # the count is the task's one problem: three vertices 5 m around
        # (10, 18) would also leave the 20 m world, and a polygon of 10**308
        # vertices would never be built
        for x, y, required in [(5, 5, 3), (10, 18, 3), (10, 10, int(1e308))]:
            s = self._scenario(tasks=[Task(id=1, center=Position(x, y), required=required,
                                           duration=1, timeout=10)])
            with prompt(0.1), pytest.raises(InvalidScenarioError) as info:
                s.validate()
            assert str(info.value) == "task 1: requires more robots than exist"

    def test_arrival_order(self):
        s = self._scenario(tasks=[
            Task(id=1, center=Position(5, 5), required=1, duration=1,
                 timeout=10, arrival_tick=5),
            Task(id=2, center=Position(6, 6), required=1, duration=1,
                 timeout=10, arrival_tick=0)])
        with pytest.raises(InvalidScenarioError, match="non-decreasing"):
            s.validate()

    def test_task_priority_order_permutation(self):
        s = self._scenario(task_priority_order=[1, 7])
        with pytest.raises(InvalidScenarioError, match="permutation"):
            s.validate()

    def test_bad_comm_range(self):
        s = self._scenario(comm_range=-1.0)
        with pytest.raises(InvalidScenarioError, match="comm_range"):
            s.validate()

    def test_no_robots(self):
        s = self._scenario(robots=[], tasks=[])
        with pytest.raises(InvalidScenarioError, match="at least one robot"):
            s.validate()

    @pytest.mark.parametrize("x, valid", [(3.0, True), (2.5, False)])
    def test_robots_start_twice_the_safety_radius_apart(self, x, valid):
        # with negotiation on, a closer pair would be a conflict every tick
        s = self._scenario(robots=[RobotSpec(3, 2.0, 2.0, 90.0),
                                   RobotSpec(5, 9.0, 9.0, 90.0),
                                   RobotSpec(8, x, 2.0, 90.0)])
        if valid:
            s.validate()  # exactly 2 * 0.5 m apart
        else:
            with pytest.raises(InvalidScenarioError, match="robots 3 and 8: start "
                               "closer than twice the safety radius"):
                s.validate()
        s.conflict_negotiation = False
        s.validate()  # without negotiation nothing keeps robots apart anyway

    def test_every_generated_scenario_starts_apart(self):
        for seed in range(20):
            s = generate({"world_size": 6.0, "n_robots": 8, "safety_radius": 0.6,
                          "tasks": []}, seed)
            assert s.conflict_negotiation
            s.validate()

    @pytest.mark.parametrize("y, valid", [(15.0, True), (15.5, False)])
    def test_formation_vertex_inside_world(self, y, valid):
        # one robot, so the vertex sits formation_radius (5 m) due north
        s = self._scenario(tasks=[Task(id=7, center=Position(10, y), required=1,
                                       duration=1, timeout=10)])
        if valid:
            s.validate()  # on the edge
        else:
            with pytest.raises(InvalidScenarioError,
                               match="task 7: formation vertex outside world"):
                s.validate()

    @pytest.mark.parametrize("size", [0.0, -5.0])
    def test_world_size_not_positive(self, size):
        s = self._scenario(world_size=size, robots=[RobotSpec(1, 0.0, 0.0, 90.0)],
                           tasks=[])
        with pytest.raises(InvalidScenarioError, match="world_size"):
            s.validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["world_size", "step_length", "safety_radius",
                                      "formation_radius"])
    def test_non_finite_length(self, name, value):
        s = self._scenario(**{name: value})
        with pytest.raises(InvalidScenarioError, match=f"{name}.*finite"):
            s.validate()


class TestSerialization:
    def test_round_trip(self):
        scenario = generate(template(law="t_high_e", comm_range=15.0), seed=4)
        again = Scenario.from_json(scenario.to_json())
        assert again.to_json() == scenario.to_json()

    def test_from_json_rejects_garbage(self):
        with pytest.raises(InvalidScenarioError):
            Scenario.from_json("{not json")
        with pytest.raises(InvalidScenarioError):
            Scenario.from_json("{}")

    def test_load_from_file(self, tmp_path):
        scenario = generate(template(), seed=1)
        path = tmp_path / "s.json"
        path.write_text(scenario.to_json())
        assert Scenario.load(path).to_json() == scenario.to_json()

    def test_unset_optional_fields_load_to_the_defaults(self):
        doc = {"world_size": 10.0, "robots": [{"id": 1, "x": 1.0, "y": 1.0,
                                              "battery": 50.0}], "tasks": []}
        assert {f.name for f in fields(Scenario)} - set(_DEFAULTS) == set(doc)
        scenario = Scenario.from_json(json.dumps(doc))
        for name, default in _DEFAULTS.items():
            assert getattr(scenario, name) == default, name

    def test_every_optional_field_round_trips(self):
        scenario = Scenario(
            world_size=10.0, robots=[RobotSpec(1, 1.0, 1.0, 50.0)],
            tasks=[Task(id=1, center=Position(5.0, 5.0), required=1, duration=2, timeout=9),
                   Task(id=2, center=Position(3.0, 2.0), required=1, duration=2, timeout=9)],
            law=PriorityLaw.CATA_U, task_priority_order=[2, 1], comm_range=7.5,
            energy=EnergyModel(move_cost=0.2, comm_cost=0.03, idle_cost=0.05),
            step_length=0.5, safety_radius=0.25, formation_radius=2.0, seed=3,
            max_ticks=77, cata=CataWeights(base=50.0, w_d=2.0, w_c=3.0),
            conflict_negotiation=False)
        for name, default in _DEFAULTS.items():
            assert getattr(scenario, name) != default, name
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_document_bytes_are_pinned(self):
        # a generator template with none of the optional fields, each in
        # turn, and all of them; the round trip above cannot see a change
        # in the written bytes, such as a key added to a task record
        assert set(_PINNED_SETTINGS) == set(_DEFAULTS) - {"seed"}
        base = template(n_robots=6, tasks=[
            {"id": 1, "x": 8.0, "y": 12.0, "required": 2, "duration": 3,
             "timeout": 100},
            {"id": 2, "x": 14.0, "y": 6.0, "required": 3, "duration": 2,
             "timeout": 90, "arrival_tick": 7}])
        templates = [base, *({**base, name: value}
                             for name, value in _PINNED_SETTINGS.items()),
                     {**base, **_PINNED_SETTINGS}]
        text = "".join(generate(t, seed).to_json() + "\n"
                       for t in templates for seed in range(4))
        assert hashlib.sha256(text.encode()).hexdigest() == DOCUMENT_SHA256


#: A non-default value for every optional scenario field but ``seed``.
_PINNED_SETTINGS = {
    "law": "cata_u", "task_priority_order": [2, 1], "comm_range": 14.0,
    "energy": {"move_cost": 0.2, "comm_cost": 0.03, "idle_cost": 0.05},
    "step_length": 0.5, "safety_radius": 0.75, "formation_radius": 3.0,
    "max_ticks": 77, "cata": {"base": 50.0, "w_d": 2.0, "w_c": 3.0},
    "conflict_negotiation": False,
}

#: sha256 of ``test_document_bytes_are_pinned``'s 48 scenario documents.
DOCUMENT_SHA256 = "3f175c8c30ffbcc74763994c6356843d54361f11b30d5a18c88318602d633c35"
