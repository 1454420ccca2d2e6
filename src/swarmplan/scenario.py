"""Scenario records, JSON schema, and deterministic scenario generation.

A scenario fully determines a run: robot placement and batteries, the task
schedule, the active priority law, communication mode, energy model, and
geometry parameters. Generation from a template samples batteries from a
clamped Gaussian and positions uniformly (with a minimum-separation
rejection loop), all driven by the seed so generation is reproducible.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field

from .comms import COMPLETE
from .priority import PriorityLaw
from .world import EnergyModel, Position, Task, polygon_vertices


class InvalidScenarioError(Exception):
    """Scenario failed validation; message lists the offending fields."""


class InvalidTemplateError(Exception):
    """Generator template failed validation."""


#: What parsing a document field can raise: a missing key, a value of the
#: wrong type or form, or a number ``int()`` cannot hold (JSON ``1e309``).
FIELD_ERRORS = (LookupError, TypeError, ValueError, ArithmeticError)

#: The scenario lengths besides ``world_size``, each positive and finite.
_LENGTHS = ("step_length", "safety_radius", "formation_radius")


@dataclass(frozen=True)
class RobotSpec:
    id: int
    x: float
    y: float
    battery: float


@dataclass(frozen=True)
class Scenario:
    """One run's inputs, checked once, when built. Robots and every task's
    formation vertices lie in ``[0, world_size]²``. With
    ``conflict_negotiation`` on, robots start at least twice the safety
    radius apart; with it off (the paper's no-negotiation ablation) routing
    neither clusters conflicts nor enforces separation, so robots may start
    or come closer. Robots and tasks are held as tuples."""

    world_size: float
    robots: tuple[RobotSpec, ...]
    tasks: tuple[Task, ...]
    law: PriorityLaw = PriorityLaw.T_LOW_E
    comm_range: float | str = COMPLETE
    energy: EnergyModel = field(default_factory=EnergyModel)
    step_length: float = 1.0
    safety_radius: float = 0.5
    formation_radius: float = 5.0
    seed: int = 0
    max_ticks: int = 10_000
    conflict_negotiation: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "robots", tuple(self.robots))
        object.__setattr__(self, "tasks", tuple(self.tasks))
        problems = _setting_problems(vars(self))
        settings_valid = not problems

        def inside(x: float, y: float) -> bool:
            return 0.0 <= x <= self.world_size and 0.0 <= y <= self.world_size

        if not self.robots:
            problems.append("robots: need at least one robot")
        ids = [r.id for r in self.robots]
        if len(set(ids)) != len(ids):
            problems.append("robots: duplicate ids")
        tids = [t.id for t in self.tasks]
        if len(set(tids)) != len(tids):
            problems.append("tasks: duplicate ids")
        for k, r in enumerate(self.robots):
            if not inside(r.x, r.y):
                problems.append(f"robot {r.id}: position outside world bounds")
            if not (0.0 <= r.battery <= 100.0):
                problems.append(f"robot {r.id}: battery outside [0, 100]")
            if settings_valid and self.conflict_negotiation:
                # ``generate``'s placement rule, so every generated scenario
                # passes; negotiation would flag a closer pair on every tick
                problems += [f"robots {o.id} and {r.id}: start closer than twice"
                             " the safety radius" for o in self.robots[:k]
                             if math.hypot(r.x - o.x, r.y - o.y) < 2.0 * self.safety_radius]
        for t in self.tasks:
            # the count first: the polygon has ``required`` vertices
            if t.required > len(self.robots):
                problems.append(f"task {t.id}: requires more robots than exist")
            elif settings_valid and not all(inside(v.x, v.y) for v in polygon_vertices(
                    t.center, t.required, self.formation_radius)):
                problems.append(f"task {t.id}: formation vertex outside world bounds")
        arrivals = [t.arrival_tick for t in self.tasks]
        if arrivals != sorted(arrivals):
            problems.append("tasks: arrival ticks must be non-decreasing")
        if problems:
            raise InvalidScenarioError("; ".join(problems))

    def to_json(self) -> str:
        doc = asdict(self)
        doc["law"] = self.law.value
        for task in doc["tasks"]:
            task.update(task.pop("center")._asdict())  # a task's center is its x and y
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also too long an integer, too deep
            raise InvalidScenarioError(f"not valid JSON: {exc}") from exc
        try:
            return cls(
                world_size=_number(doc["world_size"]),
                robots=[RobotSpec(id=_number(r["id"], int), x=_number(r["x"]),
                                  y=_number(r["y"]), battery=_number(r["battery"]))
                        for r in doc["robots"]],
                tasks=[_task(t) for t in doc["tasks"]],
                seed=_number(doc.get("seed", cls.seed), int),
                **_settings(doc),
            )
        except FIELD_ERRORS as exc:
            raise InvalidScenarioError(f"bad scenario field: {exc}") from exc


def _setting_problems(settings: dict) -> list[str]:
    """The rules of ``world_size``, the ``_LENGTHS``, ``comm_range`` and
    ``max_ticks`` in ``settings``: the ones no team size or placement
    changes, so a template can be held to them before it is sampled."""
    problems = []
    if not 0 < settings["world_size"] < math.inf:
        problems.append("world_size: must be positive and finite")
    if not all(0 < settings[name] < math.inf for name in _LENGTHS):
        problems.append(f"geometry: {'/'.join(_LENGTHS)} must be positive and finite")
    comm_range = settings["comm_range"]
    if comm_range != COMPLETE and not (isinstance(comm_range, (int, float))
                                       and 0 < comm_range < math.inf):
        problems.append("comm_range: must be positive and finite, or 'complete'")
    if settings["max_ticks"] < 1:
        problems.append("max_ticks: must be >= 1")
    return problems


def _number(value, kind=float):
    """A document's number as ``kind``, or as written when ``kind`` is None.
    Only a JSON number is one: Python counts ``true`` as the int 1, and an
    ``int`` field refuses a fraction rather than truncate it. One kept as
    written must still convert to ``float``, as a run's arithmetic does."""
    if type(value) not in (int, float):
        raise TypeError(f"{json.dumps(value)} is not a number")
    if kind is int and value != int(value):
        raise ValueError(f"{value!r} is not an integer")
    if kind is None:
        float(value)
    return value if kind is None else kind(value)


def _task(doc: dict) -> Task:
    return Task(id=_number(doc["id"], int),
                center=Position(_number(doc["x"]), _number(doc["y"])),
                required=_number(doc["required"], int),
                duration=_number(doc["duration"], int),
                timeout=_number(doc["timeout"], int),
                arrival_tick=_number(doc.get("arrival_tick", 0), int))


def _settings(doc: dict) -> dict:
    """The optional scenario fields of a scenario or template document,
    parsed, with :class:`Scenario`'s defaults."""
    def get(name: str):
        return doc.get(name, getattr(Scenario, name))

    comm_range = get("comm_range")
    negotiation = get("conflict_negotiation")
    if type(negotiation) is not bool:
        raise ValueError("conflict_negotiation: must be true or false")
    return {
        "law": PriorityLaw(get("law")),
        "comm_range": comm_range if comm_range == COMPLETE else _number(comm_range),
        "energy": EnergyModel(**_energy(doc)),
        **{name: _number(get(name)) for name in _LENGTHS},
        "max_ticks": _number(get("max_ticks"), int),
        "conflict_negotiation": negotiation,
    }


def _energy(doc: dict) -> dict:
    """The fields of a document's ``energy`` block, each number kept as
    written (an int stays an int in the written scenario) if it converts to
    ``float``."""
    block = doc.get("energy", {})
    if type(block) is not dict:
        raise TypeError(f"energy: {json.dumps(block)} is not an object")
    return {key: _number(value, None) for key, value in block.items()}


def parse_template(template: dict) -> tuple[dict, int, tuple[float, float]]:
    """A template held to every rule that needs no sampling: the
    :class:`Scenario` fields but ``robots`` and ``seed``, the team size, and
    the battery mean and sd. Keys it does not read, among them an older
    template's ``positions``, are ignored."""
    try:
        world = _number(template["world_size"])
        n_robots = _number(template["n_robots"], int)
        battery = (_number(template.get("battery_mean", 90.0)),
                   _number(template.get("battery_sd", 10.0)))
        if not all(map(math.isfinite, battery)):
            raise ValueError("battery_mean/battery_sd: must be finite")
        fields = {"world_size": world, "tasks": [_task(t) for t in template["tasks"]],
                  **_settings(template)}
    except FIELD_ERRORS as exc:
        raise InvalidTemplateError(f"bad template field: {exc}") from exc
    if n_robots < 1:
        raise InvalidTemplateError("n_robots must be >= 1")
    # sampling could never place a robot, would reject every placement, or
    # would build a scenario that cannot run
    problems = _setting_problems(fields)
    if problems:
        raise InvalidTemplateError("; ".join(problems))
    return fields, n_robots, battery


def generate(template: dict, seed: int) -> Scenario:
    """Build a concrete scenario from a template, deterministically.

    Template fields: ``world_size``, ``n_robots``, ``battery_mean``,
    ``battery_sd`` (clamped Gaussian, [50, 100]), ``tasks`` (as in the
    scenario schema), plus any scenario field to pass through. Robot
    positions are always sampled uniformly, rejecting placements closer than
    twice the safety radius so the starting configuration already satisfies
    separation; to place robots by hand, write a scenario document.
    """
    fields, n_robots, (mean, sd) = parse_template(template)
    r = fields["safety_radius"]
    # disks of radius r around points 2r apart in [0, world]² are disjoint
    # inside [-r, world + r]², so no more of them than its area holds fit;
    # checked before the draws, which number n_robots
    side = (fields["world_size"] + 2.0 * r) / r  # in radii
    if n_robots > side * side / math.pi:
        raise InvalidTemplateError("could not place robots with required separation")
    rng = random.Random(seed)
    batteries = [min(100.0, max(50.0, rng.gauss(mean, sd))) for _ in range(n_robots)]
    positions = _sample_positions(rng, n_robots, fields["world_size"], 2.0 * r)
    robots = [RobotSpec(id=i, x=positions[i][0], y=positions[i][1],
                        battery=batteries[i]) for i in range(n_robots)]
    return Scenario(robots=robots, seed=seed, **fields)


def _sample_positions(rng: random.Random, n: int, world: float,
                      min_gap: float) -> list[tuple[float, float]]:
    positions: list[tuple[float, float]] = []
    attempts = 0
    while len(positions) < n:
        attempts += 1
        if attempts > 10_000 * n:
            raise InvalidTemplateError("could not place robots with required separation")
        x, y = rng.uniform(0.0, world), rng.uniform(0.0, world)
        if all(math.hypot(x - px, y - py) >= min_gap for px, py in positions):
            positions.append((x, y))
    return positions
