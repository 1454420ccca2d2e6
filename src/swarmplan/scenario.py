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
from pathlib import Path

from .cata import CataWeights
from .comms import COMPLETE
from .priority import PriorityLaw
from .world import EnergyModel, Position, Task


class InvalidScenarioError(Exception):
    """Scenario failed validation; message lists the offending fields."""


class InvalidTemplateError(Exception):
    """Generator template failed validation."""


#: What parsing a document field can raise: a missing key, a value of the
#: wrong type or form, or a number ``int()`` cannot hold (JSON ``1e309``).
FIELD_ERRORS = (LookupError, TypeError, ValueError, ArithmeticError)


@dataclass(frozen=True)
class RobotSpec:
    id: int
    x: float
    y: float
    battery: float


@dataclass
class Scenario:
    world_size: float
    robots: list[RobotSpec]
    tasks: list[Task]
    law: PriorityLaw = PriorityLaw.T_LOW_E
    task_priority_order: list[int] | None = None
    comm_range: float | str = COMPLETE
    energy: EnergyModel = field(default_factory=EnergyModel)
    step_length: float = 1.0
    safety_radius: float = 0.5
    formation_radius: float = 5.0
    seed: int = 0
    max_ticks: int = 10_000
    cata: CataWeights = field(default_factory=CataWeights)
    conflict_negotiation: bool = True

    def validate(self) -> None:
        problems = []
        if not 0 < self.world_size < math.inf:
            problems.append("world_size: must be positive and finite")
        if not self.robots:
            problems.append("robots: need at least one robot")
        ids = [r.id for r in self.robots]
        if len(set(ids)) != len(ids):
            problems.append("robots: duplicate ids")
        tids = [t.id for t in self.tasks]
        if len(set(tids)) != len(tids):
            problems.append("tasks: duplicate ids")
        for r in self.robots:
            if not (0.0 <= r.x <= self.world_size and 0.0 <= r.y <= self.world_size):
                problems.append(f"robot {r.id}: position outside world bounds")
            if not (0.0 <= r.battery <= 100.0):
                problems.append(f"robot {r.id}: battery outside [0, 100]")
        for t in self.tasks:
            if t.required > len(self.robots):
                problems.append(f"task {t.id}: requires more robots than exist")
        arrivals = [t.arrival_tick for t in self.tasks]
        if arrivals != sorted(arrivals):
            problems.append("tasks: arrival ticks must be non-decreasing")
        if self.task_priority_order is not None and \
                sorted(self.task_priority_order) != sorted(tids):
            problems.append("task_priority_order: not a permutation of task ids")
        if self.comm_range != COMPLETE and not (
                isinstance(self.comm_range, (int, float)) and self.comm_range > 0):
            problems.append("comm_range: must be positive or 'complete'")
        if not all(0 < v < math.inf for v in (self.step_length, self.safety_radius,
                                               self.formation_radius)):
            problems.append("geometry: step_length/safety_radius/formation_radius "
                            "must be positive and finite")
        if self.max_ticks < 1:
            problems.append("max_ticks: must be >= 1")
        if problems:
            raise InvalidScenarioError("; ".join(problems))

    def to_json(self) -> str:
        doc = asdict(self)
        doc["law"] = self.law.value
        for task in doc["tasks"]:
            task.update(task.pop("center"))  # a task's center is its x and y
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidScenarioError(f"not valid JSON: {exc}") from exc
        try:
            scenario = cls(
                world_size=float(doc["world_size"]),
                robots=[RobotSpec(id=int(r["id"]), x=float(r["x"]),
                                  y=float(r["y"]), battery=float(r["battery"]))
                        for r in doc["robots"]],
                tasks=[_task(t) for t in doc["tasks"]],
                seed=int(doc.get("seed", cls.seed)),
                **_settings(doc),
            )
        except FIELD_ERRORS as exc:
            raise InvalidScenarioError(f"bad scenario field: {exc}") from exc
        scenario.validate()
        return scenario

    @classmethod
    def load(cls, path: str | Path) -> "Scenario":
        return cls.from_json(Path(path).read_text())


def _task(doc: dict) -> Task:
    return Task(id=int(doc["id"]), center=Position(float(doc["x"]), float(doc["y"])),
                required=int(doc["required"]), duration=int(doc["duration"]),
                timeout=int(doc["timeout"]), arrival_tick=int(doc.get("arrival_tick", 0)))


def _settings(doc: dict) -> dict:
    """The optional scenario fields of a scenario or template document,
    parsed, with :class:`Scenario`'s defaults."""
    def get(name: str):
        return doc.get(name, getattr(Scenario, name))

    comm_range = get("comm_range")
    order = get("task_priority_order")
    if order is not None and not (isinstance(order, list)
                                  and all(type(tid) is int for tid in order)):
        raise ValueError("task_priority_order: must be null or a list of task ids")
    negotiation = get("conflict_negotiation")
    if type(negotiation) is not bool:
        raise ValueError("conflict_negotiation: must be true or false")
    return {
        "law": PriorityLaw(get("law")),
        "task_priority_order": order,
        "comm_range": comm_range if comm_range == COMPLETE else float(comm_range),
        "energy": EnergyModel(**doc.get("energy", {})),
        "step_length": float(get("step_length")),
        "safety_radius": float(get("safety_radius")),
        "formation_radius": float(get("formation_radius")),
        "max_ticks": int(get("max_ticks")),
        "cata": CataWeights(**doc.get("cata", {})),
        "conflict_negotiation": negotiation,
    }


def _battery(template: dict) -> tuple[float, float]:
    """A template's battery mean and standard deviation, parsed."""
    mean, sd = (float(template.get("battery_mean", 90.0)),
                float(template.get("battery_sd", 10.0)))
    if not (math.isfinite(mean) and math.isfinite(sd)):
        raise ValueError("battery_mean/battery_sd: must be finite")
    return mean, sd


def generate(template: dict, seed: int) -> Scenario:
    """Build a concrete scenario from a template, deterministically.

    Template fields: ``world_size``, ``n_robots``, ``battery_mean``,
    ``battery_sd`` (clamped Gaussian, [50, 100]), ``tasks`` (as in the
    scenario schema), plus any scenario field to pass through. Robot
    positions are sampled uniformly unless ``positions`` lists them
    explicitly; sampling rejects placements closer than twice the safety
    radius so the starting configuration already satisfies separation.
    """
    try:
        world = float(template["world_size"])
        n_robots = int(template["n_robots"])
        mean, sd = _battery(template)
        tasks = [_task(t) for t in template["tasks"]]
        settings = _settings(template)
        positions = ([(float(x), float(y)) for x, y in template["positions"]]
                     if "positions" in template else None)
    except FIELD_ERRORS as exc:
        raise InvalidTemplateError(f"bad template field: {exc}") from exc
    if n_robots < 1:
        raise InvalidTemplateError("n_robots must be >= 1")
    if not 0 < world < math.inf:  # sampling could never place a robot
        raise InvalidTemplateError("world_size: must be positive and finite")

    rng = random.Random(seed)
    batteries = [min(100.0, max(50.0, rng.gauss(mean, sd))) for _ in range(n_robots)]

    if positions is None:
        positions = _sample_positions(rng, n_robots, world,
                                      2.0 * settings["safety_radius"])
    elif len(positions) != n_robots:
        raise InvalidTemplateError("positions length != n_robots")

    robots = [RobotSpec(id=i, x=positions[i][0], y=positions[i][1],
                        battery=batteries[i]) for i in range(n_robots)]
    scenario = Scenario(world_size=world, robots=robots,
                        tasks=tasks, seed=seed, **settings)
    scenario.validate()
    return scenario


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
