"""Shared test utilities: scenario templates, random graphs, BFS oracle."""

from __future__ import annotations

import random
from collections import deque
from dataclasses import replace

from swarmplan.comms import CommGraph
from swarmplan.scenario import generate
from swarmplan.sweep import scale_template
from swarmplan.world import Position, RobotState

#: Base template shared by the whole suite: a 24 m world, 1 m safety
#: radius, 4 m formation polygons, and a 400-tick task deadline.
TEMPLATE = {
    "world_size": 24.0,
    "safety_radius": 1.0,
    "formation_radius": 4.0,
    "task_timeout": 400,
}

ALL_LAWS = ["high_e", "low_e", "t_high_e", "t_low_e", "cata_u"]


def make_robot(rid: int, x: float = 0.0, y: float = 0.0,
               battery: float = 100.0) -> RobotState:
    return RobotState(id=rid, pos=Position(x, y), battery=battery)


def suite_scenario(law: str, scale: str, style: str, seed: int,
                   **overrides):
    """One concrete scenario from the shared template."""
    template = scale_template({**TEMPLATE, **overrides}, scale, style)
    template["law"] = law
    return generate(template, seed)


def low_battery(law: str, seed: int, comm_cost: float, shuffle: bool = False):
    """The suite's R20+T3 static scenario with batteries drawn from U(0.5, 6),
    so that robots die mid-run; ``shuffle`` also lists the robots out of id
    order under sparse ids."""
    s = suite_scenario(law, "R20+T3", "static", seed,
                       energy={"comm_cost": comm_cost})
    rng = random.Random(seed)
    robots = [replace(r, battery=rng.uniform(0.5, 6.0)) for r in s.robots]
    if shuffle:
        ids = rng.sample(range(100), len(robots))
        robots = [replace(r, id=i) for r, i in zip(robots, ids)]
        rng.shuffle(robots)
    s.robots = robots
    return s


def random_connected_graph(rng: random.Random, n: int) -> CommGraph:
    """Random connected graph over ids 0..n-1: spanning tree + extra edges."""
    adjacency: dict[int, set[int]] = {i: set() for i in range(n)}
    nodes = list(range(n))
    rng.shuffle(nodes)
    for k in range(1, n):
        a, b = nodes[k], nodes[rng.randrange(k)]
        adjacency[a].add(b)
        adjacency[b].add(a)
    extra = rng.randrange(n + 1)
    for _ in range(extra):
        a, b = rng.sample(range(n), 2) if n >= 2 else (0, 0)
        if a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    return CommGraph({i: frozenset(adjacency[i]) for i in range(n)})


def eccentricity(graph: CommGraph, group: set[int]) -> int:
    """Max over members of BFS distance to the farthest member."""
    worst = 0
    for source in group:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            i = queue.popleft()
            for j in graph.neighbors(i):
                if j in group and j not in dist:
                    dist[j] = dist[i] + 1
                    queue.append(j)
        worst = max(worst, max(dist.values()))
    return worst
