"""Shared test utilities: scenario templates, random graphs, BFS oracle."""

from __future__ import annotations

import random
import signal
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import replace

from swarmplan.comms import CommGraph
from swarmplan.engine import Engine
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


def one_error_line(err: str) -> bool:
    """Whether a command's stderr is the one ``error:`` line ``main`` prints."""
    return err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1


def make_robot(rid: int, x: float = 0.0, y: float = 0.0,
               battery: float = 100.0) -> RobotState:
    return RobotState(id=rid, pos=Position(x, y), battery=battery)


def suite_scenario(law: str, scale: str, style: str, seed: int,
                   **overrides):
    """One concrete scenario from the shared template."""
    template = scale_template({**TEMPLATE, **overrides}, scale, style)
    template["law"] = law
    return generate(template, seed)


def dense_scenario(seed: int):
    """R80+T12 under t_low_e, every task static, in a 48 m world (the
    suite's 24 m grown by sqrt(80/20)); the benchmark's dense_team workload
    lays out the same scenario."""
    return suite_scenario("t_low_e", "R80+T12", "static", seed, world_size=48.0)


def low_battery(law: str, seed: int, comm_cost: float, shuffle: bool = False,
                style: str = "static"):
    """The suite's R20+T3 scenario of arrival ``style`` with batteries drawn
    from U(0.5, 6), so that robots die mid-run; ``shuffle`` also lists the
    robots out of id order under sparse ids."""
    s = suite_scenario(law, "R20+T3", style, seed,
                       energy={"comm_cost": comm_cost})
    rng = random.Random(seed)
    robots = [replace(r, battery=rng.uniform(0.5, 6.0)) for r in s.robots]
    if shuffle:
        ids = rng.sample(range(100), len(robots))
        robots = [replace(r, id=i) for r, i in zip(robots, ids)]
        rng.shuffle(robots)
    return replace(s, robots=robots)


class Hung(BaseException):
    """Raised by :func:`prompt` in a block that runs on; no ``except
    Exception`` of the code under test can swallow it."""


@contextmanager
def prompt(seconds: float):
    """Assert that the block ends within ``seconds``; one that would run on
    is stopped by ``SIGALRM`` after a second, so a hang fails instead."""
    def stop(signum, frame):
        raise Hung("still running after 1 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    start = time.perf_counter()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < seconds


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


def is_quiet(engine: Engine) -> bool:
    """Whether the engine's next tick is quiet: no task active, none due."""
    due = engine.pending and engine.pending[0].arrival_tick <= engine.tick_no
    return not engine.active and not due


def tick_state(engine: Engine) -> tuple:
    """What a tick leaves for the next: robots, knowledge, goal marks and
    stall counts, tasks, teams, the ledger's accounts and the trace length."""
    return (engine.tick_no, [(r.id, r.pos, r.battery, r.group, r.slot, r.goal)
                             for r in engine.robots.values()],
            engine.known, engine._goal_mark, engine._stall, engine.pending,
            engine.active, engine.members_of, vars(engine.ledger), len(engine.events))


def full_tick(engine: Engine) -> None:
    """One tick of ``engine`` through all seven phases: the reference that
    ``Engine.tick`` must match, however little a tick has to plan."""
    engine._phase_arrivals()
    graph = engine._phase_gossip()
    engine._phase_selection(graph)
    engine._phase_formation(graph)
    engine._phase_charge(engine._phase_routing())
    engine._phase_tasks()
    engine.tick_no += 1


def lockstep(scenario) -> tuple[Engine, list]:
    """``scenario`` run to its end on two engines in lockstep: one as ``tick``
    runs it, the other by ``full_tick``. Asserts that both leave the same
    state after every tick and the same trace and metrics; returns the first
    engine and the events of its quiet ticks."""
    engine, full, quiet = Engine(scenario), Engine(scenario), []
    while engine.tick_no < scenario.max_ticks and not engine.finished():
        was_quiet = is_quiet(engine)
        start = len(engine.events)
        engine.tick()
        full_tick(full)
        assert tick_state(engine) == tick_state(full), engine.tick_no
        if was_quiet:
            quiet.extend(engine.events[start:])
    assert engine.events == full.events
    assert repr(engine.metrics()) == repr(full.metrics())
    return engine, quiet
