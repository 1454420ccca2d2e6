"""The invariants the README states, over fuzzed valid scenarios.

Every tick: live robots keep twice the safety radius from each other and
from every body (with conflict negotiation on, which is what enforces
it), stay inside the world, and move at most one step. At the end: exact
energy conservation, at most two negotiation iterations, every task due
before the last tick arrived at its arrival tick (ties in ascending ids),
and a second ``run`` of the same scenario gives the same metrics and trace
bytes.
A quiet tick (no task active, none due), which skips routing, finds no
conflict among the standing robots, and a run leaves the same state after
every tick as one whose ticks are all forced through the seven phases.
Under any comm cost, no event names a robot after its death but the
gossip or negotiation whose charge killed it.
And every input document, valid or not, makes the CLI exit 0, 1 or 2
promptly, with one ``error:`` line for exit 2. That property lives here
rather than in ``test_cli.py``, which must run without hypothesis.
"""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from itertools import combinations
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from swarmplan.cli import main
from swarmplan.engine import Engine, EventKind, run
from swarmplan.routing import detect_conflicts
from swarmplan.scenario import Scenario, generate
from swarmplan.sweep import SweepSpec
from swarmplan.world import EnergyModel, euclidean
from helpers import (ALL_LAWS, TEMPLATE, Hung, is_quiet, lockstep, one_error_line,
                     prompt)

#: Slack on the step length for the rounding of a step's own endpoint.
_STEP_SLACK = 1e-9


@st.composite
def scenarios(draw):
    """A valid scenario: the law, 1-30 robots, and 0-4 tasks whose
    vertices lie inside the world and whose arrivals do not decrease, listed
    in any id order.

    The world is 8-32 m, the safety radius 0.25-1.5 m, the step 0.3-2.5 m
    and the formation radius up to a quarter of the world. The team is at
    most as dense as one robot per (4 * safety radius)², so that
    ``generate`` always places it. Optionally conflict negotiation off,
    and low batteries (U(0.5, 6), as ``helpers.low_battery`` sets them) so
    that robots die mid-run.

    Team size and task count are listed largest first: Hypothesis tries
    (and shrinks toward) the first entries, so its early examples are the
    crowded ones, where a broken separation rule shows within a few dozen
    examples.
    """
    world = draw(st.floats(8.0, 32.0))
    radius = draw(st.floats(0.25, 1.5))
    formation = draw(st.floats(0.5, world / 4.0))
    n_robots = min(draw(st.sampled_from(range(30, 0, -1))),
                   max(1, int((world / (4.0 * radius)) ** 2)))
    n_tasks = draw(st.sampled_from(range(4, -1, -1)))
    ids = draw(st.lists(st.integers(1, 50), min_size=n_tasks, max_size=n_tasks,
                        unique=True))
    arrivals = sorted(draw(st.lists(st.integers(0, 40), min_size=len(ids),
                                    max_size=len(ids))))
    tasks = []
    # a center this far inside keeps every vertex in the world, rounding too
    center = st.floats(formation + 1e-6, world - formation - 1e-6)
    for tid, arrival in zip(ids, arrivals):
        duration = draw(st.integers(1, 8))
        tasks.append({"id": tid, "x": draw(center), "y": draw(center),
                      "required": draw(st.integers(1, min(4, n_robots))),
                      "duration": duration,
                      "timeout": draw(st.integers(duration, 400)),
                      "arrival_tick": arrival})
    template = {"world_size": world, "n_robots": n_robots, "tasks": tasks,
                "law": draw(st.sampled_from(ALL_LAWS)),
                "safety_radius": radius, "formation_radius": formation,
                "step_length": draw(st.floats(0.3, 2.5)),
                "conflict_negotiation": draw(st.booleans()),
                "max_ticks": 500}
    scenario = generate(template, draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        robots = [replace(r, battery=draw(st.floats(0.5, 6.0))) for r in scenario.robots]
        scenario = replace(scenario, robots=robots)
    return scenario


def check_tick(scenario, before, robots):
    """The per-tick invariants, from the positions ``before`` the tick."""
    world, step = scenario.world_size, scenario.step_length
    for rid, robot in robots.items():
        x, y = robot.pos
        assert 0.0 <= x <= world and 0.0 <= y <= world, (rid, robot.pos)
        assert euclidean(before[rid], robot.pos) <= step + _STEP_SLACK, rid
    if scenario.conflict_negotiation:
        limit = 2.0 * scenario.safety_radius
        for a, b in combinations(robots.values(), 2):
            if a.alive or b.alive:  # live-live and live-body
                assert euclidean(a.pos, b.pos) >= limit, (a.id, b.id)


@given(scenarios())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_invariants_hold(scenario):
    engine = Engine(scenario)
    while engine.tick_no < scenario.max_ticks and not engine.finished():
        before = {rid: r.pos for rid, r in engine.robots.items()}
        if scenario.conflict_negotiation and is_quiet(engine):
            # a quiet tick skips routing, whose conflict check over robots
            # that stand still finds nothing only while they keep separation
            here = {r.id: r.pos for r in engine.robots.values() if r.alive}
            assert detect_conflicts(here, here, scenario.safety_radius) == set()
        engine.tick()
        check_tick(scenario, before, engine.robots)
    for robot in engine.robots.values():
        assert engine.ledger.conservation_error(robot) <= 1e-9, robot.id
    metrics = engine.metrics()
    assert metrics.max_negotiation_iterations <= 2
    due = sorted((t.arrival_tick, t.id) for t in scenario.tasks
                 if t.arrival_tick < engine.tick_no)
    assert due == [(e.tick, e.subjects[0]) for e in engine.events
                   if e.kind is EventKind.TASK_ARRIVED]
    again, events = run(scenario)
    assert repr(again) == repr(metrics)
    assert ([e.to_json() for e in events]
            == [e.to_json() for e in engine.events])


@given(scenarios())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_quiet_ticks_equal_all_seven_phases(scenario):
    lockstep(scenario)


@given(scenarios(), st.sampled_from([0.01, 0.3, 1.0, 3.0]))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_no_event_names_a_robot_after_its_death(scenario, comm_cost):
    scenario = replace(scenario, energy=EnergyModel(comm_cost=comm_cost))
    dead: set[int] = set()
    paying: set[int] = set()  # the deaths since the last other event
    for event in run(scenario)[1]:
        if event.kind is EventKind.ROBOT_DEAD:
            (rid,) = event.subjects
            assert rid not in dead, event
            dead.add(rid)
            paying.add(rid)
            continue
        if event.kind in (EventKind.GOSSIP, EventKind.NEGOTIATE):
            # they name the robots that took part and paid, and a death
            # their own charge caused comes first
            assert dead.intersection(event.subjects) <= paying, event
        elif event.kind is not EventKind.TASK_ARRIVED:  # whose subject is a task
            assert dead.isdisjoint(event.subjects), event
        paying.clear()


#: The values a document mutation writes, as raw JSON literals: overflowing
#: and huge numbers (``1e309`` reads as infinity, the two integers exactly),
#: edge numbers, and every other JSON kind.
_LITERALS = ["1e309", "NaN", "-1", "0", "1e308", str(10**400), str(2**63),
             '"x"', "null", "true", "[]", "{}"]

_ENERGY = {"move_cost": 0.1, "comm_cost": 0.01, "idle_cost": 0.04}
_TEMPLATE = {**TEMPLATE, "energy": _ENERGY, "n_robots": 4, "max_ticks": 60,
             "law": "t_low_e", "battery_mean": 90.0, "battery_sd": 10.0,
             "tasks": [{"id": 1, "x": 12.0, "y": 16.0, "required": 2,
                        "duration": 2, "timeout": 50},
                       {"id": 2, "x": 8.0, "y": 8.0, "required": 1,
                        "duration": 2, "timeout": 50, "arrival_tick": 5}]}

#: Each command's input flag and small base document: a template, the
#: scenario it generates, and a one-cell sweep spec; ``max_ticks`` 60, at
#: most 6 robots, one trial.
_DOCS = {
    "generate": ("--template", _TEMPLATE),
    "run": ("--scenario", json.loads(generate(_TEMPLATE, 3).to_json())),
    "sweep": ("--spec", {"template": {**TEMPLATE, "energy": _ENERGY, "max_ticks": 60,
                                      "stage_gap": 10, "task_duration": 2},
                         "laws": ["t_low_e"], "scales": ["R5+T1"],
                         "styles": ["static"], "trials": 1, "base_seed": 0}),
}


def _paths(node, path=()):
    """The path of every dict value and list item under ``node``."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield path + (key,)
            yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


#: The keys a mutation adds: every key of the base documents, and more.
_KEYS = sorted({p[-1] for _, doc in _DOCS.values() for p in _paths(doc)
                if isinstance(p[-1], str)} | {"positions", "seed", "unknown"})


@st.composite
def cli_documents(draw):
    """A command and its base document after one or two mutations: a value
    (leaf or container) set to one of ``_LITERALS``, a key or item deleted,
    or a key added to an object."""
    command = draw(st.sampled_from(sorted(_DOCS)))
    doc = copy.deepcopy(_DOCS[command][1])
    for _ in range(draw(st.integers(1, 2))):
        action = draw(st.sampled_from(["set", "delete", "add"]))
        if action == "add":
            objects = [()] + [p for p in _paths(doc) if isinstance(_at(doc, p), dict)]
            parent = _at(doc, draw(st.sampled_from(objects)))
            key = draw(st.sampled_from(_KEYS))
        else:
            path = draw(st.sampled_from(list(_paths(doc))))
            parent, key = _at(doc, path[:-1]), path[-1]
        if action == "delete":
            del parent[key]
        else:
            parent[key] = json.loads(draw(st.sampled_from(_LITERALS)))
    return command, doc


def _mutated(command, *changes):
    """``command`` and its base document with each (path, literal) set."""
    doc = copy.deepcopy(_DOCS[command][1])
    for path, literal in changes:
        _at(doc, path[:-1])[path[-1]] = json.loads(literal)
    return command, doc


def _call(command, path, out):
    """``main``'s exit code and stderr for ``command`` on the document at
    ``path``; the code is None when the guard stopped the call."""
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err), prompt(1.0):
            code = main([command, _DOCS[command][0], str(path), "--out", str(out)])
    except Hung:
        code = None
    return code, err.getvalue()


@given(cli_documents())
# an energy number past float range, in a scenario, a template (whose
# scenario run reads) and a sweep's template
@example(_mutated("run", (("energy", "move_cost"), str(10**400))))
@example(_mutated("generate", (("energy", "move_cost"), str(10**400))))
@example(_mutated("sweep", (("template", "energy", "idle_cost"), str(10**400))))
# a finite move cost whose every selection cost is infinite
@example(_mutated("run", (("energy", "move_cost"), "1e308")))
# a legal long request, which the guard stops
@example(_mutated("sweep", (("trials",), "1e308")))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_every_document_exits_0_1_or_2(case):
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "doc.json"), Path(tmp, "out")
        path.write_text(json.dumps(doc))
        code, err = _call(command, path, out)
        if code is None:
            # only a valid document may ask for a run that long
            assert command != "generate"
            with prompt(1.0):
                (Scenario if command == "run" else SweepSpec).from_json(path.read_text())
            return
        assert code in (0, 1, 2)
        if code == 2:
            assert one_error_line(err), err
        if command == "generate" and code == 0:
            # what generate writes, run reads
            assert _call("run", out, Path(tmp, "run"))[0] in (0, 1, None)
