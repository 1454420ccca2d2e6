"""Pinned output digests: a change in behaviour fails here, not only in
the benchmark.

A speedup must keep every byte of these outputs. If a change alters
behaviour on purpose, recompute the constants and say why in CHANGES.md.
"""

import hashlib
import itertools
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from swarmplan.engine import Engine, EventKind, run
from swarmplan.sweep import CSV_COLUMNS, SweepSpec, rows_to_csv, run_sweep
from swarmplan.world import euclidean
from helpers import ALL_LAWS, TEMPLATE, dense_scenario, low_battery, suite_scenario

#: One trial of every law on R20+T3 static, base seed 0: the rows CSV.
SWEEP_CSV_SHA256 = "9d45d310a13e4325ce44593390463c8d9e91bbb2b3199118daa95f1e17587789"
#: t_low_e R20+T3 1+1+1 seed 0: the trace, one JSON event per line.
TRACE_SHA256 = "19ae5ddd6ebc5d2c53509910d324c3696f071549391003346ebea4ad1f66dd89"
#: The low-battery runs of ``death_runs``: each run's metrics and trace.
DEATH_RUNS_SHA256 = "994c26623d3d211139c7977959c9fb0feec810d59fc8b2a525b9b354fd25fe56"
#: t_low_e R80+T12 on the ring of ``dense_scenario``, seed 1: metrics and
#: trace. Routing's stall counts and cluster relaxations run here far more
#: than in the R20 runs above.
DENSE_RUN_SHA256 = "20ff60dfc8f87be0e0e17954503031c745ccec86c93ae6a96247a813f030342f"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_text(metrics, events) -> str:
    """A run's metrics and then its trace, one JSON event per line."""
    return repr(metrics) + "\n" + "".join(e.to_json() + "\n" for e in events)


def sweep_csv() -> str:
    rows, _ = run_sweep(SweepSpec(template=dict(TEMPLATE), laws=list(ALL_LAWS),
                                  scales=["R20+T3"], styles=["static"], trials=1))
    return rows_to_csv(rows, CSV_COLUMNS)


def trace_jsonl() -> str:
    _, events = run(suite_scenario("t_low_e", "R20+T3", "1+1+1", 0))
    return "".join(event.to_json() + "\n" for event in events)


def test_sweep_csv_digest():
    assert sha256(sweep_csv()) == SWEEP_CSV_SHA256


def test_trace_digest():
    assert sha256(trace_jsonl()) == TRACE_SHA256


@pytest.fixture(scope="module")
def death_runs():
    """Every law on 6 low-battery seeds at 3 comm costs, every third run
    shuffled, stepped to the end: (scenario, closest approach of a live
    robot to a body over all ticks, metrics, trace) of each run."""
    runs = []
    for k, (comm_cost, seed, law) in enumerate(
            itertools.product((0.01, 0.03, 0.1), range(6), ALL_LAWS)):
        s = low_battery(law, seed, comm_cost, shuffle=k % 3 == 2)
        engine = Engine(s)
        closest = math.inf
        while engine.tick_no < s.max_ticks and not engine.finished():
            engine.tick()
            live = [r.pos for r in engine.robots.values() if r.alive]
            bodies = [r.pos for r in engine.robots.values() if not r.alive]
            closest = min([closest, *(euclidean(a, b) for a in live for b in bodies)])
        runs.append((s, closest, engine.metrics(), engine.events))
    return runs


def test_live_robots_keep_clear_of_bodies(death_runs):
    deaths = sum(e.kind is EventKind.ROBOT_DEAD for *_, events in death_runs
                 for e in events)
    assert deaths > 0
    crowded = [(s.law.value, s.seed, s.energy.comm_cost, closest)
               for s, closest, _, _ in death_runs if closest < 2.0 * s.safety_radius]
    assert crowded == []


def test_death_runs_digest(death_runs):
    text = "".join(run_text(metrics, events) for _, _, metrics, events in death_runs)
    assert sha256(text) == DEATH_RUNS_SHA256


def test_dense_run_digest():
    assert sha256(run_text(*run(dense_scenario(1)))) == DENSE_RUN_SHA256
