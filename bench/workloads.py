"""The benchmark's workloads, one pass of each, and the digests of its outputs.

A pass runs one workload once through the public API (``sweep.run_sweep``,
``scenario.generate`` and ``engine.run``) and captures every scenario run's
metrics and trace events from what ``run`` returns. The digests of those
outputs must not change when the program gets faster; see README.md for why
each workload was chosen.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from typing import Callable

import swarmplan.sweep
from swarmplan.engine import run as engine_run
from swarmplan.scenario import generate as scenario_generate
from swarmplan.sweep import (CSV_COLUMNS, PER_TASK_COLUMNS, SweepSpec,
                             rows_to_csv, run_sweep, scale_template)

WORKLOADS = ["law_sweep", "dynamic_arrivals", "dense_team"]
LAWS = ["high_e", "low_e", "t_high_e", "t_low_e", "cata_u"]

#: The test suite's template: 24 m world, 1 m safety radius, 4 m formation
#: radius, 400-tick task deadline.
TEMPLATE = {
    "world_size": 24.0,
    "safety_radius": 1.0,
    "formation_radius": 4.0,
    "task_timeout": 400,
}

LAW_SWEEP_TRIALS = 8
DYNAMIC_TRIALS = 4
DYNAMIC_STYLES = ["1+1+1", "2+1", "1+2"]
DENSE_ROBOTS, DENSE_TASKS = 80, 12
#: dense_team runs seeds n .. n+DENSE_RUNS-1, one engine.run each, so that one
#: seed's geometry does not set the whole pass (ticks range 90-137 by seed).
DENSE_RUNS = 2


def sweep_specs(workload: str, seed: int) -> list[SweepSpec]:
    """The sweeps one pass of ``workload`` runs; empty for ``dense_team``."""
    if workload == "law_sweep":
        return [SweepSpec(template=dict(TEMPLATE), laws=list(LAWS),
                          scales=["R20+T3"], styles=["static"],
                          trials=LAW_SWEEP_TRIALS, base_seed=seed)]
    if workload == "dynamic_arrivals":
        return [SweepSpec(template={**TEMPLATE, "conflict_negotiation": negotiate},
                          laws=["t_low_e"], scales=["R20+T3"],
                          styles=list(DYNAMIC_STYLES), trials=DYNAMIC_TRIALS,
                          base_seed=seed)
                for negotiate in (True, False)]
    if workload == "dense_team":
        return []
    raise ValueError(f"unknown workload {workload!r}")


def dense_template() -> dict:
    """R80+T12, all static, t_low_e, in a world grown by sqrt(80/20) to 48 m.

    Tasks sit on a ring as ``sweep.scale_template`` lays them out: centred,
    radius 0.3 of the world, first task due North, clockwise, each needing
    4/5 of the team split evenly.
    """
    world = TEMPLATE["world_size"] * math.sqrt(DENSE_ROBOTS / 20)
    required = max(1, (4 * DENSE_ROBOTS) // (5 * DENSE_TASKS))
    centre, ring = world / 2.0, 0.3 * world
    tasks = []
    for k in range(DENSE_TASKS):
        theta = math.pi / 2.0 - 2.0 * math.pi * k / DENSE_TASKS
        tasks.append({"id": k + 1,
                      "x": centre + ring * math.cos(theta),
                      "y": centre + ring * math.sin(theta),
                      "required": required, "duration": 5,
                      "timeout": TEMPLATE["task_timeout"], "arrival_tick": 0})
    return {**TEMPLATE, "world_size": world, "n_robots": DENSE_ROBOTS,
            "tasks": tasks, "law": "t_low_e"}


def build_scenarios(workload: str, seed: int) -> list:
    """Every scenario one pass runs, built as ``run_sweep`` builds them."""
    specs = sweep_specs(workload, seed)
    if not specs:
        return [scenario_generate(dense_template(), seed + k) for k in range(DENSE_RUNS)]
    scenarios = []
    for spec in specs:
        for law in spec.laws:
            for scale in spec.scales:
                for style in spec.styles:
                    for trial in range(spec.trials):
                        template = scale_template(spec.template, scale, style)
                        template["law"] = law
                        scenarios.append(scenario_generate(template,
                                                            spec.base_seed + trial))
    return scenarios


@dataclass
class RunRecord:
    scenario: object
    metrics: object
    events: list
    seconds: float


@dataclass
class Pass:
    """One workload pass: wall time, per-run records and sweep CSV text."""

    seconds: float
    records: list[RunRecord]
    csv: list[str]
    attempted: int
    errors: list[str]
    calibration_s: float = 0.0

    @property
    def failed(self) -> int:
        return len(self.errors)

    @property
    def ticks(self) -> int:
        return sum(r.metrics.ticks_elapsed for r in self.records)


@dataclass(frozen=True)
class Api:
    """The entry points a pass calls; the tracer substitutes wrapped ones."""

    run_sweep: Callable = run_sweep
    generate: Callable = scenario_generate
    run: Callable = engine_run


def run_pass(workload: str, seed: int, api: Api = Api()) -> Pass:
    """Run ``workload`` once, recording each scenario run's outputs and time.

    ``swarmplan.sweep.run`` is rebound for the pass so that the events a
    sweep would discard are kept; the sweep still decides what runs.
    """
    records: list[RunRecord] = []

    def recorded(scenario):
        start = time.perf_counter()
        metrics, events = api.run(scenario)
        records.append(RunRecord(scenario, metrics, events,
                                 time.perf_counter() - start))
        return metrics, events

    specs = sweep_specs(workload, seed)
    csv: list[str] = []
    errors: list[str] = []
    saved = swarmplan.sweep.run, swarmplan.sweep.generate
    swarmplan.sweep.run, swarmplan.sweep.generate = recorded, api.generate
    start = time.perf_counter()
    try:
        if specs:
            for spec in specs:
                rows, task_rows = api.run_sweep(spec)
                csv.append(rows_to_csv(rows, CSV_COLUMNS))
                csv.append(rows_to_csv(task_rows, PER_TASK_COLUMNS))
                errors.extend(r["error"] for r in rows if r["error"])
            attempted = sum(len(s.laws) * len(s.scales) * len(s.styles) * s.trials
                            for s in specs)
        else:
            attempted = DENSE_RUNS
            for k in range(DENSE_RUNS):
                try:
                    recorded(api.generate(dense_template(), seed + k))
                except Exception as exc:  # counted as a failed run, pass continues
                    errors.append(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
    finally:
        swarmplan.sweep.run, swarmplan.sweep.generate = saved
    return Pass(seconds=seconds, records=records, csv=csv, attempted=attempted,
                errors=errors)


def metrics_json(metrics) -> str:
    """``metrics.json`` exactly as ``swarmplan run`` writes it."""
    doc = dict(vars(metrics))
    doc["per_task_comm"] = {str(k): v for k, v in metrics.per_task_comm.items()}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def trace_jsonl(events) -> str:
    """``trace.jsonl`` exactly as ``swarmplan run --trace`` writes it."""
    return "".join(event.to_json() + "\n" for event in events)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; shows machine drift between samples."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - start


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(p: Pass) -> dict[str, str]:
    """SHA-256 of the sweep CSVs and of every run's metrics and trace.

    ``runs`` hashes one ``<metrics sha> <trace sha>`` line per run in run
    order, so a change to any single run's output changes it.
    """
    runs = "".join(f"{_sha(metrics_json(r.metrics))} {_sha(trace_jsonl(r.events))}\n"
                   for r in p.records)
    return {"csv": _sha("".join(p.csv)), "runs": _sha(runs)}


def conservation_errors(p: Pass) -> list[str]:
    """Runs whose battery drop differs from the energy the metrics report."""
    bad = []
    for k, r in enumerate(p.records):
        m = r.metrics
        drop = (sum(s.battery for s in r.scenario.robots)
                - m.residual_mean * len(r.scenario.robots))
        spent = m.energy_moving + m.energy_idle + m.energy_comm
        if abs(drop - spent) > 1e-6 * max(1.0, abs(spent)):
            bad.append(f"run {k}: battery drop {drop!r} != energy spent {spent!r}")
    return bad


def check_digests(workload: str, seed: int, got: dict[str, str],
                  pinned: dict) -> list[str]:
    """Mismatches against the pinned digests, each naming the workload.

    A seed with no pinned entry yields no mismatch; the caller still
    requires every pass of the run to agree with the first.
    """
    want = pinned.get(workload, {}).get(str(seed))
    if want is None:
        return []
    return [f"{workload} seed {seed}: {part} digest {got.get(part)} != pinned {digest}"
            for part, digest in sorted(want.items()) if got.get(part) != digest]
