"""Batch trial execution, CSV emission, and aggregate summaries.

A sweep crosses priority laws, team scales, and task-arrival styles over a
number of seeded trials, runs each concrete scenario, and emits one CSV
row per (variation, trial). Seeds are shared across laws so every law sees
the same initial batteries and placements. Output is byte-deterministic:
row order follows the sorted variation key and floats are serialized with
``repr``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .engine import run
from .priority import PriorityLaw
from .scenario import (FIELD_ERRORS, InvalidTemplateError, _number, generate,
                       parse_template)
from .world import Position, polygon_vertices

#: The run metrics a sweep row carries and ``summarize`` aggregates.
_AGGREGATE_FIELDS = [
    "conflict_frequency", "energy_moving", "energy_idle", "energy_comm",
    "energy_comm_negotiation", "total_distance",
    "residual_max", "residual_min", "residual_mean",
]

CSV_COLUMNS = [
    "law", "scale", "style", "trial", "seed", *_AGGREGATE_FIELDS,
    "ticks", "tasks_completed", "tasks_timed_out", "error",
]

PER_TASK_COLUMNS = ["law", "scale", "style", "trial", "seed", "task", "comm"]

#: Team scale presets: name -> (robot count, task count).
SCALES = {
    "R5+T1": (5, 1),
    "R10+T2": (10, 2),
    "R15+T3": (15, 3),
    "R20+T3": (20, 3),
    "R20+T4": (20, 4),
}

#: Task arrival styles: how many tasks appear at each stage.
STYLES = {
    "static": None,      # all tasks at tick 0: one stage
    "1+1+1": (1, 1, 1),
    "2+1": (2, 1),
    "1+2": (1, 2),
}


@dataclass
class SweepSpec:
    template: dict
    laws: list[str]
    scales: list[str] = field(default_factory=lambda: ["R20+T3"])
    styles: list[str] = field(default_factory=lambda: ["static"])
    trials: int = 1
    base_seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.template, dict):
            raise InvalidTemplateError("template: must be a JSON object")
        if self.trials < 1:
            raise InvalidTemplateError("trials must be >= 1")
        for kind, names, known in (("law", self.laws, {law.value for law in PriorityLaw}),
                                   ("scale", self.scales, SCALES),
                                   ("style", self.styles, STYLES)):
            if not names:
                raise InvalidTemplateError(f"{kind}s: must name at least one")
            for name in names:
                if name not in known:
                    raise InvalidTemplateError(f"unknown {kind} {name!r}")
        # a template no cell could parse is bad input, not a failed run; each
        # scale's static cell, under the first law, goes through the cells' parser
        try:
            for s in self.scales:
                parse_template({**scale_template(self.template, s, "static"),
                                "law": self.laws[0]})
        except FIELD_ERRORS as exc:
            raise InvalidTemplateError(f"bad template field: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        try:
            doc = json.loads(text)
            count = partial(_number, kind=int)
            # an absent key keeps the dataclass default
            optional = {name: parse(doc[name]) for name, parse in
                        (("scales", list), ("styles", list), ("trials", count),
                         ("base_seed", count)) if name in doc}
            return cls(template=doc["template"], laws=list(doc["laws"]), **optional)
        except FIELD_ERRORS as exc:  # JSONDecodeError is a ValueError
            raise InvalidTemplateError(f"bad sweep spec: {exc}") from exc


def scale_template(template: dict, scale: str, style: str) -> dict:
    """Concretize a base template for one scale and arrival style.

    Task centers are the vertices of ``polygon_vertices`` around the world
    center, radius 0.3 of the world (first task due North, clockwise);
    required counts default to 4/5 of the team split evenly. Each stage of
    the style arrives ``stage_gap`` ticks after the one before; the static
    style is one stage.
    """
    n_robots, n_tasks = SCALES[scale]
    world = _number(template.get("world_size", 30.0))
    if not 0 < world < math.inf:
        raise InvalidTemplateError("world_size: must be positive and finite")
    gap = _number(template.get("stage_gap", 60), int)
    if gap < 0:
        raise ValueError("stage_gap: must be >= 0")
    duration = _number(template.get("task_duration", 5), int)
    timeout = _number(template.get("task_timeout", 400), int)
    required = _number(template.get("required_per_task",
                                    max(1, (4 * n_robots) // (5 * n_tasks))), int)

    stages = STYLES[style] or (n_tasks,)
    if sum(stages) != n_tasks:
        raise InvalidTemplateError(
            f"style {style} describes {sum(stages)} tasks, scale has {n_tasks}")
    arrivals = [stage * gap for stage, count in enumerate(stages) for _ in range(count)]
    centers = polygon_vertices(Position(world / 2.0, world / 2.0), n_tasks, 0.3 * world)
    tasks = [{"id": k + 1, "x": c.x, "y": c.y, "required": required,
              "duration": duration, "timeout": timeout, "arrival_tick": tick}
             for k, (c, tick) in enumerate(zip(centers, arrivals))]

    out = dict(template)
    out["world_size"] = world
    out["n_robots"] = n_robots
    out["tasks"] = tasks
    return out


def run_sweep(spec: SweepSpec) -> tuple[list[dict], list[dict]]:
    """Run every (law, scale, style, trial) cell; never abort mid-sweep.

    Returns (metric rows, per-task communication rows). A failing run
    yields a row with its error message and empty metric fields.
    """
    rows: list[dict] = []
    task_rows: list[dict] = []
    for law in spec.laws:
        for scale in spec.scales:
            for style in spec.styles:
                for trial in range(spec.trials):
                    seed = spec.base_seed + trial
                    key = {"law": law, "scale": scale, "style": style,
                           "trial": trial, "seed": seed}
                    try:
                        template = scale_template(spec.template, scale, style)
                        template["law"] = law
                        scenario = generate(template, seed)
                        metrics, _ = run(scenario)
                    except Exception as exc:  # recorded per row, sweep continues
                        row = {c: "" for c in CSV_COLUMNS}
                        row.update(key)
                        row["error"] = f"{type(exc).__name__}: {exc}"
                        rows.append(row)
                        continue
                    rows.append({
                        **key,
                        **{name: repr(getattr(metrics, name))
                           for name in _AGGREGATE_FIELDS},
                        "ticks": metrics.ticks_elapsed,
                        "tasks_completed": metrics.tasks_completed,
                        "tasks_timed_out": metrics.tasks_timed_out,
                        "error": "",
                    })
                    for task_id, comm in metrics.per_task_comm.items():
                        task_rows.append({**key, "task": task_id, "comm": repr(comm)})
    return rows, task_rows


def rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({c: row.get(c, "") for c in columns})
    return buf.getvalue()


#: Figure-family plot files and the row fields each one carries.
PLOT_FAMILIES = {
    "conflicts": ["conflict_frequency"],
    "energy_split": ["energy_moving", "energy_idle", "energy_comm",
                     "energy_comm_negotiation"],
    "distance": ["total_distance"],
    "residual_battery": ["residual_max", "residual_min", "residual_mean"],
}


def check_columns(rows: list[dict], columns: list[str]) -> None:
    """Raise ``ValueError`` unless every one of ``rows`` carries ``columns``.

    A field that ``csv.DictReader`` fills with None, because its line is
    shorter than the header, counts as missing."""
    missing = [c for c in columns if any(row.get(c) is None for row in rows)]
    if missing:
        raise ValueError(f"rows lack column(s) {', '.join(missing)}")


def summarize(rows: list[dict], task_rows: list[dict] | None = None) -> dict[str, str]:
    """Aggregate rows per (law, scale, style) and build plot-data files.

    The spread estimator is the sample standard deviation (ddof=1; zero
    for a single row). Raises ``ValueError`` on a column missing from a row
    or a task row, on a value that is not finite, or on a group whose mean
    or spread overflows a float. Returns a mapping of file name to CSV
    text: ``summary.csv`` plus one file per figure family.
    """
    if not rows:
        raise ValueError("no rows to summarize")
    check_columns(rows, ["law", "scale", "style", *_AGGREGATE_FIELDS])
    check_columns(task_rows or [], PER_TASK_COLUMNS)
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        if row.get("error"):
            continue
        groups.setdefault((row["law"], row["scale"], row["style"]), []).append(row)

    summary_rows = []
    for key in sorted(groups):
        law, scale, style = key
        agg: dict[str, object] = {"law": law, "scale": scale, "style": style,
                                  "n_trials": len(groups[key])}
        for name in _AGGREGATE_FIELDS:
            values = [float(r[name]) for r in groups[key]]
            if not all(map(math.isfinite, values)):
                raise ValueError(f"non-finite {name} in a {'/'.join(key)} row")
            try:  # finite values may still be too large to sum or square
                mean = statistics.fmean(values)
                sd = statistics.stdev(values) if len(values) > 1 else 0.0
            except OverflowError as exc:
                raise ValueError(f"{name} overflows in the {'/'.join(key)} rows") from exc
            agg[f"{name}_mean"], agg[f"{name}_sd"] = repr(mean), repr(sd)
        summary_rows.append(agg)

    columns = ["law", "scale", "style", "n_trials"]
    for name in _AGGREGATE_FIELDS:
        columns += [f"{name}_mean", f"{name}_sd"]
    files = {"summary.csv": rows_to_csv(summary_rows, columns)}

    for family, fields in PLOT_FAMILIES.items():
        fam_cols = ["law", "scale", "style"]
        for name in fields:
            fam_cols += [f"{name}_mean", f"{name}_sd"]
        files[f"{family}.csv"] = rows_to_csv(summary_rows, fam_cols)

    if task_rows:
        files["per_task_comm.csv"] = rows_to_csv(task_rows, PER_TASK_COLUMNS)
    return files


def write_files(files: dict[str, str], out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in sorted(files):
        (out / name).write_text(files[name])
