import csv
import hashlib
import io
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from swarmplan.scenario import InvalidTemplateError
from swarmplan.sweep import (_AGGREGATE_FIELDS, CSV_COLUMNS, PER_TASK_COLUMNS,
                             SCALES, STYLES, SweepSpec, rows_to_csv, run_sweep,
                             scale_template, summarize, write_files)
from swarmplan.world import Position, polygon_vertices
from helpers import ALL_LAWS, TEMPLATE

#: sha256 of ``test_summarize_digest``'s summary files; from CPython 3.11 on
#: ``statistics.stdev`` is the correctly rounded root of the exact variance,
#: a unique float, so every supported interpreter writes the same ``_sd`` cells
DIGEST = "a7cd0dca552377fb430d72e7135b6a3d14f112ca0ea4b87e3f8952ae1cd4a535"


def spec(**overrides):
    fields = dict(template=dict(TEMPLATE), laws=["t_low_e"], scales=["R5+T1"],
                  styles=["static"], trials=1, base_seed=0)
    fields.update(overrides)
    return SweepSpec(**fields)


class TestSweepSpec:
    def test_known_scales_and_styles(self):
        assert SCALES["R5+T1"] == (5, 1)
        assert SCALES["R20+T4"] == (20, 4)
        assert STYLES["static"] is None
        assert STYLES["1+1+1"] == (1, 1, 1)

    def test_rejects_unknown_scale(self):
        with pytest.raises(InvalidTemplateError):
            spec(scales=["R99+T9"])

    def test_rejects_unknown_law(self):
        with pytest.raises(InvalidTemplateError, match="bogus"):
            spec(laws=["t_low_e", "bogus"])

    @pytest.mark.parametrize("field, value", [("world_size", "abc"),
                                              ("required_per_task", "two"),
                                              ("comm_range", "far"),
                                              ("energy", {"weight": 1.0})])
    def test_rejects_bad_template_value(self, field, value):
        with pytest.raises(InvalidTemplateError, match="bad template field"):
            spec(template={**TEMPLATE, field: value})

    @pytest.mark.parametrize("field, value", [("battery_mean", "abc"),
                                              ("battery_sd", None)])
    def test_rejects_bad_battery(self, field, value):
        with pytest.raises(InvalidTemplateError, match="bad template field"):
            spec(template={**TEMPLATE, field: value})

    def test_template_law_is_left_to_the_cells(self):
        rows, _ = run_sweep(spec(template={**TEMPLATE, "law": "bogus"}))
        assert [(r["law"], r["error"]) for r in rows] == [("t_low_e", "")]

    @given(st.fixed_dictionaries({"task_duration": st.integers(-1, 6),
                                  "task_timeout": st.integers(-1, 8),
                                  "stage_gap": st.integers(-5, 5)},
                                 optional={"required_per_task": st.integers(-1, 25)}),
           st.sampled_from(sorted(SCALES)), st.sampled_from(sorted(STYLES)),
           st.sampled_from(ALL_LAWS))
    @settings(deadline=None, max_examples=60)
    def test_up_front_parse_agrees_with_the_cells(self, fields, scale, style, law):
        # a template the spec accepts fails in a cell only where the scale
        # decides: a team too small for a task, or a style of another size
        try:
            accepted = spec(template={**TEMPLATE, **fields, "max_ticks": 1},
                            laws=[law], scales=[scale], styles=[style])
        except InvalidTemplateError:
            return
        rows, _ = run_sweep(accepted)
        for row in rows:
            assert (not row["error"]
                    or "requires more robots than exist" in row["error"]
                    or re.search(r"describes \d+ tasks, scale has \d+", row["error"]))

    def test_rejects_bad_trials(self):
        with pytest.raises(InvalidTemplateError):
            spec(trials=0)

    def test_from_json(self):
        doc = ('{"template": {"world_size": 24.0}, "laws": ["low_e"], '
               '"scales": ["R10+T2"], "trials": 3, "base_seed": 7}')
        s = SweepSpec.from_json(doc)
        assert s.laws == ["low_e"]
        assert s.trials == 3
        assert s.base_seed == 7

    def test_from_json_rejects_garbage(self):
        with pytest.raises(InvalidTemplateError):
            SweepSpec.from_json("{}")


class TestScaleTemplate:
    def test_static_defaults(self):
        t = scale_template(dict(TEMPLATE), "R20+T3", "static")
        assert t["n_robots"] == 20
        assert len(t["tasks"]) == 3
        # 4/5 of the team split across tasks: max(1, 80 // 15)
        assert all(task["required"] == 5 for task in t["tasks"])
        assert all(task["arrival_tick"] == 0 for task in t["tasks"])

    def test_first_task_due_north(self):
        t = scale_template(dict(TEMPLATE), "R15+T3", "static")
        first = t["tasks"][0]
        assert first["x"] == pytest.approx(12.0)
        assert first["y"] == pytest.approx(12.0 + 0.3 * 24.0)

    def test_dynamic_arrival_stagger(self):
        t = scale_template(dict(TEMPLATE), "R15+T3", "1+1+1")
        assert [task["arrival_tick"] for task in t["tasks"]] == [0, 60, 120]
        t = scale_template(dict(TEMPLATE), "R15+T3", "2+1")
        assert [task["arrival_tick"] for task in t["tasks"]] == [0, 0, 60]

    def test_centers_are_the_polygon_and_stages_arrive_in_order(self):
        # 200 world sizes drawn log-uniformly from 1e-3 to 1e300, each with
        # a stage gap of at least 1 so that every stage has its own tick
        rng = random.Random(0)
        for _ in range(200):
            world = 10.0 ** rng.uniform(-3, 300)
            gap = rng.randrange(1, 200)
            for scale, (_, n_tasks) in SCALES.items():
                ring = polygon_vertices(Position(world / 2.0, world / 2.0),
                                        n_tasks, 0.3 * world)
                for style, stages in STYLES.items():
                    stages = stages or (n_tasks,)  # static: one stage at tick 0
                    base = {**TEMPLATE, "world_size": world, "stage_gap": gap}
                    if sum(stages) != n_tasks:
                        with pytest.raises(InvalidTemplateError, match="describes"):
                            scale_template(base, scale, style)
                        continue
                    tasks = scale_template(base, scale, style)["tasks"]
                    assert [Position(t["x"], t["y"]) for t in tasks] == ring
                    ticks = [t["arrival_tick"] for t in tasks]
                    assert ticks == sorted(ticks)
                    assert [ticks.count(stage * gap)
                            for stage in range(len(stages))] == list(stages)

    @pytest.mark.parametrize("style", sorted(STYLES))
    def test_rejects_negative_stage_gap(self, style):
        with pytest.raises(ValueError, match="stage_gap: must be >= 0"):
            scale_template({**TEMPLATE, "stage_gap": -1}, "R15+T3", style)

    def test_style_task_count_mismatch(self):
        with pytest.raises(InvalidTemplateError):
            scale_template(dict(TEMPLATE), "R5+T1", "1+1+1")


class TestRunSweep:
    def test_row_count(self):
        rows, _ = run_sweep(spec(trials=3))
        assert len(rows) == 3
        assert [r["seed"] for r in rows] == [0, 1, 2]
        assert all(r["error"] == "" for r in rows)

    def test_error_row_keeps_sweep_alive(self):
        bad = spec(template={**TEMPLATE, "required_per_task": 50},
                   scales=["R5+T1", "R5+T1"])
        rows, _ = run_sweep(bad)
        assert len(rows) == 2
        assert all("InsufficientRobots" in r["error"] or "InvalidScenario"
                   in r["error"] for r in rows)

    def test_per_task_rows(self):
        rows, task_rows = run_sweep(spec(scales=["R10+T2"]))
        tasks_seen = {r["task"] for r in task_rows}
        assert tasks_seen == {1, 2}

    def test_determinism(self):
        a, ta = run_sweep(spec(trials=2))
        b, tb = run_sweep(spec(trials=2))
        assert rows_to_csv(a, CSV_COLUMNS) == rows_to_csv(b, CSV_COLUMNS)
        assert rows_to_csv(ta, PER_TASK_COLUMNS) == rows_to_csv(tb, PER_TASK_COLUMNS)


class TestCsvAndSummaries:
    def test_column_schema(self):
        rows, _ = run_sweep(spec())
        text = rows_to_csv(rows, CSV_COLUMNS)
        header = text.splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 1

    def test_summarize_single_row(self):
        rows, _ = run_sweep(spec())
        files = summarize(rows)
        summary = list(csv.DictReader(io.StringIO(files["summary.csv"])))
        assert len(summary) == 1
        assert summary[0]["n_trials"] == "1"
        assert float(summary[0]["conflict_frequency_sd"]) == 0.0
        assert float(summary[0]["conflict_frequency_mean"]) == float(
            rows[0]["conflict_frequency"])

    def test_summarize_two_values_sample_sd(self):
        base = {c: "" for c in CSV_COLUMNS}
        rows = []
        for trial, value in enumerate((1.0, 3.0)):
            row = dict(base, law="low_e", scale="R5+T1", style="static",
                       trial=trial, seed=trial, error="")
            for name in ("conflict_frequency", "energy_moving", "energy_idle",
                         "energy_comm", "energy_comm_negotiation",
                         "total_distance", "residual_max", "residual_min",
                         "residual_mean"):
                row[name] = repr(value)
            rows.append(row)
        files = summarize(rows)
        summary = list(csv.DictReader(io.StringIO(files["summary.csv"])))[0]
        assert float(summary["conflict_frequency_mean"]) == pytest.approx(2.0)
        assert float(summary["conflict_frequency_sd"]) == pytest.approx(
            1.4142135623730951)

    def test_plot_family_files(self):
        rows, task_rows = run_sweep(spec())
        files = summarize(rows, task_rows)
        assert set(files) == {"summary.csv", "conflicts.csv",
                              "energy_split.csv", "distance.csv",
                              "residual_battery.csv", "per_task_comm.csv"}

    def test_summarize_digest(self):
        """Every summary byte, ``_sd`` digits included, is pinned: ``fmean``
        divides the correctly rounded ``fsum`` by n, and ``stdev`` rounds the
        root of the exact variance once, so CPython 3.11+ agree bit for bit."""
        rng = random.Random(2020)
        rows = []
        for law in ("low_e", "t_low_e"):
            for scale in ("R5+T1", "R10+T2"):
                for trial in range(3):
                    row = {"law": law, "scale": scale, "style": "static",
                           "trial": trial, "seed": trial, "error": ""}
                    for name in _AGGREGATE_FIELDS:
                        row[name] = repr(round(rng.uniform(0.0, 100.0), 2))
                    rows.append(row)
        files = summarize(rows)
        text = "".join(f"{name}\n{files[name]}" for name in sorted(files))
        assert hashlib.sha256(text.encode()).hexdigest() == DIGEST

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_write_files(self, tmp_path):
        write_files({"a.csv": "x\n", "b.csv": "y\n"}, tmp_path / "out")
        assert (tmp_path / "out" / "a.csv").read_text() == "x\n"
        assert (tmp_path / "out" / "b.csv").read_text() == "y\n"
