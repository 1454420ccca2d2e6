import json

import pytest

from swarmplan.cli import main
from swarmplan.scenario import Scenario
from swarmplan.sweep import CSV_COLUMNS, PER_TASK_COLUMNS
from helpers import TEMPLATE, prompt, suite_scenario


@pytest.fixture
def template_file(tmp_path):
    template = dict(TEMPLATE)
    template.update({
        "n_robots": 4,
        "tasks": [{"id": 1, "x": 12.0, "y": 16.0, "required": 2,
                   "duration": 2, "timeout": 200}],
    })
    path = tmp_path / "template.json"
    path.write_text(json.dumps(template))
    return path


@pytest.fixture
def scenario_file(tmp_path, template_file):
    out = tmp_path / "scenario.json"
    assert main(["generate", "--template", str(template_file),
                 "--seed", "3", "--out", str(out)]) == 0
    return out


class TestGenerate:
    def test_writes_valid_scenario(self, scenario_file):
        scenario = Scenario.load(scenario_file)
        assert len(scenario.robots) == 4
        assert scenario.seed == 3

    def test_deterministic(self, tmp_path, template_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["generate", "--template", str(template_file),
                  "--seed", "3", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_law_flag(self, tmp_path, template_file):
        out = tmp_path / "c.json"
        main(["generate", "--template", str(template_file),
              "--law", "cata_u", "--out", str(out)])
        assert Scenario.load(out).law.value == "cata_u"

    def test_without_out_writes_stdout(self, template_file, scenario_file, capsys):
        assert main(["generate", "--template", str(template_file), "--seed", "3"]) == 0
        assert capsys.readouterr().out == scenario_file.read_text()

    def test_unplaceable_team_exits_2(self, tmp_path, capsys):
        # two robots 2 m apart cannot both stand in a 1 m world
        template = tmp_path / "crowded.json"
        template.write_text(json.dumps({"world_size": 1.0, "n_robots": 2,
                                        "safety_radius": 1.0, "formation_radius": 0.4,
                                        "tasks": []}))
        assert main(["generate", "--template", str(template)]) == 2
        assert capsys.readouterr().err == (
            "error: could not place robots with required separation\n")

    def test_huge_team_exits_2_promptly(self, tmp_path, template_file, capsys):
        template = json.loads(template_file.read_text())
        template["n_robots"] = 1e19
        template_file.write_text(json.dumps(template))
        with prompt(0.1):
            assert main(["generate", "--template", str(template_file),
                         "--out", str(tmp_path / "huge.json")]) == 2
        assert capsys.readouterr().err == (
            "error: could not place robots with required separation\n")

    def test_missing_template_exits_2(self, tmp_path):
        assert main(["generate", "--template", str(tmp_path / "nope.json")]) == 2

    def test_bad_law_exits_2(self, template_file, capsys):
        assert main(["generate", "--template", str(template_file),
                     "--law", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_non_object_template_exits_2(self, tmp_path, capsys):
        template = tmp_path / "list.json"
        template.write_text("[1, 2]")
        assert main(["generate", "--template", str(template),
                     "--law", "t_low_e"]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("order", [5, [1, "a"]])
    def test_bad_task_priority_order_exits_2(self, template_file, order, capsys):
        template = json.loads(template_file.read_text())
        template["task_priority_order"] = order
        template_file.write_text(json.dumps(template))
        assert main(["generate", "--template", str(template_file)]) == 2
        assert "task_priority_order" in capsys.readouterr().err

    @pytest.mark.parametrize("positions", [[[1], [2, 3]], [[1, "a"], [2, 3]],
                                           [[1, 2], [2, 3], [3, 4], [4]]])
    def test_bad_positions_exit_2(self, template_file, positions, capsys):
        template = json.loads(template_file.read_text())
        template["positions"] = positions
        template_file.write_text(json.dumps(template))
        assert main(["generate", "--template", str(template_file)]) == 2
        assert capsys.readouterr().err.startswith("error: bad template field: ")


class TestRun:
    def test_metrics_and_trace(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "run"
        assert main(["run", "--scenario", str(scenario_file),
                     "--out", str(out), "--trace"]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["tasks_completed"] == 1
        trace = (out / "trace.jsonl").read_text().splitlines()
        assert all(json.loads(line)["kind"] for line in trace)
        assert "completed=1" in capsys.readouterr().out

    def test_no_tasks_finishes_at_once(self, tmp_path, template_file, capsys):
        template = json.loads(template_file.read_text())
        template["tasks"] = []
        template_file.write_text(json.dumps(template))
        scenario = tmp_path / "idle.json"
        assert main(["generate", "--template", str(template_file),
                     "--seed", "0", "--out", str(scenario)]) == 0
        out = tmp_path / "run"
        assert main(["run", "--scenario", str(scenario), "--out", str(out),
                     "--trace"]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["ticks_elapsed"] == 0
        assert metrics["residual_min"] > 0.0
        assert (out / "trace.jsonl").read_text() == ""
        assert "ticks=0" in capsys.readouterr().out

    def test_huge_required_exits_2_promptly(self, tmp_path, scenario_file, capsys):
        doc = json.loads(scenario_file.read_text())
        doc["tasks"][0]["required"] = 1e308
        scenario_file.write_text(json.dumps(doc))
        with prompt(0.1):
            assert main(["run", "--scenario", str(scenario_file),
                         "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (
            "error: task 1: requires more robots than exist\n")

    def test_directory_scenario_exits_2(self, tmp_path, capsys):
        assert main(["run", "--scenario", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_invalid_scenario_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["run", "--scenario", str(bad)]) == 2

    def test_empty_team_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"world_size": 10, "robots": [], "tasks": []}))
        assert main(["run", "--scenario", str(empty), "--out", str(tmp_path)]) == 2
        assert "at least one robot" in capsys.readouterr().err
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize("order", [5, [1, "a"]])
    def test_bad_task_priority_order_exits_2(self, tmp_path, scenario_file, order,
                                             capsys):
        doc = json.loads(scenario_file.read_text())
        doc["task_priority_order"] = order
        scenario_file.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(scenario_file),
                     "--out", str(tmp_path / "run")]) == 2
        assert "task_priority_order" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_zero_world_exits_2(self, tmp_path, capsys):
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({
            "world_size": 0,
            "robots": [{"id": 1, "x": 0, "y": 0, "battery": 90}], "tasks": []}))
        assert main(["run", "--scenario", str(flat)]) == 2
        assert "world_size" in capsys.readouterr().err

    def test_generate_zero_world_exits_2(self, tmp_path, capsys):
        template = tmp_path / "flat.json"
        template.write_text(json.dumps({"world_size": 0, "n_robots": 1, "tasks": []}))
        assert main(["generate", "--template", str(template)]) == 2
        assert "world_size" in capsys.readouterr().err

    def test_generate_zero_world_team_exits_2(self, tmp_path, capsys):
        # several robots: rejected before sampling, not after failed placement
        template = tmp_path / "flat.json"
        template.write_text(json.dumps({"world_size": 0, "n_robots": 3, "tasks": []}))
        assert main(["generate", "--template", str(template)]) == 2
        assert "error: world_size: must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, message", [
        (Scenario.from_json(json.dumps({
            "world_size": 24.0, "comm_range": 1.0,
            "robots": [{"id": 1, "x": 1.0, "y": 1.0, "battery": 90.0},
                       {"id": 2, "x": 20.0, "y": 20.0, "battery": 90.0}],
            "tasks": [{"id": 1, "x": 12.0, "y": 12.0, "required": 1,
                       "duration": 1, "timeout": 50}]})),
         "comm graph disconnected over [1, 2] at range 1.0"),
        (suite_scenario("t_low_e", "R20+T3", "1+1+1", 2, comm_range=12.0),
         "not connected, gossip stalled"),
    ], ids=["split", "stalled"])
    def test_failed_run_exits_1(self, tmp_path, capsys, scenario, message):
        """A finite range that splits the team or stalls its gossip fails
        the run, as it fails a sweep row: a message, no files, exit 1."""
        path = tmp_path / "scenario.json"
        path.write_text(scenario.to_json())
        out = tmp_path / "run"
        assert main(["run", "--scenario", str(path), "--out", str(out), "--trace"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err and not out.exists()


class TestSweepAndSummarize:
    def test_end_to_end(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "template": dict(TEMPLATE),
            "laws": ["t_low_e"],
            "scales": ["R5+T1"],
            "styles": ["static"],
            "trials": 2,
        }))
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", str(spec_path),
                     "--out", str(out)]) == 0
        rows_path = out / "rows.csv"
        assert rows_path.exists()
        assert (out / "per_task_rows.csv").exists()

        summary_dir = tmp_path / "summary"
        assert main(["summarize", "--rows", str(rows_path),
                     "--per-task", str(out / "per_task_rows.csv"),
                     "--out", str(summary_dir)]) == 0
        assert (summary_dir / "summary.csv").exists()
        assert (summary_dir / "conflicts.csv").exists()

    def test_unknown_law_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"template": dict(TEMPLATE),
                                         "laws": ["bogus"], "scales": ["R5+T1"]}))
        out = tmp_path / "o"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert "bogus" in capsys.readouterr().err
        assert not out.exists()

    def test_non_object_template_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"template": [], "laws": ["t_low_e"]}))
        out = tmp_path / "o"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert "must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("world_size", "abc"),
                                              ("task_priority_order", 5),
                                              ("stage_gap", "soon"),
                                              ("energy", {"comm": 1.0})])
    def test_bad_template_value_exits_2(self, tmp_path, capsys, field, value):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "template": {**TEMPLATE, field: value},
            "laws": ["t_low_e"], "scales": ["R5+T1"]}))
        out = tmp_path / "o"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: bad template field: ")
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("battery_mean", "abc"),
                                              ("battery_sd", [1])])
    def test_bad_battery_exits_2(self, tmp_path, capsys, field, value):
        # the spec's up-front parse reads these two fields, before any cell runs
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "template": {**TEMPLATE, field: value},
            "laws": ["t_low_e", "low_e"], "scales": ["R5+T1"]}))
        out = tmp_path / "o"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: bad template field: ")
        assert not out.exists()

    def test_unknown_law_flag_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"template": dict(TEMPLATE),
                                         "laws": ["t_low_e"], "scales": ["R5+T1"]}))
        assert main(["sweep", "--spec", str(spec_path), "--law", "bogus",
                     "--out", str(tmp_path / "o")]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_summarize_header_only_exits_2(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text(",".join(CSV_COLUMNS) + "\n")
        assert main(["summarize", "--rows", str(rows),
                     "--out", str(tmp_path / "summary")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "summary").exists()

    @pytest.mark.parametrize("oversized", ["rows.csv", "per_task_rows.csv"])
    def test_summarize_oversized_field_exits_2(self, tmp_path, capsys, oversized):
        # the csv module refuses a field over 131,072 characters
        row = {c: "1.0" for c in CSV_COLUMNS}
        row.update(law="low_e", scale="R5+T1", style="static", error="")
        rows, per_task = tmp_path / "rows.csv", tmp_path / "per_task_rows.csv"
        rows.write_text(",".join(CSV_COLUMNS) + "\n"
                        + ",".join(row[c] for c in CSV_COLUMNS) + "\n")
        per_task.write_text("law\n")
        (tmp_path / oversized).write_text("law\n" + "x" * 131_073 + "\n")
        assert main(["summarize", "--rows", str(rows), "--per-task", str(per_task),
                     "--out", str(tmp_path / "summary")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / oversized}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "summary").exists()

    @pytest.mark.parametrize("short", ["rows.csv", "per_task_rows.csv"])
    def test_summarize_short_row_exits_2(self, tmp_path, capsys, short):
        # csv.DictReader fills the fields past a short line's end with None
        row = {c: "1.0" for c in CSV_COLUMNS}
        row.update(law="low_e", scale="R5+T1", style="static", error="")
        rows, per_task = tmp_path / "rows.csv", tmp_path / "per_task_rows.csv"
        rows.write_text(",".join(CSV_COLUMNS) + "\n"
                        + ",".join(row[c] for c in CSV_COLUMNS) + "\n")
        per_task.write_text(",".join(PER_TASK_COLUMNS) + "\n"
                            + "low_e,R5+T1,static,0,0,1,0.5\n")
        header = (tmp_path / short).read_text().splitlines()[0]
        (tmp_path / short).write_text(header + "\nlow_e,R5+T1,static,0,0\n")
        assert main(["summarize", "--rows", str(rows), "--per-task", str(per_task),
                     "--out", str(tmp_path / "summary")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / short}: ") and "lack" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "summary").exists()

    def test_summarize_foreign_columns_exits_2(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text("a,b\n1,2\n")
        assert main(["summarize", "--rows", str(rows),
                     "--out", str(tmp_path / "summary")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "law, scale, style" in err
        assert not (tmp_path / "summary").exists()

    def test_summarize_foreign_per_task_columns_exits_2(self, tmp_path, capsys):
        row = {c: "1.0" for c in CSV_COLUMNS}
        row.update(law="low_e", scale="R5+T1", style="static", error="")
        rows, per_task = tmp_path / "rows.csv", tmp_path / "per_task_rows.csv"
        rows.write_text(",".join(CSV_COLUMNS) + "\n"
                        + ",".join(row[c] for c in CSV_COLUMNS) + "\n")
        per_task.write_text("a,b\n1,2\n")
        assert main(["summarize", "--rows", str(rows), "--per-task", str(per_task),
                     "--out", str(tmp_path / "summary")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {per_task}: ") and "law, scale, style" in err
        assert not (tmp_path / "summary").exists()

    def test_summarize_missing_per_task_exits_2(self, tmp_path, capsys):
        row = {c: "1.0" for c in CSV_COLUMNS}
        row.update(law="low_e", scale="R5+T1", style="static", error="")
        rows, per_task = tmp_path / "rows.csv", tmp_path / "per_task_typo.csv"
        rows.write_text(",".join(CSV_COLUMNS) + "\n"
                        + ",".join(row[c] for c in CSV_COLUMNS) + "\n")
        assert main(["summarize", "--rows", str(rows), "--per-task", str(per_task),
                     "--out", str(tmp_path / "summary")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(per_task) in err
        assert not (tmp_path / "summary").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_summarize_non_finite_exits_2(self, tmp_path, capsys, value):
        rows = tmp_path / "rows.csv"
        row = {c: "1.0" for c in CSV_COLUMNS}
        row.update(law="low_e", scale="R5+T1", style="static", error="",
                   energy_moving=value)
        rows.write_text(",".join(CSV_COLUMNS) + "\n"
                        + ",".join(row[c] for c in CSV_COLUMNS) + "\n")
        assert main(["summarize", "--rows", str(rows),
                     "--out", str(tmp_path / "summary")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite energy_moving" in err
        assert not (tmp_path / "summary").exists()

    @pytest.mark.parametrize("values", [("-1.7e308", "1.7e308"), ("1.7e308", "1.7e308")])
    def test_summarize_overflow_exits_2(self, tmp_path, capsys, values):
        # finite values whose spread (first) or sum (second) overflows a float
        rows = tmp_path / "rows.csv"
        lines = [",".join(CSV_COLUMNS)]
        for value in values:
            row = {c: "1.0" for c in CSV_COLUMNS}
            row.update(law="low_e", scale="R5+T1", style="static", error="",
                       energy_moving=value)
            lines.append(",".join(row[c] for c in CSV_COLUMNS))
        rows.write_text("\n".join(lines) + "\n")
        assert main(["summarize", "--rows", str(rows),
                     "--out", str(tmp_path / "summary")]) == 2
        assert capsys.readouterr().err == (
            f"error: {rows}: energy_moving overflows in the low_e/R5+T1/static rows\n")
        assert not (tmp_path / "summary").exists()

    @pytest.mark.parametrize("literal", ["1e309", "NaN", "0", "-5"])
    def test_sweep_world_size_not_positive_and_finite_exits_2(self, tmp_path, capsys,
                                                               literal):
        # Python's json module reads 1e309 as infinity; the sweep checks the
        # world size before it lays out the task ring
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "template": {**TEMPLATE, "world_size": "@value@"},
            "laws": ["t_low_e"],
            "scales": ["R5+T1"],
        }).replace('"@value@"', literal))
        out = tmp_path / "o"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: world_size: must be positive and finite\n"
        assert not out.exists()

    def test_failing_rows_exit_1(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "template": {**TEMPLATE, "required_per_task": 50},
            "laws": ["t_low_e"],
            "scales": ["R5+T1"],
        }))
        assert main(["sweep", "--spec", str(spec_path),
                     "--out", str(tmp_path / "o")]) == 1

    def test_sweep_without_task_rows_writes_their_header(self, tmp_path):
        # every cell fails, so no cell produces per-task rows
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "template": {**TEMPLATE, "required_per_task": 50},
            "laws": ["t_low_e"],
            "scales": ["R5+T1"],
        }))
        out = tmp_path / "o"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 1
        per_task = out / "per_task_rows.csv"
        assert per_task.read_text() == ",".join(PER_TASK_COLUMNS) + "\n"
        assert main(["summarize", "--rows", str(out / "rows.csv"),
                     "--per-task", str(per_task),
                     "--out", str(tmp_path / "summary")]) == 0


#: Inputs that used to crash or run nonsense, and must exit 2: the command,
#: the path of the field in its document, and the value as a raw JSON literal
#: (Python's json module reads NaN and Infinity, and 1e309 as infinity; it
#: reads true as a bool, which Python counts as the int 1).
BAD_INPUTS = [
    ("run", ("seed",), "1e309"),
    ("run", ("max_ticks",), "1e309"),
    ("run", ("step_length",), "NaN"),
    ("run", ("formation_radius",), "NaN"),
    ("run", ("formation_radius",), "Infinity"),
    ("run", ("energy", "move_cost"), "NaN"),
    ("run", ("safety_radius",), "NaN"),
    ("run", ("energy", "comm_cost"), "Infinity"),
    ("run", ("cata", "w_d"), "NaN"),
    ("run", ("conflict_negotiation",), '"false"'),
    ("generate", ("max_ticks",), "1e309"),
    ("generate", ("battery_mean",), "NaN"),
    ("sweep", ("trials",), "1e309"),
    ("sweep", ("base_seed",), "1e309"),
    ("sweep", ("template", "stage_gap"), "1e309"),
    ("sweep", ("template", "task_duration"), "1e309"),
    ("run", ("step_length",), "true"),
    ("run", ("max_ticks",), "true"),
    ("run", ("comm_range",), "true"),
    ("run", ("robots", 0, "battery"), "true"),
    ("run", ("tasks", 0, "required"), "true"),
    ("run", ("energy", "move_cost"), "true"),
    ("run", ("cata", "w_d"), "true"),
    ("generate", ("battery_sd",), "true"),
    ("sweep", ("trials",), "true"),
    ("sweep", ("template", "stage_gap"), "true"),
    # the task's north vertex, 4 m above its center, leaves the 24 m world
    ("run", ("tasks", 0, "y"), "20.5"),
    ("generate", ("safety_radius",), "NaN"),
    ("generate", ("safety_radius",), "Infinity"),
    # robots must start 40 m apart, more than the 24 m world's diagonal
    ("run", ("safety_radius",), "20.0"),
    # an integer field refuses a fraction, and no field takes a string
    ("run", ("robots", 0, "id"), "7.5"),
    ("run", ("robots", 0, "id"), '"9"'),
    ("run", ("tasks", 0, "required"), "1.9"),
    ("run", ("tasks", 0, "duration"), "2.5"),
    ("run", ("max_ticks",), "50.5"),
    ("run", ("tasks", 0, "x"), '"12"'),
    ("run", ("robots", 0, "battery"), '"90"'),
    ("generate", ("n_robots",), "4.6"),
    ("generate", ("tasks", 0, "timeout"), "200.5"),
    ("sweep", ("trials",), "1.9"),
    ("sweep", ("template", "stage_gap"), "60.5"),
    # a sweep that names no law, scale or style would run nothing
    ("sweep", ("laws",), "[]"),
    ("sweep", ("scales",), "[]"),
    ("sweep", ("styles",), "[]"),
    # a finite comm range is a positive finite number
    ("run", ("comm_range",), "1e309"),
    ("generate", ("comm_range",), "1e309"),
    ("sweep", ("template", "comm_range"), "1e309"),
    # a template setting no cell could run is bad input, not a failed run
    ("sweep", ("template", "step_length"), "-1"),
    ("sweep", ("template", "world_size"), "-5"),
    ("sweep", ("template", "comm_range"), "-1"),
    ("sweep", ("template", "max_ticks"), "0"),
    # a task holds its formation for at least one tick
    ("run", ("tasks", 0, "duration"), "0"),
    ("generate", ("tasks", 0, "duration"), "0"),
    ("sweep", ("template", "task_duration"), "0"),
    # later stages arrive after earlier ones
    ("sweep", ("template", "stage_gap"), "-5"),
]


@pytest.mark.parametrize("command, path, literal", BAD_INPUTS,
                         ids=[f"{c}-{'.'.join(map(str, p))}-{v}" for c, p, v in BAD_INPUTS])
def test_bad_value_exits_2(tmp_path, capsys, template_file, scenario_file,
                           command, path, literal):
    doc, flag = {
        "run": (json.loads(scenario_file.read_text()), "--scenario"),
        "generate": (json.loads(template_file.read_text()), "--template"),
        "sweep": ({"template": dict(TEMPLATE), "laws": ["t_low_e"],
                   "scales": ["R5+T1"]}, "--spec"),
    }[command]
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = "@value@"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"@value@"', literal))
    out = tmp_path / "out"
    assert main([command, flag, str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("generate", "--template"), ("run", "--scenario"), ("sweep", "--spec"),
    ("summarize", "--rows"), ("replay", "--trace")])
def test_non_utf8_input_exits_2(tmp_path, capsys, command, flag):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe")
    assert main([command, flag, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


class TestReplay:
    def test_pretty_prints_events(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "run"
        main(["run", "--scenario", str(scenario_file),
              "--out", str(out), "--trace"])
        capsys.readouterr()
        assert main(["replay", "--trace", str(out / "trace.jsonl")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        assert any("task_completed" in line for line in lines)

    @pytest.mark.parametrize("line", ["{}", '{"tick": 1, "kind": "move"}',
                                      "[]", "not json"])
    def test_bad_event_names_its_line(self, tmp_path, capsys, line):
        trace = tmp_path / "trace.jsonl"
        good = '{"tick": 0, "kind": "move", "subjects": [1], "detail": ""}'
        trace.write_text(f"{good}\n{line}\n{good}\n")
        assert main(["replay", "--trace", str(trace)]) == 2
        out = capsys.readouterr()
        assert out.err.startswith(f"error: {trace}:2: ")
        assert len(out.out.splitlines()) == 1
