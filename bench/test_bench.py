"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, check_digests, digests, run_pass  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINNED = json.loads((BENCH / "pinned_digests.json").read_text())
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def traced_pass(workload: str, seed: int):
    tracer = Tracer()
    with tracer.installed() as api:
        p = run_pass(workload, seed, api)
    return p, tracer.layer_metrics()


def bench(root: Path, workload: str, trace: int, seconds: str = "1"):
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", seconds, "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_repeat_and_tracing_keeps_outputs(workload):
    first, layers = traced_pass(workload, 0)
    second, again = traced_pass(workload, 0)
    assert {n: layers[n] for n in COUNTS} == {n: again[n] for n in COUNTS}
    assert layers["engine.tick.calls"] == first.ticks > 0
    plain = run_pass(workload, 0)
    assert first.failed == plain.failed == 0
    assert digests(first) == digests(second) == digests(plain)
    assert "0" in PINNED[workload]
    assert check_digests(workload, 0, digests(plain), PINNED) == []


def test_wrong_pinned_digest_is_detected():
    got = digests(run_pass("dynamic_arrivals", 0))
    for part in ("csv", "runs"):
        wrong = {"dynamic_arrivals": {"0": {**PINNED["dynamic_arrivals"]["0"],
                                            part: "0" * 64}}}
        problems = check_digests("dynamic_arrivals", 0, got, wrong)
        assert len(problems) == 1
        assert problems[0].startswith("dynamic_arrivals seed 0: " + part)


def test_wrong_pin_fails_the_run_and_names_the_workload(tmp_path):
    for name in ("src", "bench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    pins = json.loads((tmp_path / "bench" / "pinned_digests.json").read_text())
    pins["dynamic_arrivals"]["0"]["runs"] = "0" * 64
    (tmp_path / "bench" / "pinned_digests.json").write_text(json.dumps(pins))
    out = bench(tmp_path, "dynamic_arrivals", 0)
    assert out.returncode == 1
    assert json.loads(out.stdout.splitlines()[-1])["correct"] is False
    assert "dynamic_arrivals seed 0: runs digest" in out.stderr


def test_one_command_prints_every_metric_with_its_unit():
    out = bench(ROOT, "dynamic_arrivals", 1)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert any(line.startswith(f"{metric['name']} = ")
                   and line.endswith(" " + metric["unit"]) for line in lines), metric
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench(tmp_path, "law_sweep", 0)
    assert out.returncode != 0
    assert out.stdout == ""
