"""swarmplan benchmark: one workload, host-time metrics, optional layer trace.

    python3 bench/run.py --workload law_sweep --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the last stdout line is a JSON object holding
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it holds
every per-layer metric, and the lines before it print every metric, both
kinds, by name with its unit. Details (samples, calibration times, machine)
go to ``.bench_out/``. Exit code 1 means the outputs were wrong, 2 that the
program or the arguments were missing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Fresh interpreters timed for ``setup_s``; their median is reported.
SETUP_PROBES = 4
#: Passes below which medians are not taken, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Measuring stops this long after ``--seconds`` even if too few runs fit.
OVERRUN_S = 60.0

#: Per workload: the run-time percentile reported as ``run_ms_tail`` and the
#: scenario runs needed so that at least ten lie beyond it. A dense_team run
#: takes about 4 s, so fewer than eleven fit in a run of the benchmark and
#: no percentile has ten beyond it: its tail is the slowest run.
TAIL = {"law_sweep": (90, 100), "dynamic_arrivals": (90, 100), "dense_team": (100, 1)}

#: A layer time printed but left out of BENCHMARK.json: cata_select runs only
#: under cata_u, so on dynamic_arrivals it reads 0 on every run, and a time
#: that reads the same on every run measures nothing there.
REPORT_ONLY_UNITS = {"cata.cata_select.self_ms": "ms"}

PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import swarmplan
from workloads import build_scenarios, calibrate
n = len(build_scenarios(sys.argv[3], int(sys.argv[4])))
print(time.perf_counter() - start, calibrate(), n)
"""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


class CpuTurns:
    """Start each pass or probe on one of two CPUs in turn.

    On a shared machine one CPU can run far slower than another for minutes,
    and a busy process stays on the CPU it started on, so a whole run would
    measure one CPU. The full mask is restored at once, so worker processes
    a pass may start can still use every CPU.
    """

    def __init__(self) -> None:
        self.allowed = os.sched_getaffinity(0)
        self.cpus = sorted(self.allowed)[:2]
        self._order = itertools.cycle(self.cpus)

    def next(self) -> None:
        os.sched_setaffinity(0, {next(self._order)})
        os.sched_setaffinity(0, self.allowed)


def setup_probe(workload: str, seed: int, cpus: CpuTurns) -> dict:
    """Time ``import swarmplan`` plus building the scenarios, in a fresh interpreter."""
    cpus.next()
    out = subprocess.run([sys.executable, "-c", PROBE, str(SRC), str(BENCH_DIR),
                          workload, str(seed)],
                         cwd=ROOT, capture_output=True, text=True, timeout=60,
                         check=True)
    setup_s, calibration_s, scenarios = out.stdout.split()
    return {"setup_s": float(setup_s), "calibration_s": float(calibration_s),
            "scenarios": int(scenarios)}


def percentile(samples: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


class Checker:
    """Collects every reason the outputs of this run are wrong."""

    def __init__(self, workload: str, seed: int, pinned: dict) -> None:
        self.workload, self.seed, self.pinned = workload, seed, pinned
        self.problems: list[str] = []
        self.first: dict | None = None
        self.counts: dict | None = None

    def check_pass(self, p, label: str) -> dict:
        """Verify one pass and reduce it to the numbers kept for the report."""
        from workloads import check_digests, conservation_errors, digests
        got = digests(p)
        if self.first is None:
            self.first = got
            self.problems += check_digests(self.workload, self.seed, got, self.pinned)
        elif got != self.first:
            self.problems.append(f"{self.workload} seed {self.seed}: {label} pass "
                                 f"digests {got} differ from the first pass {self.first}")
        self.problems += [f"{self.workload}: {e}" for e in conservation_errors(p)]
        return {"seconds": p.seconds, "ticks": p.ticks,
                "run_ms": [1000.0 * r.seconds for r in p.records],
                "calibration_s": p.calibration_s, "attempted": p.attempted,
                "failed": p.failed, "errors": p.errors, "digests": got}

    def check_counts(self, layer: dict, count_names: list[str]) -> None:
        counts = {name: layer[name] for name in count_names}
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            diff = sorted(k for k in counts if counts[k] != self.counts[k])
            self.problems.append(f"{self.workload}: layer counts differ between "
                                 f"traced passes: {diff}")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            checker: Checker, count_names: list[str], cpus: CpuTurns) -> dict:
    """Alternate untraced (and, with ``trace``, traced) passes for ``seconds``.

    Each loop starts on the next CPU, and measuring ends after a whole
    number of turns, so both CPUs run as many passes.
    """
    from swarmplan.engine import run
    from tracing import Tracer
    from workloads import build_scenarios, calibrate, run_pass

    # first calls pay for lazy imports and cold caches once per process
    run(build_scenarios("law_sweep", seed)[0])
    _, min_runs = TAIL[workload]
    plain, traced, layers = [], [], []
    spans = None
    start = time.perf_counter()
    while True:
        cpus.next()
        calibration = calibrate()
        p = run_pass(workload, seed)
        p.calibration_s = calibration
        plain.append(checker.check_pass(p, "untraced"))
        del p
        if trace:
            tracer = Tracer()
            calibration = calibrate()
            with tracer.installed() as api:
                p = run_pass(workload, seed, api)
            p.calibration_s = calibration
            traced.append(checker.check_pass(p, "traced"))
            del p
            layer = tracer.layer_metrics()
            checker.check_counts(layer, count_names)
            layers.append(layer)
            spans = spans or tracer
        elapsed = time.perf_counter() - start
        runs = sum(len(s["run_ms"]) for s in plain)
        if elapsed >= seconds + OVERRUN_S or (
                elapsed >= seconds and len(plain) >= MIN_PASSES and runs >= min_runs
                and len(plain) % len(cpus.cpus) == 0):
            break
    if spans is not None:
        spans.write_spans(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    return {"plain": plain, "traced": traced, "layers": layers}


def end_to_end(workload: str, plain: list[dict], probes: list[dict]) -> tuple[dict, str]:
    pct, _ = TAIL[workload]
    run_ms = [ms for s in plain for ms in s["run_ms"]]
    tail, beyond = percentile(run_ms, pct)
    metrics = {
        "ticks_per_s": sum(s["ticks"] for s in plain) / sum(s["seconds"] for s in plain),
        "run_ms_p50": statistics.median(run_ms),
        "run_ms_tail": tail,
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    note = (f"run_ms_tail is p{pct} of {len(run_ms)} scenario runs "
            f"({beyond} beyond it) over {len(plain)} passes")
    return metrics, note


def per_layer(layers: list[dict], traced: list[dict], plain: list[dict]) -> dict:
    """Median over traced passes of each layer metric, plus tracing overhead.

    Counts repeat exactly, so they keep their integer value.
    """
    out = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        out[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    out["trace.overhead_frac"] = (statistics.median(s["seconds"] for s in traced)
                                  / statistics.median(s["seconds"] for s in plain) - 1.0)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "swarmplan" / "__init__.py").is_file():
        print(f"error: no swarmplan sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    count_names = [n for n, unit in layer_units.items() if unit == "count"]
    pinned = json.loads((BENCH_DIR / "pinned_digests.json").read_text())

    cpus = CpuTurns()
    probes = [setup_probe(args.workload, args.seed, cpus) for _ in range(SETUP_PROBES)]
    checker = Checker(args.workload, args.seed, pinned)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     checker, count_names, cpus)
    plain, traced = result["plain"], result["traced"]
    e2e, tail_note = end_to_end(args.workload, plain, probes)
    layer = per_layer(result["layers"], traced, plain) if args.trace else {}

    passes = plain + traced
    attempted = sum(s["attempted"] for s in passes)
    failed = sum(s["failed"] for s in passes)
    problems = checker.problems + [f"{args.workload}: {e}"
                                   for s in passes for e in s["errors"]]
    correct = not checker.problems

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {attempted} scenario runs, {failed} failed")
    print(tail_note)
    print(f"failed_frac = {failed / attempted!r} frac")
    for name, value in e2e.items():
        print(f"{name} = {value!r} {e2e_units[name]}")
    report_units = {**layer_units, **REPORT_ONLY_UNITS}
    for name, value in layer.items():
        print(f"{name} = {value!r} {report_units[name]}")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)

    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "environment": environment(), "setup_probes": probes,
               "tail": tail_note, "end_to_end": e2e, "per_layer": layer,
               "passes": {"untraced": plain, "traced": traced},
               "problems": problems}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, sort_keys=True) + "\n")

    chosen, units = (layer, layer_units) if args.trace else (e2e, e2e_units)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": chosen[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
