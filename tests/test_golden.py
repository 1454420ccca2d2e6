"""Pinned output digests: a change in behaviour fails here, not only in
the benchmark.

A speedup must keep every byte of these outputs. If a change alters
behaviour on purpose, recompute both constants and say why in CHANGES.md.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from swarmplan.engine import run
from swarmplan.sweep import CSV_COLUMNS, SweepSpec, rows_to_csv, run_sweep
from helpers import ALL_LAWS, TEMPLATE, suite_scenario

#: One trial of every law on R20+T3 static, base seed 0: the rows CSV.
SWEEP_CSV_SHA256 = "9d45d310a13e4325ce44593390463c8d9e91bbb2b3199118daa95f1e17587789"
#: t_low_e R20+T3 1+1+1 seed 0: the trace, one JSON event per line.
TRACE_SHA256 = "19ae5ddd6ebc5d2c53509910d324c3696f071549391003346ebea4ad1f66dd89"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


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
