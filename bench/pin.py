"""Recompute the pinned output digests of every workload.

    python3 bench/pin.py 0 63

writes ``bench/pinned_digests.json`` for base seeds 0..63. Re-pin only in a
change that is meant to alter the program's outputs, and say so there: a
change that claims a speed-up must leave every digest as it is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from workloads import WORKLOADS, digests, run_pass  # noqa: E402


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    pinned: dict[str, dict[str, dict[str, str]]] = {}
    for workload in WORKLOADS:
        pinned[workload] = {}
        for seed in range(first, last + 1):
            p = run_pass(workload, seed)
            if p.failed:
                print(f"{workload} seed {seed}: {p.errors}", file=sys.stderr)
                return 1
            pinned[workload][str(seed)] = digests(p)
            print(workload, seed, flush=True)
    (BENCH_DIR / "pinned_digests.json").write_text(
        json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
