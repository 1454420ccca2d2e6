"""Command-line front end: generate, run, sweep, summarize, replay.

The documents are the whole input. Exit codes, a failure's one ``error:``
line printed by :func:`main` alone: 0 on success, 1 when a run failed (any
sweep row recorded an error, or a finite comm range split the team or
stalled its gossip), 2 on invalid input (bad scenario, template, spec, rows
or trace files, a file that is not UTF-8 text among them).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .comms import DisconnectedGraphError, GossipStalledError
from .engine import run as run_scenario
from .scenario import (InvalidScenarioError, InvalidTemplateError, Scenario,
                       generate)
from .sweep import (CSV_COLUMNS, PER_TASK_COLUMNS, SweepSpec, check_columns,
                    rows_to_csv, run_sweep, summarize, write_files)


class BadFileError(Exception):
    """A rows or trace file that is not what its command reads."""


FAILED_RUN = (DisconnectedGraphError, GossipStalledError)
BAD_INPUT = (BadFileError, InvalidScenarioError, InvalidTemplateError, OSError,
             UnicodeDecodeError)


def _cmd_generate(args: argparse.Namespace) -> int:
    text = Path(args.template).read_text()
    try:
        template = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too long an integer, too deep
        raise InvalidTemplateError(f"{args.template}: not valid JSON: {exc}") from exc
    if not isinstance(template, dict):
        raise InvalidTemplateError(f"{args.template}: template must be a JSON object")
    scenario = generate(template, args.seed)
    text = scenario.to_json() + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = Scenario.from_json(Path(args.scenario).read_text())
    metrics, events = run_scenario(scenario)
    doc = dict(vars(metrics))
    doc["per_task_comm"] = {str(k): v for k, v in metrics.per_task_comm.items()}
    files = {"metrics.json": json.dumps(doc, indent=2, sort_keys=True) + "\n"}
    if args.trace:
        files["trace.jsonl"] = "".join(event.to_json() + "\n" for event in events)
    write_files(files, args.out or ".")
    print(f"completed={metrics.tasks_completed} timed_out={metrics.tasks_timed_out} "
          f"ticks={metrics.ticks_elapsed} conflicts={metrics.conflict_frequency}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = SweepSpec.from_json(Path(args.spec).read_text())
    rows, task_rows = run_sweep(spec)
    files = {"rows.csv": rows_to_csv(rows, CSV_COLUMNS),
             "per_task_rows.csv": rows_to_csv(task_rows, PER_TASK_COLUMNS)}
    out_dir = Path(args.out or ".")
    write_files(files, out_dir)
    failed = sum(1 for r in rows if r.get("error"))
    print(f"rows={len(rows)} failed={failed} -> {out_dir / 'rows.csv'}")
    return 1 if failed else 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    paths = [args.rows]
    if args.per_task:
        paths.append(args.per_task)
    tables = []
    # summarize checks the rows' own columns, this loop a per-task file's
    for path, columns in zip(paths, [[], PER_TASK_COLUMNS]):
        with open(path) as fh:
            try:
                tables.append(list(csv.DictReader(fh)))
                check_columns(tables[-1], columns)
            except (csv.Error, ValueError) as exc:  # an oversized field, a missing column
                raise BadFileError(f"{path}: {exc}") from exc
    rows, *task_rows = tables
    try:
        files = summarize(rows, *task_rows)
    except ValueError as exc:  # no rows, missing columns, non-numeric fields
        raise BadFileError(f"{args.rows}: {exc}") from exc
    out_dir = Path(args.out or ".")
    write_files(files, out_dir)
    print(f"wrote {', '.join(sorted(files))} to {out_dir}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    with open(args.trace) as fh:
        for number, line in enumerate(fh, 1):
            try:
                event = json.loads(line)
                subjects = ",".join(str(s) for s in event["subjects"])
                head = f"[{event['tick']:>5}] {event['kind']:<18}"
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                raise BadFileError(
                    f"{args.trace}:{number}: not a trace event: {exc!r}") from exc
            detail = f"  {event['detail']}" if event.get("detail") else ""
            print(f"{head} {subjects}{detail}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="swarmplan",
                                     description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a concrete scenario from a template")
    p.add_argument("--template", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run one scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run a batch of trials to CSV")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("summarize", help="aggregate sweep rows and emit plot data")
    p.add_argument("--rows", required=True)
    p.add_argument("--per-task", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("replay", help="pretty-print a trace file")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=_cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FAILED_RUN + BAD_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, FAILED_RUN) else 2


if __name__ == "__main__":
    sys.exit(main())
