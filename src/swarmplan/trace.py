"""What a run records: one trace event per decision the engine applies,
and the metrics, which count the trace's events (so the two cannot
disagree) and add up the energy ledger's accounts."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from .world import EnergyLedger, left_sum


class EventKind(Enum):
    MOVE = "move"
    STOP = "stop"
    GOSSIP = "gossip"
    NEGOTIATE = "negotiate"
    AGREE = "agree"
    CONFLICT_DETECTED = "conflict_detected"
    TASK_ARRIVED = "task_arrived"
    TASK_COMPLETED = "task_completed"
    TASK_TIMED_OUT = "task_timed_out"
    ROBOT_DEAD = "robot_dead"
    SLOT_SWAP = "slot_swap"


class TraceEvent(NamedTuple):
    tick: int
    kind: EventKind
    subjects: tuple[int, ...]
    detail: str = ""

    def to_json(self) -> str:
        return json.dumps({"tick": self.tick, "kind": self.kind.value,
                           "subjects": list(self.subjects),
                           "detail": self.detail}, sort_keys=True)


@dataclass
class RunMetrics:
    conflict_frequency: int
    energy_moving: float
    energy_idle: float
    energy_comm: float
    energy_comm_negotiation: float
    total_distance: float
    per_task_comm: dict[int, float]
    residual_max: float
    residual_min: float
    residual_mean: float
    ticks_elapsed: int
    tasks_completed: int
    tasks_timed_out: int
    max_negotiation_iterations: int = 0

    @classmethod
    def count(cls, events: Iterable[TraceEvent], ledger: EnergyLedger,
              batteries: list[float], ticks: int, distance: float,
              iterations: int) -> RunMetrics:
        """A run's metrics from its trace, ledger, final batteries and totals."""
        counts = Counter(e.kind for e in events)
        gossip_total = left_sum(ledger.comm_gossip.values())
        nego_total = left_sum(ledger.comm_negotiation.values())
        return cls(
            conflict_frequency=counts[EventKind.CONFLICT_DETECTED],
            energy_moving=left_sum(ledger.moving.values()),
            energy_idle=left_sum(ledger.idle.values()),
            energy_comm=gossip_total + nego_total,
            energy_comm_negotiation=nego_total,
            total_distance=distance,
            per_task_comm=dict(sorted(ledger.per_task_comm.items())),
            residual_max=max(batteries),
            residual_min=min(batteries),
            residual_mean=left_sum(batteries) / len(batteries),
            ticks_elapsed=ticks,
            tasks_completed=counts[EventKind.TASK_COMPLETED],
            tasks_timed_out=counts[EventKind.TASK_TIMED_OUT],
            max_negotiation_iterations=iterations,
        )
