"""Priority laws compiled into deterministic lexicographic sort keys.

A law turns per-robot key data (battery, task rank, utility) into a total
order over robot ids. Safety is not a sort key: plans that would breach
the separation distance are vetoed before prioritization ever runs (see
the conflict resolution in :mod:`routing`). A robot below the low-battery
threshold withdraws from task selection entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

#: Battery percentage below which a robot withdraws from selection.
LOW_BATTERY_WITHDRAWAL = 5.0


class PriorityLaw(Enum):
    """Named sort-key recipes; values match scenario files and CSV output."""

    HIGH_E = "high_e"
    LOW_E = "low_e"
    T_HIGH_E = "t_high_e"
    T_LOW_E = "t_low_e"
    CATA_U = "cata_u"


@dataclass(frozen=True)
class Criterion:
    """One sort key: context field name plus direction."""

    key: str
    descending: bool = False


#: An ordered sequence of criteria; the id tie-break is always last.
NeedsOrderQueue = tuple[Criterion, ...]


_ID = Criterion("id")

_LAWS: Mapping[PriorityLaw, NeedsOrderQueue] = {
    PriorityLaw.HIGH_E: (Criterion("battery", descending=True), _ID),
    PriorityLaw.LOW_E: (Criterion("battery"), _ID),
    PriorityLaw.T_HIGH_E: (Criterion("task_rank"),
                           Criterion("battery", descending=True), _ID),
    PriorityLaw.T_LOW_E: (Criterion("task_rank"), Criterion("battery"), _ID),
    PriorityLaw.CATA_U: (Criterion("utility", descending=True),
                         Criterion("battery"), _ID),
}


def compile_law(law: PriorityLaw) -> NeedsOrderQueue:
    """Compile a law into its criterion sequence, ending in the id tie-break."""
    return _LAWS[law]


def sort_queue(
    candidates: Iterable[int],
    context: Mapping[int, Mapping[str, float]],
    order: NeedsOrderQueue,
) -> list[int]:
    """Order ``candidates`` by the criteria of ``order``, which must end in
    the id criterion, as every compiled law does: the id, compared as the int
    itself, makes the order strict and total.
    """
    def key(robot_id: int) -> tuple:
        parts = []
        for crit in order:
            v = robot_id if crit.key == "id" else float(context[robot_id][crit.key])
            parts.append(-v if crit.descending else v)
        return tuple(parts)

    return sorted(candidates, key=key)
