"""Distributed plan negotiation: propose, gossip, compare, merge.

Every group member computes a plan from its own knowledge, the proposals
are spread to equilibrium, and each member checks whether all proposals
are identical under a canonical serialization. On disagreement the
knowledge carried by the received proposals is merged into every
member's, and the criterion depth handed to the planner rises one level.
The engine's selection and formation planners ignore the depth, so
agreement comes from the merge alone: members that plan from the same
knowledge propose the same plan, within two iterations. A group of one
agrees with itself in one iteration and zero gossip rounds, so a lone
robot negotiates at no cost.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from typing import Callable, Hashable, Mapping

from .comms import CommGraph, gossip
from .priority import NeedsOrderQueue


class Phase(Enum):
    SELECTION = "selection"
    FORMATION = "formation"


class ExhaustedCriteriaError(Exception):
    """Negotiation's conflicts outlasted the criteria of the order queue."""


class PhaseMismatchError(Exception):
    """Proposals from different phases were compared (engine bug)."""


class AgreementOutcome(Enum):
    END = "end"
    CONFLICT = "conflict"


@dataclass(frozen=True)
class Proposal:
    phase: Phase
    proposer: int
    payload: object
    #: the payload's :func:`canonical` form (never empty), serialized here
    #: unless given
    key: str = field(default="", compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.key:
            object.__setattr__(self, "key", canonical(self.payload))


def canonical(payload: object) -> str:
    """Serialize a payload so byte equality means plan equality.

    Keys are sorted, floats fixed to nine decimals, dataclasses and enums
    reduced to plain JSON values. Plans name no proposer (the
    :class:`Proposal` does), so equal plans from different robots match.
    """
    return json.dumps(_plain(payload), sort_keys=True, separators=(",", ":"))


def _plain(obj: object) -> object:
    """``obj`` as plain JSON values, as ``asdict`` then ``json`` would."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, float):
        return format(obj, ".9f")
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        # asdict copies set members without converting them
        return sorted(_plain(v) for v in obj)
    return obj


def agreement(proposals: list[Proposal]) -> AgreementOutcome:
    """END when every payload serializes identically, CONFLICT otherwise."""
    if not proposals:
        raise ValueError("no proposals to compare")
    if len({p.phase for p in proposals}) > 1:
        raise PhaseMismatchError(f"mixed phases: {[p.phase for p in proposals]}")
    first = proposals[0].key
    if all(p.key == first for p in proposals[1:]):
        return AgreementOutcome.END
    return AgreementOutcome.CONFLICT


@dataclass
class NegotiationResult:
    payload: object
    iterations: int
    comm_rounds: int  # gossip rounds summed over all exchanges


Planner = Callable[[int, frozenset[Hashable], int], object]


def negotiate(
    phase: Phase,
    group: set[int] | frozenset[int],
    graph: CommGraph,
    order: NeedsOrderQueue,
    planner: Planner,
    knowledge: Mapping[int, frozenset[Hashable]],
) -> NegotiationResult:
    """Run proposal/gossip/agreement until the group holds one plan.

    Each of at most ``len(order)`` iterations asks every member, in
    ascending id order, for ``planner(member, knowledge, depth)``, which
    must be deterministic in its arguments. The proposals, each carrying
    its proposer's knowledge, are gossiped to equilibrium, where every
    member holds all of them, so one comparison decides for the group. On
    CONFLICT every member's knowledge becomes the union of the members'
    knowledge and the depth rises one level; members that planned from
    stale knowledge then agree in the next iteration. Only ``knowledge``'s
    entries for the members are read. Raises
    :class:`ExhaustedCriteriaError` if conflicts outlast the criterion
    queue, which is impossible once knowledge is shared.
    """
    members = sorted(group)
    know = {i: frozenset(knowledge[i]) for i in members}
    comm_rounds = 0
    for depth in range(len(order)):
        # members that propose the same object share one serialization
        keys: dict[int, str] = {}
        proposals = []
        for i in members:
            plan = planner(i, know[i], depth)
            if id(plan) not in keys:
                keys[id(plan)] = canonical(plan)
            proposals.append(Proposal(phase, i, plan, keys[id(plan)]))
        _, rounds = gossip({p.proposer: (p.key, know[p.proposer]) for p in proposals},
                           graph, group)
        comm_rounds += rounds
        if agreement(proposals) is AgreementOutcome.END:
            return NegotiationResult(proposals[0].payload, depth + 1, comm_rounds)
        know = dict.fromkeys(members, frozenset().union(*know.values()))
    raise ExhaustedCriteriaError(f"negotiation stuck in phase {phase}")
