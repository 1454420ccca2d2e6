"""Connectivity graph and synchronous gossip to information equilibrium.

Robots exchange knowledge with their neighbors in synchronous rounds until
every group member holds the datagram of every other member. The round
count is deterministic and equals the eccentricity of the group subgraph
(diameter for a whole-graph exchange). :func:`components` is the one
connected-components routine: it checks that the graph connects every
alive robot and groups routing's conflicting pairs into clusters. A task
that arrives reaches one robot only, the one :func:`reveal` names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Hashable, Mapping, Sequence

from .world import Position, RobotState, euclidean

COMPLETE = "complete"


class DisconnectedGraphError(Exception):
    """The communication graph does not connect all alive robots."""


class GossipStalledError(Exception):
    """Gossip exceeded the diameter bound without reaching equilibrium."""


@dataclass(frozen=True)
class CommGraph:
    """Symmetric adjacency over robot ids, no self-loops."""

    adjacency: Mapping[int, frozenset[int]]

    def neighbors(self, robot_id: int) -> frozenset[int]:
        return self.adjacency[robot_id]


@dataclass
class KnowledgeSet:
    """One robot's local knowledge: a set of datagrams, own included."""

    items: frozenset[Hashable] = field(default_factory=frozenset)


def components(adjacency: Mapping[int, AbstractSet[int]]) -> list[frozenset[int]]:
    """The connected components of a symmetric adjacency, ordered by their
    lowest member id."""
    found: list[frozenset[int]] = []
    seen: set[int] = set()
    for root in sorted(adjacency):
        if root in seen:
            continue
        component, stack = {root}, [root]
        while stack:
            fresh = adjacency[stack.pop()] - component
            component |= fresh
            stack.extend(fresh)
        seen |= component
        found.append(frozenset(component))
    return found


def reveal(centers: Mapping[int, Position],
           positions: Mapping[int, Position]) -> dict[int, int]:
    """Each task of ``centers`` (id -> center, in order) mapped to the robot
    of ``positions`` nearest it, the lower id on a tie; none without robots."""
    return {tid: min(positions, key=lambda rid: (euclidean(positions[rid], c), rid))
            for tid, c in centers.items() if positions}


def build_graph(robots: Sequence[RobotState], comm_range: float | str) -> CommGraph:
    """Build the adjacency over alive robots.

    An edge joins two robots within ``comm_range`` meters, or every pair in
    ``COMPLETE`` mode. Raises :class:`DisconnectedGraphError` when the graph
    does not connect all alive robots, since gossip could never terminate.
    """
    if not robots:
        raise ValueError("need at least one robot")
    alive = [r for r in robots if r.alive]
    if comm_range == COMPLETE:
        # connected by construction
        everyone = frozenset(r.id for r in alive)
        return CommGraph({r.id: everyone - {r.id} for r in alive})
    adjacency = {r.id: frozenset(o.id for o in alive if o.id != r.id
                                 and euclidean(r.pos, o.pos) <= comm_range)
                 for r in alive}
    if len(components(adjacency)) > 1:
        raise DisconnectedGraphError(
            f"comm graph disconnected over {sorted(adjacency)} at range {comm_range}")
    return CommGraph(adjacency)


def gossip(
    payloads: Mapping[int, Hashable],
    graph: CommGraph,
    group: set[int] | frozenset[int],
) -> tuple[dict[int, KnowledgeSet], int]:
    """Synchronous neighbor-union gossip until equilibrium within ``group``.

    Every member starts with its own datagram ``(member_id, payloads[id])``;
    each round all members simultaneously union the previous-round sets of
    their neighbors inside the group. Returns the equilibrium knowledge and
    the number of rounds executed (0 for a singleton, 1 on a complete graph).

    At equilibrium every member holds every member's datagram, so only the
    round count needs simulating: it runs on the members' reach sets (the ids
    whose datagrams a member holds), and every returned :class:`KnowledgeSet`
    shares one frozen item set.

    Raises :class:`GossipStalledError` after ``|group|`` rounds, which can
    only happen if the group subgraph is disconnected.
    """
    members = sorted(group)
    n = len(members)
    items = frozenset((i, payloads[i]) for i in members)
    rounds = 0
    if n > 1:
        inside = frozenset(members)
        # round 1 reaches a member's in-group neighbors, on a complete group
        # everyone; only the members it leaves unheard need more rounds
        unheard = {i: inside.difference(graph.neighbors(i), (i,)) for i in members}
        rounds = 1
        if any(unheard.values()):
            hood = {i: inside - unheard[i] for i in members}
            reach = hood
            while any(len(reach[i]) != n for i in members):
                if rounds >= n:
                    raise GossipStalledError(f"group {members} not connected, gossip stalled")
                reach = {i: frozenset().union(*[reach[j] for j in hood[i]])
                         for i in members}
                rounds += 1
    return {i: KnowledgeSet(items) for i in members}, rounds
