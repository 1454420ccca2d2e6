"""Deterministic tick loop driving perception, gossip, planning, motion.

Every tick runs one phase sequence: task arrivals (revealed to the nearest
robot only) and gossip to equilibrium; then, while a task is active,
selection for free robots, formation for newly grouped robots and routing
with conflict clustering and resolution; then energy charging and
completion/timeout checks. With no task active no robot has a group or a
goal, so there is nothing to plan. Every phase but routing reads one view
of the alive robots, in ascending ids. Each phase's decision is a pure
function of plain data in the module that owns its rule; the engine only
applies it: it moves robots, sets groups (keeping each task's alive
members), slots and goals, charges the ledger and emits events. Routing
ranks the movers alone, passes their steps highest priority first, stops
every mover of a cluster but the one that ``settle_cluster`` lets step,
and emits and charges each cluster before separation runs on the movers
left. Runs are pure functions of the scenario: identical inputs give
byte-identical metrics and traces.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from operator import attrgetter
from typing import Any, Iterable, Sequence

from . import cata as cata_mod
from .comms import COMPLETE, CommGraph, build_graph, gossip, reveal
from .formation import (DistanceMatrix, formation_assign, slot_requests,
                        slot_swaps, task_outcomes)
from .negotiation import Phase, negotiate
from .priority import (LOW_BATTERY_WITHDRAWAL, PriorityLaw, compile_law,
                       sort_queue)
from .routing import (Geometry, cluster_conflicts, detect_conflicts, enforce_separation,
                      next_step, settle_cluster, track_progress, yield_steps)
from .scenario import Scenario
from .selection import SelectionPlan, open_tasks, select
from .trace import EventKind, RunMetrics, TraceEvent
from .world import (ChargeKind, EnergyLedger, Position, RobotState, Task,
                    euclidean, polygon_vertices)

_ARRIVAL_TOLERANCE = 0.1
_UNRANKED = 1_000_000  # task-rank sentinel for robots without a task
# per conflict cluster, each member shares the priority queue (one gossip
# round over the cluster) and then exchanges proposals once per agreement
# iteration (at most two with asymmetric knowledge)
_CLUSTER_COMM_ROUNDS = 3


class Engine:
    """Owns all mutable state for one run; strictly single-threaded."""

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.scenario = scenario
        self.tick_no = 0
        self.robots: dict[int, RobotState] = {
            r.id: RobotState(id=r.id, pos=Position(r.x, r.y), battery=r.battery)
            for r in scenario.robots
        }
        self.tasks: dict[int, Task] = {t.id: t for t in scenario.tasks}
        # a task is pending (in arrival order, as ``validate`` requires) until
        # its arrival tick, then its id is active (ascending ids, mapped to its
        # consecutive ticks in formation) until it completes or times out
        self.pending: list[Task] = list(scenario.tasks)
        self.active: dict[int, int] = {}
        # each task's alive members, ascending ids, no empty list
        self.members_of: dict[int, list[int]] = {}
        self.vertices: dict[int, list[Position]] = {
            t.id: polygon_vertices(t.center, t.required, scenario.formation_radius)
            for t in scenario.tasks
        }
        # the ids of the tasks that have arrived: gossip leaves every alive
        # robot knowing them all in the tick they arrive, so one set serves
        self.known: frozenset[int] = frozenset()
        self.geometry = Geometry(scenario.safety_radius, scenario.step_length,
                                 scenario.world_size)
        self.ledger = EnergyLedger(scenario.energy, self.robots.values())
        self.events: list[TraceEvent] = []
        self._stall: dict[int, int] = dict.fromkeys(self.robots, 0)
        self._goal_mark: dict[int, tuple[Position, float] | None] = dict.fromkeys(self.robots)
        self.total_distance = 0.0
        self.max_negotiation_iterations = 0
        # task id -> rank, built in rank order, which selection iterates
        self._rank = {tid: k for k, tid in
                      enumerate(scenario.task_priority_order or sorted(self.tasks))}
        # the tick view every phase reads: the ids and the law never change,
        # the team only when a robot dies (see ``_bury``), the comm graph and
        # the team's gossip rounds also when a robot moves at a finite range
        # (see ``_phase_charge``)
        self._ids = sorted(self.robots)
        self._team_view: tuple[list[RobotState], tuple[int, ...]] | None = None
        self._comm_view: tuple[CommGraph, int] | None = None
        self._order = compile_law(scenario.law)
        self._keys = tuple(c.key for c in self._order if c.key != "id")

    # ---------------------------------------------------------------- helpers

    def _team(self) -> tuple[list[RobotState], tuple[int, ...]]:
        """Alive robots and their ids, ascending ids; callers must not mutate it."""
        if self._team_view is None:
            robots = [self.robots[rid] for rid in self._ids if self.robots[rid].alive]
            self._team_view = robots, tuple(r.id for r in robots)
        return self._team_view

    def _emit(self, kind: EventKind, subjects: tuple[int, ...], detail: str = "") -> None:
        self.events.append(TraceEvent(self.tick_no, kind, subjects, detail))

    def _context(self, ids: Iterable[int]) -> dict[int, dict[str, float]]:
        """The sort keys the active law reads, for robots ``ids``; build it
        right before sorting them: no phase changes a robot's keys between
        its start and the robot's first sort."""
        ctx: dict[int, dict[str, float]] = {}
        for rid in ids:
            r = self.robots[rid]
            keys = {"battery": r.battery}
            if "task_rank" in self._keys:
                keys["task_rank"] = float(self._rank.get(r.group, _UNRANKED))
            if "utility" in self._keys:
                keys["utility"] = (0.0 if r.group is None else cata_mod.utility(
                    r, self.tasks[r.group], (), self.scenario.cata))
            ctx[rid] = keys
        return ctx

    def _comm(self) -> tuple[CommGraph, int]:
        """The alive team's comm graph and its gossip rounds to equilibrium;
        call only while a robot is alive."""
        if self._comm_view is None:
            graph = build_graph(self._team()[0], self.scenario.comm_range)
            _, rounds = gossip(dict.fromkeys(graph.adjacency, self.known), graph,
                               frozenset(graph.adjacency))
            self._comm_view = graph, rounds
        return self._comm_view

    def _charge_comm(self, robots: list[RobotState], rounds: int,
                     task_of: dict[int, int | None] | None = None) -> list[int]:
        """Charge ``rounds`` comm rounds to each of ``robots`` (ascending ids)
        as negotiation for the tasks ``task_of`` names or else as gossip;
        returns the ids of the robots it killed."""
        died = self.ledger.charge_many(robots, ChargeKind.COMM_ROUND,
                                       task_of=task_of, times=rounds)
        for robot in died:
            self._bury(robot.id)
        return [robot.id for robot in died]

    def _bury(self, rid: int) -> None:
        """A charge emptied robot ``rid``'s battery; every death comes here."""
        self._team_view = self._comm_view = None
        self._release(rid)
        self._emit(EventKind.ROBOT_DEAD, (rid,))

    def _release(self, rid: int) -> None:
        robot = self.robots[rid]
        if robot.group is not None:
            members = self.members_of[robot.group]
            members.remove(rid)
            if not members:
                del self.members_of[robot.group]
        robot.group = robot.slot = robot.goal = None

    def _negotiate(self, phase: Phase, group: Sequence[int], graph: CommGraph,
                   plan: Any, task_of: dict[int, int | None], detail: str) -> None:
        """Negotiate ``plan`` over ``group`` (ascending ids) and charge its
        rounds to the tasks ``task_of`` names; ``detail`` opens the
        NEGOTIATE event's detail.

        Every member knows every arrived task, so every member proposes
        ``plan`` itself and the group agrees in one iteration. A lone robot
        agrees with itself in zero rounds: it pays nothing and emits no
        event.
        """
        result = negotiate(phase, frozenset(group), graph, self._order,
                           lambda member, knowledge, depth: plan,
                           dict.fromkeys(group, self.known))
        if result.comm_rounds:
            self._charge_comm([self.robots[rid] for rid in group], result.comm_rounds,
                              task_of)
            self._emit(EventKind.NEGOTIATE, tuple(group),
                       f"{detail} iterations={result.iterations}")
        self.max_negotiation_iterations = max(self.max_negotiation_iterations,
                                              result.iterations)

    def _selection_plan(self, chosen: list[Task], free: list[int]) -> SelectionPlan:
        """The plan of free robots ``free`` (ascending ids) for ``chosen``."""
        scenario = self.scenario
        robots = [self.robots[rid] for rid in free]
        context = self._context(free)
        if scenario.law is PriorityLaw.CATA_U:
            return cata_mod.cata_select(robots, chosen, context, weights=scenario.cata,
                                        safety_radius=scenario.safety_radius)
        return select(robots, chosen, scenario.law, scenario.energy, context,
                      step_length=scenario.step_length)

    # ------------------------------------------------------------------ tick

    def tick(self) -> None:
        self._phase_arrivals()
        graph = self._phase_gossip()
        final: dict[int, Position] = {}
        # with no task active no robot has a group or a goal, and standing
        # robots keep their separation: there is nothing to plan or route
        if self.active:
            self._phase_selection(graph)
            self._phase_formation(graph)
            final = self._phase_routing()
        self._phase_charge(final)
        self._phase_tasks()
        self.tick_no += 1

    # phase 1: new tasks reach the nearest alive robot only
    def _phase_arrivals(self) -> None:
        if not self.pending or self.pending[0].arrival_tick > self.tick_no:
            return
        due = bisect_right(self.pending, self.tick_no, key=attrgetter("arrival_tick"))
        arrived = sorted(t.id for t in self.pending[:due])
        del self.pending[:due]
        self.active = dict(sorted({**self.active, **dict.fromkeys(arrived, 0)}.items()))
        alive = self._team()[0]
        centers = {tid: self.tasks[tid].center for tid in arrived}
        for tid, rid in reveal(centers, {r.id: r.pos for r in alive}).items():
            self.known |= {tid}
            self._emit(EventKind.TASK_ARRIVED, (tid,), f"revealed_to={rid}")
        # new work arrived: everyone not standing on its slot re-selects
        for r in alive:
            if r.pos != r.goal and r.group is not None:
                self._release(r.id)

    # phase 2: gossip all robot state to equilibrium over the full graph
    def _phase_gossip(self) -> CommGraph | None:
        """The tick's comm graph, or None when no robot is alive. At
        equilibrium every alive robot knows every task of ``known``; only
        the round count needs the graph (see ``_comm``)."""
        team, ids = self._team()
        if not team:
            return None
        graph, rounds = self._comm()
        if rounds:
            self._charge_comm(team, rounds)
            self._emit(EventKind.GOSSIP, ids, f"rounds={rounds}")
        return graph

    # phase 3: free robots negotiate a selection plan
    def _phase_selection(self, graph: CommGraph | None) -> None:
        team, members = self._team()
        free = [r.id for r in team
                if r.group is None and r.battery >= LOW_BATTERY_WITHDRAWAL]
        ranked = [self.tasks[tid] for tid in self._rank if tid in self.active]
        chosen = open_tasks(ranked, self.members_of, len(free)) if free else []
        if not chosen:
            return
        plan = self._selection_plan(chosen, free)
        self._negotiate(Phase.SELECTION, members, graph, plan,
                        {rid: plan.assignment.get(rid) for rid in members},
                        "phase=selection")
        # a robot that died negotiating takes no task
        assigned = [rid for rid in free
                    if plan.assignment.get(rid) is not None and self.robots[rid].alive]
        for rid in assigned:
            self.robots[rid].group = tid = plan.assignment[rid]
            insort(self.members_of.setdefault(tid, []), rid)
        if assigned:
            self._emit(EventKind.AGREE, tuple(assigned), "phase=selection")

    # phase 4: grouped robots without a slot negotiate vertex assignments
    def _phase_formation(self, graph: CommGraph | None) -> None:
        active = [self.tasks[tid] for tid in self.active]
        for tid, free, vacant in slot_requests(active, self.members_of, self.robots):
            verts = self.vertices[tid]
            matrix = DistanceMatrix.build([self.robots[rid] for rid in free],
                                          [verts[v] for v in vacant])
            plan = formation_assign(sort_queue(free, self._context(free), self._order),
                                    matrix)
            detail = f"phase=formation task={tid}"
            self._negotiate(Phase.FORMATION, free, graph, plan,
                            dict.fromkeys(free, tid), detail)
            # a robot that died negotiating takes no slot
            agreed = tuple(rid for rid in free if self.robots[rid].alive)
            for rid in agreed:
                robot = self.robots[rid]
                robot.slot = vacant[plan.slot_of[rid]]
                robot.goal = verts[robot.slot]
            if agreed:
                self._emit(EventKind.AGREE, agreed, detail)
        if self.scenario.law is not PriorityLaw.CATA_U:
            for tid in self.active:
                self._swap_slots(tid, self.members_of.get(tid, ()))

    def _swap_slots(self, tid: int, members: list[int]) -> None:
        """Apply task ``tid``'s ``slot_swaps`` among ``members`` en route."""
        verts = self.vertices[tid]
        en_route = [self.robots[rid] for rid in members
                    if self.robots[rid].slot is not None
                    and self.robots[rid].pos != self.robots[rid].goal]
        for a, b in slot_swaps(en_route, verts):
            ra, rb = self.robots[a], self.robots[b]
            ra.slot, rb.slot = rb.slot, ra.slot
            ra.goal, rb.goal = verts[ra.slot], verts[rb.slot]
            self._emit(EventKind.SLOT_SWAP, (a, b), f"task={tid}")

    # phase 5: routing with conflict clustering; returns the final position of
    # each robot it tried to move, a stopped one's own
    def _phase_routing(self) -> dict[int, Position]:
        # in scenario order, which fixes the runs: idle robots yield in turn
        alive = [r for r in self.robots.values() if r.alive]
        # bodies are obstacles: steps keep clear of them, but they never move
        current = {r.id: r.pos for r in self.robots.values()}
        moves = {r.id: next_step(r, r.goal, self.scenario.step_length)
                 for r in alive if r.goal is not None and r.pos != r.goal}
        moves = yield_steps(current, moves,
                            [r.id for r in alive if r.id not in moves and r.group is None],
                            [v for tid in self.active for v in self.vertices[tid]],
                            self.geometry)
        if not self.scenario.conflict_negotiation:
            return moves
        here = {r.id: r.pos for r in alive}
        clusters = cluster_conflicts(detect_conflicts(
            here, {**here, **moves}, self.scenario.safety_radius))
        # one strict total order of the movers serves every cluster and separation
        if moves:
            moves = {rid: moves[rid]
                     for rid in sort_queue(moves, self._context(moves), self._order)}
        goals = {r.id: r.goal for r in alive if r.goal is not None}
        # losers, and members that died paying for their cluster, stand still;
        # a replay touches none of settle_cluster's inputs
        halted: set[int] = set()
        for cluster in clusters:
            winner = settle_cluster(cluster, current, moves, goals, self._stall,
                                    self.geometry)
            losers = [] if winner is None else [
                rid for rid in moves if rid in cluster and rid != winner]
            halted.update(losers, self._replay_cluster(tuple(sorted(cluster)), losers))
        final, stopped = enforce_separation(
            current, {rid: step for rid, step in moves.items() if rid not in halted},
            goals, self._stall, self.geometry)
        for rid in stopped:
            self._emit(EventKind.STOP, (rid,), "separation")
        return {rid: final[rid] for rid in moves}

    def _replay_cluster(self, members: tuple[int, ...], losers: list[int]) -> list[int]:
        """Emit the events of a cluster of ``members`` (ascending ids) whose
        ``losers`` (in priority order) stop, and charge its negotiation;
        returns the members that died paying, which must not move."""
        self._emit(EventKind.CONFLICT_DETECTED, members)
        for rid in losers:
            self._emit(EventKind.STOP, (rid,), "conflict")
        task_of = {rid: self.robots[rid].group for rid in members}
        return self._charge_comm([self.robots[rid] for rid in members],
                                 _CLUSTER_COMM_ROUNDS, task_of)

    # phase 6: execute motion to ``final`` and charge energy; one walk of the
    # team: robots ``final`` moves pay a move, the rest of the team idles
    def _phase_charge(self, final: dict[int, Position]) -> None:
        team = self._team()[0]
        moved: dict[int, RobotState] = {}
        idle = []
        for robot in team:
            to = final.get(robot.id, robot.pos)
            # finite points are a positive distance apart exactly when they differ
            if to == robot.pos:
                idle.append(robot)
                continue
            self.total_distance += euclidean(robot.pos, to)
            robot.pos = to
            moved[robot.id] = robot
        if moved and self.scenario.comm_range != COMPLETE:
            self._comm_view = None  # the graph's edges follow the positions
        died = {r.id for r in self.ledger.charge_many(moved.values(), ChargeKind.MOVE)}
        died.update(r.id for r in self.ledger.charge_many(idle, ChargeKind.IDLE))
        for robot in team:
            rid = robot.id
            if rid in moved:
                self._emit(EventKind.MOVE, (rid,),
                           f"to=({robot.pos.x:.3f},{robot.pos.y:.3f})")
            if rid in died:
                self._bury(rid)
            mark = self._goal_mark[rid]
            if robot.goal is not None or mark is not None:  # else stays (None, 0)
                self._goal_mark[rid], self._stall[rid] = track_progress(
                    mark, self._stall[rid], robot.pos, robot.goal)

    # phase 7: completion and timeout checks
    def _phase_tasks(self) -> None:
        self.active, ended = task_outcomes(self.active, self.tasks, self.members_of,
                                           self.robots, self.tick_no, _ARRIVAL_TOLERANCE)
        for tid, completed in ended.items():
            members = tuple(self.members_of.get(tid, ()))
            if completed:
                self._emit(EventKind.TASK_COMPLETED, members)
            else:
                self._emit(EventKind.TASK_TIMED_OUT, members, f"task={tid}")
            for rid in members:
                self._release(rid)

    # ------------------------------------------------------------------- run

    def finished(self) -> bool:
        # with no tasks at all nothing can arrive, so the run is over too
        return not self._team()[0] or not (self.pending or self.active)

    def metrics(self) -> RunMetrics:
        return RunMetrics.count(self.events, self.ledger,
                                [r.battery for r in self.robots.values()], self.tick_no,
                                self.total_distance, self.max_negotiation_iterations)


def run(scenario: Scenario) -> tuple[RunMetrics, list[TraceEvent]]:
    """Execute a scenario to completion; deterministic in the scenario."""
    engine = Engine(scenario)
    while engine.tick_no < scenario.max_ticks and not engine.finished():
        engine.tick()
    return engine.metrics(), engine.events
