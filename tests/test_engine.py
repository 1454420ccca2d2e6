import copy
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

import swarmplan.cata
import swarmplan.engine
from swarmplan.comms import DisconnectedGraphError, GossipStalledError
from swarmplan.engine import Engine, EventKind, run
from swarmplan.negotiation import Phase
from swarmplan.priority import PriorityLaw
from swarmplan.scenario import RobotSpec, Scenario
from swarmplan.world import (EnergyModel, Position, Task, euclidean, left_sum,
                             polygon_vertices)
from helpers import is_quiet, lockstep, low_battery, suite_scenario, tick_state


def scenario(robots, tasks, **overrides):
    fields = dict(world_size=30.0, robots=robots, tasks=tasks,
                  law=PriorityLaw.T_LOW_E, formation_radius=4.0,
                  safety_radius=0.5, max_ticks=500)
    fields.update(overrides)
    return Scenario(**fields)


def task(tid, x, y, required=1, duration=2, timeout=100, arrival_tick=0):
    return Task(id=tid, center=Position(x, y), required=required,
                duration=duration, timeout=timeout, arrival_tick=arrival_tick)


class TestSingleRobot:
    def test_no_tasks_finishes_at_tick_zero(self):
        # nothing can ever arrive, so the run must not idle the batteries flat
        s = scenario([RobotSpec(1, 5.0, 5.0, 90.0), RobotSpec(2, 9.0, 5.0, 0.5)],
                     [], max_ticks=5000)
        engine = Engine(s)
        assert engine.finished()
        metrics, events = run(s)
        assert events == []
        assert metrics.ticks_elapsed == 0
        assert metrics.energy_idle == metrics.energy_comm == 0.0
        assert (metrics.residual_max, metrics.residual_min) == (90.0, 0.5)

    def test_reaches_slot_in_three_ticks(self):
        # vertex sits due North of the center at the formation radius:
        # center (5,2), radius 4 -> vertex (5,6); robot starts 3 m away
        s = scenario([RobotSpec(1, 5.0, 9.0, 90.0)],
                     [task(1, 5.0, 2.0, duration=2)])
        engine = Engine(s)
        for _ in range(3):
            engine.tick()
        assert engine.robots[1].pos == Position(5.0, 6.0)
        assert engine.robots[1].pos == engine.robots[1].goal
        for _ in range(2):
            engine.tick()
        metrics = engine.metrics()
        assert metrics.tasks_completed == 1
        assert metrics.total_distance == pytest.approx(3.0)

    def test_withdrawn_robot_lets_task_time_out(self):
        s = scenario([RobotSpec(1, 5.0, 9.0, 4.9)],
                     [task(1, 5.0, 2.0, timeout=20)])
        metrics, events = run(s)
        assert metrics.tasks_completed == 0
        assert metrics.tasks_timed_out == 1
        assert any(e.kind is EventKind.TASK_TIMED_OUT for e in events)


class TestLoneNegotiation:
    """A robot that negotiates alone agrees with itself at no cost."""

    @pytest.mark.parametrize("robots", [
        [RobotSpec(1, 5.0, 9.0, 90.0)],
        # robot 1 dies paying for the first gossip round, leaving robot 2 alone
        [RobotSpec(1, 5.0, 9.0, 0.01), RobotSpec(2, 10.0, 9.0, 90.0)],
    ], ids=["one_robot", "partner_dies_in_gossip"])
    def test_no_event_no_cost_one_iteration(self, robots):
        metrics, events = run(scenario(robots, [task(1, 7.0, 2.0, timeout=60)]))
        kinds = [e.kind for e in events]
        assert kinds.count(EventKind.ROBOT_DEAD) == len(robots) - 1
        assert [e.detail for e in events if e.kind is EventKind.AGREE] == \
            ["phase=selection", "phase=formation task=1"]
        assert EventKind.NEGOTIATE not in kinds
        assert metrics.energy_comm_negotiation == 0.0
        assert metrics.max_negotiation_iterations == 1
        assert metrics.tasks_completed == 1


class TestDynamics:
    def test_arrival_revealed_to_one_then_gossiped(self):
        s = scenario([RobotSpec(1, 1.0, 1.0, 90.0),
                      RobotSpec(2, 20.0, 20.0, 90.0)],
                     [task(1, 18.0, 18.0, arrival_tick=3, timeout=200)])
        engine = Engine(s)
        for _ in range(3):
            engine.tick()
        assert engine.known == frozenset()
        engine.tick()
        arrived = [e for e in engine.events if e.kind is EventKind.TASK_ARRIVED]
        assert len(arrived) == 1
        assert arrived[0].tick == 3
        assert arrived[0].detail == "revealed_to=2"   # nearest robot only
        # gossip inside the same tick spreads it to everyone
        assert (3, EventKind.GOSSIP, (1, 2), "rounds=1") in engine.events
        assert engine.known == frozenset({1})

    def test_tasks_listed_out_of_id_order_arrive_on_time(self):
        # the scenario lists tasks in arrival order, not in id order; tasks
        # due in one tick arrive in ascending ids
        s = scenario([RobotSpec(1, 2.0, 2.0, 90.0),
                      RobotSpec(2, 6.0, 2.0, 90.0),
                      RobotSpec(3, 10.0, 2.0, 90.0)],
                     [task(3, 15.0, 25.0, timeout=300),
                      task(2, 6.0, 12.0, arrival_tick=20, timeout=300),
                      task(1, 24.0, 12.0, arrival_tick=20, timeout=300)])
        engine, _ = lockstep(s)
        assert [(e.tick, e.subjects[0]) for e in engine.events
                if e.kind is EventKind.TASK_ARRIVED] == [(0, 3), (20, 1), (20, 2)]

    def test_dynamic_styles_emit_arrivals(self):
        s = suite_scenario("t_low_e", "R15+T3", "1+1+1", seed=0)
        metrics, events = run(s)
        arrivals = [e for e in events if e.kind is EventKind.TASK_ARRIVED]
        assert [e.tick for e in arrivals] == [0, 60, 120]
        assert metrics.tasks_completed == 3

    def test_preemption_regroups_en_route_robots(self):
        s = scenario([RobotSpec(1, 2.0, 2.0, 90.0),
                      RobotSpec(2, 4.0, 2.0, 80.0),
                      RobotSpec(3, 6.0, 2.0, 70.0)],
                     [task(1, 15.0, 25.0, required=2, timeout=300),
                      task(2, 4.0, 10.0, arrival_tick=4, timeout=300)])
        engine = Engine(s)
        for _ in range(4):
            engine.tick()
        groups_before = {rid: engine.robots[rid].group for rid in (1, 2, 3)}
        engine.tick()  # task 2 arrives: everyone re-selects over both tasks
        assert any(engine.robots[rid].group == 2 for rid in (1, 2, 3))
        assert groups_before != {rid: engine.robots[rid].group
                                 for rid in (1, 2, 3)}
        while engine.tick_no < s.max_ticks and not engine.finished():
            engine.tick()
        assert engine.metrics().tasks_completed == 2

    def test_lower_task_id_is_served_first(self):
        # listed 5 then 2, both at tick 0, with robots for one of them and
        # task 5 the nearer: the task ids alone rank the tasks
        s = scenario([RobotSpec(1, 2.0, 2.0, 90.0),
                      RobotSpec(2, 4.0, 2.0, 80.0)],
                     [task(5, 8.0, 8.0, required=2, timeout=300),
                      task(2, 22.0, 22.0, required=2, timeout=300)])
        engine = Engine(s)
        engine.tick()
        assert {rid: r.group for rid, r in engine.robots.items()} == {1: 2, 2: 2}

    def test_later_arrival_with_lower_id_keeps_id_order(self):
        # task 2 arrives first; task 1 arrives at tick 4 and preempts, so
        # both tasks form again in that tick: task 1 must come first
        s = scenario([RobotSpec(1, 2.0, 2.0, 90.0),
                      RobotSpec(2, 4.0, 2.0, 80.0),
                      RobotSpec(3, 6.0, 2.0, 70.0),
                      RobotSpec(4, 8.0, 2.0, 60.0)],
                     [task(2, 15.0, 25.0, required=2, timeout=300),
                      task(1, 4.0, 10.0, required=2, arrival_tick=4, timeout=300)])
        metrics, events = run(s)
        formed: dict[int, list[int]] = {}
        for e in events:
            if e.kind is EventKind.AGREE and e.detail.startswith("phase=formation"):
                formed.setdefault(e.tick, []).append(int(e.detail.split("task=")[1]))
        assert formed[4] == [1, 2]
        assert all(tids == sorted(tids) for tids in formed.values())
        assert metrics.tasks_completed == 2


class TestTermination:
    def test_dead_robot_releases_assignments(self):
        s = scenario([RobotSpec(1, 5.0, 9.0, 0.2),
                      RobotSpec(2, 10.0, 9.0, 90.0)],
                     [task(1, 7.0, 2.0, timeout=60)])
        metrics, events = run(s)
        dead = [e for e in events if e.kind is EventKind.ROBOT_DEAD]
        assert len(dead) == 1 and dead[0].subjects == (1,)

    def test_death_in_gossip_charge_is_reported(self):
        # robot 1 can pay for one gossip round and no more
        s = scenario([RobotSpec(1, 5.0, 9.0, 0.01),
                      RobotSpec(2, 10.0, 9.0, 90.0)],
                     [task(1, 7.0, 2.0, timeout=60)])
        _, events = run(s)
        dead = [(e.tick, e.subjects) for e in events
                if e.kind is EventKind.ROBOT_DEAD]
        assert dead == [(0, (1,))]

    def test_death_in_comm_charge_releases_assignment(self):
        # costly gossip drains robot 1 en route to its slot at tick 2
        s = scenario([RobotSpec(1, 5.0, 9.0, 8.0),
                      RobotSpec(2, 10.0, 9.0, 90.0)],
                     [task(1, 7.0, 2.0, timeout=60)],
                     energy=EnergyModel(comm_cost=2.5))
        engine = Engine(s)
        engine.tick()
        assert engine.robots[1].group == 1
        while engine.robots[1].alive:
            engine.tick()
        dead = [(e.tick, e.subjects) for e in engine.events
                if e.kind is EventKind.ROBOT_DEAD]
        assert dead == [(2, (1,))]
        robot = engine.robots[1]
        assert (robot.group, robot.slot, robot.goal) == (None, None, None)
        assert engine.robots[2].group == 1

    def test_all_dead_terminates(self):
        s = scenario([RobotSpec(1, 5.0, 5.0, 0.1)], [task(1, 20.0, 20.0)],
                     max_ticks=100)
        metrics, _ = run(s)
        assert metrics.ticks_elapsed < 100
        assert metrics.residual_max == 0.0

    def test_tick_on_a_dead_team_changes_only_the_tick(self):
        # run stops once the team is dead; a tick called after that finds
        # no robot to gossip with, plan for, move or charge
        s = scenario([RobotSpec(1, 5.0, 5.0, 0.01)], [task(1, 20.0, 20.0)])
        engine = Engine(s)
        engine.tick()
        assert engine.finished() and engine.active
        before = copy.deepcopy(tick_state(engine))
        engine.tick()
        after = tick_state(engine)
        assert after[0] == before[0] + 1
        assert after[1:] == before[1:]


class TestInvariants:
    def test_run_is_deterministic(self):
        s = suite_scenario("low_e", "R10+T2", "static", seed=2)
        m1, e1 = run(s)
        m2, e2 = run(s)
        assert m1 == m2
        assert [ev.to_json() for ev in e1] == [ev.to_json() for ev in e2]

    def test_events_ordered_by_tick(self):
        _, events = run(suite_scenario("t_low_e", "R5+T1", "static", seed=0))
        ticks = [e.tick for e in events]
        assert ticks == sorted(ticks)

    def test_ledger_conservation_after_run(self):
        s = suite_scenario("high_e", "R10+T2", "static", seed=1)
        engine = Engine(s)
        while engine.tick_no < s.max_ticks and not engine.finished():
            engine.tick()
        for robot in engine.robots.values():
            assert engine.ledger.conservation_error(robot) <= 1e-9

    def test_residual_ordering(self):
        metrics, _ = run(suite_scenario("t_low_e", "R10+T2", "static", seed=0))
        assert metrics.residual_max >= metrics.residual_mean >= metrics.residual_min

    def test_batteries_never_increase(self):
        s = suite_scenario("cata_u", "R5+T1", "static", seed=0)
        engine = Engine(s)
        previous = {rid: r.battery for rid, r in engine.robots.items()}
        while engine.tick_no < s.max_ticks and not engine.finished():
            engine.tick()
            for rid, robot in engine.robots.items():
                assert robot.battery <= previous[rid] + 1e-12
                previous[rid] = robot.battery

    def test_conflict_negotiation_off_skips_conflict_events(self):
        s = suite_scenario("t_low_e", "R10+T2", "static", seed=0,
                           conflict_negotiation=False)
        metrics, events = run(s)
        assert metrics.conflict_frequency == 0
        assert not any(e.kind is EventKind.CONFLICT_DETECTED for e in events)
        assert metrics.energy_comm_negotiation < metrics.energy_comm


def record_plans(monkeypatch, law, phase, module, name):
    """Run R20+T3 static seed 0 under ``law``, recording every plan that
    ``module.name`` computes and every negotiation of ``phase``: its plans
    computed by then, its members' proposals and its result."""
    plans, negotiations = [], []
    plan, negotiate = getattr(module, name), swarmplan.engine.negotiate

    def counted(*args, **kwargs):
        plans.append(plan(*args, **kwargs))
        return plans[-1]

    def recording(at, group, graph, order, planner, knowledge):
        proposals = []

        def recorded(member, know, depth):
            proposals.append(planner(member, know, depth))
            return proposals[-1]
        result = negotiate(at, group, graph, order, recorded, knowledge)
        if at is phase:
            negotiations.append((len(plans), proposals, result))
        return result

    monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(swarmplan.engine, "negotiate", recording)
    run(suite_scenario(law, "R20+T3", "static", 0))
    return plans, negotiations


def assert_one_plan_per_negotiation(plans, negotiations):
    """The k-th plan is computed right before the k-th negotiation, every
    member proposes it and the negotiation agrees on it in one iteration."""
    assert negotiations
    assert len(plans) == len(negotiations)
    for k, (made, proposals, result) in enumerate(negotiations):
        assert made == k + 1
        assert result.iterations == 1
        assert proposals and all(plan is plans[k] for plan in proposals)
        assert result.payload is plans[k]


class TestSelectionPlans:
    """Gossip leaves every member knowing every arrived task, so the engine
    keeps one known-task set and selection computes one plan for it right
    before each negotiation."""

    @pytest.mark.parametrize("law, module, name", [
        ("t_low_e", swarmplan.engine, "select"),
        ("cata_u", swarmplan.cata, "cata_select"),
    ])
    def test_one_plan_per_known_task_set(self, monkeypatch, law, module, name):
        assert_one_plan_per_negotiation(
            *record_plans(monkeypatch, law, Phase.SELECTION, module, name))


class TestFormationPlans:
    def test_one_assignment_per_distinct_knowledge(self, monkeypatch):
        """With one knowledge set, each formation group computes one
        assignment of its own robots, which every member proposes."""
        plans, negotiations = record_plans(monkeypatch, "t_low_e", Phase.FORMATION,
                                           swarmplan.engine, "formation_assign")
        assert_one_plan_per_negotiation(plans, negotiations)
        for plan, (_, proposals, _) in zip(plans, negotiations):
            assert len(proposals) == len(plan.slot_of)  # each member, one iteration

    def test_robot_killed_negotiating_formation_is_not_in_agree(self):
        """Robot 2 pays for the formation negotiation with its last energy:
        the negotiation names it, its agreement does not, and it takes no
        slot."""
        s = scenario([RobotSpec(1, 2.0, 2.0, 90.0), RobotSpec(2, 12.0, 6.0, 8.0),
                      RobotSpec(3, 10.0, 2.0, 90.0)],
                     [task(1, 12.0, 12.0, required=2, duration=5, timeout=200)],
                     world_size=24.0, safety_radius=1.0,
                     energy=EnergyModel(comm_cost=3.0))
        engine = Engine(s)
        engine.tick()
        formation = [(e.kind, e.subjects) for e in engine.events
                     if e.detail.startswith("phase=formation")]
        assert formation == [(EventKind.NEGOTIATE, (1, 2)), (EventKind.AGREE, (1,))]
        assert (0, EventKind.ROBOT_DEAD, (2,), "") in engine.events
        assert engine.robots[1].slot is not None
        assert engine.robots[2].slot is None


class TestQuietTicks:
    """A quiet tick (no task active, none due) plans and routes nothing; with
    every phase forced instead, a run leaves the same state."""

    @pytest.mark.parametrize("seed", [0, 2, 5])
    def test_quiet_path_equals_all_seven_phases(self, seed):
        # staged arrivals on low batteries: robots die inside quiet ticks
        s = low_battery("t_low_e", seed, 0.01, style="1+1+1")
        engine, quiet = lockstep(s)
        assert any(e.kind is EventKind.ROBOT_DEAD for e in quiet)
        metrics, events = run(s)
        assert repr(engine.metrics()) == repr(metrics)
        assert [e.to_json() for e in engine.events] == [e.to_json() for e in events]

    def test_run_calls_tick_once_per_tick(self, monkeypatch):
        quiet = []  # per call, whether the tick was quiet
        tick = Engine.tick

        def counted(self):
            quiet.append(is_quiet(self))
            tick_no = self.tick_no
            tick(self)
            assert self.tick_no == tick_no + 1

        monkeypatch.setattr(Engine, "tick", counted)
        metrics, _ = run(suite_scenario("t_low_e", "R20+T3", "1+1+1", 0))
        assert len(quiet) == metrics.ticks_elapsed
        assert any(quiet) and not all(quiet)


class TestRoutingResult:
    @pytest.mark.parametrize("negotiation", [True, False])
    def test_only_the_robots_routing_moves(self, negotiation):
        # robot 1 stands on its vertex, robot 2 walks to the other one and
        # robot 3 idles far from both vertices and from robot 2
        north, south = polygon_vertices(Position(10.0, 10.0), 2, 4.0)
        s = scenario([RobotSpec(1, north.x, north.y, 90.0),
                      RobotSpec(2, 10.0, 2.0, 90.0),
                      RobotSpec(3, 28.0, 28.0, 90.0)],
                     [task(1, 10.0, 10.0, required=2)],
                     conflict_negotiation=negotiation)
        engine = Engine(s)
        engine._phase_arrivals()
        graph = engine._phase_gossip()
        engine._phase_selection(graph)
        engine._phase_formation(graph)
        robots = engine.robots
        assert (robots[1].group, robots[1].goal) == (1, robots[1].pos)
        assert robots[2].goal == south
        assert robots[3].group is None
        assert engine._phase_routing() == {2: Position(10.0, 3.0)}

    def test_only_the_movers_are_ranked(self, monkeypatch):
        # robot 1 stands on the north vertex; robot 2's first step toward
        # the south one passes within 2r of it, so both form one cluster
        north, _ = polygon_vertices(Position(10.0, 10.0), 2, 4.0)
        s = scenario([RobotSpec(1, north.x, north.y, 90.0),
                      RobotSpec(2, 10.5, 15.2, 90.0),
                      RobotSpec(3, 28.0, 28.0, 90.0)],
                     [task(1, 10.0, 10.0, required=2)])
        engine = Engine(s)
        engine._phase_arrivals()
        graph = engine._phase_gossip()
        engine._phase_selection(graph)
        engine._phase_formation(graph)
        assert engine.robots[1].pos == engine.robots[1].goal
        ranked = []
        sort_queue = swarmplan.engine.sort_queue

        def recording(candidates, context, order):
            ranked.append(sorted(candidates))
            return sort_queue(candidates, context, order)

        monkeypatch.setattr(swarmplan.engine, "sort_queue", recording)
        start = len(engine.events)
        assert set(engine._phase_routing()) == {2}
        assert [(e.kind, e.subjects) for e in engine.events[start:]] == [
            (EventKind.CONFLICT_DETECTED, (1, 2))]
        assert ranked == [[2]]

    def test_cluster_events_list_ids_and_priority(self, monkeypatch):
        # robot 8 steps east toward robot 2, which steps west into it, and
        # robot 1 steps south across robot 2's path: one cluster, whose
        # frozenset iterates 8 first. Under low_e, 8 ranks first and steps
        # clear, so 2 and then 1 stop
        s = scenario([RobotSpec(1, 12.2, 11.3, 90.0), RobotSpec(2, 12.2, 10.0, 60.0),
                      RobotSpec(8, 10.0, 10.0, 30.0)], [], law=PriorityLaw.LOW_E)
        engine = Engine(s)
        for rid, goal in [(1, Position(12.2, 0.0)), (2, Position(0.0, 10.0)),
                          (8, Position(20.0, 10.0))]:
            engine.robots[rid].goal = goal
        clusters = []
        cluster_conflicts = swarmplan.engine.cluster_conflicts

        def recording(pairs):
            clusters.extend(cluster_conflicts(pairs))
            return clusters

        monkeypatch.setattr(swarmplan.engine, "cluster_conflicts", recording)
        final = engine._phase_routing()
        [cluster] = clusters
        assert cluster == {1, 2, 8} and list(cluster) != sorted(cluster)
        assert [(e.kind, e.subjects, e.detail) for e in engine.events] == [
            (EventKind.CONFLICT_DETECTED, (1, 2, 8), ""),
            (EventKind.STOP, (2,), "conflict"),
            (EventKind.STOP, (1,), "conflict")]
        assert final == {8: Position(11.0, 10.0), 2: Position(12.2, 10.0),
                         1: Position(12.2, 11.3)}

    def test_idle_robots_yield_in_scenario_order(self, monkeypatch):
        # the one place where the listed order of the robots is an input:
        # every other phase reads ascending ids
        s = scenario([RobotSpec(9, 3.0, 3.0, 90.0), RobotSpec(3, 27.0, 3.0, 80.0),
                      RobotSpec(6, 3.0, 27.0, 70.0), RobotSpec(1, 27.0, 27.0, 60.0)],
                     [task(1, 15.0, 15.0, required=1)])
        engine = Engine(s)
        idle_lists = []
        yield_steps = swarmplan.engine.yield_steps

        def recording(current, moves, idle, vertices, geometry):
            idle_lists.append(list(idle))
            return yield_steps(current, moves, idle, vertices, geometry)

        monkeypatch.setattr(swarmplan.engine, "yield_steps", recording)
        engine.tick()
        [idle] = idle_lists
        assert len(idle) == 3
        assert idle == [r.id for r in s.robots if engine.robots[r.id].group is None]
        assert idle != sorted(idle)


def ref_travelled(current, final):
    """Reference: the engine's former charge loop, which split the robots of
    ``final``, ascending ids, into movers (with their distance) and idlers."""
    movers = {}
    for rid in sorted(final):
        moved = euclidean(current[rid], final[rid])
        if moved > 0.0:
            movers[rid] = moved
    return movers


#: a body among the robots of ``charged``: it neither moves nor idles
BODY = 99


def charged(current, final):
    """One charge phase that ends a tick at ``final``, on an engine whose
    living robots stand at ``current`` (id -> Position) beside robot
    ``BODY``, which has no battery. Returns the engine and each MOVE's robot
    with the distance the phase measured for it, in the order emitted, and
    asserts that the ledger charged a move to exactly those robots and idle
    to exactly the other living ones."""
    s = scenario([RobotSpec(rid, 0.0, 0.0, 90.0) for rid in current]
                 + [RobotSpec(BODY, 0.0, 0.0, 0.0)], [], conflict_negotiation=False)
    engine = Engine(s)
    for rid, pos in current.items():
        engine.robots[rid].pos = pos
    measured = []

    def measuring(a, b):
        measured.append(euclidean(a, b))
        return measured[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(swarmplan.engine, "euclidean", measuring)
        engine._phase_charge(final)
    movers = [e.subjects[0] for e in engine.events if e.kind is EventKind.MOVE]
    assert len(engine.events) == len(movers)
    ledger = engine.ledger
    assert {rid for rid, spent in ledger.moving.items() if spent} == set(movers)
    assert {rid for rid, spent in ledger.idle.items() if spent} == set(current) - set(movers)
    return engine, list(zip(movers, measured, strict=True))


#: Finite coordinates from subnormal to 1e300, both signed zeros among them.
EDGE_COORDINATES = (st.floats(-1e300, 1e300) | st.floats(-1e-300, 1e-300)
                    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324]))


@st.composite
def edge_moves(draw):
    """Positions and final positions by id: each final coordinate is the
    position's own, its zero of the other sign, a float neighbour or any."""
    def partner(c):
        how = draw(st.sampled_from(["same", "signed zero", "up", "down", "any"]))
        if how == "any":
            return draw(EDGE_COORDINATES)
        return {"same": c, "signed zero": -c if c == 0.0 else c,
                "up": math.nextafter(c, math.inf),
                "down": math.nextafter(c, -math.inf)}[how]
    current = draw(st.dictionaries(st.integers(0, 30),
                                   st.tuples(EDGE_COORDINATES, EDGE_COORDINATES),
                                   max_size=8))
    return current, {rid: (partner(x), partner(y)) for rid, (x, y) in current.items()}


class TestChargePhase:
    """``_phase_charge`` walks the team once, ascending ids: a robot whose
    ``final`` entry differs from its position moves and pays a move, and
    every other living robot idles."""

    @staticmethod
    def check(current, final):
        """The phase moves, measures and charges as the reference says; the
        total adds the distances up in ascending ids, and a robot that does
        not move keeps its own position, signed zeros and all."""
        engine, moved = charged(current, final)
        expected = ref_travelled(current, final)
        assert moved == list(expected.items())
        assert engine.total_distance.hex() == left_sum(expected.values()).hex()
        assert [repr(engine.robots[rid].pos) for rid in current] == [
            repr(final[rid] if rid in expected else pos) for rid, pos in current.items()]

    def test_movers_with_their_distance_in_id_order(self):
        current = {3: Position(0, 0), 1: Position(5, 5), 2: Position(1, 1)}
        final = {3: Position(3, 4), 1: Position(5, 5), 2: Position(1, 2)}
        engine, moved = charged(current, final)
        assert moved == [(2, 1.0), (3, 5.0)]
        assert engine.total_distance == 6.0
        assert [e.detail for e in engine.events] == ["to=(1.000,2.000)",
                                                     "to=(3.000,4.000)"]

    def test_robots_outside_final_idle(self):
        # routing places only the robots it tried to move, never a body
        engine, moved = charged({1: Position(0, 0), 2: Position(4, 4)},
                                {1: Position(0, 1)})
        assert moved == [(1, 1.0)]
        assert engine.robots[2].pos == Position(4, 4)

    @given(st.dictionaries(st.integers(0, 30),
                           st.tuples(st.floats(0, 30), st.floats(0, 30),
                                     st.sampled_from([0.0, 1e-300, 0.5, 2.0]),
                                     st.floats(0, 6.3)), max_size=8))
    @settings(deadline=None, max_examples=200)
    def test_matches_reference(self, robots):
        current = {rid: Position(x, y) for rid, (x, y, _, _) in robots.items()}
        final = {rid: Position(x + d * math.cos(a), y + d * math.sin(a))
                 for rid, (x, y, d, a) in robots.items()}
        self.check(current, final)

    @given(edge_moves())
    @example(({1: (0.0, -0.0), 2: (1.0, 2.0), 3: (3.0, 4.0), 4: (0.0, 0.0)},
              {1: (-0.0, 0.0), 2: (math.nextafter(1.0, 2.0), 2.0), 3: (3.0, 4.0),
               4: (5e-324, 0.0)}))
    @settings(deadline=None, max_examples=200)
    def test_matches_measured_definition_at_float_edges(self, moves):
        current, final = ({rid: Position(x, y) for rid, (x, y) in points.items()}
                          for points in moves)
        self.check(current, final)


#: low-battery runs in which a robot dies paying for a conflict cluster's
#: negotiation while it was about to move
CLUSTER_DEATHS = [("t_low_e", 20, 0.1), ("low_e", 22, 0.03),
                  ("cata_u", 59, 0.1), ("cata_u", 140, 0.1)]


class TestTickView:
    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("law, seed, comm_cost", CLUSTER_DEATHS)
    def test_view_matches_fresh_scan_every_tick(self, law, seed, comm_cost, shuffle):
        engine = Engine(low_battery(law, seed, comm_cost, shuffle))
        while True:
            alive = [r for r in engine.robots.values() if r.alive]
            team = sorted(alive, key=lambda r: r.id)
            assert engine._team() == (team, tuple(r.id for r in team))
            members: dict[int, list[int]] = {}
            for rid in sorted(engine.robots):
                robot = engine.robots[rid]
                if robot.alive and robot.group is not None:
                    members.setdefault(robot.group, []).append(rid)
            assert engine.members_of == members
            assert all(engine.members_of.values())
            if not alive:
                assert engine.finished()
            if engine.tick_no >= engine.scenario.max_ticks or engine.finished():
                break
            engine.tick()
        assert any(e.kind is EventKind.ROBOT_DEAD for e in engine.events)

    def test_member_with_a_lower_id_joins_in_order(self):
        # a task arriving mid-run releases the members still en route; one of
        # them can rejoin its team behind members with higher ids
        s = suite_scenario("cata_u", "R20+T3", "1+1+1", 3)
        engine = Engine(s)
        joined_below = False
        while engine.tick_no < s.max_ticks and not engine.finished():
            start = len(engine.events)
            engine.tick()
            joined = {rid for e in engine.events[start:] if e.kind is EventKind.AGREE
                      and e.detail == "phase=selection" for rid in e.subjects}
            for tid, members in engine.members_of.items():
                kept = set(members) - joined
                joined_below |= any(rid < max(kept, default=0) for rid in joined
                                    if rid in members)
                assert members == sorted(rid for rid in engine.robots
                                         if engine.robots[rid].alive
                                         and engine.robots[rid].group == tid)
        assert joined_below


class TestClusterChargeDeath:
    @pytest.mark.parametrize("law, seed, comm_cost", CLUSTER_DEATHS)
    def test_robot_killed_by_cluster_charge_stands_still(self, monkeypatch, law,
                                                         seed, comm_cost):
        s = low_battery(law, seed, comm_cost)
        placed = []  # the robots alive as routing starts, per tick
        killed = []  # robots that died during routing
        routing = Engine._phase_routing

        def recording(self):
            start = len(self.events)
            placed.append(sorted(rid for rid, r in self.robots.items() if r.alive))
            final = routing(self)
            killed.extend(e.subjects[0] for e in self.events[start:]
                          if e.kind is EventKind.ROBOT_DEAD)
            return final

        monkeypatch.setattr(Engine, "_phase_routing", recording)
        engine = Engine(s)
        while engine.tick_no < s.max_ticks and not engine.finished():
            start = len(engine.events)
            engine.tick()
            dead = set()
            for event in engine.events[start:]:
                if event.kind is EventKind.ROBOT_DEAD:
                    dead.add(event.subjects[0])
                elif event.kind is EventKind.MOVE:
                    assert event.subjects[0] not in dead, event
            ids = placed[-1]
            for i, a in enumerate(ids):
                for b in ids[i + 1:]:
                    assert euclidean(engine.robots[a].pos, engine.robots[b].pos) \
                        >= 2.0 * s.safety_radius, (engine.tick_no, a, b)
        assert killed


class TestCommView:
    """The tick view's comm graph and gossip rounds: a run that refills them
    before every tick is byte-identical to one that keeps them."""

    @staticmethod
    def outcome(monkeypatch, s, refill):
        """(last tick, metrics or error, trace, graphs built) of one run."""
        graphs = []
        build = swarmplan.engine.build_graph

        def recording(robots, comm_range):
            graph = build(robots, comm_range)
            graphs.append(graph)
            return graph

        monkeypatch.setattr(swarmplan.engine, "build_graph", recording)
        engine = Engine(s)
        try:
            while engine.tick_no < s.max_ticks and not engine.finished():
                if refill:
                    engine._comm_view = None
                engine.tick()
            result = repr(engine.metrics())
        except (DisconnectedGraphError, GossipStalledError) as exc:
            result = f"{type(exc).__name__}: {exc}"
        monkeypatch.undo()
        return (engine.tick_no, result, [e.to_json() for e in engine.events],
                graphs)

    def test_complete_range_builds_the_graph_once(self, monkeypatch):
        s = suite_scenario("t_low_e", "R20+T3", "1+1+1", 0)
        tick_no, _, trace, graphs = self.outcome(monkeypatch, s, refill=False)
        assert tick_no > 100 and "robot_dead" not in "".join(trace)
        assert len(graphs) == 1

    @pytest.mark.parametrize("build, changes", [
        (lambda: suite_scenario("t_low_e", "R20+T3", "1+1+1", 0), "nothing"),
        (lambda: suite_scenario("t_low_e", "R20+T3", "static", 1, comm_range=14.0),
         "graph"),
        (lambda: low_battery("t_low_e", 20, 0.1), "team"),
    ], ids=["complete", "finite", "deaths"])
    def test_refilled_every_tick_is_identical(self, monkeypatch, build, changes):
        kept = self.outcome(monkeypatch, build(), refill=False)
        refilled = self.outcome(monkeypatch, build(), refill=True)
        assert kept[:3] == refilled[:3]
        assert kept[1].startswith("RunMetrics(")
        assert len(kept[3]) < len(refilled[3]) == kept[0]
        # what each run exercises: moves at a finite range change the graph,
        # deaths shrink the gossiping team
        graphs = {tuple(sorted(g.adjacency.items())) for g in kept[3]}
        teams = {len(json.loads(line)["subjects"]) for line in kept[2]
                 if json.loads(line)["kind"] == "gossip"}
        assert (len(graphs) > 1, len(teams) > 1) == {
            "nothing": (False, False), "graph": (True, False),
            "team": (True, True)}[changes]

    @pytest.mark.parametrize("build, error", [
        (lambda: suite_scenario("t_low_e", "R20+T3", "1+1+1", 0, comm_range=10.0),
         DisconnectedGraphError),
        (lambda: suite_scenario("t_low_e", "R20+T3", "1+1+1", 2, comm_range=12.0),
         GossipStalledError),
    ], ids=["disconnected", "stalled"])
    def test_refilled_every_tick_raises_alike(self, monkeypatch, build, error):
        kept = self.outcome(monkeypatch, build(), refill=False)
        refilled = self.outcome(monkeypatch, build(), refill=True)
        assert kept[:3] == refilled[:3]
        assert kept[1].startswith(error.__name__) and kept[0] > 0
