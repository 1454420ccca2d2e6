from swarmplan.trace import EventKind, RunMetrics, TraceEvent
from swarmplan.world import ChargeKind, EnergyLedger, EnergyModel, left_sum
from helpers import make_robot


def test_metrics_count_the_trace_and_add_up_the_ledger():
    robots = [make_robot(1, battery=10.0), make_robot(2, battery=0.05)]
    ledger = EnergyLedger(EnergyModel(), robots)
    ledger.charge_many(robots, ChargeKind.MOVE)  # robot 2 dies
    ledger.charge_many(robots[:1], ChargeKind.IDLE)
    ledger.charge_many(robots[:1], ChargeKind.COMM_ROUND, times=2)
    ledger.charge_many(robots[:1], ChargeKind.COMM_ROUND, task_of={1: 7}, times=3)
    events = [TraceEvent(0, EventKind.CONFLICT_DETECTED, (1, 2)),
              TraceEvent(0, EventKind.ROBOT_DEAD, (2,)),
              TraceEvent(1, EventKind.TASK_COMPLETED, (1,)),
              TraceEvent(2, EventKind.TASK_TIMED_OUT, (), "task=3"),
              TraceEvent(2, EventKind.CONFLICT_DETECTED, (1, 2))]
    batteries = [r.battery for r in robots]
    metrics = RunMetrics.count(events, ledger, batteries, 3, 4.5, 2)
    assert metrics == RunMetrics(
        conflict_frequency=2,
        energy_moving=left_sum([0.1, 0.05]),
        energy_idle=0.04,
        energy_comm=left_sum(ledger.comm_gossip.values())
        + left_sum(ledger.comm_negotiation.values()),
        energy_comm_negotiation=left_sum(ledger.comm_negotiation.values()),
        total_distance=4.5,
        per_task_comm={7: ledger.per_task_comm[7]},
        residual_max=batteries[0],
        residual_min=0.0,
        residual_mean=batteries[0] / 2,
        ticks_elapsed=3,
        tasks_completed=1,
        tasks_timed_out=1,
        max_negotiation_iterations=2,
    )
    assert ledger.comm_gossip[1] > 0.0 and ledger.comm_negotiation[1] > 0.0


def test_event_json_line():
    event = TraceEvent(4, EventKind.MOVE, (3,), "to=(1.000,2.000)")
    assert event.to_json() == ('{"detail": "to=(1.000,2.000)", "kind": "move", '
                               '"subjects": [3], "tick": 4}')
