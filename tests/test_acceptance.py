"""Acceptance gate: eleven pass/fail criteria over the full suite.

Each test prints one summary line. The heavy sweeps (static law
comparison, scale growth, dynamic styles) are computed once per session
and shared across criteria.
"""

import random
import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmplan.comms import CommGraph, gossip
from swarmplan.engine import Engine, run
from swarmplan.formation import DistanceMatrix, formation_assign
from swarmplan.negotiation import AgreementOutcome, Phase, Proposal, agreement
from swarmplan.priority import PriorityLaw
from swarmplan.selection import select
from swarmplan.sweep import SweepSpec, rows_to_csv, run_sweep, CSV_COLUMNS
from swarmplan.world import EnergyModel, Position, Task, euclidean
from oracles import hungarian_oracle, plan_cost, plan_total, selection_oracle
from helpers import (ALL_LAWS, TEMPLATE, eccentricity, make_robot,
                     random_connected_graph, suite_scenario)

SEEDS = range(10)

#: Scenarios exercised tick-by-tick for the exact-invariant criteria
#: (ledger, separation, negotiation depth): every law, static and dynamic.
SUITE = [
    ("t_low_e", "R20+T4", "static", 0),
    ("high_e", "R20+T3", "static", 1),
    ("low_e", "R10+T2", "static", 3),
    ("cata_u", "R20+T3", "static", 2),
    ("t_low_e", "R15+T3", "1+1+1", 0),
    ("t_high_e", "R15+T3", "2+1", 1),
]


def _stepped_engines():
    """Run every suite scenario tick-by-tick, recording positions per tick."""
    out = []
    for law, scale, style, seed in SUITE:
        scenario = suite_scenario(law, scale, style, seed)
        engine = Engine(scenario)
        positions = []
        while engine.tick_no < scenario.max_ticks and not engine.finished():
            engine.tick()
            positions.append({r.id: r.pos for r in engine.robots.values()
                              if r.alive})
        out.append((scenario, engine, positions))
    return out


@pytest.fixture(scope="module")
def stepped(request):
    return _stepped_engines()


def _sweep(laws, scales, styles, **template_overrides):
    spec = SweepSpec(template={**TEMPLATE, **template_overrides}, laws=laws,
                     scales=scales, styles=styles, trials=10, base_seed=0)
    rows, task_rows = run_sweep(spec)
    assert not any(r["error"] for r in rows), \
        [r["error"] for r in rows if r["error"]]
    return rows, task_rows


@pytest.fixture(scope="module")
def static_rows():
    """10 trials x 5 laws, 20 robots, 3 static tasks (shared by 7 and 9)."""
    rows, _ = _sweep(ALL_LAWS, ["R20+T3"], ["static"])
    return rows


@pytest.fixture(scope="module")
def scale_rows():
    rows, _ = _sweep(["t_low_e"], ["R5+T1", "R10+T2", "R15+T3", "R20+T4"],
                     ["static"])
    return rows


@pytest.fixture(scope="module")
def dynamic_rows():
    """Dynamic styles with and without routing-conflict negotiation."""
    styles = ["1+1+1", "2+1", "1+2"]
    with_conflict, _ = _sweep(["t_low_e"], ["R20+T3"], styles)
    without_conflict, _ = _sweep(["t_low_e"], ["R20+T3"], styles,
                                 conflict_negotiation=False)
    return with_conflict, without_conflict


def _mean(rows, key, **match):
    picked = [float(r[key]) for r in rows
              if all(str(r[k]) == str(v) for k, v in match.items())]
    assert picked
    return statistics.fmean(picked)


def test_criterion_01_energy_ledger_exact(stepped):
    worst = 0.0
    for _, engine, _ in stepped:
        for robot in engine.robots.values():
            worst = max(worst, engine.ledger.conservation_error(robot))
    assert worst <= 1e-9
    print(f"\ncriterion 1 PASS: ledger conservation, worst error {worst:.3e}"
          f" <= 1e-9 over {len(stepped)} runs")


def test_criterion_02_gossip_round_bounds():
    rng = random.Random(2024)
    checked = 0
    for _ in range(100):
        n = rng.randrange(1, 31)
        graph = random_connected_graph(rng, n)
        group = set(range(n))
        equilibrium, rounds = gossip({i: f"d{i}" for i in group}, graph, group)
        reference = equilibrium[0].items
        assert len(reference) == n
        assert all(equilibrium[i].items == reference for i in group)
        assert rounds <= eccentricity(graph, group)
        checked += 1
    # complete graphs take exactly one round; singletons take none
    for n in (2, 7, 30):
        ids = frozenset(range(n))
        complete = CommGraph({i: ids - {i} for i in ids})
        _, rounds = gossip({i: i for i in ids}, complete, set(ids))
        assert rounds == 1
    _, rounds = gossip({0: "x"}, CommGraph({0: frozenset()}), {0})
    assert rounds == 0
    print(f"\ncriterion 2 PASS: {checked} random connected graphs reach"
          " set-equal knowledge within eccentricity; complete==1, singleton==0")


@given(st.lists(st.sampled_from(["p", "q", "r", "s"]), min_size=1, max_size=10))
@settings(deadline=None, max_examples=200)
def test_criterion_03a_agreement_sound(payloads):
    proposals = [Proposal(phase=Phase.SELECTION, proposer=i, payload=p)
                 for i, p in enumerate(payloads)]
    outcome = agreement(proposals)
    assert (outcome is AgreementOutcome.END) == (len(set(payloads)) == 1)


def test_criterion_03b_negotiation_depth(stepped):
    worst = max(engine.max_negotiation_iterations for _, engine, _ in stepped)
    assert worst <= 2
    print("\ncriterion 3 PASS: agreement END iff identical payloads;"
          f" negotiation converged in <= {worst} iterations on every run")


def test_criterion_04_safety_separation(stepped):
    worst = float("inf")
    for scenario, _, history in stepped:
        limit = 2.0 * scenario.safety_radius
        for tick_positions in history:
            ids = sorted(tick_positions)
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    d = euclidean(tick_positions[ids[a]],
                                  tick_positions[ids[b]])
                    worst = min(worst, d)
                    assert d >= limit, \
                        f"{ids[a]}-{ids[b]} at {d:.6f} < {limit}"
    print(f"\ncriterion 4 PASS: pairwise separation >= 2*safety_radius every"
          f" tick; closest approach {worst:.6f} m")


def test_criterion_05_formation_oracle():
    rng = random.Random(5)
    for trial in range(500):
        n = rng.randrange(1, 9)
        matrix = DistanceMatrix(
            robot_ids=tuple(range(1, n + 1)),
            entries=np.array(
                [[rng.uniform(0, 40) for _ in range(n)] for _ in range(n)]))
        plan = formation_assign(list(matrix.robot_ids), matrix)
        _, optimal = hungarian_oracle(matrix)
        assert plan_total(plan, matrix) >= optimal - 1e-9
    # diagonal-dominant instances: greedy finds the optimum
    for trial in range(50):
        n = rng.randrange(1, 9)
        entries = [[rng.uniform(10, 40) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            entries[i][i] = rng.uniform(0, 1)
        matrix = DistanceMatrix(robot_ids=tuple(range(1, n + 1)),
                                entries=np.array(entries))
        plan = formation_assign(list(matrix.robot_ids), matrix)
        _, optimal = hungarian_oracle(matrix)
        assert plan_total(plan, matrix) == pytest.approx(optimal)
    print("\ncriterion 5 PASS: greedy >= optimal on 500 random matrices;"
          " equality on 50 diagonal-dominant instances")


def test_criterion_06_selection_oracle():
    rng = random.Random(6)
    model = EnergyModel()
    checked = 0
    while checked < 200:
        n = rng.randrange(1, 9)
        k = rng.randrange(1, 4)
        if k > n:
            continue
        sizes, budget = [], n
        feasible = True
        for j in range(k):
            hi = budget - (k - 1 - j)
            if hi < 1:
                feasible = False
                break
            s = rng.randrange(1, hi + 1)
            sizes.append(s)
            budget -= s
        if not feasible:
            continue
        robots = [make_robot(i, rng.uniform(0, 30), rng.uniform(0, 30),
                             battery=rng.uniform(50, 100)) for i in range(n)]
        tasks = [Task(id=j + 1, center=Position(rng.uniform(0, 30),
                                                rng.uniform(0, 30)),
                      required=sizes[j], duration=1, timeout=100)
                 for j in range(k)]
        context = {r.id: {"battery": r.battery, "task_rank": 0.0,
                          "utility": 0.0} for r in robots}
        law = rng.choice(list(PriorityLaw))
        if law is PriorityLaw.CATA_U:
            law = PriorityLaw.LOW_E
        plan = select(robots, tasks, law, model, context)
        for t in tasks:
            assert len(plan.group(t.id)) == t.required
        _, oracle_cost = selection_oracle(robots, tasks, model)
        assert plan_cost(plan, robots, tasks, model) >= oracle_cost - 1e-9
        checked += 1
    print("\ncriterion 6 PASS: select feasible and never below the"
          " exhaustive oracle on 200 random instances")


def test_criterion_07_conflict_ordering(static_rows):
    conf = {law: _mean(static_rows, "conflict_frequency", law=law)
            for law in ALL_LAWS}
    assert conf["t_low_e"] < conf["high_e"]
    assert conf["low_e"] < conf["cata_u"]
    print("\ncriterion 7 PASS: mean conflicts t_low_e"
          f" {conf['t_low_e']:.1f} < high_e {conf['high_e']:.1f};"
          f" low_e {conf['low_e']:.1f} < cata_u {conf['cata_u']:.1f}")


def test_criterion_08_scale_growth(scale_rows):
    scales = ["R5+T1", "R10+T2", "R15+T3", "R20+T4"]
    conflicts = [_mean(scale_rows, "conflict_frequency", scale=s)
                 for s in scales]
    comm = [_mean(scale_rows, "energy_comm", scale=s) for s in scales]
    assert conflicts == sorted(conflicts)
    assert comm == sorted(comm)
    print("\ncriterion 8 PASS: conflicts"
          f" {['%.1f' % c for c in conflicts]} and comm energy"
          f" {['%.2f' % c for c in comm]} non-decreasing across scales")


def test_criterion_09_negotiation_share(static_rows):
    shares = {}
    for law in ALL_LAWS:
        rows = [r for r in static_rows if r["law"] == law]
        per_run = [
            float(r["energy_comm_negotiation"])
            / (float(r["energy_moving"]) + float(r["energy_idle"])
               + float(r["energy_comm"]))
            for r in rows
        ]
        assert all(s > 0.0 for s in per_run)
        shares[law] = statistics.fmean(per_run)
        assert 0.05 < shares[law] < 0.60, (law, shares[law])
    pretty = ", ".join(f"{law}={share:.3f}" for law, share in shares.items())
    print(f"\ncriterion 9 PASS: negotiation share of total energy in"
          f" (0.05, 0.60) for every law: {pretty}")


def test_criterion_10_dynamic_styles(dynamic_rows):
    with_conflict, without_conflict = dynamic_rows
    styles = ["1+1+1", "2+1", "1+2"]
    report = []
    for style in styles:
        rows = [r for r in with_conflict if r["style"] == style]
        assert all(int(r["tasks_completed"]) == 3 for r in rows)
        residual = _mean(with_conflict, "residual_mean", style=style)
        on = _mean(with_conflict, "energy_comm", style=style)
        off = _mean(without_conflict, "energy_comm", style=style)
        assert on > off, (style, on, off)
        report.append(f"{style}: residual {residual:.1f}, comm {on:.2f}>{off:.2f}")
    print("\ncriterion 10 PASS: all dynamic styles complete 3/3 tasks;"
          " conflict negotiation costs extra comm — " + "; ".join(report))


def test_criterion_11_determinism():
    spec_args = dict(template=dict(TEMPLATE), laws=["t_low_e", "cata_u"],
                     scales=["R10+T2"], styles=["static", "2+1"],
                     trials=2, base_seed=0)
    first, first_tasks = run_sweep(SweepSpec(**spec_args))
    second, second_tasks = run_sweep(SweepSpec(**spec_args))
    assert rows_to_csv(first, CSV_COLUMNS) == rows_to_csv(second, CSV_COLUMNS)

    scenario = suite_scenario("t_low_e", "R15+T3", "1+2", seed=4)
    metrics_a, events_a = run(scenario)
    metrics_b, events_b = run(scenario)
    trace_a = "\n".join(e.to_json() for e in events_a)
    trace_b = "\n".join(e.to_json() for e in events_b)
    assert metrics_a == metrics_b
    assert trace_a == trace_b
    print("\ncriterion 11 PASS: sweep CSV and run traces byte-identical"
          " across repeated invocations")
