import random

import pytest
from hypothesis import given, settings, strategies as st

from swarmplan.comms import (COMPLETE, CommGraph, DisconnectedGraphError,
                             GossipStalledError, build_graph, components, gossip,
                             reveal)
from swarmplan.world import Position, euclidean
from helpers import eccentricity, make_robot, random_connected_graph


class TestBuildGraph:
    def test_line_of_three(self):
        robots = [make_robot(1, 0, 0), make_robot(2, 5, 0), make_robot(3, 10, 0)]
        graph = build_graph(robots, 6.0)
        assert graph.neighbors(1) == {2}
        assert graph.neighbors(2) == {1, 3}
        assert graph.neighbors(3) == {2}

    def test_complete_mode(self):
        robots = [make_robot(1, 0, 0), make_robot(2, 100, 100)]
        graph = build_graph(robots, COMPLETE)
        assert graph.neighbors(1) == {2}
        assert graph.neighbors(2) == {1}

    def test_disconnected_raises(self):
        robots = [make_robot(1, 0, 0), make_robot(2, 10, 0)]
        with pytest.raises(DisconnectedGraphError):
            build_graph(robots, 5.0)

    def test_dead_robots_excluded(self):
        robots = [make_robot(1, 0, 0), make_robot(2, 1, 0),
                  make_robot(3, 2, 0, battery=0.0)]
        graph = build_graph(robots, COMPLETE)
        assert set(graph.adjacency) == {1, 2}

    @pytest.mark.parametrize("n_alive", [1, 2, 20])
    def test_complete_equals_all_pairs(self, n_alive):
        robots = [make_robot(3 * k + 1, k, 0) for k in range(n_alive)]
        robots.insert(1, make_robot(100, 5, 5, battery=0.0))
        alive = [r for r in robots if r.alive]
        expected = {r.id: frozenset(o.id for o in alive if o.id != r.id)
                    for r in alive}
        assert dict(build_graph(robots, COMPLETE).adjacency) == expected

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            build_graph([], COMPLETE)


class TestGossip:
    def test_line_graph_two_rounds(self):
        graph = CommGraph({1: frozenset({2}), 2: frozenset({1, 3}),
                           3: frozenset({2})})
        payloads = {1: "a", 2: "b", 3: "c"}
        equilibrium, rounds = gossip(payloads, graph, {1, 2, 3})
        assert rounds == 2
        expected = {(1, "a"), (2, "b"), (3, "c")}
        for member in (1, 2, 3):
            assert equilibrium[member].items == expected

    def test_complete_graph_one_round(self):
        for n in (2, 5, 9):
            ids = frozenset(range(n))
            graph = CommGraph({i: ids - {i} for i in ids})
            _, rounds = gossip({i: i for i in ids}, graph, set(ids))
            assert rounds == 1

    def test_singleton_zero_rounds(self):
        graph = CommGraph({1: frozenset()})
        equilibrium, rounds = gossip({1: "x"}, graph, {1})
        assert rounds == 0
        assert equilibrium[1].items == {(1, "x")}

    def test_disconnected_group_stalls(self):
        graph = CommGraph({1: frozenset(), 2: frozenset()})
        with pytest.raises(GossipStalledError):
            gossip({1: "a", 2: "b"}, graph, {1, 2})

    def test_subgroup_gossip_ignores_outsiders(self):
        graph = CommGraph({1: frozenset({2, 3}), 2: frozenset({1, 3}),
                           3: frozenset({1, 2})})
        equilibrium, rounds = gossip({1: "a", 2: "b", 3: "c"}, graph, {1, 2})
        assert rounds == 1
        assert equilibrium[1].items == {(1, "a"), (2, "b")}
        assert 3 not in equilibrium

    def test_random_graphs_round_bound(self):
        # deterministic sweep over random connected topologies: knowledge
        # becomes set-equal and the round count never beats eccentricity
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randrange(1, 31)
            graph = random_connected_graph(rng, n)
            group = set(range(n))
            payloads = {i: f"p{i}" for i in group}
            equilibrium, rounds = gossip(payloads, graph, group)
            first = equilibrium[0].items
            assert all(equilibrium[i].items == first for i in group)
            assert len(first) == n
            assert rounds <= max(eccentricity(graph, group), 0)


def reference_gossip(payloads, graph, group):
    """Round-by-round union of every member's datagram set, the algorithm
    ``gossip`` must agree with: same rounds, items and stall message."""
    members = sorted(group)
    n = len(members)
    sets = {i: {(i, payloads[i])} for i in members}
    rounds = 0
    while any(len(sets[i]) != n for i in members):
        if rounds >= n:
            raise GossipStalledError(f"group {members} not connected, gossip stalled")
        prev = {i: set(sets[i]) for i in members}
        for i in members:
            for j in graph.neighbors(i):
                if j in group:
                    sets[i] |= prev[j]
        rounds += 1
    return sets, rounds


@st.composite
def gossip_cases(draw):
    """Sparse ids, a clique, an edgeless or a random graph of any density,
    and a group that may leave outsiders out or be disconnected."""
    ids = sorted(draw(st.sets(st.integers(0, 500), min_size=1, max_size=30)))
    shape = draw(st.sampled_from(["random", "clique", "edgeless"]))
    adjacency = {i: set() for i in ids}
    if shape != "edgeless":
        density = 1.0 if shape == "clique" else draw(st.floats(0.0, 1.0))
        rng = draw(st.randoms(use_true_random=False))
        for k, a in enumerate(ids):
            for b in ids[k + 1:]:
                if rng.random() < density:
                    adjacency[a].add(b)
                    adjacency[b].add(a)
    graph = CommGraph({i: frozenset(adjacency[i]) for i in ids})
    group = draw(st.one_of(st.just(set(ids)),
                           st.sets(st.sampled_from(ids), min_size=1)))
    payloads = {i: draw(st.one_of(st.text(max_size=2),
                                  st.frozensets(st.integers(0, 4), max_size=3)))
                for i in ids}
    return payloads, graph, group


@given(gossip_cases())
@settings(max_examples=150, deadline=None)
def test_gossip_matches_round_by_round_reference(case):
    payloads, graph, group = case
    try:
        expected, expected_rounds = reference_gossip(payloads, graph, group)
    except GossipStalledError as stalled:
        with pytest.raises(GossipStalledError) as raised:
            gossip(payloads, graph, group)
        assert str(raised.value) == str(stalled)
        return
    equilibrium, rounds = gossip(payloads, graph, group)
    assert rounds == expected_rounds
    assert sorted(equilibrium) == sorted(expected)
    for member, items in expected.items():
        assert equilibrium[member].items == items


def reference_components(adjacency):
    """Depth-first search from each unvisited id in ascending order."""
    seen, found = set(), []
    for root in sorted(adjacency):
        if root in seen:
            continue
        component, stack = set(), [root]
        while stack:
            i = stack.pop()
            if i not in component:
                component.add(i)
                stack.extend(adjacency[i])
        seen |= component
        found.append(frozenset(component))
    return found


@st.composite
def symmetric_graphs(draw):
    """Symmetric adjacency over sparse ids in shuffled key order: random
    edges of any density, so graphs may be connected, split or hold
    isolated nodes."""
    ids = sorted(draw(st.sets(st.integers(0, 500), max_size=25)))
    density = draw(st.sampled_from([0.0, 0.05, 0.15, 0.5, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    adjacency = {i: set() for i in ids}
    for k, a in enumerate(ids):
        for b in ids[k + 1:]:
            if rng.random() < density:
                adjacency[a].add(b)
                adjacency[b].add(a)
    rng.shuffle(ids)
    return {i: frozenset(adjacency[i]) for i in ids}


class TestComponents:
    @given(symmetric_graphs())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_dfs(self, adjacency):
        assert components(adjacency) == reference_components(adjacency)

    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12), st.booleans()),
                    min_size=1, max_size=12),
           st.sampled_from([0.5, 1.0, 2.0, 3.5, 8.0]))
    @settings(max_examples=200, deadline=None)
    def test_finite_range_raises_exactly_when_split(self, spots, comm_range):
        robots = [make_robot(3 * k + 1, x, y, battery=100.0 if alive else 0.0)
                  for k, (x, y, alive) in enumerate(spots)]
        alive = [r for r in robots if r.alive]
        adjacency = {r.id: frozenset(o.id for o in alive if o.id != r.id
                                     and euclidean(r.pos, o.pos) <= comm_range)
                     for r in alive}
        if len(reference_components(adjacency)) > 1:
            with pytest.raises(DisconnectedGraphError):
                build_graph(robots, comm_range)
        else:
            assert build_graph(robots, comm_range).adjacency == adjacency


def ref_reveal(centers, robots):
    """Reference: the engine's former arrival loop, which told each task to
    the nearest of the alive ``robots`` while any was alive."""
    revealed = {}
    for tid, center in centers.items():
        if robots:
            nearest = min(robots, key=lambda r: (euclidean(r.pos, center), r.id))
            revealed[tid] = nearest.id
    return revealed


#: grid coordinates, so that equal distances (ties) are common
grid = st.integers(0, 4).map(float)


class TestReveal:
    def test_nearest_robot_learns_each_task(self):
        positions = {1: Position(0.0, 0.0), 2: Position(10.0, 0.0)}
        centers = {7: Position(8.0, 0.0), 3: Position(1.0, 1.0)}
        revealed = reveal(centers, positions)
        assert revealed == {7: 2, 3: 1}
        assert list(revealed) == [7, 3]  # in the order of ``centers``

    def test_tie_goes_to_the_lower_id(self):
        positions = {5: Position(0.0, 0.0), 2: Position(2.0, 0.0)}
        assert reveal({1: Position(1.0, 0.0)}, positions) == {1: 2}

    def test_without_robots_no_one_learns(self):
        assert reveal({1: Position(1.0, 0.0)}, {}) == {}

    @given(st.lists(st.tuples(grid, grid), max_size=4),
           st.lists(st.tuples(st.integers(0, 50), grid, grid), max_size=6,
                    unique_by=lambda robot: robot[0]))
    @settings(deadline=None, max_examples=300)
    def test_matches_reference(self, tasks, robots):
        centers = {10 - k: Position(x, y) for k, (x, y) in enumerate(tasks)}
        team = [make_robot(rid, x, y) for rid, x, y in robots]  # any id order
        positions = {r.id: r.pos for r in team}
        revealed = reveal(centers, positions)
        assert list(revealed.items()) == list(ref_reveal(centers, team).items())
