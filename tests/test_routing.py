import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from swarmplan.routing import (STALL_ESCAPE, ClusterDecision, ConflictQueue,
                               Geometry, UnionFind,
                               _segment_distance, cluster_conflicts,
                               detect_conflicts, enforce_separation, next_step,
                               resolve, settle_cluster, track_progress,
                               yield_step)
from swarmplan.world import Position, euclidean
from helpers import make_robot

#: Two nearly collinear segments about 4.7 m apart along their common line;
#: the crossing test's t and u come out inside [0, 1] through rounding alone.
NEAR_COLLINEAR = (Position(x=35.52837160047852, y=15.109890224310314),
                  Position(x=13.148197723642031, y=27.91585608862747),
                  Position(x=9.076573115318606, y=30.24564521508594),
                  Position(x=7.510712991544231, y=31.14163250292843))


class TestNextStep:
    def test_unit_step_along_axis(self):
        pos = next_step(make_robot(1, 0, 0), Position(10, 0), 1.0)
        assert (pos.x, pos.y) == (1.0, 0.0)

    def test_clamp_at_goal(self):
        pos = next_step(make_robot(1, 9.5, 0), Position(10, 0), 1.0)
        assert (pos.x, pos.y) == (10.0, 0.0)

    def test_diagonal_unit_vector(self):
        pos = next_step(make_robot(1, 0, 0), Position(3, 4), 1.0)
        assert pos.x == pytest.approx(0.6)
        assert pos.y == pytest.approx(0.8)


class TestSegmentDistance:
    def test_crossing_is_zero(self):
        assert _segment_distance(Position(0, 0), Position(2, 2),
                                 Position(0, 2), Position(2, 0)) == 0.0

    def test_parallel_offset(self):
        d = _segment_distance(Position(0, 0), Position(10, 0),
                              Position(0, 3), Position(10, 3))
        assert d == pytest.approx(3.0)

    def test_degenerate_points(self):
        d = _segment_distance(Position(0, 0), Position(0, 0),
                              Position(3, 4), Position(3, 4))
        assert d == pytest.approx(5.0)

    def test_near_collinear_apart_is_not_a_crossing(self):
        p1, p2, q1, q2 = NEAR_COLLINEAR
        assert _segment_distance(p1, p2, q1, q2) == pytest.approx(euclidean(p2, q1))

    def test_symmetry(self):
        rng = random.Random(1)
        for _ in range(50):
            p = [Position(rng.uniform(0, 10), rng.uniform(0, 10))
                 for _ in range(4)]
            assert _segment_distance(p[0], p[1], p[2], p[3]) == pytest.approx(
                _segment_distance(p[2], p[3], p[0], p[1]))


def all_pairs(current, proposed, safety_radius):
    """Reference: the exact test on every pair, lower id first."""
    limit = 2.0 * safety_radius
    ids = sorted(proposed)
    return {(i, j) for a, i in enumerate(ids) for j in ids[a + 1:]
            if euclidean(proposed[i], proposed[j]) < limit
            or _segment_distance(current[i], proposed[i], current[j], proposed[j]) < limit}


@st.composite
def teams(draw):
    """(current, proposed, safety radius) for 0-30 robots with sparse ids.

    Robots may start on another robot or exactly 2 * safety_radius east of
    it, stand still, step less than the limit or move much farther; the
    world spans 1e-3 m to 1e3 m with the radius scaled along.
    """
    scale = draw(st.sampled_from([1e-3, 1e-1, 1.0, 24.0, 1e3]))
    radius = scale * draw(st.floats(1e-3, 0.2))
    limit = 2.0 * radius
    n = draw(st.integers(0, 30))
    ids = draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n, unique=True))
    coord = st.floats(0.0, scale)
    current, proposed = {}, {}
    for k, rid in enumerate(ids):
        start = draw(st.sampled_from(["free", "coincident", "at_limit"])) if k else "free"
        if start == "free":
            pos = Position(draw(coord), draw(coord))
        else:
            other = current[ids[draw(st.integers(0, k - 1))]]
            pos = other if start == "coincident" else Position(other.x + limit, other.y)
        move = draw(st.sampled_from(["stay", "step", "long"]))
        reach = {"stay": 0.0, "step": 0.5 * limit, "long": scale}[move]
        current[rid] = pos
        proposed[rid] = Position(pos.x + draw(st.floats(-reach, reach)),
                                 pos.y + draw(st.floats(-reach, reach)))
    return current, proposed, radius


class TestDetectConflicts:
    def test_close_endpoints(self):
        current = {1: Position(0, 5), 2: Position(10, 5)}
        proposed = {1: Position(5, 5), 2: Position(5.1, 5)}
        assert detect_conflicts(current, proposed, 0.5) == {(1, 2)}

    def test_far_apart_none(self):
        current = {1: Position(0, 0), 2: Position(0, 3)}
        proposed = {1: Position(-1, 0), 2: Position(-1, 3)}
        assert detect_conflicts(current, proposed, 0.5) == set()

    def test_head_on_swap(self):
        current = {1: Position(0, 0), 2: Position(1, 0)}
        proposed = {1: Position(1, 0), 2: Position(0, 0)}
        assert detect_conflicts(current, proposed, 0.3) == {(1, 2)}

    def test_near_collinear_apart_no_conflict(self):
        p1, p2, q1, q2 = NEAR_COLLINEAR
        assert detect_conflicts({1: p1, 2: q1}, {1: p2, 2: q2}, 1.0) == set()

    @given(teams())
    @example((dict(zip((3, 8), NEAR_COLLINEAR[::2])),
              dict(zip((3, 8), NEAR_COLLINEAR[1::2])), 1.0))
    @settings(deadline=None)
    def test_matches_all_pairs(self, team):
        current, proposed, radius = team
        assert detect_conflicts(current, proposed, radius) == all_pairs(
            current, proposed, radius)


class TestClusterConflicts:
    def test_transitive_closure(self):
        clusters = cluster_conflicts({(1, 2), (2, 3)})
        assert [set(c.members) for c in clusters] == [{1, 2, 3}]

    def test_disjoint_pairs(self):
        clusters = cluster_conflicts({(1, 2), (3, 4)})
        assert [set(c.members) for c in clusters] == [{1, 2}, {3, 4}]

    def test_empty(self):
        assert cluster_conflicts(set()) == []

    def test_deterministic_order(self):
        pairs = {(5, 6), (1, 2), (2, 3), (8, 9)}
        a = cluster_conflicts(pairs)
        b = cluster_conflicts(set(pairs))
        assert [c.members for c in a] == [c.members for c in b]

    def test_singleton_cluster_invalid(self):
        with pytest.raises(ValueError):
            ConflictQueue(members=frozenset({1}))


#: safety radius 0.5 (separation just over 1 m), 1 m steps, 20 m world
GEO = Geometry(safety_radius=0.5, step_length=1.0, world_size=20.0)


def resolve_recorded(*args, dead=()):
    """``resolve``'s final positions, the decisions it replayed in order,
    and its stopped robots; the replay reports ``dead`` as died paying."""
    decisions = []
    final, stopped = resolve(*args, lambda d: decisions.append(d) or dead)
    return final, decisions, stopped


def head_on():
    """Robots 1 and 2 stepping toward each other along y = 5."""
    current = {1: Position(5, 5), 2: Position(7.5, 5)}
    intents = {1: Position(6, 5), 2: Position(6.5, 5)}
    goals = {1: Position(10, 5), 2: Position(3, 5)}
    return current, intents, goals


class TestClusterResolution:
    def test_head_on_higher_priority_moves(self):
        current, intents, goals = head_on()
        clusters = cluster_conflicts(detect_conflicts(current, intents, 0.5))
        final, decisions, stopped = resolve_recorded(current, intents, {1, 2},
                                                     clusters, [2, 1], goals, {}, GEO)
        assert decisions == [ClusterDecision((1, 2), (1,), False)]
        assert stopped == []
        assert final == {1: current[1], 2: intents[2]}

    def test_pinned_mover_skipped_for_one_that_can_finish(self):
        # robot 2 ranks first and its step is clear, but its goal sits on
        # stationary robot 3
        current = {1: Position(12, 12), 2: Position(7, 10), 3: Position(10, 10)}
        intents = {1: Position(12, 13), 2: Position(8, 10), 3: Position(10, 10)}
        goals = {1: Position(12, 15), 2: Position(10, 10.5)}
        decision = settle_cluster([1, 2, 3], [2, 1], current, intents, goals,
                                  {}, GEO)
        assert decision == ClusterDecision((1, 2, 3), (2,), False)

    def test_stalled_cluster_relaxes_to_all_movers(self):
        current, intents, goals = head_on()
        clusters = cluster_conflicts(detect_conflicts(current, intents, 0.5))
        _, decisions, _ = resolve_recorded(current, intents, {1, 2}, clusters,
                                           [2, 1], goals, {1: STALL_ESCAPE}, GEO)
        assert decisions == [ClusterDecision((1, 2), (), True)]

    def test_replayed_death_stands_still_before_separation(self):
        # a relaxed cluster lets both followers step; robot 1 dies paying
        # for the cluster's negotiation, so robot 2 must keep clear of where
        # robot 1 stands, not of where it meant to go
        current = {1: Position(5, 5), 2: Position(3.5, 5)}
        intents = {1: Position(6, 5), 2: Position(4.5, 5)}
        goals = {1: Position(10, 5), 2: Position(10, 5)}
        clusters = cluster_conflicts(detect_conflicts(current, intents, 0.5))
        stall = {1: STALL_ESCAPE}
        final, _, _ = resolve_recorded(current, intents, {1, 2}, clusters, [1, 2],
                                       goals, stall, GEO)
        assert final == intents
        assert euclidean(final[2], current[1]) < GEO.limit
        final, decisions, _ = resolve_recorded(current, intents, {1, 2}, clusters,
                                               [1, 2], goals, stall, GEO, dead=(1,))
        assert decisions == [ClusterDecision((1, 2), (), True)]
        assert final[1] == current[1]
        assert final[2] != current[2]
        assert euclidean(final[2], current[1]) >= GEO.limit


class TestSeparation:
    @staticmethod
    def boxed_in(blockers_at):
        """Robot 1 at (5, 5) heading east; stationary robots 1.05 m away."""
        current = {1: Position(5, 5)}
        for k, degrees in enumerate(blockers_at, start=2):
            a = math.radians(degrees)
            current[k] = Position(5 + 1.05 * math.cos(a), 5 + 1.05 * math.sin(a))
        intents = {**current, 1: Position(6, 5)}
        return current, intents, {1: Position(10, 5)}

    def test_no_safe_step_or_detour_stops(self):
        current, intents, goals = self.boxed_in([0, 90, 150])
        final, decisions, stopped = resolve_recorded(current, intents, {1}, [],
                                                     [1, 2, 3, 4], goals, {}, GEO)
        assert (decisions, stopped) == ([], [1])
        assert final[1] == current[1]

    def test_blocked_step_takes_first_counterclockwise_detour(self):
        current, intents, goals = self.boxed_in([0])
        final, stopped = enforce_separation(current, intents, [1], goals, {}, GEO)
        assert stopped == []
        # the 30-degree detour still crowds the blocker; 60 is the first clear
        assert final[1].x == pytest.approx(5.5)
        assert final[1].y == pytest.approx(5 + math.sqrt(3) / 2)


class TestYield:
    def test_goal_less_robot_steps_off_active_vertex(self):
        current = {1: Position(5, 5)}
        step = yield_step(1, current, {}, [Position(5.3, 5)], GEO)
        assert step == Position(4.0, 5.0)

    def test_clear_robot_stays(self):
        current = {1: Position(5, 5), 2: Position(15, 15)}
        assert yield_step(1, current, {2: Position(14, 14)},
                          [Position(10, 10)], GEO) is None


class TestTrackProgress:
    def test_stall_counts_ticks_without_progress(self):
        goal = Position(10, 0)
        mark, stall = track_progress(None, 0, Position(0, 0), goal)
        assert stall == 0
        mark, stall = track_progress(mark, stall, Position(0, 1), goal)
        assert stall == 1
        mark, stall = track_progress(mark, stall, Position(1, 0), goal)
        assert stall == 0
        assert track_progress(mark, 5, Position(1, 0), None) == (None, 0)


class TestUnionFind:
    def test_smaller_root_wins(self):
        uf = UnionFind()
        uf.union(5, 3)
        uf.union(3, 9)
        assert uf.find(5) == uf.find(9) == 3

    def test_separate_components(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(3, 4)
        assert uf.find(1) != uf.find(3)
