import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from swarmplan.routing import (_YIELD_ANGLES, STALL_ESCAPE, Geometry, cluster_conflicts,
                               detect_conflicts, detours, enforce_separation,
                               next_step, settle_cluster, track_progress, yield_step,
                               yield_steps)
from swarmplan.world import Position, euclidean, segment_distance
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
        assert segment_distance(Position(0, 0), Position(2, 2),
                                Position(0, 2), Position(2, 0)) == 0.0

    def test_parallel_offset(self):
        d = segment_distance(Position(0, 0), Position(10, 0),
                             Position(0, 3), Position(10, 3))
        assert d == pytest.approx(3.0)

    def test_degenerate_points(self):
        d = segment_distance(Position(0, 0), Position(0, 0),
                             Position(3, 4), Position(3, 4))
        assert d == pytest.approx(5.0)

    def test_near_collinear_apart_is_not_a_crossing(self):
        p1, p2, q1, q2 = NEAR_COLLINEAR
        assert segment_distance(p1, p2, q1, q2) == pytest.approx(euclidean(p2, q1))

    def test_symmetry(self):
        rng = random.Random(1)
        for _ in range(50):
            p = [Position(rng.uniform(0, 10), rng.uniform(0, 10))
                 for _ in range(4)]
            assert segment_distance(p[0], p[1], p[2], p[3]) == pytest.approx(
                segment_distance(p[2], p[3], p[0], p[1]))


def ref_segment_distance(p1, p2, q1, q2):
    """``segment_distance`` as it was written on ``Position`` objects,
    with the ``hypot`` distance it used; the float version must match it
    bit for bit."""
    def sub(a, b):
        return (a.x - b.x, a.y - b.y)

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    d1, d2 = sub(p2, p1), sub(q2, q1)
    r = sub(q1, p1)
    denom = cross(d1, d2)
    if denom != 0.0:
        t = cross(r, d2) / denom
        u = cross(r, d1) / denom
        if 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0 and (
                max(p1.x, p2.x) >= min(q1.x, q2.x) and max(q1.x, q2.x) >= min(p1.x, p2.x)
                and max(p1.y, p2.y) >= min(q1.y, q2.y)
                and max(q1.y, q2.y) >= min(p1.y, p2.y)):
            return 0.0
    return min(
        ref_point_segment_distance(p1, q1, q2),
        ref_point_segment_distance(p2, q1, q2),
        ref_point_segment_distance(q1, p1, p2),
        ref_point_segment_distance(q2, p1, p2),
    )


def ref_point_segment_distance(p, a, b):
    def hypot_distance(u, v):
        return math.hypot(u.x - v.x, u.y - v.y)

    ax, ay = b.x - a.x, b.y - a.y
    length_sq = ax * ax + ay * ay
    if length_sq == 0.0:
        return hypot_distance(p, a)
    t = ((p.x - a.x) * ax + (p.y - a.y) * ay) / length_sq
    t = max(0.0, min(1.0, t))
    return hypot_distance(p, Position(a.x + t * ax, a.y + t * ay))


@st.composite
def segment_pairs(draw):
    """Endpoints p1, p2, q1, q2 from 1e-300 m to 1e150 m (products stay
    finite), or ints. Each of q1 and q2 may repeat an earlier endpoint or
    lie on the line through p1 and p2 (q2 may instead make q1-q2 parallel
    to p1-p2), which gives degenerate, parallel and collinear segments."""
    scale = draw(st.sampled_from([1e-300, 1e-3, 1.0, 24.0, 1e6, 1e150]))
    coord = st.floats(-scale, scale) | st.integers(-2**53, 2**53)
    p1 = Position(draw(coord), draw(coord))
    p2 = draw(st.just(p1) | st.builds(Position, coord, coord))
    points = [p1, p2]
    for _ in range(2):
        kind = draw(st.sampled_from(["free", "repeat", "along", "parallel"]))
        s = draw(st.floats(-2.0, 2.0))
        if kind == "repeat":
            q = draw(st.sampled_from(points))
        elif kind == "along":
            q = Position(p1.x + s * (p2.x - p1.x), p1.y + s * (p2.y - p1.y))
        elif kind == "parallel" and len(points) == 3:
            q = Position(points[2].x + s * (p2.x - p1.x), points[2].y + s * (p2.y - p1.y))
        else:
            q = Position(draw(coord), draw(coord))
        points.append(q)
    return tuple(points)


def quad(*coordinates):
    """Four endpoints from eight coordinates."""
    return tuple(Position(*coordinates[k:k + 2]) for k in range(0, 8, 2))


class TestSegmentDistanceExact:
    @given(segment_pairs())
    @example(quad(0, 0, 0, 0, 3, 4, 3, 4))  # two points
    @example(quad(0.5, 1.5, 0.5, 1.5, 0, 0, 2, 0))  # a point and a segment
    @example(quad(0, 0, 10, 0, 0, 3, 10, 3))  # parallel
    @example(quad(0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 2.0, 0.0))  # collinear, touching
    @example(quad(0.0, 0.0, 2.0, 0.0, 1.0, 0.0, 1.0, 1.0))  # T-touching
    @example(quad(0, 0, 2, 2, 0, 2, 2, 0))  # crossing
    @example(quad(0.1, 0.7, 2.3, 1.9, 0.2, 2.1, 1.9, 0.3))  # crossing off the grid
    @example(NEAR_COLLINEAR)
    @settings(deadline=None, max_examples=300)
    def test_matches_position_version(self, points):
        """Drawn and example segments give the same bits as the
        ``Position`` version, in both segment orders."""
        p1, p2, q1, q2 = points
        assert (segment_distance(p1, p2, q1, q2).hex()
                == ref_segment_distance(p1, p2, q1, q2).hex())
        assert (segment_distance(q1, q2, p1, p2).hex()
                == ref_segment_distance(q1, q2, p1, p2).hex())


def all_pairs(current, proposed, safety_radius):
    """Reference: the exact test on every pair, lower id first."""
    limit = 2.0 * safety_radius
    ids = sorted(proposed)
    return {(i, j) for a, i in enumerate(ids) for j in ids[a + 1:]
            if euclidean(proposed[i], proposed[j]) < limit
            or segment_distance(current[i], proposed[i], current[j], proposed[j]) < limit}


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


class UnionFind:
    """Disjoint sets over robot ids with path compression; the smaller
    root wins a union."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        if x not in self.parent:
            self.parent[x] = x
            return x
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx


def ref_cluster_conflicts(pairs):
    """Reference: union-find clusters, ordered by their root."""
    uf = UnionFind()
    for i, j in pairs:
        uf.union(i, j)
    groups = {}
    for i, j in sorted(pairs):
        groups.setdefault(uf.find(i), set()).update((i, j))
    return [frozenset(groups[root]) for root in sorted(groups)]


@st.composite
def conflict_pairs(draw):
    """Conflicting pairs (i < j) over sparse ids: chains, stars, disjoint
    pairs and random pairs, mixed."""
    ids = draw(st.lists(st.integers(0, 1000), unique=True, max_size=16))
    pairs = set()
    while len(ids) >= 2:
        shape = draw(st.sampled_from(["chain", "star", "pair", "random"]))
        k = draw(st.integers(2, len(ids)))
        part, ids = ids[:k], ids[k:]
        if shape == "chain":
            links = zip(part, part[1:])
        elif shape == "star":
            links = ((part[0], other) for other in part[1:])
        elif shape == "pair":
            links = zip(part[::2], part[1::2])
        else:
            links = draw(st.lists(st.tuples(st.sampled_from(part), st.sampled_from(part))))
        pairs.update((min(a, b), max(a, b)) for a, b in links if a != b)
    return pairs


class TestClusterConflicts:
    def test_transitive_closure(self):
        assert cluster_conflicts({(1, 2), (2, 3)}) == [{1, 2, 3}]

    def test_disjoint_pairs(self):
        assert cluster_conflicts({(1, 2), (3, 4)}) == [{1, 2}, {3, 4}]

    def test_empty(self):
        assert cluster_conflicts(set()) == []

    def test_deterministic_order(self):
        pairs = {(5, 6), (1, 2), (2, 3), (8, 9)}
        assert cluster_conflicts(pairs) == cluster_conflicts(set(pairs))

    @given(conflict_pairs())
    @settings(deadline=None, max_examples=300)
    def test_matches_union_find(self, pairs):
        assert cluster_conflicts(pairs) == ref_cluster_conflicts(pairs)


#: safety radius 0.5 (separation just over 1 m), 1 m steps, 20 m world
GEO = Geometry(safety_radius=0.5, step_length=1.0, world_size=20.0)


def resolve_recorded(current, moves, clusters, priority, goals, stall, geometry,
                     dead=()):
    """A tick's final positions, its cluster winners in order and the
    robots separation stopped, applied as the engine applies them: ``moves``
    is re-keyed in ``priority`` order; each cluster's movers but its winner
    (none if it relaxed) and its members in ``dead`` (died paying for its
    negotiation) stand still; the other movers pass through
    :func:`enforce_separation`."""
    moves = {rid: moves[rid] for rid in priority if rid in moves}
    winners = [settle_cluster(cluster, current, moves, goals, stall, geometry)
               for cluster in clusters]
    halted = {rid for cluster, winner in zip(clusters, winners) for rid in cluster
              if rid in dead or winner not in (None, rid)}
    final, stopped = enforce_separation(
        current, {rid: step for rid, step in moves.items() if rid not in halted},
        goals, stall, geometry)
    return final, winners, stopped


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
        final, winners, stopped = resolve_recorded(current, intents,
                                                   clusters, [2, 1], goals, {}, GEO)
        assert winners == [2]
        assert stopped == []
        assert final == {1: current[1], 2: intents[2]}

    def test_pinned_mover_skipped_for_one_that_can_finish(self):
        # robot 2 ranks first and its step is clear, but its goal sits on
        # stationary robot 3
        current = {1: Position(12, 12), 2: Position(7, 10), 3: Position(10, 10)}
        moves = {2: Position(8, 10), 1: Position(12, 13)}
        goals = {1: Position(12, 15), 2: Position(10, 10.5)}
        assert settle_cluster([1, 2, 3], current, moves, goals, {}, GEO) == 1

    def test_frozenset_cluster_settles_as_its_sorted_list(self):
        # the pinned case with robot 3 renumbered 8, so that the frozenset
        # cluster_conflicts returns iterates out of id order; the engine
        # lists the members in id order itself (see test_engine's
        # TestRoutingResult.test_cluster_events_list_ids_and_priority)
        current = {1: Position(12, 12), 2: Position(7, 10), 8: Position(10, 10)}
        moves = {2: Position(8, 10), 1: Position(12, 13)}
        goals = {1: Position(12, 15), 2: Position(10, 10.5)}
        cluster = frozenset([1, 2, 8])
        assert list(cluster) != sorted(cluster)
        winner = settle_cluster(cluster, current, moves, goals, {}, GEO)
        assert winner == 1
        assert winner == settle_cluster(sorted(cluster), current, moves, goals, {}, GEO)

    @pytest.mark.parametrize("stall, winner", [(STALL_ESCAPE - 1, 4), (STALL_ESCAPE, None)])
    def test_lone_mover_steps_unless_stalled(self, stall, winner):
        # robot 4 steps onto robot 5's spot: blocked, yet the only mover
        current = {4: Position(5, 5), 5: Position(6, 5)}
        moves = {4: Position(6, 5)}
        assert settle_cluster({4, 5}, current, moves, {}, {4: stall}, GEO) == winner

    def test_stalled_cluster_relaxes_to_all_movers(self):
        current, intents, goals = head_on()
        clusters = cluster_conflicts(detect_conflicts(current, intents, 0.5))
        _, winners, _ = resolve_recorded(current, intents, clusters,
                                         [2, 1], goals, {1: STALL_ESCAPE}, GEO)
        assert winners == [None]

    def test_replayed_death_stands_still_before_separation(self):
        # a relaxed cluster lets both followers step; robot 1 dies paying
        # for the cluster's negotiation, so robot 2 must keep clear of where
        # robot 1 stands, not of where it meant to go
        current = {1: Position(5, 5), 2: Position(3.5, 5)}
        intents = {1: Position(6, 5), 2: Position(4.5, 5)}
        goals = {1: Position(10, 5), 2: Position(10, 5)}
        clusters = cluster_conflicts(detect_conflicts(current, intents, 0.5))
        stall = {1: STALL_ESCAPE}
        final, _, _ = resolve_recorded(current, intents, clusters, [1, 2],
                                       goals, stall, GEO)
        assert final == intents
        assert euclidean(final[2], current[1]) < GEO.limit
        final, winners, _ = resolve_recorded(current, intents, clusters,
                                             [1, 2], goals, stall, GEO, dead=(1,))
        assert winners == [None]
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
        return current, {1: Position(6, 5)}, {1: Position(10, 5)}

    def test_no_safe_step_or_detour_stops(self):
        current, moves, goals = self.boxed_in([0, 90, 150])
        final, winners, stopped = resolve_recorded(current, moves, [],
                                                   [1, 2, 3, 4], goals, {}, GEO)
        assert (winners, stopped) == ([], [1])
        assert final[1] == current[1]

    def test_blocked_step_takes_first_counterclockwise_detour(self):
        current, moves, goals = self.boxed_in([0])
        final, stopped = enforce_separation(current, moves, goals, {}, GEO)
        assert stopped == []
        # the 30-degree detour still crowds the blocker; 60 is the first clear
        assert final[1].x == pytest.approx(5.5)
        assert final[1].y == pytest.approx(5 + math.sqrt(3) / 2)

    def test_stalled_mover_takes_clear_detour_nearest_goal(self):
        # the blocker covers the step and the 30 and 60 degree detours; 90
        # is the first clear one, -30 (330) the clear one nearest the goal
        current = {1: Position(5, 5), 2: Position(6, 5.6)}
        moves, goals = {1: Position(6, 5)}, {1: Position(10, 5)}
        final, _ = enforce_separation(current, moves, goals, {}, GEO)
        assert final[1].x == pytest.approx(5.0)
        assert final[1].y == pytest.approx(6.0)
        final, stopped = enforce_separation(current, moves, goals,
                                            {1: STALL_ESCAPE}, GEO)
        assert stopped == []
        assert final[1].x == pytest.approx(5 + math.sqrt(3) / 2)
        assert final[1].y == pytest.approx(4.5)

    def test_stalled_mover_keeps_clear_step(self):
        # every detour toward the goal gains more ground than the step
        current = {1: Position(5, 5)}
        moves, goals = {1: Position(6, 5)}, {1: Position(5, 10)}
        final, stopped = enforce_separation(current, moves, goals,
                                            {1: STALL_ESCAPE}, GEO)
        assert (final, stopped) == (moves, [])


class TestYield:
    def test_goal_less_robot_steps_off_active_vertex(self):
        current = {1: Position(5, 5)}
        step = yield_step(1, current, {}, [Position(5.3, 5)], GEO)
        assert step == Position(4.0, 5.0)

    def test_clear_robot_stays(self):
        current = {1: Position(5, 5), 2: Position(15, 15)}
        assert yield_step(1, current, {2: Position(14, 14)},
                          [Position(10, 10)], GEO) is None

    def test_equidistant_movers_lower_id_threatens(self):
        # movers 2 (north) and 3 (east) close in from 1.5 m; 3 is listed first
        current = {1: Position(5, 5), 2: Position(5, 6.5), 3: Position(6.5, 5)}
        moves = {3: Position(5.5, 5), 2: Position(5, 5.5)}
        step = yield_step(1, current, moves, [], GEO)
        assert step.x == pytest.approx(5.0)
        assert step.y == pytest.approx(4.0)

    def test_equidistant_vertices_first_listed_threatens(self):
        # a smaller radius, so stepping off one vertex clears the other
        geometry = Geometry(safety_radius=0.25, step_length=1.0, world_size=20.0)
        east, north = Position(5.5, 5), Position(5, 5.5)
        current = {1: Position(5, 5)}
        assert yield_step(1, current, {}, [east, north], geometry) == Position(4.0, 5.0)
        step = yield_step(1, current, {}, [north, east], geometry)
        assert step.x == pytest.approx(5.0)
        assert step.y == pytest.approx(4.0)

    #: vertices around robot 1 at (5, 5) that crowd every yield candidate;
    #: the nearest, 0.3 m east, makes it step west first
    CROWDED_ZONE = [Position(5.3, 5), Position(4, 5)]

    def test_no_step_clears_the_vertices_roomiest_clear_of_robots(self):
        # robot 2 leaves every candidate clear; the 135-degree turn is the
        # farthest from it, the straight step west the nearest
        current = {1: Position(5, 5), 2: Position(3, 5.5)}
        step = yield_step(1, current, {}, self.CROWDED_ZONE, GEO)
        assert step == ref_yield_step(1, current, {}, self.CROWDED_ZONE, GEO)
        assert step.x == pytest.approx(5 + math.sqrt(0.5))
        assert step.y == pytest.approx(5 - math.sqrt(0.5))

    def test_every_step_crowded_takes_the_first(self):
        # robots on the west, north and south candidates crowd all seven
        current = {1: Position(5, 5), 2: Position(4, 5), 3: Position(5, 6),
                   4: Position(5, 4)}
        step = yield_step(1, current, {}, self.CROWDED_ZONE, GEO)
        assert step == ref_yield_step(1, current, {}, self.CROWDED_ZONE, GEO)
        assert step == Position(4.0, 5.0)


def ref_crowds(point, rid, others, positions, limit):
    return any(other != rid and euclidean(point, positions[other]) < limit
               for other in others)


def ref_yield_steps(current, moves, idle, vertices, geometry):
    """Reference: each idle robot in turn, as :func:`ref_yield_step`."""
    moves = dict(moves)
    for rid in idle:
        step = ref_yield_step(rid, current, moves, vertices, geometry)
        if step is not None:
            moves[rid] = step
    return moves


def ref_yield_step(rid, current, moves, vertices, geometry):
    """Reference: scan every vertex and every mover in id order for the
    threat, and every robot for each candidate's clearance."""
    pos = current[rid]
    clearance = 2.0 * geometry.safety_radius + 0.2
    threat = None
    threat_d = clearance
    for vertex in vertices:
        d = euclidean(pos, vertex)
        if d < threat_d:
            threat, threat_d = vertex, d
    if threat is None:
        band = 2.0 * geometry.safety_radius + 2.0 * geometry.step_length
        for mid in sorted(moves):
            d = euclidean(pos, current[mid])
            if d >= band:
                continue
            approach = (euclidean(moves[mid], pos) < d)
            if approach and (threat is None or d < threat_d):
                threat, threat_d = current[mid], d
    if threat is None:
        return None
    dx, dy = pos.x - threat.x, pos.y - threat.y
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        dx, dy, norm = 1.0, 0.0, 1.0
    limit = geometry.limit

    def robot_gap(p):
        return min((euclidean(p, q) for other, q in current.items() if other != rid),
                   default=math.inf)

    def turned(degrees):
        a = math.radians(degrees)
        ux, uy = dx / norm, dy / norm
        rx, ry = ux * math.cos(a) - uy * math.sin(a), ux * math.sin(a) + uy * math.cos(a)
        return Position(min(geometry.world_size, max(0.0, pos.x + geometry.step_length * rx)),
                        min(geometry.world_size, max(0.0, pos.y + geometry.step_length * ry)))

    candidates = [turned(degrees) for degrees in _YIELD_ANGLES]
    candidates = [c for c in candidates if euclidean(c, pos) > 1e-9]
    for candidate in candidates:
        if robot_gap(candidate) >= limit and all(
                euclidean(candidate, v) >= clearance for v in vertices):
            return candidate
    safe_vs_robots = [c for c in candidates if robot_gap(c) >= limit]
    if safe_vs_robots:
        return max(safe_vs_robots, key=robot_gap)
    return candidates[0] if candidates else None


def ref_settle_cluster(members, moving, current, intents, goals, stall, geometry):
    """Reference: ``intents`` holds every robot's intended position."""
    if moving and max(stall.get(rid, 0) for rid in moving) >= STALL_ESCAPE:
        return None
    limit = geometry.limit

    def blocked(rid):
        return ref_crowds(intents[rid], rid, members, current, limit)

    def pinned(rid):
        goal = goals.get(rid)
        return goal is not None and ref_crowds(goal, rid, members, current, limit)

    def can_step(rid):
        steps = [intents[rid], *detours(current[rid], goals.get(rid, intents[rid]),
                                        stall.get(rid, 0), geometry)]
        return any(not ref_crowds(p, rid, current, current, limit) for p in steps)

    winner = next((rid for rid in moving if not blocked(rid) and not pinned(rid)),
                  None)
    if winner is None:
        winner = next((rid for rid in moving if not pinned(rid) and can_step(rid)),
                      None)
    if winner is None:
        winner = next((rid for rid in moving if can_step(rid)),
                      moving[0] if moving else None)
    return winner


def ref_enforce_separation(current, intents, movers, goals, stall, geometry):
    """Reference: every clearance check scans all robots, reading a mover
    not yet decided at its current position."""
    limit = geometry.limit
    final = dict(intents)
    pending = set(movers)
    stopped = []

    def safe(rid, p):
        return all(other == rid or euclidean(
            p, current[other] if other in pending else final[other]) >= limit
            for other in final)

    for rid in movers:
        pending.discard(rid)
        if safe(rid, final[rid]):
            continue
        goal = goals.get(rid)
        stalled = stall.get(rid, 0) >= STALL_ESCAPE
        safe_steps = [step for step in detours(current[rid], goals.get(rid, intents[rid]),
                                               stall.get(rid, 0), geometry)
                      if safe(rid, step)]
        if not safe_steps:
            final[rid] = current[rid]
            stopped.append(rid)
        elif stalled and goal is not None:
            final[rid] = min(safe_steps, key=lambda p: euclidean(p, goal))
        else:
            final[rid] = safe_steps[0]
    return final, stopped


def ref_resolve(current, intents, movers, clusters, priority, goals, stall,
                geometry, dead):
    """Reference: ``intents`` for every robot plus the ``movers`` set; the
    clusters settle one after another, each seeing the earlier ones'
    losers and its members in ``dead`` stand still. Returns the final
    positions, the winners and the robots separation stopped."""
    intents = dict(intents)
    movers = set(movers)
    winners = []
    for cluster in clusters:
        moving = [rid for rid in priority if rid in cluster and rid in movers]
        winner = ref_settle_cluster(sorted(cluster), moving, current,
                                    intents, goals, stall, geometry)
        winners.append(winner)
        losers = [] if winner is None else [rid for rid in moving if rid != winner]
        for rid in [*losers, *(m for m in cluster if m in dead)]:
            intents[rid] = current[rid]
            movers.discard(rid)
    final, stopped = ref_enforce_separation(
        current, intents, [rid for rid in priority if rid in movers],
        goals, stall, geometry)
    return final, winners, stopped


@st.composite
def ticks(draw):
    """One routing tick: (geometry, current, moves, goals, stall, idle,
    vertices, dead) for 0-12 robots with sparse ids in a small world. A
    0.05 m step makes the mover band narrower than the vertex clearance.

    Robots may start on another robot, exactly ``limit`` east of it or on
    the world's edge, so steps clamp at the boundary. Each robot steps
    toward a goal (which may sit on another robot), steps without one,
    stands on its goal or stands idle; any of them may be stalled. Active
    vertices lie anywhere, on robots or on each other. ``dead`` lists the
    robots that die paying for their cluster's negotiation.
    """
    geometry = Geometry(safety_radius=draw(st.sampled_from([0.25, 0.5, 1.0])),
                        step_length=draw(st.sampled_from([0.05, 0.5, 1.0, 1.5])),
                        world_size=draw(st.sampled_from([4.0, 8.0, 20.0])))
    world, limit = geometry.world_size, geometry.limit
    coord = st.floats(0.0, world)
    n = draw(st.integers(0, 12))
    ids = draw(st.lists(st.integers(0, 1000), min_size=n, max_size=n, unique=True))
    current, moves, goals, stall, idle = {}, {}, {}, {}, []
    for k, rid in enumerate(ids):
        start = draw(st.sampled_from(["free", "coincident", "at_limit", "edge"]))
        if start == "free" or not k:
            pos = Position(draw(coord), draw(coord))
        elif start == "edge":
            pos = Position(draw(st.sampled_from([0.0, world])), draw(coord))
        else:
            other = current[ids[draw(st.integers(0, k - 1))]]
            x = other.x + limit if other.x + limit <= world else other.x - limit
            pos = other if start == "coincident" else Position(x, other.y)
        current[rid] = pos
        role = draw(st.sampled_from(["goal", "goal_on_robot", "goal_less", "arrived",
                                     "idle"]))
        if role in ("goal", "goal_on_robot"):
            goal = (current[ids[draw(st.integers(0, k))]] if role == "goal_on_robot"
                    else Position(draw(coord), draw(coord)))
            if goal != pos:
                goals[rid] = goal
                moves[rid] = next_step(make_robot(rid, pos.x, pos.y), goal,
                                       geometry.step_length)
        elif role == "goal_less":
            reach = geometry.step_length
            moves[rid] = Position(min(world, max(0.0, pos.x + draw(st.floats(-reach, reach)))),
                                  min(world, max(0.0, pos.y + draw(st.floats(-reach, reach)))))
        elif role == "arrived":
            goals[rid] = pos
        else:
            idle.append(rid)
        stall[rid] = draw(st.sampled_from([0, STALL_ESCAPE - 1, STALL_ESCAPE,
                                           STALL_ESCAPE + 5]))
    vertices = draw(st.lists(
        st.one_of(st.builds(Position, coord, coord),
                  st.sampled_from(list(current.values()) or [Position(0.0, 0.0)])),
        max_size=6))
    dead = draw(st.sets(st.sampled_from(ids))) if ids else set()
    return geometry, current, moves, goals, stall, idle, vertices, dead


class TestMatchesAllScan:
    @given(ticks(), st.randoms(use_true_random=False))
    @settings(deadline=None, max_examples=300)
    def test_yield_and_resolve_match_reference(self, tick, rng):
        geometry, current, moves, goals, stall, idle, vertices, dead = tick
        expected = ref_yield_steps(current, moves, idle, vertices, geometry)
        moves = yield_steps(current, moves, idle, vertices, geometry)
        assert list(moves.items()) == list(expected.items())

        clusters = cluster_conflicts(detect_conflicts(
            current, {**current, **moves}, geometry.safety_radius))
        priority = sorted(set(moves).union(*clusters))
        rng.shuffle(priority)
        final, winners, stopped = resolve_recorded(
            current, moves, clusters, priority, goals, stall, geometry, dead=dead)
        ref_final, ref_winners, ref_stopped = ref_resolve(
            current, {rid: moves.get(rid, pos) for rid, pos in current.items()},
            moves, clusters, priority, goals, stall, geometry, dead)
        assert winners == ref_winners
        assert stopped == ref_stopped
        assert list(final.items()) == list(ref_final.items())

    @given(ticks(), st.randoms(use_true_random=False))
    @settings(deadline=None, max_examples=300)
    def test_cluster_order_does_not_change_decisions(self, tick, rng):
        # clusters share no robot, so each winner stands on its own
        geometry, current, moves, goals, stall, idle, vertices, _ = tick
        moves = yield_steps(current, moves, idle, vertices, geometry)
        clusters = cluster_conflicts(detect_conflicts(
            current, {**current, **moves}, geometry.safety_radius))
        priority = sorted(moves)
        rng.shuffle(priority)
        moves = {rid: moves[rid] for rid in priority}
        forward = [settle_cluster(cluster, current, moves, goals, stall, geometry)
                   for cluster in clusters]
        backward = [settle_cluster(cluster, current, moves, goals, stall, geometry)
                    for cluster in clusters[::-1]]
        assert backward == forward[::-1]


class TestYieldBroadPhase:
    """The four ``at_reach`` cases pin ``yield_step``'s two radii at their
    float boundary: a robot one float inside the vertex clearance
    ``2r + 0.2`` or the mover band ``2r + 2·step`` yields, and one exactly
    at it does not."""

    @staticmethod
    def check(current, moves, idle, vertices, geometry):
        got = yield_steps(current, moves, idle, vertices, geometry)
        assert list(got.items()) == list(
            ref_yield_steps(current, moves, idle, vertices, geometry).items())
        return got

    @pytest.mark.parametrize("inside", [False, True])
    def test_robot_at_reach_of_a_vertex(self, inside):
        geometry = Geometry(safety_radius=0.5, step_length=0.05, world_size=20.0)
        reach = 2.0 * 0.5 + 0.2  # the clearance, as 2·step is below 0.2
        x = math.nextafter(reach, 0.0) if inside else reach
        got = self.check({1: Position(x, 5.0)}, {}, [1], [Position(0.0, 5.0)],
                         geometry)
        assert (1 in got) is inside

    @pytest.mark.parametrize("inside", [False, True])
    def test_robot_at_reach_of_a_mover(self, inside):
        reach = 2.0 * GEO.safety_radius + 2.0 * GEO.step_length  # the band
        x = math.nextafter(reach, 0.0) if inside else reach
        current = {1: Position(x, 5.0), 2: Position(0.0, 5.0)}
        got = self.check(current, {2: Position(1.0, 5.0)}, [1], [], GEO)
        assert (1 in got) is inside

    def test_robot_threatened_only_by_an_earlier_yield(self):
        # mover 3 closes on robot 1, which steps east toward robot 2; robot
        # 2 is out of the mover's reach and sees only robot 1's yield
        current = {1: Position(2.0, 5.0), 2: Position(4.5, 5.0), 3: Position(0.0, 5.0)}
        moves = {3: Position(1.0, 5.0)}
        assert euclidean(current[2], current[3]) >= 3.0
        assert set(self.check(current, moves, [2, 1], [], GEO)) == {1, 3}
        assert set(self.check(current, moves, [1, 2], [], GEO)) == {1, 2, 3}

    def test_no_vertices_and_no_movers(self):
        current = {1: Position(5.0, 5.0), 2: Position(5.5, 5.0)}
        assert self.check(current, {}, [1, 2], [], GEO) == {}


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
