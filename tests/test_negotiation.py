import json
from dataclasses import asdict, dataclass, is_dataclass
from enum import Enum

import pytest
from hypothesis import given, settings, strategies as st

import swarmplan.negotiation
from swarmplan.comms import CommGraph, gossip
from swarmplan.negotiation import (AgreementOutcome, Phase, PhaseMismatchError,
                                   Proposal, agreement, canonical, negotiate)
from swarmplan.priority import Criterion
from swarmplan.formation import FormationPlan
from swarmplan.selection import SelectionPlan
from helpers import random_connected_graph


def proposal(payload, phase=Phase.SELECTION, proposer=0):
    return Proposal(phase=phase, proposer=proposer, payload=payload)


ORDER = (Criterion("battery"), Criterion("id"))


def complete_graph(ids):
    ids = frozenset(ids)
    return CommGraph({i: ids - {i} for i in ids})


class TestCanonical:
    def test_float_precision_fixed(self):
        assert canonical(0.1 + 0.2) == canonical(0.3)

    def test_key_order_irrelevant(self):
        assert canonical({1: "a", 2: "b"}) == canonical({2: "b", 1: "a"})

    def test_sets_sorted(self):
        assert canonical({3, 1, 2}) == canonical({2, 3, 1})


def reference_canonical(payload):
    """``canonical`` as built on ``dataclasses.asdict``."""
    def plain(obj):
        if is_dataclass(obj) and not isinstance(obj, type):
            return plain(asdict(obj))
        if isinstance(obj, Enum):
            return obj.value
        if isinstance(obj, float):
            return format(obj, ".9f")
        if isinstance(obj, dict):
            return {str(k): plain(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
        if isinstance(obj, (list, tuple)):
            return [plain(v) for v in obj]
        if isinstance(obj, (set, frozenset)):
            return sorted(plain(v) for v in obj)
        return obj
    return json.dumps(plain(payload), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Wrapped:
    plans: tuple
    phase: Phase


_ids = st.integers(-3, 40)
_values = st.none() | _ids | st.floats(allow_nan=False)
_selection = st.builds(SelectionPlan, st.dictionaries(_ids, _values, max_size=8))
_formation = st.builds(FormationPlan, st.dictionaries(_ids, _values, max_size=8))
_plan = _selection | _formation
_payloads = (_plan | st.lists(_plan, max_size=3)
             | st.builds(Wrapped, st.lists(_plan, max_size=3).map(tuple),
                         st.sampled_from(list(Phase))))


@given(_payloads)
@settings(max_examples=150, deadline=None)
def test_canonical_matches_asdict_reference(payload):
    assert canonical(payload) == reference_canonical(payload)


class TestAgreement:
    def test_identical_plans_end(self):
        plans = [proposal(SelectionPlan(assignment={1: 5}), proposer=i)
                 for i in range(3)]
        assert agreement(plans) is AgreementOutcome.END

    def test_differing_plans_conflict(self):
        a = proposal(SelectionPlan(assignment={1: 5, 2: None}), proposer=1)
        b = proposal(SelectionPlan(assignment={1: 5, 2: 6}), proposer=2)
        assert agreement([a, b]) is AgreementOutcome.CONFLICT

    def test_single_proposal_end(self):
        assert agreement([proposal("x")]) is AgreementOutcome.END

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            agreement([])

    def test_mixed_phases_rejected(self):
        with pytest.raises(PhaseMismatchError):
            agreement([proposal("x", phase=Phase.SELECTION),
                       proposal("x", phase=Phase.FORMATION)])

    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=8))
    @settings(deadline=None)
    def test_end_iff_all_identical(self, payloads):
        proposals = [proposal(p, proposer=i) for i, p in enumerate(payloads)]
        outcome = agreement(proposals)
        if len(set(payloads)) == 1:
            assert outcome is AgreementOutcome.END
        else:
            assert outcome is AgreementOutcome.CONFLICT


class TestNegotiate:
    def test_equal_knowledge_one_iteration(self):
        group = {1, 2, 3}
        knowledge = {i: frozenset({"t1"}) for i in group}

        def planner(member, know, depth):
            return sorted(know)

        result = negotiate(Phase.SELECTION, group, complete_graph(group),
                           ORDER, planner, knowledge)
        assert result.iterations == 1
        assert result.payload == ["t1"]
        assert result.comm_rounds == 1

    def test_asymmetric_knowledge_two_iterations(self):
        # member 3 missed a datagram: the first exchange spreads it, the
        # replan agrees on the merged knowledge
        group = {1, 2, 3}
        knowledge = {1: frozenset({"t1", "t2"}), 2: frozenset({"t1", "t2"}),
                     3: frozenset({"t1"})}

        def planner(member, know, depth):
            return sorted(item for item in know if isinstance(item, str))

        result = negotiate(Phase.SELECTION, group, complete_graph(group),
                           ORDER, planner, knowledge)
        assert result.iterations == 2
        assert result.payload == ["t1", "t2"]

    def test_member_order_independent(self):
        knowledge = {i: frozenset({i % 2}) for i in range(5)}

        def planner(member, know, depth):
            return sorted(know, key=repr)

        graph = complete_graph(range(5))
        a = negotiate(Phase.SELECTION, set(range(5)), graph, ORDER, planner,
                      knowledge)
        b = negotiate(Phase.SELECTION, frozenset(range(5)), graph, ORDER,
                      planner, knowledge)
        assert canonical(a.payload) == canonical(b.payload)
        assert a.iterations == b.iterations <= 2

    def test_line_graph_converges(self):
        graph = CommGraph({1: frozenset({2}), 2: frozenset({1, 3}),
                           3: frozenset({2})})
        knowledge = {1: frozenset({"a"}), 2: frozenset({"a"}),
                     3: frozenset({"a", "b"})}

        def planner(member, know, depth):
            return sorted(item for item in know if isinstance(item, str))

        result = negotiate(Phase.SELECTION, {1, 2, 3}, graph, ORDER, planner,
                           knowledge)
        assert result.iterations <= 2
        assert result.payload == ["a", "b"]
        # two exchanges over a diameter-2 line: 2 rounds each
        assert result.comm_rounds == 4


class TestCanonicalCalls:
    @pytest.mark.parametrize("knowledge, iterations", [
        ({1: frozenset({"t1"}), 2: frozenset({"t1"}), 3: frozenset({"t1"})}, 1),
        ({1: frozenset({"t1", "t2"}), 2: frozenset({"t1"}), 3: frozenset({"t1"})}, 2),
    ])
    def test_once_per_proposal_per_iteration(self, monkeypatch, knowledge,
                                             iterations):
        calls = []

        def counted(payload):
            calls.append(payload)
            return canonical(payload)

        monkeypatch.setattr(swarmplan.negotiation, "canonical", counted)

        def planner(member, know, depth):
            return sorted(item for item in know if isinstance(item, str))

        group = set(knowledge)
        result = negotiate(Phase.SELECTION, group, complete_graph(group), ORDER,
                           planner, knowledge)
        assert result.iterations == iterations
        assert len(calls) == len(group) * iterations

    @pytest.mark.parametrize("knowledge, objects", [
        # every member proposes one shared object
        ({1: frozenset({"t1"}), 2: frozenset({"t1"}), 3: frozenset({"t1"})}, [1]),
        # two knowledge sets, two objects; after the merge, one
        ({1: frozenset({"t1", "t2"}), 2: frozenset({"t1"}), 3: frozenset({"t1"})},
         [2, 1]),
    ])
    def test_once_per_plan_object_per_iteration(self, monkeypatch, knowledge,
                                                objects):
        calls = []

        def counted(payload):
            calls.append(payload)
            return canonical(payload)

        monkeypatch.setattr(swarmplan.negotiation, "canonical", counted)
        plans = {}

        def planner(member, know, depth):
            # as the engine's: members that know the same share one plan object
            if know not in plans:
                plans[know] = sorted(item for item in know if isinstance(item, str))
            return plans[know]

        group = set(knowledge)
        result = negotiate(Phase.SELECTION, group, complete_graph(group), ORDER,
                           planner, knowledge)
        assert result.iterations == len(objects)
        assert len(calls) == sum(objects)
        assert result.payload is plans[frozenset().union(*knowledge.values())]

    def test_key_is_canonical_payload(self):
        plan = SelectionPlan(assignment={1: 2, 3: None})
        assert proposal(plan, proposer=1).key == canonical(plan)


def ref_negotiate(phase, group, graph, order, planner, knowledge):
    """The former ``negotiate``, which read the agreement back from gossip's
    equilibrium; it calls ``canonical`` and ``gossip`` through the module, so
    a monkeypatch counts both sides."""
    neg = swarmplan.negotiation
    members = sorted(group)
    know = {i: frozenset(knowledge[i]) for i in members}
    depth = 0
    iterations = 0
    comm_rounds = 0
    while True:
        if depth >= len(order):
            raise swarmplan.ExhaustedCriteriaError(f"negotiation stuck in phase {phase}")
        iterations += 1
        plans = {i: planner(i, know[i], depth) for i in members}
        keys = {}
        for plan in plans.values():
            if id(plan) not in keys:
                keys[id(plan)] = neg.canonical(plan)
        proposals = {i: Proposal(phase, i, plans[i], keys[id(plans[i])])
                     for i in members}
        payloads = {i: (proposals[i].key, know[i]) for i in members}
        equilibrium, rounds = neg.gossip(payloads, graph, frozenset(members))
        comm_rounds += rounds
        items = sorted(equilibrium[members[0]].items, key=lambda item: item[0])
        received = [proposals[origin] for origin, _ in items]
        if agreement(received) is AgreementOutcome.END:
            return neg.NegotiationResult(
                payload=proposals[members[0]].payload, iterations=iterations,
                comm_rounds=comm_rounds)
        merged = frozenset().union(*(k for _, (_, k) in items))
        know = {i: know[i] | merged for i in members}
        depth += 1


def _knowledge_only():
    # as the engine's: members that know the same share one plan object
    plans = {}
    return lambda member, know, depth: plans.setdefault(know, sorted(know))


def _member_stubborn():
    return lambda member, know, depth: [member]


def _depth_dependent():
    # members split by parity at depth 0 and plan from knowledge after
    return lambda member, know, depth: [sorted(know), member % max(1, 2 - depth)]


def _line_graph(n):
    return CommGraph({i: frozenset({i - 1, i + 1} & set(range(n))) for i in range(n)})


@st.composite
def _negotiations(draw):
    n = draw(st.integers(1, 6))
    graph = (_line_graph(n) if draw(st.booleans())
             else random_connected_graph(draw(st.randoms(use_true_random=False)), n))
    knowledge = {i: draw(st.frozensets(st.sampled_from("abcd"))) for i in range(n)}
    order = draw(st.lists(st.sampled_from(ORDER), min_size=1, max_size=3))
    planner = draw(st.sampled_from([_knowledge_only, _member_stubborn, _depth_dependent]))
    return frozenset(range(n)), graph, tuple(order), planner, knowledge


def _observed(negotiator, group, graph, order, make_planner, knowledge):
    """What one negotiation returns or raises, the planner calls it makes
    and the ``canonical`` and ``gossip`` calls it makes with their rounds."""
    calls, plans, counts = [], [], {"canonical": 0, "gossip": 0, "rounds": 0}
    planner = make_planner()

    def recorded(member, know, depth):
        calls.append((member, know, depth))
        plans.append(planner(member, know, depth))
        return plans[-1]

    def counted_canonical(payload):
        counts["canonical"] += 1
        return canonical(payload)

    def counted_gossip(payloads, graph, group):
        result = gossip(payloads, graph, group)
        counts["gossip"] += 1
        counts["rounds"] += result[1]
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(swarmplan.negotiation, "canonical", counted_canonical)
        mp.setattr(swarmplan.negotiation, "gossip", counted_gossip)
        try:
            result = negotiator(Phase.SELECTION, group, graph, order, recorded,
                                knowledge)
        except swarmplan.ExhaustedCriteriaError as error:
            outcome = ("exhausted", str(error))
        else:
            # the payload named by the first planner call that returned it
            source = next(k for k, plan in enumerate(plans) if plan is result.payload)
            outcome = (source, result.iterations, result.comm_rounds)
    return outcome, calls, counts


@given(_negotiations())
@settings(max_examples=300, deadline=None)
def test_negotiate_matches_former_loop(case):
    assert _observed(negotiate, *case) == _observed(ref_negotiate, *case)


def test_stubborn_group_exhausts_the_order():
    group, graph = frozenset({1, 2}), complete_graph({1, 2})
    knowledge = dict.fromkeys(group, frozenset())
    with pytest.raises(swarmplan.ExhaustedCriteriaError,
                       match="negotiation stuck in phase Phase.SELECTION"):
        negotiate(Phase.SELECTION, group, graph, ORDER, _member_stubborn(), knowledge)


def test_empty_group_has_no_proposals():
    # the former loop failed by accident, indexing an empty member list
    with pytest.raises(IndexError):
        ref_negotiate(Phase.SELECTION, frozenset(), complete_graph(()), ORDER,
                      _knowledge_only(), {})
    with pytest.raises(ValueError, match="no proposals to compare"):
        negotiate(Phase.SELECTION, frozenset(), complete_graph(()), ORDER,
                  _knowledge_only(), {})
