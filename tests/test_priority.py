from hypothesis import given, settings, strategies as st

from swarmplan.priority import (LOW_BATTERY_WITHDRAWAL, Criterion, PriorityLaw,
                                compile_law, sort_queue)


def ctx(**batteries):
    return {int(k[1:]): {"battery": v, "task_rank": 0.0, "utility": 0.0}
            for k, v in batteries.items()}


class TestCompileLaw:
    def test_every_law_ends_in_id_tiebreak(self):
        for law in PriorityLaw:
            order = compile_law(law)
            assert order[-1] == Criterion("id")
            assert compile_law(law) is order  # compiled once, not per call

    def test_low_e_is_battery_ascending(self):
        assert compile_law(PriorityLaw.LOW_E)[0] == Criterion("battery")

    def test_high_e_is_battery_descending(self):
        assert compile_law(PriorityLaw.HIGH_E)[0] == Criterion("battery",
                                                               descending=True)

    def test_task_laws_rank_first(self):
        for law in (PriorityLaw.T_LOW_E, PriorityLaw.T_HIGH_E):
            assert compile_law(law)[0] == Criterion("task_rank")

    def test_cata_u_utility_first(self):
        assert compile_law(PriorityLaw.CATA_U)[0] == Criterion("utility",
                                                                descending=True)


class TestSortQueue:
    def test_low_e_ordering(self):
        context = ctx(r1=80.0, r2=60.0, r3=90.0)
        order = compile_law(PriorityLaw.LOW_E)
        assert sort_queue([1, 2, 3], context, order) == [2, 1, 3]

    def test_high_e_ordering(self):
        context = ctx(r1=80.0, r2=60.0, r3=90.0)
        order = compile_law(PriorityLaw.HIGH_E)
        assert sort_queue([1, 2, 3], context, order) == [3, 1, 2]

    def test_id_tiebreak(self):
        context = ctx(r1=70.0, r2=70.0)
        order = compile_law(PriorityLaw.LOW_E)
        assert sort_queue([2, 1], context, order) == [1, 2]

    def test_id_tiebreak_beyond_float_precision(self):
        # 2**53 + 1 has no float of its own: as floats the two ids tie
        big = 2**53
        context = {big: {"battery": 70.0}, big + 1: {"battery": 70.0}}
        order = compile_law(PriorityLaw.LOW_E)
        assert sort_queue([big + 1, big], context, order) == [big, big + 1]

    def test_duality_low_vs_high(self):
        context = ctx(r1=61.0, r2=85.0, r3=42.0, r4=99.0)
        low = sort_queue([1, 2, 3, 4], context, compile_law(PriorityLaw.LOW_E))
        high = sort_queue([1, 2, 3, 4], context, compile_law(PriorityLaw.HIGH_E))
        assert low == high[::-1]

    @given(st.dictionaries(st.integers(0, 50), st.floats(0, 100),
                           min_size=1, max_size=12),
           st.sampled_from(list(PriorityLaw)))
    @settings(deadline=None)
    def test_total_order_and_permutation_invariance(self, batteries, law):
        context = {i: {"battery": b, "task_rank": float(i % 3), "utility": -b}
                   for i, b in batteries.items()}
        ids = list(batteries)
        order = compile_law(law)
        forward = sort_queue(ids, context, order)
        backward = sort_queue(list(reversed(ids)), context, order)
        assert forward == backward
        assert sorted(forward) == sorted(ids)
        assert len(set(forward)) == len(ids)


def test_withdrawal_threshold_value():
    assert LOW_BATTERY_WITHDRAWAL == 5.0
