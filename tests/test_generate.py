"""Random generators: advertised invariants, determinism, exact marginals."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    NonSimpleScenario,
    Scenario,
    check_nondisturbance,
    check_possibilistic_nd,
    chordless_cycles,
    deterministic_behavior,
    is_noncontextual,
    joint_outcomes,
    make_bipartite_bell,
    make_n_cycle,
    noncontextual_weight,
    random_nd_coupling,
    random_nd_mixture,
    random_pnd,
    random_tree_scenario,
)
from contextuality.generate import _transport_vertex

SCENARIOS = [
    make_n_cycle(3),
    make_n_cycle(5),
    make_n_cycle(4, l=3),
    make_bipartite_bell(2, 2),
]

TRIANGLE = Scenario(
    ("A", "B", "C"),
    {m: ("0", "1") for m in "ABC"},
    (("A", "B", "C"),),
)


# ======================================================================
# 1. Possibilistic draws
# ======================================================================


class TestRandomPnd:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=0, max_value=3),
    )
    def test_always_possibilistically_nd(self, seed, which):
        s = SCENARIOS[which]
        pb = random_pnd(s, random.Random(seed))
        assert check_possibilistic_nd(pb).ok
        for ci, c in enumerate(s.contexts):
            assert any(pb.tables[ci]), f"context {c} drew an empty relation"

    def test_rejects_large_contexts(self):
        with pytest.raises(NonSimpleScenario):
            random_pnd(TRIANGLE, random.Random(0))


# ======================================================================
# 2. Nondisturbing couplings
# ======================================================================


class TestRandomNdCoupling:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=0, max_value=3),
    )
    def test_always_exactly_nondisturbing(self, seed, which):
        s = SCENARIOS[which]
        b = random_nd_coupling(s, random.Random(seed))
        assert check_nondisturbance(b).ok
        for t in b.tables:
            assert sum(t) == 1
            assert all(isinstance(x, Fraction) and x >= 0 for x in t)

    def test_shared_marginals_across_contexts(self):
        s = make_n_cycle(5)
        b = random_nd_coupling(s, random.Random(11))
        for m in s.measurements:
            holders = [ci for ci, c in enumerate(s.contexts) if m in c]
            vals = {
                tuple(b.marginal(ci, (m,), (o,)) for o in s.outcomes[m])
                for ci in holders
            }
            assert len(vals) == 1, f"{m} has {len(vals)} distinct marginals"

    def test_rejects_large_contexts(self):
        with pytest.raises(NonSimpleScenario):
            random_nd_coupling(TRIANGLE, random.Random(0))


class TestTransportVertex:
    def test_exact_marginals(self):
        qu = (Fraction(1, 3), Fraction(2, 3))
        qv = (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
        for seed in range(20):
            table = _transport_vertex(qu, qv, random.Random(seed))
            assert [sum(row) for row in table] == list(qu)
            assert [sum(col) for col in zip(*table)] == list(qv)
            assert all(x >= 0 for row in table for x in row)

    def test_vertex_support_is_small(self):
        # A transportation-polytope vertex has at most rows+cols-1 nonzeros.
        qu = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
        qv = (Fraction(2, 5), Fraction(3, 5))
        for seed in range(20):
            table = _transport_vertex(qu, qv, random.Random(seed))
            nonzeros = sum(1 for row in table for x in row if x > 0)
            assert nonzeros <= len(qu) + len(qv) - 1


# ======================================================================
# 3. Deterministic behaviors and mixtures
# ======================================================================


class TestDeterministic:
    def test_tables_are_indicator_rows(self):
        s = make_n_cycle(4)
        a = {"M1": "1", "M2": "0", "M3": "1", "M4": "0"}
        b = deterministic_behavior(s, a)
        for ci, c in enumerate(s.contexts):
            target = tuple(a[m] for m in c)
            for cell, joint in zip(b.tables[ci], joint_outcomes(s, c)):
                assert cell == (1 if joint == target else 0)

    def test_missing_measurement_rejected(self):
        s = make_n_cycle(3)
        with pytest.raises(ValueError):
            deterministic_behavior(s, {"M1": "0", "M2": "0"})

    def test_unknown_outcome_rejected(self):
        s = make_n_cycle(3)
        with pytest.raises(ValueError):
            deterministic_behavior(s, {"M1": "0", "M2": "0", "M3": "7"})


class TestRandomMixture:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=0, max_value=3),
    )
    def test_plain_mixtures_are_noncontextual(self, seed, which):
        s = SCENARIOS[which]
        b = random_nd_mixture(s, random.Random(seed))
        assert check_nondisturbance(b).ok
        assert is_noncontextual(b)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_box_component_keeps_nondisturbance(self, seed):
        s = make_n_cycle(4)
        b = random_nd_mixture(s, random.Random(seed), include_pr=True)
        assert check_nondisturbance(b).ok

    def test_box_component_can_leave_classical_polytope(self):
        b = random_nd_mixture(make_n_cycle(4), random.Random(3), include_pr=True)
        assert noncontextual_weight(b) == Fraction(11, 12)

    @pytest.mark.parametrize("components, include_pr", [(0, False), (-1, False), (-2, True)])
    def test_bad_component_count_named_before_any_draw(self, components, include_pr):
        rng = random.Random(9)
        state = rng.getstate()
        with pytest.raises(ValueError, match="components"):
            random_nd_mixture(make_n_cycle(4), rng, components, include_pr=include_pr)
        assert rng.getstate() == state

    def test_component_count_respected(self):
        s = make_n_cycle(3)
        b = random_nd_mixture(s, random.Random(5), components=1)
        # One deterministic part: every table is an indicator row.
        for t in b.tables:
            assert sorted(t) == [0, 0, 0, 1]


# ======================================================================
# 4. Tree scenarios
# ======================================================================


class TestRandomTree:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_always_acyclic_and_simple(self, seed):
        s = random_tree_scenario(random.Random(seed))
        assert s.is_simple
        assert 2 <= len(s.measurements) <= 8
        assert len(s.contexts) == len(s.measurements) - 1
        assert chordless_cycles(s).is_acyclic
        for m in s.measurements:
            k = len(s.outcomes[m])
            assert k in (2, 3)
            if k == 3:
                assert len(s.measurements) <= 5, "three-outcome trees stay small"


# ======================================================================
# 5. Determinism from seeds
# ======================================================================


class TestDeterminism:
    def test_same_seed_same_draw(self):
        s = make_n_cycle(5)
        assert (
            random_pnd(s, random.Random(42)).tables
            == random_pnd(s, random.Random(42)).tables
        )
        assert (
            random_nd_coupling(s, random.Random(42)).tables
            == random_nd_coupling(s, random.Random(42)).tables
        )
        assert (
            random_nd_mixture(s, random.Random(42)).tables
            == random_nd_mixture(s, random.Random(42)).tables
        )
        a = random_tree_scenario(random.Random(42))
        b = random_tree_scenario(random.Random(42))
        assert (a.measurements, a.contexts, a.outcomes) == (b.measurements, b.contexts, b.outcomes)

    def test_different_seeds_differ_somewhere(self):
        s = make_n_cycle(5)
        draws = {random_pnd(s, random.Random(seed)).tables for seed in range(8)}
        assert len(draws) > 1
