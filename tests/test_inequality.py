"""Cycle correlator inequalities: exact values, tight members, bounds."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    Behavior,
    InvalidBehavior,
    NcycleInequality,
    NonDichotomic,
    NotCycle,
    NotNondisturbing,
    Scenario,
    collapse,
    correlator,
    evaluate,
    evaluate_all,
    fixture,
    make_n_cycle,
    quantum_bound,
    random_nd_coupling,
    random_nd_mixture,
)
from contextuality import inequality

import oracle

PR = fixture("pr-box")


def uniform_cycle(n: int) -> Behavior:
    s = make_n_cycle(n)
    q = Fraction(1, 4)
    return Behavior(scenario=s, tables=tuple((q, q, q, q) for _ in range(n)))


def tied_cycle() -> Behavior:
    """The 4-cycle with every table (3/8, 1/8, 1/8, 3/8): four tied E_i = 1/2
    and no minus sign, so the repair must pick the first of the ties."""
    t = (Fraction(3, 8), Fraction(1, 8), Fraction(1, 8), Fraction(3, 8))
    return Behavior(make_n_cycle(4), (t,) * 4)


def chsh(v: Fraction, n: int = 4) -> Behavior:
    """The n-cycle with uniform marginals and E = (v/n, ..., v/n, -v/n), whose
    largest family member has value v."""
    tables = []
    for e in (v / n,) * (n - 1) + (-v / n,):
        same, other = (1 + e) / 4, (1 - e) / 4
        tables.append((same, other, other, same))
    return Behavior(make_n_cycle(n), tuple(tables))


# ======================================================================
# 1. Correlators
# ======================================================================


class TestCorrelator:
    def test_uniform_context_is_zero(self):
        b = uniform_cycle(4)
        assert all(correlator(b, i) == 0 for i in (1, 2, 3, 4))

    def test_pr_box_contexts(self):
        # Three perfectly correlated contexts, one anticorrelated.
        assert [correlator(PR, i) for i in (1, 2, 3, 4)] == [1, 1, 1, -1]

    def test_exact_fraction(self):
        s = make_n_cycle(3)
        t = (Fraction(1, 3), Fraction(1, 6), Fraction(1, 6), Fraction(1, 3))
        b = Behavior(scenario=s, tables=(t, t, t))
        assert correlator(b, 1) == Fraction(1, 3)

    def test_index_range_checked(self):
        b = uniform_cycle(4)
        with pytest.raises(ValueError):
            correlator(b, 0)
        with pytest.raises(ValueError):
            correlator(b, 5)

    def test_non_dichotomic_rejected(self):
        s = make_n_cycle(3, l=3)
        q = Fraction(1, 9)
        b = Behavior(scenario=s, tables=tuple((q,) * 9 for _ in range(3)))
        with pytest.raises(NonDichotomic):
            correlator(b, 1)


# ======================================================================
# 2. Inequality members and evaluation
# ======================================================================


class TestMembers:
    def test_classical_bound(self):
        assert NcycleInequality((1, 1, 1, -1)).classical_bound == 2
        assert NcycleInequality((-1,) * 5).classical_bound == 3

    @pytest.mark.parametrize(
        "signs",
        [(1, 1), (1, 1, 2), (1, 1, 1, 1), (1, -1, -1, 1)],
        ids=["too-short", "bad-entry", "zero-minus", "two-minus"],
    )
    def test_invalid_members_rejected(self, signs):
        with pytest.raises(ValueError):
            NcycleInequality(signs)

    def test_evaluate_pr_box_chsh(self):
        value = evaluate(PR, NcycleInequality((1, 1, 1, -1)))
        assert value == 4, f"PR box reaches the algebraic maximum, got {value}"

    def test_evaluate_sign_count_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(PR, NcycleInequality((1, 1, -1)))

    def test_evaluate_checks_once_and_never_calls_correlator(self, monkeypatch):
        rng = random.Random(25)
        behaviors = [PR, fixture("hardy"), fixture("cabello5"), uniform_cycle(5)]
        behaviors += [random_nd_coupling(make_n_cycle(rng.randint(3, 7)), rng) for _ in range(20)]
        members = [NcycleInequality((-1,) + (1,) * (len(b.scenario.contexts) - 1)) for b in behaviors]
        expected = [sum(g * correlator(b, i + 1) for i, g in enumerate(m.signs)) for b, m in zip(behaviors, members)]
        monkeypatch.setattr(inequality, "correlator", lambda *args: pytest.fail("evaluate called correlator"))
        assert [evaluate(b, m) for b, m in zip(behaviors, members)] == expected
        with pytest.raises(InvalidBehavior):
            evaluate(collapse(PR), NcycleInequality((1, 1, 1, -1)))
        with pytest.raises(NonDichotomic, match="'M1' has 3 outcomes"):
            evaluate(random_nd_coupling(make_n_cycle(4, 3), rng), NcycleInequality((1, 1, 1, -1)))

    def test_evaluate_requires_cycle(self):
        names = ("M1", "M2", "M3")
        s = Scenario(
            names,
            {m: ("0", "1") for m in names},
            (("M1", "M2"), ("M2", "M3")),
        )
        q = Fraction(1, 4)
        b = Behavior(scenario=s, tables=((q,) * 4, (q,) * 4))
        with pytest.raises(NotCycle):
            evaluate(b, NcycleInequality((1, 1, -1)))


# ======================================================================
# 3. Family maximization
# ======================================================================


class TestEvaluateAll:
    def test_pr_box_report(self):
        r = evaluate_all(PR)
        assert r.max_value == 4
        assert r.signs == (1, 1, 1, -1)
        assert r.classical_bound == 2
        assert r.violates_classical
        assert r.violates_quantum, "4 exceeds Tsirelson's bound"

    def test_uniform_report(self):
        r = evaluate_all(uniform_cycle(5))
        assert r.max_value == 0
        assert r.signs.count(-1) % 2 == 1
        assert not r.violates_classical
        assert not r.violates_quantum

    def test_tied_correlators_flip_the_first_sign(self):
        r = evaluate_all(tied_cycle())
        assert r.max_value == 1 and r.signs == (-1, 1, 1, 1), r

    def test_quantum_flag_just_past_tsirelson(self):
        # 2*sqrt(2) = 2.82842712474..., about 9.5e-10 below the first value
        above, below = Fraction(28284271257, 10**10), Fraction(28284271237, 10**10)
        assert evaluate_all(chsh(above)).max_value == above
        assert evaluate_all(chsh(above)).violates_quantum is True
        assert evaluate_all(chsh(below)).violates_quantum is False

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 12, 13])
    def test_quantum_flag_is_exact_near_the_bound(self, n):
        # 1e-13 is well past the float error of quantum_bound(n) and well
        # inside the 1e-12 slack a float comparison would need
        qb = Fraction(quantum_bound(n))
        above, below = qb + Fraction(1, 10**13), qb - Fraction(1, 10**13)
        assert evaluate_all(chsh(above, n)).max_value == above
        assert evaluate_all(chsh(above, n)).violates_quantum is True
        assert evaluate_all(chsh(below, n)).violates_quantum is False

    def test_quantum_flag_at_the_triangle_bound(self):
        # quantum_bound(3) is 1 = n - 2 exactly, though its float reads 1 + 7e-16
        assert evaluate_all(chsh(Fraction(1), 3)).violates_quantum is False

    def test_json_round_trip_values(self):
        d = evaluate_all(PR).to_json_dict()
        assert d["max_value"] == "4"
        assert d["max_value_float"] == 4.0
        assert d["signs"] == [1, 1, 1, -1]
        assert d["classical_bound"] == 2
        assert d["violates_classical"] is True

    def test_disturbing_rejected(self):
        s = make_n_cycle(3)
        tables = (
            (Fraction(1, 4), Fraction(0), Fraction(0), Fraction(3, 4)),
            (Fraction(1, 4),) * 4,
            (Fraction(1, 4),) * 4,
        )
        with pytest.raises(NotNondisturbing):
            evaluate_all(Behavior(scenario=s, tables=tables))

    def test_acyclic_rejected(self):
        names = ("M1", "M2", "M3")
        s = Scenario(
            names,
            {m: ("0", "1") for m in names},
            (("M1", "M2"), ("M2", "M3")),
        )
        q = Fraction(1, 4)
        b = Behavior(scenario=s, tables=((q,) * 4, (q,) * 4))
        with pytest.raises(NotCycle):
            evaluate_all(b)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=3, max_value=6),
        st.booleans(),
    )
    def test_matches_exhaustive_family_scan(self, seed, n, use_mixture):
        rng = random.Random(seed)
        s = make_n_cycle(n)
        b = (
            random_nd_mixture(s, rng, include_pr=True)
            if use_mixture
            else random_nd_coupling(s, rng)
        )
        value = oracle.brute_inequality_max(b)
        r = evaluate_all(b)
        assert r.max_value == value, f"closed form {r.max_value} vs scan {value}"
        assert r.signs.count(-1) % 2 == 1
        assert evaluate(b, NcycleInequality(r.signs)) == r.max_value


# ======================================================================
# 4. Quantum bounds
# ======================================================================


class TestQuantumBound:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (4, 2.8284271247461903),
            (5, 3.9442719099991597),
            (6, 5.196152422706632),
            (7, 6.2706688295763815),
        ],
    )
    def test_frozen_values(self, n, expected):
        assert quantum_bound(n) == pytest.approx(expected, abs=1e-12)

    def test_tsirelson_is_two_root_two(self):
        assert quantum_bound(4) == pytest.approx(2 * math.sqrt(2), abs=1e-15)

    def test_below_algebraic_maximum(self):
        for n in range(3, 12):
            assert n - 2 < quantum_bound(n) < n

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            quantum_bound(2)
