"""Behavior tables, marginals, disturbance checks, and JSON round-trips."""

import dataclasses
import itertools
import json
import math
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    Behavior,
    ContextualityError,
    EvenCycleParams,
    OddCycleParams,
    EnumerationCapExceeded,
    InvalidBehavior,
    InvalidScenario,
    NegativeProbability,
    PossibilisticBehavior,
    Scenario,
    SubsetNotInContext,
    WrongScenarioShape,
    behavior_from_json_dict,
    behavior_to_json_dict,
    build_even_cycle,
    build_odd_cycle,
    check_nondisturbance,
    check_possibilistic_nd,
    collapse,
    evaluate_all,
    fixture,
    hierarchy,
    joint_outcomes,
    load_behavior,
    make_bipartite_bell,
    make_n_cycle,
    noncontextual_weight,
    random_nd_coupling,
    random_nd_mixture,
    random_pnd,
    save_behavior,
)
from contextuality import behavior as behavior_module
from contextuality.errors import shown

import oracle

F = Fraction


def uniform_behavior(s: Scenario) -> Behavior:
    tables = []
    for i in range(len(s.contexts)):
        cells = 1
        for m in s.contexts[i]:
            cells *= len(s.outcomes[m])
        tables.append((F(1, cells),) * cells)
    return Behavior(s, tuple(tables))


def wide_payload(width: int, possibilistic: bool) -> dict:
    """JSON for one context of width binary measurements, all mass on one cell."""
    names = [f"X{i}" for i in range(width)]
    scenario = {"measurements": names, "outcomes": {m: ["0", "1"] for m in names}, "contexts": [names]}
    table = {"possible": [["0"] * width]} if possibilistic else {"probs": {",".join("0" * width): "1"}}
    return {"scenario": scenario, "tables": [{"context": names, **table}]}


# ============================================================
# 1. Table validation
# ============================================================

class TestValidation:
    def test_cell_count_must_match(self):
        s = make_n_cycle(3)
        with pytest.raises(InvalidBehavior):
            Behavior(s, ((F(1),),) * 3)

    def test_negative_cell(self):
        s = make_n_cycle(3)
        bad = ((F(-1, 4), F(1, 2), F(1, 2), F(1, 4)),) + ((F(1, 4),) * 4,) * 2
        with pytest.raises(NegativeProbability):
            Behavior(s, bad)

    def test_sum_must_be_one(self):
        s = make_n_cycle(3)
        bad = ((F(1, 4),) * 4,) * 2 + ((F(1, 8),) * 4,)
        with pytest.raises(InvalidBehavior):
            Behavior(s, bad)

    def test_possibilistic_needs_a_possible_outcome(self):
        s = make_n_cycle(3)
        with pytest.raises(InvalidBehavior):
            PossibilisticBehavior(s, ((False,) * 4,) + ((True,) * 4,) * 2)

    def test_tables_are_exact(self):
        b = uniform_behavior(make_n_cycle(4))
        assert all(isinstance(x, Fraction) for t in b.tables for x in t)


# ============================================================
# 2. Probabilities and marginals
# ============================================================

class TestMarginals:
    def test_probability_lookup(self):
        b = fixture("pr-box")
        assert b.probability(0, ("0", "0")) == F(1, 2)
        assert b.probability(3, ("0", "0")) == F(0)

    def test_marginal_of_pr_box_row(self):
        # row {A1,B1} is uniform on {(0,0),(1,1)}; its {A1} marginal is 1/2, 1/2
        b = fixture("pr-box")
        assert b.marginal(0, ("A1",), ("0",)) == F(1, 2)
        assert b.marginal(0, ("A1",), ("1",)) == F(1, 2)

    def test_repeated_measurement_reads_one_outcome(self):
        b = fixture("pr-box")
        assert b.marginal(0, ("A1", "A1"), ("1", "1")) == F(1, 2)
        assert b.marginal(0, ("A1", "B1", "A1"), ("0", "0", "0")) == F(1, 2)
        assert b.marginal(0, ("A1", "A1"), ("0", "1")) == 0
        assert collapse(b).marginal(0, ("A1", "A1"), ("1", "0")) is False

    def test_marginal_requires_subset(self):
        b = fixture("pr-box")
        with pytest.raises(SubsetNotInContext):
            b.marginal(0, ("A2",), ("0",))

    def test_possibilistic_marginal_is_or(self):
        pb = collapse(fixture("hardy"))
        # context 2 = (B1, A2) misses only (1,0); B1=1 still possible via (1,1)
        assert pb.marginal(1, ("B1",), ("1",)) is True
        assert pb.marginal(1, ("B1",), ("0",)) is True

    def test_marginals_match_reference(self):
        # Shuffled pair and triple contexts: every ordered measurement subset
        # and joint outcome, plus a subset reaching outside the context.
        rng = random.Random(86)
        names = [f"X{i}" for i in range(6)]
        checked = 0
        for draw in range(40):
            outcomes = {m: tuple(str(o) for o in range(rng.randint(2, 3))) for m in names}
            if draw % 2:
                contexts = [("X0", "X1", "X2"), ("X2", "X3", "X4"), ("X4", "X5", "X0")]
            else:
                contexts = [(names[i], names[(i + 1) % 6]) for i in range(6)]
            contexts = [tuple(rng.sample(c, len(c))) for c in contexts]
            rng.shuffle(contexts)
            s = Scenario(tuple(names), outcomes, tuple(contexts))
            tables = [[rng.random() < 0.5 for _ in joint_outcomes(s, c)] for c in s.contexts]
            for table in tables:
                table[rng.randrange(len(table))] = True
            pb = PossibilisticBehavior(s, tuple(map(tuple, tables)))
            behaviors = [pb]
            if draw % 2 == 0:
                b = random_nd_coupling(s, rng)
                behaviors += [b, collapse(b)]
            for beh in behaviors:
                kind = Fraction if isinstance(beh, Behavior) else bool
                for ci, c in enumerate(s.contexts):
                    for k in range(1, len(c) + 1):
                        for sub in itertools.permutations(c, k):
                            for joint in itertools.product(*(s.outcomes[m] for m in sub)):
                                got = beh.marginal(ci, sub, joint)
                                assert type(got) is kind
                                assert got == oracle.ref_marginal(beh, ci, sub, joint)
                                checked += 1
                    outside = next(m for m in names if m not in c)
                    with pytest.raises(SubsetNotInContext):
                        beh.marginal(ci, (c[0], outside), (s.outcomes[c[0]][0], s.outcomes[outside][0]))
            cells = list(joint_outcomes(s, s.contexts[0]))
            assert pb.possible_outcomes(0) == tuple(j for j, p in zip(cells, pb.tables[0]) if p)
        assert checked > 3000, checked


# ============================================================
# 3. Collapse and disturbance
# ============================================================

class TestDisturbance:
    def test_collapse_thresholds_positivity(self):
        b = fixture("hardy")
        pb = collapse(b)
        for ci in range(4):
            for cell in range(4):
                assert pb.tables[ci][cell] == (b.tables[ci][cell] > 0)

    def test_uniform_cycle_is_nd(self):
        assert check_nondisturbance(uniform_behavior(make_n_cycle(4))).ok

    @pytest.mark.parametrize("name", ["bell", "hardy", "pr-box"])
    def test_fixtures_are_nd(self, name):
        assert check_nondisturbance(fixture(name)).ok

    def test_disturbing_behavior_is_flagged_with_location(self):
        s = make_n_cycle(3)
        # M2 marginal is (1/4, 3/4) in context 1 but (1/2, 1/2) in context 2
        tables = (
            (F(1, 4), F(0), F(0), F(3, 4)),
            (F(1, 4),) * 4,
            (F(1, 4),) * 4,
        )
        report = check_nondisturbance(Behavior(s, tables))
        assert not report.ok
        v = report.violation
        assert v.context_a == 0 and v.context_b == 1
        assert v.measurements == ("M2",)
        assert v.value_a != v.value_b

    def test_possibilistic_nd_of_collapsed_fixtures(self):
        for name in ("bell", "hardy", "pr-box"):
            assert check_possibilistic_nd(collapse(fixture(name))).ok

    def test_possibilistic_nd_of_a_behavior_compares_supports(self):
        # B's marginal is 1/2 in (A, B) and 1/3 in (B, C), but both supports
        # are {0, 1}; the exact check sees the difference, this one must not.
        s = Scenario(("A", "B", "C"), {m: ("0", "1") for m in "ABC"}, (("A", "B"), ("B", "C")))
        b = Behavior(s, ((F(1, 2), F(0), F(0), F(1, 2)), (F(1, 3), F(0), F(0), F(2, 3))))
        assert not check_nondisturbance(b).ok
        assert check_possibilistic_nd(b) == check_possibilistic_nd(collapse(b))
        assert check_possibilistic_nd(b).ok

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_nd_couplings_pass_by_construction(self, seed):
        rng = random.Random(seed)
        b = random_nd_coupling(make_n_cycle(rng.randint(3, 5)), rng)
        assert check_nondisturbance(b).ok


class TestIntegerView:
    """Each Behavior keeps the numerators validation computes, over each
    table's lcm, for every exact question to read."""

    @staticmethod
    def behaviors():
        rng = random.Random(24)
        out = [fixture(name) for name in ("bell", "hardy", "pr-box", "cabello5")]
        for s in (make_n_cycle(4), make_n_cycle(5, 3), make_bipartite_bell(3, 2)):
            out += [random_nd_coupling(s, rng), random_nd_mixture(s, rng, include_pr=len(s.contexts) == 4)]
        # a mixture of two deterministic behaviors on triple contexts
        points = [{m: rng.choice(TRIPLES.outcomes[m]) for m in TRIPLES.measurements} for _ in range(2)]
        tables = tuple(
            tuple(sum(w * (cell == tuple(a[m] for m in c)) for w, a in zip((F(1, 3), F(2, 3)), points))
                  for cell in joint_outcomes(TRIPLES, c))
            for c in TRIPLES.contexts
        )
        out.append(Behavior(TRIPLES, tables))
        out += [_random_behavior(s, rng, False) for s in (TRIPLES, make_n_cycle(4), make_n_cycle(5, 3))]
        out.append(Behavior(make_n_cycle(3), ((F(1, 4), F(0), F(0), F(3, 4)), (F(1, 4),) * 4, (F(1, 4),) * 4)))
        return out

    def test_view_is_each_table_over_its_lcm(self):
        for b in self.behaviors():
            assert len(b._ints) == len(b.tables)
            for (nums, den), t in zip(b._ints, b.tables):
                assert type(nums) is tuple and den == math.lcm(*(p.denominator for p in t))
                assert [F(n, den) for n in nums] == list(t)

    def test_exact_questions_do_not_recompute_it(self, monkeypatch):
        behaviors = self.behaviors()

        def recomputed(t):
            raise AssertionError("a table's numerators were recomputed")

        monkeypatch.setattr(behavior_module, "_numerators", recomputed)
        for b in behaviors:
            nd = check_nondisturbance(b).ok
            for level in ("nd", "nc", "lc", "sc", "all"):
                hierarchy(b, level=level)
            collapse(b)
            if nd:
                noncontextual_weight(b)
                try:
                    evaluate_all(b)
                except WrongScenarioShape:  # not a dichotomic cycle
                    pass

    def test_view_is_not_a_field_and_survives_pickle(self):
        b = fixture("hardy")
        assert [f.name for f in dataclasses.fields(b)] == ["scenario", "tables", "metadata"]
        assert "_ints" not in repr(b) and repr(b) == repr(Behavior(b.scenario, b.tables, b.metadata))
        again = pickle.loads(pickle.dumps(b))
        assert again == b and again._ints == b._ints
        # equality reads the tables only, whatever the stored view holds
        other = Behavior(b.scenario, b.tables)
        object.__setattr__(other, "_ints", ())
        assert other == b
        assert dataclasses.replace(b, metadata=None)._ints == b._ints


class TestHashing:
    """Scenarios and behaviors hash as they compare: a scenario's outcomes
    in measurement order, a behavior's scenario and tables, never its
    metadata."""

    def test_equal_objects_hash_equal(self):
        s = make_n_cycle(4)
        reordered = Scenario(s.measurements, dict(reversed(list(s.outcomes.items()))), s.contexts)
        assert reordered == s and hash(reordered) == hash(s)
        assert len({make_n_cycle(4), make_n_cycle(4)}) == 1
        assert len({make_n_cycle(4), make_n_cycle(4, 3), make_n_cycle(5)}) == 3
        assert len({fixture("hardy"), fixture("hardy")}) == 1
        assert len({collapse(fixture("hardy")), collapse(fixture("hardy")), fixture("hardy")}) == 2

    def test_metadata_is_not_hashed(self):
        for b in (fixture("hardy"), collapse(fixture("pr-box"))):
            tagged = dataclasses.replace(b, metadata={"note": "x"})
            assert tagged == b and hash(tagged) == hash(b)
            assert len({b, tagged}) == 1


def _flip_cells(pb: PossibilisticBehavior, rng: random.Random, count: int) -> PossibilisticBehavior:
    tables = [list(t) for t in pb.tables]
    for _ in range(count):
        ci = rng.randrange(len(tables))
        cell = rng.randrange(len(tables[ci]))
        tables[ci][cell] = not tables[ci][cell]
        if not any(tables[ci]):
            tables[ci][cell] = True
    return PossibilisticBehavior(pb.scenario, tuple(map(tuple, tables)))


def _move_mass(b: Behavior, rng: random.Random) -> Behavior:
    tables = [list(t) for t in b.tables]
    ci = rng.randrange(len(tables))
    src, dst = rng.sample(range(len(tables[ci])), 2)
    tables[ci][dst] += tables[ci][src]
    tables[ci][src] = F(0)
    return Behavior(b.scenario, tuple(map(tuple, tables)))


def _violation_fields(report):
    if report.ok:
        return None
    v = report.violation
    return v.context_a, v.context_b, v.measurements, v.outcomes, v.value_a, v.value_b


# Triple contexts with mixed outcome counts: shared sets of one and two
# measurements, in an order that differs between the two contexts.
TRIPLES = Scenario(
    tuple("ABCDE"),
    {"A": ("0", "1"), "B": ("0", "1", "2"), "C": ("x", "y"), "D": ("0", "1"), "E": ("p", "q", "r")},
    (("A", "B", "C"), ("C", "D", "A"), ("E", "B", "D"), ("E", "C")),
)


class TestDisturbanceAgainstReference:
    """The first violation reported equals a label-level marginal scan's."""

    SCENARIOS = [make_n_cycle(n, l) for n in (3, 5, 8) for l in (2, 3)] + [
        make_bipartite_bell(k, 2) for k in (2, 3)
    ]

    def test_possibilistic_flipped_cells(self):
        rng = random.Random(2024)
        draws = violations = triple_violations = 0
        for _ in range(100):
            for s in self.SCENARIOS:
                pb = random_pnd(s, rng)
                for b in (pb, _flip_cells(pb, rng, 1), _flip_cells(pb, rng, 3)):
                    report = check_possibilistic_nd(b)
                    assert _violation_fields(report) == oracle.ref_nd_violation(b)
                    assert report.ok or type(report.violation.value_a) is bool
                    draws += 1
                    violations += not report.ok
            tables = []
            for ci in range(len(TRIPLES.contexts)):
                t = [rng.random() < 0.8 for _ in range(TRIPLES.context_cells(ci))]
                t[0] = t[0] or not any(t)
                tables.append(tuple(t))
            b = PossibilisticBehavior(TRIPLES, tuple(tables))
            assert _violation_fields(check_possibilistic_nd(b)) == oracle.ref_nd_violation(b)
            draws += 1
            # supports of nondisturbing triple-context tables, then disturbed
            nd = collapse(random_nd_mixture(TRIPLES, rng, rng.randint(1, 4)))
            for b in (nd, _flip_cells(nd, rng, 1), _flip_cells(nd, rng, 3)):
                report = check_possibilistic_nd(b)
                assert _violation_fields(report) == oracle.ref_nd_violation(b)
                draws += 1
                triple_violations += not report.ok
        assert draws == 2800
        assert 500 < violations < 2000, violations
        assert 100 < triple_violations < 200, triple_violations  # the 100 unflipped draws never disturb

    def test_exact_moved_mass(self):
        rng = random.Random(7)
        violations = 0
        for _ in range(25):
            for s in self.SCENARIOS:
                b = random_nd_coupling(s, rng)
                for x in (b, _move_mass(b, rng)):
                    report = check_nondisturbance(x)
                    assert _violation_fields(report) == oracle.ref_nd_violation(x)
                    assert report.ok or type(report.violation.value_a) is Fraction
                    violations += not report.ok
        assert violations > 100, violations


    @staticmethod
    def _exact_draws(rng: random.Random):
        """Triple-context mixtures, couplings and quantum cycle tables, each
        also stored in a shuffled context and measurement order."""
        for _ in range(30):
            yield random_nd_mixture(TRIPLES, rng, rng.randint(1, 5))
            yield random_nd_coupling(make_n_cycle(rng.randint(3, 6), rng.randint(2, 3)), rng)
            yield random_nd_coupling(make_bipartite_bell(rng.randint(2, 3), rng.randint(2, 3)), rng)
        for n in (4, 6, 8):
            yield build_even_cycle(EvenCycleParams(n, rng.uniform(0.1, 0.7)))[1]
        for n in (5, 7):
            thetas = tuple(rng.uniform(0.5, 2.5) for _ in range((n - 3) // 2))
            yield build_odd_cycle(OddCycleParams(n, (0.3, -0.2, 0.9), (0.5, 0.8, -0.1), thetas))[1]

    @staticmethod
    def _restored(b: Behavior, rng: random.Random) -> Behavior:
        """The same behavior with its contexts, and the measurements inside
        each context, stored in a shuffled order."""
        data = behavior_to_json_dict(b)
        contexts = [rng.sample(c, len(c)) for c in data["scenario"]["contexts"]]
        rng.shuffle(contexts)
        data["scenario"]["contexts"] = contexts
        return behavior_from_json_dict(data)

    def test_exact_triples_shuffled_orders_and_quantum_tables(self):
        rng = random.Random(1905)
        draws = violations = 0
        for b in self._exact_draws(rng):
            for x in (b, self._restored(b, rng)):
                for y in (x, _move_mass(x, rng), _move_mass(_move_mass(x, rng), rng)):
                    report = check_nondisturbance(y)
                    assert _violation_fields(report) == oracle.ref_nd_violation(y)
                    assert report.ok or type(report.violation.value_a) is Fraction
                    draws += 1
                    violations += not report.ok
        assert draws == 3 * 2 * 95
        assert 150 < violations < 380, violations

    def test_possibilistic_check_of_a_behavior_builds_no_collapse(self, monkeypatch):
        """check_possibilistic_nd reads a Behavior's integer view in place:
        with PossibilisticBehavior unbuildable it reports what it reports on
        the collapse, for fixtures, couplings and disturbed tables."""
        rng = random.Random(25)
        behaviors = [fixture(name) for name in ("bell", "hardy", "pr-box", "cabello5", "hardy4")]
        for b in self._exact_draws(rng):
            behaviors += [b, _move_mass(b, rng), _move_mass(_move_mass(b, rng), rng)]
        expected = [check_possibilistic_nd(collapse(b)) for b in behaviors]
        assert 50 < sum(not r.ok for r in expected) < len(behaviors) - 50

        def unbuildable(self):
            raise AssertionError("a PossibilisticBehavior was built")

        monkeypatch.setattr(PossibilisticBehavior, "__post_init__", unbuildable)
        assert [check_possibilistic_nd(b) for b in behaviors] == expected

    def test_nondisturbing_check_builds_no_fraction(self, monkeypatch):
        """On a nondisturbing Behavior the check runs on ints only."""
        rng = random.Random(3)
        behaviors = list(self._exact_draws(rng)) + [fixture(name) for name in ("bell", "hardy", "pr-box")]
        behaviors.append(self._restored(random_nd_mixture(TRIPLES, rng, 4), rng))
        made = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        assert all(check_nondisturbance(b).ok for b in behaviors)
        assert made == []
        assert Fraction(1, 2) and made == [(1, 2)]


# ============================================================
# 4. JSON round-trips
# ============================================================

def _random_behavior(s: Scenario, rng: random.Random, possibilistic: bool):
    """Random tables (not necessarily nondisturbing) with some zero cells."""
    tables = []
    for ci in range(len(s.contexts)):
        w = [rng.randint(0, 3) for _ in range(s.context_cells(ci))]
        w[rng.randrange(len(w))] += 1
        tables.append(tuple(x > 0 for x in w) if possibilistic else tuple(F(x, sum(w)) for x in w))
    return (PossibilisticBehavior if possibilistic else Behavior)(s, tuple(tables))


def _reordered(data: dict, rng: random.Random, k: int) -> dict:
    """data with entry i's context written in its (k + i)-th permutation
    (cyclically), its keys remapped to match and shuffled, and the entries
    shuffled."""
    tables = []
    for i, entry in enumerate(data["tables"]):
        perms = list(itertools.permutations(range(len(entry["context"]))))
        perm = perms[(k + i) % len(perms)]
        out = {"context": [entry["context"][p] for p in perm]}
        if "probs" in entry:
            items = [(",".join(key.split(",")[p] for p in perm), v) for key, v in entry["probs"].items()]
            rng.shuffle(items)
            out["probs"] = dict(items)
        else:
            out["possible"] = [[row[p] for p in perm] for row in entry["possible"]]
            rng.shuffle(out["possible"])
        tables.append(out)
    rng.shuffle(tables)
    return {**data, "tables": tables}


def _first(**fields):
    """Replace fields of the first table entry."""
    return lambda t: [{**t[0], **fields}, *t[1:]]


# Malformed payloads and the exception class each raises, as (id, possibilistic,
# tables -> tables, cap, class) over the bell fixture, whose first entry is
# context ["A1", "B1"] with mass on "0,0" and "1,1".
MALFORMED = [
    ("entry-without-context", False, lambda t: [{"probs": t[0]["probs"]}, *t[1:]], None, InvalidBehavior),
    ("context-without-table", False, lambda t: t[1:], None, InvalidBehavior),
    ("unknown-context", False, lambda t: [*t, {"context": ["A1", "A2"], "probs": {"0,0": "1"}}], None, InvalidBehavior),
    ("duplicate-table", False, lambda t: [*t, {**t[0], "context": ["B1", "A1"]}], None, InvalidBehavior),
    ("mixed-kinds", False, lambda t: [t[0], {"context": t[1]["context"], "possible": [["0", "0"]]}, *t[2:]],
     None, InvalidBehavior),
    ("both-kinds-in-one-entry", False, _first(possible=[["0", "0"], ["1", "1"]]), None, InvalidBehavior),
    ("probs-as-list", False, _first(probs=["1/2", "1/2"]), None, InvalidBehavior),
    ("key-too-short", False, _first(probs={"0": "1"}), None, InvalidBehavior),
    ("key-too-long", False, _first(probs={"0,0,0": "1"}), None, InvalidBehavior),
    ("unknown-label", False, _first(probs={"0,7": "1/2", "1,1": "1/2"}), None, InvalidScenario),
    ("exponent", False, _first(probs={"0,0": "5e-1", "1,1": "1/2"}), None, InvalidBehavior),
    ("boolean-value", False, _first(probs={"0,0": True}), None, InvalidBehavior),
    ("negative-value", False, _first(probs={"0,0": "-1/2", "1,1": "3/2"}), None, NegativeProbability),
    ("sum-below-one", False, _first(probs={"0,0": "1/2"}), None, InvalidBehavior),
    ("probs-over-cap", False, lambda t: t, 3, EnumerationCapExceeded),
    ("repeated-measurement", False, _first(context=["A1", "B1", "B1"], probs={"0,0,0": "1/2", "1,1,1": "1/2"}),
     None, InvalidBehavior),
    ("possible-as-object", True, _first(possible={"0": "0"}), None, InvalidBehavior),
    ("possible-row-a-string", True, _first(possible=[["0", "0"], "11"]), None, InvalidBehavior),
    ("possible-row-too-short", True, _first(possible=[["0"]]), None, InvalidBehavior),
    ("possible-unknown-label", True, _first(possible=[["0", "7"]]), None, InvalidScenario),
    ("possible-empty", True, _first(possible=[]), None, InvalidBehavior),
    ("possible-over-cap", True, lambda t: t, 3, EnumerationCapExceeded),
    ("possible-repeated-measurement", True, _first(context=["A1", "B1", "A1"], possible=[["0", "0", "0"]]),
     None, InvalidBehavior),
]


class TestJson:
    @pytest.mark.parametrize("name", ["bell", "hardy", "pr-box", "cabello5"])
    def test_probabilistic_round_trip_is_exact(self, name):
        b = fixture(name)
        again = behavior_from_json_dict(behavior_to_json_dict(b))
        assert again.scenario == b.scenario
        assert again.tables == b.tables, "rational values must survive the trip"

    def test_possibilistic_round_trip(self):
        pb = collapse(fixture("hardy"))
        again = behavior_from_json_dict(behavior_to_json_dict(pb))
        assert isinstance(again, PossibilisticBehavior)
        assert again.tables == pb.tables

    def test_zero_cells_are_omitted(self):
        data = behavior_to_json_dict(fixture("pr-box"))
        probs = data["tables"][0]["probs"]
        assert set(probs) == {"0,0", "1,1"}

    def test_omitted_cells_load_as_zero(self):
        s = make_n_cycle(3)
        data = {
            "scenario": s.to_json_dict(),
            "tables": [
                {"context": ["M1", "M2"], "probs": {"0,0": "1/2", "1,1": "1/2"}},
                {"context": ["M2", "M3"], "probs": {"0,0": "1/2", "1,0": "1/2"}},
                {"context": ["M3", "M1"], "probs": {"0,0": "1"}},
            ],
        }
        b = behavior_from_json_dict(data)
        assert b.probability(0, ("0", "1")) == 0
        assert b.probability(2, ("0", "0")) == 1

    def test_context_may_be_listed_in_either_order(self):
        s = make_n_cycle(3)
        data = {
            "scenario": s.to_json_dict(),
            "tables": [
                # (M2, M1) order: keys are outcome pairs in THAT order
                {"context": ["M2", "M1"], "probs": {"0,1": "1"}},
                {"context": ["M2", "M3"], "probs": {"0,0": "1"}},
                {"context": ["M3", "M1"], "probs": {"0,1": "1"}},
            ],
        }
        b = behavior_from_json_dict(data)
        # stored order is (M1, M2), so the mass sits on (1, 0)
        assert b.probability(0, ("1", "0")) == 1

    def test_file_round_trip(self, tmp_path):
        b = fixture("hardy")
        path = tmp_path / "hardy.json"
        save_behavior(b, path)
        assert load_behavior(path).tables == b.tables

    def test_scenario_by_path(self, tmp_path):
        s = make_n_cycle(3)
        (tmp_path / "scen.json").write_text(json.dumps(s.to_json_dict()))
        data = {
            "scenario": "scen.json",
            "tables": [
                {"context": list(c), "probs": {"0,0": "1"}} for c in s.contexts
            ],
        }
        (tmp_path / "b.json").write_text(json.dumps(data))
        b = load_behavior(tmp_path / "b.json")
        assert b.scenario == s

    def test_deeply_nested_json_is_invalid_input(self, tmp_path):
        # json.load recurses per nesting level and overflows near 1000 levels
        deep = "[" * 200000 + "]" * 200000
        (tmp_path / "deep.json").write_text(deep)
        with pytest.raises(InvalidBehavior, match="deep.json: JSON nests too deeply"):
            load_behavior(tmp_path / "deep.json")
        (tmp_path / "b.json").write_text(json.dumps({"scenario": "deep.json", "tables": []}))
        with pytest.raises(InvalidScenario, match="deep.json: JSON nests too deeply"):
            load_behavior(tmp_path / "b.json")

    @pytest.mark.parametrize(
        "raw, reason",
        [(b'{"a": "\xe9"}', "can't decode byte 0xe9"), (b"nul", "Expecting value"), (b"[" + b"7" * 5000 + b"]", "digits")],
        ids=["not-utf8", "not-json", "long-integer"],
    )
    def test_unreadable_json_names_the_file(self, tmp_path, raw, reason):
        (tmp_path / "bad.json").write_bytes(raw)
        with pytest.raises(InvalidBehavior, match=rf"bad.json: cannot read JSON: .*{reason}"):
            load_behavior(tmp_path / "bad.json")
        (tmp_path / "b.json").write_text(json.dumps({"scenario": "bad.json", "tables": []}))
        with pytest.raises(InvalidScenario, match=rf"bad.json: cannot read JSON: .*{reason}"):
            load_behavior(tmp_path / "b.json")
        (tmp_path / "b.json").write_text(json.dumps({"scenario": "bad\0.json", "tables": []}))
        with pytest.raises(InvalidScenario, match="embedded null byte"):
            load_behavior(tmp_path / "b.json")

    @pytest.mark.parametrize("possibilistic", [False, True])
    def test_context_table_larger_than_cap_refused(self, tmp_path, possibilistic):
        # 12 binary measurements make 4096 cells; 50 would not fit in memory.
        for width, cap, loads in ((12, None, True), (12, 4096, True), (12, 4095, False), (50, None, False)):
            data = wide_payload(width, possibilistic)
            if loads:
                b = behavior_from_json_dict(data, cap=cap)
                assert len(b.tables[0]) == 4096 and sum(map(bool, b.tables[0])) == 1
            else:
                with pytest.raises(EnumerationCapExceeded, match="joint outcomes, more than the cap"):
                    behavior_from_json_dict(data, cap=cap)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(wide_payload(12, possibilistic)))
        with pytest.raises(EnumerationCapExceeded):
            load_behavior(path, cap=100)
        with pytest.raises(ValueError, match="cap must be positive"):
            load_behavior(path, cap=0)

    def test_metadata_passes_through(self):
        b = fixture("bell")
        data = behavior_to_json_dict(b)
        assert data["metadata"]["name"] == "bell"
        assert behavior_from_json_dict(data).metadata == b.metadata

    @pytest.mark.parametrize(
        "data",
        [
            {"bad": True},
            {"scenario": 7, "tables": []},
        ],
    )
    def test_malformed_inputs(self, data):
        with pytest.raises((InvalidBehavior, InvalidScenario)):
            behavior_from_json_dict(data)

    @pytest.mark.parametrize(
        "entry",
        [
            {"context": ["A1", "B1"], "probs": [0.5, 0.5]},
            {"context": 5, "probs": {"0,0": "1/2", "1,1": "1/2"}},
            {"context": "A1", "probs": {"0,0": "1/2", "1,1": "1/2"}},
            {"context": ["A1", "B1"], "possible": [["0", "0"], "11"]},
            {"context": ["A1", "B1"], "possible": {"0": "0"}},
        ],
    )
    def test_malformed_table_entry_rejected(self, entry):
        source = collapse(fixture("bell")) if "possible" in entry else fixture("bell")
        data = behavior_to_json_dict(source)
        data["tables"][0] = entry
        with pytest.raises(InvalidBehavior):
            behavior_from_json_dict(data)

    @pytest.mark.parametrize("raw", ["1e-100000000", "5E-1", "0.5e0"])
    def test_exponent_probability_rejected_quickly(self, raw):
        data = behavior_to_json_dict(fixture("bell"))
        data["tables"][0]["probs"]["0,0"] = raw
        start = time.perf_counter()
        with pytest.raises(InvalidBehavior, match="exponent"):
            behavior_from_json_dict(data)
        assert time.perf_counter() - start < 1

    def test_ints_rationals_and_decimals_still_parse(self):
        s = Scenario(("X",), {"X": ("0", "1", "2")}, (("X",),))
        table = {"context": ["X"], "probs": {"0": 0, "1": "1/4", "2": "0.75"}}
        data = {"scenario": s.to_json_dict(), "tables": [table]}
        assert behavior_from_json_dict(data).tables == ((F(0), F(1, 4), F(3, 4)),)

    @staticmethod
    def _parsed(raw):
        """The parsed value, or the InvalidBehavior message, of one probability."""
        try:
            return behavior_module._parse_rational(raw)
        except InvalidBehavior as e:
            return str(e)

    @staticmethod
    def _through_fraction(raw):
        """_parse_rational's result with every string read by Fraction(raw)."""
        if "e" in raw or "E" in raw:
            return f"probability {shown(raw)} has an exponent; write it as 'num/den' or a decimal"
        try:
            return Fraction(raw)
        except ValueError:
            return f"cannot parse probability {shown(raw)}"
        except ZeroDivisionError:
            return f"probability {shown(raw)} has a zero denominator"

    @given(st.one_of(st.text(), st.text(alphabet="0123456789/ _+-.\u0663\u00b2\t", max_size=12)))
    @settings(max_examples=600, deadline=None)
    def test_digit_fast_path_parses_as_fraction_does(self, raw):
        parsed = self._parsed(raw)
        assert parsed == self._through_fraction(raw)
        assert type(parsed) is type(self._through_fraction(raw))

    def test_digit_fast_path_edges(self):
        rng = random.Random(24)
        raws = ["0", "1", "007/014", "3/0", "0/0", "1/", "/2", "1/2/3", " 1/2", "1 /2", "+1/2", "-0", "1_0/20",
                "\u0663/4", "\uff11/2", "\u00b2", "1" * 5000, "1/" + "2" * 5000, "2" * 4300 + "/" + "3" * 4300]
        raws += ["/".join(str(rng.randrange(10 ** rng.randint(1, 30))) for _ in range(rng.randint(1, 2)))
                 for _ in range(500)]
        for raw in raws:
            assert self._parsed(raw) == self._through_fraction(raw), raw

    def test_mixed_probs_and_possible_rejected(self):
        s = make_n_cycle(3)
        data = {
            "scenario": s.to_json_dict(),
            "tables": [
                {"context": ["M1", "M2"], "probs": {"0,0": "1"}},
                {"context": ["M2", "M3"], "possible": [["0", "0"]]},
                {"context": ["M3", "M1"], "probs": {"0,0": "1"}},
            ],
        }
        with pytest.raises(InvalidBehavior):
            behavior_from_json_dict(data)

    def test_probs_writer_refuses_comma_labels(self, tmp_path):
        # (p, "q,r") and ("p,q", r) would both be written as the key "p,q,r".
        s = Scenario(("A", "B"), {"A": ("p", "p,q"), "B": ("q,r", "r")}, (("A", "B"),))
        b = Behavior(s, ((F(1, 2), F(0), F(0), F(1, 2)),))
        with pytest.raises(InvalidBehavior, match="contains ','"):
            behavior_to_json_dict(b)
        path = tmp_path / "b.json"
        path.write_text("kept")
        with pytest.raises(InvalidBehavior):
            save_behavior(b, path)
        assert path.read_text() == "kept"
        pb = collapse(b)
        assert behavior_from_json_dict(behavior_to_json_dict(pb)) == pb

    @pytest.mark.parametrize("possibilistic", [False, True])
    @pytest.mark.parametrize(
        "s", [make_n_cycle(4, 2), make_n_cycle(5, 3), TRIPLES], ids=["4-cycle", "5-cycle-l3", "triples"]
    )
    def test_any_context_order_and_key_order_loads_equal(self, s, possibilistic):
        rng = random.Random(len(s.contexts) + possibilistic)
        for _ in range(8):
            b = _random_behavior(s, rng, possibilistic)
            data = behavior_to_json_dict(b)
            for k in range(6):  # every permutation of a triple context
                assert behavior_from_json_dict(_reordered(data, rng, k)) == b

    @pytest.mark.parametrize(
        "possibilistic, mutate, cap, error", [pytest.param(*case[1:], id=case[0]) for case in MALFORMED]
    )
    def test_malformed_payload_raises_its_class(self, possibilistic, mutate, cap, error):
        data = behavior_to_json_dict(collapse(fixture("bell")) if possibilistic else fixture("bell"))
        data["tables"] = mutate(data["tables"])
        with pytest.raises(ContextualityError) as info:
            behavior_from_json_dict(data, cap=cap)
        assert type(info.value) is error, info.value


# ============================================================
# 5. Joint outcome enumeration
# ============================================================

class TestJointOutcomes:
    def test_order_is_lexicographic_last_fastest(self):
        s = make_n_cycle(3, 3)
        cells = list(joint_outcomes(s, s.contexts[0]))
        assert cells[0] == ("0", "0")
        assert cells[1] == ("0", "1")
        assert cells[3] == ("1", "0")
        assert len(cells) == 9
