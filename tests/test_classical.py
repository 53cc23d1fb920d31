"""Support enumeration, logical and strong contextuality, and the exact LP."""

import gc
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    Behavior,
    EnumerationCapExceeded,
    EvenCycleParams,
    OddCycleParams,
    GlobalAssignment,
    HierarchyReport,
    NotNondisturbing,
    PossibilisticBehavior,
    Scenario,
    behavior_from_json_dict,
    behavior_to_json_dict,
    build_bundle,
    build_even_cycle,
    build_odd_cycle,
    check_nondisturbance,
    check_possibilistic_nd,
    collapse,
    contextual_fraction,
    default_cap,
    deterministic_behavior,
    enumeration_size,
    evaluate_all,
    fixture,
    global_distribution,
    hierarchy,
    is_logically_contextual,
    is_noncontextual,
    is_strongly_contextual,
    joint_outcomes,
    logical_contextuality_witness,
    make_bipartite_bell,
    make_n_cycle,
    noncontextual_weight,
    pr_box_behavior,
    random_nd_coupling,
    random_nd_mixture,
    random_pnd,
    random_tree_scenario,
    support,
    support_size,
)
from contextuality import classical
from contextuality import scenario
from contextuality.scenario import index_shape

import oracle

BELL = fixture("bell")
HARDY = fixture("hardy")
PR = fixture("pr-box")


def uniform_like(b: Behavior) -> Behavior:
    """Uniform distribution on the same scenario."""
    tables = tuple(
        tuple(Fraction(1, len(t)) for _ in t) for t in b.tables
    )
    return Behavior(scenario=b.scenario, tables=tables)


def mix(lam: Fraction, a: Behavior, b: Behavior) -> Behavior:
    tables = tuple(
        tuple(lam * pa + (1 - lam) * pb for pa, pb in zip(ta, tb))
        for ta, tb in zip(a.tables, b.tables)
    )
    return Behavior(scenario=a.scenario, tables=tables)


def wide_bell(alice: int) -> Scenario:
    """Bell (3, 3) with `alice` outcomes for each Alice measurement. Placing
    a Bob measurement after the three Alice ones makes a bag of 3 * alice^3
    digit states, past the kernel's bound for alice >= 12."""
    bell = make_bipartite_bell(3, 3)
    outcomes = {m: tuple(map(str, range(alice if m[0] == "A" else 3))) for m in bell.measurements}
    return Scenario(bell.measurements, outcomes, bell.contexts)


def small_scenarios():
    return [make_n_cycle(n) for n in (3, 4, 5)] + [make_bipartite_bell(2, 2)]


# ======================================================================
# 1. Global assignments and support
# ======================================================================


class TestSupport:
    @pytest.mark.parametrize(
        "b,expected",
        [(BELL, 8), (HARDY, 5), (PR, 0)],
        ids=["bell", "hardy", "pr-box"],
    )
    def test_fixture_support_sizes(self, b, expected):
        assert support_size(b) == expected, (
            f"support of {b.metadata['name']} should have {expected} assignments"
        )

    def test_support_members_restrict_to_possible_cells(self):
        for t in support(HARDY):
            for ci, c in enumerate(HARDY.scenario.contexts):
                joint = t.restrict(c)
                cells = list(joint_outcomes(HARDY.scenario, c))
                assert HARDY.tables[ci][cells.index(joint)] > 0

    def test_enumeration_size_is_product_of_outcome_counts(self):
        assert enumeration_size(make_n_cycle(4)) == 16
        assert enumeration_size(make_n_cycle(5, l=3)) == 243

    def test_assignment_helpers(self):
        t = support(BELL)[0]
        d = t.as_dict()
        assert set(d) == set(BELL.scenario.measurements)
        ctx = BELL.scenario.contexts[0]
        assert t.restrict(ctx) == tuple(d[m] for m in ctx)


# ======================================================================
# 2. Logical and strong contextuality
# ======================================================================


class TestLogicalLevel:
    def test_bell_not_logically_contextual(self):
        assert not is_logically_contextual(BELL)
        assert logical_contextuality_witness(BELL) is None

    def test_hardy_witness_is_first_uncovered_cell(self):
        witness = logical_contextuality_witness(HARDY)
        assert witness == (("A1", "B1"), ("1", "1")), f"got {witness}"
        assert is_logically_contextual(HARDY)
        assert not is_strongly_contextual(HARDY)

    def test_pr_box_strongly_contextual(self):
        assert is_strongly_contextual(PR)
        assert is_logically_contextual(PR)

    def test_standalone_sc_stops_at_first_survivor_chunk(self, monkeypatch):
        calls = 0
        cell_codes = classical._cell_codes

        def counted(arr, pairs, radices):
            nonlocal calls
            calls += 1
            return cell_codes(arr, pairs, radices)

        monkeypatch.setattr(classical, "_cell_codes", counted)
        s = wide_bell(41)
        pb = PossibilisticBehavior(s, tuple((True,) * s.context_cells(ci) for ci in range(len(s.contexts))))
        assert not is_strongly_contextual(pb)
        # 3 * 41^3 partials after placing A1, B1, A2 and A3 make 4 slices, and the
        # listing makes 45 cell-code lookups; the first slice holds survivors.
        assert calls == len(s.contexts), f"{calls} cell-code lookups, want one chunk's"

    def test_witness_matches_oracle_on_fixtures(self):
        for b in (BELL, HARDY, PR):
            assert logical_contextuality_witness(b) == oracle.brute_witness(b)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=3))
    def test_random_possibilistic_behaviors_match_oracle(self, seed, which):
        s = small_scenarios()[which]
        pb = random_pnd(s, random.Random(seed))
        assert logical_contextuality_witness(pb) == oracle.brute_witness(pb)
        got = {t.values for t in support(pb)}
        want = {tuple(sorted(d.items())) for d in oracle.brute_support(pb)}
        assert got == {tuple(v) for v in want}, "support sets disagree"
        assert is_strongly_contextual(pb) == oracle.brute_is_sc(pb)


# ======================================================================
# 3. Noncontextual weight and the contextual fraction
# ======================================================================


class TestProbabilisticLevel:
    def test_uniform_has_full_weight(self):
        u = uniform_like(PR)
        assert noncontextual_weight(u) == 1
        assert is_noncontextual(u)
        assert contextual_fraction(u) == 0

    def test_pr_box_has_zero_weight(self):
        assert noncontextual_weight(PR) == 0
        assert contextual_fraction(PR) == 1
        assert not is_noncontextual(PR)

    @pytest.mark.parametrize(
        "lam", [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(5, 8), Fraction(3, 4), Fraction(1)]
    )
    def test_pr_uniform_mixture_curve(self, lam):
        # Contextual fraction of lam*PR + (1-lam)*uniform is exactly
        # max(0, 2*lam - 1): the uniform part absorbs PR up to lam = 1/2.
        b = mix(lam, PR, uniform_like(PR))
        expected = max(Fraction(0), 2 * lam - 1)
        got = contextual_fraction(b)
        assert got == expected, f"CF at lam={lam}: expected {expected}, got {got}"

    def test_disturbing_behavior_rejected(self):
        s = make_n_cycle(3)
        tables = (
            (Fraction(1, 4), Fraction(0), Fraction(0), Fraction(3, 4)),
            (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),
            (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),
        )
        with pytest.raises(NotNondisturbing):
            noncontextual_weight(Behavior(scenario=s, tables=tables))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=3))
    def test_weight_matches_scipy_lp(self, seed, which):
        s = small_scenarios()[which]
        b = random_nd_coupling(s, random.Random(seed))
        exact = noncontextual_weight(b)
        approx = oracle.linprog_noncontextual_weight(b)
        assert abs(float(exact) - approx) < 1e-7, f"{float(exact)} vs scipy {approx}"

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=3))
    def test_noncontextual_implies_not_logically_contextual(self, seed, which):
        s = small_scenarios()[which]
        b = random_nd_coupling(s, random.Random(seed))
        if is_noncontextual(b):
            assert not is_logically_contextual(b)


class TestGlobalDistribution:
    def test_contextual_behavior_has_none(self):
        assert global_distribution(PR) is None
        assert global_distribution(HARDY) is None

    def test_distribution_reproduces_every_table(self):
        b = random_nd_coupling(make_n_cycle(4), random.Random(7))
        # Couplings are not noncontextual in general; this seed's draw is.
        assert is_noncontextual(b), "seed 7 draw is known to admit a global model"
        dist = global_distribution(b)
        assert dist is not None
        assert sum(dist.values()) == 1
        for ci, c in enumerate(b.scenario.contexts):
            for cell, joint in enumerate(joint_outcomes(b.scenario, c)):
                weight = sum(w for t, w in dist.items() if t.restrict(c) == joint)
                assert weight == b.tables[ci][cell], (
                    f"context {c} cell {joint}: {weight} != {b.tables[ci][cell]}"
                )


# ======================================================================
# 4. Hierarchy reports and level filtering
# ======================================================================


class TestHierarchy:
    def test_full_reports_on_fixtures(self):
        r = hierarchy(BELL)
        assert (r.nd, r.nc, r.logically_contextual, r.strongly_contextual) == (
            True, True, False, False,
        )
        r = hierarchy(HARDY)
        assert (r.nd, r.nc, r.logically_contextual, r.strongly_contextual) == (
            True, False, True, False,
        )
        assert r.witness == (("A1", "B1"), ("1", "1"))
        assert r.support_size == 5
        r = hierarchy(PR)
        assert (r.nd, r.nc, r.logically_contextual, r.strongly_contextual) == (
            True, False, True, True,
        )
        assert r.support_size == 0

    def test_json_uses_short_keys(self):
        d = hierarchy(HARDY).to_json_dict()
        assert set(d) == {"nd", "nc", "lc", "sc", "witness", "support_size"}
        assert d["lc"] is True
        assert d["witness"] == {"context": ["A1", "B1"], "outcome": ["1", "1"]}

    @pytest.mark.parametrize(
        "level,set_fields",
        [
            ("nd", set()),
            ("nc", {"nc"}),
            ("lc", {"logically_contextual", "support_size"}),
            ("sc", {"strongly_contextual", "support_size"}),
        ],
    )
    def test_level_limits_computed_fields(self, level, set_fields):
        r = hierarchy(HARDY, level=level)
        assert r.nd is True
        for field in ("nc", "logically_contextual", "strongly_contextual", "support_size"):
            if field in set_fields:
                assert getattr(r, field) is not None, f"{field} should be set at level {level}"
            else:
                assert getattr(r, field) is None, f"{field} should be None at level {level}"

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            hierarchy(HARDY, level="everything")

    def test_all_levels_read_one_scan_and_one_nd_check(self, monkeypatch):
        calls = {"scan": 0, "nd": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(classical, "_scan", counted("scan", classical._scan))
        monkeypatch.setattr(
            classical, "check_nondisturbance", counted("nd", classical.check_nondisturbance)
        )
        cycle = random_nd_coupling(make_n_cycle(4, 3), random.Random(3))
        for b in (HARDY, cycle):
            calls.update(scan=0, nd=0)
            hierarchy(b, level="all")
            assert calls == {"scan": 1, "nd": 1}

    def test_shape_is_built_once_per_scenario(self, monkeypatch):
        """Each scenario takes its index shape from _accepted once, at
        construction, and no question asks _accepted again: on a dichotomic
        cycle, on Bell (3, 2) (the LP), on a tree (the acyclic rule) and past
        the state bound (the listing)."""
        accepted = scenario._accepted
        built = []
        monkeypatch.setattr(scenario, "_accepted", lambda s: built.append(s) or accepted(s))
        bell = make_bipartite_bell(3, 2)
        outcomes = {m: tuple(map(str, range(13 if m[0] == "A" else 2))) for m in bell.measurements}
        bell13 = Scenario(bell.measurements, outcomes, bell.contexts)  # past the state bound
        calls = []
        for s in (make_n_cycle(5), bell, path(5, 3), bell13):
            pb = random_pnd(s, random.Random(5))
            possibilistic = (check_possibilistic_nd, support_size, is_strongly_contextual, logical_contextuality_witness)
            calls += [(ask, pb) for ask in possibilistic]
            b = random_nd_coupling(s, random.Random(5), max_components=1)
            calls += [(ask, b) for ask in (hierarchy, check_nondisturbance, noncontextual_weight)]
        assert len(built) == 4 and all(index_shape(s) is accepted(s) for s in built)
        for _ in range(2):
            for ask, behavior in calls:
                ask(behavior)
            assert len(built) == 4, built

    @pytest.mark.parametrize("level", ["nc", "all"])
    def test_lc_witness_decides_nc_without_the_lp(self, monkeypatch, level):
        """LC implies contextual, so an LC behavior needs no LP; neither does
        a dichotomic cycle (BELL), which the n-cycle inequalities decide, nor
        a tree, where nondisturbance implies nc; a witness-free behavior of
        any other shape still gets exactly one."""
        calls = []
        real = classical._lp

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(classical, "_lp", counted)
        bell32 = random_nd_coupling(make_bipartite_bell(3, 2), random.Random(5))  # weight 199/231
        triangle3 = random_nd_coupling(make_n_cycle(3, 3), random.Random(1))
        tree = random_nd_coupling(path(5, 3), random.Random(2))
        cases = (
            (HARDY, 0, False), (PR, 0, False), (BELL, 0, True), (tree, 0, True), (bell32, 1, False), (triangle3, 1, True)
        )
        for b, lp_calls, nc in cases:
            calls.clear()
            assert hierarchy(b, level=level).nc is nc
            assert len(calls) == lp_calls

    def test_every_level_matches_oracle(self):
        rng = random.Random(20201)
        cycles = [make_n_cycle(n) for n in (3, 4, 5)]
        scenarios = small_scenarios() + [make_n_cycle(3, 3), random_tree_scenario(rng)]
        for draw in range(200):
            if draw % 3 == 0:
                b = random_nd_mixture(rng.choice(cycles), rng, rng.randint(0, 3), include_pr=True)
            else:
                b = random_nd_coupling(rng.choice(scenarios), rng)
            size = len(oracle.brute_support(b))
            witness = oracle.brute_witness(b)
            nc = abs(oracle.linprog_noncontextual_weight(b) - 1) < 1e-7
            for level in ("nc", "lc", "sc", "all"):
                want = HierarchyReport(
                    nd=True,
                    nc=nc if level in ("nc", "all") else None,
                    logically_contextual=witness is not None if level in ("lc", "all") else None,
                    strongly_contextual=oracle.brute_is_sc(b) if level in ("sc", "all") else None,
                    witness=witness if level in ("lc", "all") else None,
                    support_size=None if level == "nc" else size,
                )
                assert hierarchy(b, level=level) == want, f"draw {draw}, level {level}"

    def test_disturbing_behavior_reports_nd_false_only(self):
        s = make_n_cycle(3)
        tables = (
            (Fraction(1, 4), Fraction(0), Fraction(0), Fraction(3, 4)),
            (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),
            (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),
        )
        r = hierarchy(Behavior(scenario=s, tables=tables))
        assert r.nd is False
        assert r.nc is None and r.logically_contextual is None
        assert r.strongly_contextual is None and r.witness is None


# ======================================================================
# 5. Enumeration caps
# ======================================================================


class TestCaps:
    def test_explicit_cap_enforced(self):
        with pytest.raises(EnumerationCapExceeded):
            support(BELL, cap=8)

    def test_cap_equal_to_size_passes(self):
        assert support_size(BELL, cap=16) == 8

    def test_env_cap_default(self, monkeypatch):
        monkeypatch.delenv("CTX_CAP", raising=False)
        assert default_cap() == 2**24

    def test_env_cap_respected(self, monkeypatch):
        monkeypatch.setenv("CTX_CAP", "4")
        with pytest.raises(EnumerationCapExceeded):
            support_size(BELL)

    @pytest.mark.parametrize("junk", ["abc", "0", "-3"])
    def test_env_cap_junk_rejected(self, monkeypatch, junk):
        monkeypatch.setenv("CTX_CAP", junk)
        with pytest.raises(ValueError):
            default_cap()

    @pytest.mark.parametrize(
        "reader",
        [
            support,
            support_size,
            logical_contextuality_witness,
            is_logically_contextual,
            is_strongly_contextual,
            hierarchy,
            noncontextual_weight,
            build_bundle,
        ],
    )
    def test_seventy_cycle_raises_the_cap_error(self, reader):
        # 2^70 assignments overflow the int64 strides of the listing engine,
        # so the cap must be checked before the engine is built.
        b = random_nd_coupling(make_n_cycle(70), random.Random(70))
        with pytest.raises(EnumerationCapExceeded, match="exceed the cap"):
            reader(b)
        with pytest.raises(EnumerationCapExceeded, match="int64 index range"):
            reader(b, cap=1 << 80)


# ======================================================================
# 6. The pruned support listing
# ======================================================================


def shuffled_cycle(rng: random.Random, n: int, l: int) -> Scenario:
    """An n-cycle with 2..l outcomes per measurement, measurements stored in
    a shuffled order, contexts shuffled and some of them reversed."""
    names = [f"M{i}" for i in range(n)]
    outcomes = {m: tuple(str(o) for o in range(rng.randint(2, l))) for m in names}
    contexts = [(names[i], names[(i + 1) % n]) for i in range(n)]
    contexts = [c[::-1] if rng.random() < 0.5 else c for c in contexts]
    rng.shuffle(contexts)
    rng.shuffle(names)
    return Scenario(tuple(names), outcomes, tuple(contexts))


def triple_contexts(rng: random.Random) -> Scenario:
    """Three three-measurement contexts joined in a ring, 2..3 outcomes each."""
    names = [f"X{i}" for i in range(6)]
    outcomes = {m: tuple(str(o) for o in range(rng.randint(2, 3))) for m in names}
    return Scenario(tuple(names), outcomes, (("X0", "X1", "X2"), ("X2", "X3", "X4"), ("X4", "X5", "X0")))


def random_possible(s: Scenario, rng: random.Random) -> PossibilisticBehavior:
    """Each cell possible with probability 1/2, at least one per context."""
    tables = []
    for ci in range(len(s.contexts)):
        cells = [rng.random() < 0.5 for _ in range(s.context_cells(ci))]
        cells[rng.randrange(len(cells))] = True
        tables.append(tuple(cells))
    return PossibilisticBehavior(s, tuple(tables))


def listing_draws(rng: random.Random):
    """Shuffled cycles, then random trees, Bell scenarios and triple-context tables."""
    for draw in range(30):
        s = shuffled_cycle(rng, rng.randint(3, 9), rng.randint(2, 4))
        if enumeration_size(s) > 20000:
            continue
        if draw % 3 == 0:
            yield random_pnd(s, rng)
        elif draw % 3 == 1 or any(len(o) != 2 for o in s.outcomes.values()):
            yield random_nd_coupling(s, rng, max_components=rng.randint(1, 6))
        else:
            yield random_nd_mixture(s, rng, rng.randint(1, 4), include_pr=rng.random() < 0.7)
    for k in (2, 3):
        for l in (2, 3):
            s = make_bipartite_bell(k, l)
            yield random_pnd(s, rng)
            yield random_nd_coupling(s, rng, max_components=rng.randint(1, 6))
    for _ in range(3):
        s = random_tree_scenario(rng)
        yield random_pnd(s, rng)
        yield random_nd_coupling(s, rng, max_components=rng.randint(1, 6))
        s = triple_contexts(rng)
        yield random_possible(s, rng)
        yield random_nd_mixture(s, rng, rng.randint(1, 4))


def reference_listing(monkeypatch):
    """Make every question read oracle.ref_survivors instead of the listing:
    the numpy listing past the state bound, and the kernel's member rows
    within it."""

    def listed(b, possible):
        survivors = oracle.ref_survivors(b)
        return iter([survivors] if len(survivors) else [])

    scan = classical._scan

    def scanned(b, cap):
        return scan(b, cap)._replace(rows=lambda: digit_rows(b, oracle.ref_survivors(b)))

    monkeypatch.setattr(classical, "_survivor_chunks", listed)
    monkeypatch.setattr(classical, "_scan", scanned)


def digit_rows(b, indices: np.ndarray) -> list[tuple[int, ...]]:
    """Assignment indices as digit rows over the measurement order."""
    radices = [len(b.scenario.outcomes[m]) for m in b.scenario.measurements]
    return [tuple(row) for row in np.transpose(np.unravel_index(indices, radices)).tolist()]


def listed_indices(b) -> np.ndarray:
    """The numpy listing's members, ascending."""
    chunks = list(classical._survivor_chunks(b, classical._possible(b)))
    return np.sort(np.concatenate([np.zeros(0, dtype=np.int64)] + chunks))


def covered_cells(b, indices: np.ndarray) -> list[set[int]]:
    """Each context's cells that some of the given members restrict to."""
    s = b.scenario
    radices = {m: len(s.outcomes[m]) for m in s.measurements}
    digits = dict(zip(s.measurements, np.unravel_index(indices, list(radices.values()))))
    return [set(np.ravel_multi_index([digits[m] for m in c], [radices[m] for m in c]).tolist()) for c in s.contexts]


def count_cell_codes(monkeypatch) -> list[int]:
    """Count the indices passed to _cell_codes, in the returned cell."""
    passed = [0]
    cell_codes = classical._cell_codes

    def counted(arr, pairs, radices):
        passed[0] += len(arr)
        return cell_codes(arr, pairs, radices)

    monkeypatch.setattr(classical, "_cell_codes", counted)
    return passed


def outputs(b) -> str:
    """Every output read off the support listing, as one JSON string."""
    out = {"support": [t.values for t in support(b)], "sc": is_strongly_contextual(b)}
    if b.scenario.is_simple:
        out["bundle"] = build_bundle(b).to_json_dict()
    if isinstance(b, Behavior):
        out["levels"] = [hierarchy(b, level=lv).to_json_dict() for lv in ("nd", "nc", "lc", "sc", "all")]
        dist = global_distribution(b)
        out["distribution"] = None if dist is None else [[t.values, str(w)] for t, w in dist.items()]
    return json.dumps(out)


class TestCycleWalk:
    @pytest.mark.parametrize("seed", range(8))
    def test_walk_matches_chunked_scan(self, monkeypatch, seed):
        """The numpy listing and the support read by every question equal a
        plain enumeration, and every output read off the support is
        unchanged when the enumeration is read instead."""
        draws = []
        for draw, b in enumerate(listing_draws(random.Random(seed))):
            want = oracle.ref_survivors(b)
            listed = listed_indices(b)
            assert listed.dtype == np.int64 and np.array_equal(listed, want), f"draw {draw}"
            found = classical._scan(b, None)
            assert found.rows() == digit_rows(b, want) and found.size == len(want), f"draw {draw}"
            assert found.covered == covered_cells(b, want), f"draw {draw}"
            if len(want) <= 150:
                draws.append(b)
        assert len(draws) >= 40, len(draws)
        listed = [outputs(b) for b in draws]
        reference_listing(monkeypatch)
        assert [outputs(b) for b in draws] == listed

    def test_draws_cover_every_verdict(self):
        rng = random.Random(0)
        flags = set()
        for _ in range(40):
            s = shuffled_cycle(rng, rng.randint(3, 6), 2)
            b = random_nd_mixture(s, rng, rng.randint(1, 3), include_pr=True)
            r = hierarchy(b)
            flags.add((r.nc, r.logically_contextual, r.strongly_contextual))
        assert flags >= {(True, False, False), (False, True, False), (False, True, True)}, flags

    def test_cap_contract_on_a_cycle(self):
        b = random_nd_coupling(make_n_cycle(5, 3), random.Random(1))
        with pytest.raises(EnumerationCapExceeded, match=r"^243 global assignments exceed the cap 242$"):
            support_size(b, cap=242)
        assert support_size(b, cap=243) == len(oracle.brute_support(b))
        for cap in (0, -3):
            with pytest.raises(ValueError, match="cap must be positive"):
                hierarchy(b, cap=cap)

    def test_raised_cap_answers_long_cycles_within_int64_indices(self):
        # 4^31 = 2^62 assignments: the walk answers; 4^32 = 2^64 would wrap
        # int64 assignment indices, so it is refused even under a larger cap.
        for n, size in ((31, 1), (32, None)):
            s = make_n_cycle(n, 4)
            b = deterministic_behavior(s, {m: "3" for m in s.measurements})
            if size is None:
                with pytest.raises(EnumerationCapExceeded, match="int64 index range"):
                    hierarchy(b, cap=1 << 70)
            else:
                assert hierarchy(b, cap=1 << 70) == HierarchyReport(True, True, False, False, None, 1)
                assert support(b, cap=1 << 70)[0].as_dict() == {m: "3" for m in s.measurements}

    def test_listing_stays_near_the_support(self, monkeypatch):
        b = random_nd_coupling(make_n_cycle(24), random.Random(4))
        passed = count_cell_codes(monkeypatch)
        size = sum(len(arr) for arr in classical._survivor_chunks(b, classical._possible(b)))
        # the prototype passed 72,944; a scan of every assignment passes at least 2^24
        assert size == 13824 and passed[0] <= 8 * size, passed[0]
        # level "lc": the LP over thousands of support columns is not the point here
        assert hierarchy(b, level="lc").support_size == support_size(b) == size
        # past the state bound, the listing _scan reads: a mixture of three
        # deterministic behaviors on 1,860,867 assignments
        s = wide_bell(41)
        mixed = shifted_mixture(s, random.Random(41), [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
        passed[0] = 0
        assert support_size(mixed) == 3 and passed[0] < 1000, passed[0]

    def test_standalone_sc_on_the_pr_box_stops_early(self, monkeypatch):
        # Past the state bound: A1B1 allows only (0, 0) and A2B1 only B1 = 1,
        # so the listing runs dry on placing A2.
        s = wide_bell(41)
        tables = [[True] * s.context_cells(ci) for ci in range(len(s.contexts))]
        tables[0] = [k == 0 for k in range(s.context_cells(0))]
        tables[3] = [k % 3 == 1 for k in range(s.context_cells(3))]
        assert s.contexts[0] == ("A1", "B1") and s.contexts[3] == ("A2", "B1")
        passed = count_cell_codes(monkeypatch)
        assert is_strongly_contextual(PossibilisticBehavior(s, tuple(map(tuple, tables))))
        assert passed[0] < 1000, f"{passed[0]} indices passed, a scan passes {enumeration_size(s)}"

    def test_interleaved_cycle_is_grown_along_the_cycle(self, monkeypatch):
        # Stored evens then odds: growing in storage order would place all 20
        # evens, which share no context, before any context could prune.
        s = make_n_cycle(40)
        s = Scenario(s.measurements[0::2] + s.measurements[1::2], s.outcomes, s.contexts)
        b = deterministic_behavior(s, {m: "1" for m in s.measurements})
        assert max(len(keep) for *_, keep in classical._elimination_plan(*index_shape(s))[1]) == 2
        passed = count_cell_codes(monkeypatch)
        assert support_size(b, cap=1 << 62) == 1
        assert sum(len(arr) for arr in classical._survivor_chunks(b, classical._possible(b))) == 1
        assert passed[0] < 1000, f"{passed[0]} indices passed"


class TestSupportKernel:
    """The pure-Python elimination _scan reads within the state bound: the
    forward pass, the counting backward pass and the member walk."""

    @staticmethod
    def draws(rng: random.Random):
        for _ in range(50):
            s = shuffled_cycle(rng, rng.randint(3, 8), rng.randint(2, 4))
            if enumeration_size(s) <= 20000:
                yield random_pnd(s, rng)
                yield random_possible(s, rng)  # most of these disturb, many are SC
                yield random_nd_coupling(s, rng, max_components=rng.randint(1, 4))
        for k, l in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
            s = make_bipartite_bell(k, l)
            for _ in range(3):
                yield random_pnd(s, rng)
                yield random_nd_coupling(s, rng, max_components=rng.randint(1, 4))
                yield random_possible(s, rng)
        for n in (3, 4, 5, 6, 12):
            yield random_nd_mixture(make_n_cycle(n), rng, rng.randint(0, 2), include_pr=True)
            yield pr_box_behavior(make_n_cycle(n), rng.randint(1, n))
            yield random_nd_coupling(make_n_cycle(n), rng, max_components=4)
        for _ in range(8):
            s = random_tree_scenario(rng)
            yield random_pnd(s, rng)
            yield random_nd_coupling(s, rng, max_components=rng.randint(1, 4))
            s = triple_contexts(rng)
            yield random_possible(s, rng)
            yield random_nd_mixture(s, rng, rng.randint(1, 4))

    def test_kernel_matches_listing(self):
        """Rows, count and covered cells equal a plain enumeration and the
        numpy listing, on strongly contextual and disturbing tables too."""
        sizes, disturbing = [], 0
        for draw, b in enumerate(self.draws(random.Random(2020))):
            assert classical._elimination_plan(*index_shape(b.scenario))[2] <= classical._MAX_STATES
            want = oracle.ref_survivors(b)
            assert np.array_equal(listed_indices(b), want), f"draw {draw}"
            found = classical._scan(b, None)
            assert found.size == len(want) and found.rows() == digit_rows(b, want), f"draw {draw}"
            assert found.covered == covered_cells(b, want), f"draw {draw}"
            assert [list(map(bool, view)) for view in found.possible] == [list(map(bool, t)) for t in b.tables]
            sizes.append(len(want))
            disturbing += not check_possibilistic_nd(b).ok
        assert len(sizes) > 200 and sizes.count(0) > 15 and max(sizes) > 500, (len(sizes), sizes.count(0))
        assert disturbing > 40, disturbing

    @staticmethod
    def forward_states(monkeypatch) -> list[list[int]]:
        """Record, for each forward pass, the states with a move at each step."""
        runs = []
        forward = classical._forward

        def recorded(possible, tables):
            moves, reached = forward(possible, tables)
            runs.append([len({j // radix for j in step}) for (radix, *_), step in zip(tables, moves)])
            return moves, reached

        monkeypatch.setattr(classical, "_forward", recorded)
        return runs

    @staticmethod
    def forbid(monkeypatch, *names):
        for name in names:
            monkeypatch.setattr(classical, name, lambda *args, name=name: pytest.fail(f"{name} was called"))

    def test_states_stay_near_the_frontier(self, monkeypatch):
        # A frontier on a dichotomic cycle holds the first and the last placed
        # measurement, so at most 4 states, against 2^24 assignments.
        b = random_nd_coupling(make_n_cycle(24), random.Random(4))
        runs = self.forward_states(monkeypatch)
        self.forbid(monkeypatch, "_rows", "_survivor_chunks")
        assert support_size(b) == 13824
        assert len(runs) == 1 and len(runs[0]) == 24 and max(runs[0]) <= 4, runs

    def test_sc_reads_the_forward_pass_and_finishes_early(self, monkeypatch):
        runs = self.forward_states(monkeypatch)
        self.forbid(monkeypatch, "_backward", "_rows", "_survivor_chunks")
        s = make_n_cycle(20)
        assert not is_strongly_contextual(PossibilisticBehavior(s, ((True,) * 4,) * 20))
        assert is_strongly_contextual(pr_box_behavior(s, 1))
        assert [len(r) for r in runs] == [20, 20] and max(map(max, runs)) <= 4, runs
        # (M1, M2) allows only M2 = 0 and (M2, M3) only M2 = 1: the pass stops
        # on placing M3, the third of 20 steps.
        tables = [(True,) * 4] * 20
        tables[0], tables[1] = (True, False, True, False), (False, False, True, True)
        assert is_strongly_contextual(PossibilisticBehavior(s, tuple(tables)))
        assert len(runs[2]) == 3, runs[2]

    def test_members_are_listed_only_on_demand(self, monkeypatch):
        s = make_n_cycle(20)
        uniform = Behavior(s, ((Fraction(1, 4),) * 4,) * 20)
        self.forbid(monkeypatch, "_rows", "_survivor_chunks")
        assert support_size(uniform) == 1 << 20
        assert hierarchy(uniform, level="lc") == HierarchyReport(True, None, False, None, None, 1 << 20)
        assert all(e.in_some_loop for e in build_bundle(uniform).edges)
        assert logical_contextuality_witness(uniform) is None

    def test_check_and_bundle_leave_numpy_unloaded(self, tmp_path):
        code = (
            "import contextlib, io, random, sys\n"
            "import contextuality as c\n"
            "from contextuality import cli\n"
            "for name in ('bell', 'hardy', 'pr-box'):\n"
            f"    path = {str(tmp_path)!r} + '/' + name + '.json'\n"
            "    c.save_behavior(c.fixture(name), path)\n"
            "    runs = [['check', '--behavior', path, '--level', level] for level in ('nd', 'nc', 'lc', 'sc', 'all')]\n"
            "    runs += [['bundle', '--behavior', path, '--format', f] for f in ('json', 'dot')]\n"
            "    for argv in runs:\n"
            "        with contextlib.redirect_stdout(io.StringIO()):\n"
            "            assert cli.run(argv) == 0, argv\n"
            "        assert 'numpy' not in sys.modules, argv\n"
            "b = c.random_nd_coupling(c.make_bipartite_bell(3, 2), random.Random(5))\n"
            "c.hierarchy(b), c.support(b), c.global_distribution(b)\n"
            "print('numpy' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(classical.__file__).resolve().parent.parent)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0 and out.stdout.strip() == "False", out.stderr[-2000:]


class TestEliminationWitness:
    """The lc witness by forward and backward elimination along the
    placement order: no support listing, and no numpy."""

    @staticmethod
    def forbid_listing(monkeypatch):
        def listing(*args):
            raise AssertionError("the lc witness listed the support")

        monkeypatch.setattr(classical, "_survivor_chunks", listing)
        monkeypatch.setattr(classical, "_rows", listing)

    @staticmethod
    def draws(rng: random.Random):
        for _ in range(40):
            s = shuffled_cycle(rng, rng.randint(3, 7), rng.randint(2, 4))
            if enumeration_size(s) <= 5000:
                yield random_pnd(s, rng)
                yield random_possible(s, rng)  # most of these disturb
        for n, l in ((3, 4), (5, 3), (6, 4)):
            yield random_pnd(make_n_cycle(n, l), rng)
        for k, l in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
            s = make_bipartite_bell(k, l)
            for _ in range(4):
                yield random_pnd(s, rng)
                yield random_nd_coupling(s, rng, max_components=rng.randint(1, 4))
                yield random_possible(s, rng)
        for _ in range(8):
            yield random_pnd(random_tree_scenario(rng), rng)
            s = triple_contexts(rng)
            yield random_possible(s, rng)
            yield random_nd_mixture(s, rng, rng.randint(1, 4))
        for name in ("bell", "hardy", "pr-box", "cabello5", "hardy4"):
            yield fixture(name)

    def test_matches_brute_witness(self, monkeypatch):
        rng = random.Random(2013)
        cases = list(self.draws(rng))
        want = [oracle.brute_witness(b) for b in cases]
        self.forbid_listing(monkeypatch)
        got = [logical_contextuality_witness(b) for b in cases]
        for k, (g, w) in enumerate(zip(got, want)):
            assert g == w, f"draw {k}: {g} != {w}"
        assert len(cases) > 150 and 40 < sum(w is not None for w in want) < len(cases) - 40

    def test_a_bag_past_the_state_bound_is_listed(self, monkeypatch):
        # Bell (3, 2) with 13 outcomes for each Alice measurement: a bag holds
        # all three of them and a Bob measurement, 13^3 * 2 = 4394 states.
        bell = make_bipartite_bell(3, 2)
        outcomes = {m: tuple(map(str, range(13 if m[0] == "A" else 2))) for m in bell.measurements}
        s = Scenario(bell.measurements, outcomes, bell.contexts)
        assert classical._elimination_plan(*index_shape(s))[2] == 4394 > classical._MAX_STATES
        assert classical._elimination_plan(*index_shape(make_bipartite_bell(4, 2)))[2] <= classical._MAX_STATES
        calls = []
        real = classical._survivor_chunks
        monkeypatch.setattr(classical, "_survivor_chunks", lambda *args: calls.append(1) or real(*args))
        rng = random.Random(13)
        verdicts = set()
        for b in [random_pnd(s, rng) for _ in range(3)] + [random_possible(s, rng) for _ in range(3)]:
            witness = logical_contextuality_witness(b)
            assert witness == oracle.brute_witness(b)
            verdicts.add(witness is None)
        assert calls == [1] * 6 and verdicts == {True, False}

    def test_cap_is_checked_before_any_work(self, monkeypatch):
        b = collapse(random_nd_coupling(make_bipartite_bell(3, 2), random.Random(3)))
        assert enumeration_size(b.scenario) == 64
        for name in ("_possible", "_elimination_plan", "_move_tables", "_forward", "_backward", "_survivor_chunks"):
            monkeypatch.setattr(classical, name, lambda *args: pytest.fail("work before the cap check"))
        for reader in (logical_contextuality_witness, is_logically_contextual):
            with pytest.raises(EnumerationCapExceeded, match=r"^64 global assignments exceed the cap 63$"):
                reader(b, cap=63)
            with pytest.raises(ValueError, match="cap must be positive"):
                reader(b, cap=0)


def weighted(pb: PossibilisticBehavior, rng: random.Random) -> Behavior:
    """A probability table on each possible set of pb, weights 1..4 (most
    of these disturb)."""
    tables = []
    for t in pb.tables:
        weights = [rng.randint(1, 4) * p for p in t]
        tables.append(tuple(Fraction(w, sum(weights)) for w in weights))
    return Behavior(pb.scenario, tuple(tables))


def clash(s: Scenario) -> PossibilisticBehavior:
    """Empty support: the first context allows only the first outcome of a
    measurement it shares with a later context, which allows only its
    second; every other cell is possible."""
    c0 = s.contexts[0]
    ci, m = next((ci, m) for ci, c in enumerate(s.contexts) if ci for m in c if m in c0)
    first, second = s.outcomes[m][:2]
    tables = [[True] * s.context_cells(k) for k in range(len(s.contexts))]
    for k, want in ((0, first), (ci, second)):
        c = s.contexts[k]
        tables[k] = [cell[c.index(m)] == want for cell in joint_outcomes(s, c)]
    return PossibilisticBehavior(s, tuple(map(tuple, tables)))


class TestMoveTables:
    """The per-shape move tables behind _forward, _backward and _rows."""

    @staticmethod
    def shapes() -> list[Scenario]:
        pair_tree = Scenario(
            ("M1", "M2", "M3", "M4", "M5"),
            {"M1": ("0", "1"), "M2": ("0", "1", "2"), "M3": ("0", "1"), "M4": ("0", "1", "2", "3"), "M5": ("0", "1")},
            (("M1", "M2"), ("M1", "M3"), ("M3", "M4"), ("M3", "M5")),
        )
        triangle = Scenario(
            ("X", "Y", "Z"),
            {"X": ("0", "1"), "Y": ("0", "1", "2"), "Z": ("0", "1", "2", "3")},
            (("X", "Y"), ("Y", "Z"), ("Z", "X")),
        )
        ring = triple_contexts(random.Random(6))
        return [make_bipartite_bell(2, 3), make_bipartite_bell(3, 2), pair_tree, ring, triangle]

    @staticmethod
    def tables(s: Scenario) -> tuple:
        tables = classical._elimination_plan(*index_shape(s))[3]
        assert tables is not None
        return tables

    def test_every_branch_matches_the_oracles(self):
        """Size, covered cells, rows and witness equal plain enumeration on
        shapes whose steps close 0, 1, 2 and 3 contexts, probabilistic and
        possibilistic, with empty supports among them."""
        rng = random.Random(28)
        closing, sizes, kinds = set(), [], set()
        for s in self.shapes():
            closing |= {len(reads) for *_, reads in self.tables(s)}
            draws = [random_possible(s, rng) for _ in range(4)] + [clash(s)]
            draws += [weighted(pb, rng) for pb in draws]
            draws += [random_nd_mixture(s, rng, rng.randint(1, 3))]
            if all(len(c) == 2 for c in s.contexts):
                draws += [random_nd_coupling(s, rng, max_components=3), random_pnd(s, rng)]
            for draw, b in enumerate(draws):
                want = oracle.ref_survivors(b)
                found = classical._scan(b, None)
                assert found.size == len(want), (s.contexts, draw)
                assert found.covered == covered_cells(b, want), (s.contexts, draw)
                assert found.rows() == digit_rows(b, want), (s.contexts, draw)
                assert logical_contextuality_witness(b) == oracle.brute_witness(b), (s.contexts, draw)
                assert is_strongly_contextual(b) == (len(want) == 0), (s.contexts, draw)
                sizes.append(len(want))
                kinds.add(type(b))
        assert closing == {0, 1, 2, 3}, closing
        assert kinds == {Behavior, PossibilisticBehavior}
        assert sizes.count(0) >= 10 and max(sizes) > 20, sizes

    def test_a_shape_past_the_state_bound_builds_no_tables(self, monkeypatch):
        bell = make_bipartite_bell(3, 2)
        outcomes = {m: tuple(map(str, range(13 if m[0] == "A" else 2))) for m in bell.measurements}
        s = Scenario(bell.measurements, outcomes, bell.contexts)
        classical._elimination_plan.cache_clear()
        TestSupportKernel.forbid(monkeypatch, "_move_tables", "_forward")
        plan = classical._elimination_plan(*index_shape(s))
        assert plan[2] == 4394 > classical._MAX_STATES and plan[3] is None
        b = random_pnd(s, random.Random(13))
        assert support_size(b) == len(oracle.ref_survivors(b))

    def test_kept_tables_are_bounded_by_their_entries(self):
        """40 distinct 6-cycle shapes near the state bound hold about 1.3M
        table entries, some 11 MB; the plans kept hold at most 2^18 entries."""
        ring = tuple((q, (q + 1) % 6) for q in range(6))
        classical._elimination_plan.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for radices in itertools.islice(itertools.product((15, 16), repeat=6), 40):
                plan = classical._elimination_plan(radices, ring)
                assert 3375 <= plan[2] <= classical._MAX_STATES and plan[3] is not None
            del plan
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 3 << 20, retained

    def test_small_shapes_keep_hitting_the_cache(self, monkeypatch):
        shapes = [make_n_cycle(n, l) for n in range(3, 13) for l in (2, 3)]
        shapes += [make_bipartite_bell(k, l) for k in (2, 3, 4) for l in (2, 3)] + [path(6, 3)]
        shapes += [random_tree_scenario(random.Random(seed)) for seed in range(20)] + self.shapes()
        classical._elimination_plan.cache_clear()
        plans = [classical._elimination_plan(*index_shape(s)) for s in shapes]
        assert all(plan[3] is not None for plan in plans)
        TestSupportKernel.forbid(monkeypatch, "_move_tables")
        assert [classical._elimination_plan(*index_shape(s)) for s in shapes] == plans

    def test_first_call_equals_repeat_and_builds_once(self, monkeypatch):
        s = triple_contexts(random.Random(3))
        classical._elimination_plan.cache_clear()
        built = []
        build = classical._move_tables
        monkeypatch.setattr(classical, "_move_tables", lambda *args: built.append(1) or build(*args))
        rng = random.Random(50)
        for k in range(50):
            b = random_possible(s, rng) if k % 2 else weighted(random_possible(s, rng), rng)
            first = classical._scan(b, None)
            first = (first.size, first.covered, first.rows())
            again = classical._scan(b, None)
            assert first == (again.size, again.covered, again.rows()), k
        assert built == [1]


# ======================================================================
# 7. The twin-free LP
# ======================================================================


def full_lp(b: Behavior):
    """The LP of b with every twin row: one 0/1 row per positive cell, in
    (context, cell) order, over the support members, built from labels."""
    members = support(b)
    rows, rhs = [], []
    for ci, c in enumerate(b.scenario.contexts):
        for joint, p in zip(joint_outcomes(b.scenario, c), b.tables[ci]):
            if p:
                rows.append([int(t.restrict(c) == joint) for t in members])
                rhs.append(p)
    return [1] * len(members), rows, rhs


def lp_sizes(monkeypatch) -> list[tuple[int, int]]:
    """Record (rows, columns) of every LP passed to simplex.maximize."""
    sizes = []
    maximize = classical.simplex.maximize

    def counted(c, rows, rhs):
        sizes.append((len(rows), len(c)))
        return maximize(c, rows, rhs)

    monkeypatch.setattr(classical.simplex, "maximize", counted)
    return sizes


def shifted_mixture(s: Scenario, rng: random.Random, weights) -> Behavior:
    """A mixture of len(weights) deterministic behaviors that differ at every
    measurement: component a gives m its outcome (shift[m] + a) mod l_m."""
    shift = {m: rng.randrange(len(s.outcomes[m])) for m in s.measurements}
    parts = [
        deterministic_behavior(s, {m: o[(shift[m] + a) % len(o)] for m, o in s.outcomes.items()})
        for a in range(len(weights))
    ]
    tables = tuple(
        tuple(sum(w * t[cell] for w, t in zip(weights, ts)) for cell in range(len(ts[0])))
        for ts in zip(*(part.tables for part in parts))
    )
    return Behavior(s, tables)


class TestTwinFreeLP:
    def test_same_point_as_the_full_lp(self, monkeypatch):
        """Collapsing twin rows changes no pivot: (value, x) equals the
        Fraction tableau's on the full rows, contextual or not."""
        sizes = lp_sizes(monkeypatch)
        rng = random.Random(11)
        draws = [b for b in listing_draws(rng) if isinstance(b, Behavior)]
        draws += [random_nd_mixture(make_n_cycle(n), rng, 3, include_pr=True) for n in (3, 4, 5, 6)]
        draws += [fixture(name) for name in ("bell", "hardy", "pr-box", "cabello5", "hardy4")]
        collapsed = 0
        for b in draws:
            c, rows, rhs = full_lp(b)
            if len(c) > 60:
                continue
            sizes.clear()
            found = classical._scan(b, None)
            assert classical._lp(b, found.rows()) == oracle.ref_maximize(c, rows, rhs)
            assert sizes[0][1] == len(c) and sizes[0][0] <= len(rows)
            collapsed += sizes[0][0] < len(rows)
        assert collapsed >= 20, collapsed

    def test_deterministic_cycle_has_one_row(self, monkeypatch):
        sizes = lp_sizes(monkeypatch)
        s, rng = make_n_cycle(18), random.Random(18)
        b = deterministic_behavior(s, {m: rng.choice("01") for m in s.measurements})
        assert noncontextual_weight(b) == 1
        assert sizes == [(1, 1)]

    @pytest.mark.parametrize("scenario", [make_n_cycle(6, 3), make_n_cycle(5, 2), make_bipartite_bell(3, 3)])
    def test_mixture_of_k_deterministic_behaviors_has_k_rows(self, monkeypatch, scenario):
        """k components that differ at every measurement leave a support of
        k members, and every context splits them the same way: n*k positive
        cells, k row patterns."""
        sizes = lp_sizes(monkeypatch)
        k = len(scenario.outcomes[scenario.measurements[0]])
        weights = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)][:k]
        weights[-1] += 1 - sum(weights)
        b = shifted_mixture(scenario, random.Random(k), weights)
        assert len(full_lp(b)[1]) == len(scenario.contexts) * k
        assert global_distribution(b) is not None
        assert sizes == [(k, k)]


# ======================================================================
# 8. nc on dichotomic cycles by the n-cycle inequalities
# ======================================================================


def restored(b: Behavior, rng: random.Random) -> Behavior:
    """b with its measurements, its contexts and the two measurements of
    each context stored in a shuffled order."""
    data = behavior_to_json_dict(b)
    rng.shuffle(data["scenario"]["measurements"])
    contexts = [rng.sample(c, len(c)) for c in data["scenario"]["contexts"]]
    rng.shuffle(contexts)
    data["scenario"]["contexts"] = contexts
    return behavior_from_json_dict(data)


def correlated(s: Scenario, correlators: list[int]) -> Behavior:
    """The behavior of the cycle s with uniform marginals and correlator
    correlators[i] (+1 or -1) on context i: a PR box when the -1 entries
    are odd in number."""
    half = Fraction(1, 2)
    same, differ = (half, 0, 0, half), (0, half, half, 0)
    return Behavior(s, tuple(tuple(map(Fraction, same if e == 1 else differ)) for e in correlators))


def facet_vertex(n: int, signs: list[int], broken: int, first: str) -> dict[str, str]:
    """The deterministic assignment of make_n_cycle(n) with correlator
    signs[i] on every context i but the broken one, where it is -signs[i]:
    it saturates the member with these signs (odd count of -1)."""
    values = [first]
    for i in range(n - 1):
        e = -signs[i] if i == broken else signs[i]
        values.append(values[-1] if e == 1 else "10"[int(values[-1])])
    return {f"M{i + 1}": v for i, v in enumerate(values)}


def odd_signs(n: int, rng: random.Random) -> list[int]:
    signs = [rng.choice((1, -1)) for _ in range(n)]
    if signs.count(-1) % 2 == 0:
        signs[rng.randrange(n)] *= -1
    return signs


def boundary_draws(rng: random.Random):
    """(behavior, exactly nc) on dichotomic cycles at or beside the facet
    bound n - 2: mixtures of vertices saturating one member (value n - 2,
    nc), and, for n <= 7 (white noise puts every assignment in the LP's
    support), a PR box mixed with white noise at, just below and just above
    weight (n - 2) / n."""
    for n in range(3, 13):
        s = make_n_cycle(n)
        signs = odd_signs(n, rng)
        weights = [Fraction(rng.randint(1, 9)) for _ in range(rng.randint(1, 4))]
        parts = [
            deterministic_behavior(s, facet_vertex(n, signs, rng.randrange(n), rng.choice("01")))
            for _ in weights
        ]
        tables = tuple(
            tuple(sum(w * t[cell] for w, t in zip(weights, ts)) / sum(weights) for cell in range(4))
            for ts in zip(*(part.tables for part in parts))
        )
        yield Behavior(s, tables), True
        if n > 7:
            continue
        pr, noise = correlated(s, signs), uniform_like(deterministic_behavior(s, {m: "0" for m in s.measurements}))
        for shift, nc in ((0, True), (Fraction(-1, 1000), True), (Fraction(1, 1000), False)):
            yield mix(Fraction(n - 2, n) + shift, pr, noise), nc


def facet_draws(rng: random.Random):
    """Behaviors of dichotomic cycles (n = 3..12 and Bell (2,2)) from every
    source: couplings, mixtures with and without a PR box, the quantum
    builders and the five fixtures."""
    scenarios = [make_n_cycle(n) for n in range(3, 13)] + [make_bipartite_bell(2, 2)]
    for s in scenarios:
        for components in (1, 2, 3):
            yield random_nd_coupling(s, rng, components)
        yield random_nd_mixture(s, rng, rng.randint(1, 4))
        yield random_nd_mixture(s, rng, rng.randint(0, 3), include_pr=True)
        yield random_nd_mixture(s, rng, rng.randint(0, 3), include_pr=True)
    for n in (4, 6, 8):
        yield build_even_cycle(EvenCycleParams(n, rng.uniform(0.1, 0.7)))[1]
    for n in (5, 7, 9):
        thetas = tuple(rng.uniform(0.5, 2.5) for _ in range((n - 3) // 2))
        yield build_odd_cycle(OddCycleParams(n, (0.3, -0.2, 0.9), (0.5, 0.8, -0.1), thetas))[1]
    for name in ("bell", "hardy", "pr-box", "cabello5", "hardy4"):
        yield fixture(name)


class TestCycleFacets:
    """On a dichotomic cycle, hierarchy decides nc by the n-cycle
    inequalities; the exact LP (is_noncontextual, noncontextual_weight) and
    scipy's float LP referee every verdict."""

    @staticmethod
    def verdicts(b: Behavior) -> tuple[bool, bool, bool]:
        return hierarchy(b).nc, hierarchy(b, level="nc").nc, is_noncontextual(b)

    def test_matches_the_lp(self):
        rng = random.Random(2013)
        counts = {True: 0, False: 0}
        for draw, b in enumerate(facet_draws(rng)):
            nc = noncontextual_weight(b) == 1
            if len(b.scenario.contexts) <= 9:
                assert (abs(oracle.linprog_noncontextual_weight(b) - 1) < 1e-7) == nc, draw
            x = restored(b, rng)
            assert classical._dichotomic_cycle(b.scenario) and classical._dichotomic_cycle(x.scenario), draw
            # is_noncontextual(b) is nc by definition; the restored copy's LP is solved anew
            assert (hierarchy(b).nc, hierarchy(b, level="nc").nc) == (nc, nc), draw
            assert self.verdicts(x) == (nc, nc, nc), draw
            counts[nc] += 1
        assert min(counts.values()) >= 15, counts

    def test_facet_boundary_is_noncontextual(self):
        rng = random.Random(88)
        for draw, (b, nc) in enumerate(boundary_draws(rng)):
            n = len(b.scenario.contexts)
            if nc:
                assert evaluate_all(b).max_value <= n - 2, draw
            for x in (b, restored(b, rng)):
                assert (noncontextual_weight(x) == 1) == nc, draw
                assert self.verdicts(x) == (nc, nc, nc), draw
        values = [evaluate_all(b).max_value - (len(b.scenario.contexts) - 2) for b, _ in boundary_draws(random.Random(88))]
        assert values.count(0) >= 15, values

    def test_the_lp_runs_only_off_the_cycle_shapes(self, monkeypatch):
        rng = random.Random(7)
        draws = [x for b in facet_draws(rng) for x in (b, restored(b, rng))]
        draws += [b for b, _ in boundary_draws(rng)]
        calls, tight = [], []
        real, real_tight = classical._lp, classical.tight_member
        monkeypatch.setattr(classical, "_lp", lambda *args: calls.append(1) or real(*args))
        monkeypatch.setattr(classical, "tight_member", lambda *args: tight.append(1) or real_tight(*args))
        for b in draws:
            hierarchy(b), hierarchy(b, level="nc")
        assert calls == []
        tight.clear()
        for b in draws:  # the referee solves the LP and never reads the inequalities
            calls.clear()
            is_noncontextual(b)
            assert len(calls) == 1
        assert tight == []
        triangle3 = random_nd_coupling(make_n_cycle(3, 3), random.Random(1))
        bell32 = random_nd_coupling(make_bipartite_bell(3, 2), random.Random(5))
        for b in (triangle3, bell32):
            assert classical.logical_contextuality_witness(b) is None
            for decide in (lambda: hierarchy(b).nc, lambda: hierarchy(b, level="nc").nc, lambda: is_noncontextual(b)):
                calls.clear()
                decide()
                assert len(calls) == 1

    def test_shape_rule(self):
        def rule(s: Scenario) -> bool:
            return classical._dichotomic_cycle(s)

        assert all(rule(make_n_cycle(n)) for n in (3, 4, 5, 18, 40))
        assert rule(make_bipartite_bell(2, 2))
        assert not any(rule(s) for s in (make_n_cycle(3, 3), make_n_cycle(6, 3), make_bipartite_bell(3, 2)))
        assert not rule(make_bipartite_bell(2, 3))
        names = [f"X{i}" for i in range(6)]
        two_triangles = Scenario(
            tuple(names), {m: ("0", "1") for m in names},
            ((names[0], names[1]), (names[1], names[2]), (names[2], names[0]),
             (names[3], names[4]), (names[4], names[5]), (names[5], names[3])),
        )
        assert not rule(two_triangles)
        path = Scenario(tuple(names[:3]), {m: ("0", "1") for m in names[:3]}, ((names[0], names[1]), (names[1], names[2])))
        assert not rule(path)
        for b in (HARDY, PR, BELL):
            assert rule(b.scenario)

    def test_eighteen_cycle_coupling_skips_the_1566_column_lp(self, monkeypatch):
        b = random_nd_coupling(make_n_cycle(18), random.Random(0))
        monkeypatch.setattr(classical, "_lp", lambda *args: pytest.fail("the LP ran"))
        report = hierarchy(b)
        assert (report.nc, report.logically_contextual, report.support_size) == (True, False, 1566)
        assert hierarchy(b, level="nc").nc is True


# -- the acyclic rule -------------------------------------------------------------


def _sparse_distribution(k: int, rng: random.Random) -> list[Fraction]:
    """A distribution over k cells with 1 or 2 of them possible."""
    weights = [0] * k
    for cell in rng.sample(range(k), rng.randint(1, min(2, k))):
        weights[cell] = rng.randint(1, 4)
    return [Fraction(w, sum(weights)) for w in weights]


def acyclic_behavior(rng: random.Random) -> Behavior:
    """A nondisturbing behavior on a random acyclic scenario of 4..9
    measurements with 2 or 3 outcomes each. The first context is a triple;
    each later one joins 1 or 2 measurements of an earlier context (never
    all of them) with 1 or 2 new ones, so the contexts form a join tree.
    A later table is the earlier table's marginal on the joined part times,
    for each joined outcome, a sparse random table of the new measurements,
    so every overlap agrees."""
    names = ["X0", "X1", "X2"]
    contexts = [tuple(names)]
    parents = [None]
    size = rng.randint(4, 8)
    while len(names) < size:
        pi = rng.randrange(len(contexts))
        joined = tuple(rng.sample(contexts[pi], rng.randint(1, min(2, len(contexts[pi]) - 1))))
        fresh = tuple(f"X{len(names) + i}" for i in range(rng.randint(1, 2)))
        names += fresh
        contexts.append(joined + fresh)
        parents.append(pi)
    s = Scenario(tuple(names), {m: tuple(map(str, range(rng.randint(2, 3)))) for m in names}, tuple(contexts))
    cells = list(joint_outcomes(s, contexts[0]))
    tables = [dict(zip(cells, _sparse_distribution(len(cells), rng)))]
    for c, pi in zip(contexts[1:], parents[1:]):
        parent = contexts[pi]
        split = sum(m in parent for m in c)  # c is joined + fresh
        marginal: dict[tuple, Fraction] = {}
        for cell, p in tables[pi].items():
            key = tuple(cell[parent.index(m)] for m in c[:split])
            marginal[key] = marginal.get(key, 0) + p
        fresh_cells = list(joint_outcomes(s, c[split:]))
        table = {}
        for key, p in marginal.items():
            for cell, q in zip(fresh_cells, _sparse_distribution(len(fresh_cells), rng)):
                table[key + cell] = p * q
        tables.append(table)
    return Behavior(
        s, tuple(tuple(t.get(cell, Fraction(0)) for cell in joint_outcomes(s, c)) for c, t in zip(contexts, tables))
    )


def triangle_of_triples() -> Behavior:
    """The GYO-cyclic ring of three triples, each table 1/2 on 000 and 111."""
    names = [f"X{i}" for i in range(6)]
    contexts = (("X0", "X1", "X2"), ("X2", "X3", "X4"), ("X4", "X5", "X0"))
    s = Scenario(tuple(names), {m: ("0", "1") for m in names}, contexts)
    return Behavior(s, ((Fraction(1, 2),) + (Fraction(0),) * 6 + (Fraction(1, 2),),) * 3)


def path(n: int, l: int) -> Scenario:
    names = tuple(f"M{i}" for i in range(n))
    return Scenario(names, {m: tuple(map(str, range(l))) for m in names}, tuple(zip(names, names[1:])))


class TestAcyclicRule:
    """On an acyclic scenario nondisturbance implies nc (Vorob'ev), so
    hierarchy answers nc with no LP; is_noncontextual's LP referees it."""

    @pytest.fixture
    def lp_calls(self, monkeypatch) -> list:
        calls = []
        real = classical._lp
        monkeypatch.setattr(classical, "_lp", lambda *args: calls.append(1) or real(*args))
        return calls

    def test_shape_rule(self):
        def rule(s: Scenario) -> bool:
            return classical._acyclic(index_shape(s)[1])

        names = [f"X{i}" for i in range(6)]
        two = {m: ("0", "1") for m in names}
        covered = Scenario(tuple(names), two, triangle_of_triples().scenario.contexts + (("X0", "X2", "X4"),))
        apart = Scenario(tuple(names), two, (("X0", "X1"), ("X2", "X3", "X4"), ("X5",)))
        single = Scenario(("A",), {"A": ("0", "1")}, (("A",),))
        assert all(rule(s) for s in (path(2, 2), path(12, 3), covered, apart, single))
        cyclic = (make_n_cycle(3), make_n_cycle(5, 3), make_bipartite_bell(2, 2), triangle_of_triples().scenario)
        assert not any(rule(s) for s in cyclic)
        rng = random.Random(4)
        assert all(rule(random_tree_scenario(rng)) for _ in range(50))

    def test_trees_and_join_trees_skip_the_lp(self, lp_calls):
        rng = random.Random(1962)
        draws = [random_nd_coupling(random_tree_scenario(rng), rng) for _ in range(40)]
        draws += [acyclic_behavior(rng) for _ in range(60)]
        assert any(3 in map(len, b.scenario.outcomes.values()) for b in draws[40:])
        for draw, b in enumerate(draws):
            lp_calls.clear()
            report = hierarchy(b)
            assert (report.nc, hierarchy(b, level="nc").nc, lp_calls) == (True, True, []), draw
            assert report.support_size == support_size(b) > 0, draw
            assert is_noncontextual(b) and len(lp_calls) == 1, draw

    def test_triangle_of_triples_still_solves_one_lp(self, lp_calls):
        b = triangle_of_triples()
        for level in ("nc", "all"):
            lp_calls.clear()
            assert hierarchy(b, level=level).nc is True
            assert len(lp_calls) == 1

    def test_acyclic_past_the_cap_raises(self, lp_calls):
        b = random_nd_coupling(path(12, 3), random.Random(2))
        for level in ("nc", "all"):
            with pytest.raises(EnumerationCapExceeded):
                hierarchy(b, cap=3**12 - 1, level=level)
        assert hierarchy(b, cap=3**12).nc is True and lp_calls == []

    def test_a_witness_on_an_acyclic_scenario_raises(self, monkeypatch):
        b = random_nd_coupling(path(4, 2), random.Random(3))
        monkeypatch.setattr(classical, "_witness", lambda *args: (("M0", "M1"), ("0", "0")))
        with pytest.raises(RuntimeError, match="acyclic"):
            hierarchy(b)
        assert hierarchy(b, level="lc").logically_contextual is True  # only the nc question cross-checks
