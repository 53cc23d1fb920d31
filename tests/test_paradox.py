"""Paradox certificates: cycle chains, Bell indices, order form, PR-box form."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    BellParadox,
    ChenParadox,
    NonDichotomic,
    NonSimpleScenario,
    NotCycle,
    NotPossibilisticallyND,
    PossibilisticBehavior,
    Scenario,
    WrongScenarioShape,
    chordless_cycles,
    classify_strong_contextuality,
    collapse,
    detect_bell22_paradox,
    detect_chen_paradox,
    detect_cycle_paradox,
    detect_simple_scenario_paradox,
    fixture,
    joint_outcomes,
    make_bipartite_bell,
    make_n_cycle,
    pr_box_behavior,
    random_pnd,
    verify_certificate,
)

from contextuality import paradox
from contextuality.paradox import _bell_parts

import oracle

HARDY = fixture("hardy")
PR = fixture("pr-box")
FULL = {("0", "0"): True, ("0", "1"): True, ("1", "0"): True, ("1", "1"): True}


def hardy_pattern(a1, b1, a2, b2):
    """The possibilistic Hardy square on the oriented 4-cycle a1 b1 a2 b2."""
    T, F = True, False
    return {
        (a1, b1): dict(FULL),
        (b1, a2): {("0", "0"): T, ("0", "1"): T, ("1", "0"): F, ("1", "1"): T},
        (a2, b2): {("0", "0"): T, ("0", "1"): T, ("1", "0"): T, ("1", "1"): F},
        (b2, a1): {("0", "0"): T, ("0", "1"): F, ("1", "0"): T, ("1", "1"): T},
    }


def plant(s: Scenario, patterns) -> PossibilisticBehavior:
    """Assemble tables from oriented-pair patterns; unlisted contexts are full."""
    tables = []
    for stored in s.contexts:
        hit = next(
            ((uv, cells) for uv, cells in patterns.items() if frozenset(uv) == frozenset(stored)),
            None,
        )
        if hit is None:
            tables.append(tuple(True for _ in joint_outcomes(s, stored)))
        else:
            (u, v), cells = hit
            t = []
            for joint in joint_outcomes(s, stored):
                key = joint if stored == (u, v) else (joint[1], joint[0])
                t.append(cells[key])
            tables.append(tuple(t))
    return PossibilisticBehavior(s, tuple(tables))


def path_scenario(n: int) -> Scenario:
    names = tuple(f"M{i}" for i in range(1, n + 1))
    return Scenario(
        names,
        {m: ("0", "1") for m in names},
        tuple((names[i], names[i + 1]) for i in range(n - 1)),
    )


def grid_scenario(rows: int, cols: int) -> Scenario:
    """The dichotomic rows x cols grid: each cell joined to its right and lower neighbours."""
    names = tuple(f"g{i}{j}" for i in range(rows) for j in range(cols))
    right = [(f"g{i}{j}", f"g{i}{j + 1}") for i in range(rows) for j in range(cols - 1)]
    down = [(f"g{i}{j}", f"g{i + 1}{j}") for i in range(rows - 1) for j in range(cols)]
    return Scenario(names, {m: ("0", "1") for m in names}, tuple(right + down))


# ======================================================================
# 1. Cycle detector and certificate chains
# ======================================================================


class TestCycleDetector:
    def test_hardy_chain_is_exact(self):
        cert = detect_cycle_paradox(HARDY)
        assert cert.base_context_index == 1
        assert cert.base_context == ("A1", "B1")
        assert cert.witness_pair == ("1", "1")
        got = [
            (s.context_index, s.context, s.reachable_in, s.forbidden, s.reachable_out)
            for s in cert.chain
        ]
        assert got == [
            (2, ("B1", "A2"), ("1",), (("1", "0"),), ("1",)),
            (3, ("A2", "B2"), ("1",), (("1", "1"),), ("0",)),
            (4, ("B2", "A1"), ("0",), (("0", "1"),), ("0",)),
        ], f"chain was {got}"

    def test_bell_has_no_paradox(self):
        assert detect_cycle_paradox(fixture("bell")) is None

    def test_pr_box_has_paradox(self):
        cert = detect_cycle_paradox(PR)
        assert cert is not None
        assert verify_certificate(PR, cert)

    def test_json_shape(self):
        d = detect_cycle_paradox(HARDY).to_json_dict()
        assert d["base_context_index"] == 1
        assert d["witness"] == ["1", "1"]
        assert [step["forbidden"] for step in d["chain"]] == [
            [["1", "0"]], [["1", "1"]], [["0", "1"]],
        ]

    def test_not_cycle_rejected(self):
        b = plant(path_scenario(4), {})
        with pytest.raises(NotCycle):
            detect_cycle_paradox(b)

    def test_disturbing_tables_rejected(self):
        s = make_n_cycle(3)
        # M2 is possible-both in context 1 but stuck at 0 in context 2.
        tables = (
            (True, True, True, True),
            (True, False, True, False),
            (True, True, True, True),
        )
        with pytest.raises(NotPossibilisticallyND):
            detect_cycle_paradox(PossibilisticBehavior(s, tables))


class TestVerifyCertificate:
    def test_accepts_detector_output(self):
        cert = detect_cycle_paradox(HARDY)
        assert verify_certificate(HARDY, cert)
        assert verify_certificate(collapse(HARDY), cert)

    def test_rejects_tampered_witness(self):
        cert = detect_cycle_paradox(HARDY)
        bad = replace(cert, witness_pair=("0", "0"))
        assert not verify_certificate(HARDY, bad)

    def test_rejects_truncated_chain(self):
        cert = detect_cycle_paradox(HARDY)
        bad = replace(cert, chain=cert.chain[:-1])
        assert not verify_certificate(HARDY, bad)

    @pytest.mark.parametrize(
        "change",
        [
            {"forbidden": (["1", "0"],)},
            {"forbidden": (["1", "1"],)},
            {"reachable_out": (["1"],)},
            {"context": (["B1"], "A2")},
        ],
    )
    def test_list_shaped_entries_return_false(self, change):
        """Lists where the step holds labels or pairs, the shape to_json_dict
        writes, make the certificate invalid instead of raising TypeError."""
        cert = detect_cycle_paradox(HARDY)
        bad = replace(cert, chain=(replace(cert.chain[0], **change),) + cert.chain[1:])
        assert verify_certificate(HARDY, bad) is False

    def test_rejects_wrong_forbidden_set(self):
        cert = detect_cycle_paradox(HARDY)
        step = cert.chain[0]
        bad_step = replace(step, forbidden=(("1", "1"),), reachable_out=("0",))
        bad = replace(cert, chain=(bad_step,) + cert.chain[1:])
        assert not verify_certificate(HARDY, bad)

    def test_rejects_certificate_for_other_behavior(self):
        cert = detect_cycle_paradox(HARDY)
        assert not verify_certificate(fixture("bell"), cert)

    @pytest.mark.parametrize(
        "witness", [("0", "7"), ("x", "0"), ("0",), ("0", "0", "0"), (), ("0", None)]
    )
    def test_malformed_witness_is_rejected_not_raised(self, witness):
        cert = detect_cycle_paradox(HARDY)
        assert not verify_certificate(HARDY, replace(cert, witness_pair=witness))

    def test_contexts_that_are_not_pairs_are_rejected_not_raised(self):
        # A singleton context D beside a PR-box triangle: a certificate naming
        # it as its base or as a step matches a stored context but no pair.
        triangle = (("A", "B"), ("B", "C"), ("C", "A"))
        tables = ((True, False, False, True), (True, False, False, True), (False, True, True, False))
        tri = Scenario(tuple("ABC"), {m: ("0", "1") for m in "ABC"}, triangle)
        cert = detect_cycle_paradox(PossibilisticBehavior(tri, tables))
        s = Scenario(tuple("ABCD"), {m: ("0", "1") for m in "ABCD"}, (*triangle, ("D",)))
        b = PossibilisticBehavior(s, (*tables, (True, True)))
        assert verify_certificate(b, cert)
        assert not verify_certificate(b, replace(cert, base_context=("D",), base_context_index=4))
        step = replace(cert.chain[0], context=("D",), context_index=4)
        assert not verify_certificate(b, replace(cert, chain=(step,) + cert.chain[1:]))


# ======================================================================
# 2. Simple scenarios and Bell index form
# ======================================================================


class TestSimpleScenarioDetector:
    def test_acyclic_scenario_never_fires(self):
        b = plant(path_scenario(5), {})
        assert detect_simple_scenario_paradox(b) is None

    def test_cycle_certificate_reindexes_to_parent(self):
        s = make_bipartite_bell(3, 2)
        b = plant(s, hardy_pattern("A1", "B1", "A2", "B2"))
        hit = detect_simple_scenario_paradox(b)
        assert hit is not None
        assert hit.cycle == ("A1", "B1", "A2", "B2")
        assert verify_certificate(b, hit.certificate), (
            "certificate must verify against the parent behavior, not the restriction"
        )
        d = hit.to_json_dict()
        assert d["cycle"] == ["A1", "B1", "A2", "B2"]
        assert "witness" in d

    def test_non_simple_rejected(self):
        s = Scenario(
            ("A", "B", "C"),
            {m: ("0", "1") for m in "ABC"},
            (("A", "B", "C"),),
        )
        pb = PossibilisticBehavior(s, ((True,) * 8,))
        with pytest.raises(NonSimpleScenario):
            detect_simple_scenario_paradox(pb)

    def test_non_dichotomic_rejected(self):
        b = plant(make_n_cycle(4, l=3), {})
        with pytest.raises(NonDichotomic):
            detect_simple_scenario_paradox(b)

    def test_cycles_are_listed_up_to_the_first_hit(self, monkeypatch):
        """The detector reads the chordless-cycle search lazily: it stops at
        the cycle it returns, which is the first hit of the full sorted list."""
        real = paradox._chordless
        listed = []

        def counted(s):
            for cycle in real(s):
                listed.append(cycle)
                yield cycle

        monkeypatch.setattr(paradox, "_chordless", counted)
        rng = random.Random(25)
        hits = 0
        for _ in range(40):
            s = grid_scenario(rng.randint(2, 4), rng.randint(3, 4))
            b = random_pnd(s, rng)
            listed.clear()
            hit = detect_simple_scenario_paradox(b)
            cycles = chordless_cycles(s).cycles
            if hit is None:
                assert tuple(listed) == cycles
            else:
                assert tuple(listed) == cycles[: cycles.index(hit.cycle) + 1]
                hits += 1
        assert 5 < hits < 40, hits


class TestBellForm:
    def test_hardy_square_at_first_indices(self):
        s = make_bipartite_bell(3, 2)
        b = plant(s, hardy_pattern("A1", "B1", "A2", "B2"))
        hit = detect_bell22_paradox(b)
        assert (hit.i, hit.j, hit.m, hit.l) == (1, 1, 2, 2)
        assert (hit.alice_outcome, hit.bob_outcome) == ("1", "1")
        assert verify_certificate(b, hit.certificate)

    def test_hardy_square_planted_deeper(self):
        s = make_bipartite_bell(3, 2)
        b = plant(s, hardy_pattern("A2", "B2", "A3", "B3"))
        hit = detect_bell22_paradox(b)
        assert (hit.i, hit.j, hit.m, hit.l) == (2, 2, 3, 3)
        assert (hit.alice_outcome, hit.bob_outcome) == ("1", "1")
        assert hit.cycle == ("A2", "B2", "A3", "B3")

    def test_unconstrained_box_has_none(self):
        assert detect_bell22_paradox(plant(make_bipartite_bell(2, 2), {})) is None

    def test_json_carries_indices_and_chain(self):
        b = plant(make_bipartite_bell(2, 2), hardy_pattern("A1", "B1", "A2", "B2"))
        d = detect_bell22_paradox(b).to_json_dict()
        assert {"i", "j", "m", "l", "alice_outcome", "bob_outcome", "cycle", "chain"} <= set(d)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: plant(make_n_cycle(4), {}),  # cycle, not complete bipartite? (it is K22)
            lambda: plant(path_scenario(4), {}),
        ],
        ids=["4-cycle", "path"],
    )
    def test_shape_check(self, make):
        b = make()
        try:
            detect_bell22_paradox(b)
        except WrongScenarioShape:
            pass  # the path must land here; the 4-cycle is K_{2,2} and passes
        else:
            assert len(b.scenario.contexts) == 4

    def test_wrong_shape_unbalanced(self):
        # K_{1,3}: star, bipartite but parts of unequal size.
        s = Scenario(
            ("A1", "B1", "B2", "B3"),
            {m: ("0", "1") for m in ("A1", "B1", "B2", "B3")},
            (("A1", "B1"), ("A1", "B2"), ("A1", "B3")),
        )
        with pytest.raises(WrongScenarioShape):
            detect_bell22_paradox(plant(s, {}))

    @pytest.mark.parametrize(
        "contexts",
        [
            [("M1", "M2"), ("M2", "M3"), ("M3", "M4"), ("M4", "M5"), ("M5", "M6"), ("M6", "M1")],
            [(a, b) for a in ("A1", "A2", "A3") for b in ("B1", "B2", "B3")][1:],
            [("A1", "B1"), ("B1", "A2"), ("A2", "B2"), ("B2", "A1"),
             ("C1", "D1"), ("D1", "C2"), ("C2", "D2"), ("D2", "C1")],
            [("M1", "M2"), ("M2", "M3"), ("M3", "M1")],
        ],
        ids=["6-cycle", "K33-minus-one", "two-4-cycles", "triangle"],
    )
    def test_non_complete_bipartite_rejected(self, contexts):
        names = tuple(dict.fromkeys(m for c in contexts for m in c))
        s = Scenario(names, {m: ("0", "1") for m in names}, tuple(contexts))
        with pytest.raises(WrongScenarioShape):
            detect_bell22_paradox(plant(s, {}))

    def test_parts_under_shuffled_storage(self):
        rng = random.Random(41)
        hits = 0
        for k in (2, 3, 4):
            for _ in range(40):
                base = make_bipartite_bell(k, 2)
                names = list(base.measurements)
                rng.shuffle(names)
                contexts = [c[::-1] if rng.random() < 0.5 else c for c in base.contexts]
                rng.shuffle(contexts)
                s = Scenario(tuple(names), base.outcomes, tuple(contexts))
                alice, bob = _bell_parts(s)
                assert (alice, bob) == two_colouring(s)
                hit = detect_bell22_paradox(random_pnd(s, rng))
                if hit is not None:
                    hits += 1
                    pair = {alice[hit.i - 1], bob[hit.j - 1]}
                    assert pair == set(hit.certificate.base_context)
                    assert {alice[hit.m - 1], bob[hit.l - 1]} == set(hit.cycle) - pair
        assert 10 < hits < 120, hits


def two_colouring(s: Scenario) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The parts of a connected bipartite graph, by search from the first
    measurement; that measurement's part comes first."""
    colour = {s.measurements[0]: 0}
    frontier = [s.measurements[0]]
    while frontier:
        x = frontier.pop()
        for c in s.contexts:
            if x in c:
                y = c[1] if c[0] == x else c[0]
                if y not in colour:
                    colour[y] = 1 - colour[x]
                    frontier.append(y)
    return tuple(m for m in s.measurements if colour[m] == 0), tuple(m for m in s.measurements if colour[m] == 1)


# ======================================================================
# 3. Order paradox on 4-cycles
# ======================================================================


class TestChenForm:
    def test_flip_first_pr_box(self):
        b = pr_box_behavior(make_n_cycle(4), 1)
        hit = detect_chen_paradox(b)
        assert hit == ChenParadox(base_context_index=1, witness_pair=("0", "1"))
        assert hit.to_json_dict() == {
            "base_context_index": 1,
            "witness_pair": ["0", "1"],
        }

    def test_three_outcome_monotone_cycle(self):
        s = make_n_cycle(4, l=3)
        nondecreasing = {
            (x, y): int(x) <= int(y)
            for x in ("0", "1", "2")
            for y in ("0", "1", "2")
        }
        full3 = {(x, y): True for x in ("0", "1", "2") for y in ("0", "1", "2")}
        b = plant(
            s,
            {
                ("M1", "M2"): full3,
                ("M2", "M3"): nondecreasing,
                ("M3", "M4"): nondecreasing,
                ("M4", "M1"): nondecreasing,
            },
        )
        hit = detect_chen_paradox(b)
        assert hit == ChenParadox(base_context_index=1, witness_pair=("0", "1"))
        assert oracle.brute_is_lc(b), "order paradox must imply logical contextuality"

    def test_unconstrained_cycle_has_none(self):
        assert detect_chen_paradox(plant(make_n_cycle(4), {})) is None
        assert detect_chen_paradox(plant(make_n_cycle(4, l=3), {})) is None

    def test_wrong_length_cycle_rejected(self):
        with pytest.raises(WrongScenarioShape):
            detect_chen_paradox(plant(make_n_cycle(5), {}))

    def test_acyclic_rejected(self):
        with pytest.raises(WrongScenarioShape):
            detect_chen_paradox(plant(path_scenario(4), {}))

    def test_mixed_outcome_counts_rejected(self):
        names = ("M1", "M2", "M3", "M4")
        s = Scenario(
            names,
            {"M1": ("0", "1", "2"), "M2": ("0", "1"), "M3": ("0", "1"), "M4": ("0", "1")},
            (("M1", "M2"), ("M2", "M3"), ("M3", "M4"), ("M4", "M1")),
        )
        with pytest.raises(WrongScenarioShape):
            detect_chen_paradox(plant(s, {}))


# ======================================================================
# 4. PR-box normal form
# ======================================================================


class TestPrBoxForm:
    def test_fixture_form(self):
        form = classify_strong_contextuality(PR)
        assert form.flip_context_index == 4
        assert form.measurements == ("A1", "B1", "A2", "B2")
        assert form.assignment == ("0", "0", "0", "0")
        assert form.to_json_dict() == {
            "flip_context_index": 4,
            "measurements": ["A1", "B1", "A2", "B2"],
            "assignment": ["0", "0", "0", "0"],
        }

    def test_fixture_collapse_equals_builder(self):
        assert collapse(PR).tables == pr_box_behavior(PR.scenario, 4).tables

    def test_non_sc_behaviors_classify_as_none(self):
        assert classify_strong_contextuality(HARDY) is None
        assert classify_strong_contextuality(fixture("bell")) is None

    def test_even_parity_is_not_strongly_contextual(self):
        # Two anticorrelated contexts cancel; a global assignment exists.
        s = make_n_cycle(4)
        b = plant(
            s,
            {
                ("M1", "M2"): {(x, y): x != y for x in "01" for y in "01"},
                ("M2", "M3"): {(x, y): x != y for x in "01" for y in "01"},
            },
        )
        assert classify_strong_contextuality(b) is None
        assert not oracle.brute_is_sc(b)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_roundtrip_reproduces_tables(self, n):
        rng = random.Random(n * 17)
        s = make_n_cycle(n)
        for _ in range(10):
            k = rng.randint(1, n)
            assignment = tuple(rng.choice(("0", "1")) for _ in range(n))
            b = pr_box_behavior(s, k, assignment)
            assert oracle.brute_is_sc(b), "flipped-cycle tables are strongly contextual"
            form = classify_strong_contextuality(b)
            assert form is not None
            rebuilt = pr_box_behavior(s, form.flip_context_index, form.assignment)
            assert rebuilt.tables == b.tables, (
                f"normal form (flip={form.flip_context_index}, a={form.assignment}) "
                f"does not rebuild the table for (k={k}, a={assignment})"
            )

    def test_builder_validation(self):
        s = make_n_cycle(4)
        with pytest.raises(ValueError):
            pr_box_behavior(s, 0)
        with pytest.raises(ValueError):
            pr_box_behavior(s, 5)
        with pytest.raises(ValueError):
            pr_box_behavior(s, 1, ("0", "1"))
        with pytest.raises(NonDichotomic):
            pr_box_behavior(make_n_cycle(4, l=3), 1)
        with pytest.raises(NotCycle):
            pr_box_behavior(path_scenario(4), 1)

    def test_classifier_validation(self):
        with pytest.raises(NonDichotomic):
            classify_strong_contextuality(plant(make_n_cycle(4, l=3), {}))
        with pytest.raises(NotCycle):
            classify_strong_contextuality(plant(path_scenario(3), {}))


# ======================================================================
# 5. Detector equals brute force on random draws
# ======================================================================


class TestAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=3, max_value=5),
        st.integers(min_value=2, max_value=3),
    )
    def test_cycle_detector_decides_lc(self, seed, n, l):
        b = random_pnd(make_n_cycle(n, l=l), random.Random(seed))
        cert = detect_cycle_paradox(b)
        assert (cert is not None) == oracle.brute_is_lc(b)
        if cert is not None:
            assert verify_certificate(b, cert), "detector output must self-verify"

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_bell_detector_decides_lc(self, seed):
        b = random_pnd(make_bipartite_bell(2, 2), random.Random(seed))
        hit = detect_bell22_paradox(b)
        assert (hit is not None) == oracle.brute_is_lc(b)
        if hit is not None:
            assert verify_certificate(b, hit.certificate)


# ======================================================================
# 6. Canonical order: certificates equal the label-level reference's
# ======================================================================


def scrambled_cycle(n: int, l: int, rng: random.Random) -> Scenario:
    """An n-cycle with 2..l outcomes per measurement and its contexts stored
    shuffled, each reversed with probability 1/2."""
    names = tuple(f"M{i}" for i in range(1, n + 1))
    outcomes = {m: tuple(str(o) for o in range(rng.randint(2, l))) for m in names}
    contexts = [(names[i], names[(i + 1) % n]) for i in range(n)]
    contexts = [c[::-1] if rng.random() < 0.5 else c for c in contexts]
    rng.shuffle(contexts)
    return Scenario(names, outcomes, tuple(contexts))


class TestCanonicalOrder:
    def test_cycle_certificates_match_reference(self):
        rng = random.Random(31)
        draws = hits = 0
        for n in range(3, 12):
            for l in (2, 3, 4):
                for k in range(60):
                    s = make_n_cycle(n, l) if k % 2 == 0 else scrambled_cycle(n, l, rng)
                    b = random_pnd(s, rng)
                    cert = detect_cycle_paradox(b)
                    got = cert.to_json_dict() if cert is not None else None
                    assert got == oracle.ref_cycle_paradox(b), f"n={n} l={l} draw {k}"
                    draws += 1
                    hits += cert is not None
        assert draws == 1620
        assert 200 < hits < 1400, hits

    @staticmethod
    def _sparse_pnd(s: Scenario, rng: random.Random) -> PossibilisticBehavior:
        """The restrictions of two global assignments that differ everywhere,
        and sometimes of a third random one, plus one cell whose two outcomes
        are already possible: still nondisturbing, and the added cell often
        extends to no assignment."""
        first = {m: rng.randrange(len(s.outcomes[m])) for m in s.measurements}
        assignments = [first, {m: (x + 1) % len(s.outcomes[m]) for m, x in first.items()}]
        if rng.random() < 0.5:
            assignments.append({m: rng.randrange(len(s.outcomes[m])) for m in s.measurements})
        tables = []
        for u, v in s.contexts:
            cells = [False] * (len(s.outcomes[u]) * len(s.outcomes[v]))
            for g in assignments:
                cells[g[u] * len(s.outcomes[v]) + g[v]] = True
            tables.append(cells)
        ci = rng.randrange(len(tables))
        u, v = s.contexts[ci]
        a, b = rng.choice(assignments)[u], rng.choice(assignments)[v]
        tables[ci][a * len(s.outcomes[v]) + b] = True
        return PossibilisticBehavior(s, tuple(map(tuple, tables)))

    def test_long_cycle_certificates_match_reference(self):
        """Up to n = 64, stored shuffled and reversed: the prefix and suffix
        products give the quadratic reference's first certificate."""
        rng = random.Random(64)
        hits = misses = 0
        for n in (12, 16, 24, 32, 48, 64):
            for l in (2, 3, 4):
                draws = [random_pnd(scrambled_cycle(n, l, rng), rng)]
                draws += [self._sparse_pnd(scrambled_cycle(n, l, rng), rng) for _ in range(4)]
                for k, b in enumerate(draws):
                    cert = detect_cycle_paradox(b)
                    got = cert.to_json_dict() if cert is not None else None
                    assert got == oracle.ref_cycle_paradox(b), f"n={n} l={l} draw {k}"
                    hits += cert is not None
                    misses += cert is None
        assert hits > 15 and misses > 18, (hits, misses)

    def test_chen_paradox_matches_reference(self):
        rng = random.Random(33)
        draws = hits = 0
        for l in (2, 3, 4):
            for k in range(1000):
                s = make_n_cycle(4, l)
                if k % 2:
                    contexts = [c[::-1] if rng.random() < 0.5 else c for c in s.contexts]
                    rng.shuffle(contexts)
                    s = Scenario(s.measurements, s.outcomes, tuple(contexts))
                if k % 4 < 2:
                    b = random_pnd(s, rng)
                else:
                    density = rng.uniform(0.1, 0.6)
                    tables = [[rng.random() < density for _ in range(l * l)] for _ in range(4)]
                    for t in tables:
                        t[rng.randrange(l * l)] = True
                    b = PossibilisticBehavior(s, tuple(map(tuple, tables)))
                hit = detect_chen_paradox(b)
                got = hit.to_json_dict() if hit is not None else None
                assert got == oracle.ref_chen_paradox(b), f"l={l} draw {k}"
                draws += 1
                hits += hit is not None
        assert draws == 3000
        assert 50 < hits < 2000, hits

    def test_bell_certificates_match_reference(self):
        rng = random.Random(32)
        hits = 0
        for k in (2, 3, 4):
            s = make_bipartite_bell(k, 2)
            cycles = chordless_cycles(s).cycles
            for _ in range(150):
                b = random_pnd(s, rng)
                hit = detect_simple_scenario_paradox(b)
                got = hit.to_json_dict() if hit is not None else None
                assert got == oracle.ref_simple_scenario_paradox(b, cycles), f"k={k}"
                hits += hit is not None
        assert 50 < hits < 400, hits
