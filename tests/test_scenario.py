"""Scenario construction, the standard families, cycle enumeration, and the
index shape each scenario owns."""

import copy
import dataclasses
import gc
import itertools
import pickle
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    InvalidScenario,
    NonSimpleScenario,
    NotCycle,
    Scenario,
    chordless_cycles,
    load_scenario,
    make_bipartite_bell,
    make_n_cycle,
    traverse_cycle,
)
from contextuality import scenario
from oracle import brute_induced_cycle_count


NOT_CYCLES = {  # contexts -> traverse_cycle's NotCycle message
    (("M1", "M2"), ("M2", "M3"), ("M2", "M4")): "need n measurements and n 2-element contexts, got 3 contexts on 4",
    (("M1", "M2"), ("M2", "M3"), ("M3", "M4"), ("M4", "M1"), ("M1", "M3")):
        "need n measurements and n 2-element contexts, got 5 contexts on 4",  # a chord
    (("M1", "M2", "M3"), ("M3", "M4")): "need n measurements and n 2-element contexts, got 2 contexts on 4",
    (("M1", "M2"), ("M2", "M3"), ("M2", "M4"), ("M3", "M4")): "measurement 'M1' lies in 1 contexts, need exactly 2",
    (("M1", "M2"), ("M2", "M3"), ("M3", "M1"), ("M4", "M5"), ("M5", "M6"), ("M6", "M4")):
        "compatibility graph is not one single cycle",  # two disjoint triangles
}


def dichotomic(contexts) -> Scenario:
    """The scenario of two-outcome measurements, in label order, on contexts."""
    names = tuple(sorted({m for c in contexts for m in c}))
    return Scenario(names, {m: ("0", "1") for m in names}, contexts)


def square_with_chord() -> Scenario:
    """4-cycle plus one diagonal context."""
    names = ("M1", "M2", "M3", "M4")
    return Scenario(
        names,
        {m: ("0", "1") for m in names},
        (("M1", "M2"), ("M2", "M3"), ("M3", "M4"), ("M4", "M1"), ("M1", "M3")),
    )


# ============================================================
# 1. Construction and validation
# ============================================================

class TestScenarioValidation:
    def test_minimal_valid(self):
        s = Scenario(("A",), {"A": ("0", "1")}, (("A",),))
        assert s.measurements == ("A",)
        assert s.context_cells(0) == 2

    @pytest.mark.parametrize(
        "measurements, outcomes, contexts",
        [
            ((), {}, ()),
            (("A", "A"), {"A": ("0", "1")}, (("A",),)),
            (("A",), {}, (("A",),)),
            (("A",), {"A": ("0",)}, (("A",),)),
            (("A",), {"A": ("0", "0")}, (("A",),)),
            (("A",), {"A": ("0", "1")}, ()),
            (("A", "B"), {"A": ("0", "1"), "B": ("0", "1")}, (("A",),)),
            (("A",), {"A": ("0", "1")}, (("A", "B"),)),
            (("A", "B"), {"A": ("0", "1"), "B": ("0", "1")}, (("A", "A"), ("A", "B"))),
            (("A", "B"), {"A": ("0", "1"), "B": ("0", "1")}, (("A",), ("A", "B"))),
        ],
    )
    def test_invalid_structures(self, measurements, outcomes, contexts):
        with pytest.raises(InvalidScenario):
            Scenario(measurements, outcomes, contexts)

    @pytest.mark.parametrize(
        "contexts, message",
        [
            # duplicates in another member order: the first copy names the second
            ((("C", "D"), ("A", "B"), ("D", "A"), ("B", "A")), "('A', 'B') within ('B', 'A')"),
            # nested: the first context with a superset, its smallest superset
            ((("A", "B", "C"), ("D", "C"), ("C", "B"), ("B", "C", "D")), "('D', 'C') within ('B', 'C', 'D')"),
            ((("B",), ("A", "B", "C", "D"), ("C", "B", "A")), "('B',) within ('A', 'B', 'C', 'D')"),
        ],
    )
    def test_antichain_message_names_first_pair(self, contexts, message):
        outcomes = {m: ("0", "1") for m in "ABCD"}
        with pytest.raises(InvalidScenario, match="antichain") as err:
            Scenario(tuple("ABCD"), outcomes, contexts)
        assert str(err.value) == f"contexts must form an antichain: {message}"
        with pytest.raises(InvalidScenario) as err:
            Scenario(tuple("ABCDEF"), {m: ("0", "1") for m in "ABCDEF"}, contexts)
        assert str(err.value) == "measurements not covered by any context: ['E', 'F']"

    def test_antichain_check_matches_pairwise_reference(self):
        rng = random.Random(97)
        names = tuple("ABCDEF")
        raised = 0
        for _ in range(400):
            contexts = [tuple(rng.sample(names, rng.randint(1, 4))) for _ in range(rng.randint(2, 6))]
            contexts.append(names[: rng.randint(1, 6)])
            rng.shuffle(contexts)
            expected = next(
                (
                    f"contexts must form an antichain: {a} within {b}"
                    for i, a in enumerate(contexts)
                    for j, b in enumerate(contexts)
                    if i != j and set(a) <= set(b)
                ),
                None,
            )
            covered = set().union(*contexts)
            if covered != set(names):
                expected = f"measurements not covered by any context: {sorted(set(names) - covered)}"
            try:
                Scenario(names, {m: ("0", "1") for m in names}, tuple(contexts))
            except InvalidScenario as exc:
                assert str(exc) == expected
                raised += 1
            else:
                assert expected is None
        assert 100 < raised < 400, raised

    def test_context_order_is_preserved(self):
        s = Scenario(
            ("A", "B"), {"A": ("0", "1"), "B": ("0", "1")}, (("B", "A"),)
        )
        assert s.contexts[0] == ("B", "A")

    def test_outcome_index_unknown_label(self):
        s = make_n_cycle(3)
        with pytest.raises(InvalidScenario):
            s.outcome_index("M1", "7")

    @pytest.mark.parametrize(
        "data",
        [
            {"measurements": ["A"], "outcomes": {"A": "01"}, "contexts": [["A"]]},
            {"measurements": "AB", "outcomes": {"A": ["0", "1"], "B": ["0", "1"]}, "contexts": [["A", "B"]]},
            {"measurements": ["A", "B"], "outcomes": {"A": ["0", "1"], "B": ["0", "1"]}, "contexts": ["AB"]},
            {"measurements": ["A", "B"], "outcomes": {"A": ["0", "1"], "B": ["0", "1"]}, "contexts": "AB"},
        ],
    )
    def test_json_string_is_not_split_into_labels(self, data):
        with pytest.raises(InvalidScenario):
            Scenario.from_json_dict(data)


# ============================================================
# 2. Standard families
# ============================================================

class TestFamilies:
    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_n_cycle_shape(self, n):
        s = make_n_cycle(n)
        assert len(s.measurements) == n
        assert len(s.contexts) == n
        assert s.contexts[-1] == (f"M{n}", "M1"), "last context wraps to M1"
        assert s.is_simple

    def test_n_cycle_outcome_count(self):
        s = make_n_cycle(4, 3)
        assert all(s.outcomes[m] == ("0", "1", "2") for m in s.measurements)

    @pytest.mark.parametrize("n, l", [(2, 2), (3, 1)])
    def test_n_cycle_rejects_small(self, n, l):
        with pytest.raises(InvalidScenario):
            make_n_cycle(n, l)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_bipartite_bell_shape(self, k):
        s = make_bipartite_bell(k)
        assert len(s.measurements) == 2 * k
        assert len(s.contexts) == k * k
        # contexts run Alice-major: (A1,B1), (A1,B2), ..., (A2,B1), ...
        assert s.contexts[0] == ("A1", "B1")
        assert s.contexts[k] == ("A2", "B1")

    def test_json_round_trip(self, tmp_path):
        s = make_bipartite_bell(3)
        again = Scenario.from_json_dict(s.to_json_dict())
        assert again == s
        path = tmp_path / "scenario.json"
        path.write_text(__import__("json").dumps(s.to_json_dict()))
        assert load_scenario(path) == s


# ============================================================
# 3. Chordless cycle enumeration
# ============================================================

class TestChordlessCycles:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_single_cycle(self, n):
        dec = chordless_cycles(make_n_cycle(n))
        assert len(dec.cycles) == 1
        assert not dec.is_acyclic
        assert set(dec.cycles[0]) == set(make_n_cycle(n).measurements)

    @pytest.mark.parametrize("k, count", [(2, 1), (3, 9), (4, 36)])
    def test_bipartite_bell_counts(self, k, count):
        # K_{k,k} has (k choose 2)^2 induced 4-cycles and nothing longer
        dec = chordless_cycles(make_bipartite_bell(k))
        assert len(dec.cycles) == count
        assert all(len(c) == 4 for c in dec.cycles)

    def test_tree_has_none(self):
        names = ("M1", "M2", "M3", "M4")
        s = Scenario(
            names,
            {m: ("0", "1") for m in names},
            (("M1", "M2"), ("M2", "M3"), ("M2", "M4")),
        )
        dec = chordless_cycles(s)
        assert dec.cycles == ()
        assert dec.is_acyclic

    def test_square_with_chord(self):
        # the diagonal splits the square into two triangles; the square
        # itself has a chord and must not be reported
        dec = chordless_cycles(square_with_chord())
        assert len(dec.cycles) == 2
        assert all(len(c) == 3 for c in dec.cycles)

    def test_rejects_non_simple(self):
        s = Scenario(
            ("A", "B", "C"),
            {m: ("0", "1") for m in "ABC"},
            (("A", "B", "C"),),
        )
        with pytest.raises(NonSimpleScenario):
            chordless_cycles(s)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_count_matches_brute_force(self, seed):
        """On random graphs, the enumerator finds exactly the vertex subsets
        that induce a cycle (each chordless cycle is determined by its
        vertex set)."""
        rng = random.Random(seed)
        n = rng.randint(3, 7)
        pairs = list(itertools.combinations(range(n), 2))
        edges = {frozenset(p) for p in pairs if rng.random() < 0.45}
        # make sure every vertex is covered so the scenario is valid
        for v in range(n):
            if not any(v in e for e in edges):
                other = (v + 1) % n
                edges.add(frozenset((v, other)))
        names = tuple(f"M{i}" for i in range(n))
        contexts = tuple(
            (names[min(e)], names[max(e)]) for e in sorted(edges, key=sorted)
        )
        s = Scenario(names, {m: ("0", "1") for m in names}, contexts)
        dec = chordless_cycles(s)
        assert len(dec.cycles) == brute_induced_cycle_count(n, edges), (
            f"graph with edges {sorted(map(sorted, edges))}"
        )
        assert len({frozenset(c) for c in dec.cycles}) == len(dec.cycles)

    def test_cycles_come_out_sorted_and_canonical(self):
        """The DFS emits in sorted order by itself: no sort follows it, so
        shuffled contexts, flipped pairs and labels whose string order is not
        their numeric order must still give a sorted list."""
        rng = random.Random(2024)
        total = 0
        for _ in range(400):
            n = rng.randint(3, 9)
            names = rng.sample(["1", "10", "2", "9", "A", "a", "B1", "b", "M10", "M2", "Z", "x0"], n)
            pairs = [p for p in itertools.combinations(names, 2) if rng.random() < 0.5]
            pairs += [(m, names[0] if m != names[0] else names[1]) for m in names]  # cover every label
            unique = {frozenset(p): p for p in pairs}
            contexts = [tuple(rng.sample(p, 2)) for p in unique.values()]
            rng.shuffle(contexts)
            cycles = chordless_cycles(Scenario(names, {m: ("0", "1") for m in names}, contexts)).cycles
            assert list(cycles) == sorted(cycles), contexts
            assert all(c[0] == min(c) and c[1] < c[-1] for c in cycles)
            total += len(cycles)
        assert total > 1000, total


    def test_long_cycle_needs_no_recursion(self):
        """The search keeps its own stack: a cycle longer than the recursion
        limit is found like a short one."""
        s = make_n_cycle(300)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            (cycle,) = chordless_cycles(s).cycles
        finally:
            sys.setrecursionlimit(limit)
        assert sorted(cycle) == sorted(s.measurements)
        assert cycle[0] == min(cycle) and cycle[1] < cycle[-1]


# ============================================================
# 4. Cycle traversal
# ============================================================

class TestTraverseCycle:
    def test_orientation_starts_at_first_context(self):
        s = make_n_cycle(5)
        order = traverse_cycle(s)
        assert order[0] == (0, ("M1", "M2"))
        assert [idx for idx, _ in order] == [0, 1, 2, 3, 4]
        # consecutive oriented pairs chain head to tail and close up
        for (_, (u, v)), (_, (u2, _)) in zip(order, order[1:]):
            assert v == u2
        assert order[-1][1][1] == order[0][1][0]

    def test_traversal_follows_stored_orientation_of_first_context(self):
        names = ("X", "Y", "Z")
        s = Scenario(
            names,
            {m: ("0", "1") for m in names},
            (("Y", "X"), ("X", "Z"), ("Z", "Y")),
        )
        order = traverse_cycle(s)
        assert order[0] == (0, ("Y", "X"))

    @pytest.mark.parametrize("contexts", list(NOT_CYCLES))
    def test_rejects_non_cycles(self, contexts):
        s = dichotomic(contexts)
        for _ in range(2):  # the second call reads the cached message, if any
            with pytest.raises(NotCycle, match=f"^{re.escape(NOT_CYCLES[contexts])}$"):
                traverse_cycle(s)

    def test_walk_is_cached_by_labels_alone(self):
        scenario._cycle_walk.cache_clear()
        walk = traverse_cycle(make_n_cycle(6))
        assert traverse_cycle(make_n_cycle(6, 3)) is walk  # same contexts, 3 outcomes
        count_failures = [dichotomic(c) for c in NOT_CYCLES if "contexts on" in NOT_CYCLES[c]]
        for s in count_failures + [make_bipartite_bell(3, 2)]:
            with pytest.raises(NotCycle, match="^need n measurements"):
                traverse_cycle(s)
        info = scenario._cycle_walk.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


# ============================================================
# 5. The index shape
# ============================================================


def rebuilt(s: Scenario) -> tuple:
    """The index shape, built from the labels: outcome counts in measurement
    order and each context's measurement positions."""
    position = {m: q for q, m in enumerate(s.measurements)}
    return tuple(len(s.outcomes[m]) for m in s.measurements), tuple(tuple(map(position.get, c)) for c in s.contexts)


class TestIndexShape:
    def test_equal_scenarios_share_one_shape(self):
        s, t = make_n_cycle(7, 3), make_n_cycle(7, 3)
        assert s is not t and scenario.index_shape(s) is scenario.index_shape(t)
        assert scenario.index_shape(Scenario.from_json_dict(s.to_json_dict())) is scenario.index_shape(s)
        assert scenario.index_shape(s) == rebuilt(s)

    def test_different_shapes_stay_apart(self):
        s = make_n_cycle(5, 2)
        reordered = Scenario(s.measurements, s.outcomes, s.contexts[::-1])
        cases = [s, make_n_cycle(5, 3), reordered]  # same labels, other outcome counts or context order
        shapes = [scenario.index_shape(c) for c in cases]
        assert shapes == [rebuilt(c) for c in cases] and len(set(shapes)) == 3

    def test_copies_keep_equality_hash_and_shape(self):
        s = make_bipartite_bell(2, 3)
        fresh = pickle.dumps(s)
        shape = scenario.index_shape(s)
        assert repr(s) == repr(make_bipartite_bell(2, 3)) and pickle.loads(fresh) == s
        copies = [pickle.loads(fresh), pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)]
        for c in copies + [dataclasses.replace(s)]:
            assert c == s and hash(c) == hash(s) and scenario.index_shape(c) == shape == rebuilt(c)
        moved = dataclasses.replace(s, contexts=s.contexts[1:] + s.contexts[:1])
        assert moved != s and scenario.index_shape(moved) == rebuilt(moved) != shape

    def test_shapes_of_equal_scenarios_take_no_copies(self):
        scenario.index_shape(make_n_cycle(9, 3))  # interned, and the attribute known to the class
        scenarios = [make_n_cycle(9, 3) for _ in range(1200)]
        tracemalloc.start()
        try:  # a full collection empties the free lists, which hold freed temporaries
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for s in scenarios:
                scenario.index_shape(s)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained <= 100_000, retained  # a copy per scenario holds about 0.9 MB
