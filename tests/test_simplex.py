"""Exact rational simplex: known optima, degeneracy, a scipy cross-check,
and exact agreement with the dense Fraction tableau in tests/oracle.py."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from contextuality import (
    Scenario,
    classical,
    contextual_fraction,
    fixture,
    global_distribution,
    make_bipartite_bell,
    make_n_cycle,
    random_nd_coupling,
    random_nd_mixture,
    random_tree_scenario,
    simplex,
    support_size,
)
from contextuality.scenario import index_shape
from contextuality.simplex import maximize

import oracle


def F(a, b=1):
    return Fraction(a, b)


# ======================================================================
# 1. Known optima
# ======================================================================


class TestKnownOptima:
    def test_unit_box(self):
        value, x = maximize([F(1), F(1)], [[F(1), F(0)], [F(0), F(1)]], [F(1), F(1)])
        assert value == 2, f"box corner objective should be 2, got {value}"
        assert x == [F(1), F(1)]

    def test_dantzig_textbook(self):
        # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
        value, x = maximize(
            [F(3), F(5)],
            [[F(1), F(0)], [F(0), F(2)], [F(3), F(2)]],
            [F(4), F(12), F(18)],
        )
        assert value == 36, f"expected 36, got {value}"
        assert x == [F(2), F(6)]

    def test_fractional_optimum_is_exact(self):
        # max x + y s.t. 2x + y <= 1, x + 3y <= 1 -> vertex (2/5, 1/5)
        value, x = maximize(
            [F(1), F(1)], [[F(2), F(1)], [F(1), F(3)]], [F(1), F(1)]
        )
        assert value == F(3, 5), f"expected 3/5 exactly, got {value}"
        assert x == [F(2, 5), F(1, 5)]
        assert all(isinstance(a, Fraction) for a in x)

    def test_empty_problem(self):
        value, x = maximize([], [], [])
        assert value == 0
        assert x == []

    def test_all_negative_costs_stay_home(self):
        value, x = maximize([F(-1), F(-2)], [[F(1), F(1)]], [F(5)])
        assert value == 0, f"origin is optimal, got {value}"
        assert x == [F(0), F(0)]


# ======================================================================
# 2. Degeneracy and termination
# ======================================================================


class TestDegeneracy:
    def test_beale_cycling_example_terminates(self):
        # Degenerate LP on which the largest-coefficient rule cycles
        # forever; Bland's smallest-index rule must terminate.
        value, x = maximize(
            [F(3, 4), F(-150), F(1, 50), F(-6)],
            [
                [F(1, 4), F(-60), F(-1, 25), F(9)],
                [F(1, 2), F(-90), F(-1, 50), F(3)],
                [F(0), F(0), F(1), F(0)],
            ],
            [F(0), F(0), F(1)],
        )
        assert value == F(1, 20), f"expected 1/20, got {value}"
        assert x == [F(1, 25), F(0), F(1), F(0)]

    def test_degenerate_vertex_zero_rhs(self):
        # Both constraints active at the origin; still finds max.
        value, x = maximize(
            [F(1)], [[F(1)], [F(2)]], [F(0), F(0)]
        )
        assert value == 0
        assert x == [F(0)]


# ======================================================================
# 3. Input validation and unboundedness
# ======================================================================


class TestErrors:
    def test_negative_rhs_rejected(self):
        with pytest.raises(ValueError):
            maximize([F(1)], [[F(1)]], [F(-1)])

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            maximize([F(1), F(1)], [[F(1)]], [F(1)])

    def test_rhs_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            maximize([F(1)], [[F(1)]], [F(1), F(2)])

    def test_unbounded_raises(self):
        # maximize x with only -x <= 1 leaves x free to grow.
        with pytest.raises(ArithmeticError):
            maximize([F(1)], [[F(-1)]], [F(1)])

    def test_unbounded_direction_behind_other_rows(self):
        with pytest.raises(ArithmeticError):
            maximize(
                [F(0), F(1)], [[F(1), F(-1)], [F(1), F(0)]], [F(2), F(3)]
            )


# ======================================================================
# 4. Feasibility of the returned point
# ======================================================================


class TestReturnedPoint:
    @pytest.mark.parametrize(
        "c,rows,rhs",
        [
            ([F(2), F(1)], [[F(1), F(1)], [F(1), F(-1)]], [F(4), F(2)]),
            ([F(1), F(3), F(1)], [[F(1), F(1), F(1)], [F(0), F(1), F(2)]], [F(6), F(4)]),
        ],
    )
    def test_point_is_feasible_and_matches_value(self, c, rows, rhs):
        value, x = maximize(c, rows, rhs)
        assert all(a >= 0 for a in x)
        for row, b in zip(rows, rhs):
            lhs = sum(a * xi for a, xi in zip(row, x))
            assert lhs <= b, f"violated row {row}: {lhs} > {b}"
        assert sum(a * xi for a, xi in zip(c, x)) == value


# ======================================================================
# 5. Random LPs against scipy
# ======================================================================


@st.composite
def bounded_lp(draw):
    """Random small LP with an explicit box row so the optimum is finite."""
    nvars = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=0, max_value=4))
    entry = st.integers(min_value=-3, max_value=3)
    c = [Fraction(draw(entry)) for _ in range(nvars)]
    rows = [[Fraction(draw(entry)) for _ in range(nvars)] for _ in range(m)]
    rhs = [Fraction(draw(st.integers(min_value=0, max_value=5))) for _ in range(m)]
    rows.append([Fraction(1)] * nvars)
    rhs.append(Fraction(draw(st.integers(min_value=0, max_value=8))))
    return c, rows, rhs


class TestAgainstScipy:
    @settings(max_examples=150, deadline=None)
    @given(bounded_lp())
    def test_optimal_value_matches_linprog(self, lp):
        c, rows, rhs = lp
        value, x = maximize(c, rows, rhs)
        res = linprog(
            [-float(a) for a in c],
            A_ub=[[float(a) for a in row] for row in rows],
            b_ub=[float(b) for b in rhs],
            bounds=(0, None),
            method="highs",
        )
        assert res.status == 0, f"scipy failed on a bounded LP: {res.message}"
        assert abs(float(value) - (-res.fun)) < 1e-7, (
            f"exact {float(value)} vs scipy {-res.fun}"
        )


# ======================================================================
# 6. Exact agreement with the Fraction tableau
# ======================================================================


def solve(fn, lp):
    """(value, x), or the class of the exception fn raised."""
    try:
        return fn(*lp)
    except (ArithmeticError, ValueError) as e:
        return type(e)


@st.composite
def general_lp(draw):
    """Random LP with negative, fractional and zero entries and zero
    right-hand sides; no box row, so some draws are unbounded."""
    nvars = draw(st.integers(min_value=0, max_value=5))
    m = draw(st.integers(min_value=0, max_value=5))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
    )
    c = [draw(entry) for _ in range(nvars)]
    rows = [[draw(entry) for _ in range(nvars)] for _ in range(m)]
    rhs = [abs(draw(entry)) for _ in range(m)]
    return c, rows, rhs


@st.composite
def classical_lp(draw):
    """An LP shaped like the ones classical._lp builds for a noncontextual
    behavior on pair contexts: one column per support member, one 0/1 row
    per possible cell of each context with that cell's probability as its
    right-hand side, and objective all ones. The optimum is 1 at many
    degenerate vertices, so the ratio test meets many ties. Sizes come from
    a seeded Random, not from shrinkable integers, so large LPs stay
    common."""
    rng = draw(st.randoms(use_true_random=False))
    m = rng.randint(3, 6)
    radices = [rng.randint(2, 3 if m < 5 else 2) for _ in range(m)]
    if rng.random() < 0.5:
        pairs = [(i, (i + 1) % m) for i in range(m)]
    else:
        pairs = rng.sample(list(itertools.combinations(range(m), 2)), rng.randint(2, m))
    space = list(itertools.product(*map(range, radices)))
    weights = Counter()
    for _ in range(rng.randint(1, 16)):
        weights[rng.choice(space)] += rng.randint(1, 3)
    total = sum(weights.values())
    tables = [Counter() for _ in pairs]
    for (u, v), table in zip(pairs, tables):
        for point, w in weights.items():
            table[point[u], point[v]] += w
    columns = [a for a in space if all((a[u], a[v]) in t for (u, v), t in zip(pairs, tables))]
    rows, rhs = [], []
    for (u, v), table in zip(pairs, tables):
        for cell in sorted(table):
            rows.append([int((a[u], a[v]) == cell) for a in columns])
            rhs.append(Fraction(table[cell], total))
    return [1] * len(columns), rows, rhs


@st.composite
def blocked_lp(draw):
    """An LP with the row blocks of the classical LPs, on contexts of one to
    three measurements. Each block is one context and splits the columns
    (the assignments that reach only positive cells) into 0/1 rows, one per
    positive cell, with a rational right-hand side summing to 1 per block.
    Rows with the same pattern (twins) appear in most draws. Most draws take
    the right-hand sides from one distribution over the assignments, so the
    optimum is 1 at many degenerate vertices and the ratio test meets many
    ties; the rest weigh each block's positive cells on their own."""
    rng = draw(st.randoms(use_true_random=False))
    m = rng.randint(3, 6)
    radices = [rng.randint(2, 3 if m < 5 else 2) for _ in range(m)]
    space = list(itertools.product(*map(range, radices)))
    if rng.random() < 0.5:
        contexts = [(i, (i + 1) % m) for i in range(m)]
    else:
        contexts = [tuple(rng.sample(range(m), rng.randint(1, 3))) for _ in range(rng.randint(2, m))]
    mass = Counter()
    for _ in range(rng.randint(1, 16)):
        mass[rng.choice(space)] += rng.randint(1, 3)
    consistent = rng.random() < 0.8
    blocks = []
    for ctx in contexts:
        table = Counter()
        for point, w in mass.items():
            table[tuple(point[q] for q in ctx)] += w
        if not consistent:
            table = Counter({cell: rng.randint(1, 4) for cell in table})
        blocks.append((ctx, table))
    columns = [a for a in space if all(tuple(a[q] for q in ctx) in table for ctx, table in blocks)]
    rows, rhs = [], []
    for ctx, table in blocks:
        for cell in sorted(table):
            rows.append([int(tuple(a[q] for q in ctx) == cell) for a in columns])
            rhs.append(Fraction(table[cell], sum(table.values())))
    return [1] * len(columns), rows, rhs


BEALE = (
    [F(3, 4), F(-150), F(1, 50), F(-6)],
    [
        [F(1, 4), F(-60), F(-1, 25), F(9)],
        [F(1, 2), F(-90), F(-1, 50), F(3)],
        [F(0), F(0), F(1), F(0)],
    ],
    [F(0), F(0), F(1)],
)


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(general_lp())
    @example(BEALE)
    @example(([F(1)], [[F(-1)]], [F(1)]))
    def test_same_point_value_or_exception(self, lp):
        got, want = solve(maximize, lp), solve(oracle.ref_maximize, lp)
        assert got == want, f"integer tableau {got} vs Fraction tableau {want}"
        if isinstance(want, tuple):
            assert type(got[0]) is Fraction and all(type(a) is Fraction for a in got[1])

    @settings(max_examples=100, deadline=None)
    @given(classical_lp())
    def test_classical_shaped_lps_match(self, lp):
        assert solve(maximize, lp) == solve(oracle.ref_maximize, lp)

    @settings(max_examples=150, deadline=None)
    @given(blocked_lp())
    def test_blocked_lps_match(self, lp):
        assert solve(maximize, lp) == solve(oracle.ref_maximize, lp)

    def test_classical_lps_match(self, monkeypatch):
        """The LPs behind global_distribution and contextual_fraction on
        seeded n-cycle and Bell couplings and mixtures, supports up to 100."""
        want = {}

        def checked(c, rows, rhs):
            got = maximize(c, rows, rhs)
            key = (tuple(c), tuple(map(tuple, rows)), tuple(rhs))
            if key not in want:
                want[key] = oracle.ref_maximize(c, rows, rhs)
            assert got == want[key], f"LP with {len(c)} columns and {len(rows)} rows"
            return got

        monkeypatch.setattr(simplex, "maximize", checked)
        rng = random.Random(2024)
        # (scenario, whether it is a dichotomic cycle, so a PR box can be mixed in)
        scenarios = [(make_n_cycle(n, 2), True) for n in range(3, 8)]
        scenarios += [(make_n_cycle(n, 3), False) for n in range(3, 6)]
        scenarios += [(make_bipartite_bell(k, l), False) for k in (2, 3) for l in (2, 3)]
        sizes = []
        while len(sizes) < 40:
            s, pr_ok = rng.choice(scenarios)
            if rng.random() < 0.5:
                b = random_nd_coupling(s, rng, max_components=rng.randint(1, 10))
            else:
                b = random_nd_mixture(s, rng, rng.randint(2, 16), include_pr=pr_ok and rng.random() < 0.5)
            if support_size(b) > 100:
                continue
            sizes.append(support_size(b))
            global_distribution(b)
            contextual_fraction(b)
        assert len(want) == 40 and max(sizes) > 80, sorted(sizes)


# ======================================================================
# 7. The condensed tableau: stored slack columns and tall LPs
# ======================================================================


@st.composite
def tall_lp(draw):
    """Random LP with many more rows than columns (m >> n), the shape of the
    classical LPs, where most of the full tableau would be slack columns.
    A few draws are unbounded and many are degenerate. Entries come from a
    seeded Random, which keeps drawing a hundred of them cheap."""
    rng = draw(st.randoms(use_true_random=False))
    nvars, m = rng.randint(1, 4), rng.randint(6, 24)

    def entry():
        kind = rng.randrange(3)
        return Fraction(0) if kind == 0 else Fraction(rng.randint(-1, 3), 1 if kind == 1 else rng.randint(2, 5))

    c = [Fraction(rng.randint(-3, 12), rng.randint(1, 3)) for _ in range(nvars)]
    rows = [[entry() for _ in range(nvars)] for _ in range(m)]
    rhs = [abs(entry()) + rng.randint(0, 4) for _ in range(m)]
    return c, rows, rhs


class TestCondensedTableau:
    def test_slack_leaves_and_reenters(self):
        # max 2x + 3y s.t. x + y <= 2, (2/3)x <= 1/3. Bland's rule enters x
        # first, and slack 1 leaves (ratio 1/2 < 2); y enters and slack 0
        # leaves; then slack 1, now a stored nonbasic column, re-enters and
        # x leaves. The optimum is (0, 2).
        lp = ([F(2), F(3)], [[F(1), F(1)], [F(2, 3), F(0)]], [F(2), F(1, 3)])
        assert maximize(*lp) == oracle.ref_maximize(*lp) == (F(6), [F(0), F(2)])

    def test_entering_column_is_smallest_label_not_position(self):
        # max x0 + 2 x2 s.t. x0 + 2 x1 <= 1, x0 + x2 <= 3. After x0 and x2
        # enter, column 0 holds slack 0 (label 3) and column 1 holds x1
        # (label 1), both with positive reduced cost; Bland's rule takes x1.
        # Taking column 0 would end at the other optimum (0, 0, 3).
        lp = ([F(1), F(0), F(2)], [[F(1), F(2), F(0)], [F(1), F(0), F(1)]], [F(1), F(3)])
        assert maximize(*lp) == oracle.ref_maximize(*lp) == (F(6), [F(0), F(1, 2), F(3)])

    @settings(max_examples=200, deadline=None)
    @given(tall_lp())
    def test_tall_lps_match_reference(self, lp):
        got, want = solve(maximize, lp), solve(oracle.ref_maximize, lp)
        assert got == want, f"condensed tableau {got} vs Fraction tableau {want}"


# ======================================================================
# 8. Row levels: rows a pivot leaves alone
# ======================================================================


@st.composite
def sparse_lp(draw):
    """Random tall LP with most entries 0, so each pivot leaves most rows
    untouched at an older level, and right-hand sides from a few small values
    (0 among them), so the ratio test meets many ties. Rows may go stale over
    several pivots before one of them is the pivot row or holds x. Entries
    come from a seeded Random."""
    rng = draw(st.randoms(use_true_random=False))
    nvars, m = rng.randint(2, 6), rng.randint(6, 30)

    def entry():
        kind = rng.randrange(10)
        if kind < 7:
            return 0
        return Fraction(rng.randint(1, 3), rng.choice((1, 1, 2, 3))) if kind < 9 else -rng.randint(1, 2)

    c = [rng.randint(-1, 4) for _ in range(nvars)]
    rows = [[entry() for _ in range(nvars)] for _ in range(m)]
    rhs = [rng.choice((0, 1, 1, 2, F(1, 2))) for _ in range(m)]
    return c, rows, rhs


class TestRowLevels:
    def test_row_stale_over_two_pivots_then_pivots(self):
        # max x1 + 3 x2 + 3 x3 s.t. 2 x0 + 3 x1 <= 1, x0 + 2 x2 <= 2,
        # 2 x2 + x3 <= 3. x1 enters at row 0 (d becomes 3), then x2 at row 1
        # and x3 at row 2; row 0 has 0 in both their columns, so neither
        # pivot writes it. Then x0 enters and row 0, still at level 3 while
        # d is 6, is the pivot row. Then slack 1 re-enters for x2, and x1
        # for x0.
        lp = ([0, 1, 3, 3], [[2, 3, 0, 0], [1, 0, 2, 0], [0, 0, 2, 1]], [1, 2, 3])
        assert maximize(*lp) == oracle.ref_maximize(*lp) == (F(28, 3), [F(0), F(1, 3), F(0), F(3)])

    def test_int_rows_take_scale_one_without_an_lcm(self, monkeypatch):
        monkeypatch.setattr(simplex.math, "lcm", lambda *a: pytest.fail("lcm computed for int rows"))
        assert simplex._scaled([3, 0, -2]) == ([3, 0, -2], 1)

    @settings(max_examples=300, deadline=None)
    @given(sparse_lp())
    def test_sparse_lps_match_reference(self, lp):
        got, want = solve(maximize, lp), solve(oracle.ref_maximize, lp)
        assert got == want, f"row-level tableau {got} vs Fraction tableau {want}"


# ======================================================================
# 9. Unit-coefficient rows and in-place rewrites against the predecessor
# ======================================================================


def frozen_maximize(c, rows, rhs, pivots=None, rewrites=None):
    """simplex.maximize as it was before rows at the pivot's level were
    updated in place: every rewrite is dense. Appends (entering label,
    leaving label) to pivots at each pivot, and counts in rewrites the
    rewritten rows already at the pivot's level ("in place") and the others
    ("dense")."""

    def scaled(values):
        if all(type(a) is int for a in values):
            return list(values), 1
        values = [a if type(a) is int else Fraction(a) for a in values]
        scale = math.lcm(*{a.denominator for a in values})
        return [a.numerator * (scale // a.denominator) for a in values], scale

    nvars, m = len(c), len(rows)
    if len(rhs) != m:
        raise ValueError(f"{m} rows but {len(rhs)} right-hand sides")
    for b_i in rhs:
        if b_i < 0:
            raise ValueError(f"negative right-hand side {b_i}; all-slack start needs b >= 0")
    tableau = []
    for i, row in enumerate(rows):
        if len(row) != nvars:
            raise ValueError(f"row {i} has {len(row)} entries, expected {nvars}")
        tableau.append(scaled([*row, rhs[i]])[0])
    obj, c_scale = scaled(c)
    tableau.append(obj + [0])
    nonbasic, basis = list(range(nvars)), list(range(nvars, nvars + m))
    d = 1
    level = [1] * (m + 1)
    while True:
        s = min((j for j in range(nvars) if tableau[m][j] > 0), key=nonbasic.__getitem__, default=None)
        if s is None:
            break
        r = None
        for i in range(m):
            a = tableau[i][s]
            if a > 0:
                if r is not None:
                    bi_ar, br_ai = tableau[i][-1] * tableau[r][s], tableau[r][-1] * a
                if r is None or bi_ar < br_ai or (bi_ar == br_ai and basis[i] < basis[r]):
                    r = i
        if r is None:
            raise ArithmeticError("LP is unbounded")
        piv_row = tableau[r]
        if level[r] != d:
            piv_row = tableau[r] = [a * d // level[r] for a in piv_row]
        p = piv_row[s]
        for i, row in enumerate(tableau):
            f = row[s]
            if f and i != r:
                if rewrites is not None:
                    rewrites["in place" if level[i] == p else "dense"] += 1
                tableau[i] = [(a * p - f * b) // level[i] for a, b in zip(row, piv_row)]
                tableau[i][s] = -(f * d // level[i])
                level[i] = p
        piv_row[s] = d
        level[r] = p
        if pivots is not None:
            pivots.append((nonbasic[s], basis[r]))
        nonbasic[s], basis[r] = basis[r], nonbasic[s]
        d = p
    x = [Fraction(0)] * nvars
    for i, bv in enumerate(basis):
        if bv < nvars:
            x[bv] = Fraction(tableau[i][-1], level[i])
    return Fraction(-tableau[m][-1], level[m] * c_scale), x


def frozen_lp(b, members, pivots=None):
    """classical._lp as it was before its rows were 0/1: each kept row is its
    pattern times its table's lcm, with its cell's numerator on the right,
    solved by frozen_maximize."""
    radices, ctx_positions = index_shape(b.scenario)
    kept = {}
    for ci, ((nums, den), positions) in enumerate(zip(b._ints, ctx_positions)):
        hit = {}
        for k, row in enumerate(members):
            cell = 0
            for q in positions:
                cell = cell * radices[q] + row[q]
            hit.setdefault(cell, []).append(k)
        for cell, num in enumerate(nums):
            if not num:
                continue
            pattern = frozenset(hit.get(cell, ()))
            twin = kept.get(pattern)
            if twin is None or num * twin[2] < twin[1] * den:
                kept[pattern] = ((ci, cell), num, den)
    n = len(members)
    rows = sorted(
        (at, num, [den * (k in pattern) for k in range(n)]) for pattern, (at, num, den) in kept.items()
    )
    return frozen_maximize([1] * n, [row for *_, row in rows], [num for _, num, _ in rows], pivots)


def live_pivots(monkeypatch) -> list:
    """Record simplex.maximize's pivots as (entering label, leaving label).
    Its Bland step calls min(..., key=nonbasic.__getitem__) once before each
    pivot and once at the end, so at each call the column the last pivot
    entered at holds that pivot's leaving label. A pending choice from another
    call's nonbasic list was cut short by ArithmeticError and is dropped."""
    pivots, pending = [], []

    def recording_min(iterable, key, default):
        s = min(iterable, key=key, default=default)
        nonbasic = key.__self__
        if pending and pending[0][0] is nonbasic:
            _, last, entering = pending[0]
            pivots.append((entering, nonbasic[last]))
        pending[:] = [] if s is None else [(nonbasic, s, nonbasic[s])]
        return s

    monkeypatch.setattr(simplex, "min", recording_min, raising=False)
    return pivots


def unit_lp(rng: random.Random):
    """An LP with 0/1 rows and right-hand sides of up to 60 bits, some of
    them fractions and some 0, and costs mostly 1: the shape classical._lp
    passes, with its scale left large."""
    nvars, m = rng.randint(1, 8), rng.randint(2, 14)
    rows = [[int(rng.random() < 0.4) for _ in range(nvars)] for _ in range(m)]
    rhs = [
        0 if rng.random() < 0.1 else Fraction(rng.getrandbits(60), rng.choice((1, 1, 3, 1 << 20)))
        for _ in range(m)
    ]
    c = [1 if rng.random() < 0.8 else rng.randint(-1, 3) for _ in range(nvars)]
    return c, rows, rhs


def ring_of_triples(rng: random.Random) -> Scenario:
    names = [f"X{i}" for i in range(6)]
    outcomes = {m: tuple(str(o) for o in range(rng.randint(2, 3))) for m in names}
    return Scenario(tuple(names), outcomes, (("X0", "X1", "X2"), ("X2", "X3", "X4"), ("X4", "X5", "X0")))


def predecessor_draws(rng: random.Random):
    """Seeded couplings and mixtures on l >= 3 cycles, Bell (3,2), (2,3) and
    (3,3), trees and a ring of triples, then the five fixtures."""
    pairwise = [make_n_cycle(n, l) for n, l in ((3, 3), (4, 3), (5, 3), (3, 4), (4, 4))]
    pairwise += [make_bipartite_bell(3, 2), make_bipartite_bell(2, 3), make_bipartite_bell(3, 3)]
    for _ in range(3):
        for s in pairwise + [random_tree_scenario(rng)]:
            yield random_nd_coupling(s, rng, max_components=rng.randint(1, 8))
            yield random_nd_mixture(s, rng, rng.randint(2, 12))
        yield random_nd_mixture(ring_of_triples(rng), rng, rng.randint(2, 12))
    for n in (3, 4, 5):
        yield random_nd_mixture(make_n_cycle(n), rng, rng.randint(2, 6), include_pr=True)
    yield from map(fixture, ("bell", "hardy", "pr-box", "cabello5", "hardy4"))


class TestUnitCoefficientRows:
    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_unit_lps_match_reference(self, rng):
        lp = unit_lp(rng)
        got, want = solve(maximize, lp), solve(oracle.ref_maximize, lp)
        assert got == want, f"in-place tableau {got} vs Fraction tableau {want}"

    def test_unit_lps_reach_both_rewrites(self, monkeypatch):
        """The draws of unit_lp rewrite rows both at the pivot's level (in
        place) and off it (dense), and match the predecessor pivot for pivot."""
        pivots, rewrites = live_pivots(monkeypatch), Counter()
        for seed in range(200):
            lp, want_pivots = unit_lp(random.Random(seed)), []
            pivots.clear()
            assert solve(maximize, lp) == solve(lambda *a: frozen_maximize(*a, want_pivots, rewrites), lp)
            assert pivots == want_pivots
        assert rewrites["in place"] > 400 and rewrites["dense"] > 400, rewrites

    def test_same_point_and_pivots_as_the_predecessor(self, monkeypatch):
        """classical._lp, with 0/1 rows over one scale and in-place rewrites,
        gives the predecessor's (value, x) with the same types, by the same
        pivots, on seeded draws and the fixtures."""
        pivots = live_pivots(monkeypatch)
        total, nontrivial = 0, 0
        for b in predecessor_draws(random.Random(33)):
            members = classical._scan(b, None).rows()
            if len(members) > 120:
                continue
            want_pivots = []
            want = frozen_lp(b, members, want_pivots)
            pivots.clear()
            got = classical._lp(b, members)
            assert repr(got) == repr(want), b.scenario
            assert pivots == want_pivots, b.scenario
            total += 1
            nontrivial += len(pivots) > 3 and got[0] < 1
        assert total >= 60 and nontrivial >= 3, (total, nontrivial)
