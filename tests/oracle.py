"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way on purpose: plain
itertools enumeration over global assignments and an off-the-shelf float
LP. No code is shared with the package beyond the data types, so an
agreement between routes means something.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from contextuality import AnyBehavior, Behavior, PossibilisticBehavior


def possible_table(b: AnyBehavior, ci: int) -> list[bool]:
    t = b.tables[ci]
    if isinstance(b, PossibilisticBehavior):
        return [bool(x) for x in t]
    return [x > 0 for x in t]


def all_assignments(b: AnyBehavior):
    s = b.scenario
    for combo in itertools.product(*(s.outcomes[m] for m in s.measurements)):
        yield dict(zip(s.measurements, combo))


def _cell_index(b: AnyBehavior, ci: int, labels) -> int:
    s = b.scenario
    idx = 0
    for m, o in zip(s.contexts[ci], labels):
        idx = idx * len(s.outcomes[m]) + s.outcomes[m].index(o)
    return idx


def brute_support(b: AnyBehavior) -> list[dict]:
    out = []
    for g in all_assignments(b):
        ok = True
        for ci, c in enumerate(b.scenario.contexts):
            if not possible_table(b, ci)[_cell_index(b, ci, [g[m] for m in c])]:
                ok = False
                break
        if ok:
            out.append(g)
    return out


def ref_survivors(b: AnyBehavior) -> np.ndarray:
    """Support members as int64 mixed-radix assignment indices over the
    scenario's measurement order (last fastest), ascending."""
    s = b.scenario
    tables = [possible_table(b, ci) for ci in range(len(s.contexts))]
    out = []
    for index, combo in enumerate(itertools.product(*(s.outcomes[m] for m in s.measurements))):
        g = dict(zip(s.measurements, combo))
        if all(tables[ci][_cell_index(b, ci, [g[m] for m in c])] for ci, c in enumerate(s.contexts)):
            out.append(index)
    return np.array(out, dtype=np.int64)


def brute_witness(b: AnyBehavior):
    """First possible joint outcome (context order, lexicographic cell order)
    reached by no support member, or None."""
    support = brute_support(b)
    s = b.scenario
    for ci, c in enumerate(s.contexts):
        possible = possible_table(b, ci)
        for k, cell in enumerate(itertools.product(*(s.outcomes[m] for m in c))):
            if not possible[k]:
                continue
            if not any(tuple(g[m] for m in c) == cell for g in support):
                return c, cell
    return None


def brute_is_lc(b: AnyBehavior) -> bool:
    return brute_witness(b) is not None


def brute_is_sc(b: AnyBehavior) -> bool:
    return not brute_support(b)


def linprog_noncontextual_weight(b: Behavior) -> float:
    """Largest total weight of a subprobability mixture of ALL global
    assignments dominated by the behavior, via scipy's float simplex."""
    assignments = list(all_assignments(b))
    s = b.scenario
    rows = []
    rhs = []
    for ci, c in enumerate(s.contexts):
        for k, cell in enumerate(itertools.product(*(s.outcomes[m] for m in c))):
            rows.append(
                [1.0 if tuple(g[m] for m in c) == cell else 0.0 for g in assignments]
            )
            rhs.append(float(b.tables[ci][k]))
    res = linprog(
        c=[-1.0] * len(assignments),
        A_ub=rows,
        b_ub=rhs,
        bounds=[(0, None)] * len(assignments),
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def brute_inequality_max(b: Behavior):
    """Maximum of sum g_i E_i over every sign vector with an odd number of
    -1 entries, by exhaustive enumeration."""
    n = len(b.scenario.contexts)
    corr = []
    for ci in range(n):
        t = b.tables[ci]
        corr.append(t[0] + t[3] - t[1] - t[2])
    best = None
    for signs in itertools.product((1, -1), repeat=n):
        if signs.count(-1) % 2 == 0:
            continue
        val = sum(g * e for g, e in zip(signs, corr))
        if best is None or val > best:
            best = val
    return best


def brute_induced_cycle_count(n_vertices: int, edges: set[frozenset]) -> int:
    """Number of vertex subsets of size >= 3 whose induced subgraph is a
    cycle (connected, every vertex of degree exactly 2)."""
    count = 0
    vertices = list(range(n_vertices))
    for size in range(3, n_vertices + 1):
        for subset in itertools.combinations(vertices, size):
            inside = set(subset)
            degrees = {
                v: sum(1 for u in inside if u != v and frozenset((u, v)) in edges)
                for v in inside
            }
            if any(d != 2 for d in degrees.values()):
                continue
            # degree-2 everywhere: a disjoint union of cycles; connected iff one
            start = subset[0]
            seen = {start}
            frontier = [start]
            while frontier:
                v = frontier.pop()
                for u in inside:
                    if u not in seen and frozenset((u, v)) in edges:
                        seen.add(u)
                        frontier.append(u)
            if seen == inside:
                count += 1
    return count


# -- label-level references for the paradox detectors and the ND check -------


def _oriented_possible(b: AnyBehavior, ci: int, pair, labels) -> bool:
    """Possibility of (u, v) = labels in context ci, whose stored order may
    be the reverse of pair."""
    ordered = labels if tuple(b.scenario.contexts[ci]) == tuple(pair) else labels[::-1]
    return possible_table(b, ci)[_cell_index(b, ci, ordered)]


def cycle_walk(s):
    """Walk a single-cycle scenario from stored context 0 in its stored
    orientation: ((stored index, (u, v)), ...)."""
    pos, (u, v) = 0, tuple(s.contexts[0])
    walk = [(pos, (u, v))]
    while len(walk) < len(s.contexts):
        pos = next(
            i for i, c in enumerate(s.contexts) if v in c and i != pos
        )
        c = s.contexts[pos]
        u, v = v, (c[1] if c[0] == v else c[0])
        walk.append((pos, (u, v)))
    return tuple(walk)


def ref_scan_walk(b: AnyBehavior, walk, bases):
    """Reachable-set paradox scan, label by label, as a certificate dict.

    Bases are walk positions, tried in the given order; witness pairs (a, b)
    run lexicographically in the walk's orientation, and every pair
    propagates {b} once around the walk from scratch. Returns the first
    paradox in the shape of ParadoxCertificate.to_json_dict(), or None.
    """
    s = b.scenario
    n = len(walk)
    for p in bases:
        base_ci, (u, v) = walk[p]
        for a, b_out in itertools.product(s.outcomes[u], s.outcomes[v]):
            if not _oriented_possible(b, base_ci, (u, v), (a, b_out)):
                continue
            reach = (b_out,)
            chain = []
            for j in range(1, n):
                ci, (x_m, y_m) = walk[(p + j) % n]
                outs = s.outcomes[y_m]
                image = tuple(
                    y
                    for y in outs
                    if any(_oriented_possible(b, ci, (x_m, y_m), (x, y)) for x in reach)
                )
                chain.append(
                    {
                        "context_index": ci + 1,
                        "context": [x_m, y_m],
                        "reachable_in": list(reach),
                        "forbidden": [[x, y] for x in reach for y in outs if y not in image],
                        "reachable_out": list(image),
                    }
                )
                reach = image
            if a not in reach:
                return {
                    "base_context_index": base_ci + 1,
                    "base_context": [u, v],
                    "witness": [a, b_out],
                    "chain": chain,
                }
    return None


def ref_cycle_paradox(b: AnyBehavior):
    """The cycle detector's certificate dict: bases in stored context order."""
    walk = cycle_walk(b.scenario)
    return ref_scan_walk(b, walk, sorted(range(len(walk)), key=lambda p: walk[p][0]))


def ref_simple_scenario_paradox(b: AnyBehavior, cycles):
    """The simple-scenario detector's dict: each chordless cycle in the given
    order, walked and based in its own measurement order."""
    by_set = {frozenset(c): i for i, c in enumerate(b.scenario.contexts)}
    for cycle in cycles:
        pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
        walk = tuple((by_set[frozenset(uv)], uv) for uv in pairs)
        cert = ref_scan_walk(b, walk, range(len(walk)))
        if cert is not None:
            return {"cycle": list(cycle), **cert}
    return None


def ref_chen_paradox(b: AnyBehavior):
    """The order paradox on a 4-cycle with equal outcome counts, label by
    label, as a ChenParadox.to_json_dict() dict or None: the first base (walk
    order) whose first possible increasing pair meets no possible decreasing
    pair in the next three contexts."""
    s = b.scenario
    walk = cycle_walk(s)

    def ordered_pairs(p: int, increasing: bool):
        ci, (u, v) = walk[p]
        for xi, x in enumerate(s.outcomes[u]):
            for yi, y in enumerate(s.outcomes[v]):
                if (xi < yi) if increasing else (xi > yi):
                    yield ci, (u, v), (x, y)

    for p in range(4):
        witness = next(
            (pair for ci, uv, pair in ordered_pairs(p, True) if _oriented_possible(b, ci, uv, pair)),
            None,
        )
        if witness is None:
            continue
        if any(
            _oriented_possible(b, ci, uv, pair)
            for q in (1, 2, 3)
            for ci, uv, pair in ordered_pairs((p + q) % 4, False)
        ):
            continue
        return {"base_context_index": walk[p][0] + 1, "witness_pair": list(witness)}
    return None


def ref_marginal(b: AnyBehavior, ci: int, shared, joint):
    """Marginal of context ci on the shared measurements: OR of possible
    cells for possibilistic tables, exact sum for probabilistic ones."""
    s = b.scenario
    c = s.contexts[ci]
    total = False if isinstance(b, PossibilisticBehavior) else Fraction(0)
    for k, cell in enumerate(itertools.product(*(s.outcomes[m] for m in c))):
        if all(cell[c.index(m)] == o for m, o in zip(shared, joint)):
            p = b.tables[ci][k]
            total = (total or bool(p)) if isinstance(total, bool) else total + p
    return total


def ref_nd_violation(b: AnyBehavior):
    """First disagreement (i, j, shared, joint, value_i, value_j) between two
    contexts' marginals on their shared measurements, or None. Pairs run in
    stored order, shared in context i's order, joints lexicographically."""
    s = b.scenario
    for i, j in itertools.combinations(range(len(s.contexts)), 2):
        shared = tuple(m for m in s.contexts[i] if m in s.contexts[j])
        for joint in itertools.product(*(s.outcomes[m] for m in shared)) if shared else ():
            va, vb = ref_marginal(b, i, shared, joint), ref_marginal(b, j, shared, joint)
            if va != vb:
                return i, j, shared, joint, va, vb
    return None


def ref_maximize(c, rows, rhs):
    """Dense Fraction tableau simplex with Bland's rule: max c.x over
    {A x <= b, x >= 0}, b >= 0. The reference for `simplex.maximize`, which
    must return the same (value, x) or raise the same exception."""
    nvars = len(c)
    m = len(rows)
    if len(rhs) != m:
        raise ValueError(f"{m} rows but {len(rhs)} right-hand sides")
    for b_i in rhs:
        if b_i < 0:
            raise ValueError(f"negative right-hand side {b_i}; all-slack start needs b >= 0")
    zero, one = Fraction(0), Fraction(1)
    tableau = []
    for i, row in enumerate(rows):
        if len(row) != nvars:
            raise ValueError(f"row {i} has {len(row)} entries, expected {nvars}")
        t = [Fraction(a) for a in row] + [zero] * m + [Fraction(rhs[i])]
        t[nvars + i] = one
        tableau.append(t)
    # obj[j] is the reduced cost of column j; obj[-1] tracks -objective.
    obj = [Fraction(a) for a in c] + [zero] * (m + 1)
    basis = list(range(nvars, nvars + m))

    while True:
        enter = next((j for j in range(nvars + m) if obj[j] > 0), None)
        if enter is None:
            break
        leave_row = None
        best_ratio = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave_row])
                ):
                    best_ratio = ratio
                    leave_row = i
        if leave_row is None:
            raise ArithmeticError("LP is unbounded")
        piv_row = tableau[leave_row]
        piv = piv_row[enter]
        if piv != 1:
            tableau[leave_row] = piv_row = [a / piv for a in piv_row]
        for i in range(m):
            if i != leave_row and tableau[i][enter] != 0:
                f = tableau[i][enter]
                row_i = tableau[i]
                tableau[i] = [a - f * p for a, p in zip(row_i, piv_row)]
        f = obj[enter]
        if f != 0:
            obj = [a - f * p for a, p in zip(obj, piv_row)]
        basis[leave_row] = enter

    x = [zero] * nvars
    for i, bv in enumerate(basis):
        if bv < nvars:
            x[bv] = tableau[i][-1]
    return -obj[-1], x
