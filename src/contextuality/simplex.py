"""Exact simplex for the small LPs behind the classical tests.

Solves  max c.x  subject to  A x <= b, x >= 0  with rational entries and
every b_i >= 0, so the all-slack basis is feasible and no phase-1 is
needed. Bland's smallest-label rule (label n+i is row i's slack) ends it.

Pivots are integer-preserving (Edmonds 1967; Bareiss 1968) on the lrs
dictionary: rows and c are scaled to ints by their lcm, the rational tableau
is T/d with d the last pivot, and only nonbasic columns are stored, since a
basic one is d*e_r. A row's level is the d when it was last written (the
row at d is T[i]*d // level[i]). Pivoting on p = T[r][s], row r brought up
to d, sets each row with f = T[i][s] != 0 to (T[i]*p - f*T[r]) // level[i]
at level p (Sylvester), with -(f*d // level[i]) on the leaving column d*e_r,
which column s then holds; row r, at level p, gets d there, and a row with
f == 0 is left alone. So every entry is the full tableau's (slacks starting
as the identity) times a positive constant per row, and the pivots are the
rational tableau's: scaling a row, c or a slack column by a positive
constant changes no reduced cost's sign and no cross-multiplied ratio test.
x_i is T[i][-1] / level[i]. Rows may arrive prescaled, as classical._lp's do.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def _scaled(values) -> tuple[list[int], int]:
    """values times the lcm of their denominators (1 for ints), as ints, and that lcm."""
    if all(type(a) is int for a in values):
        return list(values), 1
    values = [a if type(a) is int else Fraction(a) for a in values]
    scale = math.lcm(*{a.denominator for a in values})
    return [a.numerator * (scale // a.denominator) for a in values], scale


def maximize(
    c: Sequence[Fraction], rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[Fraction, list[Fraction]]:
    """Maximize c.x over {A x <= b, x >= 0} exactly, given c, the rows of A
    and b >= 0. Returns (value, x): the optimum and one optimal point.

    :raises ValueError: if some rhs entry is negative or a row length is off.
    :raises ArithmeticError: if the LP is unbounded (never the case for the
        probability polytopes this package builds).
    """
    nvars = len(c)
    m = len(rows)
    if len(rhs) != m:
        raise ValueError(f"{m} rows but {len(rhs)} right-hand sides")
    for b_i in rhs:
        if b_i < 0:
            raise ValueError(f"negative right-hand side {b_i}; all-slack start needs b >= 0")
    tableau: list[list[int]] = []
    for i, row in enumerate(rows):
        if len(row) != nvars:
            raise ValueError(f"row {i} has {len(row)} entries, expected {nvars}")
        tableau.append(_scaled([*row, rhs[i]])[0])
    # The last row holds the reduced costs, then -objective, times c_scale.
    obj, c_scale = _scaled(c)
    tableau.append(obj + [0])
    nonbasic, basis = list(range(nvars)), list(range(nvars, nvars + m))
    d = 1
    level = [1] * (m + 1)  # the d current when each row was last written

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
                tableau[i] = [(a * p - f * b) // level[i] for a, b in zip(row, piv_row)]
                tableau[i][s] = -(f * d // level[i])
                level[i] = p
        piv_row[s] = d
        level[r] = p
        nonbasic[s], basis[r] = basis[r], nonbasic[s]
        d = p

    x = [Fraction(0)] * nvars
    for i, bv in enumerate(basis):
        if bv < nvars:
            x[bv] = Fraction(tableau[i][-1], level[i])
    return Fraction(-tableau[m][-1], level[m] * c_scale), x
