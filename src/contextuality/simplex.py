"""Exact simplex for the small LPs behind the classical tests.

Solves  max c.x  subject to  A x <= b, x >= 0  with rational entries and
every b_i >= 0, so the all-slack basis is feasible and no phase-1 is
needed. Bland's smallest-index rule guarantees termination.

Pivoting is integer-preserving (Edmonds 1967; Bareiss 1968). Each row with its
right-hand side, and c, is scaled to ints by the lcm of its denominators;
slack columns stay the identity. The rational tableau is T/d with d the last
pivot, a positive int (|basis determinant|). Pivoting on p = T[r][s] keeps
row r and sets every other row, the objective too, to
(T[i]*p - T[i][s]*T[r]) // d, exact by Sylvester's identity. These are the
rational tableau's pivots: row scaling leaves that tableau unchanged, and
scaling c or a slack column by a positive constant changes no reduced cost's
sign and no ratio test, which cross-multiplies with the same tie-break.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def _scaled(values) -> tuple[list[int], int]:
    """values times the lcm of their denominators, as ints, and that lcm."""
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
        t = _scaled([*row, rhs[i]])[0]
        t[nvars:nvars] = [int(k == i) for k in range(m)]
        tableau.append(t)
    # The last row holds the reduced costs, then -objective, times c_scale.
    obj, c_scale = _scaled(c)
    tableau.append(obj + [0] * (m + 1))
    basis = list(range(nvars, nvars + m))
    d = 1

    while True:
        s = next((j for j in range(nvars + m) if tableau[m][j] > 0), None)
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
        p = piv_row[s]
        for i, row in enumerate(tableau):
            f = row[s]
            if f and i != r:
                tableau[i] = [(a * p - f * b) // d for a, b in zip(row, piv_row)]
            elif not f and p != d:
                tableau[i] = [a * p // d for a in row]
        basis[r] = s
        d = p

    x = [Fraction(0)] * nvars
    for i, bv in enumerate(basis):
        if bv < nvars:
            x[bv] = Fraction(tableau[i][-1], d)
    return Fraction(-tableau[m][-1], d * c_scale), x
