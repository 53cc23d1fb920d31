"""Correlator inequalities on dichotomic cycles.

For an n-cycle with two-outcome measurements, each context i has a
correlator E_i = p_i(0,0) + p_i(1,1) - p_i(0,1) - p_i(1,0), and the
classical polytope is cut out by the family

    sum_i g_i E_i <= n - 2,   g_i = +-1 with an odd number of -1 entries.

The family is complete for nondisturbing dichotomic cycles: a behavior is
noncontextual exactly when every member holds (Araujo et al., PRA 88,
022118, 2013), and its largest left side has a closed form, tight_member.
Every E_i is read by one integer rule over one common scale, which keeps
every sign and tie: correlator, evaluate and evaluate_all each make one
Fraction, and classical decides nc on dichotomic cycles with the same sum
in place of the LP. The maximal quantum value has a known closed form in n
as well (the n=4 case is Tsirelson's 2*sqrt(2)); near it, a Chebyshev
sign decides violates_quantum exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .behavior import Behavior, require_nondisturbing, require_probabilistic
from .errors import InvalidArgument, require_ints, shown
from .scenario import require_dichotomic, traverse_cycle


@dataclass(frozen=True)
class NcycleInequality:
    """One member of the family: a sign per context, odd count of -1."""

    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(g not in (-1, 1) for g in self.signs):
            raise InvalidArgument(f"signs must be +1 or -1, got {shown(self.signs)}")
        object.__setattr__(self, "signs", tuple(int(g) for g in self.signs))
        if len(self.signs) < 3:
            raise InvalidArgument(f"need at least 3 contexts, got {len(self.signs)}")
        if self.signs.count(-1) % 2 == 0:
            raise InvalidArgument("the number of -1 signs must be odd")

    @property
    def classical_bound(self) -> int:
        return len(self.signs) - 2


def correlator(b: Behavior, i: int) -> Fraction:
    """E_i of the 1-based stored context i: p(equal) - p(different).

    Exact, and independent of the stored measurement order of the context.

    :raises ValueError: if i is not an int in range or context i is not a pair.
    :raises NonDichotomic: if either measurement has more than 2 outcomes.
    :raises InvalidBehavior: if b is a PossibilisticBehavior.
    """
    require_probabilistic(b)
    s = b.scenario
    if not isinstance(i, int) or not 1 <= i <= len(s.contexts):
        raise InvalidArgument(f"context index must be an int in 1..{len(s.contexts)}, got {shown(i)}")
    c = s.contexts[i - 1]
    if len(c) != 2:
        raise InvalidArgument(f"context {c} has {len(c)} measurements, need exactly 2")
    require_dichotomic(s, c)
    (e,), scale = _correlators(b._ints[i - 1 : i])
    return Fraction(e, scale)


def evaluate(b: Behavior, ineq: NcycleInequality) -> Fraction:
    """Exact value of sum_i signs[i] * E_i on a dichotomic cycle behavior.

    :raises NotCycle: if the scenario is not a single cycle.
    :raises InvalidBehavior: if b is a PossibilisticBehavior.
    :raises NonDichotomic: as evaluate_all.
    """
    s = b.scenario
    traverse_cycle(s)
    if len(ineq.signs) != len(s.contexts):
        raise InvalidArgument(f"inequality has {len(ineq.signs)} signs for {len(s.contexts)} contexts")
    require_probabilistic(b)
    require_dichotomic(s, (m for c in s.contexts for m in c))
    corr, scale = _correlators(b._ints)
    return Fraction(sum(g * e for g, e in zip(ineq.signs, corr)), scale)


def quantum_bound(n: int) -> float:
    """Largest quantum value of the family's left side on the n-cycle."""
    require_ints(n=n)
    if n < 3:
        raise InvalidArgument(f"need n >= 3, got {n}")
    c = math.cos(math.pi / n)
    if n % 2 == 1:
        return (3 * n * c - n) / (1 + c)
    return n * c


def _beats_quantum(v: Fraction, n: int, qb: float) -> bool:
    """v > quantum_bound(n) = qb: in floats past 1e-9 from qb (far above its
    float error for n < 10^6), else exactly: iff r > cos(pi/n), r = v/n for
    even n and (v + n)/(3n - v) for odd n, iff (on (cos(2pi/n), 1]) the
    Chebyshev U_{n-1}(r) > 0; with r = a/q, V_k = U_k(r) q^k = 2a V_{k-1} - q^2 V_{k-2}."""
    if abs(float(v) - qb) > 1e-9:
        return float(v) > qb
    r = v / n if n % 2 == 0 else (v + n) / (3 * n - v)
    a, q = r.numerator, r.denominator
    before, u = 1, 2 * a
    for _ in range(n - 2):
        before, u = u, 2 * a * u - q * q * before
    return u > 0


@dataclass(frozen=True)
class ViolationReport:
    """The tight family member for one behavior and how far it reaches."""

    max_value: Fraction
    signs: tuple[int, ...]
    classical_bound: int
    quantum_bound: float
    violates_classical: bool
    violates_quantum: bool

    def to_json_dict(self) -> dict:
        return {
            "max_value": str(self.max_value),
            "max_value_float": float(self.max_value),
            "signs": list(self.signs),
            "classical_bound": self.classical_bound,
            "quantum_bound": self.quantum_bound,
            "violates_classical": self.violates_classical,
            "violates_quantum": self.violates_quantum,
        }


def _correlators(ints) -> tuple[list[int], int]:
    """Each E_i as an integer over one common scale, and that scale, given
    dichotomic pair tables as integer views (numerators over each table's
    lcm d, and d; Behavior._ints): with p_i(0,0) = a/d and p_i(1,1) = c/d,
    E_i * scale = (2 (a + c) - d) scale/d, scale the lcm of the d's."""
    scale = math.lcm(*{den for _, den in ints})
    return [(2 * (nums[0] + nums[3]) - den) * (scale // den) for nums, den in ints], scale


def tight_member(ints) -> tuple[int, int, list[int]]:
    """(value, scale, signs) of the family member with the largest left side
    on a dichotomic cycle, given its behavior's integer view (Behavior._ints)
    in stored context order; the left side is value / scale.

    With free signs the maximum of sum g_i E_i is sum |E_i|, reached at
    g_i = sign(E_i). If that sign vector has an even number of -1 entries,
    the cheapest repair is flipping the sign at the smallest |E_i| (first
    such index on ties), costing 2|E_i|; no valid vector does better.
    """
    corr, scale = _correlators(ints)
    size = list(map(abs, corr))
    signs = [1 if e >= 0 else -1 for e in corr]
    value = sum(size)
    if signs.count(-1) % 2 == 0:
        weakest = size.index(min(size))
        signs[weakest] = -signs[weakest]
        value -= 2 * size[weakest]
    return value, scale, signs


def evaluate_all(b: Behavior) -> ViolationReport:
    """Maximize over the whole family in closed form (see tight_member).

    :raises NotCycle: if the scenario is not a single cycle.
    :raises NotNondisturbing: if the behavior disturbs.
    :raises InvalidBehavior: if b is a PossibilisticBehavior.
    :raises NonDichotomic: at the first measurement, in stored context
        order, without exactly two outcomes.
    """
    s = b.scenario
    traverse_cycle(s)
    require_nondisturbing(b)
    require_probabilistic(b)
    require_dichotomic(s, (m for c in s.contexts for m in c))
    n = len(s.contexts)
    value, scale, signs = tight_member(b._ints)
    max_value = Fraction(value, scale)
    qb = quantum_bound(n)
    return ViolationReport(
        max_value=max_value,
        signs=tuple(signs),
        classical_bound=n - 2,
        quantum_bound=qb,
        violates_classical=value > (n - 2) * scale,
        violates_quantum=_beats_quantum(max_value, n, qb),
    )
