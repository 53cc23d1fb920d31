"""Named example behaviors on small cycles.

The first three live on the bipartite 4-cycle {A1,B1},{B1,A2},{A2,B2},
{B2,A1} and step up the possibilistic hierarchy: "bell" supports a global
assignment through every possible joint outcome (not logically
contextual), "hardy" has one possible joint outcome that extends to no
global assignment (logically contextual), and "pr-box" has an empty
global support (strongly contextual). "cabello5" and "hardy4" are
quantum-built cycle behaviors with paradox probability exactly 1/9 (a
5-cycle at a particularly symmetric parameter point) and the optimal
4-cycle value.

bell and pr-box put uniform weights on their possible outcomes, the
minimal probabilistic completion of the possibility patterns. For hardy a
uniform completion would disturb, so its table is one exactly
nondisturbing completion of the same pattern; the probabilities are
otherwise unremarkable. Each behavior's metadata records its completion.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .behavior import Behavior
from .errors import InvalidArgument, shown
from .quantum import EvenCycleParams, OddCycleParams, build_even_cycle, build_odd_cycle, optimize_gamma
from .scenario import Scenario

F = Fraction

FOUR_CYCLE = Scenario(
    ("A1", "B1", "A2", "B2"),
    {m: ("0", "1") for m in ("A1", "B1", "A2", "B2")},
    (("A1", "B1"), ("B1", "A2"), ("A2", "B2"), ("B2", "A1")),
)


def bell_behavior() -> Behavior:
    """Perfect correlation in one context, uniform noise in the rest."""
    q = F(1, 4)
    tables = (
        (F(1, 2), F(0), F(0), F(1, 2)),
        (q, q, q, q),
        (q, q, q, q),
        (q, q, q, q),
    )
    return Behavior(
        FOUR_CYCLE, tables, metadata={"name": "bell", "completion": "uniform on possibles"}
    )


def hardy_behavior() -> Behavior:
    """A logically contextual table: (A1,B1)=(1,1) is possible but extends
    to no global assignment. Exactly nondisturbing by construction."""
    tables = (
        (F(7, 16), F(7, 16), F(1, 16), F(1, 16)),
        (F(3, 8), F(1, 8), F(0), F(1, 2)),
        (F(1, 8), F(1, 4), F(5, 8), F(0)),
        (F(3, 4), F(0), F(1, 8), F(1, 8)),
    )
    return Behavior(
        FOUR_CYCLE,
        tables,
        metadata={
            "name": "hardy",
            "completion": "nondisturbing completion (uniform would disturb)",
        },
    )


def pr_box_fixture() -> Behavior:
    """The extremal box: perfectly correlated in three contexts and
    anticorrelated in the fourth; strongly contextual."""
    e = (F(1, 2), F(0), F(0), F(1, 2))
    n = (F(0), F(1, 2), F(1, 2), F(0))
    return Behavior(
        FOUR_CYCLE,
        (e, e, e, n),
        metadata={"name": "pr-box", "completion": "uniform on possibles"},
    )


def cabello5_behavior() -> Behavior:
    """The 5-cycle quantum behavior at the symmetric parameter point where
    the paradox probability is exactly 1/9."""
    r3, r2 = math.sqrt(3), math.sqrt(2)
    params = OddCycleParams(
        5, (1 / r3, 1 / r3, 1 / r3), (1 / r2, 1 / r2, 0.0), (math.pi / 4,)
    )
    _, behavior = build_odd_cycle(params)
    return behavior


def hardy4_behavior() -> Behavior:
    """The 4-cycle quantum behavior at the Schmidt angle maximizing the
    paradox probability (value (5*sqrt(5)-11)/2)."""
    result = optimize_gamma(4)
    _, behavior = build_even_cycle(result.params)
    return behavior


FIXTURES = {
    "bell": bell_behavior,
    "hardy": hardy_behavior,
    "pr-box": pr_box_fixture,
    "cabello5": cabello5_behavior,
    "hardy4": hardy4_behavior,
}


def fixture(name: str) -> Behavior:
    """Look up a named fixture.

    :raises InvalidArgument: for unknown names (the message lists valid ones
        and echoes the name cut by errors.shown).
    """
    if name not in FIXTURES:
        raise InvalidArgument(f"unknown fixture {shown(name)}; valid names: {', '.join(sorted(FIXTURES))}")
    return FIXTURES[name]()
