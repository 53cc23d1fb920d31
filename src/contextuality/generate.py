"""Random scenarios and behaviors for sweeps and property tests.

Every generator takes an explicit random.Random so draws are reproducible
from a seed. The probabilistic generators work in exact rationals and
produce behaviors that satisfy their advertised invariant by construction:

* random_pnd: possibilistically nondisturbing, and complete in the sense
  that every such behavior on a pairwise scenario can be drawn (possible
  sets per measurement, then a relation per context with full projections).
* random_nd_coupling: nondisturbing, by giving each measurement one fixed
  marginal and each context a mixture of transportation-plan vertices of
  those marginals.
* random_nd_mixture: a convex mixture of deterministic behaviors (always
  noncontextual), optionally with an extremal-box component on dichotomic
  cycles to push the mixture outside the classical polytope.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping

from .behavior import Behavior, PossibilisticBehavior, joint_outcomes
from .errors import InvalidArgument, require_ints
from .paradox import pr_box_behavior
from .scenario import Scenario, require_pairs, traverse_cycle


# -- possibilistic -------------------------------------------------------------


def random_pnd(s: Scenario, rng: random.Random) -> PossibilisticBehavior:
    """Draw a possibilistically nondisturbing behavior on a pairwise scenario.

    Each measurement gets a nonempty possible set (the full outcome set with
    probability 0.7, otherwise a uniform nonempty subset), and each context a
    random relation between the two possible sets whose projections are full,
    so Boolean marginals agree across contexts by construction. Rejection
    sampling fixes relations with a missing row or column, falling back to
    the full rectangle after 50 tries.
    """
    require_pairs(s)
    possible: dict[str, tuple[str, ...]] = {}
    for m in s.measurements:
        labels = s.outcomes[m]
        if rng.random() < 0.7:
            possible[m] = labels
        else:
            kept = set(rng.sample(labels, rng.randint(1, len(labels))))
            possible[m] = tuple(x for x in labels if x in kept)
    tables = []
    for u, v in s.contexts:
        vu, vv = possible[u], possible[v]
        chosen: set[tuple[str, str]] | None = None
        for _ in range(50):
            rel = {(x, y) for x in vu for y in vv if rng.random() < 0.5}
            if {x for x, _ in rel} == set(vu) and {y for _, y in rel} == set(vv):
                chosen = rel
                break
        if chosen is None:
            chosen = {(x, y) for x in vu for y in vv}
        tables.append(tuple(cell in chosen for cell in joint_outcomes(s, (u, v))))
    return PossibilisticBehavior(s, tuple(tables))


# -- probabilistic, exact rationals --------------------------------------------


def _random_distribution(k: int, rng: random.Random) -> tuple[Fraction, ...]:
    weights = [rng.randint(0, 6) for _ in range(k)]
    if not any(weights):
        weights[rng.randrange(k)] = 1
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def _transport_vertex(
    qu: tuple[Fraction, ...], qv: tuple[Fraction, ...], rng: random.Random
) -> list[list[Fraction]]:
    """A random vertex of the transportation polytope with marginals qu, qv,
    via the northwest-corner rule on shuffled row and column orders."""
    rows = list(range(len(qu)))
    cols = list(range(len(qv)))
    rng.shuffle(rows)
    rng.shuffle(cols)
    supply = list(qu)
    demand = list(qv)
    table = [[Fraction(0)] * len(qv) for _ in range(len(qu))]
    ri = ci = 0
    while ri < len(rows) and ci < len(cols):
        i, j = rows[ri], cols[ci]
        moved = min(supply[i], demand[j])
        table[i][j] = moved
        supply[i] -= moved
        demand[j] -= moved
        if supply[i] == 0:
            ri += 1
        if demand[j] == 0:
            ci += 1
    return table


def random_nd_coupling(
    s: Scenario, rng: random.Random, max_components: int = 3
) -> Behavior:
    """Draw an exactly nondisturbing behavior on a pairwise scenario.

    One rational marginal per measurement; each context's table is a convex
    mixture of 1..max_components transportation-plan vertices of the two
    marginals, so every context reproduces the shared marginals exactly.

    :raises ValueError: if max_components is not an int or is below 1.
    """
    require_pairs(s)
    require_ints(max_components=max_components)
    if max_components < 1:
        raise InvalidArgument(f"max_components must be at least 1, got {max_components}")
    q = {m: _random_distribution(len(s.outcomes[m]), rng) for m in s.measurements}
    tables = []
    for u, v in s.contexts:
        parts = rng.randint(1, max_components)
        weights = _random_distribution(parts, rng)
        cells = [Fraction(0)] * (len(q[u]) * len(q[v]))
        for w in weights:
            vertex = _transport_vertex(q[u], q[v], rng)
            cells = [p + w * x for p, x in zip(cells, (x for row in vertex for x in row))]
        tables.append(tuple(cells))
    return Behavior(s, tuple(tables))


def deterministic_behavior(s: Scenario, assignment: Mapping[str, str]) -> Behavior:
    """The behavior that outputs assignment[m] for every measurement, surely."""
    for m in s.measurements:
        if m not in assignment:
            raise InvalidArgument(f"assignment is missing measurement {m!r}")
        if assignment[m] not in s.outcomes[m]:
            raise InvalidArgument(f"{assignment[m]!r} is not an outcome of {m!r}")
    tables = []
    for c in s.contexts:
        target = tuple(assignment[m] for m in c)
        tables.append(tuple(Fraction(1 if cell == target else 0) for cell in joint_outcomes(s, c)))
    return Behavior(s, tuple(tables))


def random_nd_mixture(
    s: Scenario,
    rng: random.Random,
    components: int | None = None,
    include_pr: bool = False,
) -> Behavior:
    """A random convex mixture of deterministic behaviors, so noncontextual
    by construction; with include_pr an extremal-box component on a
    dichotomic cycle is mixed in, which can leave the classical polytope.

    :raises ValueError: if components is not an int, is negative, or is 0 without include_pr.
    """
    least = 0 if include_pr else 1
    components = rng.randint(2, 5) if components is None else components
    require_ints(components=components)
    if components < least:
        raise InvalidArgument(f"components must be at least {least}, got {components}")
    parts = []  # per component, each context's possible cells
    for _ in range(components):
        a = {m: rng.choice(s.outcomes[m]) for m in s.measurements}
        parts.append([[cell == tuple(map(a.get, c)) for cell in joint_outcomes(s, c)] for c in s.contexts])
    if include_pr:
        flip = rng.randint(1, len(s.contexts))
        cycle_order = tuple(pair[0] for _, pair in traverse_cycle(s))
        parts.append(pr_box_behavior(s, flip, tuple(rng.choice(s.outcomes[m]) for m in cycle_order)).tables)
    weights = _random_distribution(len(parts), rng)
    tables = [[Fraction(0)] * s.context_cells(ci) for ci in range(len(s.contexts))]
    for w, part in zip(weights, parts):
        # uniform weight on each possible cell: a point mass, or the standard extremal box
        for table, possible in zip(tables, part):
            share = w / sum(possible)
            table[:] = [p + share if x else p for p, x in zip(table, possible)]
    return Behavior(s, tuple(map(tuple, tables)))


# -- scenarios -----------------------------------------------------------------


def random_tree_scenario(rng: random.Random) -> Scenario:
    """A random acyclic pairwise scenario: 2..8 measurements joined into a
    uniform random tree. Small trees may get a three-outcome measurement;
    larger ones stay dichotomic to keep downstream enumeration cheap."""
    n = rng.randint(2, 8)
    names = tuple(f"M{i + 1}" for i in range(n))
    allow_three = n <= 5
    outcomes = {}
    for m in names:
        k = 3 if allow_three and rng.random() < 0.3 else 2
        outcomes[m] = tuple(str(i) for i in range(k))
    contexts = tuple((names[rng.randrange(i)], names[i]) for i in range(1, n))
    return Scenario(names, outcomes, contexts)
