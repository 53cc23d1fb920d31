"""Possibilistic paradoxes: certificate-producing detectors and the PR-box
classification of strong contextuality.

A possibilistic paradox on a cycle is one possible joint outcome (a, b)
together with impossibility facts around the cycle that forbid every global
assignment extending it. The detectors find such paradoxes by reachable-set
propagation: starting from {b}, push the set of attainable outcomes through
each context's possibility relation; a paradox exists exactly when a is not
reachable after going all the way around. One index-level kernel does this
for every detector. It reads each oriented context of the walk as per-row
bitmasks, a relation whose composition with another is an OR of the rows
each reachable set selects. Suffix products (each position to the end of the
walk) and prefix products (the start to each position) are built once, so
the walk around after any base is one composition of a suffix and a prefix,
O(l^2) row ORs: a whole walk costs O(n l^2), linear in n. Only the hit is
turned into labels: its chain records each impossibility used, so every
certificate can be re-validated directly against the tables with no trust in
the detector. Equal chain steps are one shared immutable object.

On dichotomic simple scenarios, scanning the chordless cycles of the
compatibility graph, each in place on the scenario's own tables, decides
logical contextuality outright; on dichotomic cycles, strong contextuality
holds exactly for the PR-box-like tables (one odd-parity family of
two-element complement-closed rows), which is what
classify_strong_contextuality recognizes.

All context indices in certificates and classifications are 1-based
positions into the scenario's stored context list.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .behavior import AnyBehavior, PossibilisticBehavior, collapse, require_nondisturbing
from .errors import ContextualityError, InvalidArgument, WrongScenarioShape, shown
from .scenario import Scenario, _chordless, require_dichotomic, require_pairs, traverse_cycle


@dataclass(frozen=True)
class ChainStep:
    """One propagation step of a paradox certificate.

    The step's context is the oriented pair (u, v) at 1-based stored index
    context_index. Any extension of the witness must give u a value in
    reachable_in; every pair in forbidden (= reachable_in x complement of
    reachable_out) is impossible in this context, so v's value is confined
    to reachable_out.
    """

    context_index: int
    context: tuple[str, str]
    reachable_in: tuple[str, ...]
    forbidden: tuple[tuple[str, str], ...]
    reachable_out: tuple[str, ...]


@dataclass(frozen=True)
class ParadoxCertificate:
    """A possibilistic paradox: a possible pair that cannot close its cycle.

    witness_pair = (a, b) is possible in base_context (oriented as stored
    here); the chain's n-1 steps walk the remaining contexts once around,
    and a is not in the last reachable set, so no global assignment gives
    the base context the value (a, b). The forbidden sets realize the
    partition form of the general-outcome paradox; for dichotomic cycles
    each step forbids exactly the single chain pair of the two-outcome form.
    """

    base_context_index: int
    base_context: tuple[str, str]
    witness_pair: tuple[str, str]
    chain: tuple[ChainStep, ...]

    def to_json_dict(self) -> dict:
        return {
            "base_context_index": self.base_context_index,
            "base_context": list(self.base_context),
            "witness": list(self.witness_pair),
            "chain": [
                {
                    "context_index": st.context_index,
                    "context": list(st.context),
                    "reachable_in": list(st.reachable_in),
                    "forbidden": [list(p) for p in st.forbidden],
                    "reachable_out": list(st.reachable_out),
                }
                for st in self.chain
            ],
        }


def _as_possibilistic(b: AnyBehavior) -> PossibilisticBehavior:
    return b if isinstance(b, PossibilisticBehavior) else collapse(b)


def _oriented_possible(
    pb: PossibilisticBehavior, stored_index: int, pair: tuple[str, str], labels: tuple[str, str]
) -> bool:
    """Possibility of (u, v) = labels where pair may reverse the stored order."""
    return pb.is_possible(stored_index, labels if pb.scenario.contexts[stored_index] == pair else labels[::-1])


def verify_certificate(b: AnyBehavior, cert: ParadoxCertificate) -> bool:
    """Re-validate a certificate directly against the tables.

    Checks, using nothing but the behavior and the certificate's own data:
    the witness pair is possible; the chain walks the base context's cycle
    once; each step's forbidden set is exactly reachable_in x (outcomes
    minus reachable_out) and every listed pair is impossible; consecutive
    reachable sets agree; and the witness's first outcome is missing from
    the final reachable set. Those facts alone force the paradox.
    """
    pb = _as_possibilistic(b)
    s = pb.scenario
    by_set = {frozenset(c): i for i, c in enumerate(s.contexts)}

    def stored(pair: tuple[str, str]) -> int | None:
        try:
            return by_set.get(frozenset(pair))
        except TypeError:  # an unhashable label, such as a list
            return None

    base = stored(cert.base_context)
    if base is None or base + 1 != cert.base_context_index or len(cert.base_context) != 2:
        return False
    if len(cert.witness_pair) != 2 or any(
        o not in s.outcomes[m] for m, o in zip(cert.base_context, cert.witness_pair)
    ):
        return False
    if not _oriented_possible(pb, base, cert.base_context, cert.witness_pair):
        return False
    a, b_out = cert.witness_pair
    # Any closed walk through distinct contexts is sound; its length need not
    # relate to the full context count (the walk may cover one cycle of a
    # larger scenario).
    prev_vertex = cert.base_context[1]
    prev_reach: tuple[str, ...] = (b_out,)
    seen = {base}
    for st in cert.chain:
        ci = stored(st.context)
        if ci is None or ci + 1 != st.context_index or ci in seen or len(st.context) != 2:
            return False
        seen.add(ci)
        u, v = st.context
        if u != prev_vertex or tuple(st.reachable_in) != prev_reach:
            return False
        try:
            out_set, forbidden = set(st.reachable_out), set(st.forbidden)
        except TypeError:  # a label or pair given as a list, as to_json_dict writes pairs
            return False
        if not out_set <= set(s.outcomes[v]):
            return False
        if forbidden != {(x, y) for x in st.reachable_in for y in s.outcomes[v] if y not in out_set}:
            return False
        for x, y in st.forbidden:
            if _oriented_possible(pb, ci, st.context, (x, y)):
                return False
        prev_vertex = v
        prev_reach = tuple(st.reachable_out)
    if prev_vertex != cert.base_context[0]:
        return False
    return a not in prev_reach


def _scan_walk(pb: PossibilisticBehavior, walk: tuple, bases) -> ParadoxCertificate | None:
    """Reachable-set scan of one closed walk through distinct pair contexts.

    walk lists (stored context index, (u, v)) in walk order and orientation;
    bases are walk positions, tried in the given order, and witness pairs
    run lexicographically in the walk's orientation. The first paradox found
    is returned. Assumes pb is possibilistically ND.
    """
    s = pb.scenario
    n = len(walk)
    rows = _walk_rows(pb, walk)
    # suffix[k] composes walk positions k..n-1 and prefix[k] positions 0..k-1,
    # so the walk once around after base p is suffix[p + 1] then prefix[p].
    # Prefixes are built only as far as the bases tried need them.
    suffix = [None] * n + [[1 << x for x in range(len(rows[0]))]]  # suffix[n]: the identity
    for j in range(n - 1, 0, -1):
        suffix[j] = _compose(rows[j], suffix[j + 1])
    prefix = [suffix[n]]
    for p in bases:
        while len(prefix) <= p:
            prefix.append(_compose(prefix[-1], rows[len(prefix) - 1]))
        around = _compose(suffix[p + 1], prefix[p])  # b -> the a reachable back from b
        ci, (u, v) = walk[p]
        cols = _rows(pb.tables[ci], s.contexts[ci] != (u, v), len(s.outcomes[v]))  # b -> a with (a, b) possible
        # miss[b]: the a with (a, b) possible that the walk around from b misses;
        # the first witness in (a, b) order has the smallest such a
        miss = [col & ~reach for col, reach in zip(cols, around)]
        if any(miss):
            a = min((m & -m).bit_length() - 1 for m in miss if m)
            b_out = next(b for b, m in enumerate(miss) if m >> a & 1)
            return _certificate(pb, walk, rows, p, a, b_out)
    return None


def _walk_rows(pb: PossibilisticBehavior, walk: tuple) -> list[tuple[int, ...]]:
    """rows[p][x]: bitmask of the y with (u=x, v=y) possible at walk position p."""
    s = pb.scenario
    return [_rows(pb.tables[ci], s.contexts[ci] == uv, len(s.outcomes[uv[0]])) for ci, uv in walk]


def _rows(table: tuple[bool, ...], forward: bool, lu: int) -> tuple[int, ...]:
    """A pair table as per-row bitmasks over u's lu outcomes, stored as (u, v)
    when forward and as (v, u) otherwise. Tables of at most 64 cells are
    cached; the cache holds the tables it is keyed by, so larger ones are not."""
    return (_small_rows if len(table) <= 64 else _table_rows)(table, forward, lu)


def _table_rows(table: tuple[bool, ...], forward: bool, lu: int) -> tuple[int, ...]:
    lv = len(table) // lu
    sx, sy = (lv, 1) if forward else (1, lu)
    return tuple(sum(1 << y for y in range(lv) if table[x * sx + y * sy]) for x in range(lu))


_small_rows = lru_cache(maxsize=1024)(_table_rows)


def _compose(first, then) -> list[int]:
    """The relation first followed by then, both as per-row bitmasks: row x
    of the result is the OR of then's rows at the bits of first's row x."""
    out = []
    for reach in first:
        image = 0
        for ys in then:
            if reach & 1:
                image |= ys
            reach >>= 1
        out.append(image)
    return out


def _certificate(pb: PossibilisticBehavior, walk, rows, p, a, b_out) -> ParadoxCertificate:
    """Label the chain of the hit (a, b_out) at walk position p."""
    s = pb.scenario
    n = len(walk)
    base_ci, base_context = walk[p]
    u, v = base_context
    reach = 1 << b_out
    steps = []
    for j in range(p + 1, p + n):
        ci, (x_m, y_m) = walk[j % n]
        (image,) = _compose((reach,), rows[j % n])
        steps.append(_chain_step(ci + 1, (x_m, y_m), s.outcomes[x_m], s.outcomes[y_m], reach, image))
        reach = image
    return ParadoxCertificate(
        base_context_index=base_ci + 1,
        base_context=base_context,
        witness_pair=(s.outcomes[u][a], s.outcomes[v][b_out]),
        chain=tuple(steps),
    )


@lru_cache(maxsize=4096)
def _chain_step(
    context_index: int, context: tuple[str, str], ins: tuple[str, ...], outs: tuple[str, ...], reach: int, image: int
) -> ChainStep:
    """The step from the outcome set reach of ins to image of outs, labelled.

    Keyed by labels and masks only, so equal steps of different certificates
    are one immutable object."""
    reach_in = tuple(x for k, x in enumerate(ins) if reach >> k & 1)
    return ChainStep(
        context_index=context_index,
        context=context,
        reachable_in=reach_in,
        forbidden=tuple((x, y) for x in reach_in for k, y in enumerate(outs) if not image >> k & 1),
        reachable_out=tuple(y for k, y in enumerate(outs) if image >> k & 1),
    )


def detect_cycle_paradox(b: AnyBehavior) -> ParadoxCertificate | None:
    """Find a possibilistic paradox on a single-cycle scenario, any outcome
    count.

    Returns the first certificate in canonical order (base context index,
    then lexicographic witness pair), or None; None means the behavior is
    not logically contextual, because on cycles the reachability argument is
    exhaustive over possible pairs.

    :raises NotCycle: if the compatibility graph is not one single cycle.
    :raises NotPossibilisticallyND: if OR-marginals of overlapping contexts
        disagree.
    """
    pb = _as_possibilistic(b)
    walk = traverse_cycle(pb.scenario)
    require_nondisturbing(pb)
    return _scan_walk(pb, walk, sorted(range(len(walk)), key=lambda p: walk[p][0]))


@dataclass(frozen=True)
class SimpleScenarioParadox:
    """A paradox found on one chordless cycle of a simple scenario.

    The certificate's context indices refer to the original scenario's
    stored contexts, so it verifies directly against the behavior that was
    scanned; cycle records which chordless cycle carried the paradox.
    """

    certificate: ParadoxCertificate
    cycle: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {"cycle": list(self.cycle), **self.certificate.to_json_dict()}


def detect_simple_scenario_paradox(b: AnyBehavior) -> SimpleScenarioParadox | None:
    """Decide logical contextuality of a dichotomic simple scenario by
    scanning its chordless cycles.

    Scans each chordless cycle in canonical order, in place on the
    behavior's own tables: bases and orientation follow the cycle's
    measurement order, and the first hit is returned. None on acyclic
    scenarios (no cycles, hence never logically contextual) and on behaviors
    whose every cycle is paradox-free.

    :raises NonSimpleScenario: if some context is not a pair.
    :raises NonDichotomic: if some measurement has more than two outcomes
        (the cycle-scan reduction is only exhaustive for two).
    :raises NotPossibilisticallyND: if the behavior itself disturbs.
    """
    pb = _as_possibilistic(b)
    s = pb.scenario
    require_pairs(s)
    require_dichotomic(s)
    require_nondisturbing(pb)
    by_set = {frozenset(c): i for i, c in enumerate(s.contexts)}
    for cycle in _chordless(s):  # stops at the first hit
        # A possibilistically-ND behavior stays so on any subfamily of its
        # contexts, so each cycle is scanned in place with no recheck.
        pairs = zip(cycle, cycle[1:] + cycle[:1])
        walk = tuple((by_set[frozenset(uv)], uv) for uv in pairs)
        cert = _scan_walk(pb, walk, range(len(walk)))
        if cert is not None:
            return SimpleScenarioParadox(certificate=cert, cycle=cycle)
    return None


@dataclass(frozen=True)
class BellParadox:
    """A paradox on a bipartite Bell scenario, in Alice/Bob index form.

    The witness pair is possible in context {A_i, B_j} with Alice outcome a
    and Bob outcome b; the impossibility chain runs through A_m and B_l
    (i != m, j != l). certificate and cycle are the generic detector's
    output for the underlying 4-cycle.
    """

    i: int
    j: int
    m: int
    l: int
    alice_outcome: str
    bob_outcome: str
    certificate: ParadoxCertificate
    cycle: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "i": self.i,
            "j": self.j,
            "m": self.m,
            "l": self.l,
            "alice_outcome": self.alice_outcome,
            "bob_outcome": self.bob_outcome,
            "cycle": list(self.cycle),
            **self.certificate.to_json_dict(),
        }


def _bell_parts(s: Scenario) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split a complete-bipartite simple scenario into (Alice, Bob) parts.

    Bob's part is the neighbourhood of the first measurement and Alice's is
    every other measurement, so the first measurement is Alice's. Raises
    WrongScenarioShape unless the parts are equal with k >= 2 and the
    contexts are exactly the cross pairs, i.e. the compatibility graph is
    K_{k,k}.
    """
    require_pairs(s)
    first = s.measurements[0]
    neighbours = {m for c in s.contexts if first in c for m in c if m != first}
    alice = tuple(m for m in s.measurements if m not in neighbours)
    bob = tuple(m for m in s.measurements if m in neighbours)
    if len(alice) != len(bob) or len(alice) < 2:
        raise WrongScenarioShape(f"parts have sizes {len(alice)} and {len(bob)}, need equal k >= 2")
    if {frozenset(c) for c in s.contexts} != {frozenset((a, b)) for a in alice for b in bob}:
        raise WrongScenarioShape("compatibility graph is not K_{k,k}: contexts must be every Alice-Bob pair")
    return alice, bob


def detect_bell22_paradox(b: AnyBehavior) -> BellParadox | None:
    """The simple-scenario detector on a dichotomic bipartite Bell scenario,
    reported as Alice/Bob indices.

    :raises WrongScenarioShape: if the scenario is not complete-bipartite
        with equal parts, or some measurement is not dichotomic.
    """
    pb = _as_possibilistic(b)
    s = pb.scenario
    alice, bob = _bell_parts(s)
    hit = detect_simple_scenario_paradox(pb)
    if hit is None:
        return None
    cert, cycle = hit.certificate, hit.cycle
    u, v = cert.base_context
    a, b_out = cert.witness_pair
    others = [x for x in cycle if x not in (u, v)]
    if u in alice:
        i, j = alice.index(u) + 1, bob.index(v) + 1
        alice_out, bob_out = a, b_out
    else:
        j, i = bob.index(u) + 1, alice.index(v) + 1
        bob_out, alice_out = a, b_out
    m_idx = next(alice.index(x) + 1 for x in others if x in alice)
    l_idx = next(bob.index(x) + 1 for x in others if x in bob)
    return BellParadox(i, j, m_idx, l_idx, alice_out, bob_out, cert, cycle)


@dataclass(frozen=True)
class ChenParadox:
    """An order-based paradox on a 4-cycle with totally ordered outcomes.

    In the base context some strictly increasing pair is possible, while in
    the three following contexts (cycle order) every strictly decreasing
    pair is impossible; that forces logical contextuality. witness_pair is
    the first possible increasing pair of the base context.
    """

    base_context_index: int
    witness_pair: tuple[str, str]

    def to_json_dict(self) -> dict:
        return {
            "base_context_index": self.base_context_index,
            "witness_pair": list(self.witness_pair),
        }


def detect_chen_paradox(b: AnyBehavior) -> ChenParadox | None:
    """Look for the order paradox on a 4-cycle whose measurements share one
    totally ordered outcome set (order = position in the outcome tuple).

    :raises WrongScenarioShape: unless the scenario is a 4-cycle and all
        outcome tuples have equal length.
    """
    pb = _as_possibilistic(b)
    s = pb.scenario
    order = traverse_cycle(s)
    if len(order) != 4:
        raise WrongScenarioShape(f"need a 4-cycle, got {len(order)} contexts")
    sizes = {len(s.outcomes[m]) for m in s.measurements}
    if len(sizes) != 1:
        raise WrongScenarioShape(f"outcome counts differ across measurements: {sorted(sizes)}")
    (l,) = sizes
    rows = _walk_rows(pb, order)
    for p in range(4):
        increasing = ((x, y) for x, row in enumerate(rows[p]) for y in range(x + 1, l) if row >> y & 1)
        witness = next(increasing, None)
        # a row x with some bit y < x set is a possible decreasing pair
        if witness is None or any(
            row & (1 << x) - 1 for q in (1, 2, 3) for x, row in enumerate(rows[(p + q) % 4])
        ):
            continue
        ci, (u, v) = order[p]
        return ChenParadox(ci + 1, (s.outcomes[u][witness[0]], s.outcomes[v][witness[1]]))
    return None


# -- strong contextuality on dichotomic cycles --------------------------------


@dataclass(frozen=True)
class PrBoxForm:
    """The PR-box normal form of a strongly contextual dichotomic cycle.

    Relative to the reference assignment (one outcome label per measurement,
    cycle order), every context is perfectly correlated except the one at
    flip_context_index (1-based stored index), which is perfectly
    anticorrelated. The representation is canonical but not unique: any
    context can play the flip role (with the assignment re-walked
    accordingly), and the complement of the assignment works too; this form
    fixes the smallest flip index and starts the walk at the first
    measurement's first outcome label.
    """

    flip_context_index: int
    measurements: tuple[str, ...]
    assignment: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "flip_context_index": self.flip_context_index,
            "measurements": list(self.measurements),
            "assignment": list(self.assignment),
        }


def _xor_type(pb: PossibilisticBehavior, ci: int) -> str | None:
    """'E' if possibles are exactly {(0,0),(1,1)} by outcome index, 'N' for
    {(0,1),(1,0)}, None otherwise. Orientation-independent."""
    return {(True, False, False, True): "E", (False, True, True, False): "N"}.get(pb.tables[ci])


def classify_strong_contextuality(b: AnyBehavior) -> PrBoxForm | None:
    """Recognize strong contextuality of a dichotomic cycle behavior by its
    PR-box structure.

    A possibilistically-ND dichotomic cycle behavior is strongly contextual
    exactly when every context has two complement-closed possible outcomes
    and the unequal-pair contexts are odd in number; the normal form is then
    read off by walking the cycle. Returns None for every other behavior.

    :raises NotCycle: if the scenario is not a single cycle.
    :raises NonDichotomic: if some measurement is not two-outcome.
    :raises NotPossibilisticallyND: if the behavior disturbs.
    """
    pb = _as_possibilistic(b)
    s = pb.scenario
    order = traverse_cycle(s)
    require_dichotomic(s)
    require_nondisturbing(pb)
    types = [_xor_type(pb, ci) for ci in range(len(s.contexts))]
    if None in types or types.count("N") % 2 == 0:
        return None
    flip = types.index("N")

    # traverse_cycle visits the measurements in order, so each bit follows
    # from the previous one; the last step must return to the first bit.
    measurements = tuple(pair[0] for _, pair in order)
    bits = [0]
    for ci, _ in order:
        bits.append(bits[-1] ^ ((types[ci] == "N") != (ci == flip)))
    if bits.pop() != bits[0]:
        raise ContextualityError("odd-parity walk must close")
    assignment = tuple(s.outcomes[m][bit] for m, bit in zip(measurements, bits))
    return PrBoxForm(flip_context_index=flip + 1, measurements=measurements, assignment=assignment)


def pr_box_behavior(
    scenario: Scenario, flip_context_index: int, assignment=None
) -> PossibilisticBehavior:
    """Build the strongly contextual table with one anticorrelated context.

    Relative to the assignment (outcome labels in cycle order, default all
    first labels), the context at flip_context_index (1-based stored index)
    allows exactly the two pairs disagreeing with it on one side, and every
    other context allows exactly the agreeing pairs. Any choice produces a
    strongly contextual behavior; Table 3's PR box is the 4-cycle with the
    last context flipped.

    :raises NotCycle: if the scenario is not a single cycle.
    :raises NonDichotomic: if some measurement is not two-outcome.
    :raises InvalidArgument: if flip_context_index is not an int in 1..n,
        or assignment is not n outcome labels in cycle order.
    """
    order = traverse_cycle(scenario)
    s = scenario
    require_dichotomic(s)
    n = len(order)
    if not isinstance(flip_context_index, int) or not 1 <= flip_context_index <= n:
        raise InvalidArgument(f"flip_context_index must be an int in 1..{n}, got {shown(flip_context_index)}")
    measurements = tuple(pair[0] for _, pair in order)
    if assignment is None:
        assignment = tuple(s.outcomes[m][0] for m in measurements)
    assignment = tuple(str(a) for a in assignment)
    if len(assignment) != n:
        raise InvalidArgument(f"assignment needs {n} entries, got {len(assignment)}")
    for m, a in zip(measurements, assignment):
        if a not in s.outcomes[m]:
            raise InvalidArgument(f"{a!r} is not an outcome of {m!r}")
    bit = {m: s.outcomes[m].index(a) for m, a in zip(measurements, assignment)}
    tables: list[tuple[bool, ...] | None] = [None] * n
    for ci, (u, v) in order:
        flip = 1 if ci == flip_context_index - 1 else 0
        # pairs with x ^ bit[u] == y ^ bit[v] ^ flip are possible; the test is
        # symmetric in (x, y), so the stored orientation does not matter
        tables[ci] = tuple(x ^ y ^ bit[u] ^ bit[v] == flip for x in (0, 1) for y in (0, 1))
    return PossibilisticBehavior(s, tuple(tables))
