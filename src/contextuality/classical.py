"""Classical structure of a behavior: support, the LC/SC hierarchy, and the
noncontextual polytope.

The decidable questions live on two levels. The possibilistic level asks
which global assignments (one outcome per measurement) restrict to a
possible joint outcome in every context; the surviving set is the support.
A behavior is logically contextual (LC) when some possible joint outcome of
some context is the restriction of no support member, and strongly
contextual (SC) when the support is empty. The probabilistic level asks for
a global distribution whose marginals reproduce every context table; its
existence is decided by one exact rational LP, whose optimum also yields the
contextual fraction.

Every question first checks the assignment count against the enumeration
cap. All but the lc witness then read one listing of the support as int64
assignment indices, ascending in mixed-radix order over the scenario's
measurement order (last fastest). The listing grows partial assignments
depth first, one measurement at a time, each next measurement sharing a
context with one already placed where it can; a context prunes the partials
as soon as its last measurement is placed, so on a cycle or a tree the
partials stay close to the support instead of the l^n assignments.
is_strongly_contextual stops at the first listed chunk; every other
question reads the whole support with each context's possible cells and
covered cells (restrictions of support members). Only the public outputs
turn indices into labelled GlobalAssignments.

logical_contextuality_witness needs only the covered cells. Where every
bag of the same placement order (the measurements still open in some
context, plus the one being placed) has at most _MAX_STATES digit states,
as on cycles, trees and small Bell scenarios, it finds them in pure Python
by forward and backward boolean elimination along that order, with no
listing and no numpy; past that bound it reads the listing.

support / is_logically_contextual / is_strongly_contextual accept a Behavior
or a PossibilisticBehavior; probability tables are read through their
possibilistic collapse (cell possible iff p > 0).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import simplex
from .behavior import AnyBehavior, Behavior, check_nondisturbance, joint_outcomes
from .behavior import require_nondisturbing, require_probabilistic
from .errors import EnumerationCapExceeded
from .lazy import Deferred
from .scenario import Scenario, default_cap, index_shape, resolve_cap  # default_cap is re-exported

np = Deferred("numpy", globals(), "np")

_CHUNK = 1 << 16
_MAX_INDEX = (1 << 63) - 1  # assignment indices are int64


@dataclass(frozen=True)
class GlobalAssignment:
    """One outcome per measurement, stored as (measurement, outcome) pairs
    in scenario order."""

    values: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict[str, str]:
        return dict(self.values)

    def restrict(self, context: tuple[str, ...]) -> tuple[str, ...]:
        """The assignment's joint outcome on one context."""
        lookup = dict(self.values)
        return tuple(lookup[m] for m in context)


@dataclass(frozen=True)
class HierarchyReport:
    """Where one behavior sits in the contextuality hierarchy.

    Flags not computed (level-limited) or undefined (behavior disturbs, so
    the classical questions do not apply) are None. witness is the first
    (context, joint outcome) certifying LC, in (context index, cell) order.
    """

    nd: bool
    nc: bool | None = None
    logically_contextual: bool | None = None
    strongly_contextual: bool | None = None
    witness: tuple[tuple[str, ...], tuple[str, ...]] | None = None
    support_size: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "nd": self.nd,
            "nc": self.nc,
            "lc": self.logically_contextual,
            "sc": self.strongly_contextual,
            "witness": None
            if self.witness is None
            else {"context": list(self.witness[0]), "outcome": list(self.witness[1])},
            "support_size": self.support_size,
        }


# -- vectorized support listing ---------------------------------------------------


class _Engine:
    """Per-shape tables for listing the support of a scenario.

    Assignment index -> context cell code is an affine digit map; the
    arrays here let a whole array of indices be mapped at once. A partial
    assignment is the index with its unplaced digits 0, so a context's cell
    codes are read off it once the context's measurements are placed, in
    the order _placement gives.
    """

    def __init__(self, radices: tuple[int, ...], ctx_positions: tuple[tuple[int, ...], ...]):
        strides = [1] * len(radices)
        for q in range(len(radices) - 2, -1, -1):
            strides[q] = strides[q + 1] * radices[q + 1]
        self.strides = tuple(strides)
        self.radices = radices
        self.contexts = []
        for positions in ctx_positions:
            pos_strides = np.array([strides[q] for q in positions], dtype=np.int64)
            pos_radices = np.array([radices[q] for q in positions], dtype=np.int64)
            cell_strides = np.ones(len(positions), dtype=np.int64)
            for k in range(len(positions) - 2, -1, -1):
                cell_strides[k] = cell_strides[k + 1] * radices[positions[k + 1]]
            self.contexts.append((pos_strides, pos_radices, cell_strides))
        self.order, self.closing = _placement(radices, ctx_positions)

    def cell_codes(self, arr: np.ndarray, ci: int) -> np.ndarray:
        pos_strides, pos_radices, cell_strides = self.contexts[ci]
        codes = np.zeros(len(arr), dtype=np.int64)
        for stride, radix, cstride in zip(pos_strides, pos_radices, cell_strides):
            codes += (arr // stride) % radix * cstride
        return codes


_engine = lru_cache(maxsize=256)(_Engine)


def _placement(
    radices: tuple[int, ...], ctx_positions: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(order, closing) of one shape: order places each measurement after the
    first in scenario order among those sharing a context with one already
    placed (the first unplaced one when none does); closing[k] lists the
    contexts whose last measurement is order[k]."""
    rank: dict[int, int] = {}
    touched: set[int] = set()
    for _ in radices:
        q = min(touched - rank.keys(), default=None)
        if q is None:
            q = min(set(range(len(radices))) - rank.keys())
        rank[q] = len(rank)
        touched.update(*(p for p in ctx_positions if q in p))
    closing: tuple[list[int], ...] = tuple([] for _ in radices)
    for ci, positions in enumerate(ctx_positions):
        closing[max(rank[q] for q in positions)].append(ci)
    return tuple(rank), tuple(map(tuple, closing))


def _engine_for(s: Scenario) -> _Engine:
    return _engine(*index_shape(s))


def enumeration_size(s: Scenario) -> int:
    """Number of global assignments, prod of outcome counts."""
    return math.prod(len(s.outcomes[m]) for m in s.measurements)


def _check_cap(s: Scenario, cap: int | None) -> int:
    """The assignment count of s, checked against cap (default: default_cap()).

    :raises EnumerationCapExceeded: when the assignment count exceeds cap, or
        the int64 range of assignment indices.
    :raises ValueError: if cap is below 1.
    """
    cap = resolve_cap(cap)
    total = enumeration_size(s)
    if total > cap:
        raise EnumerationCapExceeded(f"{total} global assignments exceed the cap {cap}")
    if total > _MAX_INDEX:
        raise EnumerationCapExceeded(f"{total} global assignments exceed the int64 index range")
    return total


def _survivor_chunks(b: AnyBehavior, possible: list[np.ndarray], cap: int | None):
    """A generator of the support in non-empty chunks, unordered.

    The cap is checked here, before the engine's int64 strides are built, so
    an oversized scenario raises on the call, not on the first chunk.
    Partial assignments grow along eng.order in slices of at most _CHUNK;
    each growth step keeps the partials that every context closing there
    allows, and a slice that reaches full depth is yielded.

    :raises EnumerationCapExceeded: when the assignment count exceeds cap.
    """
    _check_cap(b.scenario, cap)
    eng = _engine_for(b.scenario)

    def grow(part: np.ndarray, k: int):
        q = eng.order[k]
        part = (part[:, None] + np.arange(eng.radices[q], dtype=np.int64) * eng.strides[q]).ravel()
        for ci in eng.closing[k]:
            part = part[possible[ci][eng.cell_codes(part, ci)]]
        if k + 1 == len(eng.order):
            if len(part):
                yield part
            return
        for start in range(0, len(part), _CHUNK):
            yield from grow(part[start : start + _CHUNK], k + 1)

    return grow(np.zeros(1, dtype=np.int64), 0)


def _possible(b: AnyBehavior) -> list[np.ndarray]:
    return [np.array(list(map(bool, t)), dtype=bool) for t in b.tables]  # cells are never negative


def _scan(b: AnyBehavior, cap: int | None) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """The support of b, listed once, with the cell sets every question reads.

    Returns (survivors, possible, covered): the support as ascending
    assignment indices, the possible cells of each context, and the cells of
    each context that some support member restricts to.
    """
    possible = _possible(b)
    listing = _survivor_chunks(b, possible, cap)
    eng = _engine_for(b.scenario)
    covered = [np.zeros(len(t), dtype=bool) for t in possible]
    chunks = [np.zeros(0, dtype=np.int64)]
    for arr in listing:
        chunks.append(arr)
        for ci, cov in enumerate(covered):
            cov[eng.cell_codes(arr, ci)] = True
    return np.sort(np.concatenate(chunks)), possible, covered


def _assignments(s: Scenario, indices: np.ndarray) -> list[GlobalAssignment]:
    """Labelled global assignments for assignment indices, in order."""
    digits = np.transpose(np.unravel_index(indices, [len(s.outcomes[m]) for m in s.measurements]))
    return [
        GlobalAssignment(tuple((m, s.outcomes[m][d]) for m, d in zip(s.measurements, row)))
        for row in digits.tolist()
    ]


# -- possibilistic level ------------------------------------------------------


def support(b: AnyBehavior, cap: int | None = None) -> tuple[GlobalAssignment, ...]:
    """All global assignments consistent with every context's possible set.

    :raises EnumerationCapExceeded: when the assignment count exceeds cap.
    """
    return tuple(_assignments(b.scenario, _scan(b, cap)[0]))


def support_size(b: AnyBehavior, cap: int | None = None) -> int:
    """Number of support assignments, without materializing them."""
    return len(_scan(b, cap)[0])


def is_strongly_contextual(b: AnyBehavior, cap: int | None = None) -> bool:
    """True iff the support is empty; stops at the first chunk holding a
    survivor."""
    return next(_survivor_chunks(b, _possible(b), cap), None) is None


def _witness(s: Scenario, possible: list[np.ndarray], covered: list[np.ndarray]):
    """First possible cell, in (context, cell) order, that no survivor covers."""
    for ci, (table, cov) in enumerate(zip(possible, covered)):
        bad = table & ~cov
        if bad.any():
            cell = int(np.flatnonzero(bad)[0])
            joint = list(joint_outcomes(s, s.contexts[ci]))[cell]
            return (s.contexts[ci], joint)
    return None


# Largest bag, in digit states, that the lc witness eliminates over; a scenario
# with a larger bag has its support listed instead.
_MAX_STATES = 4096


@lru_cache(maxsize=256)
def _elimination_plan(radices: tuple[int, ...], ctx_positions: tuple[tuple[int, ...], ...]) -> tuple | None:
    """The steps of a boolean elimination along the placement order, or None
    when some bag has more than _MAX_STATES digit states.

    Step k places order[k]. Its bag is the frontier before it (the placed
    measurements that a context not yet closed holds) then order[k], and a
    state is the bag's digits in that order. A step is (radix of order[k],
    checks, keep): checks gives each context closing at k with the (bag
    slot, cell stride) of each of its measurements, and keep lists the bag
    slots of the frontier after the step.
    """
    order, closing = _placement(radices, ctx_positions)
    last = {q: k for k, cis in enumerate(closing) for ci in cis for q in ctx_positions[ci]}
    steps = []
    frontier: tuple[int, ...] = ()
    for k, q in enumerate(order):
        bag = frontier + (q,)
        if math.prod(radices[x] for x in bag) > _MAX_STATES:
            return None
        checks = []
        for ci in closing[k]:
            slots, stride = [], 1
            for x in reversed(ctx_positions[ci]):
                slots.append((bag.index(x), stride))
                stride *= radices[x]
            checks.append((ci, tuple(slots)))
        frontier = tuple(x for x in bag if last[x] > k)
        steps.append((radices[q], tuple(checks), tuple(map(bag.index, frontier))))
    return tuple(steps)


def _covered_cells(tables: tuple, plan: tuple) -> list[set[int]]:
    """Each context's cells that some support member restricts to.

    The forward pass lists, step by step, the moves (state, cells, next
    state) from a frontier state some partial assignment reaches through a
    digit every closing context allows. The backward pass keeps the moves
    into a state that extends to a whole support member: their cells are
    covered, and their states extend in turn.
    """
    moves = []
    reached: set[tuple[int, ...]] = {()}
    for radix, checks, keep in plan:
        step = []
        for state in reached:
            for d in range(radix):
                bag = state + (d,)
                cells = [sum(bag[i] * stride for i, stride in slots) for _, slots in checks]
                if all(tables[ci][c] for (ci, _), c in zip(checks, cells)):
                    step.append((state, cells, tuple(bag[i] for i in keep)))
        moves.append(step)
        reached = {after for _, _, after in step}
    covered: list[set[int]] = [set() for _ in tables]
    extends = reached  # {()} unless the support is empty
    for (_, checks, _), step in zip(reversed(plan), reversed(moves)):
        before = set()
        for state, cells, after in step:
            if after in extends:
                before.add(state)
                for (ci, _), c in zip(checks, cells):
                    covered[ci].add(c)
        extends = before
    return covered


def logical_contextuality_witness(
    b: AnyBehavior, cap: int | None = None
) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """First possible joint outcome with no extension in the support.

    Returns (context labels, outcome labels), scanning contexts in stored
    order and cells in table order, or None when every possible outcome
    extends (the behavior is then not LC). The cap is checked first. When
    every bag of the placement order holds at most _MAX_STATES states, the
    covered cells come from a pure-Python elimination; otherwise from the
    support listing.

    :raises EnumerationCapExceeded: when the assignment count exceeds cap.
    """
    s = b.scenario
    _check_cap(s, cap)
    plan = _elimination_plan(*index_shape(s))
    if plan is None:
        _, possible, covered = _scan(b, cap)
        return _witness(s, possible, covered)
    for ci, (table, cov) in enumerate(zip(b.tables, _covered_cells(b.tables, plan))):
        cell = next((k for k, p in enumerate(table) if p and k not in cov), None)
        if cell is not None:
            return (s.contexts[ci], list(joint_outcomes(s, s.contexts[ci]))[cell])
    return None


def is_logically_contextual(b: AnyBehavior, cap: int | None = None) -> bool:
    """True iff some possible joint outcome extends to no support member."""
    return logical_contextuality_witness(b, cap) is not None


# -- probabilistic level ------------------------------------------------------


def _lp(b: Behavior, survivors: np.ndarray) -> tuple[Fraction, list[Fraction]]:
    """Maximize the total weight of a subnormalized global distribution whose
    context marginals are dominated by b's tables.

    Only support assignments can carry weight (any other assignment hits a
    zero cell, whose constraint forces its weight to 0), so the LP runs over
    the survivors, one column each. Constraints for zero cells are then
    satisfied identically and are skipped. The optimum is 1 exactly when b
    is noncontextual, and the maximizer is then a global distribution
    reproducing every table: each context's constraints sum to (total
    weight) <= 1 with slack 1 - total, so optimum 1 makes every constraint
    tight.

    Rows go to simplex.maximize as ints, scaled by the denominator of their
    right-hand side. Twin rows (rows hit by the same survivors) are passed
    once: the one with the smallest right-hand side, the first in (context,
    cell) order on ties, in that order. This is exact: while both slacks are
    basic, a twin's tableau row is the kept row's with a right-hand side no
    smaller, so the ratio test with its smallest-label tie-break picks the
    kept row; after that slack leaves, the twin's row has no positive entry.
    So the twin's slack never leaves, integer pivots never read its row, and
    the pivots and (value, x) are the full LP's. A dropped twin's dual is 0.
    """
    radices, ctx_positions = index_shape(b.scenario)
    digits = np.transpose(np.unravel_index(survivors, radices)).tolist()
    kept: dict[frozenset, tuple[tuple[int, int], int, int]] = {}  # pattern -> ((ci, cell), num, den)
    for ci, (table, positions) in enumerate(zip(b.tables, ctx_positions)):
        members: dict[tuple[int, ...], list[int]] = {}
        for k, row in enumerate(digits):
            members.setdefault(tuple(row[q] for q in positions), []).append(k)
        cells = itertools.product(*(range(radices[q]) for q in positions))
        for cell, (joint, p) in enumerate(zip(cells, table)):
            if p:
                pattern = frozenset(members.get(joint, ()))
                twin = kept.get(pattern)
                if twin is None or p.numerator * twin[2] < twin[1] * p.denominator:
                    kept[pattern] = ((ci, cell), p.numerator, p.denominator)
    n = len(survivors)
    rows = sorted(
        (at, num, [den * (k in pattern) for k in range(n)]) for pattern, (at, num, den) in kept.items()
    )
    return simplex.maximize([1] * n, [row for *_, row in rows], [num for _, num, _ in rows])


def _solve(b: Behavior, cap: int | None) -> tuple[np.ndarray, Fraction, list[Fraction]]:
    """The support of b and the LP's (value, x) over it, after checking that b
    carries probabilities (InvalidBehavior) and is nondisturbing."""
    require_probabilistic(b)
    require_nondisturbing(b)
    survivors = _scan(b, cap)[0]
    return (survivors, *_lp(b, survivors))


def noncontextual_weight(b: Behavior, cap: int | None = None) -> Fraction:
    """Largest total weight of a subnormalized global distribution dominated
    by b. Equals 1 iff b is noncontextual; 1 minus it is the contextual
    fraction.

    :raises NotNondisturbing: if b's overlapping marginals disagree.
    """
    return _solve(b, cap)[1]


def is_noncontextual(b: Behavior, cap: int | None = None) -> bool:
    """True iff a single global distribution reproduces every context table."""
    return noncontextual_weight(b, cap) == 1


def global_distribution(
    b: Behavior, cap: int | None = None
) -> dict[GlobalAssignment, Fraction] | None:
    """A global distribution reproducing b by marginals, or None if contextual."""
    survivors, opt, x = _solve(b, cap)
    if opt != 1:
        return None
    return {t: w for t, w in zip(_assignments(b.scenario, survivors), x) if w > 0}


def contextual_fraction(b: Behavior, cap: int | None = None) -> Fraction:
    """1 minus the maximal noncontextual weight; 1 exactly on SC behaviors."""
    return 1 - noncontextual_weight(b, cap)


# -- combined report ----------------------------------------------------------


def hierarchy(b: Behavior, cap: int | None = None, level: str = "all") -> HierarchyReport:
    """Classify a behavior at the requested level of the hierarchy.

    level is one of "nd", "nc", "lc", "sc", "all". Nondisturbance is always
    checked first; if it fails, every later flag is undefined (None). Flags
    outside the requested level stay None. The rest is read off one support
    scan, and the LP runs only if no LC witness already rules out nc.
    """
    if level not in ("nd", "nc", "lc", "sc", "all"):
        raise ValueError(f"unknown level {level!r}")
    nd_ok = check_nondisturbance(b).ok
    if not nd_ok or level == "nd":
        return HierarchyReport(nd=nd_ok)
    survivors, possible, covered = _scan(b, cap)
    witness = _witness(b.scenario, possible, covered)
    nc = lc = sc = None
    if level in ("nc", "all"):
        nc = witness is None and _lp(b, survivors)[0] == 1
    if level in ("lc", "all"):
        lc = witness is not None
    if level in ("sc", "all"):
        sc = len(survivors) == 0
    return HierarchyReport(
        nd=True, nc=nc, logically_contextual=lc, strongly_contextual=sc,
        witness=witness if lc else None, support_size=None if level == "nc" else len(survivors),
    )
