"""Classical structure of a behavior: support, the LC/SC hierarchy, and the
noncontextual polytope.

The decidable questions live on two levels. The possibilistic level asks
which global assignments (one outcome per measurement) restrict to a
possible joint outcome in every context; the surviving set is the support.
A behavior is logically contextual (LC) when some possible joint outcome of
some context is the restriction of no support member, and strongly
contextual (SC) when the support is empty. The probabilistic level asks for
a global distribution whose marginals reproduce every context table. On a
dichotomic n-cycle (every measurement two-valued, every context a pair, the
pairs one cycle, n >= 3; Bell (2,2) is the 4-cycle) the 2^(n-1) n-cycle
inequalities are complete for nondisturbing behaviors (Araujo et al., PRA
88, 022118, 2013), so hierarchy decides existence there with their
closed-form maximum, inequality.tight_member: one integer sum over the
contexts. The shape test reads scenario.traverse_cycle's cached walk. On
acyclic scenarios hierarchy answers nc = True (see _nc). Every other shape,
is_noncontextual (the definition, and the LP that referees both rules), and
every question that needs a value or a vertex (noncontextual_weight,
contextual_fraction, global_distribution) solve one exact rational LP,
whose optimum also yields the contextual fraction.

Every question reads the support through _scan, which first checks the
assignment count against the enumeration cap. Measurements are placed one at
a time, each sharing a context with one already placed where it can, and a
context is checked once its last measurement is placed. Where every bag of
that order (the placed measurements an open context still holds, plus the
one being placed) has at most _MAX_STATES digit states, as on cycles, trees
and small Bell scenarios, _scan eliminates in pure Python. A state is an
int, the mixed-radix value of its digits, and each step's index arithmetic
is compiled once per shape into flat int tables (_move_tables, cached with
the plan): move j = state * radix + digit leads to nxt[j] and reads one
cell per closing context, so a pass does lookups only. A forward pass keeps
the moves that every closing context allows, reading the behavior's
integer view (numerators, or booleans) at those cells, and a backward pass
counts each state's extensions over the Python ints, giving the support
size and each context's covered cells (restrictions of members) with no
listing. Members are listed, as digit rows over the measurement order
ascending, only for support, the LP and global_distribution;
is_strongly_contextual reads the forward pass alone. Past the bound, where
the plan carries no tables, _scan reads a numpy listing grown along the same
plan; numpy loads only there.

support / is_logically_contextual / is_strongly_contextual accept a Behavior
or a PossibilisticBehavior; a cell of a probability table is possible iff
p > 0.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import compress, islice
from typing import Callable, NamedTuple

from . import simplex
from .behavior import AnyBehavior, Behavior, check_nondisturbance, joint_outcomes
from .behavior import require_nondisturbing, require_probabilistic
from .errors import EnumerationCapExceeded, InvalidArgument, NotCycle
from .inequality import tight_member
from .lazy import Deferred
from .scenario import Scenario, default_cap, index_shape, resolve_cap, traverse_cycle  # default_cap is re-exported
from .scenario import sized_cache

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


# -- the support kernel ----------------------------------------------------------

# Largest bag, in digit states, that the kernel eliminates over; a scenario with
# a larger bag has its support listed instead.
_MAX_STATES = 4096


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


# A plan's size is its move tables' entries: len(nxt) per step and per context read.
@sized_cache(1 << 18, lambda plan: sum(len(nxt) * (1 + len(reads)) for _, nxt, reads in plan[3] or ()))
def _elimination_plan(radices: tuple[int, ...], ctx_positions: tuple[tuple[int, ...], ...]) -> tuple:
    """(order, steps, largest, tables) of an elimination along the placement
    order; largest is the digit-state count of its largest bag, and tables
    are the kernel's move tables (see _move_tables) when largest is at most
    _MAX_STATES, else None. The plans kept hold at most 2^18 table entries,
    about 40,000 per shape at the state bound.

    Step k places order[k]. Its bag is the frontier before it (the placed
    measurements that a context not yet closed holds) then order[k], and a
    state is the bag's digits in that order. A step is (bag, radix of
    order[k], checks, keep): bag lists the measurement positions, checks
    gives each context closing at k as (ci, (measurement position, cell
    stride) of each of its measurements), and keep lists the bag slots of
    the frontier after the step.
    """
    order, closing = _placement(radices, ctx_positions)
    last = {q: k for k, cis in enumerate(closing) for ci in cis for q in ctx_positions[ci]}
    steps = []
    frontier: tuple[int, ...] = ()
    for k, q in enumerate(order):
        bag = frontier + (q,)
        checks = []
        for ci in closing[k]:
            positions = ctx_positions[ci]
            strides = (math.prod(radices[y] for y in positions[j + 1 :]) for j in range(len(positions)))
            checks.append((ci, tuple(zip(positions, strides))))
        frontier = tuple(x for x in bag if last[x] > k)
        steps.append((bag, radices[q], tuple(checks), tuple(map(bag.index, frontier))))
    largest = max(math.prod(radices[x] for x in bag) for bag, *_ in steps)
    return order, tuple(steps), largest, _move_tables(radices, steps) if largest <= _MAX_STATES else None


def _digit_sums(radices: list[int], weights: list[int]) -> tuple[int, ...]:
    """sum(digit * weight) at each int of the mixed-radix range over radices
    (last digit fastest), grown from the last digit out."""
    sums = [0]
    for r, w in zip(reversed(radices), reversed(weights)):
        sums = [d + v for d in range(0, r * w, w) for v in sums] if w else sums * r
    return tuple(sums)


def _move_tables(radices: tuple[int, ...], steps: list) -> tuple:
    """The kernel's tables: per step, (radix, nxt, reads).

    A frontier state is the mixed-radix int of its digits (last fastest), so
    move j = state * radix + digit of a step is its bag state. The move
    leads to frontier state nxt[j] and reads cell cells[j] of each context
    (ci, cells) in reads, the contexts closing at the step.
    """
    tables = []
    for bag, radix, checks, keep in steps:
        bag_radices = [radices[x] for x in bag]
        weights, stride = [0] * len(bag), 1
        for i in reversed(keep):
            weights[i], stride = stride, stride * bag_radices[i]
        reads = []
        for ci, pairs in checks:
            strides = dict(pairs)
            reads.append((ci, _digit_sums(bag_radices, [strides.get(x, 0) for x in bag])))
        tables.append((radix, _digit_sums(bag_radices, weights), tuple(reads)))
    return tuple(tables)


def _forward(possible: list, tables: tuple) -> tuple[list[list[int]], set[int]]:
    """The moves of each step and the frontier states reached after the last.

    moves[k] lists the moves of step k, out of the states some partial
    assignment reaches, that every context closing at k allows: a move is
    kept when possible[ci] is nonzero at the cell it reads. Each state's
    moves are ascending. The pass stops at the first step that reaches no
    state.
    """
    moves = []
    reached = {0}
    for radix, nxt, reads in tables:
        if len(reached) * radix == len(nxt):  # every state reached: every move
            live = range(len(nxt))
        else:
            live = [j for s in reached for j in range(s * radix, s * radix + radix)]
        for ci, cells in reads:
            live = list(compress(live, map(possible[ci].__getitem__, map(cells.__getitem__, live))))
        moves.append(live)
        reached = set(map(nxt.__getitem__, live))
        if not reached:
            break
    return moves, reached


def _backward(tables: tuple, moves: list[list[int]], reached: set[int], contexts: int):
    """(support size, covered cells of each context, live moves) from the
    forward pass, counting in the Python ints.

    A move is live when its next state extends to a full support member;
    counts maps each such state to its number of extensions, and a live
    move's cells are covered.
    """
    counts = dict.fromkeys(reached, 1)  # {0: 1} unless the support is empty
    covered: list[set[int]] = [set() for _ in range(contexts)]
    lives = []
    for (radix, nxt, reads), step in reversed(list(zip(tables, moves))):
        live, before = [], {}
        for j in step:
            n = counts.get(nxt[j])
            if n:
                s = j // radix
                before[s] = before.get(s, 0) + n
                live.append(j)
        for ci, cells in reads:
            covered[ci].update(map(cells.__getitem__, live))
        counts = before
        lives.append(live)
    return counts.get(0, 0), covered, lives[::-1]


def _rows(order: tuple[int, ...], tables: tuple, lives: list[list[int]]) -> list[tuple[int, ...]]:
    """The support members as digit rows over the measurement order,
    ascending. Walking back, each extending state gets its completions in
    order: its live moves by digit, each followed by the next state's own."""
    tails = {0: [()]}
    for (radix, nxt, _), live in reversed(list(zip(tables, lives))):
        before: dict[int, list] = {}
        for j in live:
            s = j // radix
            before.setdefault(s, []).extend([(j - s * radix,) + t for t in tails[nxt[j]]])
        tails = before
    rows = tails.get(0, [])
    rank = sorted(range(len(order)), key=order.__getitem__)
    if rank != sorted(rank):  # placed out of measurement order
        rows = sorted(tuple(map(row.__getitem__, rank)) for row in rows)
    return rows


# -- the listing past the state bound ---------------------------------------------


def _cell_codes(arr: np.ndarray, pairs: tuple[tuple[int, int], ...], radices: tuple[int, ...]) -> np.ndarray:
    """Each int64 assignment index's cell in one context, from the context's
    (measurement position, cell stride) pairs; an unplaced digit reads 0."""
    codes = np.zeros(len(arr), dtype=np.int64)
    for q, st in pairs:
        codes += arr // math.prod(radices[q + 1 :]) % radices[q] * st
    return codes


def enumeration_size(s: Scenario) -> int:
    """Number of global assignments, prod of outcome counts."""
    return math.prod(index_shape(s)[0])


def _check_cap(s: Scenario, cap: int | None) -> None:
    """Check the assignment count of s against cap (default: default_cap()).

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


def _survivor_chunks(b: AnyBehavior, possible: list):
    """A generator of the support in non-empty chunks of int64 assignment
    indices (mixed radix over the measurement order, last fastest), unordered,
    on a scenario its callers have checked against the cap. Partial
    assignments (unplaced digits 0) grow along the elimination plan's order in
    slices of at most _CHUNK; each step keeps the partials that every context
    closing there allows, and a slice that reaches full depth is yielded."""
    radices, ctx_positions = index_shape(b.scenario)
    _, steps, *_ = _elimination_plan(radices, ctx_positions)
    masks = [np.array(list(map(bool, view)), dtype=bool) for view in possible]

    def grow(part: np.ndarray, k: int):
        bag, radix, checks, _ = steps[k]
        part = (part[:, None] + np.arange(radix, dtype=np.int64) * math.prod(radices[bag[-1] + 1 :])).ravel()
        for ci, pairs in checks:
            part = part[masks[ci][_cell_codes(part, pairs, radices)]]
        if k + 1 == len(steps):
            if len(part):
                yield part
            return
        for start in range(0, len(part), _CHUNK):
            yield from grow(part[start : start + _CHUNK], k + 1)

    return grow(np.zeros(1, dtype=np.int64), 0)


# -- the one support entry --------------------------------------------------------


class _Support(NamedTuple):
    """What every classical question reads off the support: its size, each
    context's possibility view (see _possible) and covered cells
    (restrictions of members), rows(), the members as digit rows over the
    measurement order, ascending."""

    size: int
    possible: list
    covered: list[set[int]]
    rows: Callable[[], list[tuple[int, ...]]]


def _possible(b: AnyBehavior) -> list:
    """Each table's possibility view, nonzero exactly at its possible cells
    (cells are never negative): a Behavior's integer numerators, or a
    PossibilisticBehavior's booleans, read in place."""
    return [nums for nums, _ in b._ints] if isinstance(b, Behavior) else b.tables


def _scan(b: AnyBehavior, cap: int | None) -> _Support:
    """The support of b, after checking the cap: by elimination where every
    bag has at most _MAX_STATES states, else off the numpy listing.

    :raises EnumerationCapExceeded: when the assignment count exceeds cap.
    """
    _check_cap(b.scenario, cap)
    possible = _possible(b)
    radices, ctx_positions = index_shape(b.scenario)
    order, steps, _, tables = _elimination_plan(radices, ctx_positions)
    if tables is None:  # past the state bound: the listing's members become digit rows once
        closing = [check for _, _, checks, _ in steps for check in checks]
        covered = [np.zeros(len(t), dtype=bool) for t in b.tables]
        chunks = [np.zeros(0, dtype=np.int64)]
        for arr in _survivor_chunks(b, possible):
            chunks.append(arr)
            for ci, pairs in closing:
                covered[ci][_cell_codes(arr, pairs, radices)] = True
        listed = np.sort(np.concatenate(chunks))
        rows = list(zip(*((listed // math.prod(radices[q + 1 :]) % r).tolist() for q, r in enumerate(radices))))
        covered = [set(np.flatnonzero(cov).tolist()) for cov in covered]
        return _Support(len(rows), possible, covered, lambda: rows)
    moves, reached = _forward(possible, tables)
    size, covered, lives = _backward(tables, moves, reached, len(possible))
    return _Support(size, possible, covered, partial(_rows, order, tables, lives))


def _assignments(s: Scenario, rows: list[tuple[int, ...]]) -> list[GlobalAssignment]:
    """Labelled global assignments for digit rows, in order."""
    labels = [s.outcomes[m] for m in s.measurements]
    return [GlobalAssignment(tuple(zip(s.measurements, map(tuple.__getitem__, labels, row)))) for row in rows]


# -- possibilistic level ------------------------------------------------------


def support(b: AnyBehavior, cap: int | None = None) -> tuple[GlobalAssignment, ...]:
    """All global assignments consistent with every context's possible set.

    :raises EnumerationCapExceeded: when the assignment count exceeds cap.
    """
    return tuple(_assignments(b.scenario, _scan(b, cap).rows()))


def support_size(b: AnyBehavior, cap: int | None = None) -> int:
    """Number of support assignments; within the state bound, counted
    without listing them."""
    return _scan(b, cap).size


def is_strongly_contextual(b: AnyBehavior, cap: int | None = None) -> bool:
    """True iff the support is empty. Within the state bound the forward
    pass decides, stopping at the first step that reaches no state; past it
    the listing stops at its first chunk holding a survivor."""
    _check_cap(b.scenario, cap)
    tables = _elimination_plan(*index_shape(b.scenario))[3]
    if tables is None:
        return next(_survivor_chunks(b, _possible(b)), None) is None
    return not _forward(_possible(b), tables)[1]


def _witness(s: Scenario, possible: list, covered: list[set[int]]):
    """First possible cell, in (context, cell) order, that no member covers.
    Covered cells are possible, so a context has one iff it has fewer
    covered cells than possible ones."""
    for ci, (view, cov) in enumerate(zip(possible, covered)):
        if len(cov) < len(view) - view.count(0):
            cell = next(k for k, p in enumerate(view) if p and k not in cov)
            return (s.contexts[ci], next(islice(joint_outcomes(s, s.contexts[ci]), cell, None)))
    return None


def logical_contextuality_witness(
    b: AnyBehavior, cap: int | None = None
) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """First possible joint outcome with no extension in the support.

    Returns (context labels, outcome labels), scanning contexts in stored
    order and cells in table order, or None when every possible outcome
    extends (the behavior is then not LC). Reads the covered cells only:
    within the state bound no member is listed.

    :raises EnumerationCapExceeded: when the assignment count exceeds cap.
    """
    found = _scan(b, cap)
    return _witness(b.scenario, found.possible, found.covered)


def is_logically_contextual(b: AnyBehavior, cap: int | None = None) -> bool:
    """True iff some possible joint outcome extends to no support member."""
    return logical_contextuality_witness(b, cap) is not None


# -- probabilistic level ------------------------------------------------------


def _lp(b: Behavior, members: list[tuple[int, ...]]) -> tuple[Fraction, list[Fraction]]:
    """Maximize the total weight of a subnormalized global distribution whose
    context marginals are dominated by b's tables.

    Only support assignments can carry weight (any other assignment hits a
    zero cell, whose constraint forces its weight to 0), so the LP runs over
    the support members, one column each. Constraints for zero cells are then
    satisfied identically and are skipped. The optimum is 1 exactly when b
    is noncontextual, and the maximizer is then a global distribution
    reproducing every table: each context's constraints sum to (total
    weight) <= 1 with slack 1 - total, so optimum 1 makes every constraint
    tight.

    Rows go to simplex.maximize as 0/1 member patterns, right-hand sides as
    num * (scale // den) over one scale, the lcm of the kept rows' dens: each
    row scaled by a positive constant and every variable by scale, which
    changes no pivot; (value, x) is simplex's over scale. Twin rows (rows hit
    by the same members) are passed once: the one with the smallest
    right-hand side, the first in (context, cell) order on ties, in that
    order. This is exact: while both slacks are basic, a twin's tableau row is
    the kept row's with a right-hand side no smaller, so the ratio test with
    its smallest-label tie-break picks the kept row; after that slack leaves,
    the twin's row has no positive entry. So the twin's slack never leaves,
    integer pivots never read its row, and the pivots and (value, x) are the
    full LP's. A dropped twin's dual is 0.
    """
    radices, ctx_positions = index_shape(b.scenario)
    kept: dict[frozenset, tuple[tuple[int, int], int, int]] = {}  # pattern -> ((ci, cell), num, den)
    for ci, ((nums, den), positions) in enumerate(zip(b._ints, ctx_positions)):
        hit: dict[int, list[int]] = {}  # cell -> the members restricting to it
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
    scale = math.lcm(*(den for _, _, den in kept.values()))
    rows, rhs = [], []
    for pattern, (_, num, den) in sorted(kept.items(), key=lambda item: item[1][0]):
        rows.append(row := [0] * len(members))
        for k in pattern:
            row[k] = 1
        rhs.append(num * (scale // den))
    value, x = simplex.maximize([1] * len(members), rows, rhs)
    return value / scale, [a / scale for a in x]


def _dichotomic_cycle(s: Scenario) -> bool:
    """True when the pairs of s form one cycle through all n >= 3
    measurements and every measurement has 2 outcomes: the shapes where the
    n-cycle inequalities decide nc."""
    try:
        traverse_cycle(s)
    except NotCycle:
        return False
    return all(r == 2 for r in index_shape(s)[0])


@lru_cache(maxsize=256)
def _acyclic(ctx_positions: tuple[tuple[int, ...], ...]) -> bool:
    """True when GYO reduction empties the contexts: drop the measurements one
    context alone holds, then a context inside another (or empty), and repeat."""
    edges = [set(p) for p in ctx_positions]
    while edges:
        held = Counter(q for e in edges for q in e)
        edges = [{q for q in e if held[q] > 1} for e in edges]
        i = next((i for i, e in enumerate(edges) if not e or any(j != i and e <= f for j, f in enumerate(edges))), None)
        if i is None:
            return False
        del edges[i]
    return True


def _nc(b: Behavior, found: _Support, witness) -> bool:
    """Whether the nondisturbing b, with support found and LC witness
    witness, is noncontextual: always on an acyclic scenario (Vorob'ev,
    Theory Probab. Appl. 7, 147, 1962), where a witness raises; else never
    with a witness; on a dichotomic cycle, iff every n-cycle inequality
    holds (they are complete there); elsewhere, iff the LP's optimum is 1."""
    if _acyclic(index_shape(b.scenario)[1]):
        if witness is not None:
            raise RuntimeError(f"LC witness {witness} on an acyclic scenario, where nondisturbance implies nc")
        return True
    if witness is not None:
        return False
    if _dichotomic_cycle(b.scenario):
        value, scale, _ = tight_member(b._ints)
        return value <= (len(b.tables) - 2) * scale
    return _lp(b, found.rows())[0] == 1


def _solve(b: Behavior, cap: int | None) -> tuple[list[tuple[int, ...]], Fraction, list[Fraction]]:
    """The support members of b and the LP's (value, x) over them, after
    checking that b carries probabilities (InvalidBehavior) and is
    nondisturbing."""
    require_probabilistic(b)
    require_nondisturbing(b)
    found = _scan(b, cap)
    members = found.rows()
    return (members, *_lp(b, members))


def noncontextual_weight(b: Behavior, cap: int | None = None) -> Fraction:
    """Largest total weight of a subnormalized global distribution dominated
    by b. Equals 1 iff b is noncontextual; 1 minus it is the contextual
    fraction.

    :raises NotNondisturbing: if b's overlapping marginals disagree.
    """
    return _solve(b, cap)[1]


def is_noncontextual(b: Behavior, cap: int | None = None) -> bool:
    """True iff a single global distribution reproduces every context table:
    the LP's optimum is 1.

    :raises NotNondisturbing: if b's overlapping marginals disagree.
    """
    return noncontextual_weight(b, cap) == 1


def global_distribution(
    b: Behavior, cap: int | None = None
) -> dict[GlobalAssignment, Fraction] | None:
    """A global distribution reproducing b by marginals, or None if contextual."""
    members, opt, x = _solve(b, cap)
    if opt != 1:
        return None
    return {t: w for t, w in zip(_assignments(b.scenario, members), x) if w > 0}


def contextual_fraction(b: Behavior, cap: int | None = None) -> Fraction:
    """1 minus the maximal noncontextual weight; 1 exactly on SC behaviors."""
    return 1 - noncontextual_weight(b, cap)


# -- combined report ----------------------------------------------------------


def hierarchy(b: Behavior, cap: int | None = None, level: str = "all") -> HierarchyReport:
    """Classify a behavior at the requested level of the hierarchy.

    level is one of "nd", "nc", "lc", "sc", "all". Nondisturbance is always
    checked first; if it fails, every later flag is undefined (None). Flags
    outside the requested level stay None. The rest is read off one support
    scan. nc is True on an acyclic scenario, else False on an LC witness,
    else decided by the n-cycle inequalities or, off those, the LP.
    """
    if level not in ("nd", "nc", "lc", "sc", "all"):
        raise InvalidArgument(f"unknown level {level!r}")
    nd_ok = check_nondisturbance(b).ok
    if not nd_ok or level == "nd":
        return HierarchyReport(nd=nd_ok)
    found = _scan(b, cap)
    witness = _witness(b.scenario, found.possible, found.covered)
    nc = lc = sc = None
    if level in ("nc", "all"):
        nc = _nc(b, found, witness)
    if level in ("lc", "all"):
        lc = witness is not None
    if level in ("sc", "all"):
        sc = found.size == 0
    return HierarchyReport(
        nd=True, nc=nc, logically_contextual=lc, strongly_contextual=sc,
        witness=witness if lc else None, support_size=None if level == "nc" else found.size,
    )
