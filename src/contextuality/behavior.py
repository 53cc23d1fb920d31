"""Behaviors: exact probability tables indexed by a scenario's contexts.

A behavior attaches to every context a probability distribution over that
context's joint outcomes, stored as Fractions so nondisturbance and the
classical-polytope tests downstream are exact. A possibilistic behavior
keeps only which joint outcomes are possible; collapsing a probability table
to its support gives one.

Joint outcomes of a context are ordered lexicographically in the context's
stored measurement order, with the last measurement varying fastest. All
tables in this package use that cell order.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Union

from .errors import (
    EnumerationCapExceeded,
    InvalidBehavior,
    NegativeProbability,
    NotNondisturbing,
    NotPossibilisticallyND,
    SubsetNotInContext,
    shown,
)
from .scenario import Scenario, index_shape, load_scenario, read_json, resolve_cap


def joint_outcomes(s: Scenario, context: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
    """Yield the joint outcome label tuples of a context in cell order."""
    return itertools.product(*(s.outcomes[m] for m in context))


def cell_index(s: Scenario, context: tuple[str, ...], labels: tuple[str, ...]) -> int:
    """Cell position of a joint outcome inside its context's table."""
    if len(labels) != len(context):
        raise InvalidBehavior(f"outcome tuple {shown(labels)} does not match context {shown(context)}")
    idx = 0
    for m, o in zip(context, labels):
        idx = idx * len(s.outcomes[m]) + s.outcome_index(m, o)
    return idx


@dataclass(frozen=True)
class Violation:
    """One witnessed disagreement between two contexts' shared marginals."""

    context_a: int
    context_b: int
    measurements: tuple[str, ...]
    outcomes: tuple[str, ...]
    value_a: object
    value_b: object


@dataclass(frozen=True)
class DisturbanceReport:
    """Outcome of a nondisturbance check; violation is None when ok."""

    ok: bool
    violation: Violation | None = None


@dataclass(frozen=True)
class Behavior:
    """Probability tables over every context of a scenario.

    tables[i][cell_index(...)] is the probability of one joint outcome of
    scenario.contexts[i]; each table sums to exactly 1. metadata is an
    optional free-form dict carried through JSON round trips.

    Validation leaves _ints, the integer view every exact question reads:
    per table, its numerators over the lcm of its denominators, and that
    lcm. It is an instance attribute, not a field, so repr and == read the
    tables alone; pickling and copying keep it.
    """

    scenario: Scenario
    tables: tuple[tuple[Fraction, ...], ...]
    metadata: dict | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        tables = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in t) for t in self.tables)
        object.__setattr__(self, "tables", tables)
        ints = []
        for c, t in _shaped(self.scenario, tables):
            nums, den = _numerators(t)
            if min(nums) < 0:
                p = next(p for p in t if p < 0)
                raise NegativeProbability(f"negative probability {shown(p)} in context {shown(c)}")
            if sum(nums) != den:
                raise InvalidBehavior(f"table for context {shown(c)} sums to {shown(sum(t))}, not 1")
            ints.append((nums, den))
        object.__setattr__(self, "_ints", tuple(ints))

    def probability(self, context_index: int, outcomes: tuple[str, ...]) -> Fraction:
        """Probability of one joint outcome of one context."""
        c = self.scenario.contexts[context_index]
        return self.tables[context_index][cell_index(self.scenario, c, tuple(outcomes))]

    def marginal(
        self, context_index: int, measurements: tuple[str, ...], outcomes: tuple[str, ...]
    ) -> Fraction:
        """Marginal probability of outcomes on a measurement subset.

        :raises SubsetNotInContext: if some measurement is not in the context.
        """
        return _project(self, context_index, tuple(measurements)).get(tuple(outcomes), Fraction(0))


@dataclass(frozen=True)
class PossibilisticBehavior:
    """Possible joint outcomes per context, same cell order as Behavior."""

    scenario: Scenario
    tables: tuple[tuple[bool, ...], ...]
    metadata: dict | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        tables = tuple(tuple(bool(x) for x in t) for t in self.tables)
        object.__setattr__(self, "tables", tables)
        for c, t in _shaped(self.scenario, tables):
            if not any(t):
                raise InvalidBehavior(f"context {shown(c)} has no possible outcome")

    def is_possible(self, context_index: int, outcomes: tuple[str, ...]) -> bool:
        """Whether one joint outcome of one context is possible."""
        c = self.scenario.contexts[context_index]
        return self.tables[context_index][cell_index(self.scenario, c, tuple(outcomes))]

    def possible_outcomes(self, context_index: int) -> tuple[tuple[str, ...], ...]:
        """All possible joint outcome tuples of one context, in cell order."""
        return tuple(_project(self, context_index, self.scenario.contexts[context_index]))

    def marginal(
        self, context_index: int, measurements: tuple[str, ...], outcomes: tuple[str, ...]
    ) -> bool:
        """Possibilistic marginal: OR of the consistent cells.

        :raises SubsetNotInContext: if some measurement is not in the context.
        """
        return tuple(outcomes) in _project(self, context_index, tuple(measurements))


AnyBehavior = Union[Behavior, PossibilisticBehavior]


def _shaped(s: Scenario, tables: tuple) -> Iterator[tuple[tuple[str, ...], tuple]]:
    """Yield (context, table) in stored order, raising InvalidBehavior first if
    the table count is wrong and then at the first table whose cell count is."""
    if len(tables) != len(s.contexts):
        raise InvalidBehavior(f"expected {len(s.contexts)} tables, got {len(tables)}")
    for i, t in enumerate(tables):
        if len(t) != s.context_cells(i):
            raise InvalidBehavior(
                f"table for context {shown(s.contexts[i])} has {len(t)} cells, expected {s.context_cells(i)}"
            )
        yield s.contexts[i], t


def _project(b: AnyBehavior, ci: int, shared: tuple[str, ...]) -> dict:
    """Nonzero marginals of context ci on the measurements shared, keyed by
    joint outcome: its cell groups' (_cell_groups) integer sums, or a lone
    cell's own entry; a possibilistic table maps each possible one to True.

    :raises SubsetNotInContext: if some measurement is not in the context.
    """
    s = b.scenario
    c = s.contexts[ci]
    try:
        pos = tuple(c.index(m) for m in shared)
    except ValueError:
        outside = next(m for m in shared if m not in c)
        raise SubsetNotInContext(f"measurement {shown(outside)} is not in context {shown(c)}") from None
    keys = joint_outcomes(s, shared)
    if len(set(pos)) < len(pos):  # a repeated measurement reads one outcome in each of its places
        keys = (joint for joint in keys if len(set(zip(pos, joint))) == len(set(pos)))
    exact = isinstance(b, Behavior)
    own = b.tables[ci]
    nums, den = b._ints[ci] if exact else (own, 1)
    groups = _cell_groups(tuple(len(s.outcomes[m]) for m in c), pos)
    sums = (own[g[0]] if len(g) == 1 else Fraction(sum(map(nums.__getitem__, g)), den) for g in groups)
    return {key: p if exact else True for key, p in zip(keys, sums) if p}


def collapse(b: Behavior) -> PossibilisticBehavior:
    """Possibilistic collapse: keep which cells carry positive probability."""
    return PossibilisticBehavior(
        scenario=b.scenario,
        tables=tuple(tuple(map(bool, nums)) for nums, _ in b._ints),  # cells are never negative
        metadata=b.metadata,
    )


def check_nondisturbance(b: Behavior) -> DisturbanceReport:
    """Exact nondisturbance: overlapping contexts share their marginals on
    their full intersection, hence on every smaller common subset. Reports
    the first violation (see _nd_walk), its values as Fractions.

    :raises InvalidBehavior: if b is a PossibilisticBehavior.
    """
    require_probabilistic(b)
    return _nd_walk(b, exact=True)


def check_possibilistic_nd(pb: AnyBehavior) -> DisturbanceReport:
    """Possibilistic nondisturbance: OR-marginals agree across contexts; a
    Behavior is read through its support. Reports the first violation (see
    _nd_walk), its values as bools."""
    return _nd_walk(pb, exact=False)


def require_probabilistic(b: AnyBehavior) -> None:
    """Raise InvalidBehavior if b is a PossibilisticBehavior, which carries no
    probabilities for a question to read."""
    if isinstance(b, PossibilisticBehavior):
        raise InvalidBehavior("this question needs probability tables, not a possibilistic behavior")


def require_nondisturbing(b: AnyBehavior) -> None:
    """Raise at the first disagreement between overlapping contexts.

    :raises NotNondisturbing: if a Behavior's marginals disagree.
    :raises NotPossibilisticallyND: if a PossibilisticBehavior's OR-marginals disagree.
    """
    exact = isinstance(b, Behavior)
    v = (check_nondisturbance if exact else check_possibilistic_nd)(b).violation
    if v is not None:
        c = b.scenario.contexts
        values = f": {v.value_a} vs {v.value_b}" if exact else ""
        raise (NotNondisturbing if exact else NotPossibilisticallyND)(
            f"contexts {c[v.context_a]} and {c[v.context_b]} disagree on {v.measurements}={v.outcomes}{values}"
        )


def _overlaps(contexts: tuple[tuple, ...]) -> Iterator[tuple[int, int, tuple]]:
    """(i, j, shared) for every pair of contexts i < j sharing a measurement,
    in stored order; shared lists the common measurements in context i's order."""
    containing: dict = {}
    for j, c in enumerate(contexts):
        for m in c:
            containing.setdefault(m, set()).add(j)
    for i, c in enumerate(contexts):
        for j in sorted({j for m in c for j in containing[m] if j > i}):
            yield i, j, tuple(m for m in c if j in containing[m])


def _nd_walk(b: AnyBehavior, exact: bool) -> DisturbanceReport:
    """The report of the first disagreement between overlapping contexts'
    marginals, pairs in _nd_plan order and joint outcomes in cell order.

    Each table is read as integers over a scale: a Behavior's integer view
    (numerators over each table's lcm), a PossibilisticBehavior's bools over
    scale 1. With exact, each cell group's sum times the other table's scale
    is compared and reported as a Fraction; otherwise each group's OR, over
    scale 1, is compared and reported as a bool.
    """
    s = b.scenario
    if isinstance(b, Behavior):  # an OR reads the support alone, over scale 1
        scaled = b._ints if exact else [(nums, 1) for nums, _ in b._ints]
    else:
        scaled = [(t, 1) for t in b.tables]
    fold = sum if exact else any
    for i, j, shared, groups_i, groups_j in _nd_plan(*index_shape(s)):
        (ta, da), (tb, db) = scaled[i], scaled[j]
        va = [fold(map(ta.__getitem__, g)) * db for g in groups_i]
        vb = [fold(map(tb.__getitem__, g)) * da for g in groups_j]
        if va != vb:
            k = next(k for k, (x, y) in enumerate(zip(va, vb)) if x != y)
            measurements = tuple(s.measurements[q] for q in shared)
            joint = next(itertools.islice(joint_outcomes(s, measurements), k, None))
            value = (lambda x: Fraction(x, da * db)) if exact else bool
            return DisturbanceReport(False, Violation(i, j, measurements, joint, value(va[k]), value(vb[k])))
    return DisturbanceReport(ok=True)


def _numerators(t: tuple[Fraction, ...]) -> tuple[tuple[int, ...], int]:
    """A table as numerators over the lcm of its denominators, and that lcm."""
    den = math.lcm(*{p.denominator for p in t})
    return tuple([p.numerator * (den // p.denominator) for p in t]), den


@lru_cache(maxsize=1024)
def _cell_groups(radices: tuple[int, ...], where: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """A context's cells (outcome counts radices) grouped by their joint
    outcome at the positions where, groups in that joint outcome's order."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for cell, digits in enumerate(itertools.product(*map(range, radices))):
        groups.setdefault(tuple(digits[w] for w in where), []).append(cell)
    return tuple(tuple(groups[key]) for key in sorted(groups))


@lru_cache(maxsize=256)
def _nd_plan(radices: tuple[int, ...], ctx_positions: tuple[tuple[int, ...], ...]) -> tuple:
    """_overlaps of one shape, as (i, j, shared, groups_i, groups_j) with
    shared in measurement positions and groups_c context c's cells grouped by
    their joint outcome on shared (see _cell_groups)."""
    local = [tuple(radices[q] for q in positions) for positions in ctx_positions]
    plan = []
    for i, j, shared in _overlaps(ctx_positions):
        groups = (_cell_groups(local[c], tuple(map(ctx_positions[c].index, shared))) for c in (i, j))
        plan.append((i, j, shared, *groups))
    return tuple(plan)


# -- JSON -------------------------------------------------------------------


def _parse_rational(raw) -> Fraction:
    if isinstance(raw, bool):
        raise InvalidBehavior(f"probability {shown(raw)} is not a number or rational string")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        # Fraction builds 10**exponent exactly, so one short string could stall the loader.
        if "e" in raw or "E" in raw:
            raise InvalidBehavior(f"probability {shown(raw)} has an exponent; write it as 'num/den' or a decimal")
        num, _, den = raw.partition("/")
        try:
            if raw.isascii() and num.isdigit() and (den.isdigit() or num == raw):  # 'n' or 'n/d', plain digits
                return Fraction(int(num), int(den or 1))
            return Fraction(raw)
        except ValueError:
            raise InvalidBehavior(f"cannot parse probability {shown(raw)}") from None
        except ZeroDivisionError:
            raise InvalidBehavior(f"probability {shown(raw)} has a zero denominator") from None
    raise InvalidBehavior(f"probability {shown(raw)} must be an int or a 'num/den' string")


def _is_list_of(value, kind: type) -> bool:
    return isinstance(value, list) and all(isinstance(x, kind) for x in value)


def behavior_from_json_dict(
    data: dict, base_dir: str | None = None, cap: int | None = None
) -> AnyBehavior:
    """Build a (possibly possibilistic) behavior from its JSON object form.

    The "scenario" entry is either an inline scenario object or a path,
    resolved relative to base_dir. Each table entry names its context by its
    measurements (any order, none repeated) and gives either "probs", a map
    from comma-joined outcome labels to rationals with omitted cells read as
    0, or "possible", a list of outcome label tuples; labels follow the
    entry's measurement order.

    :raises EnumerationCapExceeded: if some context has more joint outcomes
        than cap (default: default_cap()); checked before its table is
        allocated.
    :raises ValueError: if cap is below 1.
    """
    cap = resolve_cap(cap)
    if not isinstance(data, dict):
        raise InvalidBehavior("behavior JSON must be an object")
    if "scenario" not in data or "tables" not in data:
        raise InvalidBehavior("behavior JSON needs 'scenario' and 'tables'")
    sval = data["scenario"]
    if isinstance(sval, str):
        scenario = load_scenario(sval if base_dir is None else os.path.join(base_dir, sval))
    else:
        scenario = Scenario.from_json_dict(sval)

    entries = data["tables"]
    if not isinstance(entries, list):
        raise InvalidBehavior("'tables' must be a list")
    by_set: dict[frozenset, dict] = {}
    for entry in entries:
        if not isinstance(entry, dict) or "context" not in entry:
            raise InvalidBehavior("each table entry needs a 'context'")
        if not _is_list_of(entry["context"], str):
            raise InvalidBehavior(f"'context' must be a list of strings, got {shown(entry['context'])}")
        key = frozenset(entry["context"])
        if len(key) != len(entry["context"]):
            raise InvalidBehavior(f"table context {shown(entry['context'])} repeats a measurement")
        if key in by_set:
            raise InvalidBehavior(f"duplicate table for context {shown(sorted(key))}")
        by_set[key] = entry

    kinds = {("probs" in e, "possible" in e) for e in by_set.values()}
    if kinds not in ({(True, False)}, {(False, True)}):
        raise InvalidBehavior("every table entry needs exactly one of 'probs' or 'possible'")
    possibilistic = kinds == {(False, True)}

    zero = False if possibilistic else Fraction(0)
    tables = []
    for i, context in enumerate(scenario.contexts):
        entry = by_set.pop(frozenset(context), None)
        if entry is None:
            raise InvalidBehavior(f"no table for context {shown(context)}")
        given = tuple(entry["context"])
        cells = scenario.context_cells(i)
        if cells > cap:
            raise EnumerationCapExceeded(f"context {shown(context)} has {cells} joint outcomes, more than the cap {cap}")
        if possibilistic:
            if not _is_list_of(entry["possible"], list):
                raise InvalidBehavior(f"'possible' for context {shown(given)} must be a list of lists")
            pairs = ((tuple(map(str, labels)), True) for labels in entry["possible"])
        else:
            if not isinstance(entry["probs"], dict):
                raise InvalidBehavior(f"'probs' for context {shown(given)} must be an object")
            pairs = ((tuple(key.split(",")), _parse_rational(raw)) for key, raw in entry["probs"].items())
        order = tuple(map(given.index, context))
        table = [zero] * cells
        for joint, value in pairs:
            if len(joint) != len(given):
                raise InvalidBehavior(f"outcome tuple {shown(joint)} does not match context {shown(given)}")
            table[cell_index(scenario, context, tuple(map(joint.__getitem__, order)))] = value
        tables.append(tuple(table))
    if by_set:
        extra = [sorted(k) for k in by_set]
        raise InvalidBehavior(f"tables given for unknown contexts: {shown(extra)}")

    cls = PossibilisticBehavior if possibilistic else Behavior
    return cls(scenario, tuple(tables), metadata=data.get("metadata"))


def behavior_to_json_dict(b: AnyBehavior) -> dict:
    """Serialize a behavior with an inline scenario; zero cells are omitted.

    :raises InvalidBehavior: if b is a Behavior with an outcome label that
        contains ',', which comma-joined "probs" keys cannot hold.
    """
    s = b.scenario
    comma = [o for labels in s.outcomes.values() for o in labels if "," in o]
    if comma and isinstance(b, Behavior):
        raise InvalidBehavior(f"outcome label {shown(comma[0])} contains ',', which a 'probs' key cannot hold")
    tables = []
    for i, context in enumerate(s.contexts):
        entry: dict = {"context": list(context)}
        cells = _project(b, i, context)
        if isinstance(b, PossibilisticBehavior):
            entry["possible"] = [list(joint) for joint in cells]
        else:
            entry["probs"] = {",".join(joint): str(p) for joint, p in cells.items()}
        tables.append(entry)
    out = {"scenario": s.to_json_dict(), "tables": tables}
    if b.metadata is not None:
        out["metadata"] = b.metadata
    return out


def load_behavior(path: str, cap: int | None = None) -> AnyBehavior:
    """Read a behavior (probabilistic or possibilistic) from a JSON file;
    cap bounds each context table as in behavior_from_json_dict."""
    data = read_json(path, InvalidBehavior)
    return behavior_from_json_dict(data, base_dir=os.path.dirname(os.path.abspath(path)), cap=cap)


def save_behavior(b: AnyBehavior, path: str) -> None:
    """Serialize a behavior with an inline scenario, then write it to a JSON file."""
    text = json.dumps(behavior_to_json_dict(b), indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
