"""Compatibility scenarios and the graph algorithms that gate every theorem.

A scenario is a triple (X, C, O): a finite set of measurements X, a family of
contexts C (sets of jointly measurable measurements forming an antichain that
covers X), and a finite outcome label list per measurement. Contexts are
stored as ordered tuples; that order fixes how joint-outcome tables are keyed
everywhere else in the package.

A scenario is *simple* when every context has exactly two measurements; its
compatibility graph then has measurements as vertices and contexts as edges.
Simple scenarios admit contextual behaviors exactly when that graph contains
a cycle, and the paradox detectors scan induced (chordless) cycles, so this
module also provides chordless-cycle enumeration and cycle traversal.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import ContextualityError, InvalidArgument, InvalidScenario, NonDichotomic, NonSimpleScenario, NotCycle
from .errors import require_ints, shown, shown_path

DEFAULT_CAP = 1 << 24


def default_cap() -> int:
    """The enumeration cap: CTX_CAP from the environment, else 2^24."""
    return resolve_cap(None)


def resolve_cap(cap: int | None) -> int:
    """cap, or CTX_CAP from the environment (else 2^24) when it is None: the
    bound on the global assignments a listing enumerates and on a context table's cells.

    :raises ValueError: if cap, or CTX_CAP when read, is not an integer >= 1.
    """
    name = "cap"
    if cap is None:
        name, raw = "CTX_CAP", os.environ.get("CTX_CAP", str(DEFAULT_CAP))
        try:
            cap = int(raw)
        except ValueError:
            raise InvalidArgument(f"CTX_CAP must be an integer, got {shown(raw)}") from None
    require_ints(cap=cap)
    if cap < 1:
        raise InvalidArgument(f"{name} must be positive, got {cap}")
    return cap


@dataclass(frozen=True)
class Scenario:
    """A compatibility scenario (X, C, O).

    :param measurements: ordered measurement labels, the set X.
    :param outcomes: map measurement label -> ordered tuple of outcome labels.
    :param contexts: ordered tuple of contexts; each context is an ordered
        tuple of measurement labels. The stored order of a context is the key
        order of every joint-outcome table attached to it.

    index_shape stores the index shape as _shape at its first read: not a
    field, so repr, == and hash read the fields alone; pickles and copies keep it.
    """

    measurements: tuple[str, ...]
    outcomes: dict[str, tuple[str, ...]]
    contexts: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "measurements", tuple(self.measurements))
        object.__setattr__(
            self, "outcomes", {m: tuple(v) for m, v in self.outcomes.items()}
        )
        object.__setattr__(self, "contexts", tuple(tuple(c) for c in self.contexts))
        self._validate()

    def __hash__(self) -> int:
        # outcomes is a dict, equal whatever its key order: hash it in measurement order.
        return hash((self.measurements, tuple(map(self.outcomes.__getitem__, self.measurements)), self.contexts))

    def _validate(self) -> None:
        if not self.measurements:
            raise InvalidScenario("scenario has no measurements")
        if len(set(self.measurements)) != len(self.measurements):
            raise InvalidScenario("duplicate measurement labels")
        mset = set(self.measurements)
        if set(self.outcomes) != mset:
            missing = sorted(mset - set(self.outcomes)) or sorted(set(self.outcomes) - mset)
            raise InvalidScenario(f"outcome map does not match measurements: {shown(missing)}")
        for m in self.measurements:
            labels = self.outcomes[m]
            if len(labels) < 2 or len(set(labels)) != len(labels):
                raise InvalidScenario(f"measurement {shown(m)} needs >= 2 distinct outcome labels")
        if not self.contexts:
            raise InvalidScenario("scenario has no contexts")
        # A context's supersets hold all its measurements: no pair is compared.
        containing: dict[str, set[int]] = {m: set() for m in self.measurements}
        for j, c in enumerate(self.contexts):
            if not c:
                raise InvalidScenario("empty context")
            if len(set(c)) != len(c):
                raise InvalidScenario(f"context {shown(c)} repeats a measurement")
            for m in c:
                if m not in mset:
                    raise InvalidScenario(f"context {shown(c)} uses unknown measurement {shown(m)}")
                containing[m].add(j)
        uncovered = [m for m in sorted(mset) if not containing[m]]
        if uncovered:
            raise InvalidScenario(f"measurements not covered by any context: {shown(uncovered)}")
        for i, c in enumerate(self.contexts):
            supersets = set.intersection(*(containing[m] for m in c))  # holds i itself
            if len(supersets) > 1:
                raise InvalidScenario(
                    f"contexts must form an antichain: {shown(c)} within {shown(self.contexts[min(supersets - {i})])}"
                )

    # -- derived views ----------------------------------------------------

    @property
    def is_simple(self) -> bool:
        """True when every context has exactly two measurements."""
        return all(len(c) == 2 for c in self.contexts)

    def outcome_index(self, measurement: str, label: str) -> int:
        """Position of an outcome label in its measurement's outcome list."""
        try:
            return self.outcomes[measurement].index(label)
        except ValueError:
            raise InvalidScenario(f"unknown outcome {shown(label)} for measurement {shown(measurement)}") from None

    def context_cells(self, context_index: int) -> int:
        """Number of joint outcomes of one context."""
        return math.prod(len(self.outcomes[m]) for m in self.contexts[context_index])

    # -- JSON --------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "measurements": list(self.measurements),
            "outcomes": {m: list(v) for m, v in self.outcomes.items()},
            "contexts": [list(c) for c in self.contexts],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Scenario":
        if not isinstance(data, dict):
            raise InvalidScenario("scenario JSON must be an object")
        for key in ("measurements", "outcomes", "contexts"):
            if key not in data:
                raise InvalidScenario(f"scenario JSON missing {key!r}")
        try:
            lists = [data["measurements"], data["contexts"], *data["contexts"]]
            if any(isinstance(v, str) for v in [*lists, *data["outcomes"].values()]):
                raise InvalidScenario("scenario JSON has a string where a list of labels belongs")
            return cls(
                measurements=tuple(str(m) for m in data["measurements"]),
                outcomes={str(m): tuple(str(o) for o in v) for m, v in data["outcomes"].items()},
                contexts=tuple(tuple(str(m) for m in c) for c in data["contexts"]),
            )
        except (TypeError, AttributeError) as exc:
            raise InvalidScenario(f"malformed scenario JSON: {exc}") from exc


def read_json(path: str, error: type[ContextualityError]):
    """The JSON value in the file at path; error, naming path (by shown_path),
    if path holds NUL or the file is not UTF-8 JSON within the parser's
    nesting and digit limits."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise error(f"{shown_path(path)}: JSON nests too deeply to parse") from None
    except ValueError as e:  # open's NUL check, UnicodeDecodeError, JSONDecodeError, int digits
        raise error(f"{shown_path(path)}: cannot read JSON: {e}") from None


def load_scenario(path: str) -> Scenario:
    """Read a scenario from a JSON file."""
    return Scenario.from_json_dict(read_json(path, InvalidScenario))


def index_shape(s: Scenario) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Outcome counts and context positions, built at most once per scenario
    (see Scenario) and one object for equal scenarios (_interned_shape)."""
    try:
        return s._shape
    except AttributeError:
        shape = _interned_shape(s.measurements, tuple(len(s.outcomes[m]) for m in s.measurements), s.contexts)
        object.__setattr__(s, "_shape", shape)
        return shape


@lru_cache(maxsize=256)
def _interned_shape(measurements: tuple[str, ...], radices: tuple[int, ...], contexts: tuple) -> tuple:
    """index_shape of the scenarios with these labels and outcome counts."""
    index = {m: q for q, m in enumerate(measurements)}
    return radices, tuple(tuple(map(index.__getitem__, c)) for c in contexts)


# -- shape guards -----------------------------------------------------------


def require_pairs(s: Scenario) -> None:
    """Raise NonSimpleScenario unless every context of s is a pair."""
    for c in s.contexts:
        if len(c) != 2:
            raise NonSimpleScenario(f"context {shown(c)} has {len(c)} measurements, need exactly 2")


def require_dichotomic(s: Scenario, measurements: Iterable[str] | None = None) -> None:
    """Raise NonDichotomic unless every measurement (default: all of s's) has
    exactly two outcomes."""
    for m in s.measurements if measurements is None else measurements:
        if len(s.outcomes[m]) != 2:
            raise NonDichotomic(f"measurement {shown(m)} has {len(s.outcomes[m])} outcomes, need 2")


# -- standard families ------------------------------------------------------


def make_n_cycle(n: int, l: int = 2) -> Scenario:
    """The n-cycle scenario: measurements M1..Mn, contexts {M_i, M_(i+1)}.

    :param n: number of measurements, at least 3. n=4 with l=2 is the CHSH
        scenario, n=5 with l=2 is KCBS.
    :param l: outcomes per measurement, at least 2, labeled "0".."l-1".
    """
    require_ints(InvalidScenario, n=n, l=l)
    if n < 3:
        raise InvalidScenario(f"n-cycle needs n >= 3, got {n}")
    if l < 2:
        raise InvalidScenario(f"n-cycle needs l >= 2 outcomes, got {l}")
    names = tuple(f"M{i}" for i in range(1, n + 1))
    labels = tuple(str(o) for o in range(l))
    contexts = tuple((names[i], names[(i + 1) % n]) for i in range(n))
    return Scenario(names, {m: labels for m in names}, contexts)


def make_bipartite_bell(k: int, l: int = 2) -> Scenario:
    """The bipartite Bell scenario (2, k, l): complete bipartite compatibility.

    Measurements A1..Ak and B1..Bk, each with l outcomes; every pair
    {A_i, B_j} is a context, so the compatibility graph is K_{k,k}.
    """
    require_ints(InvalidScenario, k=k, l=l)
    if k < 2:
        raise InvalidScenario(f"bipartite Bell needs k >= 2 settings, got {k}")
    if l < 2:
        raise InvalidScenario(f"bipartite Bell needs l >= 2 outcomes, got {l}")
    alice = tuple(f"A{i}" for i in range(1, k + 1))
    bob = tuple(f"B{j}" for j in range(1, k + 1))
    labels = tuple(str(o) for o in range(l))
    contexts = tuple((a, b) for a in alice for b in bob)
    return Scenario(alice + bob, {m: labels for m in alice + bob}, contexts)


# -- cycle structure ---------------------------------------------------------


@dataclass(frozen=True)
class CycleDecomposition:
    """All induced cycles of a simple scenario's compatibility graph.

    Each cycle is an ordered measurement tuple whose consecutive pairs (and
    the last-first pair) are contexts and which has no chord. Cycles are
    canonicalized: smallest label first, then the direction whose second
    label is smaller, and the list is sorted. is_acyclic is true exactly
    when the list is empty.
    """

    cycles: tuple[tuple[str, ...], ...]
    is_acyclic: bool


def chordless_cycles(s: Scenario) -> CycleDecomposition:
    """Enumerate every chordless cycle of a simple scenario (see _chordless).

    Exponential in the worst case; intended for desk-scale graphs.

    :raises NonSimpleScenario: if some context does not have exactly two
        measurements.
    """
    require_pairs(s)
    found = tuple(_chordless(s))
    return CycleDecomposition(cycles=found, is_acyclic=not found)


def _chordless(s: Scenario) -> Iterator[tuple[str, ...]]:
    """Yield the chordless cycles of a simple scenario, in CycleDecomposition's
    canonical form and order.

    A depth-first search from each start vertex over paths confined to
    larger labels prunes any extension adjacent to an interior path vertex
    (that edge would be a chord). Adjacency to the start closes a cycle,
    kept when its second label precedes its last, and is never extended.
    Starts and neighbours are taken in label order, so the cycles come out
    sorted with no sort, and a caller may stop at the first it wants. The
    search keeps its own stack, so no recursion limit bounds a path, and
    counts each vertex's interior neighbours, so a chord test is one lookup.
    """
    adj: dict[str, set[str]] = {m: set() for m in s.measurements}
    for u, v in s.contexts:
        adj[u].add(v)
        adj[v].add(u)
    near = dict.fromkeys(s.measurements, 0)
    for start in sorted(s.measurements):
        path, members, branches = [start], {start}, [iter(sorted(adj[start]))]
        while branches:
            y = next(branches[-1], None)
            if y is None:
                branches.pop()
                members.discard(path.pop())
                for z in adj[path[-1]] if len(path) > 1 else ():  # the new last vertex leaves the interior
                    near[z] -= 1
            elif y <= start or y in members or near[y]:
                continue  # not larger than the start, on the path, or a chord
            elif len(path) > 1 and y in adj[start]:
                if path[1] < y:
                    yield (*path, y)  # extending past y would leave the chord start-y
            else:
                for z in adj[path[-1]] if len(path) > 1 else ():  # the last vertex joins the interior
                    near[z] += 1
                path.append(y)
                members.add(y)
                branches.append(iter(sorted(adj[y])))


def traverse_cycle(s: Scenario) -> tuple[tuple[int, tuple[str, str]], ...]:
    """Orient a scenario whose compatibility graph is one single cycle.

    Returns the traversal as ((context position, (u, v)), ...) of length n,
    starting from the first stored context in its stored orientation and
    walking the cycle until it closes. Positions index into s.contexts.
    The walk is cached by (measurements, contexts), so outcomes play no
    part; scenarios that fail the count test are never cached.

    :raises NotCycle: if the graph is not a single cycle covering all
        measurements (every vertex degree 2, n contexts, connected).
    """
    n = len(s.measurements)
    if len(s.contexts) != n or n < 3 or not s.is_simple:
        raise NotCycle(f"need n measurements and n 2-element contexts, got {len(s.contexts)} contexts on {n}")
    walk = _cycle_walk(s.measurements, s.contexts)
    if isinstance(walk, str):
        raise NotCycle(walk)
    return walk


@lru_cache(maxsize=256)
def _cycle_walk(
    measurements: tuple[str, ...], contexts: tuple[tuple[str, str], ...]
) -> tuple[tuple[int, tuple[str, str]], ...] | str:
    """traverse_cycle's walk over n pairs on n >= 3 measurements, or the
    NotCycle message when the pairs are not one cycle."""
    incident: dict[str, list[int]] = {m: [] for m in measurements}
    for pos, (u, v) in enumerate(contexts):
        incident[u].append(pos)
        incident[v].append(pos)
    for m, lst in incident.items():
        if len(lst) != 2:
            return f"measurement {shown(m)} lies in {len(lst)} contexts, need exactly 2"
    u, cur = contexts[0]
    order, prev_pos = [(0, (u, cur))], 0
    for _ in range(len(measurements) - 1):
        nxt_pos = incident[cur][0] if incident[cur][1] == prev_pos else incident[cur][1]
        a, b = contexts[nxt_pos]
        w = b if a == cur else a
        order.append((nxt_pos, (cur, w)))
        prev_pos = nxt_pos
        cur = w
    if cur != u or len({p for p, _ in order}) != len(measurements):
        return "compatibility graph is not one single cycle"
    return tuple(order)
