"""The benchmark's workloads: seeded inputs, the timed item, and verdict checks.

Every input comes from `random.Random(seed)` and the library's generators, so
one seed gives one input set. A pool is a list of rounds, and a round holds one
item per slot of the workload's fixed mix; runs stop on a round boundary, so
every run measures the same mix whatever the seed.

A workload object has four methods:

* `generate(seed)` builds the pool; `warmup(pool)` runs a small fixed part of
  it once. Both are set-up.
* `run(item)` is the timed call; it returns a summary of the program's output.
* `check(item, result)` runs after timing and returns None or a message
  saying why the output is wrong. It uses facts known from how the input was
  built, or a second route through the library that shares no code with the
  timed call.

`REFERENCE` names the host-speed reference (see hostspeed.py) that matches
the workload's dominant cost.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import contextuality as ctx
from contextuality import cli as ctx_cli


@dataclass
class Item:
    """One input. data is what the timed call receives; behavior and expect
    hold what the checks need (the generated behavior, and flags known from
    how it was built)."""

    label: str
    data: object
    behavior: object = None
    expect: dict = field(default_factory=dict)
    cycle: bool = False
    dichotomic: bool = False


def _is_cycle(s) -> bool:
    try:
        ctx.traverse_cycle(s)
    except ctx.NotCycle:
        return False
    return True


def _is_dichotomic(s) -> bool:
    return all(len(s.outcomes[m]) == 2 for m in s.measurements)


def _to_json(b) -> str:
    return json.dumps(ctx.behavior_to_json_dict(b), sort_keys=True)


def _mix(parts, weights):
    """Convex mixture of behaviors on one scenario, in exact rationals."""
    s = parts[0].scenario
    total = sum(weights)
    tables = []
    for ci in range(len(s.contexts)):
        cells = [Fraction(0)] * len(parts[0].tables[ci])
        for w, part in zip(weights, parts):
            for k, p in enumerate(part.tables[ci]):
                cells[k] += Fraction(w, total) * p
        tables.append(tuple(cells))
    return ctx.Behavior(s, tuple(tables))


def _quantum_odd(rng: random.Random, n: int):
    """A seeded odd-cycle model; degenerate parameter draws are redrawn."""
    while True:
        eta, v3 = (tuple(rng.uniform(-1.0, 1.0) for _ in range(3)) for _ in range(2))
        thetas = tuple(rng.uniform(-math.pi, math.pi) for _ in range((n - 3) // 2))
        params = ctx.OddCycleParams(n, eta, v3, thetas)
        try:
            return params, ctx.build_odd_cycle(params)[1]
        except (ctx.DegenerateParams, ctx.InvalidModel, ctx.NegativeProbability):
            continue


# -- classify ------------------------------------------------------------------

# The fixtures module documents these: bell is not logically contextual,
# hardy is but is not strongly contextual, pr-box is strongly contextual, and
# the two quantum fixtures carry a paradox with positive probability.
FIXTURE_FLAGS = {
    "bell": {"lc": False, "sc": False},
    "hardy": {"lc": True, "sc": False},
    "pr-box": {"lc": True, "sc": True},
    "cabello5": {"lc": True, "sc": False},
    "hardy4": {"lc": True, "sc": False},
}


class Classify:
    """Seeded nondisturbing behaviors, each parsed from behavior JSON and
    classified at every level; the exact LP is the dominant cost.

    Each slot draws until the support size (the LP's column count) falls in
    the slot's band, so the LP cost of a slot varies little between seeds and
    the mix spans supports of 2 to 32 columns.
    """

    # (family, shape, source, smallest and largest support); one item per slot per round
    SLOTS = (
        ("cycle", (4, 2), "coupling", 4, 6),
        ("cycle", (4, 2), "mixture_pr", 5, 8),
        ("cycle", (6, 2), "coupling", 9, 12),
        ("cycle", (6, 2), "mixture", 4, 6),
        ("cycle", (6, 2), "mixture_pr", 9, 13),
        ("cycle", (8, 2), "coupling", 16, 24),
        ("cycle", (8, 2), "mixture_pr", 11, 16),
        ("cycle", (10, 2), "coupling", 24, 32),
        ("cycle", (10, 2), "mixture_pr", 16, 24),
        ("cycle", (12, 2), "mixture", 8, 16),
        ("cycle", (4, 3), "coupling", 12, 16),
        ("cycle", (5, 3), "coupling", 18, 24),
        ("cycle", (6, 3), "coupling", 24, 32),
        ("cycle", (6, 3), "mixture", 9, 14),
        ("bell", (2, 2), "coupling", 4, 6),
        ("bell", (3, 2), "coupling", 8, 12),
        ("bell", (4, 2), "mixture", 4, 8),
        ("bell", (2, 3), "coupling", 10, 14),
        ("bell", (3, 3), "mixture", 2, 4),
        ("tree", None, "coupling", 8, 16),
        ("tree", None, "mixture", 2, 6),
        ("quantum", None, "odd", 0, None),
        ("quantum", None, "even", 0, None),
        ("fixture", None, None, 0, None),
    )
    ODD = (5, 7, 9)
    EVEN = (4, 6, 8)
    MAX_DRAWS = 1000
    WARMUP_COLUMNS = 8
    REFERENCE = "python"

    def __init__(self, tiny: bool) -> None:
        self.rounds = 1 if tiny else 16
        self.trace_rounds = max(1, self.rounds // 2)

    def _draw(self, slot, rng: random.Random, r: int) -> Item:
        family, shape, source, lo, hi = slot
        expect: dict = {}
        if family == "fixture":
            name = sorted(FIXTURE_FLAGS)[r % len(FIXTURE_FLAGS)]
            b = ctx.fixture(name)
            expect = dict(FIXTURE_FLAGS[name])
            label = f"fixture/{name}"
        elif family == "quantum":
            if source == "odd":
                n = self.ODD[r % len(self.ODD)]
                _, b = _quantum_odd(rng, n)
            else:
                n = self.EVEN[r % len(self.EVEN)]
                _, b = ctx.build_even_cycle(ctx.EvenCycleParams(n, rng.uniform(0.05, math.pi / 4 - 0.05)))
            label = f"quantum-{source}-{n}"
        else:
            for _ in range(self.MAX_DRAWS):
                if family == "cycle":
                    s = ctx.make_n_cycle(*shape)
                elif family == "bell":
                    s = ctx.make_bipartite_bell(*shape)
                else:
                    s = ctx.random_tree_scenario(rng)
                if source == "coupling":
                    b = ctx.random_nd_coupling(s, rng)
                else:
                    b = ctx.random_nd_mixture(s, rng, include_pr=source == "mixture_pr")
                if lo <= ctx.support_size(b) <= hi:
                    break
            else:
                raise RuntimeError(f"no draw of {slot} in {self.MAX_DRAWS} had its support in band")
            if source == "mixture" or family == "tree":
                expect = {"nc": True, "lc": False, "sc": False}
            label = f"{family}{''.join(f'-{x}' for x in shape or ())}/{source}"
        s = b.scenario
        return Item(label, _to_json(b), b, expect, _is_cycle(s), _is_dichotomic(s))

    def generate(self, seed: int) -> list[list[Item]]:
        rng = random.Random(seed)
        return [[self._draw(slot, rng, r) for slot in self.SLOTS] for r in range(self.rounds)]

    def warmup(self, pool) -> None:
        # the first round's small-LP items: every code path once, cheaply
        for item in pool[0]:
            if ctx.support_size(item.behavior) <= self.WARMUP_COLUMNS:
                self.run(item)

    def run(self, item: Item):
        b = ctx.behavior_from_json_dict(json.loads(item.data))
        report = ctx.hierarchy(b, level="all")
        value = ctx.evaluate_all(b).max_value if item.cycle and item.dichotomic else None
        return (
            report.nd,
            report.nc,
            report.logically_contextual,
            report.strongly_contextual,
            report.support_size,
            value,
        )

    def check(self, item: Item, result) -> str | None:
        nd, nc, lc, sc, size, value = result
        b = item.behavior
        s = b.scenario
        if ctx.behavior_from_json_dict(json.loads(item.data)) != b:
            return "behavior JSON did not round-trip"
        if not nd:
            return "a nondisturbing behavior was reported disturbing"
        if sc != (size == 0):
            return f"sc={sc} but support size {size}"
        if (sc and not lc) or (lc and nc):
            return f"flags break sc => lc => not nc: nc={nc} lc={lc} sc={sc}"
        got = {"nc": nc, "lc": lc, "sc": sc}
        for key, want in item.expect.items():
            if got[key] != want:
                return f"{key}={got[key]}, but the input was built with {key}={want}"
        if item.cycle:
            cert = ctx.detect_cycle_paradox(b)
            if (cert is not None) != lc:
                return f"lc={lc} but the cycle detector found {cert is not None}"
            if cert is not None and not ctx.verify_certificate(b, cert):
                return "cycle certificate failed verification"
            if item.dichotomic:
                n = len(s.contexts)
                if (value <= n - 2) != nc:
                    return f"nc={nc} but the facet maximum is {value} against bound {n - 2}"
                if (ctx.classify_strong_contextuality(b) is not None) != sc:
                    return f"sc={sc} disagrees with the box classification"
        elif s.is_simple and item.dichotomic:
            found = ctx.detect_simple_scenario_paradox(b)
            if (found is not None) != lc:
                return f"lc={lc} but the simple-scenario detector found {found is not None}"
        return None


# -- scan ----------------------------------------------------------------------


class Scan:
    """Deterministic behaviors, and mixtures of a few deterministic ones that
    differ at every measurement, on large assignment spaces. The support has
    exactly as many members as components, so the LP is trivial and the
    assignment enumeration dominates."""

    SHAPES = ((10, 2), (12, 2), (14, 2), (18, 2), (8, 3), (9, 3), (10, 3), (11, 3), (13, 3))
    TINY_SHAPES = ((10, 2), (8, 3))
    WARMUP_ASSIGNMENTS = 1 << 13
    REFERENCE = "numpy"

    def __init__(self, tiny: bool) -> None:
        self.rounds = 1 if tiny else 3
        self.trace_rounds = self.rounds
        self.shapes = self.TINY_SHAPES if tiny else self.SHAPES

    @staticmethod
    def _items(shape, r: int, rng: random.Random) -> list[Item]:
        n, l = shape
        s = ctx.make_n_cycle(n, l)
        # the component count is fixed by the round, so every seed scans the same mix
        k = 2 if l == 2 else (2, 3)[r % 2]
        # per measurement, k distinct outcomes: component j takes the j-th
        columns = {m: rng.sample(s.outcomes[m], k) for m in s.measurements}
        parts = [ctx.deterministic_behavior(s, {m: columns[m][j] for m in s.measurements}) for j in range(k)]
        weights = [rng.randint(1, 9) for _ in range(k)]
        expect = {"nd": True, "nc": True, "lc": False, "sc": False}
        return [
            Item(f"cycle-{n}-{l}/deterministic", parts[0], expect=dict(expect, support=1)),
            Item(f"cycle-{n}-{l}/mixture-{k}", _mix(parts, weights), expect=dict(expect, support=k)),
        ]

    def generate(self, seed: int) -> list[list[Item]]:
        rng = random.Random(seed)
        return [[it for shape in self.shapes for it in self._items(shape, r, rng)] for r in range(self.rounds)]

    def warmup(self, pool) -> None:
        # the first round's cheapest shapes; every shape's engine is cheap to build
        for item in pool[0]:
            if ctx.enumeration_size(item.data.scenario) <= self.WARMUP_ASSIGNMENTS:
                self.run(item)

    def run(self, item: Item):
        r = ctx.hierarchy(item.data, level="all")
        return (r.nd, r.nc, r.logically_contextual, r.strongly_contextual, r.support_size, r.witness)

    def check(self, item: Item, result) -> str | None:
        nd, nc, lc, sc, size, witness = result
        got = {"nd": nd, "nc": nc, "lc": lc, "sc": sc, "support": size}
        for key, want in item.expect.items():
            if got[key] != want:
                return f"{key}={got[key]}, but the input was built with {key}={want}"
        if witness is not None:
            return f"a witness {witness} was reported for a noncontextual behavior"
        if ctx.detect_cycle_paradox(item.data) is not None:
            return "the cycle detector found a paradox in a noncontextual behavior"
        return None


# -- paradox -------------------------------------------------------------------


def _cycle_support_verdicts(pb) -> tuple[bool, bool]:
    """(logically contextual, strongly contextual) of a possibilistic table
    on an n-cycle, by boolean transfer matrices instead of the library's
    assignment scan.

    With the cycle walked as m0 -> m1 -> ... -> m0, A_k[a][b] says whether
    (m_k = a, m_k+1 = b) is possible. A global assignment in the support is
    a closed walk through possible cells, so a possible cell (a, b) of
    context k extends to one iff the product A_k+1 ... A_k-1 links b back to
    a. The table is logically contextual iff some possible cell does not
    extend, and strongly contextual iff none does.
    """
    s = pb.scenario
    mats = []
    for pos, (u, v) in ctx.traverse_cycle(s):
        nu, nv = len(s.outcomes[u]), len(s.outcomes[v])
        table = pb.tables[pos]
        if s.contexts[pos] == (u, v):
            mats.append([[table[a * nv + b] for b in range(nv)] for a in range(nu)])
        else:  # stored as (v, u)
            mats.append([[table[b * nu + a] for b in range(nv)] for a in range(nu)])

    def product(ms):
        out = ms[0]
        for m in ms[1:]:
            out = [[any(row[j] and m[j][c] for j in range(len(m))) for c in range(len(m[0]))] for row in out]
        return out

    possible = extends = 0
    for k, mat in enumerate(mats):
        back = product(mats[k + 1 :] + mats[:k])
        for a, row in enumerate(mat):
            for b, cell in enumerate(row):
                if cell:
                    possible += 1
                    extends += back[b][a]
    return extends < possible, extends == 0


class Paradox:
    """Seeded possibilistically nondisturbing tables, run through the chain
    detectors with certificate verification on hits and the box
    classification on dichotomic cycles. No LP and no enumeration."""

    SHAPES = tuple(("cycle", (n, l)) for n in range(4, 15) for l in (2, 3)) + tuple(
        ("bell", (k, 2)) for k in (2, 3, 4)
    )
    TINY_SHAPES = (("cycle", (4, 2)), ("cycle", (5, 3)), ("bell", (2, 2)))
    REFERENCE = "python"

    def __init__(self, tiny: bool) -> None:
        self.rounds = 1 if tiny else 48
        self.trace_rounds = self.rounds
        self.shapes = self.TINY_SHAPES if tiny else self.SHAPES

    def _round(self, rng: random.Random) -> list[Item]:
        items = []
        for family, shape in self.shapes:
            s = ctx.make_n_cycle(*shape) if family == "cycle" else ctx.make_bipartite_bell(*shape)
            items.append(
                Item(f"{family}-{shape[0]}-{shape[1]}", ctx.random_pnd(s, rng), cycle=family == "cycle", dichotomic=shape[1] == 2)
            )
        return items

    def generate(self, seed: int) -> list[list[Item]]:
        rng = random.Random(seed)
        return [self._round(rng) for _ in range(self.rounds)]

    def warmup(self, pool) -> None:
        for item in pool[0]:
            self.run(item)

    def run(self, item: Item):
        pb = item.data
        if item.cycle:
            cert = ctx.detect_cycle_paradox(pb)
        else:
            found = ctx.detect_simple_scenario_paradox(pb)
            cert = None if found is None else found.certificate
        verified = None if cert is None else ctx.verify_certificate(pb, cert)
        form = ctx.classify_strong_contextuality(pb) if item.cycle and item.dichotomic else None
        return (cert, verified, form)

    def check(self, item: Item, result) -> str | None:
        cert, verified, form = result
        pb = item.data
        if cert is not None and not verified:
            return "a paradox certificate failed verification"
        if item.cycle:
            lc, sc = _cycle_support_verdicts(pb)
        else:
            lc, sc = ctx.is_logically_contextual(pb), None
        if (cert is not None) != lc:
            return f"detector says paradox={cert is not None}, the support check says lc={lc}"
        if item.cycle and item.dichotomic and (form is not None) != sc:
            return f"box classification says sc={form is not None}, the support check says sc={sc}"
        return None


# -- cli -----------------------------------------------------------------------


class Cli:
    """A fixed mix of `ctx` commands, each in a fresh interpreter, one at a
    time. Inputs are seeded behavior files written at set-up. Five rounds of
    ten commands: at about 0.9 s a command, 100 would not fit the time the
    whole benchmark may take."""

    LAUNCH = "from contextuality.cli import main; main()"
    # A command is mostly interpreter start-up and imports; the python
    # reference follows the host's speed for those far worse.
    REFERENCE = "spawn"

    def __init__(self, tiny: bool, workdir: str) -> None:
        self.rounds = 1 if tiny else 5
        self.trace_rounds = 1
        self.workdir = workdir
        self.peak_child_kb = 0

    def _write(self, name: str, b) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_to_json(b))
        return path

    @staticmethod
    def _small_nd(rng: random.Random):
        while True:
            s = ctx.make_n_cycle(rng.randint(4, 6)) if rng.random() < 0.7 else ctx.make_bipartite_bell(2)
            b = ctx.random_nd_coupling(s, rng)
            if ctx.support_size(b) <= 16:
                return b

    def _round(self, r: int, rng: random.Random) -> list[Item]:
        tag = f"r{r}"
        nd_file = self._write(f"{tag}-nd.json", self._small_nd(rng))
        pr = ctx.random_nd_mixture(ctx.make_n_cycle(rng.randint(4, 6)), rng, include_pr=True)
        pr_file = self._write(f"{tag}-pr.json", pr)
        ineq = ctx.random_nd_mixture(ctx.make_n_cycle(rng.randint(4, 8)), rng, include_pr=True)
        ineq_file = self._write(f"{tag}-ineq.json", ineq)
        pp_cycle = ctx.random_pnd(ctx.make_n_cycle(rng.randint(4, 8), rng.choice((2, 3))), rng)
        pp_cycle_file = self._write(f"{tag}-ppc.json", pp_cycle)
        pp_bell = ctx.random_pnd(ctx.make_bipartite_bell(rng.choice((2, 3))), rng)
        pp_bell_file = self._write(f"{tag}-ppb.json", pp_bell)

        n = rng.randint(4, 9)
        if n % 2 == 0:
            quantum = ["quantum", "ncycle", "--n", str(n), f"--alpha={rng.uniform(0.05, math.pi / 4 - 0.05)!r}"]
        else:
            p = _quantum_odd(rng, n)[0]
            # "--flag=value": a value may start with "-"
            quantum = [
                "quantum", "ncycle", "--n", str(n),
                "--eta=" + ",".join(map(repr, p.eta)),
                "--v3=" + ",".join(map(repr, p.v3)),
            ]
            if p.thetas:
                quantum.append("--theta=" + ",".join(map(repr, p.thetas)))
        commands = [
            (["fixtures", "--name", rng.choice(sorted(FIXTURE_FLAGS))], None),
            (["check", "--behavior", nd_file], None),
            (["check", "--level", "nc", "--behavior", pr_file], None),
            (["pp", "find", "--possibilistic", "--behavior", pp_cycle_file], pp_cycle),
            (["pp", "find", "--possibilistic", "--format", "text", "--behavior", pp_bell_file], pp_bell),
            (["ineq", "--behavior", ineq_file], None),
            (quantum, None),
            # n is fixed by the round, so every seed runs the same gamma
            # sizes; their cost grows with n
            (["gamma", "--n", str((5, 7)[r % 2]), "--restarts", "2", "--seed", str(rng.randrange(1000))], None),
            (["gamma", "--n", str((4, 6, 8)[r % 3])], None),
            (["bundle", "--behavior", nd_file, "--format", rng.choice(("json", "dot"))], None),
        ]
        return [Item(" ".join(argv[:2] if argv[0] in ("pp", "quantum") else argv[:1]), argv, pb) for argv, pb in commands]

    def generate(self, seed: int) -> list[list[Item]]:
        rng = random.Random(seed)
        return [self._round(r, rng) for r in range(self.rounds)]

    def warmup(self, pool) -> None:
        # Nothing to fill in-process; the import probes run before this have
        # already read the interpreter's and the library's files once.
        pass

    def run(self, item: Item):
        out_path = os.path.join(self.workdir, "stdout.txt")
        with open(out_path, "wb") as out:
            proc = subprocess.Popen(
                [sys.executable, "-c", self.LAUNCH, *item.data],
                stdout=out,
                stderr=subprocess.DEVNULL,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        with open(out_path, encoding="utf-8") as fh:
            return (proc.returncode, fh.read())

    @staticmethod
    def run_in_process(argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = ctx_cli.run(list(argv))
        return code, out.getvalue()

    def check(self, item: Item, result) -> str | None:
        code, stdout = result
        want_code = 0
        if item.behavior is not None:  # pp find: 0 with a certificate, 1 without
            want_code = 0 if ctx.is_logically_contextual(item.behavior) else 1
        if code != want_code:
            return f"`ctx {' '.join(item.data)}` exited {code}, expected {want_code}"
        in_code, in_stdout = self.run_in_process(item.data)
        if (in_code, in_stdout) != (code, stdout):
            return f"`ctx {' '.join(item.data)}` output differs from the in-process run"
        return None


def make(name: str, tiny: bool, workdir: str):
    if name == "cli":
        return Cli(tiny, workdir)
    return {"classify": Classify, "scan": Scan, "paradox": Paradox}[name](tiny)


def describe(item: Item) -> str:
    """Canonical text of an item's input, for the input fingerprint. Input
    files of `ctx` commands count by content, not by path."""
    if isinstance(item.data, str):
        return item.data
    if isinstance(item.data, list):
        parts = []
        for arg in item.data:
            if os.path.isfile(arg):
                with open(arg, encoding="utf-8") as fh:
                    arg = fh.read()
            parts.append(arg)
        return "\x00".join(parts)
    return _to_json(item.data)
