"""Spans around the library's public calls, recorded from outside the library.

`Tracer.install` replaces each traced function in every loaded
`contextuality` module namespace that refers to it, so calls made inside the
library (say, `hierarchy` calling `support_size`) are traced too. Spans are
kept in memory as (name, start, end, parent) tuples and written out when the
run ends. A layer's self time is its spans' durations minus the parts
covered by their direct child spans.

Counters are recorded at the same call boundaries, by hooks that look at a
call's arguments and result.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# span name -> public functions it covers, as "module.function"
LAYERS = {
    "behavior.parse": ["behavior.behavior_from_json_dict"],
    "behavior.nd_check": ["behavior.check_nondisturbance"],
    "behavior.pnd_check": ["behavior.check_possibilistic_nd"],
    "classical.hierarchy": ["classical.hierarchy"],
    "classical.lp": [
        "classical.is_noncontextual",
        "classical.noncontextual_weight",
        "classical.contextual_fraction",
        "classical.global_distribution",
        "simplex.maximize",
    ],
    "classical.scan": [
        "classical.support",
        "classical.support_size",
        "classical.logical_contextuality_witness",
        "classical.is_logically_contextual",
        "classical.is_strongly_contextual",
    ],
    "paradox.detect": [
        "paradox.detect_cycle_paradox",
        "paradox.detect_simple_scenario_paradox",
        "paradox.detect_bell22_paradox",
        "paradox.detect_chen_paradox",
    ],
    "paradox.verify": ["paradox.verify_certificate"],
    "paradox.sc_classify": ["paradox.classify_strong_contextuality"],
    "scenario.chordless": ["scenario.chordless_cycles"],
    "inequality.evaluate_all": ["inequality.evaluate_all"],
    "quantum.build": [
        "quantum.build_odd_cycle",
        "quantum.build_even_cycle",
        "quantum.behavior_from_model",
    ],
    "quantum.gamma": ["quantum.optimize_gamma"],
    "cli.run": ["cli.run"],
}


class Tracer:
    """In-memory span recorder; `on` switches recording without unpatching."""

    def __init__(self) -> None:
        self.on = False
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, qualname: str, fn):
        hook, outermost_only = _HOOKS.get(qualname, (None, False))

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            outer = self.active(name)
            with _Span(self, name):
                result = fn(*args, **kwargs)
            if hook is not None and not (outermost_only and outer):
                hook(self.counts, args, result)
            return result

        return traced

    def active(self, name: str) -> bool:
        """Whether a span of this name encloses the current call."""
        return any(self.spans[i][0] == name for i in self._stack)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for key, m in sys.modules.items()
            if key == "contextuality" or key.startswith("contextuality.")
        ]
        for name, qualnames in LAYERS.items():
            for qualname in qualnames:
                mod_name, attr = qualname.split(".")
                original = getattr(sys.modules[f"contextuality.{mod_name}"], attr)
                wrapper = self._wrap(name, qualname, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    # -- reading -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [
                        {"name": n, "start": s, "end": e, "parent": p}
                        for n, s, e, p in self.spans
                    ],
                    "counts": dict(self.counts),
                },
                fh,
            )


class _Span:
    """Records one span: pushed on entry, closed on exit, even on an error."""

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        self.parent = t._stack[-1] if t._stack else -1
        t.spans.append((self.name, 0.0, 0.0, self.parent))
        t._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        t.spans[self.index] = (self.name, self.start, end, self.parent)
        return False


# -- counter hooks: (counts, args, result) -> None --------------------------


def _count_scan(counts, args, result):
    from contextuality.classical import enumeration_size

    counts["assignments"] += enumeration_size(args[0].scenario)


def _count_support(counts, args, result):
    _count_scan(counts, args, result)
    counts["support_calls"] += 1
    counts["support"] += result


def _count_lp(counts, args, result):
    objective, rows = args[0], args[1]
    counts["lp_calls"] += 1
    counts["lp_columns"] += len(objective)
    counts["lp_rows"] += len(rows)


def _count_detect(counts, args, result):
    counts["detect_calls"] += 1
    counts["detect_hits"] += result is not None


def _count_cycles(counts, args, result):
    counts["chordless_calls"] += 1
    counts["cycles"] += len(result.cycles)


# qualname -> (hook, whether to skip calls nested in a span of the same name).
# Scans nest (is_logically_contextual calls logical_contextuality_witness), so
# they count once at the outermost call; simplex.maximize always sits inside
# an LP span and counts every time.
_HOOKS = {
    "classical.support": (_count_scan, True),
    "classical.support_size": (_count_support, True),
    "classical.logical_contextuality_witness": (_count_scan, True),
    "classical.is_logically_contextual": (_count_scan, True),
    "classical.is_strongly_contextual": (_count_scan, True),
    "simplex.maximize": (_count_lp, False),
    "paradox.detect_cycle_paradox": (_count_detect, True),
    "paradox.detect_simple_scenario_paradox": (_count_detect, True),
    "paradox.detect_bell22_paradox": (_count_detect, True),
    "paradox.detect_chen_paradox": (_count_detect, True),
    "scenario.chordless_cycles": (_count_cycles, True),
}
