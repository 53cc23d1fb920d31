"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload classify --seed 1 --seconds 16 --trace 0

Run from the repository root; the library is imported from `src/`. The
process is the workload's own fresh process. It imports the library, builds
its inputs from the seed and warms up (set-up, done SETUP_REPEATS times),
then runs whole passes over its inputs, one item at a time, until --seconds
have passed (at least one pass), and checks every output after timing. With
--trace 1, untraced and traced passes over a prefix of the inputs take
turns, and the per-layer metrics are reported instead of the end-to-end
ones.

Every timed duration, set-up included, is scaled by a reference task timed
around it, to the speed of one fixed host (see hostspeed.py), so that the
figures follow the program and not the load other tenants put on the host.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name each metric with its
unit. A record of the run, with machine information, goes to
.bench_out/<workload>-seed<seed>-trace<0|1>.json, and spans beside it.
"""
from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("classify", "scan", "paradox", "cli")
SETUP_REPEATS = 3
# longest stretch of timed work between two reference samples
SEGMENT_S = 0.25
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import contextuality; "
    "print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# self time per traced item, in ms, for each span name
LAYER_TIMES = {
    "behavior.parse_ms": "behavior.parse",
    "behavior.nd_check_ms": "behavior.nd_check",
    "behavior.pnd_check_ms": "behavior.pnd_check",
    "classical.lp_ms": "classical.lp",
    "classical.scan_ms": "classical.scan",
    "classical.hierarchy_ms": "classical.hierarchy",
    "paradox.detect_ms": "paradox.detect",
    "paradox.verify_ms": "paradox.verify",
    "paradox.sc_classify_ms": "paradox.sc_classify",
    "scenario.chordless_ms": "scenario.chordless",
    "inequality.evaluate_all_ms": "inequality.evaluate_all",
    "quantum.build_ms": "quantum.build",
    "quantum.gamma_ms": "quantum.gamma",
}
PER_LAYER_UNITS = {
    **{name: "ms" for name in LAYER_TIMES},
    "classical.lp_columns": "count",
    "classical.lp_rows": "count",
    "classical.assignments": "count",
    "classical.support": "count",
    "paradox.hit_ratio": "ratio",
    "scenario.cycles": "count",
    "cli.import_ms": "ms",
    "cli.run_ms": "ms",
    "cli.startup_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--tiny",
        action="store_true",
        help="one small round and no minimum item count (for the smoke test)",
    )
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def machine_info(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def import_probe() -> float:
    """A fresh interpreter's `import contextuality`, in seconds scaled to the
    reference host."""

    with hostspeed.Around() as host:
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, check=True
        ).stdout
    return host.factor * float(out.strip().splitlines()[-1])


def run_pass(wl, pool):
    """One pass over the pool: every item once, one after another (a closed
    loop with one client), with a reference sample at least every SEGMENT_S
    between items. Returns (seconds, latencies, [(round, slot, result,
    error)], measured seconds); seconds and latencies are scaled to the
    reference host (see hostspeed.py)."""
    cal = hostspeed.Calibrated(wl.REFERENCE)
    done = []
    clock = time.perf_counter
    cal.mark()
    last = start = clock()
    for ri, rnd in enumerate(pool):
        for si, item in enumerate(rnd):
            if clock() - last >= SEGMENT_S:
                cal.mark()
                last = clock()
            t = clock()
            try:
                result, error = wl.run(item), None
            except Exception as exc:  # a failed item is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            cal.add(clock() - t)
            done.append((ri, si, result, error))
    measured = clock() - start
    cal.mark()
    latencies = cal.scaled()
    return sum(latencies), latencies, done, measured


def run_passes(wl, pool, seconds: float):
    """Whole passes until `seconds` have elapsed (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(wl, pool))
    return passes


def check_all(wl, pool, done) -> list[str]:
    """Check each pool item's first output once; a repeat must equal it."""
    verdicts: dict[tuple[int, int], tuple[object, str | None]] = {}
    failures = []
    for ri, si, result, error in done:
        item = pool[ri][si]
        where = f"{item.label} (round {ri}, slot {si})"
        if error is not None:
            failures.append(f"{where}: raised {error}")
            continue
        key = (ri, si)
        if key not in verdicts:
            try:
                verdicts[key] = (result, wl.check(item, result))
            except Exception as exc:  # the check itself failing is a failure
                verdicts[key] = (result, f"check raised {type(exc).__name__}: {exc}")
        first, message = verdicts[key]
        if result != first:
            failures.append(f"{where}: output changed between repeats")
        elif message is not None:
            failures.append(f"{where}: {message}")
    return failures


def fingerprint(pool, describe) -> str:
    h = hashlib.sha256()
    for rnd in pool:
        for item in rnd:
            h.update(describe(item).encode())
            h.update(b"\x00")
    return h.hexdigest()[:16]


def layer_metrics(tracer, items: int, import_ms: float, ratio: float, cli_pairs) -> dict:
    self_times = tracer.self_times()
    c = tracer.counts

    def per(num: str, den: str) -> float:
        return c[num] / c[den] if c[den] else 0.0

    metrics = {name: 1e3 * self_times.get(span, 0.0) / items for name, span in LAYER_TIMES.items()}
    metrics.update(
        {
            "classical.lp_columns": per("lp_columns", "lp_calls"),
            "classical.lp_rows": per("lp_rows", "lp_calls"),
            "classical.assignments": c["assignments"] / items,
            "classical.support": per("support", "support_calls"),
            "paradox.hit_ratio": per("detect_hits", "detect_calls"),
            "scenario.cycles": per("cycles", "chordless_calls"),
            "cli.import_ms": import_ms,
            "cli.run_ms": 1e3 * statistics.median(r for _, r in cli_pairs) if cli_pairs else 0.0,
            "cli.startup_ms": 1e3 * statistics.median(e - r for e, r in cli_pairs) if cli_pairs else 0.0,
            "trace.overhead_ratio": ratio,
        }
    )
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "contextuality" / "__init__.py").is_file():
        print(f"run.py: no library at {SRC}; run from the repository root", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))

    with hostspeed.Around() as host:
        t = time.perf_counter()
        import contextuality  # noqa: F401  (timed: the import is part of set-up)

        seconds = time.perf_counter() - t
    import_samples = [host.factor * seconds]
    import_samples += [import_probe() for _ in range(SETUP_REPEATS - 1)]

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return measure(args, import_samples, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, import_samples, workdir) -> int:
    # imported after the timed import above, since workloads imports the library
    import spans
    import workloads

    wl = workloads.make(args.workload, args.tiny, str(workdir))
    build_samples = []
    for _ in range(SETUP_REPEATS):
        with hostspeed.Around() as host:
            t = time.perf_counter()
            pool = wl.generate(args.seed)
            wl.warmup(pool)
            seconds = time.perf_counter() - t
        build_samples.append(host.factor * seconds)
    setup_s = statistics.median(import_samples) + statistics.median(build_samples)
    items = sum(len(rnd) for rnd in pool)
    tracer = None

    if args.trace == 0:
        passes = run_passes(wl, pool, args.seconds)
        done = [d for _, _, ds, _ in passes for d in ds]
    else:
        # Untraced and traced passes over the same items take turns, so drift
        # in the host's speed falls on both; a prefix of the pool keeps cli short.
        sub = pool[: wl.trace_rounds]
        tracer = spans.Tracer()
        tracer.install()
        plain, traced = [], []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < args.seconds:
            plain.append(run_pass(wl, sub))
            tracer.on = True
            traced.append(run_pass(wl, sub))
            tracer.on = False
        cli_pairs = []
        if args.workload == "cli":
            # in-process runs of the same commands: cli.run and the layers under it
            tracer.on = True
            for (ri, si, _, _), e2e in zip(traced[0][2], traced[0][1]):
                with hostspeed.Around(wl.REFERENCE) as host:
                    t = time.perf_counter()
                    wl.run_in_process(pool[ri][si].data)
                    seconds = time.perf_counter() - t
                cli_pairs.append((e2e, host.factor * seconds))
            tracer.on = False
            traced_items = len(cli_pairs)
        else:
            traced_items = sum(len(ds) for _, _, ds, _ in traced)
        tracer.uninstall()
        done = [d for _, _, ds, _ in plain + traced for d in ds]
        ratio = sum(p[0] for p in plain) / sum(p[0] for p in traced)
        layer = layer_metrics(
            tracer, traced_items, 1e3 * statistics.median(import_samples), ratio, cli_pairs
        )
    attempted = len(done)

    t = time.perf_counter()
    failures = check_all(wl, pool, done)
    check_s = time.perf_counter() - t
    if args.workload == "cli":
        peak_kb = wl.peak_child_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = len(failures)

    if args.trace == 0:
        # every timed item of every pass, scaled to the reference host
        latencies = [x for p in passes for x in p[1]]
        values = {
            "throughput_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": 1e3 * nearest_rank(latencies, 0.5),
            "latency_p90_ms": 1e3 * nearest_rank(latencies, 0.9),
            "success_rate": (attempted - failed) / attempted,
            "setup_s": setup_s,
            "peak_rss_mb": peak_kb / 1024,
        }
        units = END_TO_END_UNITS
    else:
        values = layer
        units = PER_LAYER_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    machine = machine_info(args.seed)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": machine,
        "inputs": fingerprint(pool, workloads.describe),
        "items": items,
        "passes": len(passes) if args.trace == 0 else len(plain),
        "error_rate": failed / attempted,
        "failures": failures[:50],
        "setup": {"import_s": import_samples, "build_s": build_samples},
        "check_s": check_s,
        "reference": {"kind": wl.REFERENCE, "nominal_s": hostspeed.REFERENCES[wl.REFERENCE][1]},
        "pass_s": [p[0] for p in passes] if args.trace == 0 else None,
        "measured_pass_s": [p[3] for p in passes] if args.trace == 0 else None,
        "metrics": metrics,
    }
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.dump(str(OUT / f"{label}-spans.json"))

    print(f"machine {json.dumps(machine)}")
    print(f"inputs {record['inputs']}  items {items}  error_rate {failed / attempted:.6f}")
    for message in failures[:10]:
        print(f"FAILED {message}")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:14.6f} {m['unit']}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
