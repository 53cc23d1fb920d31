"""Command-line surface: `ctx` with subcommands check, pp, ineq, quantum,
gamma, bundle, and fixtures.

Machine-readable JSON goes to stdout, diagnostics to stderr. Exit codes:
0 for a decided answer (for `pp find`, a certificate), 1 for `pp find`
when no paradox exists, 2 when the enumeration cap is exceeded (by the
global assignments a command enumerates, or at load by a context table with
more joint outcomes than the cap), 3 for rejected input (an argument argparse
refuses, a file that cannot be opened, or any other ContextualityError, the
family the library reports bad input in), 4 for anything else.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .behavior import (
    PossibilisticBehavior,
    behavior_to_json_dict,
    load_behavior,
    save_behavior,
)
from .bundle import build_bundle
from .classical import hierarchy
from .errors import ContextualityError, EnumerationCapExceeded, InvalidArgument, InvalidBehavior, NotCycle, shown_path
from .fixtures import FIXTURES, fixture
from .inequality import evaluate_all
from .paradox import detect_cycle_paradox, detect_simple_scenario_paradox
from .quantum import (
    EvenCycleParams,
    OddCycleParams,
    build_even_cycle,
    build_odd_cycle,
    optimize_gamma,
)


def _load_behavior(path: str, possibilistic: bool, cap: int | None = None):
    b = load_behavior(path, cap=cap)
    if isinstance(b, PossibilisticBehavior) != possibilistic:
        raise InvalidBehavior(f"{path}: --possibilistic given but the file carries probabilities" if possibilistic
                              else f"{path}: file carries possible-lists; pass --possibilistic")
    return b


def _print_json(data) -> None:
    json.dump(data, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _emit_behavior(b, out: str | None, summary: dict) -> int:
    """Write b to out and print a summary of what was written, or print b."""
    if out:
        save_behavior(b, out)
        _print_json({"written": out, **summary})
    else:
        _print_json(behavior_to_json_dict(b))
    return 0


def _cmd_check(args) -> int:
    b = load_behavior(args.behavior, cap=args.cap)
    report = hierarchy(b, cap=args.cap, level=args.level)
    full = report.to_json_dict()
    keys = {
        "nd": ("nd",),
        "nc": ("nc",),
        "lc": ("lc", "witness"),
        "sc": ("sc", "support_size"),
        "all": tuple(full),
    }[args.level]
    out = {k: full[k] for k in keys}
    if args.level != "nd" and not full["nd"]:
        out = {"nd": False, **out}  # the gate failed; say so
    _print_json(out)
    return 0


def _cmd_pp(args) -> int:
    b = _load_behavior(args.behavior, args.possibilistic)
    try:
        found = detect_cycle_paradox(b)
    except NotCycle:
        found = detect_simple_scenario_paradox(b)
    if args.format == "json":
        _print_json(found.to_json_dict() if found is not None else None)
    else:
        if found is None:
            print("none")
        else:
            cert = getattr(found, "certificate", found)
            print(
                f"paradox at context {cert.base_context_index} "
                f"{cert.base_context}: outcome {cert.witness_pair} is possible "
                f"but no global assignment reaches it"
            )
            for step in cert.chain:
                print(
                    f"  context {step.context_index} {step.context}: "
                    f"reach {sorted(step.reachable_in)} -> {sorted(step.reachable_out)}"
                )
    return 0 if found is not None else 1


def _cmd_ineq(args) -> int:
    b = load_behavior(args.behavior)
    _print_json(evaluate_all(b).to_json_dict())
    return 0


def float_list(text: str) -> tuple[float, ...]:
    """argparse type of a comma-separated list of numbers."""
    return tuple(map(float, text.split(",")))


def _cmd_quantum(args) -> int:
    n = args.n
    if n % 2 == 0:
        if args.theta or args.eta or args.v3:
            raise InvalidArgument("even n takes --alpha only")
        alpha = args.alpha if args.alpha is not None else math.pi / 8
        _, behavior = build_even_cycle(EvenCycleParams(n, alpha))
    else:
        if args.alpha is not None:
            raise InvalidArgument("odd n takes --theta/--eta/--v3, not --alpha")
        thetas = args.theta or (math.pi / 4,) * ((n - 3) // 2)
        eta = args.eta or (1.0, 1.0, 1.0)
        v3 = args.v3 or (1.0, 1.0, 0.0)
        _, behavior = build_odd_cycle(OddCycleParams(n, eta, v3, thetas))
    witness_cell = ("1", "1") if n % 2 == 0 else ("0", "1")
    witness = float(behavior.probability(0, witness_cell))
    return _emit_behavior(behavior, args.out, {"n": n, "witness": witness})


def _cmd_gamma(args) -> int:
    result = optimize_gamma(args.n, restarts=args.restarts, tol=args.tol, seed=args.seed)
    _print_json(result.to_json_dict())
    return 0


def _cmd_bundle(args) -> int:
    b = _load_behavior(args.behavior, args.possibilistic, args.cap)
    diagram = build_bundle(b, cap=args.cap)
    if args.format == "dot":
        sys.stdout.write(diagram.to_dot())
    else:
        _print_json(diagram.to_json_dict())
    return 0


def _cmd_fixtures(args) -> int:
    return _emit_behavior(fixture(args.name), args.out, {"name": args.name})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctx", description="Decide the contextuality hierarchy of measurement behaviors."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify a behavior (nd / nc / lc / sc)")
    p.add_argument("--behavior", required=True, help="behavior JSON file")
    p.add_argument("--level", choices=("nd", "nc", "lc", "sc", "all"), default="all")
    p.add_argument("--cap", type=int, default=None, help="enumeration cap (default CTX_CAP or 2^24)")
    p.set_defaults(func=_cmd_check)

    pp = sub.add_parser("pp", help="possibilistic paradoxes")
    ppsub = pp.add_subparsers(dest="pp_command", required=True)
    p = ppsub.add_parser("find", help="search for a paradox certificate")
    p.add_argument("--behavior", required=True)
    p.add_argument("--possibilistic", action="store_true", help="input carries possible-lists")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_pp)

    p = sub.add_parser("ineq", help="maximize the cycle correlator inequality family")
    p.add_argument("--behavior", required=True)
    p.set_defaults(func=_cmd_ineq)

    q = sub.add_parser("quantum", help="quantum cycle constructions")
    qsub = q.add_subparsers(dest="quantum_command", required=True)
    p = qsub.add_parser("ncycle", help="build the n-cycle behavior")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=None, help="Schmidt angle (even n)")
    p.add_argument("--theta", type=float_list, default=None, help="comma-separated rotation angles (odd n)")
    p.add_argument("--eta", type=float_list, default=None, help="state vector x,y,z (odd n)")
    p.add_argument("--v3", type=float_list, default=None, help="seed vector x,y,z (odd n)")
    p.add_argument("--out", default=None, help="write behavior JSON here")
    p.set_defaults(func=_cmd_quantum)

    p = sub.add_parser("gamma", help="maximize the paradox probability over parameters")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--restarts", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("bundle", help="export the support as a bundle diagram")
    p.add_argument("--behavior", required=True)
    p.add_argument("--possibilistic", action="store_true")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_bundle)

    p = sub.add_parser("fixtures", help="emit a named example behavior")
    p.add_argument("--name", required=True, choices=sorted(FIXTURES))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fixtures)

    return parser


def _os_message(e: OSError) -> str:
    """str(e), with each file name in it as shown_path names it; a name short
    enough to keep whole keeps its quotes."""
    text = str(e)
    for name in (e.filename, e.filename2):
        if isinstance(name, str) and (cut := shown_path(name)) != name:
            text = text.replace(repr(name), cut)
    return text


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad flags; map to the invalid-input code
        return 3 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except EnumerationCapExceeded as e:
        print(f"ctx: {e}", file=sys.stderr)
        return 2
    except ContextualityError as e:
        print(f"ctx: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"ctx: {_os_message(e)}", file=sys.stderr)
        return 3
    except Exception as e:
        print(f"ctx: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
