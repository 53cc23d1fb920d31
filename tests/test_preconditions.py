"""Precondition contract: which exception each guarded entry point raises.

Each row names one public entry point, an input that fails one or more of
its preconditions (pair contexts, two outcomes, nondisturbance, shape), and
the exception class it must raise. Inputs that fail two checks pin the order
in which the entry point checks them.
"""

from fractions import Fraction
from random import Random

import pytest

from contextuality import (
    Behavior,
    EnumerationCapExceeded,
    EvenCycleParams,
    InvalidArgument,
    InvalidBehavior,
    InvalidScenario,
    NcycleInequality,
    NegativeProbability,
    NonDichotomic,
    NonSimpleScenario,
    NotCycle,
    NotNondisturbing,
    NotPossibilisticallyND,
    OddCycleParams,
    PossibilisticBehavior,
    Scenario,
    WrongScenarioShape,
    build_bundle,
    check_nondisturbance,
    chordless_cycles,
    classify_strong_contextuality,
    collapse,
    contextual_fraction,
    correlator,
    detect_bell22_paradox,
    detect_chen_paradox,
    detect_cycle_paradox,
    detect_simple_scenario_paradox,
    evaluate_all,
    fixture,
    global_distribution,
    hardy_probability,
    hierarchy,
    is_noncontextual,
    make_bipartite_bell,
    make_n_cycle,
    noncontextual_weight,
    optimize_gamma,
    pr_box_behavior,
    quantum_bound,
    random_nd_coupling,
    random_nd_mixture,
    random_pnd,
    support_size,
)

BIT = ("0", "1")
TRIT = ("0", "1", "2")


def full(s: Scenario) -> PossibilisticBehavior:
    cells = [s.context_cells(i) for i in range(len(s.contexts))]
    return PossibilisticBehavior(s, tuple((True,) * k for k in cells))


def disturbing(s: Scenario) -> Behavior:
    """Context 1 surely gives every measurement its first outcome; the rest
    are uniform, so context 1 and its neighbours disagree."""
    tables = []
    for i in range(len(s.contexts)):
        cells = s.context_cells(i)
        first = Fraction(1) if i == 0 else Fraction(1, cells)
        rest = Fraction(0) if i == 0 else Fraction(1, cells)
        tables.append((first,) + (rest,) * (cells - 1))
    return Behavior(s, tuple(tables))


# one context of three measurements: not pairs; TRIPLE3 is not dichotomic either
TRIPLE2 = Scenario(("A", "B", "C"), {m: BIT for m in "ABC"}, (("A", "B", "C"),))
TRIPLE3 = Scenario(("A", "B", "C"), {m: TRIT for m in "ABC"}, (("A", "B", "C"),))
# the pair (A, B) is dichotomic; C, in the other context, has three outcomes
MIXED = Scenario(("A", "B", "C"), {"A": BIT, "B": BIT, "C": TRIT}, (("A", "B"), ("B", "C")))
PATH = Scenario(("A", "B", "C"), {m: BIT for m in "ABC"}, (("A", "B"), ("B", "C")))
# a pair and a one-measurement context: not pairs either
SINGLE = Scenario(("A", "B", "C"), {m: BIT for m in "ABC"}, (("A", "B"), ("C",)))
CYCLE4_MIXED = Scenario(
    ("M1", "M2", "M3", "M4"),
    {"M1": TRIT, "M2": BIT, "M3": BIT, "M4": BIT},
    (("M1", "M2"), ("M2", "M3"), ("M3", "M4"), ("M4", "M1")),
)
DISTURBING4 = disturbing(make_n_cycle(4))
DISTURBING3_L3 = disturbing(make_n_cycle(3, 3))  # fails two outcomes and nondisturbance
UNIFORM_TRIPLE2 = Behavior(TRIPLE2, ((Fraction(1, 8),) * 8,))
Q = Fraction(1, 4)


def case(name, call, arg, error):
    return pytest.param(call, arg, error, id=name)


def on_path(t):
    return Behavior(PATH, t)


def possible_on_path(t):
    return PossibilisticBehavior(PATH, t)


CASES = [
    # pair contexts
    case("chordless_cycles/non-pair", chordless_cycles, TRIPLE2, NonSimpleScenario),
    case("build_bundle/non-pair", build_bundle, full(TRIPLE2), NonSimpleScenario),
    case("simple/non-pair+3-outcome", detect_simple_scenario_paradox, full(TRIPLE3), NonSimpleScenario),
    case("bell22/non-pair", detect_bell22_paradox, full(TRIPLE2), NonSimpleScenario),
    case("random_pnd/one-measurement", lambda s: random_pnd(s, Random(0)), SINGLE, NonSimpleScenario),
    case("random_nd_coupling/one-measurement", lambda s: random_nd_coupling(s, Random(0)), SINGLE, NonSimpleScenario),
    case("correlator/non-pair", lambda b: correlator(b, 1), UNIFORM_TRIPLE2, ValueError),
    # two outcomes
    case("simple/3-outcome", detect_simple_scenario_paradox, full(make_n_cycle(4, 3)), NonDichotomic),
    case("bell22/3-outcome", detect_bell22_paradox, full(make_bipartite_bell(2, 3)), NonDichotomic),
    case("correlator/3-outcome", lambda b: correlator(b, 1), DISTURBING3_L3, NonDichotomic),
    case("pr_box/3-outcome", lambda s: pr_box_behavior(s, 1), make_n_cycle(4, 3), NonDichotomic),
    case("classify_sc/3-outcome+disturbing", classify_strong_contextuality, DISTURBING3_L3, NonDichotomic),
    # nondisturbance
    case("evaluate_all/3-outcome+disturbing", evaluate_all, DISTURBING3_L3, NotNondisturbing),
    case("evaluate_all/disturbing", evaluate_all, DISTURBING4, NotNondisturbing),
    case("noncontextual_weight/disturbing", noncontextual_weight, DISTURBING4, NotNondisturbing),
    case("is_noncontextual/disturbing", is_noncontextual, DISTURBING4, NotNondisturbing),
    case("global_distribution/disturbing", global_distribution, DISTURBING4, NotNondisturbing),
    case("contextual_fraction/disturbing", contextual_fraction, DISTURBING4, NotNondisturbing),
    case("cycle/disturbing", detect_cycle_paradox, DISTURBING4, NotPossibilisticallyND),
    case("simple/disturbing", detect_simple_scenario_paradox, DISTURBING4, NotPossibilisticallyND),
    case("classify_sc/disturbing", classify_strong_contextuality, DISTURBING4, NotPossibilisticallyND),
    # probabilities: possible-lists carry none
    case("hierarchy/possibilistic", hierarchy, collapse(fixture("bell")), InvalidBehavior),
    case("check_nondisturbance/possibilistic", check_nondisturbance, collapse(fixture("bell")), InvalidBehavior),
    case("noncontextual_weight/possibilistic", noncontextual_weight, collapse(fixture("bell")), InvalidBehavior),
    case("global_distribution/possibilistic", global_distribution, collapse(fixture("bell")), InvalidBehavior),
    case("correlator/possibilistic", lambda b: correlator(b, 1), collapse(fixture("bell")), InvalidBehavior),
    case("evaluate_all/possibilistic", evaluate_all, collapse(fixture("pr-box")), InvalidBehavior),
    # cycle and shape
    case("cycle/path+disturbing", detect_cycle_paradox, disturbing(PATH), NotCycle),
    case("classify_sc/path", classify_strong_contextuality, full(PATH), NotCycle),
    case("bell22/not-bipartite", detect_bell22_paradox, full(make_n_cycle(3)), WrongScenarioShape),
    case("chen/5-cycle", detect_chen_paradox, full(make_n_cycle(5)), WrongScenarioShape),
    case("chen/path", detect_chen_paradox, full(PATH), NotCycle),
    case("chen/mixed-outcomes", detect_chen_paradox, full(CYCLE4_MIXED), WrongScenarioShape),
    # table shape, checked context by context before each table's contents
    case("Behavior/table-count", on_path, ((Q,) * 4,), InvalidBehavior),
    case("Behavior/negative-then-short", on_path, ((-1, 2, 0, 0), (1,)), NegativeProbability),
    case("Behavior/short-then-negative", on_path, ((1,), (-1, 2, 0, 0)), InvalidBehavior),
    case("Possibilistic/empty-then-short", possible_on_path, ((0,) * 4, (1,)), InvalidBehavior),
]


@pytest.mark.parametrize("call, arg, error", CASES)
def test_failing_precondition_raises(call, arg, error):
    with pytest.raises(error):
        call(arg)


def test_correlator_checks_only_its_own_context():
    b = Behavior(MIXED, ((Q,) * 4, (Fraction(1, 6),) * 6))
    assert correlator(b, 1) == 0
    with pytest.raises(NonDichotomic):
        correlator(b, 2)


def test_shape_errors_form_one_family():
    for error in (NonSimpleScenario, NonDichotomic, NotCycle):
        assert issubclass(error, WrongScenarioShape)


# Each call passes one argument of the wrong type or range; the message names it.
ARGUMENT_CASES = [
    pytest.param(
        lambda: pr_box_behavior(make_n_cycle(4), 1, ("0", "0", "0", "x")),
        "'x' is not an outcome of 'M4'",
        id="pr_box/assignment-label",
    ),
    pytest.param(
        lambda: pr_box_behavior(make_n_cycle(4), 1.5),
        r"flip_context_index must be an int in 1\.\.4, got 1.5",
        id="pr_box/float-flip",
    ),
    pytest.param(
        lambda: correlator(fixture("bell"), 1.5),
        r"context index must be an int in 1\.\.4, got 1.5",
        id="correlator/float-index",
    ),
    pytest.param(
        lambda: random_nd_coupling(make_n_cycle(4), Random(0), max_components=0),
        "max_components must be at least 1, got 0",
        id="random_nd_coupling/no-components",
    ),
    pytest.param(
        lambda: NcycleInequality((1.5, 1, -1)),
        r"signs must be \+1 or -1, got \(1.5, 1, -1\)",
        id="NcycleInequality/float-sign",
    ),
    pytest.param(
        lambda: NcycleInequality(("a", "b", "c")),
        r"signs must be \+1 or -1, got \('a', 'b', 'c'\)",
        id="NcycleInequality/string-sign",
    ),
    # a non-int count, size or seed: the class the range check raises, naming the argument
    pytest.param(
        lambda: optimize_gamma(5, restarts=2.5),
        "restarts must be an int, got 2.5",
        id="gamma/float-restarts",
    ),
    pytest.param(
        lambda: optimize_gamma(5, restarts=1, seed=1.5),
        "seed must be an int, got 1.5",
        id="gamma/float-seed",
    ),
    pytest.param(lambda: optimize_gamma("4"), "n must be an int, got '4'", id="gamma/string-n"),
    pytest.param(lambda: optimize_gamma(6.0), r"n must be an int, got 6\.0", id="gamma/float-n"),
    pytest.param(
        lambda: random_nd_mixture(make_n_cycle(4), Random(0), components=2.5),
        "components must be an int, got 2.5",
        id="random_nd_mixture/float-components",
    ),
    pytest.param(
        lambda: random_nd_coupling(make_n_cycle(4), Random(0), max_components="2"),
        "max_components must be an int, got '2'",
        id="random_nd_coupling/string-components",
    ),
    pytest.param(
        lambda: random_nd_coupling(make_n_cycle(4), Random(0), max_components=1.5),
        "max_components must be an int, got 1.5",
        id="random_nd_coupling/float-components",
    ),
    pytest.param(
        lambda: OddCycleParams("5", (1, 1, 1), (1, 1, 0), (0.5,)),
        "n must be an int, got '5'",
        id="OddCycleParams/string-n",
    ),
    pytest.param(
        lambda: EvenCycleParams(4.5, 0.3),
        "n must be an int, got 4.5",
        id="EvenCycleParams/float-n",
    ),
    pytest.param(
        lambda: EvenCycleParams(6.0, 0.3),
        r"n must be an int, got 6\.0",
        id="EvenCycleParams/integral-float-n",
    ),
    pytest.param(
        lambda: hardy_probability(4.5, 0.3),
        "n must be an int, got 4.5",
        id="hardy_probability/float-n",
    ),
    pytest.param(lambda: quantum_bound(4.5), "n must be an int, got 4.5", id="quantum_bound/float-n"),
    pytest.param(
        lambda: support_size(fixture("bell"), cap="5"),
        "cap must be an int, got '5'",
        id="support_size/string-cap",
    ),
    pytest.param(
        lambda: support_size(fixture("bell"), cap=1.5),
        "cap must be an int, got 1.5",
        id="support_size/float-cap",
    ),
]


@pytest.mark.parametrize("call, message", ARGUMENT_CASES)
def test_rejected_argument_raises_invalid_argument(call, message):
    with pytest.raises(InvalidArgument, match=f"^{message}$"):
        call()


# The scenario makers raise InvalidScenario for a size or outcome count out of
# range, and so for one that is not an int.
SCENARIO_ARGUMENT_CASES = [
    pytest.param(lambda: make_n_cycle(4.0), r"n must be an int, got 4\.0", id="make_n_cycle/float-n"),
    pytest.param(lambda: make_n_cycle(4, "3"), "l must be an int, got '3'", id="make_n_cycle/string-l"),
    pytest.param(
        lambda: make_bipartite_bell(2.5),
        "k must be an int, got 2.5",
        id="make_bipartite_bell/float-k",
    ),
    pytest.param(
        lambda: make_bipartite_bell(2, 2.0),
        r"l must be an int, got 2\.0",
        id="make_bipartite_bell/float-l",
    ),
]


@pytest.mark.parametrize("call, message", SCENARIO_ARGUMENT_CASES)
def test_rejected_scenario_argument_raises_invalid_scenario(call, message):
    with pytest.raises(InvalidScenario, match=f"^{message}$"):
        call()


def test_a_bool_passes_as_an_int():
    coupling = random_nd_coupling(make_n_cycle(4), Random(0), max_components=True)
    assert coupling == random_nd_coupling(make_n_cycle(4), Random(0), max_components=1)
    with pytest.raises(EnumerationCapExceeded, match="^16 global assignments exceed the cap True$"):
        support_size(fixture("bell"), cap=True)
