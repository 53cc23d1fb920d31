"""Exception types shared across the package.

Every library error derives from ContextualityError, and every rejected input
raises one: InvalidScenario / InvalidBehavior for bad files and tables,
InvalidArgument (also a ValueError) for out-of-range arguments, and the more
specific classes below for failed preconditions of individual algorithms.
"""


# A file path up to this many characters is echoed whole; a longer one is cut
# by shown to this many (shown_path).
LONG_PATH = 160


def shown(value, limit: int = 80) -> str:
    """value as an error message echoes it: repr for a string, str otherwise,
    cut to limit characters and followed by its full length when longer, so
    input of any length makes a short message."""
    text = repr(value) if isinstance(value, str) else str(value)
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(text)} characters)"


def shown_path(path) -> str:
    """A file path as an error message names it: whole up to LONG_PATH
    characters, cut by shown past that."""
    name = str(path)
    return name if len(name) <= LONG_PATH else shown(name, LONG_PATH)


class ContextualityError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(ContextualityError, ValueError):
    """An argument lies outside its documented range: a count, cap, seed or level."""


class InvalidScenario(ContextualityError):
    """A scenario violates a structural invariant (reported first violation)."""


class InvalidBehavior(ContextualityError):
    """A behavior table is malformed: wrong cells, bad rationals, sum != 1."""


class SubsetNotInContext(ContextualityError):
    """A marginal was requested for measurements outside the chosen context."""


class WrongScenarioShape(ContextualityError):
    """The scenario lies outside the shape class an operation is defined on."""


class NonSimpleScenario(WrongScenarioShape):
    """An operation requires every context to have exactly two measurements."""


class NonDichotomic(WrongScenarioShape):
    """An operation requires every measurement to have exactly two outcomes."""


class NotCycle(WrongScenarioShape):
    """An operation requires the compatibility graph to be a single n-cycle."""


class NotNondisturbing(ContextualityError):
    """A probabilistic precondition failed: context marginals disagree."""


class NotPossibilisticallyND(ContextualityError):
    """A possibilistic precondition failed: Boolean marginals disagree."""


class EnumerationCapExceeded(ContextualityError):
    """The global-assignment space exceeds the configured enumeration cap."""


class InvalidModel(ContextualityError):
    """A quantum model violates projector or commutation invariants."""


class NegativeProbability(ContextualityError):
    """A computed probability is negative beyond the zero-clamp tolerance."""


class DegenerateParams(ContextualityError):
    """Construction parameters sit on a degenerate configuration."""


def require_ints(error: type[ContextualityError] = InvalidArgument, **values) -> None:
    """Raise error, naming the first of values that is not an int (a bool is one)."""
    for name, value in values.items():
        if not isinstance(value, int):
            raise error(f"{name} must be an int, got {shown(value)}")
