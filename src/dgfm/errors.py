"""Exception types shared across the package, and its two value rules.

A count (size, batch, period, rounds, iterations, samples) or a seed is an
integer, numpy integers included, and is kept as a Python int; a count has
a floor, usually 1, and a seed is >= 0 (`require_int`). A rate, radius or
constant (step size, smoothing radius, Lipschitz constant, accuracy) is
positive and finite (`require_positive`). A value that breaks its rule
raises `InvalidParameter`, whose ``name`` names it.
"""

import math
import numbers


class InvalidTopology(ValueError):
    """Weight matrix violates the doubly stochastic gossip contract."""


class DisconnectedGraph(InvalidTopology):
    """Topology has spectral gap 1, so consensus cannot contract."""


class ShapeError(ValueError):
    """Array argument has the wrong dimensions."""


class SampleIndexError(IndexError):
    """Sample index outside the objective's range."""


class EmptyBatch(ValueError):
    """Estimator batch contains no (sample, direction) pairs."""


class InvalidParameter(ValueError):
    """Scalar parameter outside its admissible range; named, the message is "<name> <rule>"."""

    def __init__(self, rule, name=None):
        super().__init__(rule if name is None else f"{name} {rule}")
        self.name = name
        self.rule = rule


def require_positive(**values):
    """Raise InvalidParameter unless each value v satisfies 0 < v < inf."""
    for name, value in values.items():
        if not 0 < value < math.inf:  # a nan fails too
            raise InvalidParameter(f"must be positive and finite, got {value}", name)


def require_int(low, **values):
    """The values as Python ints; InvalidParameter unless each is an integer >= ``low``.

    numpy integers pass, and come back as Python ints, whose products
    cannot overflow. Returns one int for one value, else a tuple in
    keyword order.
    """
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise InvalidParameter(f"must be an integer, got {value!r}", name)
        if value < low:
            raise InvalidParameter(f"must be >= {low}, got {value}", name)
    ints = tuple(int(value) for value in values.values())
    return ints[0] if len(ints) == 1 else ints


class ParseError(ValueError):
    """Malformed LIBSVM-format input."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvalidPartition(ValueError):
    """Sample-to-agent assignment cannot be built as requested."""


class BudgetExceeded(RuntimeError):
    """Step requested beyond the configured iteration budget."""


class EmptyTrajectory(ValueError):
    """Output selection attempted on a record holding no iterates."""


class NumericFailure(RuntimeError):
    """Non-finite value encountered in a trajectory."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration
