"""Exception hierarchy for the pvgrid package, and its one value check.

Every error raised by the library derives from :class:`PVGridError`.  A
rejected input value is an :class:`InvalidValue`, also a ``ValueError``,
mostly raised by :func:`require`, which judges a number or a whole array
column at once.  The CLI exits 2 on :class:`NonConvergence`,
1 on any other pvgrid error (a datasheet that cannot be calibrated is an
:class:`InfeasibleSpec`), and lets any other exception, a bug, end in a
traceback.
"""

from __future__ import annotations

import sys
from typing import Callable, NamedTuple


class PVGridError(Exception):
    """Base class for all pvgrid errors."""


class InvalidValue(PVGridError, ValueError):
    """An input value is outside the domain of the type or function it feeds."""


class NonConvergence(PVGridError):
    """An iterative solver exhausted its budget without meeting tolerance."""


class InfeasibleSpec(PVGridError):
    """Datasheet ratings admit no physical single-diode parameter set."""


class DarkArray(PVGridError):
    """Maximum-power request at zero irradiance (no maximum above 0 W)."""


class DegenerateInput(InvalidValue):
    """Design-calculator input violates a structural requirement."""


class InvalidScenario(InvalidValue):
    """Scenario value violates one of its invariants."""


class ParseError(PVGridError):
    """Scenario document is not well-formed."""


class ValidationError(PVGridError):
    """Scenario document is well-formed but names an invalid configuration."""


class GridMismatch(PVGridError):
    """Two time series cannot be compared because their time grids differ."""


class EmptySeries(PVGridError):
    """Report requested for a series with no records."""


class Bound(NamedTuple):
    """What a value must be: the words an error gives, and a test of a finite number
    (entry by entry, for a bound that :func:`require` applies to an array)."""

    text: str  # completes "<name> must be ..."
    holds: Callable[[float], bool]


_MAX = sys.float_info.max

FINITE = Bound("finite", lambda x: True)
POSITIVE = Bound("finite and positive", lambda x: x > 0.0)
NON_NEGATIVE = Bound("finite and non-negative", lambda x: x >= 0.0)


def within(value: object, bound: Bound = FINITE) -> bool:
    """Whether ``value`` is a finite number within ``bound``, judged as given:
    an int past the float range is not finite, though it rounds to a double."""
    try:
        return -_MAX <= value <= _MAX and bound.holds(value)
    except TypeError:  # not a number
        return False


def require(
    values: dict[str, object], bound: Bound = FINITE, error: type[InvalidValue] = InvalidValue
) -> None:
    """Raise ``error`` naming the first of ``values`` that is not :func:`within` ``bound``.

    A value may be a numpy array or number, judged in one pass; the error
    gives its first entry that is out of bound, as a Python number.
    """
    for name, value in values.items():
        if hasattr(value, "ndim"):
            out = value[~((abs(value) <= _MAX) & bound.holds(value))]
            if not out.size:
                continue
            value = out.item(0)
        if not within(value, bound):
            raise error(f"{name} must be {bound.text}, got {value!r}")
