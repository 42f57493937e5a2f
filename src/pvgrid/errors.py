"""Exception hierarchy for the pvgrid package, and its value checks.

Every error raised by the library derives from :class:`PVGridError`, and
each kind of rejection has one class.  A scenario document whose shape
the parser rejects (JSON syntax, UTF-8, structure, keys, JSON types, the
id or the compensator mode) is a :class:`ParseError`.  A value outside
the domain of the record, design calculator or run it feeds is an
:class:`InvalidValue`, also a ``ValueError``, wherever it is found.
Mostly it is raised by one of its checks.  Every record declares the
bound of each numeric field once (with :func:`bounded`, beside the unit a
printed result shows it in), and
:func:`check_fields` holds each field to it as one real number; the same
table (:func:`numeric_fields`) gives the scenario document's keys,
defaults and JSON schema.  :func:`require` judges a function's numbers,
and :func:`require_each` an array's entries.  The CLI exits 2 on
:class:`NonConvergence`, 1 on any other pvgrid error (a datasheet that
cannot be calibrated is an :class:`InfeasibleSpec`), and lets any other
exception, a bug, end in a traceback.
"""

from __future__ import annotations

import operator
import sys
from collections.abc import Mapping
from dataclasses import MISSING, field, fields
from functools import cache
from numbers import Real
from typing import Callable, NamedTuple, get_type_hints


class PVGridError(Exception):
    """Base class for all pvgrid errors."""


class InvalidValue(PVGridError, ValueError):
    """An input value is outside the domain of the type or function it feeds."""


class NonConvergence(PVGridError):
    """An iterative solver exhausted its budget without meeting tolerance."""


class InfeasibleSpec(PVGridError):
    """Datasheet ratings admit no physical single-diode parameter set."""


class DarkArray(PVGridError):
    """Maximum-power request on a dark curve: zero irradiance, or light so dim
    that the maximum power underflows (no maximum above 0 W)."""


class ParseError(PVGridError):
    """Scenario document is not well-formed, or has the wrong keys or JSON types."""


class GridMismatch(PVGridError):
    """Two time series cannot be compared because their time grids differ."""


class Bound(NamedTuple):
    """What a value must be: the words an error gives, a test of a finite number
    (entry by entry, for a bound that :func:`require` applies to an array), and
    the JSON-schema keywords that say the same of a number."""

    text: str  # completes "<name> must be ..."
    holds: Callable[[float], bool]
    schema: Mapping[str, float] = {}  # e.g. {"exclusiveMinimum": 0}


_MAX = sys.float_info.max
# Real numbers; float and int come first, because the numbers.Real check is slow.
_REAL = (float, int, Real)

FINITE = Bound("finite", lambda x: True)
POSITIVE = Bound("finite and positive", lambda x: x > 0.0, {"exclusiveMinimum": 0})
NON_NEGATIVE = Bound("finite and non-negative", lambda x: x >= 0.0, {"minimum": 0})


def within(value: object, bound: Bound = FINITE) -> bool:
    """Whether ``value`` is one real number (Python or numpy; a bool or an array
    is not), finite and within ``bound``, judged as given: an int past the float
    range is not finite, though it rounds to a double."""
    return (isinstance(value, _REAL) and not isinstance(value, bool)
            and -_MAX <= value <= _MAX and bound.holds(value))


def require(values: dict[str, object], bound: Bound = FINITE) -> None:
    """Raise :class:`InvalidValue` naming the first of ``values`` not :func:`within`
    ``bound``, so not one real number (an array is not); a numpy number is
    shown as the Python number it holds."""
    for name, value in values.items():
        if not within(value, bound):
            shown = value.item() if isinstance(value, _REAL) and hasattr(value, "item") else value
            raise InvalidValue(f"{name} must be {bound.text}, got {shown!r}")


def require_each(values: dict[str, object], bound: Bound = FINITE) -> None:
    """:func:`require` for values that are each a number or a numpy array, an
    array judged entry by entry in one pass; the error gives its first entry
    that is out of bound, as a Python number."""
    for name, value in values.items():
        if hasattr(value, "ndim"):
            out = value  # a bool array is out of bound throughout
            if value.dtype != bool:
                out = value[~((abs(value) <= _MAX) & bound.holds(value))]
            if not out.size:
                continue
            value = out.item(0)
        require({name: value}, bound)


def bounded(bound: Bound, default: object = MISSING, *, unit: str = ""):
    """A dataclass field whose value :func:`check_fields` holds to ``bound``;
    ``unit`` is the SI unit its value is printed in."""
    return field(default=default, metadata={"bound": bound, "unit": unit})


@cache
def numeric_fields(cls: type) -> dict[str, tuple[Bound, bool, object]]:
    """``name -> (bound, is integer, default or MISSING)`` of each int or float
    field of the record type ``cls``, in field order: the one table of a
    record's numeric fields.  A dataclass field declares its bound with
    :func:`bounded` (a derived field in its ``metadata["bound"]``), a NamedTuple
    field in the class's ``BOUNDS`` mapping; a field that declares none is
    :data:`FINITE`."""
    if hasattr(cls, "_fields"):  # NamedTuple
        declared, defaults = getattr(cls, "BOUNDS", {}), cls._field_defaults
    else:
        declared = {f.name: f.metadata["bound"] for f in fields(cls) if "bound" in f.metadata}
        defaults = {f.name: f.default for f in fields(cls)}
    return {
        name: (declared.get(name, FINITE), hint is int, defaults.get(name, MISSING))
        for name, hint in get_type_hints(cls).items()
        if hint in (int, float)
    }


def check_fields(record: object, prefix: str = "") -> None:
    """Raise :class:`InvalidValue` naming the first of the :func:`numeric_fields` of
    ``record``, in field order, that is not one real number (Python or numpy; a
    bool or an array is not) within its bound, or is declared ``int`` and holds
    no integer.  A numpy number is shown as the Python number it holds.
    ``prefix`` goes in front of the field's name."""
    for name, (bound, integer, _) in numeric_fields(type(record)).items():
        value = getattr(record, name)
        require({prefix + name: value}, bound)
        if integer:
            try:
                operator.index(value)
            except TypeError:
                raise InvalidValue(f"{prefix}{name} must be an integer, got {value!r}") from None
