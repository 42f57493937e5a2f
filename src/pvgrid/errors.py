"""Exception hierarchy for the pvgrid package, and its value checks.

Every error raised by the library derives from :class:`PVGridError`, and
each kind of rejection has one class.  A scenario document whose shape
the parser rejects (JSON syntax, UTF-8, structure, keys, JSON types, the
id or the compensator mode) is a :class:`ParseError`.  A value outside
the domain of the record, design calculator or run it feeds is an
:class:`InvalidValue`, also a ``ValueError``, wherever it is found.
Mostly it is raised by one of its checks.  :func:`check_fields` judges each
field of a record by the one rule its annotation picks (:func:`field_rules`): a
number by the bound declared beside its unit (:func:`bounded`), a ``str`` id by
:data:`IDENTIFIER`, as the parser judges a document's, and a record by its type;
the same table gives the scenario document's keys, defaults and JSON schema.
:func:`require` judges a function's numbers and records by the same rules,
:func:`require_integer` a count, and :func:`require_columns` each column, entry by
entry by its column's bound, naming the first failing entry by its index.
The CLI exits 2 on :class:`NonConvergence`, 1 on any other pvgrid error (a
datasheet that cannot be calibrated is an :class:`InfeasibleSpec`), and lets
any other exception, a bug, end in a traceback.
"""

from __future__ import annotations

import operator
import sys
from collections.abc import Mapping
from dataclasses import MISSING, field, fields
from functools import cache
from numbers import Real
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints


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
    """What a value must be: the words an error gives, a test of it, and the
    JSON-schema keywords that say the same of a number.  A number's test sees a
    finite real number (or, in :func:`require_columns`, a float column of them);
    the id's sees any value."""

    text: str  # completes "<name> must be ..."
    holds: Callable[[float], bool]
    schema: Mapping[str, float] = {}  # e.g. {"exclusiveMinimum": 0}
    number: bool = True  # whether only a finite real number can meet it


_MAX = sys.float_info.max
# Real numbers; float and int come first, because the numbers.Real check is slow.
_REAL = (float, int, Real)

FINITE = Bound("finite", lambda x: True)
POSITIVE = Bound("finite and positive", lambda x: x > 0.0, {"exclusiveMinimum": 0})
NON_NEGATIVE = Bound("finite and non-negative", lambda x: x >= 0.0, {"minimum": 0})
# A scenario's id, in a document or a record; a lone surrogate ("\ud800") is not
# printable, and no output could write it.
IDENTIFIER = Bound("a non-empty printable string",
                   lambda s: isinstance(s, str) and s.isprintable() and s != "", number=False)


def within(value: object, bound: Bound = FINITE) -> bool:
    """Whether ``value`` meets ``bound``: the id's when its test holds, a number's
    when it is one real number (Python or numpy; a bool or an array is not),
    finite and within it, judged as given: an int past the float range is not
    finite, though it rounds to a double."""
    if not bound.number:
        return bound.holds(value)
    return (isinstance(value, _REAL) and not isinstance(value, bool)
            and -_MAX <= value <= _MAX and bound.holds(value))


def require(values: dict[str, object], rule: Bound | type = FINITE) -> None:
    """Raise :class:`InvalidValue` naming the first of ``values`` that breaks ``rule``:
    that is not :func:`within` a :class:`Bound` (so, for a number's, not one real
    number: an array is not), shown as the Python number a numpy number holds; or
    that is no instance of a class or a union of classes, shown by its type."""
    for name, value in values.items():
        if not isinstance(rule, Bound):
            if not isinstance(value, rule):
                kinds = ["None" if cls is type(None) else cls.__name__
                         for cls in get_args(rule) or (rule,)]
                wanted = f"one of {', '.join(kinds)}" if kinds[1:] else f"a {kinds[0]}"
                raise InvalidValue(f"{name} must be {wanted}, got {type(value).__name__}")
        elif not within(value, rule):
            shown = value.item() if isinstance(value, _REAL) and hasattr(value, "item") else value
            raise InvalidValue(f"{name} must be {rule.text}, got {shown!r}")


def require_integer(values: dict[str, object]) -> None:
    """Raise :class:`InvalidValue` naming the first of ``values`` that is no
    integer by ``operator.index`` (a numpy integer is one, a bool is none)."""
    for name, value in values.items():
        try:
            operator.index(None if isinstance(value, bool) else value)
        except TypeError:
            raise InvalidValue(f"{name} must be an integer, got {value!r}") from None


def numbers_only(column) -> bool:
    """Whether each entry of ``column`` is a number by its type alone: an array of an
    int or float dtype, or Python ints and floats.  numpy reads a bool, and in a
    float array a numeric string, as a number, so other entries need judging."""
    dtype = getattr(column, "dtype", None)
    return dtype.kind in "iuf" if dtype is not None else {int, float}.issuperset(map(type, column))


def require_columns(given, bounds: Mapping[str, Bound] | type, where: str, unit: str, *,
                    rising: bool = False, from_zero: bool = False):
    """The columns ``given``, one per entry of ``bounds`` (or per field of a record
    type, by its :func:`numeric_fields`), as a read-only float block.  Each entry must
    be :func:`within` its column's bound, judged as given unless every column is
    :func:`numbers_only`; if ``rising``, the first column must have an entry and rise
    strictly, from 0 if ``from_zero``.  The error names the first failing entry, then
    its column: ``<where> <unit> <k>: <column> must be <bound>, got <value>``."""
    import numpy as np  # here, so that importing the errors loads no numpy

    if isinstance(bounds, type):
        bounds = {name: bound for name, (bound, *_) in numeric_fields(bounds).items()}
    names, rules = list(bounds), list(bounds.values())
    try:
        values = np.array(given)
    except ValueError:  # ragged
        values = None
    if values is None or values.ndim != 2 or len(values) != len(rules):
        raise InvalidValue(f"{where} must hold {len(rules)} float{'s'[:len(rules) - 1]} "
                           f"per {unit}")
    if rising and not values.shape[1]:
        raise InvalidValue(f"{where} must have at least one {unit}")
    if values.dtype.kind in "iuf" and all(map(numbers_only, given)):
        block = values = values.astype(float, copy=False)
        ok = np.isfinite(block)
        for row, column, bound in zip(ok, block, rules):
            row &= bound.holds(column)
    else:  # strings, None, bools, or ints past int64: each judged as given
        values = np.array(given, dtype=object)
        ok = np.array([[within(x, b) for x in row] for row, b in zip(values.tolist(), rules)],
                      dtype=bool)
        block = np.where(ok, values, np.nan).astype(float)
    first = block[0]
    if rising:
        ok[0, 1:] &= first[1:] > first[:-1]
        if from_zero:
            ok[0, 0] &= first[0] == 0.0
    if not ok.all():
        k = int(np.argmin(ok.all(axis=0)))
        f = int(np.argmin(ok[:, k]))
        name, value = f"{where} {unit} {k}: {names[f]}", values[:, k].tolist()[f]
        require({name: value}, rules[f])  # else the first column is out of order
        order = "0" if k == 0 else f"after {first[k - 1].item()!r}"
        raise InvalidValue(f"{name} must be {order}, got {value!r}")
    block.flags.writeable = False
    return block


def bounded(bound: Bound, default: object = MISSING, *, unit: str = ""):
    """A dataclass field whose value :func:`check_fields` holds to ``bound``;
    ``unit`` is the SI unit its value is printed in."""
    return field(default=default, metadata={"bound": bound, "unit": unit})


@cache
def field_rules(cls: type) -> dict[str, tuple[object, object, object]]:
    """``name -> (rule, annotation, default or MISSING)`` of each field of the record
    type ``cls``, in field order: the one table of a record's fields.  An int or
    float field's rule is the :class:`Bound` it declares (with :func:`bounded`, a
    derived field in its ``metadata["bound"]``, a NamedTuple field in the class's
    ``BOUNDS``), else :data:`FINITE`; a ``str`` field's is :data:`IDENTIFIER`; a
    column's (an array, or a mapping of arrays) is None, for :func:`require_columns`;
    any other field's is its annotation, a class or a union of classes."""
    if hasattr(cls, "_fields"):  # NamedTuple
        declared, defaults = getattr(cls, "BOUNDS", {}), cls._field_defaults
    else:
        declared = {f.name: f.metadata["bound"] for f in fields(cls) if "bound" in f.metadata}
        defaults = {f.name: f.default for f in fields(cls)}
    hints, rules = get_type_hints(cls), {}
    for name in getattr(cls, "_fields", defaults):
        hint = hints[name]
        column = get_origin(hint) is Mapping or getattr(hint, "__module__", "") == "numpy"
        rule = (declared.get(name, FINITE) if hint in (int, float) else IDENTIFIER if hint is str
                else None if column else hint)
        rules[name] = (rule, hint, defaults.get(name, MISSING))
    return rules


@cache
def numeric_fields(cls: type) -> dict[str, tuple[Bound, bool, object]]:
    """``name -> (bound, is integer, default or MISSING)`` of each int or float field
    of the record type ``cls``, from :func:`field_rules`: a document section's keys."""
    return {name: (bound, hint is int, default)
            for name, (bound, hint, default) in field_rules(cls).items() if hint in (int, float)}


def check_fields(record: object, prefix: str = "") -> None:
    """Raise :class:`InvalidValue` naming the first field of ``record``, in field
    order, that breaks its rule in :func:`field_rules` (:func:`require`), or is
    declared ``int`` and holds no integer.  ``prefix`` goes in front of the
    field's name."""
    for name, (rule, hint, _) in field_rules(type(record)).items():
        values = {prefix + name: getattr(record, name)}
        if rule is not None:
            require(values, rule)
        if hint is int:
            require_integer(values)
