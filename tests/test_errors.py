"""Tests for pvgrid.errors — the error hierarchy and the one value check."""

from __future__ import annotations

import inspect
import json
import math
import re
import sys
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction
from typing import get_args

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pvgrid
from pvgrid import errors
from pvgrid.compensation import FixedCapacitor, NoCompensator, Statcom, dispatch
from pvgrid.component_design import (
    BoostDesign, BoostDesignInput, LCLDesign, LCLDesignInput, ResonanceReport, capbank_size,
    resonance_check,
)
from pvgrid.errors import (
    FINITE, IDENTIFIER, NON_NEGATIVE, POSITIVE, Bound, InvalidValue, ParseError, PVGridError,
    field_rules, numeric_fields, require,
)
from pvgrid.pv_model import (
    ENVELOPE, EnvCondition, IVCurve, MPPResult, PVArraySpec, SingleDiodeParams, module_current,
    mpp,
)
from pvgrid.scenario_io import emit_scenario, parse_scenario
from pvgrid.simulator import (
    COLUMNS, IrradianceStep, PowerFlowRecord, Scenario, TimeSeries, run,
)

from conftest import REF_GRID, REF_MODULE, make_scenario


@pytest.mark.parametrize("cls", [InvalidValue])
def test_rejections_are_pvgrid_errors_and_value_errors(cls):
    """A rejected value is caught by ``except PVGridError`` and by ``except ValueError``."""
    assert issubclass(cls, PVGridError) and issubclass(cls, ValueError)


def test_one_class_per_kind_of_rejection():
    """The hierarchy is these seven classes, each a PVGridError; only a value out
    of its domain is also a ValueError, not a document the parser rejects."""
    classes = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    }
    assert classes == {
        "PVGridError", "InvalidValue", "ParseError", "NonConvergence", "InfeasibleSpec",
        "DarkArray", "GridMismatch",
    }
    assert all(issubclass(getattr(errors, name), PVGridError) for name in classes)
    assert [name for name in classes if issubclass(getattr(errors, name), ValueError)] == [
        "InvalidValue"
    ]
    assert not issubclass(ParseError, ValueError)


class TestRequire:
    """``require(values, bound)``, the one check of a function's numbers."""

    @pytest.mark.parametrize(
        "value", [0.0, -0.0, 1, -1e308, sys.float_info.max, int(sys.float_info.max),
                  np.float64(2.5), np.int64(3), Fraction(1, 3)],
    )
    def test_finite_numbers_pass(self, value):
        """Floats, ints within the float range and other real numbers pass."""
        require({"x": value})

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, int(sys.float_info.max) * 2, -(10**400),
                  None, "1.0", [1.0], 1j, True, False],
        ids=["nan", "inf", "-inf", "int-past-range", "negative-int-past-range", "None",
             "str", "list", "complex", "True", "False"],
    )
    def test_non_numbers_and_non_finite_fail(self, value):
        """NaN, infinities, ints past the float range (judged as given, not as
        the double they round to) and values that are not numbers fail; a bool
        is not a number, though it compares as 1 or 0."""
        with pytest.raises(InvalidValue) as err:
            require({"x": value})
        assert str(err.value) == f"x must be finite, got {value!r}"

    def test_first_failing_value_is_named(self):
        """Values are checked in order and the first that fails is named."""
        with pytest.raises(InvalidValue, match=r"^b must be finite and positive, got 0\.0$"):
            require({"a": 1.0, "b": 0.0, "c": -1.0}, POSITIVE)

    @pytest.mark.parametrize(
        ("bound", "inside", "outside"),
        [
            (FINITE, [-1e308, 0.0], []),
            (POSITIVE, [5e-324, 1.0], [0.0, -0.0, -1.0]),
            (NON_NEGATIVE, [0.0, -0.0, 1.0], [-5e-324]),
            (Bound("finite and in (0, 1]", lambda x: 0.0 < x <= 1.0), [1.0, 0.5], [0.0, 1.5]),
        ],
        ids=["finite", "positive", "non-negative", "half-open"],
    )
    def test_bound_ends(self, bound, inside, outside):
        """Each bound admits its inside and rejects its outside, ends included."""
        for value in inside:
            require({"x": value}, bound)
        for value in outside:
            with pytest.raises(InvalidValue, match=f"^x must be {re.escape(bound.text)}"):
                require({"x": value}, bound)

    def test_takes_values_and_bound(self):
        """The error is always an InvalidValue; no caller chooses another class,
        nor whether an array may stand for a number.  The rule is a bound, or a
        class or union of classes for a record."""
        assert list(inspect.signature(require).parameters) == ["values", "rule"]

    @pytest.mark.parametrize("value", [np.array([1.0]), np.array(1.0), np.array([])])
    def test_array_is_not_a_number(self, value):
        """``require`` judges numbers: an array fails, even one whose every entry
        is inside the bound, and is shown as the array."""
        with pytest.raises(InvalidValue) as err:
            require({"x": value}, POSITIVE)
        assert str(err.value) == f"x must be finite and positive, got {value!r}"


# A valid record of each type whose numeric fields ``check_fields`` holds to their
# declared bounds, and the prefix its messages give a field's name.
RECORDS = {
    "GridSpec": (REF_GRID, "grid "),
    "PVModuleSpec": (REF_MODULE, ""),
    "PVArraySpec": (PVArraySpec(REF_MODULE, 10, 47), ""),
    "FixedCapacitor": (FixedCapacitor(q_rated=100_000.0, v_rated=230.0), ""),
    "Statcom": (Statcom(q_max=200_000.0, loss_frac=0.01), ""),
    "Scenario": (make_scenario(), ""),
    "SingleDiodeParams": (SingleDiodeParams(7.85, 1e-10, 1.0, 0.3, 300.0, 1.5), ""),
    "MPPResult": (MPPResult(v_mp=290.0, i_mp=345.0), ""),
    "BoostDesignInput": (BoostDesignInput(100_345.0, 290.0, 700.0, 5000.0), ""),
    "BoostDesign": (BoostDesign(143.35, 24.2, 4.9, 1.4e-3, 3.4e-3), ""),
    "LCLDesignInput": (LCLDesignInput(100_000.0, 230.0, 50.0, 700.0, 10_000.0), ""),
    "LCLDesign": (LCLDesign(314.2, 1.6, 2e-3, 205.0, 20.5, 5.7e-4, 1e-4, 1.3e-5), ""),
    "ResonanceReport": (ResonanceReport(26_103.0, 500.0, 5000.0), ""),
}


def _given_fields(record: object) -> dict:
    """The :func:`numeric_fields` of ``record`` that ``replace`` can set: all but
    those the record derives from the others."""
    given = {f.name for f in fields(record) if f.init}
    return {name: row for name, row in numeric_fields(type(record)).items() if name in given}


class TestCheckFields:
    """``check_fields(record, prefix)``, the one check of a record's numeric fields."""

    @pytest.mark.parametrize(("record", "prefix"), RECORDS.values(), ids=RECORDS)
    def test_a_bool_is_not_a_number(self, record, prefix):
        """A bool in any numeric field is rejected as an InvalidValue naming the
        field and its bound, though it compares as the number 1 or 0."""
        for name, (bound, *_) in _given_fields(record).items():
            for flag in (True, False):
                message = f"{prefix}{name} must be {bound.text}, got {flag}"
                with pytest.raises(InvalidValue, match=f"^{re.escape(message)}$"):
                    replace(record, **{name: flag})

    @pytest.mark.parametrize(("record", "prefix"), RECORDS.values(), ids=RECORDS)
    def test_an_array_is_not_a_number(self, record, prefix):
        """An array in any numeric field is rejected as an InvalidValue naming the
        field and its bound, though each of its entries is inside the bound; a
        numpy number of the field's kind is accepted, and one out of bound is
        shown as the Python number it holds."""
        for name, (bound, integer, _) in _given_fields(record).items():
            value = getattr(record, name)
            array = np.array([value, value])
            message = f"{prefix}{name} must be {bound.text}, got {array!r}"
            with pytest.raises(InvalidValue, match=f"^{re.escape(message)}$"):
                replace(record, **{name: array})
            assert getattr(replace(record, **{name: array[0]}), name) == value
            if not integer:
                message = f"{prefix}{name} must be {bound.text}, got nan"
                with pytest.raises(InvalidValue, match=f"^{re.escape(message)}$"):
                    replace(record, **{name: np.float64(math.nan)})


def _violations(bound: Bound, integer: bool):
    """Values that a field with ``bound`` rejects: a bool, a number outside the
    bound (not finite, for a bound that only asks for that) and, for an int
    field, a number inside the bound that is not an integer.  The numbers stay
    small, so an array's rated power, checked first, stays finite."""
    outside = (st.sampled_from([math.nan, math.inf, -math.inf]) if bound is FINITE
               else st.floats(-1e6, 1e6).filter(lambda x: not bound.holds(x)))
    choices = [st.booleans(), outside]
    if integer:
        choices.append(st.floats(1.0, 1e6).filter(lambda x: bound.holds(x) and not x.is_integer()))
    return st.one_of(choices)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_of_two_faults_the_earlier_field_is_named(data):
    """Property: with two numeric fields of a record out of bound, the error names
    the one that comes first in field order."""
    record, prefix = data.draw(st.sampled_from(list(RECORDS.values())))
    table = _given_fields(record)
    pair = data.draw(st.lists(st.sampled_from(list(table)), min_size=2, max_size=2, unique=True))
    first, second = sorted(pair, key=[f.name for f in fields(record)].index)
    bad = {name: data.draw(_violations(*table[name][:2])) for name in (first, second)}
    with pytest.raises(InvalidValue) as err:
        replace(record, **bad)
    assert str(err.value).startswith(f"{prefix}{first} must be "), (type(record), bad)


@pytest.mark.parametrize(
    ("build", "message"),
    [
        pytest.param(lambda: MPPResult(-290.0, -345.0),
                     "v_mp must be finite and positive, got -290.0", id="MPPResult-negative"),
        pytest.param(lambda: MPPResult(None, 345.0),
                     "v_mp must be finite and positive, got None", id="MPPResult-None"),
        pytest.param(lambda: MPPResult(290.0, "345"),
                     "i_mp must be finite and positive, got '345'", id="MPPResult-str"),
        pytest.param(lambda: ResonanceReport(-5.0, 500.0, 5000.0),
                     "omega_res must be finite and positive, got -5.0", id="ResonanceReport"),
        pytest.param(lambda: EnvCondition(True, 25.0),
                     f"g must be {ENVELOPE['g'].text}, got True", id="EnvCondition-bool"),
        pytest.param(lambda: module_current(RECORDS["SingleDiodeParams"][0], True),
                     "v must be finite and non-negative, got True", id="module_current-bool"),
        pytest.param(lambda: dispatch(RECORDS["FixedCapacitor"][0], [1e5], True),
                     "v must be finite and non-negative, got True", id="dispatch-bool-v"),
        pytest.param(lambda: dispatch(Statcom(q_max=2e5), np.array([True, False]), 230.0),
                     "q_load entry 0: q_load must be finite, got True", id="dispatch-bools"),
        pytest.param(lambda: dispatch(Statcom(q_max=2e5), np.array([True]), 230.0),
                     "q_load entry 0: q_load must be finite, got True", id="dispatch-bool"),
        pytest.param(lambda: resonance_check(np.array([6e-4]), 1.5e-5, 1e-4, 50.0, 1e4),
                     "l_1 must be finite and positive, got array([0.0006])",
                     id="resonance_check-array"),
        pytest.param(lambda: module_current(RECORDS["SingleDiodeParams"][0], np.array([1.0])),
                     "v must be finite and non-negative, got array([1.])",
                     id="module_current-array"),
        pytest.param(lambda: mpp(RECORDS["PVArraySpec"][0], RECORDS["SingleDiodeParams"][0],
                                 EnvCondition(g=np.array([500.0]), t=25.0)),
                     f"g must be {ENVELOPE['g'].text}, got array([500.])", id="mpp-array-g"),
        pytest.param(lambda: capbank_size(np.array([1e5]), 230.0, 50.0),
                     "q_rated must be finite and non-negative, got array([100000.])",
                     id="capbank_size-array"),
        pytest.param(lambda: capbank_size(np.array([1e5, 2e5]), 230.0, 50.0),
                     "q_rated must be finite and non-negative, got array([100000., 200000.])",
                     id="capbank_size-arrays"),
        pytest.param(lambda: dispatch(RECORDS["FixedCapacitor"][0], [1e5], np.array([230.0])),
                     "v must be finite and non-negative, got array([230.])",
                     id="dispatch-array-v"),
    ],
)
def test_value_out_of_domain_is_named(build, message):
    """A record or calculator given a value outside its domain (a maximum power
    point or a resonance that is not positive, a bool where a number goes, an
    array where one number goes) raises an InvalidValue naming the argument,
    not a TypeError or a result."""
    with pytest.raises(InvalidValue, match=f"^{re.escape(message)}$"):
        build()


# Every public record type: a dataclass or a named tuple in the lazy namespace.
RECORD_TYPES = {
    name: cls for name in pvgrid._HOMES
    if isinstance(cls := getattr(pvgrid, name), type)
    and (is_dataclass(cls) or issubclass(cls, tuple))
}
# Each column field (an array or a mapping of arrays) and what
# judges its entries: the one column rule, or for a derived column its record.
COLUMN_CHECKS = {
    ("Scenario", "irradiance"): "errors.require_columns",
    ("Scenario", "load"): "errors.require_columns",
    ("IVCurve", "v"): "errors.require_columns",
    ("IVCurve", "i"): "errors.require_columns",
    ("IVCurve", "p"): "IVCurve.__post_init__",
    ("TimeSeries", "columns"): "errors.require_columns",
    ("ComparisonReport", "delta_q_grid"): "errors.require_columns",
    ("ComparisonReport", "delta_pf_grid"): "errors.require_columns",
}


def _record_kinds(rule) -> tuple:
    """The record types a field's rule asks for, if it asks for records only."""
    kinds = () if rule is None or isinstance(rule, Bound) else get_args(rule) or (rule,)
    return kinds if kinds and all(map(is_dataclass, kinds)) else ()


@pytest.mark.parametrize("cls", RECORD_TYPES.values(), ids=RECORD_TYPES)
def test_every_record_field_has_one_rule(cls):
    """Structural guard: every field of every public record is judged by one rule
    that its annotation picks: an int or float by a bound, a str by the id rule,
    a column by the check named in COLUMN_CHECKS, and any other field by its
    type, a class or a union of classes.  A record with a record-valued field has
    a valid instance in RECORDS, so the test below covers the field."""
    rules = field_rules(cls)
    assert list(rules) == list(cls._fields if issubclass(cls, tuple) else
                               [f.name for f in fields(cls)])
    for name, (rule, hint, _) in rules.items():
        if hint in (int, float):
            assert isinstance(rule, Bound) and rule is not IDENTIFIER, name
        elif hint is str:
            assert rule is IDENTIFIER, name
        elif rule is None:
            assert (cls.__name__, name) in COLUMN_CHECKS, name
        else:
            kinds = get_args(rule) or (rule,)
            assert rule is hint and all(isinstance(kind, type) for kind in kinds), name
            if _record_kinds(rule):
                assert cls.__name__ in RECORDS, name
    assert {record for record, _ in COLUMN_CHECKS} <= set(RECORD_TYPES)


def _wrong_record(kinds: tuple) -> object:
    """A valid record of none of ``kinds``."""
    return next(record for record, _ in RECORDS.values() if not isinstance(record, kinds))


_RECORD_FIELD_CASES = [
    pytest.param(record, prefix + name, bad, kinds,
                 id=f"{key}.{name}-{type(bad).__name__}")
    for key, (record, prefix) in RECORDS.items()
    for name, (rule, *_) in field_rules(type(record)).items()
    if (kinds := _record_kinds(rule))
    for bad in (None, "x", _wrong_record(kinds))
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(("record", "name", "bad", "kinds"), _RECORD_FIELD_CASES)
def test_record_valued_field_is_judged_by_its_type(record, name, bad, kinds):
    """None, a string or a record of another type in a record-valued field is an
    InvalidValue naming the field, the type it must be and the type it got, when
    the record is built, with no warning: never an AttributeError later."""
    wanted = (f"one of {', '.join(kind.__name__ for kind in kinds)}" if kinds[1:]
              else f"a {kinds[0].__name__}")
    message = f"{name} must be {wanted}, got {type(bad).__name__}"
    with pytest.raises(InvalidValue, match=f"^{re.escape(message)}$"):
        replace(record, **{name: bad})


def test_record_cases_cover_every_record_valued_field():
    """The cases above cover Scenario's grid, array and compensator and
    PVArraySpec's module."""
    covered = {case.id.rsplit("-", 1)[0] for case in _RECORD_FIELD_CASES}
    assert covered == {"Scenario.grid", "Scenario.array", "Scenario.compensator",
                       "PVArraySpec.module"}


_IDS = ["scenario", "é€😀", "a b", "", "a\nb", "\t", "\ud800", 5, None, 1.5, True, ["a"]]


@pytest.mark.parametrize("scenario_id", _IDS, ids=repr)
def test_the_parser_and_the_records_judge_an_id_alike(scenario_id):
    """One rule judges an id: the parser accepts a document's ``id`` exactly when
    a Scenario and a TimeSeries accept it.  The parser's rejection is its
    ParseError; a record's is an InvalidValue naming the field and the value."""
    holds = IDENTIFIER.holds(scenario_id)
    assert holds is (type(scenario_id) is str and scenario_id not in ("", "a\nb", "\t", "\ud800"))
    doc = json.loads(emit_scenario(make_scenario()))
    doc["id"] = scenario_id
    series = run(make_scenario())
    builds = [lambda: parse_scenario(json.dumps(doc)),
              lambda: make_scenario(scenario_id=scenario_id),
              lambda: TimeSeries(scenario_id, series.columns)]
    if holds:
        assert parse_scenario(json.dumps(doc)).scenario_id == scenario_id
        for build in builds[1:]:
            assert build().scenario_id == scenario_id
        return
    parse_message = "document: key 'id' must be a non-empty printable string"
    with pytest.raises(ParseError, match=f"^{re.escape(parse_message)}$"):
        builds[0]()
    message = f"scenario_id must be a non-empty printable string, got {scenario_id!r}"
    for build in builds[1:]:
        with pytest.raises(InvalidValue, match=f"^{re.escape(message)}$"):
            build()


# The sites of the one column rule: each builds from columns given as a list, and
# names (where, unit, bounds by column, rising, from zero) as the rule does.
def _curve_site(columns):
    return IVCurve(*columns)


def _series_site(columns):
    return TimeSeries("x", dict(zip(COLUMNS, columns)))


def _profile_site(columns):
    return Scenario(REF_GRID, PVArraySpec(REF_MODULE, 10, 47), compensator=NoCompensator(),
                    irradiance=columns, load=[[0.0], [1e5], [0.0]])


def _dispatch_site(columns):
    return dispatch(Statcom(q_max=2e5), columns[0], 230.0)


def _column_sites() -> dict:
    series = run(make_scenario()).columns
    bounds = {name: bound for name, (bound, *_) in numeric_fields(PowerFlowRecord).items()}
    irradiance = {name: bound for name, (bound, *_) in numeric_fields(IrradianceStep).items()}
    return {
        "profile": (_profile_site, [[0.0, 0.01, 0.02], [1000.0, 500.0, 0.0], [25.0, 30.0, 35.0]],
                    ("irradiance profile", "segment", irradiance, True, True)),
        "dispatch": (_dispatch_site, [[1e5, -2e4, 0.0]],
                     ("q_load", "entry", {"q_load": FINITE}, False, False)),
        "curve": (_curve_site, [[0.0, 10.0, 20.0], [5.0, 4.0, 0.0]],
                  ("curve", "point", {"v": FINITE, "i": FINITE}, True, True)),
        "series": (_series_site, [series[name].tolist() for name in COLUMNS],
                   ("time series", "record", bounds, True, False)),
    }


_COLUMN_SITES = _column_sites()
# An entry in place of one given: a number of either Python kind, near the
# bounds and the base values, or a value no column may hold.
_ENTRIES = st.one_of(
    st.sampled_from([0, 1, 25, -1, 5000, 0.0, 0.5, 1.0, 0.01, -0.5, 2000.5, 95.0, 1e5]),
    st.floats(-1e3, 3e3), st.integers(-50, 3000),
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, np.True_, "1", "0.5", None,
                     10**400, -(10**400), int(sys.float_info.max) + 1]),
)


def _first_fault(columns, bounds, rising, from_zero):
    """``(entry, column)`` of the first entry the column rule rejects, or None."""
    for k in range(len(columns[0])):
        for f, (name, bound) in enumerate(bounds.items()):
            x = columns[f][k]
            if not errors.within(x, bound):
                return k, name
            if f == 0 and rising and (x != 0.0 if k == 0 else not x > columns[0][k - 1]):
                if k > 0 or from_zero:
                    return k, name
    return None


def _held(columns: list) -> list:
    """``columns`` as arrays that hold each value as given: when every entry is a
    float or an int a float holds exactly, a column of int dtype if it holds
    ints only, else of float dtype; otherwise every column of object dtype, as
    the rule then judges each entry as given, an int as an int."""
    entries = [x for column in columns for x in column]
    if not {int, float}.issuperset(map(type, entries)) or any(
            type(x) is int and abs(x) > 2**53 for x in entries):
        return [np.array(column, dtype=object) for column in columns]
    return [np.array(column, dtype=np.int64 if {int}.issuperset(map(type, column)) else float)
            for column in columns]


def _outcome(site, columns):
    """None if the site accepts ``columns``, else its InvalidValue's message."""
    try:
        site(columns)
    except InvalidValue as exc:
        return str(exc)
    return None


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_the_column_rule_judges_lists_and_arrays_alike(data):
    """Property: at each site of the one column rule (a profile, the load-q column
    of ``dispatch``, a curve and a series), columns with entries swapped for
    drawn ones are accepted, or rejected naming the first bad entry by index and
    then its column; the site may then apply a check of its own.  Given as
    Python lists or as arrays that hold their values as given, of float, int or
    object dtype, they get the same verdict and the same message."""
    site, base, (where, unit, bounds, rising, from_zero) = _COLUMN_SITES[
        data.draw(st.sampled_from(sorted(_COLUMN_SITES)))]
    columns = [list(column) for column in base]
    for _ in range(data.draw(st.integers(0, 3))):
        f = data.draw(st.integers(0, len(columns) - 1))
        columns[f][data.draw(st.integers(0, len(columns[f]) - 1))] = data.draw(_ENTRIES)
    lists = _outcome(site, columns)
    assert _outcome(site, _held(columns)) == lists, columns
    fault = _first_fault(columns, bounds, rising, from_zero)
    if fault is not None:
        k, name = fault
        assert lists is not None and lists.startswith(f"{where} {unit} {k}: {name} must be "), (
            columns, lists)
    else:
        assert lists is None or not lists.startswith(f"{where} {unit} "), (columns, lists)
