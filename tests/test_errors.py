"""Tests for pvgrid.errors — the error hierarchy and the one value check."""

from __future__ import annotations

import inspect
import math
import re
import sys
from fractions import Fraction

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvgrid import errors
from pvgrid.compensation import FixedCapacitor, Statcom, capbank_q, statcom_dispatch
from pvgrid.component_design import (
    BoostDesign, BoostDesignInput, LCLDesign, LCLDesignInput, ResonanceReport, capbank_size,
    resonance_check,
)
from pvgrid.errors import (
    FINITE, NON_NEGATIVE, POSITIVE, Bound, InvalidValue, ParseError, PVGridError,
    numeric_fields, require, require_each,
)
from pvgrid.pv_model import (
    ENVELOPE, EnvCondition, MPPResult, PVArraySpec, SingleDiodeParams, module_current, mpp,
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
    """``require(values, bound)``, and ``require_each`` for values that may be arrays."""

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
        nor whether an array may stand for a number."""
        for check in (require, require_each):
            assert list(inspect.signature(check).parameters) == ["values", "bound"]

    @pytest.mark.parametrize("value", [np.array([1.0]), np.array(1.0), np.array([])])
    def test_array_is_not_a_number(self, value):
        """``require`` judges numbers: an array fails, even one whose every entry
        is inside the bound, and is shown as the array."""
        with pytest.raises(InvalidValue) as err:
            require({"x": value}, POSITIVE)
        assert str(err.value) == f"x must be finite and positive, got {value!r}"

    def test_array_names_its_first_failing_entry(self):
        """``require_each`` judges an array entry by entry in one call; the first
        entry out of bound is named as a number, and an array wholly inside
        passes, as does a number."""
        require_each({"x": np.array([]), "y": np.array([1.0, 5e-324]), "z": 2.0}, POSITIVE)
        with pytest.raises(InvalidValue, match=r"^x must be finite and positive, got -2\.0$"):
            require_each({"x": np.array([1.0, -2.0, math.nan])}, POSITIVE)
        with pytest.raises(InvalidValue, match=r"^x must be finite, got nan$"):
            require_each({"x": np.array([[1.0, math.nan], [math.inf, 0.0]])})
        with pytest.raises(InvalidValue, match=r"^x must be finite, got True$"):
            require_each({"x": True})

    @pytest.mark.parametrize("value", [np.array([True, False]), np.array([False]), np.True_])
    def test_bool_array_fails(self, value):
        """A bool array or numpy bool is out of bound throughout, and its first
        entry is named."""
        shown = value.flat[0].item()
        with pytest.raises(InvalidValue, match=f"^x must be finite and non-negative, got {shown}$"):
            require_each({"x": value}, NON_NEGATIVE)


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
        pytest.param(lambda: capbank_q(1e5, 230.0, np.array([True])),
                     "v must be finite and non-negative, got True", id="capbank_q-bool"),
        pytest.param(lambda: capbank_q(1e5, 230.0, np.array([True, False])),
                     "v must be finite and non-negative, got True", id="capbank_q-bools"),
        pytest.param(lambda: statcom_dispatch(np.array([True]), Statcom(q_max=2e5)),
                     "q_demand must be finite, got True", id="statcom_dispatch-bool"),
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
        pytest.param(lambda: capbank_q(np.array([1e5]), 230.0, 230.0),
                     "q_rated must be finite and non-negative, got array([100000.])",
                     id="capbank_q-array-q_rated"),
    ],
)
def test_value_out_of_domain_is_named(build, message):
    """A record or calculator given a value outside its domain (a maximum power
    point or a resonance that is not positive, a bool where a number goes, an
    array where one number goes) raises an InvalidValue naming the argument,
    not a TypeError or a result."""
    with pytest.raises(InvalidValue, match=f"^{re.escape(message)}$"):
        build()
