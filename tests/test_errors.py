"""Tests for pvgrid.errors — the error hierarchy and the one value check."""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from pvgrid.errors import (
    FINITE, NON_NEGATIVE, POSITIVE, Bound, DegenerateInput, InvalidScenario, InvalidValue,
    PVGridError, require,
)


@pytest.mark.parametrize("cls", [InvalidValue, InvalidScenario, DegenerateInput])
def test_rejections_are_pvgrid_errors_and_value_errors(cls):
    """A rejected value is caught by ``except PVGridError`` and by ``except ValueError``."""
    assert issubclass(cls, PVGridError) and issubclass(cls, ValueError)
    assert issubclass(cls, InvalidValue)


class TestRequire:
    """``require(values, bound, error)``."""

    @pytest.mark.parametrize(
        "value", [0.0, -0.0, 1, -1e308, sys.float_info.max, int(sys.float_info.max), True,
                  np.float64(2.5), np.int64(3), Fraction(1, 3)],
    )
    def test_finite_numbers_pass(self, value):
        """Floats, ints within the float range and other real numbers pass."""
        require({"x": value})

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, int(sys.float_info.max) * 2, -(10**400),
                  None, "1.0", [1.0], 1j],
        ids=["nan", "inf", "-inf", "int-past-range", "negative-int-past-range", "None",
             "str", "list", "complex"],
    )
    def test_non_numbers_and_non_finite_fail(self, value):
        """NaN, infinities, ints past the float range (judged as given, not as
        the double they round to) and values that are not numbers fail."""
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

    def test_error_class_is_chosen_by_the_caller(self):
        """The error raised is the one given, a subclass of InvalidValue."""
        with pytest.raises(DegenerateInput):
            require({"x": math.nan}, FINITE, DegenerateInput)

    def test_array_names_its_first_failing_entry(self):
        """An array is judged entry by entry in one call; the first entry out of
        bound is named as a number, and an array wholly inside passes."""
        require({"x": np.array([]), "y": np.array([1.0, 5e-324])}, POSITIVE)
        with pytest.raises(InvalidValue, match=r"^x must be finite and positive, got -2\.0$"):
            require({"x": np.array([1.0, -2.0, math.nan])}, POSITIVE)
        with pytest.raises(InvalidValue, match=r"^x must be finite, got nan$"):
            require({"x": np.array([[1.0, math.nan], [math.inf, 0.0]])})
