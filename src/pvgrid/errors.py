"""Exception hierarchy for the pvgrid package, and its finite-value check.

Every error raised by the library derives from :class:`PVGridError` so
callers can catch the whole family with one clause.  The CLI maps the
numerical failures (:class:`NonConvergence`, :class:`CalibrationFailure`)
to exit code 2 and everything else to exit code 1.
"""

from __future__ import annotations

import math


def require_finite(values: dict[str, object]) -> None:
    """Reject NaN and infinities: ValueError naming the first non-finite float of ``values``."""
    for name, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


class PVGridError(Exception):
    """Base class for all pvgrid errors."""


class NonConvergence(PVGridError):
    """An iterative solver exhausted its budget without meeting tolerance."""


class InfeasibleSpec(PVGridError):
    """Datasheet ratings admit no physical single-diode parameter set."""


class CalibrationFailure(PVGridError):
    """Model calibration failed while preparing a simulation run."""


class DarkArray(PVGridError):
    """Maximum-power request at zero irradiance (no maximum above 0 W)."""


class DegenerateInput(PVGridError):
    """Design-calculator input violates a structural requirement."""


class UndefinedPF(PVGridError):
    """Power factor of a zero power flow (p = q = 0) is undefined."""


class InvalidScenario(PVGridError):
    """Scenario value violates one of its invariants."""


class ParseError(PVGridError):
    """Scenario document is not well-formed."""


class ValidationError(PVGridError):
    """Scenario document is well-formed but names an invalid configuration."""


class GridMismatch(PVGridError):
    """Two time series cannot be compared because their time grids differ."""


class EmptySeries(PVGridError):
    """Report requested for a series with no records."""
