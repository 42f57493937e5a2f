"""Closed-form sizing of the boost converter, LCL filter, and capacitor bank.

All calculators are pure arithmetic.  Outputs are reported at full
precision; rounding to catalog component values is left to the caller.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import (
    NON_NEGATIVE, POSITIVE, Bound, InvalidValue, bounded, check_fields, require, within,
)

# Current-rating derate in the LCL peak-current expression (fixed design
# constant, not exposed: the ripple/capacitance/attenuation fractions are
# the tunable knobs).
_PF_DERATE = 0.9

_FRACTION = Bound("finite and in (0, 1)", lambda x: 0.0 < x < 1.0)


def _beyond_float_range(given: dict[str, float]) -> InvalidValue:
    """The error for inputs whose arithmetic divides by an underflowed 0 or overflows."""
    text = ", ".join(f"{name} = {value!r}" for name, value in given.items())
    return InvalidValue(f"inputs {text} put a computed value beyond the float range")


def _design(cls: type, given: dict[str, float], **values: float):
    """A ``cls`` of ``values``, which positive inputs make positive: one that is 0, inf
    or nan left the float range, and the error names the ``given`` inputs."""
    if not all(within(value, POSITIVE) for value in values.values()):
        raise _beyond_float_range(given)
    return cls(**values)


# ============================================================================
# Boost converter
# ============================================================================


@dataclass(frozen=True)
class BoostDesignInput:
    """Ratings and ripple targets for the dc-dc step-up stage."""

    p: float = bounded(POSITIVE)  # W, PV array power at STC
    v_in: float = bounded(POSITIVE)  # V, PV array voltage at STC
    v_out: float = bounded(POSITIVE)  # V, dc-link voltage
    f_s: float = bounded(POSITIVE)  # Hz, switching frequency
    ripple_i_frac: float = bounded(_FRACTION, 0.07)  # inductor current ripple fraction
    ripple_v_frac: float = bounded(_FRACTION, 0.007)  # output voltage ripple fraction

    def __post_init__(self) -> None:
        check_fields(self)
        if self.v_in >= self.v_out:
            raise InvalidValue(
                f"step-up requires v_in < v_out, got {self.v_in} >= {self.v_out}"
            )


@dataclass(frozen=True)
class BoostDesign:
    """Computed boost-converter component values."""

    i_out_max: float = bounded(POSITIVE, unit="A")  # maximum output current
    delta_i_l: float = bounded(POSITIVE, unit="A")  # inductor current ripple
    delta_v_out: float = bounded(POSITIVE, unit="V")  # output voltage ripple
    l: float = bounded(POSITIVE, unit="H")  # filter inductor
    c: float = bounded(POSITIVE, unit="F")  # filter capacitor

    def __post_init__(self) -> None:
        check_fields(self)


def boost_design(inp: BoostDesignInput) -> BoostDesign:
    """Size the boost inductor and capacitor from ratings and ripple targets.

    i_out_max = p / v_out
    delta_i_l = ripple_i_frac * i_out_max * v_out / v_in
    delta_v_out = ripple_v_frac * v_out
    l = v_in * (v_out - v_in) / (delta_i_l * f_s * v_out)
    c = i_out_max * (1 - v_in/v_out) / (delta_v_out * f_s)

    Raises:
        InvalidValue: if a value is zero or beyond the float range.
    """
    try:
        i_out_max = inp.p / inp.v_out
        delta_i_l = inp.ripple_i_frac * i_out_max * inp.v_out / inp.v_in
        delta_v_out = inp.ripple_v_frac * inp.v_out
        l = inp.v_in * (inp.v_out - inp.v_in) / (delta_i_l * inp.f_s * inp.v_out)
        c = i_out_max * (1.0 - inp.v_in / inp.v_out) / (delta_v_out * inp.f_s)
    except ArithmeticError:  # a divisor underflowed to 0
        raise _beyond_float_range(vars(inp)) from None
    return _design(BoostDesign, vars(inp), i_out_max=i_out_max, delta_i_l=delta_i_l,
                   delta_v_out=delta_v_out, l=l, c=c)


# ============================================================================
# LCL harmonic filter
# ============================================================================


@dataclass(frozen=True)
class LCLDesignInput:
    """Ratings and design fractions for the grid-side LCL filter."""

    p: float = bounded(POSITIVE)  # W, converter power rating
    v_g: float = bounded(POSITIVE)  # V, grid phase voltage (RMS)
    f_g: float = bounded(POSITIVE)  # Hz, grid frequency
    v_dc: float = bounded(POSITIVE)  # V, dc-link voltage
    f_sw: float = bounded(POSITIVE)  # Hz, inverter switching frequency
    cap_frac: float = bounded(_FRACTION, 0.05)  # filter capacitance as fraction of base
    ripple_frac: float = bounded(_FRACTION, 0.10)  # inductor current ripple fraction
    atten_factor: float = bounded(_FRACTION, 0.2)  # switching-harmonic attenuation constant

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class LCLDesign:
    """Computed LCL filter values with their base quantities."""

    omega_g: float = bounded(POSITIVE, unit="rad/s")  # grid angular frequency
    z_b: float = bounded(POSITIVE, unit="Ω")  # per-phase base impedance
    c_b: float = bounded(POSITIVE, unit="F")  # base capacitance
    i_max: float = bounded(POSITIVE, unit="A")  # peak current rating
    delta_i_max: float = bounded(POSITIVE, unit="A")  # inverter-side current ripple
    l_1: float = bounded(POSITIVE, unit="H")  # inverter-side inductor
    c_g: float = bounded(POSITIVE, unit="F")  # filter capacitor
    l_2: float = bounded(POSITIVE, unit="H")  # grid-side inductor

    def __post_init__(self) -> None:
        check_fields(self)
        if self.l_2 >= self.l_1:
            raise InvalidValue(
                f"grid-side inductor l_2 {self.l_2:.4g} must be smaller "
                f"than inverter-side l_1 {self.l_1:.4g}"
            )


def lcl_design(inp: LCLDesignInput) -> LCLDesign:
    """Size the LCL filter from converter ratings.

    omega_g = 2*pi*f_g
    z_b = v_g^2 / (p/3)
    c_b = 1 / (omega_g * z_b)
    i_max = p * sqrt(2) / (3 * v_g * 0.9)
    delta_i_max = ripple_frac * i_max
    l_1 = v_dc / (6 * f_sw * delta_i_max)
    c_g = cap_frac * c_b
    l_2 = sqrt(1/atten_factor^2 + 1) / (c_g * (2*pi*f_sw)^2)

    Raises:
        InvalidValue: if a value is zero or beyond the float range, or
            l_2 is not smaller than l_1.
    """
    try:
        omega_g = 2.0 * math.pi * inp.f_g
        z_b = inp.v_g**2 / (inp.p / 3.0)
        c_b = 1.0 / (omega_g * z_b)
        i_max = inp.p * math.sqrt(2.0) / (3.0 * inp.v_g * _PF_DERATE)
        delta_i_max = inp.ripple_frac * i_max
        l_1 = inp.v_dc / (6.0 * inp.f_sw * delta_i_max)
        c_g = inp.cap_frac * c_b
        omega_sw = 2.0 * math.pi * inp.f_sw
        l_2 = math.sqrt(1.0 / inp.atten_factor**2 + 1.0) / (c_g * omega_sw**2)
    except ArithmeticError:  # a divisor underflowed to 0, or a square overflowed
        raise _beyond_float_range(vars(inp)) from None
    return _design(LCLDesign, vars(inp), omega_g=omega_g, z_b=z_b, c_b=c_b, i_max=i_max,
                   delta_i_max=delta_i_max, l_1=l_1, c_g=c_g, l_2=l_2)


# ============================================================================
# Resonance placement
# ============================================================================


@dataclass(frozen=True)
class ResonanceReport:
    """LCL resonance frequency against its placement bounds.

    Bounds are compared in hertz: a valid design places the resonance
    above ten times the grid frequency and below half the switching
    frequency.  ``f_res`` (omega_res / 2*pi) and ``passed`` are derived from
    the other fields, each of which is positive.
    """

    omega_res: float = bounded(POSITIVE, unit="rad/s")
    f_res: float = field(init=False, metadata={"bound": POSITIVE, "unit": "Hz"})
    f_min: float = bounded(POSITIVE, unit="Hz")  # lower placement bound (10 * f_g)
    f_max: float = bounded(POSITIVE, unit="Hz")  # upper placement bound (0.5 * f_sw)
    passed: bool = field(init=False, default=False)  # f_min < f_res < f_max, once checked

    def __post_init__(self) -> None:
        if within(self.omega_res):  # else check_fields names omega_res first
            vars(self)["f_res"] = self.omega_res / (2.0 * math.pi)
        check_fields(self)
        vars(self)["passed"] = self.f_min < self.f_res < self.f_max


def resonance_check(
    l_1: float, l_2: float, c_g: float, f_g: float, f_sw: float
) -> ResonanceReport:
    """Place the LCL resonance and verify it sits inside the valid band.

    omega_res = sqrt((l_1 + l_2) / (l_1 * l_2 * c_g)), or the equal
    sqrt(1/l_1 + 1/l_2) / sqrt(c_g) where the product or the quotient
    leaves the float range; the band is (10 * f_g, 0.5 * f_sw), compared
    in hertz.

    Raises:
        InvalidValue: if an input is not positive and finite, or the
            resonance or a bound is beyond the float range.
    """
    given = {"l_1": l_1, "l_2": l_2, "c_g": c_g, "f_g": f_g, "f_sw": f_sw}
    require(given, POSITIVE)
    product = l_1 * l_2 * c_g
    omega_res = math.inf
    if sys.float_info.min <= product < math.inf:  # the form the reference values pin
        omega_res = math.sqrt((l_1 + l_2) / product)
    if omega_res == math.inf:  # the product or the quotient left the float range
        omega_res = math.sqrt(1.0 / l_1 + 1.0 / l_2) / math.sqrt(c_g)
    return _design(ResonanceReport, given, omega_res=omega_res, f_min=10.0 * f_g,
                   f_max=0.5 * f_sw)


# ============================================================================
# Capacitor bank
# ============================================================================


def capbank_size(q_rated: float, v_phase: float, f_g: float) -> float:
    """Per-phase capacitance of a wye bank delivering ``q_rated`` vars.

    C = Q / (3 * omega * V_phase^2); zero demand sizes a zero bank.

    Raises:
        InvalidValue: if an input is out of its domain, or the
            capacitance is beyond the float range.
    """
    require({"q_rated": q_rated}, NON_NEGATIVE)
    require({"v_phase": v_phase, "f_g": f_g}, POSITIVE)
    omega = 2.0 * math.pi * f_g
    try:
        c = q_rated / (3.0 * omega * v_phase**2)
    except ArithmeticError:  # v_phase**2 underflowed to 0 or overflowed
        c = math.inf
    if c == math.inf:
        raise _beyond_float_range({"q_rated": q_rated, "v_phase": v_phase, "f_g": f_g})
    return c
