"""Single-diode PV model: calibration, evaluation, and maximum power.

The module current obeys the implicit five-parameter diode equation

    I = i_ph - i_0*(exp((V + I*r_s)/a) - 1) - (V + I*r_s)/r_sh

with a = n_ideality * n_cells * k*T/q the modified diode voltage.
Calibration recovers (i_ph, i_0, r_s, r_sh) from four datasheet ratings
at a fixed ideality: the three boundary conditions I(0) = i_sc,
I(v_oc) = 0, I(v_mp) = i_mp are linear in (i_ph, i_0, 1/r_sh) once r_s
is fixed, and r_s itself is pinned by requiring dP/dV = 0 at the rated
maximum-power point.  The datasheet points are therefore reproduced
exactly by construction, not fitted.

Translation to other operating points keeps r_s and the diode voltage
fixed at their calibration values: temperature enters only through the
datasheet current/voltage coefficients, irradiance scales the
short-circuit current linearly and the shunt resistance inversely.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import cache, lru_cache

import numpy as np

from .errors import (
    FINITE, NON_NEGATIVE, POSITIVE, Bound, DarkArray, InfeasibleSpec, InvalidValue,
    NonConvergence, bounded, check_fields, require, require_columns, require_integer, within,
)
# golden_max and the scalar newton_bisect have no caller: they are imported only for
# perfbench/tracing.COUNTED_F, which looks them up here by name (ROADMAP item 2a).
from .numerics import (  # noqa: F401
    brentq, golden_max, newton_bisect, newton_bisect_array,
)

Boltzmann = 1.380649e-23  # J/K, exact in SI
elementary_charge = 1.602176634e-19  # C, exact in SI

# Ideality values calibration tries, in this order, until one verifies: 1.3
# first, then unity (canonical crystalline silicon) outward.
_IDEALITIES = (1.3, 1.0, 1.05, 0.95, 1.1, 0.9, 1.15, 0.85, 1.2, 0.8, 1.25, 0.75, 1.35, 1.4)

# Exponent cap: beyond this exp() overflows a double; treat as saturation.
_EXP_CAP = 690.0

# Budget of the diode-current solve: above v_oc Newton descends the exponential
# about one e-fold per step, up to _EXP_CAP steps beyond the usual 100.
_CURRENT_BUDGET = 100 + int(_EXP_CAP)

# Relative tolerance of a datasheet: its p_mp against v_mp*i_mp, and the
# calibrated STC curve against its i_sc, v_oc and maximum power point.
DATASHEET_TOL = 0.005

# Series cells, modules in series and strings in parallel.
_COUNT = Bound("finite and at least 1", lambda n: n >= 1, {"minimum": 1})
# The open-circuit voltage falls as a cell warms.
_NEGATIVE = Bound("finite and negative", lambda x: x < 0.0, {"exclusiveMaximum": 0})

# The operating envelope: irradiance g in [0, G_MAX] W/m², above cloud-enhancement
# peaks (~1,800 W/m²), and cell temperature t_cell in [-40, 90] °C.
G_MAX = 2000.0
ENVELOPE = {
    "g": Bound(f"finite and in [0, {G_MAX:g}] W/m²", lambda g: (0.0 <= g) & (g <= G_MAX),
               {"minimum": 0, "maximum": G_MAX}),
    "t_cell": Bound("finite and in [-40, 90] °C", lambda t: (-40.0 <= t) & (t <= 90.0),
                    {"minimum": -40, "maximum": 90}),
}

# Most samples one I-V sweep may hold.  Checked before anything is
# allocated, as ``simulator.MAX_RECORDS`` is for a run.
MAX_POINTS = 1_000_000


def thermal_voltage(t_c: float) -> float:
    """Diode thermal voltage kT/q in volts at cell temperature ``t_c`` °C."""
    return Boltzmann * (t_c + 273.15) / elementary_charge


# ============================================================================
# Domain types
# ============================================================================


@dataclass(frozen=True)
class PVModuleSpec:
    """Datasheet ratings of one PV module at standard test conditions."""

    p_mp: float = bounded(POSITIVE)  # W, rated maximum power
    v_mp: float = bounded(POSITIVE)  # V, voltage at maximum power
    i_mp: float = bounded(POSITIVE)  # A, current at maximum power
    v_oc: float = bounded(POSITIVE)  # V, open-circuit voltage
    i_sc: float = bounded(POSITIVE)  # A, short-circuit current
    n_cells: int = bounded(_COUNT, 60)  # series cells per module
    alpha_isc: float = bounded(POSITIVE, 0.00102)  # 1/°C, short-circuit current coefficient
    beta_voc: float = bounded(_NEGATIVE, -0.0036)  # 1/°C, open-circuit voltage coefficient
    g_stc: float = bounded(POSITIVE, 1000.0)  # W/m²
    t_stc: float = 25.0  # °C

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.v_mp < self.v_oc:
            raise InvalidValue(f"require v_mp < v_oc, got {self.v_mp}, {self.v_oc}")
        if not self.i_mp < self.i_sc:
            raise InvalidValue(f"require i_mp < i_sc, got {self.i_mp}, {self.i_sc}")
        if abs(self.p_mp - self.v_mp * self.i_mp) > DATASHEET_TOL * self.p_mp:
            raise InvalidValue(f"p_mp {self.p_mp} differs from v_mp*i_mp "
                               f"{self.v_mp * self.i_mp} by more than {DATASHEET_TOL:.1%}")


@dataclass(frozen=True)
class PVArraySpec:
    """Series/parallel composition of identical modules."""

    module: PVModuleSpec
    n_series: int = bounded(_COUNT)
    n_parallel: int = bounded(_COUNT)

    def __post_init__(self) -> None:
        check_fields(self)
        require({"array rated power n_series * n_parallel * p_mp":
                 float(self.n_series) * float(self.n_parallel) * self.module.p_mp})


@dataclass(frozen=True)
class SingleDiodeParams:
    """Five-parameter electrical model of one module.

    ``a`` is the modified diode voltage n_ideality*n_cells*kT/q evaluated
    at the calibration reference temperature; it is carried explicitly so
    the model is self-contained for evaluation and stays frozen under
    operating-point translation.
    """

    i_ph: float = bounded(NON_NEGATIVE)  # A, photocurrent (0 for a dark curve)
    i_0: float = bounded(POSITIVE)  # A, diode saturation current
    n_ideality: float = bounded(POSITIVE)  # per-cell diode ideality factor
    r_s: float = bounded(POSITIVE)  # ohm, series resistance
    r_sh: float = bounded(POSITIVE)  # ohm, shunt resistance
    a: float = bounded(POSITIVE)  # V, modified diode voltage n*Ns*kT/q

    def __post_init__(self) -> None:
        check_fields(self)
        if self.r_sh < 10.0 * self.r_s:
            raise InvalidValue(
                f"shunt resistance {self.r_sh:.4g} is not at least "
                f"10x series resistance {self.r_s:.4g}"
            )


@dataclass(frozen=True)
class EnvCondition:
    """Operating environment: irradiance and cell temperature, inside :data:`ENVELOPE`."""

    g: float  # W/m²
    t: float  # °C, cell temperature

    def __post_init__(self) -> None:
        require({"g": self.g}, ENVELOPE["g"])
        require({"t_cell": self.t}, ENVELOPE["t_cell"])


@dataclass(frozen=True, eq=False)
class IVCurve:
    """Sampled I-V / P-V characteristic, voltage ascending from zero.

    ``v`` (V) and ``i`` (A) are kept as read-only float copies, one value
    per sample, and ``p`` (W) is their product.  Each sample is finite, ``v``
    rises from 0, then ``i`` must not rise and ``p`` be finite.  Curves
    compare by identity: compare their arrays.
    """

    v: np.ndarray
    i: np.ndarray
    p: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        v, i = require_columns((self.v, self.i), {"v": FINITE, "i": FINITE}, "curve", "point",
                               rising=True, from_zero=True)
        # Slack covers implicit-solver residual noise between samples.
        slack = 1e-9 * max(1.0, abs(i[0]))
        with np.errstate(over="ignore"):  # a power past the range fails below
            vars(self).update(v=v, i=i, p=v * i)
            rises = (i[1:] > i[:-1] + slack).any()  # no current is above an overflowed sum
        self.p.flags.writeable = False
        if rises:
            raise InvalidValue("curve current must be non-increasing")
        for k in np.flatnonzero(~np.isfinite(self.p))[:1]:
            raise InvalidValue(f"curve power at v = {float(v[k])} V is beyond the float range")

    def to_csv(self) -> str:
        """Render the curve as CSV with header ``v,i,p``, 6 significant digits."""
        return "v,i,p\n" + "%.6g,%.6g,%.6g\n" * len(self.v) % tuple(
            np.column_stack((self.v, self.i, self.p)).ravel().tolist()
        )


@dataclass(frozen=True)
class MPPResult:
    """Located maximum power point; ``p_mp`` is ``v_mp * i_mp``."""

    v_mp: float = bounded(POSITIVE, unit="V")
    i_mp: float = bounded(POSITIVE, unit="A")
    p_mp: float = field(init=False, metadata={"bound": POSITIVE, "unit": "W"})

    def __post_init__(self) -> None:
        if within(self.v_mp) and within(self.i_mp):  # else check_fields names it
            vars(self)["p_mp"] = self.v_mp * self.i_mp
        check_fields(self)


# ============================================================================
# Model evaluation
# ============================================================================


def module_current(params: SingleDiodeParams, v: float) -> float:
    """Module current in amperes at terminal voltage ``v`` >= 0: the implicit
    diode equation solved by :func:`_module_currents` at one point.

    Args:
        params: Module parameters, already translated to the operating point.
        v: Terminal voltage, >= 0.

    Raises:
        InvalidValue: if ``v`` is negative or not one finite number, or so
            large that -v/r_s is beyond half the largest double.
        NonConvergence: if the iteration budget is exhausted.
    """
    require({"v": v}, NON_NEGATIVE)
    return float(_module_currents(params, np.array([v], dtype=float))[0])


def module_voc(params: SingleDiodeParams) -> float:
    """Open-circuit voltage of a module, volts (0 for a dark curve).

    At I = 0 the diode equation is explicit in voltage, so the root is
    located directly instead of nesting current solves.
    """
    if params.i_ph <= 0.0:
        return 0.0
    i_ph, i_0, r_sh, a = params.i_ph, params.i_0, params.r_sh, params.a

    def residual(v: float) -> float:
        z = v / a
        return i_ph - i_0 * (math.inf if z > _EXP_CAP else math.expm1(z)) - v / r_sh

    v_hi = a * math.log1p(i_ph / i_0)  # diode-only voc, upper bound with shunt
    return brentq(residual, 0.0, v_hi, xtol=1e-12, rtol=8.9e-16)


def _expm1(x: np.ndarray) -> np.ndarray:
    """libm's expm1 (``math.expm1``) elementwise.  numpy's can differ in the last
    bit, and the sweep's last current, solver noise at v_oc (``pv-curve --points
    3`` ends at -9.4369e-16 A), depends on every bit of three libm results: the
    start of :func:`_module_currents`, :func:`_translate` and :func:`module_voc`.
    The benchmark references and the ``pv-curve --json`` pins record that
    current exactly, until ROADMAP item 3 makes it exactly 0.

    Raises:
        InvalidValue: if an exponent overflows a double.
    """
    try:
        return np.fromiter(map(math.expm1, x.tolist()), float, len(x))
    except OverflowError:
        raise InvalidValue(f"diode term exp({x.max():.6g}) overflows a double") from None


def _lit(i_ph, i_0, a: float):
    """Whether each curve has a maximum power at least the smallest normal double.

    That power is at most i_ph*a*log1p(i_ph/i_0).  A curve below the cut,
    i_ph <= 0 (zero irradiance) or light so dim that its power underflows, is
    dark: ``mpp`` raises DarkArray, ``run`` records 0 W and the sweep is the
    point (0, 0, 0).  This is the one rule that decides darkness.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return i_ph * (a * np.log1p(i_ph / i_0)) >= sys.float_info.min


def _residual(params: SingleDiodeParams, v: np.ndarray, i: np.ndarray) -> tuple[np.ndarray, ...]:
    """The diode residual f(v, i) = i_ph - i_0*expm1(x/a) - x/r_sh - i, x = v + i*r_s,
    and its slope df/di, at each pair of ``v`` and ``i``.  expm1 is numpy's,
    taken as infinite past :data:`_EXP_CAP`, where f and df/di are -inf."""
    x = v + i * params.r_s
    z = x / params.a
    e = np.expm1(np.where(z > _EXP_CAP, np.inf, z))
    return (params.i_ph - params.i_0 * e - x / params.r_sh - i,
            -(params.i_0 * params.r_s / params.a) * (e + 1.0) - params.r_s / params.r_sh - 1.0)


def _module_currents(params: SingleDiodeParams, v: np.ndarray) -> np.ndarray:
    """Module current at every voltage of ``v`` (each >= 0), in one batched solve.

    A safeguarded Newton iteration on :func:`_residual` at each voltage keeps
    a sign-changing bracket at all times, so the result is deterministic and
    each residual is below 1e-9 of the photocurrent scale.  The ends are
    known by sign: a little below i = -v/r_s the diode voltage v + i*r_s is
    <= 0, so f > 0; at i_ph + 1 it is >= 0, so f <= -1.  The iterations take
    numpy's expm1; the start, the current at diode voltage v, takes libm's
    (:func:`_expm1`), and at v = v_oc it already meets the tolerance, so the
    sweep's last current is the start, bit for bit, whatever numpy's loop.

    Raises:
        InvalidValue: if -v/r_s is beyond half the largest double, where a
            bisection midpoint (lo + hi)/2 could overflow.
        NonConvergence: if a budget runs out.
    """
    i_ph, i_0, r_s, r_sh, a = params.i_ph, params.i_0, params.r_s, params.r_sh, params.a
    with np.errstate(over="ignore"):  # an infinite start lies outside the bracket
        # 1 + 2**-50 covers the three roundings between lo and v + lo*r_s.
        lo = -(v / r_s) * (1.0 + 2.0**-50) - 1.0
        start = i_ph - i_0 * _expm1(np.minimum(v / a, _EXP_CAP)) - v / r_sh
    if (past := lo < -0.5 * sys.float_info.max).any():  # a midpoint lo + hi could overflow
        raise InvalidValue(f"v = {float(v[past.argmax()])!r} V: the lower bound -v/r_s "
                           "of its current is beyond half the largest double")
    return newton_bisect_array(
        lambda i: _residual(params, v, i), lo, np.full(len(v), i_ph + 1.0),
        f_tol=1e-9 * max(i_ph, 1.0), x0=start, max_iter=_CURRENT_BUDGET,
    )


def _current_within(params: SingleDiodeParams, v: float, c: float, d: float) -> bool:
    """Whether the current :func:`_module_currents` solves for at ``v`` is within
    ``d`` of ``c``, without solving.

    Its residual f(v, i) falls with i at a slope of -1 or steeper, so
    |I(v) - c| <= d exactly when f(v, c - d) >= 0 >= f(v, c + d).
    """
    (f_lo, f_hi), _ = _residual(params, np.array([v, v]), np.array([c - d, c + d]))
    return f_lo >= 0.0 >= f_hi


def _curve_point(i_ph, i_0, r_sh, r_s: float, a: float, vd) -> tuple[np.ndarray, ...]:
    """``(v, i, g, e, f)`` of each curve at its diode voltage ``vd`` = v + i*r_s.

    The curve is explicit in the diode voltage (Bishop, Solar Cells 25, 1988):
    i = i_ph - i_0*expm1(vd/a) - vd/r_sh and v = vd - i*r_s.  With e = exp(vd/a)
    and g = -di/dvd = (i_0/a)*e + 1/r_sh, f = dP/dvd = i*(1 + r_s*g) - v*g and
    dP/dV = f/(1 + r_s*g).
    """
    e = np.exp(vd / a)
    i = i_ph - i_0 * np.expm1(vd / a) - vd / r_sh
    v, g = vd - i * r_s, (i_0 / a) * e + 1.0 / r_sh
    return v, i, g, e, i * (1.0 + r_s * g) - v * g


def _is_maximum(v, i, g, f, r_s: float):
    """The gradient criterion |dP/dV|*v < 1e-4*p at each point of :func:`_curve_point`.

    P(V) is strictly concave on a physical curve, so a point meeting it is the
    maximum power point to that tolerance.
    """
    return np.abs(f / (1.0 + r_s * g)) * v < 1e-4 * (v * i)


def _module_mpp(
    i_ph: np.ndarray, i_0: np.ndarray, r_sh: np.ndarray, r_s: float, a: float
) -> tuple[np.ndarray, np.ndarray]:
    """Module ``(v, i)`` at maximum power of each curve; ``(0, 0)`` where it is dark.

    dP/dvd (:func:`_curve_point`) is i_ph*(1 + 2*r_s*g) at vd = 0 and below
    -i_ph at a*log1p(i_ph/i_0), so both ends are far outside the tolerance
    and the solve is given only their signs.  Every lit curve (see
    :func:`_lit`) gets one Newton-bisection on that bracket, all curves at once.

    Raises:
        NonConvergence: if a solve fails or its result fails :func:`_is_maximum`.
    """
    v_out, i_out = np.zeros(i_ph.shape), np.zeros(i_ph.shape)
    lit = _lit(i_ph, i_0, a)
    i_ph, i_0, r_sh = i_ph[lit], i_0[lit], r_sh[lit]

    def slope_and_curvature(vd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v, i, g, e, f = _curve_point(i_ph, i_0, r_sh, r_s, a, vd)
        return f, -2.0 * g * (1.0 + r_s * g) + (i_0 / a**2) * e * (i * r_s - v)

    x_oc = np.log1p(i_ph / i_0)
    # Start one fixed-point step into the ideal-diode maximum (1 + x)*e^x = e^x_oc.
    x0 = a * (x_oc - np.log1p(x_oc))
    try:
        vd = newton_bisect_array(slope_and_curvature, np.zeros(i_ph.shape), a * x_oc,
                                 f_tol=1e-9 * i_ph, x0=x0)
    except NonConvergence:
        raise NonConvergence("mpp: no root of dP/dVd within 100 iterations") from None
    v, i, g, _, f = _curve_point(i_ph, i_0, r_sh, r_s, a, vd)
    if not _is_maximum(v, i, g, f, r_s).all():
        raise NonConvergence("mpp: gradient criterion not met at the solved point")
    v_out[lit], i_out[lit] = v, i
    return v_out, i_out


# ============================================================================
# Calibration
# ============================================================================


def _fit_at_ideality(spec: PVModuleSpec, n_ideality: float) -> SingleDiodeParams:
    """Exact four-condition calibration at a fixed ideality factor, verified.

    For fixed r_s the conditions I(0) = i_sc, I(v_oc) = 0 and
    I(v_mp) = i_mp are linear in (i_ph, i_0, 1/r_sh); r_s is then the
    root of the maximum-power slope condition i_mp + v_mp*dI/dV = 0.
    The parameters must pass the checks of :class:`SingleDiodeParams`,
    and their STC curve must reproduce i_sc, v_oc and the rated maximum
    power point within :data:`DATASHEET_TOL` (0.5%).  All three are checked
    without a solve: the two currents by :func:`_current_within`, and the
    maximum power point on the explicit curve at the rated diode voltage
    v_mp + i_mp*r_s, which must meet the gradient criterion of
    :func:`_is_maximum` and lie within 0.5% of the rated power and voltage.
    So a parameter set whose rated point is not itself the maximum fails,
    even when the true maximum is within 0.5%; the fit never builds one.
    :func:`extract_single_diode_params` tries each of :data:`_IDEALITIES`.

    Raises:
        InfeasibleSpec: naming the ideality and the first condition it fails
            (a singular system where ``a`` is infinite, as at ideality 1e308).
        NonConvergence: if a solve exhausts its budget: a ``brentq`` search,
            or the current solve that gives a missed current's value.
    """
    a = n_ideality * spec.n_cells * thermal_voltage(spec.t_stc)
    anchors = (
        (0.0, spec.i_sc, spec.i_sc),
        (spec.v_oc, 0.0, 0.0),
        (spec.v_mp, spec.i_mp, spec.i_mp),
    )

    def infeasible(reason: str) -> InfeasibleSpec:
        return InfeasibleSpec(f"ideality {n_ideality:g}: {reason}")

    def diode(fn, z: float) -> float:
        # fn is math.exp or math.expm1; past the double range this ideality is out.
        try:
            return fn(z)
        except OverflowError:
            raise infeasible(f"diode term exp({z:.6g}) overflows a double") from None

    @cache  # brentq evaluates its bracket ends again, which were probed already
    def linear_fit(r_s: float) -> tuple[float, float, float]:
        rows, rhs = [], []
        for v, i, target in anchors:
            x = v + i * r_s
            rows.append([1.0, -diode(math.expm1, x / a), -x])
            rhs.append(target)
        try:
            i_ph, i_0, g_sh = np.linalg.solve(np.array(rows), np.array(rhs))
        except np.linalg.LinAlgError:
            raise infeasible("singular calibration system") from None
        return float(i_ph), float(i_0), float(g_sh)

    def mpp_slope(r_s: float) -> float:
        # dP/dV at the rated MPP; zero when (v_mp, i_mp) is the maximum.
        _, i_0, g_sh = linear_fit(r_s)
        u = (i_0 / a) * diode(math.exp, (spec.v_mp + spec.i_mp * r_s) / a)
        di_dv = -(u + g_sh) / (1.0 + r_s * (u + g_sh))
        return spec.i_mp + spec.v_mp * di_dv

    def shunt_conductance(r_s: float) -> float:
        return linear_fit(r_s)[2]

    r_s_lo = 1e-9
    r_s_cap = (spec.v_oc - spec.v_mp) / spec.i_mp * (1.0 - 1e-9)
    if shunt_conductance(r_s_lo) <= 0.0:
        raise infeasible("shunt resistance negative for every r_s")
    if mpp_slope(r_s_lo) <= 0.0:
        raise infeasible("fill factor implies r_s < 0")
    # Restrict the search to the physical branch g_sh > 0.
    r_s_hi = r_s_cap
    if shunt_conductance(r_s_cap) <= 0.0:
        r_s_hi = brentq(shunt_conductance, r_s_lo, r_s_cap) * (1.0 - 1e-9)
    if mpp_slope(r_s_hi) >= 0.0:
        raise infeasible("no physical shunt resistance satisfies the maximum-power condition")
    r_s = brentq(mpp_slope, r_s_lo, r_s_hi, xtol=1e-14)
    i_ph, i_0, g_sh = linear_fit(r_s)
    try:
        params = SingleDiodeParams(
            i_ph=i_ph, i_0=i_0, n_ideality=n_ideality, r_s=r_s,
            r_sh=1.0 / g_sh if g_sh else math.inf, a=a,
        )
    except InvalidValue as exc:
        raise infeasible(str(exc)) from None

    tol = DATASHEET_TOL
    d = tol * spec.i_sc
    if not (_current_within(params, 0.0, spec.i_sc, d)
            and _current_within(params, spec.v_oc, 0.0, d)):
        # Solved only to give the missed value.
        i_short, i_open = _module_currents(params, np.array([0.0, spec.v_oc])).tolist()
        if abs(i_short - spec.i_sc) > d:
            raise infeasible(f"I(0) = {i_short:.6g} A misses i_sc = {spec.i_sc:g} A "
                             f"by more than {tol:.1%}")
        if abs(i_open) > d:
            raise infeasible(f"I(v_oc) = {i_open:.6g} A misses 0 by more than {tol:.1%} of i_sc")
    # P(V) is strictly concave, and r_s zeroes dP/dV at the rated point: it is the
    # maximum exactly when it meets the gradient criterion.
    v, i, g, _, f = _curve_point(params.i_ph, params.i_0, params.r_sh, params.r_s, params.a,
                                 spec.v_mp + spec.i_mp * params.r_s)
    if not _is_maximum(v, i, g, f, params.r_s):
        raise infeasible(f"maximum power is not at the rated point: {v * i:.6g} W at "
                         f"{v:.6g} V fails the gradient criterion |dP/dV|*v < 1e-4*p")
    if not (abs(v * i - spec.p_mp) <= tol * spec.p_mp and abs(v - spec.v_mp) <= tol * spec.v_mp):
        raise infeasible(
            f"maximum power {v * i:.6g} W at {v:.6g} V misses the rated "
            f"{spec.p_mp:g} W at {spec.v_mp:g} V by more than {tol:.1%}"
        )
    return params


@lru_cache(maxsize=32)
def extract_single_diode_params(spec: PVModuleSpec) -> SingleDiodeParams:
    """Calibrate the five-parameter model from datasheet ratings.

    Memoized: the 32 most recent datasheets each keep their result, so
    calibrating one module again returns the same object.  A datasheet
    that raises is not remembered and raises again.

    Many datasheets admit no physical parameter set at an arbitrary
    ideality (the implied shunt resistance turns negative), so the values
    of :data:`_IDEALITIES` are tried in order until one verifies; the
    chosen value is recorded in the returned parameters.

    Returns:
        Calibrated parameters whose STC curve reproduces i_sc, v_oc and
        the rated maximum power point within 0.5%.

    Raises:
        InfeasibleSpec: if no ideality yields a verified physical model;
            the message gives each one's reason, in the order tried.
        NonConvergence: the same, if a solve exhausted its budget for some
            ideality.
    """
    reasons, error = [], InfeasibleSpec
    for n in _IDEALITIES:
        try:
            return _fit_at_ideality(spec, n)
        except InfeasibleSpec as exc:
            reasons.append(str(exc))
        except NonConvergence as exc:  # this ideality ran out of budget; try the next
            reasons.append(f"ideality {n:g}: {exc}")
            error = NonConvergence
    raise error("no ideality calibrates the datasheet: " + "; ".join(reasons))


def _translate(
    params: SingleDiodeParams, spec: PVModuleSpec, g: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(i_ph, i_0, r_sh)`` of :func:`adjust_params` at each point ``(g[k], t[k])``.

    Points exactly at STC keep the calibrated values.

    Raises:
        InvalidValue: if a temperature drives a datasheet rating negative or a
            diode term beyond the float range, or a point breaks an invariant
            of :class:`SingleDiodeParams`.
    """
    d_t = t - spec.t_stc
    i_sc_t = spec.i_sc * (1.0 + spec.alpha_isc * d_t)
    v_oc_t = spec.v_oc * (1.0 + spec.beta_voc * d_t)
    negative = (i_sc_t <= 0.0) | (v_oc_t <= 0.0)
    if negative.any():
        raise InvalidValue(
            f"temperature {float(t[negative][0])} °C drives datasheet ratings negative"
        )
    r_s, r_sh_ref, a = params.r_s, params.r_sh, params.a

    # Stage 1: at STC irradiance, solve the 2x2 linear system for
    # (i_ph, i_0) that pins I(0) = i_sc_t and I(v_oc_t) = 0.
    e_sc = _expm1(i_sc_t * r_s / a)
    e_oc = _expm1(v_oc_t / a)
    k = e_sc / e_oc
    i_ph_t = (i_sc_t * (1.0 + r_s / r_sh_ref) - k * v_oc_t / r_sh_ref) / (1.0 - k)
    i_0_t = (i_ph_t - v_oc_t / r_sh_ref) / e_oc

    # Stage 2: irradiance scaling.  A dark curve, or one so dim that the scaled shunt
    # overflows (its i_ph underflows and _lit marks it dark), keeps the reference shunt.
    with np.errstate(divide="ignore", over="ignore"):  # an infinite i_ph is rejected below
        r_sh = r_sh_ref * spec.g_stc / g
        r_sh = np.where((g > 0.0) & (r_sh < math.inf), r_sh, r_sh_ref)
        i_sc_gt = i_sc_t * g / spec.g_stc
        i_ph = i_sc_gt * (1.0 + r_s / r_sh) + i_0_t * _expm1(i_sc_gt * r_s / a)
    stc = (g == spec.g_stc) & (t == spec.t_stc)
    i_ph, i_0, r_sh = (
        np.where(stc, params.i_ph, i_ph),
        np.where(stc, params.i_0, i_0_t),
        np.where(stc, r_sh_ref, r_sh),
    )
    valid = (0.0 <= i_ph) & (i_ph < math.inf) & (0.0 < i_0) & (i_0 < math.inf)
    valid &= (10.0 * r_s <= r_sh) & (r_sh < math.inf)
    for bad in np.flatnonzero(~valid)[:1]:  # raises the error of a scalar translation
        replace(params, i_ph=float(i_ph[bad]), i_0=float(i_0[bad]), r_sh=float(r_sh[bad]))
    return i_ph, i_0, r_sh


def adjust_params(
    params: SingleDiodeParams, spec: PVModuleSpec, env: EnvCondition
) -> SingleDiodeParams:
    """Translate STC-calibrated parameters to another operating point.

    Temperature acts through the datasheet coefficients: the photocurrent
    and saturation current are re-anchored so that at STC irradiance the
    short-circuit current shifts by alpha_isc and the open-circuit
    voltage by beta_voc.  Irradiance then scales the short-circuit
    current linearly and the shunt resistance inversely (partial
    shunt currents shrink with light), while r_s and the diode voltage
    stay at their calibration values.  At STC the calibrated values come
    back unchanged (:func:`_translate`).
    """
    i_ph, i_0, r_sh = (
        float(x[0]) for x in _translate(params, spec, np.array([env.g]), np.array([env.t]))
    )
    return replace(params, i_ph=i_ph, i_0=i_0, r_sh=r_sh)


# ============================================================================
# Array-level evaluation
# ============================================================================


def array_iv_sweep(
    array: PVArraySpec,
    params: SingleDiodeParams,
    env: EnvCondition,
    n_points: int,
) -> IVCurve:
    """Sample the array I-V / P-V characteristic at an operating point.

    The module curve is evaluated on an even voltage grid spanning
    [0, v_oc], all its currents in one batched solve, and scaled exactly by the series/parallel
    counts.  A dark curve (zero irradiance, or light so dim that its
    maximum power underflows, as in :func:`mpp`) collapses to the single
    point (0, 0, 0).

    Args:
        array: Series/parallel composition.
        params: STC-calibrated module parameters.
        env: Operating environment.
        n_points: Number of samples, an integer (not a bool) from 3 to :data:`MAX_POINTS`.
    """
    require_integer({"n_points": n_points})
    if n_points < 3:
        raise InvalidValue(f"n_points must be at least 3, got {n_points}")
    if n_points > MAX_POINTS:
        raise InvalidValue(f"n_points must be at most {MAX_POINTS}, got {n_points}")
    params_e = adjust_params(params, array.module, env)
    if not _lit(params_e.i_ph, params_e.i_0, params_e.a):
        return IVCurve(v=[0.0], i=[0.0])
    v_m = np.linspace(0.0, module_voc(params_e), n_points)
    v = v_m * float(array.n_series)
    i = _module_currents(params_e, v_m) * float(array.n_parallel)
    return IVCurve(v=v, i=i)


def array_mpp(
    array: PVArraySpec, params: SingleDiodeParams, g: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Array ``(v_mp, i_mp)`` at each point ``(g[k], t[k])``, in one batched solve.

    Equal, point for point, to the ``v_mp`` and ``i_mp`` of :func:`mpp`,
    and ``(0, 0)`` where :func:`mpp` raises DarkArray.

    Raises:
        NonConvergence: if the gradient criterion is not met at some point.
    """
    v_m, i_m = _module_mpp(*_translate(params, array.module, g, t), params.r_s, params.a)
    return v_m * array.n_series, i_m * array.n_parallel


def mpp(
    array: PVArraySpec, params: SingleDiodeParams, env: EnvCondition
) -> MPPResult:
    """Locate the array maximum power point at an operating point.

    One safeguarded Newton solve of dP/dvd = 0 over the module diode
    voltage vd, on which the curve is explicit: no nested current solves.
    The closed-form gradient |dP/dV|*v_mp/p_mp must be below 1e-4 at the
    result.  Module results scale exactly by the series/parallel counts.

    Raises:
        DarkArray: where the curve is dark (see :func:`_lit`): at zero
            irradiance, or where the maximum power is below the smallest
            normal double.  No maximum above 0 W exists.
        NonConvergence: if the gradient criterion is not met.
    """
    (v_mp,), (i_mp,) = array_mpp(array, params, np.array([env.g]), np.array([env.t]))
    if v_mp == 0.0:
        raise DarkArray("no maximum power point for a dark curve")
    return MPPResult(v_mp=float(v_mp), i_mp=float(i_mp))
