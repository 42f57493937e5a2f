"""Quasi-steady-state power-balance simulator at the point of common coupling.

Each timestep is an independent equilibrium driven by piecewise-constant
irradiance and load profiles.  The grid bus is stiff (fixed phase
voltage), the PV inverter tracks the array maximum power point exactly
and exchanges no reactive power, and the grid balances whatever the
load, compensator losses, and inverter leave over:

    p_grid = p_load + p_comp_loss - p_inv      (positive = grid supplies)
    q_grid = q_load - q_comp
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import KW_ONLY, dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import pv_model
from .compensation import CompensatorConfig, dispatch, power_factor
from .errors import (
    NON_NEGATIVE, POSITIVE, Bound, GridMismatch, InfeasibleSpec, InvalidValue, NonConvergence,
    bounded, check_fields, numeric_fields, within,
)
from .pv_model import PVArraySpec, SingleDiodeParams

# Tolerance slack applied when counting whole steps in t_end/dt, so a
# horizon that is an exact multiple of dt includes its final instant.
_GRID_EPS = 1e-9

# Most records one run may hold (t_end/dt + 1): over eleven days at 1 s.
# Checked before anything is allocated, so a huge horizon is rejected
# up front instead of exhausting memory or overflowing the count.
MAX_RECORDS = 1_000_000

_EFFICIENCY = Bound("finite and in (0, 1]", lambda x: 0.0 < x <= 1.0,
                    {"exclusiveMinimum": 0, "maximum": 1})


class IrradianceStep(NamedTuple):
    t_start: float  # s
    g: float  # W/m²
    t_cell: float  # °C

    BOUNDS = pv_model.ENVELOPE  # g and t_cell; t_start is finite


class LoadStep(NamedTuple):
    t_start: float  # s
    p: float  # W
    q: float  # var


@dataclass(frozen=True)
class GridSpec:
    """Stiff-grid interface parameters."""

    v_phase: float = bounded(POSITIVE)  # V, phase voltage at the PCC
    f: float = bounded(POSITIVE)  # Hz
    v_dc: float = bounded(POSITIVE)  # V, reported dc-link setpoint

    def __post_init__(self) -> None:
        check_fields(self, "grid ")


def _profile_columns(name: str, step: type, given) -> np.ndarray:
    """The checked profile as a read-only float array, one row per field of ``step``.

    ``given`` holds one sequence per field.  Each value is judged as given
    against its field's bound in ``step.BOUNDS``, finite if it has none (an
    int past the float range is not finite; a numeric string or a bool is
    no number), and t_start must be 0, then rise.  The error names the
    first failing segment by its 0-based index, then its first failing field.
    """
    try:
        values = np.asarray(given)
    except ValueError:  # ragged
        values = None
    if values is None or values.ndim != 2 or len(values) != len(step._fields):
        raise InvalidValue(f"{name} profile must hold {len(step._fields)} floats per segment")
    if not values.shape[1]:
        raise InvalidValue(f"{name} profile must have at least one segment")
    bounds = [bound for bound, *_ in numeric_fields(step).values()]
    # np.asarray turns a bool among numbers into a number, so one type pass looks
    # for a bool; an array's dtype already tells.
    listed = () if isinstance(given, np.ndarray) else chain.from_iterable(given)
    if values.dtype.kind in "iuf" and {bool, np.bool_}.isdisjoint(map(type, listed)):
        columns = values = values.astype(float)
        ok = np.isfinite(columns)
        for row, column, bound in zip(ok, columns, bounds):
            row &= bound.holds(column)
    else:  # strings, None, bools, or ints past int64: each judged as given
        values = np.array(given, dtype=object)
        ok = np.array([[within(x, b) for x in row] for row, b in zip(values.tolist(), bounds)])
        columns = np.where(ok, values, np.nan).astype(float)
    starts = columns[0]
    ok[0, 0] &= starts[0] == 0.0
    ok[0, 1:] &= starts[1:] > starts[:-1]
    if not ok.all():
        k = int(np.argmin(ok.all(axis=0)))
        f = int(np.argmin(ok[:, k]))
        value = values[:, k].tolist()[f]
        text = (bounds[f].text if not within(value, bounds[f])
                else "0" if k == 0 else f"after {starts[k - 1].item()!r}")
        raise InvalidValue(
            f"{name} profile segment {k}: {step._fields[f]} must be {text}, got {value!r}"
        )
    columns.flags.writeable = False
    return columns


@dataclass(frozen=True, eq=False)
class Scenario:
    """Complete description of one simulation run.

    Each profile is given as columns, one sequence per field with one value
    per segment, and kept as a read-only (3, n) float copy: ``irradiance``
    has the rows t_start (s), g (W/m²) and t_cell (°C), ``load`` the rows
    t_start (s), p (W) and q (var).  Column ``k`` is segment ``k``, the
    index an error names for a value that fails its check.

    The keyword defaults are the ones a scenario document gets when it
    omits its ``inverter`` or ``sim`` section.
    """

    grid: GridSpec
    array: PVArraySpec
    _: KW_ONLY
    compensator: CompensatorConfig
    irradiance: np.ndarray
    load: np.ndarray
    inverter_efficiency: float = bounded(_EFFICIENCY, 0.997)
    t_end: float = bounded(NON_NEGATIVE, 0.2)  # s
    dt: float = bounded(POSITIVE, 0.01)  # s
    scenario_id: str = "scenario"

    def __post_init__(self) -> None:
        check_fields(self)
        steps = self.t_end / self.dt
        if not steps + _GRID_EPS < MAX_RECORDS:
            raise InvalidValue(f"t_end/dt = {steps:g} gives more than {MAX_RECORDS} records")
        vars(self).update(
            irradiance=_profile_columns("irradiance", IrradianceStep, self.irradiance),
            load=_profile_columns("load", LoadStep, self.load),
        )

    def _scalars(self) -> tuple:
        return (self.grid, self.array, self.compensator, self.inverter_efficiency,
                self.t_end, self.dt, self.scenario_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scenario):
            return NotImplemented
        return self._scalars() == other._scalars() and all(
            map(np.array_equal, (self.irradiance, self.load), (other.irradiance, other.load))
        )

    def __hash__(self) -> int:
        return hash(self._scalars())

    def times(self) -> np.ndarray:
        """The record instants k*dt for k = 0 .. floor(t_end/dt), as a float array."""
        return np.arange(int(self.t_end / self.dt + _GRID_EPS) + 1) * self.dt


class PowerFlowRecord(NamedTuple):
    """Per-step P/Q of every element at the PCC: one row of checked
    :class:`TimeSeries` columns."""

    t: float  # s
    p_pv: float  # W, array maximum power
    p_inv: float  # W, inverter output
    q_inv: float  # var, always 0 (unity-pf inverter)
    p_load: float  # W
    q_load: float  # var
    q_comp: float  # var, compensator injection toward the load
    p_comp_loss: float  # W
    p_grid: float  # W, positive = grid supplies toward the PCC
    q_grid: float  # var
    pf_grid: float
    v_dc: float  # V


# Output columns: the PowerFlowRecord fields, in field order.
COLUMNS = PowerFlowRecord._fields


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Simulation output: one float array per column of ``COLUMNS``.

    The columns are kept as read-only float copies in a read-only mapping,
    so a series holds at least one record, and only finite values, for its
    whole life.
    ``records``, one :class:`PowerFlowRecord` per instant, is built from
    the columns on first read.
    """

    scenario_id: str
    columns: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        block = np.array([self.columns[k] for k in COLUMNS], dtype=float)
        block.flags.writeable = False
        vars(self)["columns"] = MappingProxyType(dict(zip(COLUMNS, block)))
        t, pf = self.columns["t"], self.columns["pf_grid"]
        if not len(t):
            raise InvalidValue("time series must contain at least one record")
        for k in np.flatnonzero(~(t >= 0.0))[:1]:
            raise InvalidValue(f"record time must be non-negative, got {t[k]}")
        for k in np.flatnonzero(~((0.0 <= pf) & (pf <= 1.0)))[:1]:
            raise InvalidValue(f"pf_grid must lie in [0, 1], got {pf[k]}")
        if (t[1:] <= t[:-1]).any():
            raise InvalidValue("record times must be strictly increasing")
        for k, c in np.argwhere(~np.isfinite(block.T))[:1]:
            raise InvalidValue(f"record {k} at t = {t[k]} s: {COLUMNS[c]} must be finite, "
                               f"got {block[c, k]}")

    @cached_property
    def records(self) -> tuple[PowerFlowRecord, ...]:
        return tuple(map(PowerFlowRecord._make, zip(*(c.tolist() for c in self.columns.values()))))

    def __len__(self) -> int:
        return len(self.columns["t"])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TimeSeries) and self.scenario_id == other.scenario_id and all(
            np.array_equal(a, b) for a, b in zip(self.columns.values(), other.columns.values())
        )


@dataclass(frozen=True)
class ComparisonReport:
    """Step-by-step comparison of grid reactive power between two runs."""

    scenario_a: str
    scenario_b: str
    delta_q_grid: tuple[float, ...]  # b minus a, per step
    delta_pf_grid: tuple[float, ...]  # b minus a, per step
    max_abs_q_grid_a: float
    max_abs_q_grid_b: float
    winner: str | None  # run with |q_grid| <= the other at every step


def _columns(scenario: Scenario, params: SingleDiodeParams, times) -> dict[str, np.ndarray]:
    """The balance at each instant, one array per column.

    Each instant takes the segment with the largest t_start <= t.  The
    array maximum power is solved once for every lit irradiance segment
    in use, and the compensator is dispatched once on the load-q column.
    """
    t = np.asarray(times, dtype=float)
    irr_start, g, t_cell = scenario.irradiance
    load_start, p, q = scenario.load
    k_irr = np.searchsorted(irr_start, t, side="right") - 1
    k_load = np.searchsorted(load_start, t, side="right") - 1

    lit = (np.bincount(k_irr, minlength=len(g)) > 0) & (g > 0.0)  # lit segments in use
    p_seg = np.zeros(len(g))
    p_seg[lit] = np.multiply(*pv_model.array_mpp(scenario.array, params, g[lit], t_cell[lit]))
    p_pv = p_seg[k_irr]
    q_out, p_loss = dispatch(scenario.compensator, q, scenario.grid.v_phase)
    q_comp, p_comp_loss = q_out[k_load], p_loss[k_load]
    p_load, q_load = p[k_load], q[k_load]
    p_inv = scenario.inverter_efficiency * p_pv
    with np.errstate(over="ignore", invalid="ignore"):  # an exchange past the range fails below
        p_grid = p_load + p_comp_loss - p_inv
        q_grid = q_load - q_comp
        beyond = ~(np.hypot(p_grid, q_grid) < np.inf)
    for k in np.flatnonzero(beyond)[:1]:
        raise InvalidValue(f"grid exchange at t = {float(t[k])} s is beyond the float range")
    return dict(
        t=t, p_pv=p_pv, p_inv=p_inv, q_inv=np.zeros(len(t)), p_load=p_load,
        q_load=q_load, q_comp=q_comp, p_comp_loss=p_comp_loss, p_grid=p_grid, q_grid=q_grid,
        pf_grid=power_factor(p_grid, q_grid), v_dc=np.full(len(t), scenario.grid.v_dc),
    )


def run(scenario: Scenario) -> TimeSeries:
    """Simulate the scenario over its whole time grid.

    Module calibration happens once per module spec (memoized by
    :func:`pv_model.extract_single_diode_params`); the
    maximum-power solve is one batched solve over the lit irradiance
    segments.  Identical scenarios produce identical output.

    A calibration error keeps its class, with the scenario id in front of
    its message.

    Raises:
        InfeasibleSpec: if the module datasheet cannot be calibrated.
        NonConvergence: if a calibration solve exhausts its budget.
        InvalidValue: if the grid exchange at some instant is beyond the
            float range.
    """
    try:
        params = pv_model.extract_single_diode_params(scenario.array.module)
    except (InfeasibleSpec, NonConvergence) as exc:
        raise type(exc)(
            f"module calibration failed for scenario {scenario.scenario_id!r}: {exc}"
        ) from exc
    return TimeSeries(scenario.scenario_id, columns=_columns(scenario, params, scenario.times()))


def compare_runs(a: TimeSeries, b: TimeSeries) -> ComparisonReport:
    """Compare grid reactive power between two runs on the same time grid.

    The winner is the run whose |q_grid| is no larger at every step and
    strictly smaller at least once; None if neither dominates.

    Raises:
        GridMismatch: if the time grids differ.
    """
    ts_a, ts_b = a.columns["t"], b.columns["t"]
    if not np.array_equal(ts_a, ts_b):
        raise GridMismatch(
            f"time grids differ: {len(ts_a)} records vs {len(ts_b)}"
            if len(ts_a) != len(ts_b)
            else "time grids differ in their instants"
        )
    q_a, q_b = a.columns["q_grid"], b.columns["q_grid"]
    abs_a, abs_b = np.abs(q_a), np.abs(q_b)
    a_dominates, b_dominates = bool((abs_a <= abs_b).all()), bool((abs_b <= abs_a).all())
    winner = None
    if a_dominates != b_dominates:
        winner = a.scenario_id if a_dominates else b.scenario_id
    return ComparisonReport(
        scenario_a=a.scenario_id, scenario_b=b.scenario_id,
        delta_q_grid=tuple((q_b - q_a).tolist()),
        delta_pf_grid=tuple((b.columns["pf_grid"] - a.columns["pf_grid"]).tolist()),
        max_abs_q_grid_a=float(abs_a.max()), max_abs_q_grid_b=float(abs_b.max()), winner=winner,
    )
