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
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import pv_model
from .compensation import CompensatorConfig, dispatch, power_factor
from .errors import (
    FINITE, NON_NEGATIVE, POSITIVE, Bound, GridMismatch, InfeasibleSpec, InvalidValue,
    NonConvergence, bounded, check_fields, require_columns,
)
from .pv_model import PVArraySpec, SingleDiodeParams

# Slack, in steps, for the rounding of k*dt: a horizon (t_end) or a profile
# breakpoint that is an exact multiple of dt includes, or starts at, its instant.
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


@dataclass(frozen=True, eq=False)
class Scenario:
    """Complete description of one simulation run.

    Each profile is given as columns, one sequence per field with one value
    per segment, and kept as a read-only (3, n) float copy: ``irradiance``
    has the rows t_start (s), g (W/m²) and t_cell (°C), ``load`` the rows
    t_start (s), p (W) and q (var).  Column ``k`` is segment ``k``, the
    index an error names for a value that fails its field's bound (else
    finite), or a t_start that is not 0, then rising.  The instant k*dt takes
    the last segment with t_start <= (k + 1e-9)*dt, the slack of :meth:`times`.

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
        for name, step in (("irradiance", IrradianceStep), ("load", LoadStep)):
            vars(self)[name] = require_columns(getattr(self, name), step, f"{name} profile",
                                               "segment", rising=True, from_zero=True)

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

    BOUNDS = {"t": NON_NEGATIVE, "pf_grid": Bound("finite and in [0, 1]",
                                                 lambda x: (0.0 <= x) & (x <= 1.0))}


# Output columns: the PowerFlowRecord fields, in field order.
COLUMNS = PowerFlowRecord._fields


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Simulation output: one float array per column of ``COLUMNS``.

    ``columns`` must map each of them to at least one value, each within its
    bound in ``PowerFlowRecord.BOUNDS`` (else finite), with t rising.  They
    are kept as read-only float copies in a read-only mapping, for the
    series' whole life.
    ``records``, one :class:`PowerFlowRecord` per instant, is built from
    the columns on first read.
    """

    scenario_id: str
    columns: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        check_fields(self)
        given = self.columns if isinstance(self.columns, Mapping) else {}
        for name in [name for name in COLUMNS if name not in given][:1]:
            raise InvalidValue(f"columns must map every column to its values, missing {name!r}")
        block = require_columns([given[name] for name in COLUMNS], PowerFlowRecord,
                                "time series", "record", rising=True)
        vars(self)["columns"] = MappingProxyType(dict(zip(COLUMNS, block)))

    @cached_property
    def records(self) -> tuple[PowerFlowRecord, ...]:
        return tuple(map(PowerFlowRecord._make, zip(*(c.tolist() for c in self.columns.values()))))

    def __len__(self) -> int:
        return len(self.columns["t"])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TimeSeries) and self.scenario_id == other.scenario_id and all(
            np.array_equal(a, b) for a, b in zip(self.columns.values(), other.columns.values())
        )


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Step-by-step comparison of grid reactive power between two runs, deltas read-only."""

    scenario_a: str
    scenario_b: str
    delta_q_grid: np.ndarray  # b minus a, per step, a read-only float array
    delta_pf_grid: np.ndarray  # b minus a, per step, a read-only float array
    max_abs_q_grid_a: float
    max_abs_q_grid_b: float
    winner: str | None  # run with |q_grid| <= the other at every step

    def __post_init__(self) -> None:
        check_fields(self)
        vars(self)["delta_q_grid"], vars(self)["delta_pf_grid"] = require_columns(
            (self.delta_q_grid, self.delta_pf_grid),
            dict.fromkeys(("delta_q_grid", "delta_pf_grid"), FINITE), "comparison", "step")


def _columns(scenario: Scenario, params: SingleDiodeParams, times) -> dict[str, np.ndarray]:
    """The balance at each instant, one array per column.

    Each instant t takes the last segment with t_start <= t + 1e-9*dt.  The
    array maximum power is solved once for every lit irradiance segment
    in use, and the compensator is dispatched once on the load-q column.
    """
    t = np.asarray(times, dtype=float)
    irr_start, g, t_cell = scenario.irradiance
    load_start, p, q = scenario.load
    at = t + _GRID_EPS * scenario.dt  # k*dt may round to just below its breakpoint
    k_irr = np.searchsorted(irr_start, at, side="right") - 1
    k_load = np.searchsorted(load_start, at, side="right") - 1

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
        InvalidValue: if a q_grid delta is beyond the float range (from ComparisonReport).
    """
    ts_a, ts_b = a.columns["t"], b.columns["t"]
    if not np.array_equal(ts_a, ts_b):
        raise GridMismatch(
            f"time grids differ: {len(ts_a)} records vs {len(ts_b)}"
            if len(ts_a) != len(ts_b)
            else "time grids differ in their instants"
        )
    q_a, q_b = a.columns["q_grid"], b.columns["q_grid"]
    with np.errstate(over="ignore"):  # a delta past the range fails in ComparisonReport
        delta_q = q_b - q_a
    abs_a, abs_b = np.abs(q_a), np.abs(q_b)
    a_dominates, b_dominates = bool((abs_a <= abs_b).all()), bool((abs_b <= abs_a).all())
    winner = None
    if a_dominates != b_dominates:
        winner = a.scenario_id if a_dominates else b.scenario_id
    return ComparisonReport(
        scenario_a=a.scenario_id, scenario_b=b.scenario_id,
        delta_q_grid=delta_q, delta_pf_grid=b.columns["pf_grid"] - a.columns["pf_grid"],
        max_abs_q_grid_a=float(abs_a.max()), max_abs_q_grid_b=float(abs_b.max()), winner=winner,
    )
