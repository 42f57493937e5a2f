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

import sys
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import pv_model
from .compensation import CompensatorConfig, dispatch, power_factor  # noqa: F401 (traced by name)
from .errors import (
    CalibrationFailure, GridMismatch, InfeasibleSpec, InvalidScenario, NonConvergence,
)
from .pv_model import PVArraySpec, SingleDiodeParams

# Tolerance slack applied when counting whole steps in t_end/dt, so a
# horizon that is an exact multiple of dt includes its final instant.
_GRID_EPS = 1e-9

# Most records one run may hold (t_end/dt + 1): over eleven days at 1 s.
# Checked before anything is allocated, so a huge horizon is rejected
# up front instead of exhausting memory or overflowing the count.
MAX_RECORDS = 1_000_000


class IrradianceStep(NamedTuple):
    t_start: float  # s
    g: float  # W/m²
    t_cell: float  # °C


class LoadStep(NamedTuple):
    t_start: float  # s
    p: float  # W
    q: float  # var


# Largest finite double: NaN, infinities and larger integers all fail `<= _MAX`.
_MAX = sys.float_info.max


@dataclass(frozen=True)
class GridSpec:
    """Stiff-grid interface parameters."""

    v_phase: float  # V, phase voltage at the PCC
    f: float  # Hz
    v_dc: float  # V, reported dc-link setpoint

    def __post_init__(self) -> None:
        for name in ("v_phase", "f", "v_dc"):
            if not 0.0 < getattr(self, name) <= _MAX:
                raise InvalidScenario(f"grid {name} must be positive and finite")


def _float_rows(rows: list, width: int) -> np.ndarray | None:
    """``rows`` as an (n, width) float array, each value converted as by float().

    None unless every row has ``width`` values and each value is an int or
    a float (not a bool) strictly inside the float range.
    """
    values = list(chain.from_iterable(rows))
    if set(map(len, rows)) != {width} or not set(map(type, values)) <= {int, float}:
        return None
    try:
        array = np.fromiter(values, float, len(values))
    except OverflowError:  # an integer beyond the float range
        return None
    return array.reshape(-1, width) if (np.abs(array) < _MAX).all() else None


def _profile_columns(name: str, profile: tuple) -> np.ndarray:
    """The checked profile as one read-only float array per field."""
    if not profile:
        raise InvalidScenario(f"{name} profile must have at least one segment")
    rows = _float_rows(profile, len(profile[0]))
    if rows is None:  # other number types, or a value to reject: check one by one
        for seg in profile:
            if not all(-_MAX <= value <= _MAX for value in seg):
                raise InvalidScenario(f"{name} profile segment {seg} must have finite values")
        rows = np.array(profile, dtype=float)
    columns = rows.T
    columns.flags.writeable = False
    starts = columns[0]
    if starts[0] != 0.0:
        raise InvalidScenario(f"{name} profile must start at t = 0")
    if (starts[1:] <= starts[:-1]).any():
        raise InvalidScenario(f"{name} profile segments must be sorted by t_start")
    return columns


@dataclass(frozen=True)
class Scenario:
    """Complete description of one simulation run.

    The keyword-only defaults are the ones a scenario document gets when
    it omits its ``inverter`` or ``sim`` section.
    """

    grid: GridSpec
    array: PVArraySpec
    inverter_efficiency: float = field(default=0.997, kw_only=True)
    irradiance_profile: tuple[IrradianceStep, ...]
    load_profile: tuple[LoadStep, ...]
    compensator: CompensatorConfig
    t_end: float = field(default=0.2, kw_only=True)  # s
    dt: float = field(default=0.01, kw_only=True)  # s
    scenario_id: str = "scenario"

    def __post_init__(self) -> None:
        if not 0.0 < self.inverter_efficiency <= 1.0:
            raise InvalidScenario(
                f"inverter_efficiency must lie in (0, 1], got {self.inverter_efficiency}"
            )
        if not 0.0 < self.dt <= _MAX:
            raise InvalidScenario(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 <= self.t_end <= _MAX:
            raise InvalidScenario(f"t_end must be non-negative and finite, got {self.t_end}")
        if not self.t_end / self.dt + _GRID_EPS < MAX_RECORDS:
            raise InvalidScenario(
                f"t_end/dt = {self.t_end / self.dt:g} gives more than "
                f"{MAX_RECORDS} records"
            )
        irradiance = _profile_columns("irradiance", self.irradiance_profile)
        load = _profile_columns("load", self.load_profile)
        _, g, t_cell = irradiance
        for k in np.flatnonzero((g < 0.0) | ~((-40.0 <= t_cell) & (t_cell <= 90.0)))[:1]:
            seg = self.irradiance_profile[k]
            if seg.g < 0.0:
                raise InvalidScenario(f"irradiance must be non-negative, got {seg.g}")
            raise InvalidScenario(f"cell temperature {seg.t_cell} outside [-40, 90] °C")
        # The profiles as columns, read by every run of this scenario.
        object.__setattr__(self, "_irradiance", irradiance)
        object.__setattr__(self, "_load", load)

    def times(self) -> list[float]:
        """The record instants k*dt for k = 0 .. floor(t_end/dt)."""
        n = int(self.t_end / self.dt + _GRID_EPS) + 1
        return [k * self.dt for k in range(n)]


@dataclass(frozen=True)
class PowerFlowRecord:
    """Per-step P/Q of every element at the PCC."""

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

    def __post_init__(self) -> None:
        if self.t < 0.0:
            raise InvalidScenario(f"record time must be non-negative, got {self.t}")
        if not 0.0 <= self.pf_grid <= 1.0:
            raise InvalidScenario(f"pf_grid must lie in [0, 1], got {self.pf_grid}")


# Output columns: the PowerFlowRecord fields, in field order.
COLUMNS = tuple(f.name for f in fields(PowerFlowRecord))


class TimeSeries:
    """Simulation output: one float array per column of ``COLUMNS``.

    Built from ``records`` or from ``columns={name: array}``; both check
    the same invariants, and ``records`` is built on first use.
    """

    def __init__(self, scenario_id: str, records: tuple[PowerFlowRecord, ...] | None = None,
                 *, columns: dict[str, np.ndarray] | None = None) -> None:
        self.scenario_id = scenario_id
        if columns is None:
            self.records = tuple(records)
        else:
            self.columns = {name: np.asarray(columns[name], dtype=float) for name in COLUMNS}
        t, pf = self.columns["t"], self.columns["pf_grid"]
        if not len(t):
            raise InvalidScenario("time series must contain at least one record")
        for k in np.flatnonzero(~(t >= 0.0))[:1]:
            raise InvalidScenario(f"record time must be non-negative, got {t[k]}")
        for k in np.flatnonzero(~((0.0 <= pf) & (pf <= 1.0)))[:1]:
            raise InvalidScenario(f"pf_grid must lie in [0, 1], got {pf[k]}")
        if (t[1:] <= t[:-1]).any():
            raise InvalidScenario("record times must be strictly increasing")

    @cached_property
    def columns(self) -> dict[str, np.ndarray]:
        return {name: np.array([getattr(r, name) for r in self.records]) for name in COLUMNS}

    @cached_property
    def records(self) -> tuple[PowerFlowRecord, ...]:
        return tuple(PowerFlowRecord(*row) for row in self.rows())

    def rows(self) -> Iterator[tuple[float, ...]]:
        """One tuple of floats per instant, in ``COLUMNS`` order."""
        return zip(*(column.tolist() for column in self.columns.values()))

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


@lru_cache(maxsize=32)
def _calibrated(module: pv_model.PVModuleSpec) -> SingleDiodeParams:
    return pv_model.extract_single_diode_params(module)


def _columns(scenario: Scenario, params: SingleDiodeParams, times: list) -> dict[str, np.ndarray]:
    """The balance at each instant, one array per column.

    Each instant takes the segment with the largest t_start <= t.  The
    array maximum power is solved once for every lit irradiance segment
    in use, and the compensator is dispatched once per load segment.
    """
    t = np.asarray(times, dtype=float)
    irr_start, g, t_cell = scenario._irradiance
    load_start, p, q = scenario._load
    k_irr = np.searchsorted(irr_start, t, side="right") - 1
    k_load = np.searchsorted(load_start, t, side="right") - 1

    lit = (np.bincount(k_irr, minlength=len(g)) > 0) & (g > 0.0)  # lit segments in use
    p_seg = np.zeros(len(g))
    p_seg[lit] = np.multiply(*pv_model.array_mpp(scenario.array, params, g[lit], t_cell[lit]))
    p_pv = p_seg[k_irr]
    v = scenario.grid.v_phase
    outputs = [dispatch(scenario.compensator, q_demand=q_k, v=v) for q_k in q.tolist()]
    q_comp, p_comp_loss = np.array([(o.q_out, o.p_loss) for o in outputs]).T[:, k_load]
    p_load, q_load = p[k_load], q[k_load]
    p_inv = scenario.inverter_efficiency * p_pv
    p_grid = p_load + p_comp_loss - p_inv
    q_grid = q_load - q_comp
    # Zero grid exchange has no power factor; it is reported as unity.
    s_grid = np.hypot(p_grid, q_grid)
    pf_grid = np.divide(np.abs(p_grid), s_grid, out=np.ones(len(t)), where=s_grid != 0.0)
    return dict(
        t=t, p_pv=p_pv, p_inv=p_inv, q_inv=np.zeros(len(t)), p_load=p_load,
        q_load=q_load, q_comp=q_comp, p_comp_loss=p_comp_loss, p_grid=p_grid,
        q_grid=q_grid, pf_grid=pf_grid, v_dc=np.full(len(t), scenario.grid.v_dc),
    )


def step(scenario: Scenario, params: SingleDiodeParams, t: float) -> PowerFlowRecord:
    """Equilibrium power balance at instant ``t``.

    Profile segments are selected by the largest t_start <= t, so a
    record taken exactly at a step boundary uses the new segment.

    Args:
        scenario: Validated scenario.
        params: STC-calibrated module parameters.
        t: Instant within [0, t_end].
    """
    if not 0.0 <= t <= scenario.t_end:
        raise ValueError(f"t = {t} outside [0, {scenario.t_end}]")
    return TimeSeries(scenario.scenario_id, columns=_columns(scenario, params, [t])).records[0]


def run(scenario: Scenario) -> TimeSeries:
    """Simulate the scenario over its whole time grid.

    Module calibration happens once per module spec (memoized); the
    maximum-power solve is one batched solve over the lit irradiance
    segments.  Identical scenarios produce identical output.

    Raises:
        CalibrationFailure: if the module datasheet cannot be calibrated.
    """
    try:
        params = _calibrated(scenario.array.module)
    except (InfeasibleSpec, NonConvergence) as exc:
        raise CalibrationFailure(
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
