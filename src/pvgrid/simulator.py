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

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from . import pv_model
from .compensation import CompensatorConfig, NoCompensator, dispatch, power_factor
from .errors import (
    CalibrationFailure,
    GridMismatch,
    InfeasibleSpec,
    InvalidScenario,
    NonConvergence,
    UndefinedPF,
)
from .pv_model import EnvCondition, PVArraySpec, SingleDiodeParams

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


@dataclass(frozen=True)
class GridSpec:
    """Stiff-grid interface parameters."""

    v_phase: float  # V, phase voltage at the PCC
    f: float  # Hz
    v_dc: float  # V, reported dc-link setpoint

    def __post_init__(self) -> None:
        for name in ("v_phase", "f", "v_dc"):
            if getattr(self, name) <= 0.0:
                raise InvalidScenario(f"grid {name} must be positive")


def _check_profile(name: str, profile: tuple, t_field: str = "t_start") -> None:
    if not profile:
        raise InvalidScenario(f"{name} profile must have at least one segment")
    if profile[0].t_start != 0.0:
        raise InvalidScenario(f"{name} profile must start at t = 0")
    starts = [seg.t_start for seg in profile]
    if any(b <= a for a, b in zip(starts, starts[1:])):
        raise InvalidScenario(f"{name} profile segments must be sorted by t_start")


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
        if self.dt <= 0.0:
            raise InvalidScenario(f"dt must be positive, got {self.dt}")
        if self.t_end < 0.0:
            raise InvalidScenario(f"t_end must be non-negative, got {self.t_end}")
        if not self.t_end / self.dt + _GRID_EPS < MAX_RECORDS:
            raise InvalidScenario(
                f"t_end/dt = {self.t_end / self.dt:g} gives more than "
                f"{MAX_RECORDS} records"
            )
        _check_profile("irradiance", self.irradiance_profile)
        _check_profile("load", self.load_profile)
        for seg in self.irradiance_profile:
            if seg.g < 0.0:
                raise InvalidScenario(f"irradiance must be non-negative, got {seg.g}")
            if not -40.0 <= seg.t_cell <= 90.0:
                raise InvalidScenario(
                    f"cell temperature {seg.t_cell} outside [-40, 90] °C"
                )

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


@dataclass(frozen=True)
class TimeSeries:
    """Simulation output: one record per time-grid instant."""

    scenario_id: str
    records: tuple[PowerFlowRecord, ...]

    def __post_init__(self) -> None:
        if not self.records:
            raise InvalidScenario("time series must contain at least one record")
        ts = [r.t for r in self.records]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise InvalidScenario("record times must be strictly increasing")


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


def _starts(scenario: Scenario) -> tuple[list[float], list[float]]:
    """The t_start lists of the irradiance and load profiles."""
    return (
        [seg.t_start for seg in scenario.irradiance_profile],
        [seg.t_start for seg in scenario.load_profile],
    )


def _segment_at(profile: tuple, starts: list[float], t: float):
    """Active segment: the one with the largest t_start <= t."""
    return profile[bisect_right(starts, t) - 1]


@lru_cache(maxsize=32)
def _calibrated(module: pv_model.PVModuleSpec) -> SingleDiodeParams:
    return pv_model.extract_single_diode_params(module)


def _step(
    scenario: Scenario,
    params: SingleDiodeParams,
    t: float,
    mpp_cache: dict[tuple[float, float], float],
    starts: tuple[list[float], list[float]],
) -> PowerFlowRecord:
    irr = _segment_at(scenario.irradiance_profile, starts[0], t)
    load = _segment_at(scenario.load_profile, starts[1], t)

    key = (irr.g, irr.t_cell)
    p_pv = mpp_cache.get(key)
    if p_pv is None:
        if irr.g > 0.0:
            env = EnvCondition(g=irr.g, t=irr.t_cell)
            p_pv = pv_model.mpp(scenario.array, params, env).p_mp
        else:
            p_pv = 0.0
        mpp_cache[key] = p_pv

    p_inv = scenario.inverter_efficiency * p_pv
    comp = dispatch(scenario.compensator, q_demand=load.q, v=scenario.grid.v_phase)
    p_grid = load.p + comp.p_loss - p_inv
    q_grid = load.q - comp.q_out
    try:
        pf_grid, _ = power_factor(p_grid, q_grid)
    except UndefinedPF:
        pf_grid = 1.0  # zero grid exchange reported as unity by convention
    return PowerFlowRecord(
        t=t,
        p_pv=p_pv,
        p_inv=p_inv,
        q_inv=0.0,
        p_load=load.p,
        q_load=load.q,
        q_comp=comp.q_out,
        p_comp_loss=comp.p_loss,
        p_grid=p_grid,
        q_grid=q_grid,
        pf_grid=pf_grid,
        v_dc=scenario.grid.v_dc,
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
    return _step(scenario, params, t, {}, _starts(scenario))


def run(scenario: Scenario) -> TimeSeries:
    """Simulate the scenario over its whole time grid.

    Module calibration happens once per module spec (memoized); the
    maximum-power solve happens once per distinct (g, t_cell) pair.
    Identical scenarios produce identical output.

    Raises:
        CalibrationFailure: if the module datasheet cannot be calibrated.
    """
    try:
        params = _calibrated(scenario.array.module)
    except (InfeasibleSpec, NonConvergence) as exc:
        raise CalibrationFailure(
            f"module calibration failed for scenario {scenario.scenario_id!r}: {exc}"
        ) from exc
    mpp_cache: dict[tuple[float, float], float] = {}
    starts = _starts(scenario)
    records = tuple(
        _step(scenario, params, t, mpp_cache, starts) for t in scenario.times()
    )
    return TimeSeries(scenario_id=scenario.scenario_id, records=records)


def compare_runs(a: TimeSeries, b: TimeSeries) -> ComparisonReport:
    """Compare grid reactive power between two runs on the same time grid.

    The winner is the run whose |q_grid| is no larger at every step and
    strictly smaller at least once; None if neither dominates.

    Raises:
        GridMismatch: if the time grids differ.
    """
    ts_a = [r.t for r in a.records]
    ts_b = [r.t for r in b.records]
    if ts_a != ts_b:
        raise GridMismatch(
            f"time grids differ: {len(ts_a)} records vs {len(ts_b)}"
            if len(ts_a) != len(ts_b)
            else "time grids differ in their instants"
        )
    abs_a = [abs(r.q_grid) for r in a.records]
    abs_b = [abs(r.q_grid) for r in b.records]
    a_dominates = all(x <= y for x, y in zip(abs_a, abs_b))
    b_dominates = all(y <= x for x, y in zip(abs_a, abs_b))
    if a_dominates and not b_dominates:
        winner = a.scenario_id
    elif b_dominates and not a_dominates:
        winner = b.scenario_id
    else:
        winner = None
    return ComparisonReport(
        scenario_a=a.scenario_id,
        scenario_b=b.scenario_id,
        delta_q_grid=tuple(
            rb.q_grid - ra.q_grid for ra, rb in zip(a.records, b.records)
        ),
        delta_pf_grid=tuple(
            rb.pf_grid - ra.pf_grid for ra, rb in zip(a.records, b.records)
        ),
        max_abs_q_grid_a=max(abs_a),
        max_abs_q_grid_b=max(abs_b),
        winner=winner,
    )
