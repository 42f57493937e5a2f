"""Shared fixtures and scenario builders for the pvgrid test suite."""

from __future__ import annotations

import numpy as np
import pytest

from pvgrid.compensation import CompensatorConfig, FixedCapacitor, NoCompensator, Statcom
from pvgrid.pv_model import PVArraySpec, PVModuleSpec, extract_single_diode_params
from pvgrid.simulator import GridSpec, IrradianceStep, LoadStep, Scenario

# Reference 213.15 W module used throughout the suite.  Its datasheet values
# are the only module-level inputs; everything else is derived by calibration.
REF_MODULE = PVModuleSpec(
    p_mp=213.15,
    v_mp=29.0,
    i_mp=7.35,
    v_oc=36.3,
    i_sc=7.84,
)

REF_GRID = GridSpec(v_phase=230.0, f=50.0, v_dc=700.0)


@pytest.fixture(scope="session")
def ref_module() -> PVModuleSpec:
    """Reference module datasheet."""
    return REF_MODULE


@pytest.fixture(scope="session")
def ref_params(ref_module):
    """Calibrated single-diode parameters for the reference module."""
    return extract_single_diode_params(ref_module)


@pytest.fixture(scope="session")
def ref_array(ref_module) -> PVArraySpec:
    """10-series x 47-parallel array built from the reference module."""
    return PVArraySpec(module=ref_module, n_series=10, n_parallel=47)


def make_scenario(
    *,
    irradiance=((0.0, 1000.0, 25.0),),
    load=((0.0, 100_000.0, 100_000.0),),
    compensator: CompensatorConfig = NoCompensator(),
    efficiency: float = 0.997,
    t_end: float = 0.05,
    dt: float = 0.01,
    n_series: int = 10,
    n_parallel: int = 47,
    scenario_id: str = "scenario",
) -> Scenario:
    """Build a scenario around the reference module with compact overrides.

    Profiles are given here as rows, one ``(t_start, g, t_cell)`` or
    ``(t_start, p, q)`` tuple per segment, and handed to ``Scenario`` as
    columns with each value as given.
    """
    return Scenario(
        grid=REF_GRID,
        array=PVArraySpec(module=REF_MODULE, n_series=n_series, n_parallel=n_parallel),
        inverter_efficiency=efficiency,
        irradiance=list(zip(*irradiance)),
        load=list(zip(*load)),
        compensator=compensator,
        t_end=t_end,
        dt=dt,
        scenario_id=scenario_id,
    )


def random_scenario(rng: np.random.Generator, index: int = 0) -> Scenario:
    """Draw a random but valid scenario sharing the reference module.

    Irradiance and load profiles are piecewise constant with one to three
    segments whose start times fall on the dt grid, so segment boundaries
    coincide with record times.  Compensator mode is drawn uniformly.
    """
    dt = 0.01
    t_end = 0.05

    def random_starts() -> tuple[float, ...]:
        n_extra = int(rng.integers(0, 3))
        interior = rng.choice(np.arange(1, 5), size=n_extra, replace=False)
        return (0.0, *sorted(float(k) * dt for k in interior))

    irr = tuple(
        IrradianceStep(
            t_start=t,
            g=float(rng.uniform(0.0, 1100.0)) if rng.uniform() > 0.1 else 0.0,
            t_cell=float(rng.uniform(0.0, 60.0)),
        )
        for t in random_starts()
    )
    load = tuple(
        LoadStep(
            t_start=t,
            p=float(rng.uniform(0.0, 200_000.0)),
            q=float(rng.uniform(-150_000.0, 200_000.0)),
        )
        for t in random_starts()
    )
    mode = int(rng.integers(0, 3))
    if mode == 0:
        comp: CompensatorConfig = NoCompensator()
    elif mode == 1:
        comp = FixedCapacitor(
            q_rated=float(rng.uniform(10_000.0, 200_000.0)),
            v_rated=230.0,
            loss_w=float(rng.uniform(0.0, 2000.0)),
        )
    else:
        comp = Statcom(
            q_max=float(rng.uniform(10_000.0, 250_000.0)),
            loss_floor_w=float(rng.uniform(0.0, 1500.0)),
            loss_frac=float(rng.uniform(0.0, 0.05)),
        )
    return Scenario(
        grid=GridSpec(
            v_phase=float(rng.uniform(110.0, 400.0)),
            f=float(rng.choice([50.0, 60.0])),
            v_dc=float(rng.uniform(400.0, 900.0)),
        ),
        array=PVArraySpec(module=REF_MODULE, n_series=10, n_parallel=47),
        inverter_efficiency=float(rng.uniform(0.9, 1.0)),
        irradiance=list(zip(*irr)),
        load=list(zip(*load)),
        compensator=comp,
        t_end=t_end,
        dt=dt,
        scenario_id=f"random-{index}",
    )
