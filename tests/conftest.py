"""Shared fixtures and scenario builders for the pvgrid test suite."""

from __future__ import annotations

import copy
import math
import sys

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from pvgrid.compensation import CompensatorConfig, FixedCapacitor, NoCompensator, Statcom
from pvgrid.pv_model import PVArraySpec, PVModuleSpec, extract_single_diode_params
from pvgrid.simulator import MAX_RECORDS, GridSpec, IrradianceStep, LoadStep, Scenario

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

# A 91.6 kW datasheet whose first ideality, 1.3, misses I(v_oc) = 0 only through
# the exponent cap (v_oc/a = 692.4 > 690); its current solve there runs out of a
# budget of OUT_OF_BUDGET_ITERATIONS, while 1.35 calibrates within it.
OUT_OF_BUDGET_ITERATIONS = 40
OUT_OF_BUDGET_AT_FIRST = PVModuleSpec(p_mp=91623.728, v_mp=1203.228, i_mp=76.148,
                                      v_oc=1387.653, i_sc=85.187, n_cells=60)

SUBCOMMANDS = ["design-boost", "design-lcl", "check-resonance", "pv-curve", "simulate", "compare"]
# Flags of the three design commands: a 100 kW boost stage, a 100 kW LCL filter
# and a resonance check of that filter.
BOOST_ARGS = [
    "design-boost", "--p", "100345", "--vin", "290", "--vout", "700", "--fsw", "5000",
]
LCL_ARGS = [
    "design-lcl", "--p", "100000", "--vg", "230", "--fg", "50",
    "--vdc", "700", "--fsw", "10000",
]
RESONANCE_ARGS = [
    "check-resonance", "--l1", "0.6e-3", "--l2", "15e-6",
    "--cg", "100.29e-6", "--fg", "50", "--fsw", "10000",
]
# Each design command, and one given an input outside its field's bound, with
# the stderr each prints.
DESIGN_RUNS = [
    pytest.param(BOOST_ARGS, "", id="design-boost"),
    pytest.param(LCL_ARGS, "", id="design-lcl"),
    pytest.param(RESONANCE_ARGS, "", id="check-resonance"),
    pytest.param(BOOST_ARGS + ["--ripple-i-frac", "0"],
                 "error: InvalidValue: ripple_i_frac must be finite and in (0, 1), got 0.0\n",
                 id="design-boost-rejected"),
]


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


# ======================================================================
# Generated scenario documents
# ======================================================================

# What a generated document may put in place of a value: non-finite, signed,
# subnormal, ordinary, at and past the float range's edge, and of a wrong type.
EDGE_VALUES = [
    math.nan, math.inf, -math.inf, -1.0, -0.0, 0, 5e-324, 1e-300, 0.5, 1, 1.5, 60.0, 1e300,
    sys.float_info.max, -sys.float_info.max, 10**300, 10**400, True, None, "1", [1.0], {},
]
# Real datasheets (p_mp, v_mp, i_mp, v_oc, i_sc, n_cells): 60-cell and 72-cell modules.
DATASHEETS = [
    (213.15, 29.0, 7.35, 36.3, 7.84, 60),
    (250.0, 30.1, 8.31, 37.6, 8.87, 60),
    (320.0, 36.8, 8.7, 45.9, 9.3, 72),
]
# One ``compensator`` section of each mode.
COMPENSATOR_DOCS = [
    {"mode": "none"},
    {"mode": "fixed_capacitor", "q_rated": 1e5, "v_rated": 230.0},
    {"mode": "statcom", "q_max": 2e5, "loss_floor_w": 800.0, "loss_frac": 0.01},
]
# Most records a generated document may ask for, unless it asks for more than
# MAX_RECORDS, which is rejected before anything is allocated.
MAX_DOCUMENT_RECORDS = 200


def _profile(draw, values: dict) -> list:
    """One to four entries starting at t = 0 on a 10 ms grid."""
    starts = sorted(draw(st.sets(st.integers(1, 9), max_size=3)))
    return [{"t_start": 0.01 * k, **{key: draw(v) for key, v in values.items()}}
            for k in (0, *starts)]


def _paths(node, prefix: tuple = ()):
    """The path of every value inside ``node``, a dict or a list, depth first."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _at(doc: dict, path):
    """The value at ``path`` inside ``doc``."""
    for key in path:
        doc = doc[key]
    return doc


def _records(doc: dict) -> float:
    """The record count the document's horizon asks for; 0 where the parser
    rejects the horizon's values."""
    sim = doc.get("sim", {})
    if not isinstance(sim, dict):
        return 0.0
    t_end, dt = sim.get("t_end", Scenario.t_end), sim.get("dt", Scenario.dt)
    if not all(type(x) in (int, float) and -sys.float_info.max <= x <= sys.float_info.max
               for x in (t_end, dt)) or dt <= 0.0 or t_end < 0.0:
        return 0.0
    return t_end / dt + 1.0


@st.composite
def scenario_documents(draw) -> dict:
    """A valid scenario document, then up to three edits: a value replaced by
    one of ``EDGE_VALUES``, a number negated, a key or entry deleted, an
    unknown key added, or a list reversed.  Its horizon holds at most
    ``MAX_DOCUMENT_RECORDS`` records, or more than ``MAX_RECORDS``."""
    p_mp, v_mp, i_mp, v_oc, i_sc, n_cells = draw(st.sampled_from(DATASHEETS))
    doc: dict = {
        "id": draw(st.sampled_from(["a", "b"])),
        "grid": {"v_phase": 230.0, "f": 50.0, "v_dc": 700.0},
        "pv_module": {"p_mp": p_mp, "v_mp": v_mp, "i_mp": i_mp, "v_oc": v_oc, "i_sc": i_sc,
                      "n_cells": n_cells},
        "pv_array": {"n_series": draw(st.integers(1, 20)),
                     "n_parallel": draw(st.integers(1, 50))},
        "compensator": copy.deepcopy(draw(st.sampled_from(COMPENSATOR_DOCS))),
        "profiles": {
            "irradiance": _profile(draw, {"g": st.floats(0.0, 1100.0),
                                          "t_cell": st.floats(-40.0, 90.0)}),
            "load": _profile(draw, {"p": st.floats(-2e5, 2e5), "q": st.floats(-2e5, 2e5)}),
        },
        "sim": {"t_end": draw(st.sampled_from([0.0, 0.05, 0.2])),
                "dt": draw(st.sampled_from([0.01, 0.05]))},
    }
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["value", "value", "negate", "negate", "delete", "unknown",
                                     "reverse"]))
        paths = [path for path in _paths(doc)
                 if edit != "negate" or type(_at(doc, path)) in (int, float)]
        *parent_path, key = draw(st.sampled_from(paths))
        parent = _at(doc, parent_path)
        if edit == "value":
            parent[key] = copy.deepcopy(draw(st.sampled_from(EDGE_VALUES)))
        elif edit == "negate":
            parent[key] = -parent[key]
        elif edit == "delete":
            del parent[key]
        elif edit == "unknown" and isinstance(parent, dict):
            parent["bogus"] = 1.0
        elif edit == "reverse" and isinstance(parent[key], list):
            parent[key].reverse()
    assume(not MAX_DOCUMENT_RECORDS < _records(doc) <= MAX_RECORDS)
    return doc
