"""Tests for pvgrid.simulator — per-step balance, runs, and comparisons."""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvgrid.compensation import FixedCapacitor, NoCompensator, Statcom
from pvgrid import cli, pv_model
from pvgrid.errors import GridMismatch, InfeasibleSpec, InvalidValue, NonConvergence
from pvgrid.pv_model import PVArraySpec, PVModuleSpec, extract_single_diode_params
from pvgrid.simulator import (
    COLUMNS,
    MAX_RECORDS,
    GridSpec,
    PowerFlowRecord,
    Scenario,
    TimeSeries,
    _columns,
    compare_runs,
    run,
)

from conftest import REF_MODULE, make_scenario, random_scenario


def _at(scenario: Scenario, params, t: float) -> PowerFlowRecord:
    """The balance at the one instant ``t``, as a row of its columns."""
    return PowerFlowRecord(**{k: c.item() for k, c in _columns(scenario, params, [t]).items()})


def _assert_balanced(record: PowerFlowRecord) -> None:
    """Independent balance oracle: P and Q must sum to zero at the PCC."""
    scale = (
        math.hypot(record.p_grid, record.q_grid)
        + math.hypot(record.p_load, record.q_load)
        + abs(record.p_inv)
        + math.hypot(record.p_comp_loss, record.q_comp)
        + 1.0
    )
    resid_p = record.p_grid + record.p_inv - record.p_load - record.p_comp_loss
    resid_q = record.q_grid + record.q_comp - record.q_load
    assert abs(resid_p) <= 1e-9 * scale, f"P residual {resid_p:.3e} at t={record.t}"
    assert abs(resid_q) <= 1e-9 * scale, f"Q residual {resid_q:.3e} at t={record.t}"


# ======================================================================
# Scenario validation
# ======================================================================


class TestScenarioValidation:
    """Constructor invariants of the scenario container."""

    def test_valid_scenario_builds(self):
        """The default builder produces a valid scenario."""
        s = make_scenario()
        assert s.times() == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04, 0.05])

    @pytest.mark.parametrize("compensator", ["statcom", {"mode": "statcom", "q_max": 2e5},
                                             None, Statcom], ids=["str", "dict", "None", "class"])
    def test_compensator_must_be_a_compensator(self, compensator):
        """A compensator that is none of the configuration classes is rejected
        when the scenario is built, naming the field and the type it got, so no
        run treats it as no compensator and no document is emitted from it."""
        with pytest.raises(InvalidValue) as err:
            make_scenario(compensator=compensator)
        assert str(err.value) == ("compensator must be one of NoCompensator, FixedCapacitor, "
                                  f"Statcom, got {type(compensator).__name__}")

    def test_efficiency_bounds(self):
        """Inverter efficiency outside (0, 1] is rejected."""
        with pytest.raises(InvalidValue):
            make_scenario(efficiency=0.0)
        with pytest.raises(InvalidValue):
            make_scenario(efficiency=1.2)

    def test_dt_positive(self):
        """Non-positive dt is rejected."""
        with pytest.raises(InvalidValue):
            make_scenario(dt=0.0)

    def test_profile_must_start_at_zero(self):
        """A profile whose first segment starts late leaves t=0 undefined."""
        with pytest.raises(InvalidValue):
            make_scenario(irradiance=((0.05, 1000.0, 25.0),))

    def test_profile_must_be_sorted(self):
        """Unsorted or duplicate segment starts are rejected."""
        with pytest.raises(InvalidValue):
            make_scenario(load=((0.0, 1e5, 1e5), (0.02, 2e5, 0.0), (0.01, 1e5, 0.0)))

    def test_irradiance_domain(self):
        """Negative irradiance and out-of-range cell temperature are rejected."""
        with pytest.raises(InvalidValue):
            make_scenario(irradiance=((0.0, -5.0, 25.0),))
        with pytest.raises(InvalidValue):
            make_scenario(irradiance=((0.0, 1000.0, 120.0),))

    def test_grid_spec_positive(self):
        """Grid voltage, frequency, and dc link must be positive."""
        with pytest.raises(InvalidValue):
            GridSpec(v_phase=0.0, f=50.0, v_dc=700.0)

    def test_zero_horizon_single_instant(self):
        """t_end = 0 still defines the t = 0 record."""
        s = make_scenario(t_end=0.0)
        assert s.times() == [0.0]

    def test_record_count_capped(self):
        """A horizon beyond MAX_RECORDS records is rejected; the cap itself is allowed."""
        assert MAX_RECORDS >= 86_401  # one day at 1 s
        at_cap = make_scenario(t_end=float(MAX_RECORDS - 1), dt=1.0)
        assert int(at_cap.t_end / at_cap.dt + 1e-9) + 1 == MAX_RECORDS
        for t_end, dt in ((float(MAX_RECORDS), 1.0), (1e300, 1e-10)):
            with pytest.raises(InvalidValue, match="records"):
                make_scenario(t_end=t_end, dt=dt)

    @pytest.mark.parametrize(
        "override",
        [
            {"irradiance": ((0.0, math.nan, 25.0),)},
            {"irradiance": ((0.0, 1000.0, math.nan),)},
            {"irradiance": ((0.0, 1000.0, 25.0), (math.inf, 500.0, 25.0))},
            {"load": ((0.0, math.nan, 1e5),)},
            {"load": ((0.0, 1e5, -math.inf),)},
            {"efficiency": math.nan},
            {"t_end": math.inf},
            {"dt": math.nan},
        ],
        ids=["g", "t_cell", "t_start", "p", "q", "efficiency", "t_end", "dt"],
    )
    def test_non_finite_values_rejected(self, override):
        """NaN or an infinity in any scenario number is rejected, not simulated."""
        with pytest.raises(InvalidValue, match="finite|inverter_efficiency"):
            make_scenario(**override)

    @pytest.mark.parametrize(
        "irradiance,load,message",
        [
            (((0.0, 100.0, 25.0), (0.1, 100.0, 95.0), (0.2, 100.0, -45.0)), None,
             "irradiance profile segment 1: t_cell must be finite and in [-40, 90] °C, "
             "got 95.0"),
            (((0.0, -5, 95.0),), None,
             "irradiance profile segment 0: g must be finite and in [0, 2000] W/m², got -5.0"),
            (((0.0, 100.0, 95.0), (0.1, -5.0, 25.0)), None,
             "irradiance profile segment 0: t_cell must be finite and in [-40, 90] °C, "
             "got 95.0"),
            (((0.0, 100.0, 25.0), (0.1, 2000.5, 25.0)), None,
             "irradiance profile segment 1: g must be finite and in [0, 2000] W/m², got 2000.5"),
            (((0.0, 1e3, 25.0), (0.1, math.nan, 25.0), (0.2, math.inf, 25.0)), None,
             "irradiance profile segment 1: g must be finite and in [0, 2000] W/m², got nan"),
            (((0.0, -5.0, 25.0),), ((0.0, 1e5, 1e5), (0.1, 1e5, -math.inf)),
             "irradiance profile segment 0: g must be finite and in [0, 2000] W/m², got -5.0"),
            (((0.0, 1e3, 25.0),), ((0.0, int(sys.float_info.max) + 1, 1e5),),
             f"load profile segment 0: p must be finite, got {int(sys.float_info.max) + 1}"),
            (((0.0, 1e3, 25.0), (0.1, 1e3, 25.0), (0.1, 1e3, 25.0)), None,
             "irradiance profile segment 2: t_start must be after 0.1, got 0.1"),
            (((1e-300, 1e3, 25.0),), None,
             "irradiance profile segment 0: t_start must be 0, got 1e-300"),
            (((0.0, 1000.0, 25.0), (0.01, True, 25.0)), None,
             "irradiance profile segment 1: g must be finite and in [0, 2000] W/m², got True"),
            (((0, 1000, True), (1, 500.0, -40)), None,
             "irradiance profile segment 0: t_cell must be finite and in [-40, 90] °C, "
             "got True"),
            (((0.0, 1e3, 25.0),), ((0.0, 1e5, 1e5), (0.01, False, 1e5)),
             "load profile segment 1: p must be finite, got False"),
            (((0.0, 1e3, 25.0),), ((0.0, 1e5, 1e5), (0.01, 1e5, np.True_)),
             "load profile segment 1: q must be finite, got np.True_"),
        ],
        ids=["first-bad-segment", "g-before-t_cell", "segment-before-field",
             "g-above-envelope", "first-non-finite", "irradiance-before-load",
             "int-past-float-range", "duplicate-start", "late-start", "bool-among-floats",
             "bool-among-ints", "load-bool", "load-numpy-bool"],
    )
    def test_profile_check_messages(self, irradiance, load, message):
        """Every profile check gives one message form naming the first failing
        segment by index, and in it the first failing field.  Irradiance is
        judged before load, and segments before fields."""
        kw = {"irradiance": irradiance} if load is None else {"irradiance": irradiance, "load": load}
        with pytest.raises(InvalidValue) as err:
            make_scenario(**kw)
        assert str(err.value) == message

    def test_profile_values_at_float_range_edge(self):
        """The largest double, and Python ints in range, are accepted and kept as
        floats."""
        s = make_scenario(
            irradiance=((0, 1000, 1), (1, 500.0, -40)),
            load=((0.0, sys.float_info.max, -sys.float_info.max),),
        )
        assert s.load[1, 0] == sys.float_info.max
        assert s.irradiance.T.tolist() == [[0.0, 1000.0, 1.0], [1.0, 500.0, -40.0]]
        assert s.irradiance.dtype == s.load.dtype == np.float64

    def test_grid_spec_finite(self):
        """A NaN or infinite grid value is rejected."""
        for f in (math.nan, math.inf):
            with pytest.raises(InvalidValue, match="finite"):
                GridSpec(v_phase=230.0, f=f, v_dc=700.0)

    def test_columns_and_steps_build_equal_scenarios(self):
        """Columns given as nested lists, as arrays or as tuples of ints make
        equal scenarios, equal columns and equal runs; the columns are
        read-only copies, and cannot be replaced."""
        steps = make_scenario(irradiance=((0.0, 1000.0, 25.0), (0.02, 500.0, 30.0)),
                              load=((0.0, 1e5, 5e4), (0.03, 2e5, -1e4)))
        load = np.array([[0.0, 0.03], [1e5, 2e5], [5e4, -1e4]])
        columns = Scenario(
            steps.grid, steps.array, compensator=steps.compensator,
            irradiance=[[0.0, 0.02], [1000.0, 500.0], [25.0, 30.0]], load=load,
            t_end=steps.t_end, dt=steps.dt,
        )
        assert columns == steps and hash(columns) == hash(steps)
        assert np.array_equal(columns.irradiance, steps.irradiance)
        assert columns.load.tolist() == steps.load.tolist() == load.tolist()
        assert run(columns) == run(steps)
        assert not columns.load.flags.writeable and load.flags.writeable
        load[1, 0] = 3e5
        assert columns.load[1, 0] == 1e5
        assert columns != make_scenario(irradiance=((0.0, 1000.0, 25.0), (0.02, 500.0, 30.0)),
                                        load=((0.0, 1e5, 5e4), (0.03, 2e5, -1e3)))
        with pytest.raises(AttributeError):
            columns.load = load
        ints = make_scenario(irradiance=((0, 1000, 25), (0.02, 500, 30)),
                             load=((0, 100_000, 50_000), (0.03, 200_000, -10_000)))
        assert ints == steps and ints.load.tolist() == steps.load.tolist()

    @pytest.mark.parametrize(
        "profiles,message",
        [
            ({"irradiance": [[0.0, 1e3, 25.0]]},
             "irradiance profile must hold 3 floats per segment"),
            ({"irradiance": [[0.0, 1.0], [1e3], [25.0, 25.0]]},
             "irradiance profile must hold 3 floats per segment"),
            ({"irradiance": [[0.0], [10**400], [25.0]]},
             f"irradiance profile segment 0: g must be finite and in [0, 2000] W/m², "
             f"got {10**400}"),
            ({"load": [[0.0], [int(sys.float_info.max) + 1], [1e5]]},
             f"load profile segment 0: p must be finite, got {int(sys.float_info.max) + 1}"),
            ({"irradiance": np.zeros((3, 0))},
             "irradiance profile must have at least one segment"),
            ({"irradiance": [[0.0, 1.0], [1e3, math.nan], [25.0, 25.0]]},
             "irradiance profile segment 1: g must be finite and in [0, 2000] W/m², got nan"),
            ({"irradiance": [[0.0], [-5.0], [25.0]]},
             "irradiance profile segment 0: g must be finite and in [0, 2000] W/m², got -5.0"),
            ({"irradiance": [["0"], ["1000"], ["25"]]},
             "irradiance profile segment 0: t_start must be finite, got '0'"),
            ({"load": [[0.0, 1.0], [1e5, None], [0.0, 0.0]]},
             "load profile segment 1: p must be finite, got None"),
            ({"irradiance": [[0.0, 0.01], [1000.0, True], [25.0, 25.0]]},
             "irradiance profile segment 1: g must be finite and in [0, 2000] W/m², got True"),
            ({"load": np.array([[False], [True], [True]])},
             "load profile segment 0: t_start must be finite, got False"),
            ({"irradiance": [np.zeros(1), np.array([True]), np.full(1, 25.0)]},
             "irradiance profile segment 0: g must be finite and in [0, 2000] W/m², got True"),
            ({"irradiance": np.array([[0], [-5], [25]])},
             "irradiance profile segment 0: g must be finite and in [0, 2000] W/m², got -5.0"),
        ],
        ids=["shape", "ragged", "int-past-float-range", "int-rounding-to-largest-double",
             "empty", "non-finite", "domain", "numeric-strings", "none", "bool-in-list",
             "bool-array", "bool-array-row", "int-array"],
    )
    def test_profile_columns_checked(self, profiles, message):
        """Each check of the columns keeps its message and precedence; a value
        is judged as given, so an int that would round to the largest double
        is not finite, and a numeric string is not a number."""
        kw = {"irradiance": [[0.0], [1e3], [25.0]], "load": [[0.0], [1e5], [0.0]], **profiles}
        with pytest.raises(InvalidValue) as err:
            Scenario(make_scenario().grid, make_scenario().array, compensator=NoCompensator(),
                     **kw)
        assert str(err.value) == message

    def test_run_shares_the_calibration_memo(self):
        """run() calibrates through extract_single_diode_params' memo, so
        calibrating the scenario's module afterwards is a cache hit."""
        module = PVModuleSpec(p_mp=214.2, v_mp=29.1, i_mp=7.36, v_oc=36.35, i_sc=7.85)
        s = Scenario(
            make_scenario().grid, PVArraySpec(module=module, n_series=10, n_parallel=47),
            compensator=NoCompensator(), irradiance=[[0.0], [800.0], [30.0]],
            load=[[0.0], [1e5], [2e4]], t_end=0.02,
        )
        run(s)
        hits = extract_single_diode_params.cache_info().hits
        extract_single_diode_params(s.array.module)
        assert extract_single_diode_params.cache_info().hits == hits + 1

    def test_time_grid_count_is_robust(self):
        """Horizons that are float-inexact multiples of dt keep the endpoint."""
        s = make_scenario(t_end=0.2, dt=0.01)
        ts = s.times()
        assert len(ts) == 21
        assert ts[-1] == pytest.approx(0.2)


# ======================================================================
# Single-instant equilibrium
# ======================================================================


class TestStep:
    """The balance columns at one instant."""

    def test_uncompensated_grid_carries_load_q(self, ref_params):
        """Without compensation q_grid equals q_load exactly."""
        s = make_scenario(load=((0.0, 50_000.0, 100_000.0),))
        r = _at(s, ref_params, 0.0)
        assert r.q_grid == 100_000.0
        assert r.q_comp == 0.0 and r.p_comp_loss == 0.0

    def test_inverter_power_is_scaled_mpp(self, ref_params):
        """p_inv = efficiency * p_pv and q_inv = 0."""
        s = make_scenario(efficiency=0.95)
        r = _at(s, ref_params, 0.0)
        assert r.p_inv == 0.95 * r.p_pv
        assert r.q_inv == 0.0

    def test_balance_identities(self, ref_params):
        """The grid picks up exactly what load + losses - inverter leave."""
        s = make_scenario(
            load=((0.0, 80_000.0, 60_000.0),),
            compensator=Statcom(q_max=50_000.0, loss_floor_w=800.0),
        )
        r = _at(s, ref_params, 0.0)
        assert r.p_grid == r.p_load + r.p_comp_loss - r.p_inv
        assert r.q_grid == r.q_load - r.q_comp
        assert r.q_comp == 50_000.0  # clamped at the rating
        _assert_balanced(r)

    def test_segment_boundary_uses_new_segment(self, ref_params):
        """A record taken exactly at t_start switches to the new values."""
        s = make_scenario(
            load=((0.0, 10_000.0, 0.0), (0.02, 99_000.0, 5_000.0)), t_end=0.05
        )
        before = _at(s, ref_params, 0.019999)
        boundary = _at(s, ref_params, 0.02)
        assert before.p_load == 10_000.0
        assert boundary.p_load == 99_000.0
        assert boundary.q_load == 5_000.0

    def test_dark_step_produces_zero_pv(self, ref_params):
        """g = 0 yields p_pv = 0 without raising."""
        s = make_scenario(irradiance=((0.0, 0.0, 25.0),))
        r = _at(s, ref_params, 0.0)
        assert r.p_pv == 0.0 and r.p_inv == 0.0

    def test_zero_exchange_reports_unity_pf(self, ref_params):
        """p_grid = q_grid = 0 is reported as pf 1 by convention."""
        s = make_scenario(
            irradiance=((0.0, 0.0, 25.0),), load=((0.0, 0.0, 0.0),)
        )
        r = _at(s, ref_params, 0.0)
        assert r.p_grid == 0.0 and r.q_grid == 0.0
        assert r.pf_grid == 1.0


# ======================================================================
# Full runs
# ======================================================================


class TestRun:
    """Whole-grid simulation."""

    def test_record_count(self):
        """floor(t_end/dt) + 1 records, times on the dt grid."""
        series = run(make_scenario(t_end=0.2, dt=0.01))
        assert len(series.records) == 21
        assert series.records[0].t == 0.0
        assert series.records[-1].t == pytest.approx(0.2)

    def test_zero_horizon(self):
        """t_end = 0 produces exactly one record."""
        series = run(make_scenario(t_end=0.0))
        assert len(series.records) == 1

    def test_every_record_balances(self):
        """The balance oracle holds at every step of a stepped scenario."""
        series = run(
            make_scenario(
                irradiance=((0.0, 1000.0, 25.0), (0.03, 400.0, 30.0)),
                load=((0.0, 50_000.0, 100_000.0), (0.02, 120_000.0, -30_000.0)),
                compensator=FixedCapacitor(q_rated=80_000.0, v_rated=230.0),
            )
        )
        for r in series.records:
            _assert_balanced(r)

    def test_profile_steps_show_up_on_grid(self):
        """Records before/after a boundary reflect the segment change."""
        series = run(
            make_scenario(
                irradiance=((0.0, 1000.0, 25.0), (0.03, 200.0, 25.0)), t_end=0.05
            )
        )
        by_t = {round(r.t, 6): r for r in series.records}
        assert by_t[0.02].p_pv > by_t[0.03].p_pv
        assert by_t[0.03].p_pv == by_t[0.04].p_pv

    def test_run_is_deterministic(self):
        """Two runs of equal scenarios produce identical record tuples."""
        a = run(make_scenario(scenario_id="same"))
        b = run(make_scenario(scenario_id="same"))
        assert a == b

    def test_mpp_consistent_between_step_and_run(self, ref_params):
        """run() and the columns at one instant agree at a shared instant."""
        s = make_scenario()
        series = run(s)
        single = _at(s, ref_params, 0.02)
        match = [r for r in series.records if r.t == 0.02][0]
        assert match == single

    def test_uncalibratable_module_raises(self):
        """A datasheet with no single-diode solution fails as InfeasibleSpec, its
        message led by the scenario id."""
        impossible = PVModuleSpec(p_mp=280.0, v_mp=35.9, i_mp=7.8, v_oc=36.3, i_sc=7.84)
        s = Scenario(
            grid=GridSpec(v_phase=230.0, f=50.0, v_dc=700.0),
            array=PVArraySpec(module=impossible, n_series=10, n_parallel=47),
            inverter_efficiency=0.997,
            irradiance=[[0.0], [1000.0], [25.0]],
            load=[[0.0], [1e5], [1e5]],
            compensator=NoCompensator(),
            t_end=0.02,
            dt=0.01,
        )
        with pytest.raises(
            InfeasibleSpec, match=f"^module calibration failed for scenario {s.scenario_id!r}: "
        ):
            run(s)

    def test_calibration_nonconvergence_keeps_its_class(self, monkeypatch):
        """A solver failure inside calibration stays a NonConvergence, led by the
        scenario id and giving each candidate ideality's reason."""

        brentq = pv_model.brentq

        def failing(f, a, b, **kwargs):
            return brentq(f, a, b, **kwargs, max_iter=1 if kwargs.get("xtol") == 1e-14 else 100)

        # Calibrate afresh, past the memo, with the search for the r_s that meets the
        # maximum-power condition (the one run at xtol 1e-14) out of budget.
        monkeypatch.setattr(pv_model, "extract_single_diode_params",
                            pv_model.extract_single_diode_params.__wrapped__)
        monkeypatch.setattr(pv_model, "brentq", failing)
        s = make_scenario()
        out_of_budget = r"brentq: no root to within 1e-14 \+ 8\.88178e-16\*\|x\| in 1 iterations"
        with pytest.raises(NonConvergence, match=(
            f"^module calibration failed for scenario {s.scenario_id!r}: no ideality "
            "calibrates the datasheet: ideality 1.3: no physical shunt resistance satisfies "
            f"the maximum-power condition; ideality 1: {out_of_budget}; "
            f"ideality 1.05: {out_of_budget}; "
        )):
            run(s)

    def test_records_match_step_at_every_instant(self, ref_params):
        """Property: each record of a run equals the columns at its one instant, 50 draws."""
        rng = np.random.default_rng(47)
        for i in range(50):
            s = random_scenario(rng, i)
            series = run(s)
            for k, t in enumerate(s.times()):
                assert series.records[k] == _at(s, ref_params, t), f"draw {i}, t={t}"

    def test_integer_profile_values_run_as_floats(self):
        """Profiles built from Python ints, one beyond int64, give the float results."""
        as_int = run(make_scenario(irradiance=((0, 1000, 25),), load=((0, 10**20, -5),)))
        as_float = run(make_scenario(irradiance=((0.0, 1e3, 25.0),), load=((0.0, 1e20, -5.0),)))
        assert as_int == as_float

    def test_random_scenarios_balance(self):
        """Property: every record of 100 random scenarios balances."""
        rng = np.random.default_rng(31)
        for i in range(100):
            series = run(random_scenario(rng, i))
            assert len(series.records) == 6
            for r in series.records:
                _assert_balanced(r)
                assert 0.0 <= r.pf_grid <= 1.0


# ======================================================================
# Bundled reference cases
# ======================================================================


class TestBundledCases:
    """End-to-end behavior of the shipped reference scenarios."""

    def test_case2_real_power_swing(self):
        """Grid import collapses once irradiance steps to full sun.

        Before the 0.1 s step the array runs at half sun and the grid
        covers roughly half the 100 kW load; after it, PV carries nearly
        everything and the residual import stays below 6 kW.
        """
        from pvgrid.scenario_io import bundled_scenario_text, parse_scenario

        series = run(parse_scenario(bundled_scenario_text("case2")))
        before = [r for r in series.records if r.t < 0.1]
        after = [r for r in series.records if r.t >= 0.1]
        assert before and after
        for r in before:
            assert 45_000.0 <= r.p_grid <= 60_000.0, f"t={r.t}: p_grid {r.p_grid:.0f} W"
        for r in after:
            assert abs(r.p_grid) <= 6_000.0, f"t={r.t}: p_grid {r.p_grid:.0f} W"

    def test_case1_pf_recovers_after_step(self):
        """Case 1 grid pf is poor under PV surplus and both flows reverse-free."""
        from pvgrid.scenario_io import bundled_scenario_text, parse_scenario

        series = run(parse_scenario(bundled_scenario_text("case1")))
        for r in series.records:
            _assert_balanced(r)
            assert r.q_grid == 100_000.0  # uncompensated load Q rides the grid


# ======================================================================
# Run comparison
# ======================================================================


class TestCompareRuns:
    """Grid-Q dominance between two runs."""

    def test_self_comparison_is_null(self):
        """A run against itself has zero deltas and no winner."""
        series = run(make_scenario(scenario_id="base"))
        report = compare_runs(series, series)
        assert all(d == 0.0 for d in report.delta_q_grid)
        assert all(d == 0.0 for d in report.delta_pf_grid)
        assert report.winner is None
        assert report.max_abs_q_grid_a == report.max_abs_q_grid_b

    def test_statcom_beats_uncompensated(self):
        """Full compensation wins against none on a reactive load."""
        load = ((0.0, 100_000.0, 150_000.0),)
        none_run = run(make_scenario(load=load, scenario_id="plain"))
        stat_run = run(
            make_scenario(
                load=load,
                compensator=Statcom(q_max=200_000.0),
                scenario_id="statcom",
            )
        )
        report = compare_runs(none_run, stat_run)
        assert report.winner == "statcom"
        assert report.max_abs_q_grid_b == 0.0
        assert report.max_abs_q_grid_a == 150_000.0
        assert all(d == -150_000.0 for d in report.delta_q_grid)

    def test_pf_deltas_reflect_improvement(self):
        """Compensation lifts pf_grid from 0.4472 toward unity."""
        load = ((0.0, 50_000.0, 100_000.0),)
        none_run = run(make_scenario(load=load, scenario_id="plain"))
        stat_run = run(
            make_scenario(
                load=load, compensator=Statcom(q_max=150_000.0), scenario_id="statcom"
            )
        )
        report = compare_runs(none_run, stat_run)
        assert all(d > 0.5 for d in report.delta_pf_grid), report.delta_pf_grid

    def test_mismatched_grids_rejected(self):
        """Different time grids cannot be compared."""
        a = run(make_scenario(t_end=0.05))
        b = run(make_scenario(t_end=0.03))
        with pytest.raises(GridMismatch):
            compare_runs(a, b)

    def test_crossing_runs_have_no_winner(self):
        """If each run wins somewhere, the verdict is None."""
        load_a = ((0.0, 1e5, 50_000.0), (0.03, 1e5, 0.0))
        load_b = ((0.0, 1e5, 0.0), (0.03, 1e5, 50_000.0))
        a = run(make_scenario(load=load_a, scenario_id="a"))
        b = run(make_scenario(load=load_b, scenario_id="b"))
        report = compare_runs(a, b)
        assert report.winner is None

    def test_deltas_are_read_only_float_columns(self):
        """Both deltas are read-only float64 arrays, bit for bit b minus a."""
        a = run(make_scenario(load=((0.0, 1e5, 50_000.0), (0.03, 1e5, -0.0)), scenario_id="a"))
        b = run(make_scenario(compensator=Statcom(q_max=60_000.0), scenario_id="b"))
        report = compare_runs(a, b)
        for name in ("q_grid", "pf_grid"):
            delta = getattr(report, f"delta_{name}")
            assert isinstance(delta, np.ndarray) and delta.dtype == np.float64
            assert delta.tobytes() == (b.columns[name] - a.columns[name]).tobytes()
            assert not delta.flags.writeable
            with pytest.raises(ValueError):
                delta[0] = 1.0

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(data=st.data())
    def test_compare_json_writes_the_deltas_as_lists(self, data):
        """Property: ``compare --json`` is ``json.dumps(indent=2)`` of the report
        with its deltas as lists, over short runs whose q_grid and pf_grid hold
        signed zeros and subnormals."""
        tiny = [0.0, -0.0, 5e-324, 1e-310, sys.float_info.min / 3]
        q = st.one_of(st.sampled_from(tiny + [-x for x in tiny]), st.floats(-1e300, 1e300))
        pf = st.one_of(st.sampled_from(tiny + [1.0]), st.floats(0.0, 1.0))
        n = data.draw(st.integers(1, 6))
        runs = {}
        for name in ("a.json", "b.json"):
            columns = {column: np.zeros(n) for column in COLUMNS}
            columns.update(t=np.arange(n) * 0.5,
                           q_grid=data.draw(st.lists(q, min_size=n, max_size=n)),
                           pf_grid=data.draw(st.lists(pf, min_size=n, max_size=n)))
            runs[name] = TimeSeries(name[0], columns)
        report = compare_runs(runs["a.json"], runs["b.json"])
        lists = {name: getattr(report, name).tolist() for name in ("delta_q_grid", "delta_pf_grid")}
        want = json.dumps({**vars(report), **lists}, indent=2) + "\n"
        out = io.StringIO()
        with patch.object(cli, "_run_document", lambda path: (None, runs[path])), \
                contextlib.redirect_stdout(out):
            assert cli.main(["compare", "a.json", "b.json", "--json"]) == 0
        assert out.getvalue() == want

    @pytest.mark.parametrize(
        ("change", "message"),
        [
            ({"scenario_a": 5}, "scenario_a must be a non-empty printable string, got 5"),
            ({"scenario_b": ""}, "scenario_b must be a non-empty printable string, got ''"),
            ({"max_abs_q_grid_a": math.nan}, "max_abs_q_grid_a must be finite, got nan"),
            ({"max_abs_q_grid_b": True}, "max_abs_q_grid_b must be finite, got True"),
            ({"winner": 3}, "winner must be one of str, None, got int"),
            ({"delta_q_grid": (0.0, math.inf, 0.0, 0.0, 0.0, 0.0)},
             "comparison step 1: delta_q_grid must be finite, got inf"),
            ({"delta_pf_grid": (0.0, 0.0, 0.0, 0.0, 0.0, "0")},
             "comparison step 5: delta_pf_grid must be finite, got '0'"),
            ({"delta_pf_grid": (0.0,)}, "comparison must hold 2 floats per step"),
            ({"delta_q_grid": None}, "comparison must hold 2 floats per step"),
            (dict(zip(("scenario_a", "scenario_b", "delta_q_grid", "delta_pf_grid",
                       "max_abs_q_grid_a", "max_abs_q_grid_b", "winner"),
                      (5, None, "ab", (), math.nan, "x", 3))),
             "scenario_a must be a non-empty printable string, got 5"),
        ],
        ids=["id-type", "empty-id", "nan-maximum", "bool-maximum", "winner-type",
             "infinite-delta", "str-delta", "unequal-deltas", "no-deltas", "every-field"],
    )
    def test_report_fields_are_judged(self, change, message):
        """A report built directly judges every field by its rule, in field order
        but for the two delta columns, which the column rule judges last, naming
        the first failing step."""
        report = compare_runs(run(make_scenario(scenario_id="a")),
                              run(make_scenario(scenario_id="b")))
        with pytest.raises(InvalidValue, match=f"^{re.escape(message)}$"):
            replace(report, **change)


# ======================================================================
# Output containers
# ======================================================================


class TestContainers:
    """Record and series invariants."""

    @pytest.mark.parametrize(
        ("columns", "missing"),
        [(None, "t"), ({}, "t"), ({"t": [0.0]}, "p_pv"), ([("t", [0.0])], "t"),
         ({name: [0.0] for name in COLUMNS if name != "v_dc"}, "v_dc")],
        ids=["None", "empty", "t-only", "pairs", "no-v_dc"],
    )
    def test_columns_must_map_every_column(self, columns, missing):
        """``columns`` that is no mapping, or lacks a column, is an InvalidValue
        naming ``columns`` and the first missing column, not a TypeError or a
        KeyError."""
        message = f"columns must map every column to its values, missing {missing!r}"
        with pytest.raises(InvalidValue, match=f"^{re.escape(message)}$"):
            TimeSeries("x", columns)

    def test_series_requires_records(self):
        """Empty columns are rejected."""
        with pytest.raises(InvalidValue):
            TimeSeries(scenario_id="x", columns={name: [] for name in COLUMNS})

    def test_series_columns_are_read_only(self):
        """The series keeps read-only float copies of its columns in a read-only
        mapping: a column cannot be replaced or written into, and a change to
        the arrays it was built from does not reach it."""
        given = {name: col.copy() for name, col in run(make_scenario()).columns.items()}
        series = TimeSeries(scenario_id="x", columns=given)
        with pytest.raises(TypeError):
            series.columns["t"] = np.array([])
        with pytest.raises(TypeError):
            del series.columns["t"]
        with pytest.raises(ValueError):
            series.columns["t"][0] = 1.0
        given["q_grid"][:] = 123.0
        assert series.columns["q_grid"].tolist() != given["q_grid"].tolist()
        assert all(column.dtype == np.float64 for column in series.columns.values())
        with pytest.raises(ValueError):  # columns of unequal length
            TimeSeries(scenario_id="x", columns=dict(given, p_pv=given["p_pv"][:1]))

    def test_series_requires_increasing_times(self):
        """Record times must be strictly increasing."""
        first = {name: col[[0, 0]] for name, col in run(make_scenario()).columns.items()}
        with pytest.raises(InvalidValue):
            TimeSeries(scenario_id="x", columns=first)

    def test_column_route_checks_the_record_invariants(self):
        """The series checks the record invariants on its columns, every value
        finite among them, naming the first record that breaks one; a record is
        a view of checked columns and has no check of its own."""
        good = run(make_scenario()).columns
        for name, values, message in (
            ("t", [], "at least one record"),
            ("t", [0.0, 0.02, 0.01, 0.03, 0.04, 0.05], "t must be after 0.02, got 0.01"),
            ("t", [-0.01, 0.0, 0.01, 0.02, 0.03, 0.04], "non-negative, got -0.01"),
            ("pf_grid", [1.0, 1.0, math.nan, 1.0, 1.0, 1.0], r"\[0, 1\], got nan"),
            ("t", [0.0, 0.01, 0.02, 0.03, 0.04, math.inf],
             r"^time series record 5: t must be finite and non-negative, got inf$"),
            ("p_pv", [0.0, 0.0, math.nan, math.inf, 0.0, 0.0],
             r"^time series record 2: p_pv must be finite, got nan$"),
            ("q_grid", [0.0, 0.0, 0.0, 0.0, -math.inf, 0.0],
             r"^time series record 4: q_grid must be finite, got -inf$"),
            ("v_dc", [700.0] * 5 + [math.nan], r"^time series record 5: v_dc must be finite"),
        ):
            columns = dict(good, **{name: np.array(values)})
            if not values:
                columns = {key: np.array([]) for key in good}
            with pytest.raises(InvalidValue, match=message):
                TimeSeries(scenario_id="x", columns=columns)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        ("name", "values", "message"),
        [
            ("t", ["0", "0.01", "0.02", "0.03", "0.04", "0.05"],
             "time series record 0: t must be finite and non-negative, got '0'"),
            ("t", [False, True, 2, 3, 4, 5],
             "time series record 0: t must be finite and non-negative, got False"),
            ("p_pv", np.zeros(6, dtype=bool),
             "time series record 0: p_pv must be finite, got False"),
            ("q_grid", [0.0, 0.0, np.True_, 0.0, 0.0, 0.0],
             "time series record 2: q_grid must be finite, got np.True_"),
        ],
        ids=["str-times", "bool-times", "bool-array", "numpy-bool"],
    )
    def test_column_entries_must_be_numbers(self, name, values, message):
        """A bool or a numeric string in a column, which a float array would read
        as a number, is an InvalidValue naming the column and the entry."""
        columns = dict(run(make_scenario()).columns, **{name: values})
        with pytest.raises(InvalidValue, match=f"^{re.escape(message)}$"):
            TimeSeries(scenario_id="x", columns=columns)

    def test_records_view_the_columns(self):
        """``records`` holds one record per row of the columns, in order; it is
        read-only, and a series built again from the columns is equal."""
        series = run(make_scenario(load=((0.0, 1e5, 1e5), (0.02, 5e4, -2e4))))
        rows = np.column_stack(tuple(series.columns.values())).tolist()
        assert series.records == tuple(PowerFlowRecord(*row) for row in rows)
        assert [r.q_load for r in series.records] == series.columns["q_load"].tolist()
        assert TimeSeries(series.scenario_id, series.columns) == series
        assert len(series) == len(series.records) == 6
        with pytest.raises(AttributeError):
            series.records = ()
