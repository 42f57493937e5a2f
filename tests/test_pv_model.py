"""Tests for pvgrid.pv_model — calibration, evaluation, sweep, and MPP."""

from __future__ import annotations

import contextlib
import math
import re
import sys
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvgrid import pv_model
from pvgrid.errors import DarkArray, InfeasibleSpec, InvalidValue, NonConvergence
from pvgrid.numerics import newton_bisect_array
from pvgrid.pv_model import (
    DATASHEET_TOL,
    G_MAX,
    MAX_POINTS,
    EnvCondition,
    IVCurve,
    MPPResult,
    PVArraySpec,
    PVModuleSpec,
    SingleDiodeParams,
    adjust_params,
    array_iv_sweep,
    extract_single_diode_params,
    _current_within,
    _curve_point,
    _fit_at_ideality,
    _module_currents,
    _module_mpp,
    module_current,
    module_voc,
    array_mpp,
    mpp,
    thermal_voltage,
)

from conftest import (
    DATASHEETS, OUT_OF_BUDGET_AT_FIRST, OUT_OF_BUDGET_ITERATIONS, REF_MODULE, make_scenario,
)


def _bisect_current(params: SingleDiodeParams, v: float) -> float:
    """Independent oracle: plain bisection on the implicit diode residual."""

    def residual(i: float) -> float:
        x = v + i * params.r_s
        return params.i_ph - params.i_0 * math.expm1(x / params.a) - x / params.r_sh - i

    lo, hi = -2.0 * params.i_ph - 1.0, params.i_ph + 1.0
    assert residual(lo) > 0.0 > residual(hi), "oracle bracket invalid"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _diode_residual(params: SingleDiodeParams, v: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Independent residual f(v, i) of the diode equation at each pair of ``v``
    and ``i``, with numpy's expm1 and no cap: an overflowing exponential is inf."""
    x = v + i * params.r_s
    with np.errstate(over="ignore"):
        return params.i_ph - params.i_0 * np.expm1(x / params.a) - x / params.r_sh - i


def _lambertw_of_exp(log_x: np.ndarray) -> np.ndarray:
    """W(exp(log_x)), the principal branch, also where exp(log_x) overflows.

    There W starts at L - ln L + ln L/L with L = log_x, and Newton's method
    on w + ln w = L refines it.
    """
    lambertw = pytest.importorskip("scipy.special").lambertw
    w = np.empty_like(log_x)
    fits = log_x < 700.0
    w[fits] = lambertw(np.exp(log_x[fits])).real
    big = log_x[~fits]
    x = big - np.log(big) + np.log(big) / big
    for _ in range(4):
        x -= (x + np.log(x) - big) / (1.0 + 1.0 / x)
    w[~fits] = x
    return w


def _oracle_current(params: SingleDiodeParams, v) -> np.ndarray:
    """Independent oracle: the explicit Lambert-W module current at each voltage
    of ``v`` (Jain & Kapoor, Sol. Energy Mater. Sol. Cells 81, 2004; pvlib's
    ``singlediode(method="lambertw")``)."""
    i_ph, i_0, r_s, r_sh, a = params.i_ph, params.i_0, params.r_s, params.r_sh, params.a
    v = np.atleast_1d(np.asarray(v, dtype=float))
    r = r_s + r_sh
    log_theta = math.log(r_s * r_sh * i_0 / (a * r)) + r_sh * (r_s * (i_ph + i_0) + v) / (a * r)
    return (r_sh * (i_ph + i_0) - v) / r - (a / r_s) * _lambertw_of_exp(log_theta)


def _oracle_voc(params: SingleDiodeParams) -> float:
    """Independent oracle: the root of the Lambert-W current's I = 0."""
    brentq = pytest.importorskip("scipy.optimize").brentq
    v_hi = params.a * math.log1p(params.i_ph / params.i_0)
    return brentq(lambda v: _oracle_current(params, v).item(), 0.0, v_hi, xtol=1e-14)


def _oracle_mpp(params: SingleDiodeParams) -> tuple[float, float]:
    """Independent oracle: ``(v, p)`` at the maximum of the Lambert-W P(V)."""
    minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar
    v_oc = _oracle_voc(params)
    best = minimize_scalar(lambda v: -v * _oracle_current(params, v).item(), bounds=(0.0, v_oc),
                           method="bounded", options={"xatol": 1e-12 * v_oc})
    return float(best.x), -float(best.fun)


def _current_tol(params: SingleDiodeParams) -> float:
    """How far a solved current may be from the oracle: twice the solve's
    residual tolerance 1e-9*max(i_ph, 1), as |dresidual/di| >= 1."""
    return 2e-9 * max(params.i_ph, 1.0)


def _assert_sweep_agrees(array: PVArraySpec, params: SingleDiodeParams, env: EnvCondition,
                         n_points: int) -> None:
    """The module curve of the array sweep is an even grid from 0 to the oracle's
    v_oc, each current within the tolerance of the oracle at its voltage."""
    adj = adjust_params(params, array.module, env)
    curve = array_iv_sweep(array, params, env, n_points)
    v_m, v_oc = curve.v / array.n_series, _oracle_voc(adj)
    assert np.abs(v_m - np.linspace(0.0, v_oc, n_points)).max() <= 1e-11 * v_oc
    i_m = curve.i / array.n_parallel
    assert np.abs(i_m - _oracle_current(adj, v_m)).max() <= _current_tol(adj)


def _assert_mpp_agrees(v_m: float, i_m: float, adj: SingleDiodeParams) -> None:
    """A module maximum power point ``(v_m, i_m)`` lies on the oracle's curve,
    within 1e-6 of v_oc of the oracle's maximum and as high."""
    v_star, p_star = _oracle_mpp(adj)
    tol, v_oc = _current_tol(adj), _oracle_voc(adj)
    assert abs(i_m - _oracle_current(adj, v_m).item()) <= tol
    assert abs(v_m - v_star) <= 1e-6 * v_oc
    assert abs(v_m * i_m - p_star) <= tol * v_oc


def _dense_mpp(params: SingleDiodeParams, n: int = 10_000) -> tuple[float, float]:
    """Independent oracle: brute-force P-V maximum of the Lambert-W current on a
    dense module grid from 0 to the oracle's v_oc."""
    v = np.linspace(0.0, _oracle_voc(params), n)
    p = v * _oracle_current(params, v)
    k = int(p.argmax())
    return float(v[k]), float(p[k])


# ======================================================================
# Specs and invariants
# ======================================================================


class TestSpecs:
    """Constructor invariants of the datasheet and parameter types."""

    def test_reference_module_valid(self):
        """The 213.15 W reference datasheet satisfies every invariant."""
        assert REF_MODULE.p_mp == 213.15
        assert REF_MODULE.n_cells == 60

    def test_vmp_must_be_below_voc(self):
        """v_mp >= v_oc is rejected."""
        with pytest.raises(ValueError):
            PVModuleSpec(p_mp=213.15, v_mp=36.3, i_mp=7.35, v_oc=36.3, i_sc=7.84)

    def test_imp_must_be_below_isc(self):
        """i_mp >= i_sc is rejected."""
        with pytest.raises(ValueError):
            PVModuleSpec(p_mp=213.15, v_mp=29.0, i_mp=7.84, v_oc=36.3, i_sc=7.84)

    def test_power_consistency_enforced(self):
        """p_mp must match v_mp * i_mp within 0.5%, the tolerance of the STC
        check: a p_mp 0.87% off could never calibrate, as the fit puts the
        maximum at v_mp*i_mp, and is rejected naming p_mp."""
        with pytest.raises(ValueError):
            PVModuleSpec(p_mp=230.0, v_mp=29.0, i_mp=7.35, v_oc=36.3, i_sc=7.84)
        with pytest.raises(InvalidValue, match=re.escape(
            "p_mp 215.0 differs from v_mp*i_mp 213.14999999999998 by more than 0.5%"
        )):
            PVModuleSpec(p_mp=215.0, v_mp=29.0, i_mp=7.35, v_oc=36.3, i_sc=7.84)
        PVModuleSpec(p_mp=213.15 * 1.005, v_mp=29.0, i_mp=7.35, v_oc=36.3, i_sc=7.84)

    def test_coefficient_signs_enforced(self):
        """alpha_isc must be positive and beta_voc negative."""
        with pytest.raises(ValueError):
            PVModuleSpec(
                p_mp=213.15, v_mp=29.0, i_mp=7.35, v_oc=36.3, i_sc=7.84, alpha_isc=-1e-3
            )
        with pytest.raises(ValueError):
            PVModuleSpec(
                p_mp=213.15, v_mp=29.0, i_mp=7.35, v_oc=36.3, i_sc=7.84, beta_voc=1e-3
            )

    def test_array_counts_positive(self):
        """Zero series or parallel counts are rejected, and so is a count that is
        not an integer (a bool included), in the array and in the module's cells;
        a numpy integer is an integer."""
        with pytest.raises(ValueError):
            PVArraySpec(module=REF_MODULE, n_series=0, n_parallel=47)
        module = dict(p_mp=213.15, v_mp=29.0, i_mp=7.35, v_oc=36.3, i_sc=7.84)
        for build, message in [
            (lambda: PVArraySpec(REF_MODULE, 10.5, 47), "n_series must be an integer, got 10.5"),
            (lambda: PVArraySpec(REF_MODULE, 10, np.float64(47.0)),
             "n_parallel must be an integer, got np.float64(47.0)"),
            (lambda: PVArraySpec(REF_MODULE, True, 47),
             "n_series must be finite and at least 1, got True"),
            (lambda: PVArraySpec(REF_MODULE, None, 47),
             "n_series must be finite and at least 1, got None"),
            (lambda: PVModuleSpec(**module, n_cells=60.5), "n_cells must be an integer, got 60.5"),
            (lambda: PVModuleSpec(**module, n_cells=60.0), "n_cells must be an integer, got 60.0"),
        ]:
            with pytest.raises(InvalidValue, match=f"^{re.escape(message)}$"):
                build()
        assert PVArraySpec(REF_MODULE, np.int64(10), 47).n_series == 10
        assert PVModuleSpec(**module, n_cells=np.int32(72)).n_cells == 72

    def test_array_rated_power_must_be_a_float(self):
        """Counts whose rated power n_series*n_parallel*p_mp overflows are rejected;
        a count past the float range is named as the count, since the fields are
        judged before their product is formed."""
        with pytest.raises(ValueError, match="array rated power"):
            PVArraySpec(module=REF_MODULE, n_series=10**300, n_parallel=10**300)
        message = f"n_series must be finite and at least 1, got {10**400}"
        with pytest.raises(InvalidValue, match=f"^{re.escape(message)}$"):
            PVArraySpec(module=REF_MODULE, n_series=10**400, n_parallel=1)
        assert PVArraySpec(module=REF_MODULE, n_series=10**300, n_parallel=1).n_series == 10**300

    def test_array_ratings_scale(self, ref_params):
        """The array's STC curve runs from n_parallel*i_sc at 0 V to 0 A at
        n_series*v_oc: the module ratings times the counts."""
        arr = PVArraySpec(module=REF_MODULE, n_series=10, n_parallel=47)
        curve = array_iv_sweep(arr, ref_params, EnvCondition(g=1000.0, t=25.0), 3)
        assert curve.v[-1] == pytest.approx(10 * 36.3, rel=1e-6)
        assert curve.i[0] == pytest.approx(47 * 7.84, rel=1e-6)
        assert abs(curve.i[-1]) < 47 * 1e-6

    def test_params_shunt_floor(self):
        """r_sh below 10x r_s is unphysical and rejected."""
        with pytest.raises(ValueError):
            SingleDiodeParams(
                i_ph=8.0, i_0=1e-9, n_ideality=1.0, r_s=0.5, r_sh=4.0, a=1.5
            )

    def test_env_bounds(self):
        """Negative irradiance and out-of-range temperatures are rejected."""
        with pytest.raises(ValueError):
            EnvCondition(g=-1.0, t=25.0)
        with pytest.raises(ValueError):
            EnvCondition(g=1000.0, t=95.0)

    @pytest.mark.parametrize("t", ["25", None])
    def test_cell_temperature_must_be_a_number(self, t):
        """A cell temperature that is not a number is an InvalidValue naming it."""
        with pytest.raises(InvalidValue, match=re.escape(
            f"t_cell must be finite and in [-40, 90] °C, got {t!r}"
        )):
            EnvCondition(1000.0, t)

    def test_mpp_result_derives_its_power(self):
        """MPPResult computes p_mp as exactly v_mp * i_mp, takes no p_mp
        argument, and rejects a point whose voltage, current or power is not
        finite and positive, naming the first such field."""
        peak = MPPResult(v_mp=29.1, i_mp=7.3)
        assert peak.p_mp == 29.1 * 7.3
        assert list(asdict(peak)) == ["v_mp", "i_mp", "p_mp"]
        with pytest.raises(TypeError):
            MPPResult(v_mp=29.0, i_mp=7.35, p_mp=213.0)
        with pytest.raises(InvalidValue, match=r"^v_mp must be finite and positive, got 0\.0$"):
            MPPResult(v_mp=0.0, i_mp=7.35)
        with pytest.raises(InvalidValue, match=r"^p_mp must be finite and positive, got inf$"):
            MPPResult(v_mp=1e300, i_mp=1e300)

    def test_thermal_voltage_at_25c(self):
        """kT/q at 25 °C is 25.693 mV."""
        vt = thermal_voltage(25.0)
        assert abs(vt - 0.025693) < 1e-6, f"kT/q(25°C) = {vt:.6f} V"


# ======================================================================
# Calibration
# ======================================================================


class TestCalibration:
    """Five-parameter extraction from datasheet ratings."""

    def test_parameters_physical(self, ref_params):
        """All five parameters are positive with a sane shunt/series split."""
        p = ref_params
        assert p.i_ph > 0 and p.i_0 > 0 and p.r_s > 0 and p.r_sh > 0
        assert p.r_sh >= 10.0 * p.r_s
        assert p.n_ideality in (1.0, 1.05, 0.95, 1.1, 0.9, 1.15, 1.2, 1.25, 1.3)

    def test_short_circuit_reproduced(self, ref_params):
        """I(0) hits the datasheet i_sc to solver precision."""
        i0 = module_current(ref_params, 0.0)
        assert abs(i0 - REF_MODULE.i_sc) < 1e-7, f"I(0) = {i0!r}"

    def test_open_circuit_reproduced(self, ref_params):
        """I(v_oc) vanishes and module_voc returns the datasheet v_oc."""
        assert abs(module_current(ref_params, REF_MODULE.v_oc)) < 1e-6
        voc = module_voc(ref_params)
        assert abs(voc - REF_MODULE.v_oc) < 1e-6 * REF_MODULE.v_oc

    def test_rated_point_on_curve(self, ref_params):
        """I(v_mp) equals the rated i_mp: the MPP lies on the curve."""
        i = module_current(ref_params, REF_MODULE.v_mp)
        assert abs(i - REF_MODULE.i_mp) < 1e-6, f"I(v_mp) = {i!r}"

    def test_rated_point_is_the_maximum(self, ref_params):
        """Dense-sweep oracle: the P-V maximum sits at the rated point."""
        v_star, p_star = _dense_mpp(ref_params, n=10_000)
        assert abs(p_star - REF_MODULE.p_mp) <= 0.005 * REF_MODULE.p_mp, (
            f"oracle peak {p_star:.3f} W vs rated {REF_MODULE.p_mp} W"
        )
        assert abs(v_star - REF_MODULE.v_mp) <= 0.005 * REF_MODULE.v_mp, (
            f"oracle peak at {v_star:.3f} V vs rated {REF_MODULE.v_mp} V"
        )

    def test_singular_system_is_infeasible_for_that_ideality(self, monkeypatch, ref_params):
        """At ideality 1e308 the diode voltage is infinite and the linear system
        singular; that ideality is infeasible, and put first in the idealities
        tried, the next one calibrates."""
        with pytest.raises(InfeasibleSpec, match="^ideality 1e[+]308: singular calibration system$"):
            _fit_at_ideality(REF_MODULE, 1e308)
        monkeypatch.setattr(pv_model, "_IDEALITIES", (1e308, *pv_model._IDEALITIES))
        assert extract_single_diode_params.__wrapped__(REF_MODULE) == ref_params

    def test_reference_module_keeps_the_first_ideality_that_fits(self):
        """The reference datasheet calibrates at the first of the idealities tried
        that fits it, not at the first one tried (1.3)."""
        params = extract_single_diode_params(REF_MODULE)
        assert params == _first_fit(REF_MODULE)
        assert params.n_ideality != pv_model._IDEALITIES[0]

    def test_square_curve_infeasible(self):
        """A near-unity fill factor admits no single-diode model at all; the one
        error gives every ideality tried, in order, with its reason."""
        impossible = PVModuleSpec(p_mp=280.0, v_mp=35.9, i_mp=7.8, v_oc=36.3, i_sc=7.84)
        with pytest.raises(InfeasibleSpec) as failure:
            extract_single_diode_params(impossible)
        message = str(failure.value)
        assert "\n" not in message
        tried = re.findall(r"ideality ([\d.]+): shunt resistance negative for every r_s", message)
        assert tried == ["1.3", "1", "1.05", "0.95", "1.1", "0.9", "1.15", "0.85", "1.2",
                         "0.8", "1.25", "0.75", "1.35", "1.4"]
        assert len(re.findall(r"ideality [\d.]+: ", message)) == 14

    @pytest.mark.parametrize(
        ("spec", "n_ideality", "reason"),
        [
            pytest.param(PVModuleSpec(p_mp=2500.0 * 7.35, v_mp=2500.0, i_mp=7.35, v_oc=3000.0,
                                      i_sc=7.84, n_cells=1),
                         1.3, "diode term exp(89819.4) overflows a double", id="overflow"),
            pytest.param(REF_MODULE, 1e308, "singular calibration system", id="singular"),
            pytest.param(REF_MODULE, 3.0, "shunt resistance negative for every r_s",
                         id="negative-shunt"),
            pytest.param(PVModuleSpec(p_mp=2.4, v_mp=22.5, i_mp=0.1067, v_oc=26.4, i_sc=0.2084,
                                      n_cells=36),
                         1.3, "fill factor implies r_s < 0", id="fill-factor"),
            pytest.param(REF_MODULE, 1.4,
                         "no physical shunt resistance satisfies the maximum-power condition",
                         id="no-slope-root"),
            pytest.param(PVModuleSpec(p_mp=2.4, v_mp=22.5, i_mp=0.1067, v_oc=26.4, i_sc=0.2084,
                                      n_cells=36),
                         0.25, "shunt resistance 200.7 is not at least 10x series resistance 20.64",
                         id="shunt-below-10x-series"),
        ],
    )
    def test_each_rejection_names_its_ideality_and_reason(self, spec, n_ideality, reason):
        """Every way a candidate ideality fails is one InfeasibleSpec, led by that
        ideality; a SingleDiodeParams check becomes the reason."""
        with pytest.raises(InfeasibleSpec) as failure:
            _fit_at_ideality(spec, n_ideality)
        assert str(failure.value) == f"ideality {n_ideality:g}: {reason}"

    @pytest.mark.parametrize(
        ("name", "factor", "missed"),
        [("i_ph", 1.01, r"I\(0\) = 7\.9\d* A misses i_sc = 7\.84 A"),
         ("i_0", 1.1, r"I\(v_oc\) = -0\.\d+ A misses 0"),
         ("r_s", 1.1, r"maximum power is not at the rated point: 210\.88\d* W at 29\.037\d* V "
                      r"fails the gradient criterion")],
    )
    def test_verification_names_the_condition_missed(
        self, monkeypatch, ref_params, name, factor, missed
    ):
        """Calibrated parameters with one of them scaled fail the STC check, which
        names the condition that missed: I(0) = i_sc, I(v_oc) = 0 or the rated MPP.
        With r_s scaled the rated point is no longer the maximum, and that is
        the reason given, not how far the maximum lies from the ratings."""

        def scaled(**fields):
            fields[name] *= factor
            return SingleDiodeParams(**fields)

        monkeypatch.setattr(pv_model, "SingleDiodeParams", scaled)
        with pytest.raises(InfeasibleSpec, match=f"^ideality {ref_params.n_ideality:g}: {missed}"):
            _fit_at_ideality(REF_MODULE, ref_params.n_ideality)

    def test_maximum_power_miss_names_the_rated_point(self, monkeypatch, ref_params):
        """A maximum power point off the rated one fails the STC check with the
        located and the rated point: here the curve at the rated diode voltage
        meets the gradient criterion (dP/dvd = 0) at 29 V and 7.2 A."""
        monkeypatch.setattr(pv_model, "_curve_point", lambda *args: (29.0, 7.2, 1.0, 1.0, 0.0))
        with pytest.raises(InfeasibleSpec) as failure:
            _fit_at_ideality(REF_MODULE, ref_params.n_ideality)
        assert str(failure.value) == (
            f"ideality {ref_params.n_ideality:g}: maximum power 208.8 W at 29 V misses the "
            "rated 213.15 W at 29 V by more than 0.5%"
        )

    def test_candidate_out_of_budget_gives_way_to_the_next(self, monkeypatch):
        """A candidate whose solve runs out of budget is that candidate's reason,
        and the search goes on to the ideality that calibrates."""
        spec = OUT_OF_BUDGET_AT_FIRST
        monkeypatch.setattr(pv_model, "_CURRENT_BUDGET", OUT_OF_BUDGET_ITERATIONS)
        with pytest.raises(NonConvergence):
            _fit_at_ideality(spec, 1.3)
        assert extract_single_diode_params.__wrapped__(spec).n_ideality == 1.35

    def test_no_candidate_after_one_out_of_budget_is_a_nonconvergence(self, monkeypatch):
        """When no candidate calibrates and one ran out of budget, the one error
        is a NonConvergence giving every candidate's reason in the order tried."""
        spec = OUT_OF_BUDGET_AT_FIRST
        monkeypatch.setattr(pv_model, "_CURRENT_BUDGET", OUT_OF_BUDGET_ITERATIONS)
        monkeypatch.setattr(pv_model, "_IDEALITIES", (1.3, 1.0, 1.05))
        with pytest.raises(NonConvergence) as failure:
            extract_single_diode_params.__wrapped__(spec)
        assert str(failure.value) == (
            "no ideality calibrates the datasheet: "
            "ideality 1.3: newton_bisect: no root to |f| <= 8.66332e-08 within 40 iterations; "
            "ideality 1: diode term exp(900.165) overflows a double; "
            "ideality 1.05: diode term exp(857.3) overflows a double"
        )

    def test_overflowing_diode_term_is_infeasible(self):
        """A v_oc far beyond its cell count overflows exp(); every ideality is
        then infeasible, which is reported as InfeasibleSpec, not OverflowError."""
        spec = PVModuleSpec(p_mp=2500.0 * 7.35, v_mp=2500.0, i_mp=7.35, v_oc=3000.0,
                            i_sc=7.84, n_cells=1)
        with pytest.raises(InfeasibleSpec, match="overflows"):
            extract_single_diode_params(spec)

    def test_calibration_is_memoized(self):
        """A datasheet calibrated again returns the very same parameters object."""
        spec = PVModuleSpec(p_mp=215.76, v_mp=29.2, i_mp=7.389, v_oc=36.5, i_sc=7.9)
        first = extract_single_diode_params(spec)
        assert extract_single_diode_params(spec) is first
        assert extract_single_diode_params(
            PVModuleSpec(p_mp=215.76, v_mp=29.2, i_mp=7.389, v_oc=36.5, i_sc=7.9)
        ) is first

    def test_failed_calibration_is_not_remembered(self):
        """An infeasible datasheet raises on every call; each call calibrates anew."""
        impossible = PVModuleSpec(p_mp=280.0, v_mp=35.9, i_mp=7.8, v_oc=36.3, i_sc=7.84)
        misses = extract_single_diode_params.cache_info().misses
        for _ in range(3):
            with pytest.raises(InfeasibleSpec):
                extract_single_diode_params(impossible)
        assert extract_single_diode_params.cache_info().misses == misses + 3

    def test_each_linear_system_solved_once_per_fit(self, monkeypatch, ref_params):
        """The calibration system at one r_s is solved once, though brentq
        evaluates its bracket ends again."""
        solved = []
        solve = np.linalg.solve

        def recording(a, b):
            solved.append((a.tobytes(), b.tobytes()))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording)
        assert _fit_at_ideality(REF_MODULE, ref_params.n_ideality) == ref_params
        assert len(solved) == len(set(solved)) > 10

    def test_random_datasheets_round_trip(self):
        """Property: feasible random datasheets are reproduced within 0.5%."""
        rng = np.random.default_rng(2024)
        feasible = 0
        for _ in range(40):
            v_oc = float(rng.uniform(20.0, 50.0))
            i_sc = float(rng.uniform(5.0, 12.0))
            v_mp = v_oc * float(rng.uniform(0.76, 0.84))
            i_mp = i_sc * float(rng.uniform(0.90, 0.95))
            spec = PVModuleSpec(
                p_mp=v_mp * i_mp, v_mp=v_mp, i_mp=i_mp, v_oc=v_oc, i_sc=i_sc
            )
            try:
                params = extract_single_diode_params(spec)
            except InfeasibleSpec:
                continue
            feasible += 1
            assert abs(module_current(params, 0.0) - i_sc) <= 0.005 * i_sc
            assert abs(module_voc(params) - v_oc) <= 0.005 * v_oc
            got = mpp(PVArraySpec(module=spec, n_series=1, n_parallel=1),
                      params, EnvCondition(g=1000.0, t=25.0))
            assert abs(got.p_mp - spec.p_mp) <= 0.005 * spec.p_mp, (
                f"round-trip p_mp {got.p_mp:.2f} vs {spec.p_mp:.2f}"
            )
        assert feasible >= 25, f"only {feasible}/40 random datasheets calibrated"


# The calibration property generator: a datasheet from its open-circuit voltage per
# cell, cell count, short-circuit current, the fractions of them at maximum power and
# p_mp up to 0.9% off v_mp*i_mp, so that about a third of the draws calibrate.
_DATASHEET_DRAWS = dict(
    v_cell=st.floats(0.2, 1.2), n_cells=st.integers(1, 200), i_sc=st.floats(0.01, 100.0),
    v_frac=st.floats(0.5, 0.99), i_frac=st.floats(0.7, 0.99), p_skew=st.floats(-0.009, 0.009),
)


def _drawn_datasheet(v_cell, n_cells, i_sc, v_frac, i_frac, p_skew) -> PVModuleSpec:
    """The datasheet of one draw of :data:`_DATASHEET_DRAWS`.

    Raises:
        InvalidValue: naming p_mp, where it is more than 0.5% off v_mp*i_mp.
    """
    v_oc = v_cell * n_cells
    v_mp, i_mp = v_oc * v_frac, i_sc * i_frac
    try:
        return PVModuleSpec(p_mp=v_mp * i_mp * (1.0 + p_skew), v_mp=v_mp, i_mp=i_mp, v_oc=v_oc,
                            i_sc=i_sc, n_cells=n_cells)
    except InvalidValue as exc:
        assert str(exc).startswith("p_mp ") and abs(p_skew) > 0.0049
        raise


def _first_fit(spec: PVModuleSpec) -> SingleDiodeParams | None:
    """What ``_fit_at_ideality`` returns at the first of ``_IDEALITIES`` at which it
    returns, or None if it raises at each."""
    for n_ideality in pv_model._IDEALITIES:
        with contextlib.suppress(InfeasibleSpec, NonConvergence):
            return _fit_at_ideality(spec, n_ideality)
    return None


@settings(derandomize=True, max_examples=200, deadline=None)
@given(**_DATASHEET_DRAWS)
def test_calibration_verifies_or_raises_a_calibration_error(**draw):
    """Property: a random datasheet either calibrates to parameters that meet the
    three STC conditions to 0.5%, or raises InfeasibleSpec or NonConvergence;
    one with p_mp more than 0.5% off v_mp*i_mp is rejected before, naming p_mp."""
    try:
        spec = _drawn_datasheet(**draw)
    except InvalidValue:
        return
    try:
        params = extract_single_diode_params(spec)
    except (InfeasibleSpec, NonConvergence):
        return
    assert abs(module_current(params, 0.0) - spec.i_sc) <= 0.005 * spec.i_sc
    assert abs(module_current(params, spec.v_oc)) <= 0.005 * spec.i_sc
    got = mpp(PVArraySpec(module=spec, n_series=1, n_parallel=1), params,
              EnvCondition(g=spec.g_stc, t=spec.t_stc))
    assert abs(got.p_mp - spec.p_mp) <= 0.005 * spec.p_mp
    assert abs(got.v_mp - spec.v_mp) <= 0.005 * spec.v_mp


@settings(derandomize=True, max_examples=200, deadline=None)
@given(**_DATASHEET_DRAWS)
def test_calibration_keeps_the_first_ideality_that_fits(**draw):
    """Property: calibration tries ``_IDEALITIES`` in order and keeps the first
    at which ``_fit_at_ideality`` returns, with exactly its parameters; a
    datasheet that none of them fits raises."""
    try:
        spec = _drawn_datasheet(**draw)
    except InvalidValue:
        return
    first = _first_fit(spec)
    if first is None:
        with pytest.raises((InfeasibleSpec, NonConvergence)):
            extract_single_diode_params(spec)
    else:
        assert extract_single_diode_params(spec) == first


def _fitted(spec: PVModuleSpec, n_ideality: float) -> SingleDiodeParams:
    """The parameters ``_fit_at_ideality`` fits at ``n_ideality``, whether or not
    they pass its STC check."""
    seen, check = [], pv_model._current_within
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pv_model, "_current_within",
                      lambda params, *args: seen.append(params) or check(params, *args))
        with contextlib.suppress(InfeasibleSpec):
            _fit_at_ideality(spec, n_ideality)
    return seen[0]


# Each real datasheet at the ideality it calibrates at, and the 91.6 kW one at
# 1.3, where only the exponent cap rejects I(v_oc), and at 1.35.
_STC_FITS = [(PVModuleSpec(*sheet[:5], n_cells=sheet[5]), None) for sheet in DATASHEETS] + [
    (OUT_OF_BUDGET_AT_FIRST, 1.3), (OUT_OF_BUDGET_AT_FIRST, 1.35)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(fit=st.sampled_from(_STC_FITS), k_ph=st.floats(0.98, 1.02), k_0=st.floats(0.9, 1.1),
       k_sh=st.floats(0.5, 2.0))
@example(fit=(OUT_OF_BUDGET_AT_FIRST, 1.3), k_ph=1.0, k_0=1.0, k_sh=1.0)
def test_explicit_stc_check_agrees_with_the_current_solve(fit, k_ph, k_0, k_sh):
    """Property: the STC current check that calibration makes without a solve,
    ``_current_within``, says |I(v) - c| <= 0.5% of i_sc exactly when the
    current that ``_module_currents`` solves for does, at I(0) = i_sc and at
    I(v_oc) = 0.  i_ph, i_0 and r_sh are scaled so that the current moves
    across that tolerance; a solved current within 1e-8 of i_sc of the
    boundary is not judged."""
    spec, n_ideality = fit
    params = (extract_single_diode_params(spec) if n_ideality is None
              else _fitted(spec, n_ideality))
    params = SingleDiodeParams(i_ph=params.i_ph * k_ph, i_0=params.i_0 * k_0,
                               n_ideality=params.n_ideality, r_s=params.r_s,
                               r_sh=params.r_sh * k_sh, a=params.a)
    d = DATASHEET_TOL * spec.i_sc
    for v, c in ((0.0, spec.i_sc), (spec.v_oc, 0.0)):
        miss = abs(float(_module_currents(params, np.array([v]))[0]) - c)
        if abs(miss - d) > 1e-8 * spec.i_sc:
            assert _current_within(params, v, c, d) == (miss <= d), (v, c, miss, d)


# A scale factor 1 ± 10**e, e in [-7, -1.7]: the rated point stays the maximum
# to the gradient criterion up to about 1 ± 1e-4, and leaves it beyond.
_NEAR_ONE = st.builds(lambda e, sign: 1.0 + sign * 10.0**e, st.floats(-7.0, -1.7),
                      st.sampled_from((-1.0, 1.0)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(fit=st.sampled_from(_STC_FITS), k_ph=_NEAR_ONE, k_0=_NEAR_ONE, k_sh=_NEAR_ONE)
@example(fit=(OUT_OF_BUDGET_AT_FIRST, 1.3), k_ph=1.0, k_0=1.0, k_sh=1.0)
@example(fit=_STC_FITS[0], k_ph=1.0, k_0=1.0, k_sh=1.0)
def test_explicit_mpp_check_agrees_with_the_mpp_solve(fit, k_ph, k_0, k_sh):
    """Property: where the maximum-power check that calibration makes on the
    explicit curve at the rated diode voltage passes, the maximum that
    ``_module_mpp`` solves for is within 0.5% of the rated power and voltage,
    and at the checked point; where it fails, it names the maximum power.
    The fitted i_ph, i_0 and r_sh are scaled, and the current checks are
    passed, so that only this check decides; a solved miss within 1e-4 of the
    0.5% boundary is not judged."""
    spec, n_ideality = fit
    n_ideality = (extract_single_diode_params(spec) if n_ideality is None
                  else _fitted(spec, n_ideality)).n_ideality

    def scaled(**fields):
        return SingleDiodeParams(**{**fields, "i_ph": fields["i_ph"] * k_ph,
                                    "i_0": fields["i_0"] * k_0, "r_sh": fields["r_sh"] * k_sh})

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pv_model, "SingleDiodeParams", scaled)
        patch.setattr(pv_model, "_current_within", lambda *args: True)
        try:
            params = _fit_at_ideality(spec, n_ideality)
        except InfeasibleSpec as exc:
            assert str(exc).startswith(f"ideality {n_ideality:g}: maximum power "), str(exc)
            return
    one_curve = np.array([[params.i_ph], [params.i_0], [params.r_sh]])
    (v,), (i,) = _module_mpp(*one_curve, params.r_s, params.a)
    for got, rated in ((v * i, spec.p_mp), (v, spec.v_mp)):
        miss = abs(got - rated) / rated
        if abs(miss - DATASHEET_TOL) > 1e-4:
            assert miss <= DATASHEET_TOL, (got, rated)
    # The checked point is the solved maximum, to the gradient criterion.
    v_rated, i_rated, *_ = _curve_point(params.i_ph, params.i_0, params.r_sh, params.r_s,
                                        params.a, spec.v_mp + spec.i_mp * params.r_s)
    assert abs(v - v_rated) <= 1e-4 * v and abs(v * i - v_rated * i_rated) <= 1e-8 * v * i


def test_the_exponent_cap_decides_the_stc_check():
    """At ideality 1.3 the 91.6 kW datasheet has v_oc/a = 692.4, past the cap of
    690, so the capped residual rejects I(v_oc) = 0 as the solve does; the
    residual without the cap would accept it."""
    spec = OUT_OF_BUDGET_AT_FIRST
    params = _fitted(spec, 1.3)
    d = DATASHEET_TOL * spec.i_sc
    assert spec.v_oc / params.a > pv_model._EXP_CAP
    assert not _current_within(params, spec.v_oc, 0.0, d)
    assert f"{float(_module_currents(params, np.array([spec.v_oc]))[0]):.6g}" == "-2.16359"

    def uncapped(i: float) -> float:
        x = spec.v_oc + i * params.r_s
        return params.i_ph - params.i_0 * math.expm1(x / params.a) - x / params.r_sh - i

    assert uncapped(-d) >= 0.0 >= uncapped(d)
    with pytest.raises(InfeasibleSpec, match=re.escape(
        "ideality 1.3: I(v_oc) = -2.16359 A misses 0 by more than 0.5% of i_sc"
    )):
        _fit_at_ideality(spec, 1.3)


# ======================================================================
# Module current solve
# ======================================================================


class TestModuleCurrent:
    """Implicit diode equation solve at fixed voltage."""

    def test_matches_bisection_oracle(self, ref_params):
        """Newton result agrees with a 200-step bisection oracle everywhere."""
        for v in (0.0, 5.0, 14.5, 29.0, 33.0, 36.0):
            fast = module_current(ref_params, v)
            slow = _bisect_current(ref_params, v)
            assert abs(fast - slow) < 1e-8, f"v={v}: {fast!r} vs oracle {slow!r}"

    def test_residual_below_tolerance(self, ref_params):
        """Returned current satisfies the diode equation to 1e-9 relative."""
        p = ref_params
        for v in (0.0, 10.0, 29.0, 36.0):
            i = module_current(p, v)
            x = v + i * p.r_s
            resid = p.i_ph - p.i_0 * math.expm1(x / p.a) - x / p.r_sh - i
            assert abs(resid) <= 1.01e-9 * max(p.i_ph, 1.0), (
                f"residual {resid:.3e} at v={v}"
            )

    def test_current_monotone_in_voltage(self, ref_params):
        """I(V) is non-increasing."""
        vs = np.linspace(0.0, 36.3, 120)
        cur = [module_current(ref_params, float(v)) for v in vs]
        diffs = np.diff(cur)
        assert np.all(diffs <= 1e-9), f"max increase {diffs.max():.3e} A"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [-40.0, 90.0])
    @pytest.mark.parametrize("g", [0.0, 1.0, G_MAX])
    @pytest.mark.parametrize("sheet", DATASHEETS)
    def test_closed_form_bracket_from_0_to_1e300_volts(self, monkeypatch, sheet, g, t):
        """Property: at every voltage from 0 to 1e300 V the bracket the current
        solve is given has f > 0 at its lower end and f < 0 at its upper, by an
        independent residual, and the current is the Lambert-W oracle's (within
        twice the solve's tolerance, or 1e-15 of the current where an ulp of it
        is already coarser), one voltage at a time or all at once, with no
        warning.  A dark curve (g = 0, i_ph = 0) is included: at v = 0 its
        current is 0, so the lower end must lie below it."""
        p_mp, v_mp, i_mp, v_oc, i_sc, n_cells = sheet
        spec = PVModuleSpec(p_mp=p_mp, v_mp=v_mp, i_mp=i_mp, v_oc=v_oc, i_sc=i_sc,
                            n_cells=n_cells)
        adj = adjust_params(extract_single_diode_params(spec), spec, EnvCondition(g, t))
        v = np.concatenate([[0.0], np.logspace(-3.0, 300.0, 102)])
        brackets = []

        def solve(fdf, lo, hi, **kw):
            brackets.append((lo.copy(), hi.copy()))
            return newton_bisect_array(fdf, lo, hi, **kw)

        monkeypatch.setattr(pv_model, "newton_bisect_array", solve)
        got = _module_currents(adj, v)
        ((lo, hi),) = brackets
        assert (_diode_residual(adj, v, lo) > 0.0).all()
        assert (_diode_residual(adj, v, hi) < 0.0).all()
        want = _oracle_current(adj, v)
        assert np.isfinite(want).all()
        tol = np.maximum(_current_tol(adj), 1e-15 * np.abs(want))
        assert (np.abs(got - want) <= tol).all()
        assert [module_current(adj, x) for x in v.tolist()] == got.tolist()

    @pytest.mark.filterwarnings("error")
    def test_current_up_to_the_largest_double(self, ref_params):
        """Past 1e300 V the oracle's exponent overflows, but the diode voltage,
        tens of volts, is below an ulp of v, so the current is -v/r_s to the ulp,
        up to where -v/r_s, the bracket's lower end, is beyond half the largest
        double (a midpoint of two ends there could overflow).  Past that the
        solve raises one InvalidValue naming the first such voltage."""
        edge = 0.5 * sys.float_info.max * ref_params.r_s
        v = np.sort(np.concatenate([np.logspace(300.0, 308.25, 60), [sys.float_info.max],
                                    [edge * (1.0 - 2.0**-48), edge * (1.0 + 2.0**-48)]]))
        message = "v = {!r} V: the lower bound -v/r_s of its current is beyond half the largest double"
        solved = []
        for x in v.tolist():
            try:
                i = module_current(ref_params, x)
            except InvalidValue as exc:
                assert str(exc) == message.format(x)
            else:
                assert abs(i + x / ref_params.r_s) <= np.spacing(x / ref_params.r_s), x
                solved.append(x)
        assert solved == [x for x in v.tolist() if x < edge]
        with pytest.raises(InvalidValue, match=f"^{re.escape(message.format(1.7e308))}$"):
            _module_currents(ref_params, np.array([1.0, 1.7e308, sys.float_info.max]))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_start_is_outside_the_bracket(self):
        """A start whose diode term overflows (i_0*expm1(v/a) with i_0 = 1e300 at
        v/a = 667) is -inf, outside the bracket, so the solve starts at the
        midpoint, warns nothing, and finds the current where the diode voltage
        is about 0: -v/r_s."""
        params = SingleDiodeParams(i_ph=8.0, i_0=1e300, n_ideality=1.3, r_s=0.3, r_sh=300.0,
                                   a=1.5)
        assert module_current(params, 1e3) == pytest.approx(-1e3 / 0.3, rel=1e-15)

    @pytest.mark.parametrize(
        ("g", "t"), [(1000.0, 25.0), (1.0, -40.0), (1.0, 90.0), (1100.0, -40.0), (1100.0, 90.0)]
    )
    def test_current_solves_up_to_ten_times_voc(self, ref_params, g, t):
        """Newton descends the steep side of the exponential about one e-fold
        per step, and the current solve has the budget for it: every voltage
        of a 901-point scan of 1-10 x v_oc converges, to a current falling with
        voltage and within the tolerance of the oracle."""
        adj = adjust_params(ref_params, REF_MODULE, EnvCondition(g, t))
        v = np.linspace(1.0, 10.0, 901) * REF_MODULE.v_oc
        got = _module_currents(adj, v)
        assert (np.diff(got) < 0.0).all()
        assert np.abs(got - _oracle_current(adj, v)).max() <= _current_tol(adj)

    @pytest.mark.parametrize("t", [-40.0, 90.0])
    def test_current_solves_far_above_voc_in_dim_light(self, ref_params, t):
        """At 1 W/m² far above v_oc one ulp of the current moves the residual
        past its tolerance; the solve stops where no double lies inside its
        bracket, so every voltage of a 901-point scan of 10-100 x v_oc gives a
        current falling with voltage and within the tolerance of the oracle."""
        adj = adjust_params(ref_params, REF_MODULE, EnvCondition(1.0, t))
        v = np.linspace(10.0, 100.0, 901) * REF_MODULE.v_oc
        got = _module_currents(adj, v)
        assert (np.diff(got) < 0.0).all()
        assert np.abs(got - _oracle_current(adj, v)).max() <= _current_tol(adj)

    def test_negative_voltage_rejected(self, ref_params):
        """Negative terminal voltage is a caller error."""
        with pytest.raises(ValueError):
            module_current(ref_params, -0.5)

    def test_dark_params_voc_zero(self, ref_params):
        """A dark parameter set has zero open-circuit voltage."""
        dark = adjust_params(ref_params, REF_MODULE, EnvCondition(g=0.0, t=25.0))
        assert dark.i_ph == pytest.approx(0.0, abs=1e-12)
        assert module_voc(dark) == 0.0


# ======================================================================
# Operating-point translation
# ======================================================================


class TestAdjustParams:
    """Irradiance and temperature translation of calibrated parameters."""

    def test_stc_is_identity(self, ref_params):
        """At exactly STC the input parameters come back unchanged."""
        out = adjust_params(ref_params, REF_MODULE, EnvCondition(g=1000.0, t=25.0))
        assert out == ref_params

    def test_isc_scales_linearly_with_irradiance(self, ref_params):
        """I(0) at half irradiance is exactly half the datasheet i_sc."""
        half = adjust_params(ref_params, REF_MODULE, EnvCondition(g=500.0, t=25.0))
        i0 = module_current(half, 0.0)
        assert abs(i0 - 0.5 * REF_MODULE.i_sc) < 1e-6, f"I(0) = {i0!r}"

    def test_isc_temperature_coefficient(self, ref_params):
        """I(0) follows i_sc * (g/g_stc) * (1 + alpha_isc * dT)."""
        env = EnvCondition(g=700.0, t=40.0)
        adj = adjust_params(ref_params, REF_MODULE, env)
        expected = REF_MODULE.i_sc * 0.7 * (1.0 + REF_MODULE.alpha_isc * 15.0)
        got = module_current(adj, 0.0)
        assert abs(got - expected) < 1e-6 * expected, f"{got!r} vs {expected!r}"

    def test_voc_temperature_coefficient(self, ref_params):
        """At STC irradiance, v_oc follows the datasheet beta_voc shift."""
        env = EnvCondition(g=1000.0, t=45.0)
        adj = adjust_params(ref_params, REF_MODULE, env)
        expected = REF_MODULE.v_oc * (1.0 + REF_MODULE.beta_voc * 20.0)
        got = module_voc(adj)
        assert abs(got - expected) < 1e-6 * expected, f"v_oc {got!r} vs {expected!r}"

    def test_shunt_scales_inversely_with_irradiance(self, ref_params):
        """r_sh doubles when irradiance halves; series resistance is frozen."""
        half = adjust_params(ref_params, REF_MODULE, EnvCondition(g=500.0, t=25.0))
        assert half.r_sh == 2.0 * ref_params.r_sh
        assert half.r_s == ref_params.r_s
        assert half.a == ref_params.a

    def test_extreme_temperature_rejected(self, ref_params):
        """A temperature that drives a rating negative is a caller error."""
        hot = PVModuleSpec(
            p_mp=213.15, v_mp=29.0, i_mp=7.35, v_oc=36.3, i_sc=7.84, beta_voc=-0.02
        )
        with pytest.raises(ValueError):
            adjust_params(ref_params, hot, EnvCondition(g=1000.0, t=80.0))


# ======================================================================
# Array sweep
# ======================================================================


class TestArraySweep:
    """Sampled array characteristic."""

    def test_grid_spans_zero_to_voc(self, ref_array, ref_params):
        """First sample at v = 0, last at the array open-circuit voltage."""
        curve = array_iv_sweep(ref_array, ref_params, EnvCondition(1000.0, 25.0), 101)
        assert curve.v[0] == 0.0
        assert abs(curve.v[-1] - 363.0) < 1e-3
        assert abs(curve.i[-1]) < 1e-6

    def test_point_count(self, ref_array, ref_params):
        """The sweep returns exactly n_points samples."""
        curve = array_iv_sweep(ref_array, ref_params, EnvCondition(1000.0, 25.0), 37)
        assert len(curve.v) == len(curve.i) == len(curve.p) == 37

    def test_too_few_points_rejected(self, ref_array, ref_params):
        """n_points < 3 is a caller error."""
        with pytest.raises(InvalidValue, match="^n_points must be at least 3, got 2$"):
            array_iv_sweep(ref_array, ref_params, EnvCondition(1000.0, 25.0), 2)

    @pytest.mark.parametrize("n_points", [3.5, 3.0, math.nan, "5", None, True],
                             ids=["3.5", "3.0", "nan", "str", "None", "True"])
    def test_point_count_is_an_integer(self, ref_array, ref_params, n_points):
        """A count that holds no integer, a bool included, is an InvalidValue
        naming n_points, not a TypeError from numpy or a count of 1."""
        with pytest.raises(InvalidValue) as failure:
            array_iv_sweep(ref_array, ref_params, EnvCondition(1000.0, 25.0), n_points)
        assert str(failure.value) == f"n_points must be an integer, got {n_points!r}"

    def test_numpy_integer_point_count(self, ref_array, ref_params):
        """A numpy integer is a count, and one out of range keeps the int's message."""
        env = EnvCondition(1000.0, 25.0)
        assert len(array_iv_sweep(ref_array, ref_params, env, np.int64(37)).v) == 37
        with pytest.raises(InvalidValue, match="^n_points must be at least 3, got 2$"):
            array_iv_sweep(ref_array, ref_params, env, np.int32(2))

    def test_point_count_capped(self, ref_array, ref_params):
        """More than MAX_POINTS samples is rejected before anything is allocated."""
        with pytest.raises(ValueError, match=f"at most {MAX_POINTS}, got {MAX_POINTS + 1}"):
            array_iv_sweep(ref_array, ref_params, EnvCondition(1000.0, 25.0), MAX_POINTS + 1)

    def test_dark_sweep_collapses(self, ref_array, ref_params):
        """Zero irradiance returns the single point (0, 0, 0)."""
        curve = array_iv_sweep(ref_array, ref_params, EnvCondition(0.0, 25.0), 100)
        assert (curve.v.tolist(), curve.i.tolist(), curve.p.tolist()) == ([0.0], [0.0], [0.0])

    def test_array_scaling_against_module_curve(self, ref_params):
        """Array samples are the module samples scaled by the counts."""
        env = EnvCondition(g=800.0, t=30.0)
        unit = PVArraySpec(module=REF_MODULE, n_series=1, n_parallel=1)
        big = PVArraySpec(module=REF_MODULE, n_series=10, n_parallel=47)
        cu = array_iv_sweep(unit, ref_params, env, 25)
        cb = array_iv_sweep(big, ref_params, env, 25)
        assert (cb.v == cu.v * 10).all()
        assert (cb.i == cu.i * 47).all()

    def test_power_is_unimodal(self, ref_array, ref_params):
        """Discrete dP/dV changes sign exactly once along the sweep."""
        curve = array_iv_sweep(ref_array, ref_params, EnvCondition(1000.0, 25.0), 400)
        ps = curve.p.tolist()
        signs = [b > a for a, b in zip(ps, ps[1:])]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert flips == 1, f"P-V curve changed direction {flips} times"

    def test_csv_shape(self, ref_array, ref_params):
        """CSV carries the header and one line per point, LF endings."""
        curve = array_iv_sweep(ref_array, ref_params, EnvCondition(1000.0, 25.0), 10)
        text = curve.to_csv()
        lines = text.split("\n")
        assert lines[0] == "v,i,p"
        assert len(lines) == 12 and lines[-1] == ""
        assert "\r" not in text

    def test_underflowing_power_sweeps_dark(self, ref_array, ref_params):
        """A curve mpp() treats as dark sweeps to (0, 0, 0); a dim lit one sweeps."""
        curve = array_iv_sweep(ref_array, ref_params, EnvCondition(1e-300, 25.0), 50)
        assert (curve.v.tolist(), curve.i.tolist(), curve.p.tolist()) == ([0.0], [0.0], [0.0])
        dim = array_iv_sweep(ref_array, ref_params, EnvCondition(1e-100, 25.0), 50)
        assert len(dim.v) == 50 and 0.0 < dim.i[0] < 1e-90

    @pytest.mark.parametrize("n_points", [3, 500])
    def test_batched_sweep_agrees_with_the_oracle(self, n_points):
        """The sweep is an even grid from 0 to the oracle's v_oc, and every
        current is within the tolerance of the oracle at its voltage.

        Random datasheets and arrays, with the irradiance and temperature
        extremes among the environments.
        """
        rng = np.random.default_rng(55)
        envs = [(1.0, -40.0), (1.0, 90.0), (1100.0, -40.0), (1100.0, 90.0)]
        checked = 0
        while checked < 6:
            v_oc = float(rng.uniform(20.0, 50.0))
            i_sc = float(rng.uniform(5.0, 12.0))
            v_mp = v_oc * float(rng.uniform(0.76, 0.84))
            i_mp = i_sc * float(rng.uniform(0.90, 0.95))
            spec = PVModuleSpec(p_mp=v_mp * i_mp, v_mp=v_mp, i_mp=i_mp, v_oc=v_oc, i_sc=i_sc)
            try:
                params = extract_single_diode_params(spec)
            except InfeasibleSpec:
                continue
            array = PVArraySpec(
                module=spec, n_series=int(rng.integers(1, 30)), n_parallel=int(rng.integers(1, 60))
            )
            g, t = envs[checked % 4] if checked < 4 else (
                float(rng.uniform(1.0, 1100.0)), float(rng.uniform(-40.0, 90.0))
            )
            _assert_sweep_agrees(array, params, EnvCondition(g, t), n_points)
            checked += 1


# ======================================================================
# Maximum power point
# ======================================================================


class TestMPP:
    """Newton MPP over the diode voltage, checked against independent oracles."""

    def test_module_stc_power(self, ref_params):
        """Module STC maximum reproduces the 213.15 W rating within 0.5%."""
        unit = PVArraySpec(module=REF_MODULE, n_series=1, n_parallel=1)
        got = mpp(unit, ref_params, EnvCondition(1000.0, 25.0))
        assert abs(got.p_mp - 213.15) <= 0.005 * 213.15, f"p_mp {got.p_mp:.3f} W"

    def test_matches_dense_oracle_off_stc(self, ref_params):
        """Non-STC maximum agrees with the 10k-point brute-force oracle."""
        env = EnvCondition(g=640.0, t=38.0)
        adj = adjust_params(ref_params, REF_MODULE, env)
        v_star, p_star = _dense_mpp(adj, n=10_000)
        unit = PVArraySpec(module=REF_MODULE, n_series=1, n_parallel=1)
        got = mpp(unit, ref_params, env)
        assert abs(got.p_mp - p_star) <= 1e-4 * p_star, (
            f"mpp {got.p_mp:.4f} W vs oracle {p_star:.4f} W"
        )
        assert abs(got.v_mp - v_star) <= 2e-3 * v_star

    @pytest.mark.parametrize("g", [1.0, 20.0])
    @pytest.mark.parametrize("t", [-40.0, 90.0])
    def test_matches_dense_oracle_at_extremes(self, ref_params, g, t):
        """Dim light at both temperature limits agrees with a 2k-point oracle."""
        env = EnvCondition(g=g, t=t)
        v_star, p_star = _dense_mpp(adjust_params(ref_params, REF_MODULE, env), n=2_000)
        unit = PVArraySpec(module=REF_MODULE, n_series=1, n_parallel=1)
        got = mpp(unit, ref_params, env)
        assert abs(got.p_mp - p_star) <= 1e-4 * p_star, (
            f"mpp {got.p_mp:.6g} W vs oracle {p_star:.6g} W"
        )
        assert abs(got.v_mp - v_star) <= 2e-3 * v_star

    def test_gradient_criterion(self, ref_array, ref_params):
        """Central-difference |dP/dV| * v/p < 1e-4 at the returned point."""
        for g, t in ((1000.0, 25.0), (500.0, 25.0), (100.0, 25.0), (1000.0, 45.0)):
            env = EnvCondition(g=g, t=t)
            got = mpp(ref_array, ref_params, env)
            adj = adjust_params(ref_params, REF_MODULE, env)
            v_m = got.v_mp / ref_array.n_series
            h = 1e-6 * module_voc(adj)
            p = lambda v: v * module_current(adj, v)
            slope = (p(v_m + h) - p(v_m - h)) / (2.0 * h)
            norm = abs(slope) * v_m / p(v_m)
            assert norm < 1e-4, f"(g={g}, t={t}): normalized gradient {norm:.2e}"

    def test_power_monotone_in_irradiance(self, ref_array, ref_params):
        """More light, more power, at fixed temperature."""
        powers = [
            mpp(ref_array, ref_params, EnvCondition(g, 25.0)).p_mp
            for g in (100.0, 300.0, 500.0, 700.0, 900.0, 1000.0)
        ]
        assert all(b > a for a, b in zip(powers, powers[1:])), f"powers {powers}"

    def test_power_decreases_with_temperature(self, ref_array, ref_params):
        """Hotter cells produce less power at fixed irradiance."""
        p25 = mpp(ref_array, ref_params, EnvCondition(1000.0, 25.0)).p_mp
        p45 = mpp(ref_array, ref_params, EnvCondition(1000.0, 45.0)).p_mp
        assert p45 < p25

    def test_array_scaling_exact(self, ref_params):
        """v_mp and i_mp scale bitwise by the counts; p_mp is their product."""
        env = EnvCondition(g=750.0, t=33.0)
        unit = mpp(PVArraySpec(module=REF_MODULE, n_series=1, n_parallel=1),
                   ref_params, env)
        for ns, npar in ((2, 3), (10, 47), (25, 8)):
            arr = mpp(PVArraySpec(module=REF_MODULE, n_series=ns, n_parallel=npar),
                      ref_params, env)
            assert arr.v_mp == unit.v_mp * ns, f"{ns}x{npar}: v_mp not exact"
            assert arr.i_mp == unit.i_mp * npar, f"{ns}x{npar}: i_mp not exact"
            assert arr.p_mp == arr.v_mp * arr.i_mp

    def test_converges_where_finite_difference_was_noise(self, ref_array, ref_params):
        """An ordinary point whose finite-difference slope sat in solver noise."""
        env = EnvCondition(g=780.91, t=35.889)
        got = mpp(ref_array, ref_params, env)
        _, p_star = _dense_mpp(adjust_params(ref_params, REF_MODULE, env), n=2_000)
        unit_p = got.p_mp / (ref_array.n_series * ref_array.n_parallel)
        assert abs(unit_p - p_star) <= 1e-4 * p_star

    def test_batched_solve_matches_dense_oracle(self, ref_params):
        """One batched solve over a vector of points, extremes included, agrees
        with the 2k-point oracle and with mpp() point for point."""
        g = np.array([1.0, 20.0, 1.0, 20.0, 1000.0, 640.0, 1000.0, 250.0, 1100.0])
        t = np.array([-40.0, -40.0, 90.0, 90.0, 25.0, 38.0, 90.0, -40.0, 60.0])
        unit = PVArraySpec(module=REF_MODULE, n_series=1, n_parallel=1)
        v_batch, i_batch = array_mpp(unit, ref_params, g, t)
        for k in range(len(g)):
            env = EnvCondition(g=float(g[k]), t=float(t[k]))
            _, p_star = _dense_mpp(adjust_params(ref_params, REF_MODULE, env), n=2_000)
            p_k = v_batch[k] * i_batch[k]
            assert abs(p_k - p_star) <= 1e-4 * p_star, f"(g={g[k]}, t={t[k]})"
            got = mpp(unit, ref_params, env)
            assert (v_batch[k], i_batch[k], p_k) == (got.v_mp, got.i_mp, got.p_mp)

    @pytest.mark.parametrize(
        ("solve", "message"),
        [
            pytest.param(lambda *args, **kw: newton_bisect_array(*args, **kw, max_iter=1),
                         "mpp: no root of dP/dVd within 100 iterations", id="budget"),
            pytest.param(lambda *args, **kw: 0.9 * newton_bisect_array(*args, **kw),
                         "mpp: gradient criterion not met at the solved point", id="gradient"),
        ],
    )
    def test_each_nonconvergence_names_its_cause(self, monkeypatch, ref_params, solve, message):
        """Each way the MPP solve fails is a NonConvergence saying which: a
        spent budget, or a solved point 10% off the maximum failing the
        gradient criterion."""
        monkeypatch.setattr(pv_model, "newton_bisect_array", solve)
        curve = np.array([[ref_params.i_ph], [ref_params.i_0], [ref_params.r_sh]])
        with pytest.raises(NonConvergence) as failure:
            _module_mpp(*curve, ref_params.r_s, ref_params.a)
        assert str(failure.value) == message

    def test_underflowing_power_is_dark(self, ref_array, ref_params):
        """Power below the smallest normal double is a dark array, not a failure."""
        assert 0.0 < mpp(ref_array, ref_params, EnvCondition(1e-100, 25.0)).p_mp < 1e-150
        with pytest.raises(DarkArray):
            mpp(ref_array, ref_params, EnvCondition(1e-300, 25.0))
        v, i = array_mpp(ref_array, ref_params, np.array([1e-300, 1e-100]), np.array([25.0, 25.0]))
        assert v[0] == i[0] == 0.0 and v[1] * i[1] > 0.0

    def test_dark_array_raises(self, ref_array, ref_params):
        """Zero irradiance has no maximum power point: its photocurrent is 0,
        so the one dark rule raises the one DarkArray, at any cell temperature."""
        for g, t in [(0.0, 25.0), (-0.0, 25.0), (0.0, -40.0), (0.0, 90.0)]:
            with pytest.raises(DarkArray, match="^no maximum power point for a dark curve$"):
                mpp(ref_array, ref_params, EnvCondition(g, t))


# ======================================================================
# Lambert-W oracle
# ======================================================================


_CORNER = {"sheet": DATASHEETS[0], "s_v": 1.0, "s_i": 1.0, "n_series": 10, "n_parallel": 47}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    sheet=st.sampled_from(DATASHEETS), s_v=st.floats(0.7, 3.0), s_i=st.floats(0.01, 100.0),
    g=st.one_of(st.sampled_from([1.0, 1100.0]), st.floats(1.0, 1100.0)),
    t=st.one_of(st.sampled_from([-40.0, 90.0]), st.floats(-40.0, 90.0)),
    n_series=st.integers(1, 30), n_parallel=st.integers(1, 60),
)
@example(**_CORNER, g=1.0, t=-40.0)
@example(**_CORNER, g=1.0, t=90.0)
@example(**_CORNER, g=1100.0, t=-40.0)
@example(**_CORNER, g=1100.0, t=90.0)
def test_solves_agree_with_the_lambertw_oracle(sheet, s_v, s_i, g, t, n_series, n_parallel):
    """Property: on a real datasheet with its voltages scaled by s_v and its
    currents by s_i, at an operating point of the envelope, every solve agrees
    with the explicit Lambert-W oracle: the currents of _module_currents and
    module_current up to v_oc within twice the solve's tolerance, module_voc
    within 1e-11 of v_oc, the maximum power point of mpp and array_mpp (here
    and at STC) on the oracle's curve at its maximum, and the sweep."""
    p_mp, v_mp, i_mp, v_oc, i_sc, n_cells = sheet
    spec = PVModuleSpec(p_mp=p_mp * s_v * s_i, v_mp=v_mp * s_v, i_mp=i_mp * s_i,
                        v_oc=v_oc * s_v, i_sc=i_sc * s_i, n_cells=n_cells)
    params = extract_single_diode_params(spec)
    env = EnvCondition(g, t)
    adj = adjust_params(params, spec, env)
    v_oc_star = _oracle_voc(adj)
    assert abs(module_voc(adj) - v_oc_star) <= 1e-11 * v_oc_star
    v = np.linspace(0.0, v_oc_star, 200)
    assert np.abs(_module_currents(adj, v) - _oracle_current(adj, v)).max() <= _current_tol(adj)
    for x in (0.0, 0.8 * v_oc_star, v_oc_star):
        assert abs(module_current(adj, x) - _oracle_current(adj, x).item()) <= _current_tol(adj)
    array = PVArraySpec(module=spec, n_series=n_series, n_parallel=n_parallel)
    got = mpp(array, params, env)
    _assert_mpp_agrees(got.v_mp / n_series, got.i_mp / n_parallel, adj)
    v_b, i_b = array_mpp(array, params, np.array([g, spec.g_stc]), np.array([t, spec.t_stc]))
    for k, at in enumerate((adj, params)):
        _assert_mpp_agrees(v_b[k] / n_series, i_b[k] / n_parallel, at)
    _assert_sweep_agrees(array, params, env, 64)


# ======================================================================
# Operating envelope
# ======================================================================


_IN_G = st.one_of(st.sampled_from([0.0, 5e-324, G_MAX]), st.floats(0.0, G_MAX))
_IN_T = st.one_of(st.sampled_from([-40.0, 90.0]), st.floats(-40.0, 90.0))
_EDGES = {"sheet": DATASHEETS[0], "s_v": 1.0, "s_i": 1.0}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sheet=st.sampled_from(DATASHEETS), s_v=st.floats(0.7, 3.0), s_i=st.floats(0.01, 100.0),
       g=_IN_G, t=_IN_T)
@example(**_EDGES, g=G_MAX, t=-40.0)
@example(**_EDGES, g=G_MAX, t=90.0)
@example(**_EDGES, g=5e-324, t=-40.0)
@example(**_EDGES, g=0.0, t=90.0)
def test_inside_the_envelope_every_solve_converges(sheet, s_v, s_i, g, t):
    """Property: on a real datasheet with its voltages scaled by s_v and its
    currents by s_i, at any point of the envelope, mpp (or DarkArray on a dark
    curve), array_mpp and the sweep return without NonConvergence, and the
    maximum power is at most i_sc(g, t)*v_oc(t) from the datasheet coefficients."""
    p_mp, v_mp, i_mp, v_oc, i_sc, n_cells = sheet
    spec = PVModuleSpec(p_mp=p_mp * s_v * s_i, v_mp=v_mp * s_v, i_mp=i_mp * s_i,
                        v_oc=v_oc * s_v, i_sc=i_sc * s_i, n_cells=n_cells)
    params = extract_single_diode_params(spec)
    array = PVArraySpec(module=spec, n_series=10, n_parallel=47)
    d_t = t - spec.t_stc
    bound = (47 * spec.i_sc * (1.0 + spec.alpha_isc * d_t) * g / spec.g_stc
             * 10 * spec.v_oc * (1.0 + spec.beta_voc * d_t))
    (v_b,), (i_b,) = array_mpp(array, params, np.array([g]), np.array([t]))
    assert 0.0 <= v_b * i_b <= bound
    try:
        got = mpp(array, params, EnvCondition(g, t))
    except DarkArray:
        assert v_b == 0.0
    else:
        assert (got.v_mp, got.i_mp) == (v_b, i_b)
    curve = array_iv_sweep(array, params, EnvCondition(g, t), 16)
    assert 0.0 <= curve.p.max() <= bound


_OUT_G = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 1e300, 1.5e4]),
                   st.floats(max_value=-5e-324), st.floats(min_value=math.nextafter(G_MAX, 3e3)))
_OUT_T = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, "25", None]),
                   st.floats(max_value=math.nextafter(-40.0, -50.0)),
                   st.floats(min_value=math.nextafter(90.0, 100.0)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(g=_OUT_G, t=_OUT_T, g_in=_IN_G, t_in=_IN_T)
def test_outside_the_envelope_is_rejected_by_name(g, t, g_in, t_in):
    """Property: an irradiance or a cell temperature outside the envelope, or
    not a number, is an InvalidValue naming g or t_cell, g first.  A Scenario
    names the segment holding it, then gives the same words as EnvCondition."""
    g_text = f"g must be finite and in [0, {G_MAX:g}] W/m², got "
    t_text = "t_cell must be finite and in [-40, 90] °C, got "
    for env, text in (((g, t_in), g_text), ((g_in, t), t_text), ((g, t), g_text)):
        with pytest.raises(InvalidValue) as failure:
            EnvCondition(*env)
        assert str(failure.value).startswith(text)
        words = str(failure.value)
        with pytest.raises(InvalidValue) as failure:
            make_scenario(irradiance=((0.0, g_in, t_in), (0.01, *env)))
        assert str(failure.value) == f"irradiance profile segment 1: {words}"


# ======================================================================
# Curve container invariants
# ======================================================================


class TestIVCurve:
    """IVCurve constructor checks."""

    def test_must_start_at_zero(self):
        """A curve whose first sample is off-origin is rejected."""
        with pytest.raises(ValueError):
            IVCurve(v=[1.0], i=[5.0])

    def test_voltage_strictly_increasing(self):
        """Duplicate voltages are rejected."""
        with pytest.raises(ValueError):
            IVCurve(v=[0.0, 0.0], i=[5.0, 5.0])

    def test_current_non_increasing(self):
        """A rising current violates the diode-curve shape."""
        with pytest.raises(ValueError):
            IVCurve(v=[0.0, 1.0], i=[5.0, 6.0])

    # Each case is a sequence of (v, i) samples.  The entries (finite, v from 0
    # and rising) are judged first, point by point, then the current's shape.
    @pytest.mark.parametrize(
        ("points", "message"),
        [
            pytest.param((), "curve must have at least one point", id="empty"),
            pytest.param(((1.0, 5.0),), "curve point 0: v must be 0, got 1.0", id="off-origin"),
            pytest.param(((math.nan, 5.0),), "curve point 0: v must be finite, got nan",
                         id="nan-start"),
            pytest.param(((0.0, 5.0), (0.0, 5.0)),
                         "curve point 1: v must be after 0.0, got 0.0", id="repeated-voltage"),
            pytest.param(((0.0, 5.0), (1.0, 6.0)),
                         "curve current must be non-increasing", id="rising-current"),
            pytest.param(((0.0, 5.0), (0.1, 0.3)), None, id="power"),  # p = 0.1*0.3, inexact
            pytest.param(((0.0, 5.0), (1.0, 4.0), (0.5, 9.0)),
                         "curve point 2: v must be after 1.0, got 0.5",
                         id="voltage-before-current"),
            pytest.param(((0.0, 5.0), (1.0, 6.0), (0.5, 6.0)),
                         "curve point 2: v must be after 1.0, got 0.5", id="first-point-wins"),
            pytest.param(((0.0, 5.0), (1.0, 4.0), (1.0, math.nan)),
                         "curve point 2: v must be after 1.0, got 1.0", id="shape-before-power"),
            pytest.param(((0.0, 5.0), (math.nan, 4.0), (0.5, 4.0)),
                         "curve point 1: v must be finite, got nan", id="nan-voltage"),
            pytest.param(((0.0, 5.0), (1.0, math.nan), (2.0, 6.0)),
                         "curve point 1: i must be finite, got nan", id="nan-current"),
            pytest.param(((0.0, 5.0), (math.inf, 4.0)),
                         "curve point 1: v must be finite, got inf", id="infinite-voltage"),
            pytest.param(((0.0, 5.0), (1.0, -math.inf)),
                         "curve point 1: i must be finite, got -inf", id="infinite-current"),
            pytest.param(((0.0, 5.0), (1.0, 5.0 + 4e-9)), None, id="rise-within-slack"),
            pytest.param(((0.0, sys.float_info.max), (1.0, 0.0)), None, id="largest-current"),
            pytest.param(((0.0, 1e200), (1e200, 1e200)),
                         "curve power at v = 1e+200 V is beyond the float range",
                         id="infinite-power"),
            pytest.param(((0.0, 1e200), (1e100, 1.0), (1e200, -1e200), (2e200, -1e300)),
                         "curve power at v = 1e+200 V is beyond the float range",
                         id="first-infinite-power-wins"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_check_messages(self, points, message):
        """Each invariant's message and their precedence: the first point whose
        entries fail is named, its voltage before its current, and the
        current's shape is judged after every entry.  An
        accepted curve keeps its samples, with p exactly v*i at each, and a
        power past the float range is rejected without a warning."""
        v, i = np.reshape(points, (-1, 2)).T
        if message is None:
            curve = IVCurve(v, i)
            assert np.column_stack((curve.v, curve.i)).tolist() == list(map(list, points))
            assert curve.p.tolist() == [x * y for x, y in points]
            return
        with pytest.raises(ValueError) as exc:
            IVCurve(v, i)
        assert str(exc.value) == message

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        ("v", "i", "message"),
        [
            ([False, True], [1.0, 0.5], "curve point 0: v must be finite, got False"),
            (["0", "1.5"], ["1", "0.5"], "curve point 0: v must be finite, got '0'"),
            ([0.0, 1.5], [1.0, np.True_], "curve point 1: i must be finite, got np.True_"),
            (np.array([False, True]), [1.0, 0.5], "curve point 0: v must be finite, got False"),
            (np.array(["0", "1.5"]), [1.0, 0.5], "curve point 0: v must be finite, got '0'"),
            ([0.0, None], [1.0, 0.5], "curve point 1: v must be finite, got None"),
        ],
        ids=["bools", "numeric-strings", "numpy-bool", "bool-array", "str-array", "None"],
    )
    def test_column_entries_must_be_numbers(self, v, i, message):
        """A bool or a numeric string in v or i, which a float array would read as
        a number, is an InvalidValue naming the column and the entry as given."""
        with pytest.raises(InvalidValue, match=f"^{re.escape(message)}$"):
            IVCurve(v, i)

    def test_numbers_of_any_real_type_are_columns(self):
        """Python and numpy numbers, ints among them, make a curve; a column of
        Python floats or a float array needs no entry judged alone."""
        curve = IVCurve([np.float64(0.0), 1, np.int32(2)], (np.float64(5.0), 4.0, 0))
        assert curve.v.tolist() == [0.0, 1.0, 2.0] and curve.i.tolist() == [5.0, 4.0, 0.0]

    def test_columns_are_read_only_copies(self):
        """The curve keeps a read-only float copy of v and i and their product
        p, takes no p argument, and rejects columns of unequal length."""
        v, i = [0.0, 1.0, 2.0], np.array([5.0, 4.0, 0.0])
        curve = IVCurve(v, i)
        i[1] = 3.0
        assert curve.i.tolist() == [5.0, 4.0, 0.0]
        assert not (curve.v.flags.writeable or curve.i.flags.writeable or curve.p.flags.writeable)
        assert (curve.v[1], curve.i[1], curve.p[1]) == (1.0, 4.0, 4.0)
        assert curve.v.dtype == curve.p.dtype == np.float64
        with pytest.raises(TypeError):
            IVCurve(v, i, [0.0, 4.0, 0.0])
        with pytest.raises(InvalidValue, match="^curve must hold 2 floats per point$"):
            IVCurve(v, [5.0, 4.0])
