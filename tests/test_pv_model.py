"""Tests for pvgrid.pv_model — calibration, evaluation, sweep, and MPP."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from pvgrid.errors import DarkArray, InfeasibleSpec, InvalidValue, NonConvergence
from pvgrid.pv_model import (
    MAX_POINTS,
    EnvCondition,
    IVCurve,
    IVPoint,
    MPPResult,
    PVArraySpec,
    PVModuleSpec,
    SingleDiodeParams,
    adjust_params,
    array_iv_sweep,
    extract_single_diode_params,
    _fit_at_ideality,
    _module_currents,
    module_current,
    module_voc,
    array_mpp,
    mpp,
    thermal_voltage,
)

from conftest import REF_MODULE


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


def _dense_mpp(params: SingleDiodeParams, n: int = 10_000) -> tuple[float, float]:
    """Independent oracle: brute-force P-V maximum on a dense module grid."""
    voc = module_voc(params)
    best_v, best_p = 0.0, 0.0
    for v in np.linspace(0.0, voc, n):
        p = float(v) * _bisect_current(params, float(v))
        if p > best_p:
            best_v, best_p = float(v), p
    return best_v, best_p


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
        """p_mp must match v_mp * i_mp within 1%."""
        with pytest.raises(ValueError):
            PVModuleSpec(p_mp=230.0, v_mp=29.0, i_mp=7.35, v_oc=36.3, i_sc=7.84)

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
        """Zero series or parallel counts are rejected."""
        with pytest.raises(ValueError):
            PVArraySpec(module=REF_MODULE, n_series=0, n_parallel=47)

    def test_array_rated_power_must_be_a_float(self):
        """Counts whose rated power n_series*n_parallel*p_mp overflows are rejected."""
        with pytest.raises(ValueError, match="array rated power"):
            PVArraySpec(module=REF_MODULE, n_series=10**300, n_parallel=10**300)
        with pytest.raises(ValueError, match="array rated power"):
            PVArraySpec(module=REF_MODULE, n_series=10**400, n_parallel=1)
        assert PVArraySpec(module=REF_MODULE, n_series=10**300, n_parallel=1).n_series == 10**300

    def test_array_ratings_scale(self):
        """Array v_oc / i_sc are the module ratings times the counts."""
        arr = PVArraySpec(module=REF_MODULE, n_series=10, n_parallel=47)
        assert arr.v_oc == 10 * 36.3
        assert arr.i_sc == 47 * 7.84

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

    def test_mpp_result_product_enforced(self):
        """MPPResult requires p_mp to be exactly v_mp * i_mp."""
        with pytest.raises(ValueError):
            MPPResult(v_mp=29.0, i_mp=7.35, p_mp=213.0)

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

    def test_custom_feasible_guess_is_honored(self):
        """A requested ideality that calibrates cleanly is used as-is."""
        params = extract_single_diode_params(REF_MODULE, n_ideality_guess=1.05)
        assert params.n_ideality == 1.05

    def test_infeasible_guess_falls_back(self):
        """An ideality with no physical solution falls back to a canonical one."""
        params = extract_single_diode_params(REF_MODULE, n_ideality_guess=1.4)
        assert params.n_ideality != 1.4
        assert params.n_ideality == 1.0

    def test_nonpositive_guess_rejected(self):
        """A non-positive ideality guess is a caller error."""
        with pytest.raises(ValueError):
            extract_single_diode_params(REF_MODULE, n_ideality_guess=0.0)

    def test_singular_system_is_infeasible_for_that_ideality(self, ref_params):
        """At ideality 1e308 the diode voltage is infinite and the linear system
        singular; that ideality is infeasible and the fallbacks calibrate."""
        assert extract_single_diode_params(REF_MODULE, n_ideality_guess=1e308) == ref_params

    @pytest.mark.parametrize("guess", [math.nan, math.inf])
    def test_non_finite_guess_rejected(self, guess):
        """The ideality guess must be a finite positive number."""
        with pytest.raises(ValueError, match="ideality guess must be finite and positive"):
            extract_single_diode_params(REF_MODULE, n_ideality_guess=guess)

    def test_square_curve_infeasible(self):
        """A near-unity fill factor admits no single-diode model at all."""
        impossible = PVModuleSpec(p_mp=280.0, v_mp=35.9, i_mp=7.8, v_oc=36.3, i_sc=7.84)
        with pytest.raises(InfeasibleSpec):
            extract_single_diode_params(impossible)

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

    def test_batched_solve_grows_the_bracket_as_the_scalar_solve(self, ref_params):
        """Beyond v_oc the current is so negative that the lower bracket end
        must grow; the batched solve then still equals module_current bit for
        bit, and fails with its error where it fails: at 1e12 V, where no
        bracket is found."""
        v = np.linspace(1.2, 10.0, 45) * REF_MODULE.v_oc
        want = [module_current(ref_params, x) for x in v.tolist()]
        assert _module_currents(ref_params, v).tolist() == want
        with pytest.raises(NonConvergence, match="could not bracket the root") as scalar:
            module_current(ref_params, 1e12)
        with pytest.raises(NonConvergence, match=re.escape(str(scalar.value))):
            _module_currents(ref_params, np.array([2.0 * REF_MODULE.v_oc, 1e12]))

    @pytest.mark.parametrize(
        ("g", "t"), [(1000.0, 25.0), (1.0, -40.0), (1.0, 90.0), (1100.0, -40.0), (1100.0, 90.0)]
    )
    def test_current_solves_up_to_ten_times_voc(self, ref_params, g, t):
        """Newton descends the steep side of the exponential about one e-fold
        per step, and the current solve has the budget for it: every voltage
        of a 901-point scan of 1-10 x v_oc converges, batched and scalar alike."""
        adj = adjust_params(ref_params, REF_MODULE, EnvCondition(g, t))
        v = np.linspace(1.0, 10.0, 901) * REF_MODULE.v_oc
        got = _module_currents(adj, v)
        assert (np.diff(got) < 0.0).all()
        for k in range(0, 901, 50):
            assert got[k] == module_current(adj, float(v[k]))

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
        assert curve.points[0].v == 0.0
        assert abs(curve.points[-1].v - 363.0) < 1e-3
        assert abs(curve.points[-1].i) < 1e-6

    def test_point_count(self, ref_array, ref_params):
        """The sweep returns exactly n_points samples."""
        curve = array_iv_sweep(ref_array, ref_params, EnvCondition(1000.0, 25.0), 37)
        assert len(curve.points) == 37

    def test_too_few_points_rejected(self, ref_array, ref_params):
        """n_points < 3 is a caller error."""
        with pytest.raises(ValueError):
            array_iv_sweep(ref_array, ref_params, EnvCondition(1000.0, 25.0), 2)

    def test_point_count_capped(self, ref_array, ref_params):
        """More than MAX_POINTS samples is rejected before anything is allocated."""
        with pytest.raises(ValueError, match=f"at most {MAX_POINTS}, got {MAX_POINTS + 1}"):
            array_iv_sweep(ref_array, ref_params, EnvCondition(1000.0, 25.0), MAX_POINTS + 1)

    def test_dark_sweep_collapses(self, ref_array, ref_params):
        """Zero irradiance returns the single point (0, 0, 0)."""
        curve = array_iv_sweep(ref_array, ref_params, EnvCondition(0.0, 25.0), 100)
        assert curve.points == (IVPoint(0.0, 0.0, 0.0),)

    def test_array_scaling_against_module_curve(self, ref_params):
        """Array samples are the module samples scaled by the counts."""
        env = EnvCondition(g=800.0, t=30.0)
        unit = PVArraySpec(module=REF_MODULE, n_series=1, n_parallel=1)
        big = PVArraySpec(module=REF_MODULE, n_series=10, n_parallel=47)
        cu = array_iv_sweep(unit, ref_params, env, 25)
        cb = array_iv_sweep(big, ref_params, env, 25)
        for pu, pb in zip(cu.points, cb.points):
            assert pb.v == pu.v * 10
            assert pb.i == pu.i * 47

    def test_power_is_unimodal(self, ref_array, ref_params):
        """Discrete dP/dV changes sign exactly once along the sweep."""
        curve = array_iv_sweep(ref_array, ref_params, EnvCondition(1000.0, 25.0), 400)
        ps = [pt.p for pt in curve.points]
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
        assert curve.points == (IVPoint(0.0, 0.0, 0.0),)
        dim = array_iv_sweep(ref_array, ref_params, EnvCondition(1e-100, 25.0), 50)
        assert len(dim.points) == 50 and 0.0 < dim.points[0].i < 1e-90

    @pytest.mark.parametrize("n_points", [3, 500])
    def test_batched_sweep_equals_scalar_solves(self, n_points):
        """Every point equals module_current at its voltage, bit for bit.

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
            adj = adjust_params(params, spec, EnvCondition(g, t))
            want = []
            for v_m in np.linspace(0.0, module_voc(adj), n_points):
                v = float(v_m) * array.n_series
                i = module_current(adj, float(v_m)) * array.n_parallel
                want.append(IVPoint(v, i, v * i))
            got = array_iv_sweep(array, params, EnvCondition(g, t), n_points).points
            assert got == tuple(want), f"(g={g}, t={t}) sweep differs from scalar solves"
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

    def test_underflowing_power_is_dark(self, ref_array, ref_params):
        """Power below the smallest normal double is a dark array, not a failure."""
        assert 0.0 < mpp(ref_array, ref_params, EnvCondition(1e-100, 25.0)).p_mp < 1e-150
        with pytest.raises(DarkArray):
            mpp(ref_array, ref_params, EnvCondition(1e-300, 25.0))
        v, i = array_mpp(ref_array, ref_params, np.array([1e-300, 1e-100]), np.array([25.0, 25.0]))
        assert v[0] == i[0] == 0.0 and v[1] * i[1] > 0.0

    def test_dark_array_raises(self, ref_array, ref_params):
        """Zero irradiance has no maximum power point."""
        with pytest.raises(DarkArray):
            mpp(ref_array, ref_params, EnvCondition(0.0, 25.0))


# ======================================================================
# Curve container invariants
# ======================================================================


class TestIVCurve:
    """IVCurve constructor checks."""

    def test_must_start_at_zero(self):
        """A curve whose first sample is off-origin is rejected."""
        with pytest.raises(ValueError):
            IVCurve(v=[1.0], i=[5.0], p=[5.0])

    def test_voltage_strictly_increasing(self):
        """Duplicate voltages are rejected."""
        with pytest.raises(ValueError):
            IVCurve(v=[0.0, 0.0], i=[5.0, 5.0], p=[0.0, 0.0])

    def test_current_non_increasing(self):
        """A rising current violates the diode-curve shape."""
        with pytest.raises(ValueError):
            IVCurve(v=[0.0, 1.0], i=[5.0, 6.0], p=[0.0, 6.0])

    def test_power_consistency(self):
        """p must equal v * i at every sample."""
        with pytest.raises(ValueError):
            IVCurve(v=[0.0, 1.0], i=[5.0, 4.0], p=[0.0, 3.9])

    @pytest.mark.parametrize(
        ("points", "message"),
        [
            pytest.param((), "curve needs at least one point", id="empty"),
            pytest.param(((1.0, 5.0, 5.0),), "curve must start at v = 0", id="off-origin"),
            pytest.param(((math.nan, 5.0, math.nan),), "curve must start at v = 0",
                         id="nan-start"),
            pytest.param(((0.0, 5.0, 0.0), (0.0, 5.0, 0.0)),
                         "curve voltages must be strictly increasing", id="repeated-voltage"),
            pytest.param(((0.0, 5.0, 0.0), (1.0, 6.0, 6.0)),
                         "curve current must be non-increasing", id="rising-current"),
            pytest.param(((0.0, 5.0, 0.0), (1.0, 4.0, 3.9)),
                         "curve power must equal v*i at every point", id="power"),
            pytest.param(((0.0, 5.0, 0.0), (1.0, 4.0, 4.0), (0.5, 9.0, 4.5)),
                         "curve voltages must be strictly increasing",
                         id="voltage-before-current"),
            pytest.param(((0.0, 5.0, 0.0), (1.0, 6.0, 6.0), (0.5, 6.0, 3.0)),
                         "curve current must be non-increasing", id="first-point-wins"),
            pytest.param(((0.0, 5.0, 1.0), (1.0, 4.0, 4.0), (1.0, 4.0, 4.0)),
                         "curve voltages must be strictly increasing", id="shape-before-power"),
            pytest.param(((0.0, 5.0, 0.0), (math.nan, 4.0, math.nan), (0.5, 4.0, 2.0)),
                         "curve power must equal v*i at every point", id="nan-voltage"),
            pytest.param(((0.0, 5.0, 0.0), (1.0, math.nan, math.nan), (2.0, 6.0, 12.0)),
                         "curve power must equal v*i at every point", id="nan-current"),
            pytest.param(((0.0, 5.0, 0.0), (1.0, 5.0 + 4e-9, 5.0 + 4e-9)), None,
                         id="rise-within-slack"),
        ],
    )
    def test_check_messages(self, points, message):
        """Each invariant's message and their precedence (recorded from the
        per-point checks these array checks replaced): the first failing
        point wins, and its voltage is checked before its current."""
        v, i, p = np.reshape(points, (-1, 3)).T
        if message is None:
            assert IVCurve(v, i, p).points == tuple(IVPoint(*pt) for pt in points)
            return
        with pytest.raises(ValueError) as exc:
            IVCurve(v, i, p)
        assert str(exc.value) == message

    def test_columns_are_read_only_copies(self):
        """The curve keeps a read-only copy of each column, ``points`` views
        them, and columns of unequal length are rejected."""
        v, i, p = [0.0, 1.0, 2.0], np.array([5.0, 4.0, 0.0]), [0.0, 4.0, 0.0]
        curve = IVCurve(v, i, p)
        i[1] = 3.0
        assert curve.i.tolist() == [5.0, 4.0, 0.0] and not curve.i.flags.writeable
        assert curve.points[1] == IVPoint(1.0, 4.0, 4.0)
        with pytest.raises(InvalidValue, match="^curve v, i and p must be equal-length"):
            IVCurve(v, i, [0.0, 4.0])
