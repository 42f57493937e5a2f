"""Tests for pvgrid.component_design — boost, LCL, resonance, capacitor bank."""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np
import pytest

from pvgrid.component_design import (
    BoostDesign,
    BoostDesignInput,
    LCLDesign,
    LCLDesignInput,
    ResonanceReport,
    boost_design,
    capbank_size,
    lcl_design,
    resonance_check,
)
from pvgrid.errors import DegenerateInput

# Reference operating point used across the design tests.
BOOST_IN = BoostDesignInput(p=100_345.0, v_in=290.0, v_out=700.0, f_s=5_000.0)
LCL_IN = LCLDesignInput(p=100_000.0, v_g=230.0, f_g=50.0, v_dc=700.0, f_sw=10_000.0)


# ======================================================================
# Boost converter
# ======================================================================


class TestBoostDesign:
    """dc-dc step-up sizing at the 100.345 kW / 290 V / 700 V point."""

    def test_output_current(self):
        """i_out_max = p / v_out = 143.35 A."""
        out = boost_design(BOOST_IN)
        assert abs(out.i_out_max - 143.35) <= 0.0005 * 143.35, f"{out.i_out_max!r}"

    def test_current_ripple(self):
        """delta_i_l = 0.07 * i_out_max * v_out / v_in = 24.22 A."""
        out = boost_design(BOOST_IN)
        oracle = 0.07 * (100_345.0 / 700.0) * 700.0 / 290.0
        assert out.delta_i_l == oracle
        assert abs(out.delta_i_l - 24.21) <= 0.005 * 24.21

    def test_voltage_ripple_exact(self):
        """delta_v_out = 0.007 * 700 = 4.9 V, exact in double precision."""
        out = boost_design(BOOST_IN)
        assert out.delta_v_out == 4.9

    def test_inductor_value(self):
        """L = v_in*(v_out - v_in)/(delta_i_l * f_s * v_out) = 1.40 mH."""
        out = boost_design(BOOST_IN)
        oracle = 290.0 * 410.0 / (out.delta_i_l * 5_000.0 * 700.0)
        assert out.l == oracle
        assert abs(out.l - 1.40e-3) <= 0.01 * 1.40e-3, f"L = {out.l * 1e3:.4f} mH"

    def test_capacitor_value(self):
        """C = i_out_max*(1 - v_in/v_out)/(delta_v_out * f_s) = 3427 uF."""
        out = boost_design(BOOST_IN)
        oracle = 143.35 * (1.0 - 290.0 / 700.0) / (4.9 * 5_000.0)
        assert abs(out.c - oracle) <= 1e-12
        assert abs(out.c - 3_427e-6) <= 0.005 * 3_427e-6, f"C = {out.c * 1e6:.2f} uF"

    def test_inductor_identity(self):
        """Property: L * delta_i_l * f_s * v_out == v_in * (v_out - v_in)."""
        rng = np.random.default_rng(11)
        for _ in range(300):
            v_in = float(rng.uniform(50.0, 600.0))
            v_out = v_in * float(rng.uniform(1.05, 4.0))
            inp = BoostDesignInput(
                p=float(rng.uniform(1e3, 5e5)),
                v_in=v_in,
                v_out=v_out,
                f_s=float(rng.uniform(1e3, 5e4)),
                ripple_i_frac=float(rng.uniform(0.01, 0.5)),
                ripple_v_frac=float(rng.uniform(0.001, 0.1)),
            )
            out = boost_design(inp)
            lhs = out.l * out.delta_i_l * inp.f_s * inp.v_out
            rhs = inp.v_in * (inp.v_out - inp.v_in)
            assert abs(lhs - rhs) <= 1e-9 * rhs, f"identity residual {lhs - rhs:.3e}"

    def test_frequency_scaling(self):
        """Doubling the switching frequency halves both L and C exactly."""
        base = boost_design(BOOST_IN)
        fast = boost_design(
            BoostDesignInput(p=100_345.0, v_in=290.0, v_out=700.0, f_s=10_000.0)
        )
        assert fast.l == base.l / 2.0
        assert fast.c == base.c / 2.0

    def test_step_down_rejected(self):
        """v_in >= v_out cannot be boosted."""
        with pytest.raises(DegenerateInput):
            BoostDesignInput(p=1e5, v_in=700.0, v_out=700.0, f_s=5e3)

    def test_nonpositive_ratings_rejected(self):
        """Zero power or frequency is degenerate."""
        with pytest.raises(DegenerateInput):
            BoostDesignInput(p=0.0, v_in=290.0, v_out=700.0, f_s=5e3)
        with pytest.raises(DegenerateInput):
            BoostDesignInput(p=1e5, v_in=290.0, v_out=700.0, f_s=0.0)

    def test_ripple_fractions_bounded(self):
        """Ripple fractions outside (0, 1) are degenerate."""
        with pytest.raises(DegenerateInput):
            BoostDesignInput(p=1e5, v_in=290.0, v_out=700.0, f_s=5e3, ripple_i_frac=0.0)
        with pytest.raises(DegenerateInput):
            BoostDesignInput(p=1e5, v_in=290.0, v_out=700.0, f_s=5e3, ripple_v_frac=1.0)

    def test_output_type_guards(self):
        """BoostDesign rejects non-positive component values."""
        with pytest.raises(DegenerateInput):
            BoostDesign(i_out_max=1.0, delta_i_l=1.0, delta_v_out=1.0, l=0.0, c=1.0)


# ======================================================================
# LCL filter
# ======================================================================


class TestLCLDesign:
    """Grid-side filter sizing at the 100 kW / 230 V / 700 V / 10 kHz point."""

    def test_base_quantities(self):
        """omega_g = 2*pi*50, z_b = 1.5870 ohm, c_b = 1/(omega_g * z_b)."""
        out = lcl_design(LCL_IN)
        assert abs(out.omega_g - 2.0 * math.pi * 50.0) == 0.0
        assert abs(out.z_b - 1.5870) <= 0.001 * 1.5870, f"z_b = {out.z_b!r}"
        assert out.c_b == 1.0 / (out.omega_g * out.z_b)

    def test_current_ratings(self):
        """i_max = 227.7317 A and delta_i_max = 22.7732 A (0.9 derate)."""
        out = lcl_design(LCL_IN)
        oracle = 100_000.0 * math.sqrt(2.0) / (3.0 * 230.0 * 0.9)
        assert out.i_max == oracle
        assert abs(out.i_max - 227.7317) <= 0.001 * 227.7317
        assert out.delta_i_max == 0.10 * out.i_max
        assert abs(out.delta_i_max - 22.7732) <= 0.001 * 22.7732

    def test_filter_capacitance(self):
        """c_g = 0.05 * c_b = 100.29 uF."""
        out = lcl_design(LCL_IN)
        assert out.c_g == 0.05 * out.c_b
        assert abs(out.c_g - 100.29e-6) <= 0.001 * 100.29e-6, (
            f"c_g = {out.c_g * 1e6:.3f} uF"
        )

    def test_inverter_side_inductor(self):
        """l_1 = v_dc / (6 * f_sw * delta_i_max) = 512.3 uH.

        Hand oracle: 700 / (6 * 10e3 * 22.7732) = 512.30 uH.  Catalog
        values near 0.6 mH are a common rounding-up choice but do not
        follow from this expression.
        """
        out = lcl_design(LCL_IN)
        oracle = 700.0 / (6.0 * 10_000.0 * (0.10 * 100_000.0 * math.sqrt(2.0) / (3.0 * 230.0 * 0.9)))
        assert out.l_1 == oracle
        assert abs(out.l_1 - 512.3e-6) <= 0.005 * 512.3e-6, (
            f"l_1 = {out.l_1 * 1e6:.2f} uH"
        )

    def test_grid_side_inductor(self):
        """l_2 = sqrt(1/atten^2 + 1) / (c_g * omega_sw^2) = 12.88 uH.

        Hand oracle at atten_factor 0.2: sqrt(26) / (100.29e-6 * (2*pi*1e4)^2).
        A 15 uH catalog value is close but not produced by this expression.
        """
        out = lcl_design(LCL_IN)
        omega_sw = 2.0 * math.pi * 10_000.0
        oracle = math.sqrt(1.0 / 0.2**2 + 1.0) / (out.c_g * omega_sw**2)
        assert out.l_2 == oracle
        assert abs(out.l_2 - 12.88e-6) <= 0.005 * 12.88e-6, (
            f"l_2 = {out.l_2 * 1e6:.3f} uH"
        )

    def test_inductor_ordering(self):
        """The grid-side inductor is the smaller of the two."""
        out = lcl_design(LCL_IN)
        assert out.l_2 < out.l_1

    def test_switching_frequency_scaling(self):
        """Doubling f_sw halves l_1 and quarters l_2; c_g is unchanged."""
        base = lcl_design(LCL_IN)
        fast = lcl_design(
            LCLDesignInput(p=100_000.0, v_g=230.0, f_g=50.0, v_dc=700.0, f_sw=20_000.0)
        )
        assert fast.c_g == base.c_g
        assert fast.l_1 == base.l_1 / 2.0
        assert abs(fast.l_2 - base.l_2 / 4.0) <= 1e-12 * base.l_2

    def test_power_scaling(self):
        """Property: z_b, c_b, i_max respond to power as 1/p, p, p."""
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = float(rng.uniform(1e4, 1e6))
            k = float(rng.uniform(1.1, 8.0))
            a = lcl_design(LCLDesignInput(p=p, v_g=230.0, f_g=50.0, v_dc=700.0, f_sw=1e4))
            b = lcl_design(LCLDesignInput(p=k * p, v_g=230.0, f_g=50.0, v_dc=700.0, f_sw=1e4))
            assert abs(b.z_b - a.z_b / k) <= 1e-12 * a.z_b
            assert abs(b.c_b - a.c_b * k) <= 1e-12 * b.c_b
            assert abs(b.i_max - a.i_max * k) <= 1e-9 * b.i_max

    def test_degenerate_inputs_rejected(self):
        """Non-positive ratings and out-of-range fractions are degenerate."""
        with pytest.raises(DegenerateInput):
            LCLDesignInput(p=-1.0, v_g=230.0, f_g=50.0, v_dc=700.0, f_sw=1e4)
        with pytest.raises(DegenerateInput):
            LCLDesignInput(p=1e5, v_g=230.0, f_g=50.0, v_dc=700.0, f_sw=1e4, cap_frac=1.5)


# ======================================================================
# Resonance placement
# ======================================================================


class TestResonanceCheck:
    """LCL resonance frequency against the (10*f_g, f_sw/2) band."""

    def test_reference_filter_passes(self):
        """0.6 mH / 15 uH / 100.29 uF resonates at 4154 Hz, inside the band."""
        rep = resonance_check(0.6e-3, 15e-6, 100.29e-6, 50.0, 10_000.0)
        assert abs(rep.f_res - 4154.0) <= 0.01 * 4154.0, f"f_res = {rep.f_res:.1f} Hz"
        assert rep.f_min == 500.0
        assert rep.f_max == 5_000.0
        assert rep.passed

    def test_alternate_grid_inductor(self):
        """With l_2 = 15.15 uH the resonance moves to 4134 Hz, still passing."""
        rep = resonance_check(0.6e-3, 15.15e-6, 100.29e-6, 50.0, 10_000.0)
        assert abs(rep.f_res - 4134.0) <= 0.01 * 4134.0, f"f_res = {rep.f_res:.1f} Hz"
        assert rep.passed

    def test_omega_consistency(self):
        """f_res is omega_res / 2*pi, and omega matches the closed form."""
        rep = resonance_check(0.6e-3, 15e-6, 100.29e-6, 50.0, 10_000.0)
        oracle = math.sqrt((0.6e-3 + 15e-6) / (0.6e-3 * 15e-6 * 100.29e-6))
        assert rep.omega_res == oracle
        assert abs(rep.f_res - rep.omega_res / (2.0 * math.pi)) <= 1e-12 * rep.f_res

    def test_oversized_capacitor_fails(self):
        """A huge capacitor drags the resonance below 10 * f_g."""
        rep = resonance_check(0.6e-3, 15e-6, 1.0, 50.0, 10_000.0)
        assert rep.f_res < rep.f_min
        assert not rep.passed

    def test_tiny_capacitor_fails_high(self):
        """A tiny capacitor pushes the resonance above f_sw / 2."""
        rep = resonance_check(0.6e-3, 15e-6, 1e-9, 50.0, 10_000.0)
        assert rep.f_res > rep.f_max
        assert not rep.passed

    def test_scale_invariance(self):
        """Property: scaling l, c by k and both bounds by 1/k preserves passed."""
        rng = np.random.default_rng(19)
        for _ in range(200):
            k = float(rng.uniform(0.05, 20.0))
            base = resonance_check(0.6e-3, 15e-6, 100.29e-6, 50.0, 10_000.0)
            scaled = resonance_check(
                0.6e-3 * k, 15e-6 * k, 100.29e-6 * k, 50.0 / k, 10_000.0 / k
            )
            assert abs(scaled.f_res - base.f_res / k) <= 1e-9 * scaled.f_res
            assert scaled.passed == base.passed

    def test_nonpositive_values_rejected(self):
        """Zero or negative components are degenerate."""
        with pytest.raises(DegenerateInput):
            resonance_check(0.0, 15e-6, 100e-6, 50.0, 1e4)

    def test_report_derives_f_res_and_passed(self):
        """ResonanceReport computes f_res and passed from omega_res and the
        bounds, takes neither as an argument, and keeps its field order."""
        report = ResonanceReport(omega_res=2.0 * math.pi * 1000.0, f_min=500.0, f_max=5000.0)
        assert list(asdict(report)) == ["omega_res", "f_res", "f_min", "f_max", "passed"]
        assert report.f_res == 2.0 * math.pi * 1000.0 / (2.0 * math.pi) and report.passed
        assert not ResonanceReport(report.omega_res, report.f_res, 5000.0).passed  # strict bounds
        assert not ResonanceReport(report.omega_res, 500.0, report.f_res).passed
        with pytest.raises(TypeError):
            ResonanceReport(omega_res=6283.0, f_res=1000.0, f_min=500.0, f_max=5000.0)
        with pytest.raises(DegenerateInput, match="^f_min must be finite, got inf$"):
            ResonanceReport(omega_res=6283.0, f_min=math.inf, f_max=5000.0)


# ======================================================================
# Capacitor bank sizing
# ======================================================================


class TestCapbankSize:
    """Wye-bank capacitance from a reactive rating."""

    def test_reference_bank(self):
        """100 kVAr at 230 V / 50 Hz needs 2005.7 uF per phase."""
        c = capbank_size(100_000.0, 230.0, 50.0)
        oracle = 100_000.0 / (3.0 * 2.0 * math.pi * 50.0 * 230.0**2)
        assert c == oracle
        assert abs(c - 2005.7e-6) <= 0.001 * 2005.7e-6, f"C = {c * 1e6:.2f} uF"

    def test_zero_demand_zero_bank(self):
        """Zero rating sizes a zero capacitor."""
        assert capbank_size(0.0, 230.0, 50.0) == 0.0

    def test_linearity_exact(self):
        """Doubling the rating doubles the capacitance bitwise."""
        assert capbank_size(200_000.0, 230.0, 50.0) == 2.0 * capbank_size(
            100_000.0, 230.0, 50.0
        )

    def test_size_then_rate_round_trip(self):
        """Property: 3 * omega * v^2 * C recovers q_rated to 1e-12 relative."""
        rng = np.random.default_rng(23)
        for _ in range(300):
            q = float(rng.uniform(1e3, 1e6))
            v = float(rng.uniform(100.0, 500.0))
            f = float(rng.choice([50.0, 60.0]))
            c = capbank_size(q, v, f)
            back = 3.0 * (2.0 * math.pi * f) * v**2 * c
            assert abs(back - q) <= 1e-12 * q, f"round trip {back!r} vs {q!r}"

    def test_invalid_inputs_rejected(self):
        """Negative rating or non-positive voltage/frequency is degenerate."""
        with pytest.raises(DegenerateInput):
            capbank_size(-1.0, 230.0, 50.0)
        with pytest.raises(DegenerateInput):
            capbank_size(1e5, 0.0, 50.0)
        with pytest.raises(DegenerateInput):
            capbank_size(1e5, 230.0, -50.0)

    @pytest.mark.parametrize(
        ("q_rated", "v_phase", "f_g"),
        [
            pytest.param(1e5, 1e-200, 50.0, id="voltage-square-underflow"),
            pytest.param(1e5, 1e200, 50.0, id="voltage-square-overflow"),
            pytest.param(1e300, 1e-100, 50.0, id="capacitance-overflow"),
        ],
    )
    def test_beyond_float_range_is_degenerate(self, q_rated, v_phase, f_g):
        """Finite ratings whose capacitance arithmetic leaves the float range are
        rejected as DegenerateInput naming the inputs, not a ZeroDivisionError."""
        with pytest.raises(DegenerateInput) as err:
            capbank_size(q_rated, v_phase, f_g)
        assert str(err.value) == (
            f"inputs q_rated = {q_rated!r}, v_phase = {v_phase!r}, f_g = {f_g!r} "
            "put a computed value beyond the float range"
        )
