"""Tests for pvgrid.compensation — compensator dispatch and power factor."""

from __future__ import annotations

import math

import numpy as np
import pytest

from pvgrid.compensation import (
    FixedCapacitor,
    NoCompensator,
    PFSense,
    Statcom,
    capbank_q,
    dispatch,
    power_factor,
    statcom_dispatch,
)
from pvgrid.component_design import capbank_size
from pvgrid.errors import InvalidValue, PVGridError, UndefinedPF
from pvgrid.pv_model import SingleDiodeParams


# ======================================================================
# Non-finite inputs of the library types
# ======================================================================

# Each library record or function with float inputs, called with valid values.
_FINITE_CALLS = {
    "Statcom": (Statcom, {"q_max": 2e5, "loss_floor_w": 800.0, "loss_frac": 0.01}),
    "FixedCapacitor": (FixedCapacitor, {"q_rated": 1e5, "v_rated": 230.0, "loss_w": 1300.0}),
    "SingleDiodeParams": (SingleDiodeParams, {"i_ph": 7.8, "i_0": 1e-9, "n_ideality": 1.0,
                                              "r_s": 0.4, "r_sh": 480.0, "a": 1.5}),
    "capbank_size": (capbank_size, {"q_rated": 1e5, "v_phase": 230.0, "f_g": 50.0}),
    "statcom_dispatch": (lambda q_demand: statcom_dispatch(q_demand, Statcom(q_max=2e5)),
                         {"q_demand": 1e5}),
    "capbank_q": (capbank_q, {"q_rated": 1e5, "v_rated": 230.0, "v": 230.0, "loss_w": 0.0}),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    ("call", "name"),
    [(call, name) for call, (_, kw) in _FINITE_CALLS.items() for name in kw],
)
def test_non_finite_value_rejected(call, name, value):
    """NaN or an infinity in any float input is rejected with a message naming
    it, as the scenario parser rejects it, instead of being computed with."""
    fn, kw = _FINITE_CALLS[call]
    fn(**kw)
    with pytest.raises((ValueError, PVGridError), match=f"{name} must be .*finite"):
        fn(**{**kw, name: value})


# ======================================================================
# Fixed capacitor bank
# ======================================================================


class TestCapbankQ:
    """Voltage-squared output law of a fixed bank."""

    def test_rated_voltage_gives_rated_output(self):
        """At v = v_rated the bank delivers exactly its rating."""
        out = capbank_q(100_000.0, 230.0, 230.0)
        assert out.q_out == 100_000.0
        assert out.p_loss == 0.0

    def test_depressed_voltage(self):
        """At 95% voltage the output drops to 90.25% of rating."""
        out = capbank_q(100_000.0, 230.0, 218.5)
        assert abs(out.q_out - 90_250.0) <= 1e-12 * 90_250.0, f"{out.q_out!r}"

    def test_zero_voltage_zero_output(self):
        """A dead bus draws nothing from the bank."""
        assert capbank_q(100_000.0, 230.0, 0.0).q_out == 0.0

    def test_loss_passthrough(self):
        """The feeder loss rides along unchanged."""
        out = capbank_q(100_000.0, 230.0, 230.0, loss_w=1300.0)
        assert out.p_loss == 1300.0

    def test_negative_voltage_rejected(self):
        """Negative bus voltage is a caller error."""
        with pytest.raises(ValueError):
            capbank_q(100_000.0, 230.0, -1.0)

    def test_zero_rated_voltage_rejected(self):
        """A zero rated voltage is rejected naming v_rated, not divided by."""
        with pytest.raises(InvalidValue, match="^v_rated must be finite and positive, got 0.0$"):
            capbank_q(1e5, 0.0, 230.0)

    def test_output_beyond_float_range_rejected(self):
        """A bank whose output at the bus voltage overflows is rejected."""
        with pytest.raises(InvalidValue, match=r"v/v_rated\)\^2 must be finite, got inf"):
            capbank_q(1e5, 1e-300, 230.0)

    def test_quadratic_scaling(self):
        """Property: q(k*v) = k^2 * q(v) for random banks and voltages."""
        rng = np.random.default_rng(5)
        for _ in range(300):
            q_rated = float(rng.uniform(1e3, 5e5))
            v_rated = float(rng.uniform(100.0, 500.0))
            v = float(rng.uniform(0.0, 600.0))
            k = float(rng.uniform(0.1, 3.0))
            q1 = capbank_q(q_rated, v_rated, v).q_out
            q2 = capbank_q(q_rated, v_rated, k * v).q_out
            assert abs(q2 - k * k * q1) <= 1e-9 * max(q1, 1.0), (
                f"V^2 law violated: {q2!r} vs {k * k * q1!r}"
            )


# ======================================================================
# STATCOM dispatch
# ======================================================================


class TestStatcomDispatch:
    """Clamped demand-following dispatch."""

    def test_tracks_demand_inside_rating(self):
        """Demand below the rating is matched exactly."""
        cfg = Statcom(q_max=200_000.0)
        out = statcom_dispatch(150_000.0, cfg)
        assert out.q_out == 150_000.0

    def test_clamps_at_positive_rating(self):
        """Demand above +q_max saturates at +q_max."""
        cfg = Statcom(q_max=200_000.0)
        assert statcom_dispatch(350_000.0, cfg).q_out == 200_000.0

    def test_clamps_at_negative_rating(self):
        """Demand below -q_max saturates at -q_max."""
        cfg = Statcom(q_max=200_000.0)
        assert statcom_dispatch(-350_000.0, cfg).q_out == -200_000.0

    def test_standby_loss_floor(self):
        """Zero demand still pays the loss floor."""
        cfg = Statcom(q_max=200_000.0, loss_floor_w=800.0)
        out = statcom_dispatch(0.0, cfg)
        assert out.q_out == 0.0
        assert out.p_loss == 800.0

    def test_loss_grows_with_dispatch(self):
        """p_loss = floor + frac * |q_out|, symmetric in sign."""
        cfg = Statcom(q_max=200_000.0, loss_floor_w=800.0, loss_frac=0.01)
        pos = statcom_dispatch(100_000.0, cfg)
        neg = statcom_dispatch(-100_000.0, cfg)
        assert pos.p_loss == 800.0 + 0.01 * 100_000.0
        assert neg.p_loss == pos.p_loss

    def test_clamp_properties(self):
        """Property: |q_out| <= q_max, idempotence, and 1-Lipschitz tracking."""
        rng = np.random.default_rng(13)
        for _ in range(500):
            cfg = Statcom(
                q_max=float(rng.uniform(1e3, 3e5)),
                loss_floor_w=float(rng.uniform(0.0, 2e3)),
                loss_frac=float(rng.uniform(0.0, 0.05)),
            )
            d1 = float(rng.uniform(-6e5, 6e5))
            d2 = float(rng.uniform(-6e5, 6e5))
            q1 = statcom_dispatch(d1, cfg).q_out
            q2 = statcom_dispatch(d2, cfg).q_out
            assert abs(q1) <= cfg.q_max
            assert statcom_dispatch(q1, cfg).q_out == q1, "clamp not idempotent"
            assert abs(q1 - q2) <= abs(d1 - d2) + 1e-12, "clamp not 1-Lipschitz"

    def test_config_validation(self):
        """Ratings and loss parameters outside their domains are rejected."""
        with pytest.raises(ValueError):
            Statcom(q_max=0.0)
        with pytest.raises(ValueError):
            Statcom(q_max=1e5, loss_floor_w=-1.0)
        with pytest.raises(ValueError):
            Statcom(q_max=1e5, loss_frac=0.06)


# ======================================================================
# Unified dispatch
# ======================================================================


class TestDispatch:
    """Mode-independent evaluation entry point."""

    def test_none_mode_is_inert(self):
        """No compensator: zero output, zero loss."""
        out = dispatch(NoCompensator(), q_demand=120_000.0, v=230.0)
        assert out.q_out == 0.0 and out.p_loss == 0.0

    def test_capacitor_mode_ignores_demand(self):
        """A fixed bank follows voltage, not demand."""
        cfg = FixedCapacitor(q_rated=100_000.0, v_rated=230.0, loss_w=1300.0)
        low = dispatch(cfg, q_demand=0.0, v=230.0)
        high = dispatch(cfg, q_demand=500_000.0, v=230.0)
        assert low.q_out == high.q_out == 100_000.0
        assert low.p_loss == 1300.0

    def test_statcom_mode_follows_demand(self):
        """A STATCOM matches demand regardless of voltage."""
        cfg = Statcom(q_max=200_000.0, loss_floor_w=800.0)
        out = dispatch(cfg, q_demand=150_000.0, v=180.0)
        assert out.q_out == 150_000.0
        assert out.p_loss == 800.0

    def test_capacitor_config_validation(self):
        """Bank ratings must be positive; losses non-negative."""
        with pytest.raises(ValueError):
            FixedCapacitor(q_rated=0.0, v_rated=230.0)
        with pytest.raises(ValueError):
            FixedCapacitor(q_rated=1e5, v_rated=-230.0)
        with pytest.raises(ValueError):
            FixedCapacitor(q_rated=1e5, v_rated=230.0, loss_w=-5.0)


# ======================================================================
# Power factor
# ======================================================================


class TestPowerFactor:
    """Magnitude and sense of a P/Q flow."""

    def test_unity(self):
        """Pure real flow has pf 1 and unity sense."""
        pf, sense = power_factor(100_000.0, 0.0)
        assert pf == 1.0
        assert sense is PFSense.UNITY

    def test_lagging(self):
        """Consumed vars read lagging; 50 kW / 100 kVAr gives pf 0.4472."""
        pf, sense = power_factor(50_000.0, 100_000.0)
        assert abs(pf - 0.4472136) < 1e-6, f"pf = {pf!r}"
        assert sense is PFSense.LAGGING

    def test_leading(self):
        """Supplied vars read leading with the same magnitude."""
        pf_lag, _ = power_factor(50_000.0, 100_000.0)
        pf_lead, sense = power_factor(50_000.0, -100_000.0)
        assert pf_lead == pf_lag
        assert sense is PFSense.LEADING

    def test_sign_of_p_is_irrelevant(self):
        """Reverse real flow has the same pf magnitude."""
        pf_fwd, _ = power_factor(50_000.0, 100_000.0)
        pf_rev, _ = power_factor(-50_000.0, 100_000.0)
        assert pf_rev == pf_fwd

    def test_zero_flow_undefined(self):
        """p = q = 0 has no defined power factor."""
        with pytest.raises(UndefinedPF):
            power_factor(0.0, 0.0)

    def test_reactive_only_flow(self):
        """Pure reactive exchange has pf 0."""
        pf, sense = power_factor(0.0, 50_000.0)
        assert pf == 0.0
        assert sense is PFSense.LAGGING

    def test_range_and_scale_invariance(self):
        """Property: pf in [0, 1] and invariant under positive scaling."""
        rng = np.random.default_rng(17)
        for _ in range(500):
            p = float(rng.uniform(-3e5, 3e5))
            q = float(rng.uniform(-3e5, 3e5))
            if p == 0.0 and q == 0.0:
                continue
            k = float(rng.uniform(1e-3, 1e3))
            pf, _ = power_factor(p, q)
            pf_scaled, _ = power_factor(k * p, k * q)
            assert 0.0 <= pf <= 1.0
            assert abs(pf_scaled - pf) <= 1e-12, f"scaling changed pf by {pf_scaled - pf:.2e}"
