"""Tests for pvgrid.compensation — compensator dispatch and power factor on columns."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvgrid.compensation import FixedCapacitor, NoCompensator, Statcom, dispatch, power_factor
from pvgrid.component_design import capbank_size
from pvgrid.errors import InvalidValue, PVGridError
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
    # Each mode judges its bus voltage, and a load column with one bad entry, alike.
    **{
        f"dispatch-{config.mode}": (
            lambda q_load, v, config=config: dispatch(config, np.array([1e5, q_load]), v),
            {"q_load": 1e5, "v": 230.0})
        for config in (NoCompensator(), FixedCapacitor(q_rated=1e5, v_rated=230.0),
                       Statcom(q_max=2e5))
    },
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    ("call", "name"),
    [(call, name) for call, (_, kw) in _FINITE_CALLS.items() for name in kw],
)
def test_non_finite_value_rejected(call, name, value):
    """NaN or an infinity in any float input is rejected with a message naming
    it, as the scenario parser rejects it, instead of being computed with.  A
    column names its bad entry."""
    fn, kw = _FINITE_CALLS[call]
    fn(**kw)
    with pytest.raises((ValueError, PVGridError), match=f"{name} must be .*finite.*, got {value}"):
        fn(**{**kw, name: value})


# ======================================================================
# Fixed capacitor bank
# ======================================================================


class TestCapacitorLaw:
    """Voltage-squared output law of a fixed bank, through ``dispatch``."""

    @staticmethod
    def law(v, q_load=(0.0,), loss_w=0.0, q_rated=100_000.0, v_rated=230.0):
        """``(q_out, p_loss)`` of a bank over the load column ``q_load``."""
        return dispatch(FixedCapacitor(q_rated=q_rated, v_rated=v_rated, loss_w=loss_w),
                        list(q_load), v)

    def test_rated_voltage_gives_rated_output(self):
        """At v = v_rated the bank delivers exactly its rating."""
        q_out, p_loss = self.law(230.0)
        assert q_out.tolist() == [100_000.0]
        assert p_loss.tolist() == [0.0]

    def test_depressed_voltage(self):
        """At 95% voltage the output drops to 90.25% of rating."""
        q_out = self.law(218.5)[0].item()
        assert abs(q_out - 90_250.0) <= 1e-12 * 90_250.0, f"{q_out!r}"

    def test_zero_voltage_zero_output(self):
        """A dead bus draws nothing from the bank."""
        assert self.law(0.0)[0].tolist() == [0.0]

    def test_loss_passthrough(self):
        """The feeder loss rides along unchanged, once per entry of the load column."""
        q_out, p_loss = self.law(230.0, q_load=(0.0, 500_000.0), loss_w=1300.0)
        assert q_out.tolist() == [100_000.0, 100_000.0] and p_loss.tolist() == [1300.0, 1300.0]

    def test_negative_voltage_rejected(self):
        """Negative bus voltage is a caller error, and so is an array of voltages."""
        with pytest.raises(InvalidValue, match="^v must be finite and non-negative, got -1.0$"):
            self.law(-1.0)
        with pytest.raises(InvalidValue, match=r"^v must be finite and non-negative, got array"):
            self.law(np.array([230.0, -1.0, -2.0]))

    def test_zero_rated_voltage_rejected(self):
        """A zero rated voltage is rejected naming v_rated, not divided by."""
        with pytest.raises(InvalidValue, match="^v_rated must be finite and positive, got 0.0$"):
            self.law(230.0, v_rated=0.0)

    @pytest.mark.filterwarnings("error")
    def test_output_beyond_float_range_rejected(self):
        """A bank whose output at the bus voltage overflows is rejected, for a
        load column of one entry and of two, without a numpy warning."""
        for q_load in ((0.0,), (0.0, 1e5)):
            with pytest.raises(InvalidValue,
                               match=r"^q_rated \* \(v/v_rated\)\^2 must be finite, got inf$"):
                self.law(230.0, q_load=q_load, q_rated=1e5, v_rated=1e-300)

    def test_quadratic_scaling(self):
        """Property: q(k*v) = k^2 * q(v) for random banks and voltages."""
        rng = np.random.default_rng(5)
        for _ in range(300):
            q_rated = float(rng.uniform(1e3, 5e5))
            v_rated = float(rng.uniform(100.0, 500.0))
            v = float(rng.uniform(0.0, 600.0))
            k = float(rng.uniform(0.1, 3.0))
            q1 = self.law(v, q_rated=q_rated, v_rated=v_rated)[0].item()
            q2 = self.law(k * v, q_rated=q_rated, v_rated=v_rated)[0].item()
            assert abs(q2 - k * k * q1) <= 1e-9 * max(q1, 1.0), (
                f"V^2 law violated: {q2!r} vs {k * k * q1!r}"
            )


# ======================================================================
# STATCOM dispatch
# ======================================================================


class TestStatcomLaw:
    """Clamped demand-following law of a STATCOM, through ``dispatch``."""

    @staticmethod
    def law(q_load, config):
        """``(q_out, p_loss)`` of one load value, as Python floats."""
        q_out, p_loss = dispatch(config, [q_load], 230.0)
        return q_out.item(), p_loss.item()

    def test_tracks_demand_inside_rating(self):
        """Demand below the rating is matched exactly."""
        cfg = Statcom(q_max=200_000.0)
        q_out, _ = self.law(150_000.0, cfg)
        assert q_out == 150_000.0

    def test_clamps_at_positive_rating(self):
        """Demand above +q_max saturates at +q_max."""
        cfg = Statcom(q_max=200_000.0)
        assert self.law(350_000.0, cfg)[0] == 200_000.0

    def test_clamps_at_negative_rating(self):
        """Demand below -q_max saturates at -q_max."""
        cfg = Statcom(q_max=200_000.0)
        assert self.law(-350_000.0, cfg)[0] == -200_000.0

    def test_standby_loss_floor(self):
        """Zero demand still pays the loss floor."""
        cfg = Statcom(q_max=200_000.0, loss_floor_w=800.0)
        q_out, p_loss = self.law(0.0, cfg)
        assert q_out == 0.0
        assert p_loss == 800.0

    def test_loss_grows_with_dispatch(self):
        """p_loss = floor + frac * |q_out|, symmetric in sign."""
        cfg = Statcom(q_max=200_000.0, loss_floor_w=800.0, loss_frac=0.01)
        _, p_loss = dispatch(cfg, np.array([100_000.0, -100_000.0, 300_000.0]), 230.0)
        assert p_loss.tolist() == [800.0 + 0.01 * 100_000.0] * 2 + [800.0 + 0.01 * 200_000.0]

    @pytest.mark.filterwarnings("error")
    def test_loss_beyond_float_range_rejected(self):
        """A loss column that overflows is rejected, not returned as inf."""
        cfg = Statcom(q_max=1e308, loss_floor_w=sys.float_info.max, loss_frac=0.05)
        with pytest.raises(InvalidValue, match="^p_loss must be finite and non-negative, got inf$"):
            dispatch(cfg, np.array([0.0, 1e308]), 230.0)

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
            q1, _ = self.law(d1, cfg)
            q2, _ = self.law(d2, cfg)
            assert abs(q1) <= cfg.q_max
            assert self.law(q1, cfg)[0] == q1, "clamp not idempotent"
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
    """Mode-independent dispatch of a load-q column."""

    def test_none_mode_is_inert(self):
        """No compensator: zero output, zero loss, one entry per load value."""
        q_out, p_loss = dispatch(NoCompensator(), [120_000.0, -5.0], v=230.0)
        assert q_out.tolist() == p_loss.tolist() == [0.0, 0.0]

    def test_capacitor_mode_ignores_demand(self):
        """A fixed bank follows voltage, not demand."""
        cfg = FixedCapacitor(q_rated=100_000.0, v_rated=230.0, loss_w=1300.0)
        q_out, p_loss = dispatch(cfg, [0.0, 500_000.0], v=230.0)
        assert q_out.tolist() == [100_000.0, 100_000.0]
        assert p_loss.tolist() == [1300.0, 1300.0]

    def test_statcom_mode_follows_demand(self):
        """A STATCOM matches demand regardless of voltage."""
        cfg = Statcom(q_max=200_000.0, loss_floor_w=800.0)
        q_out, p_loss = dispatch(cfg, [150_000.0, -250_000.0], v=180.0)
        assert q_out.tolist() == [150_000.0, -200_000.0]
        assert p_loss.tolist() == [800.0, 800.0]

    def test_capacitor_config_validation(self):
        """Bank ratings must be positive; losses non-negative."""
        with pytest.raises(ValueError):
            FixedCapacitor(q_rated=0.0, v_rated=230.0)
        with pytest.raises(ValueError):
            FixedCapacitor(q_rated=1e5, v_rated=-230.0)
        with pytest.raises(ValueError):
            FixedCapacitor(q_rated=1e5, v_rated=230.0, loss_w=-5.0)


# Inputs that every mode rejects, from the mode's config, and the input each names.
_BAD_INPUTS = {
    "nan-entry": (lambda c: (c, [1e5, math.nan], 230.0), "q_load"),
    "inf-entry": (lambda c: (c, [1e5, math.inf], 230.0), "q_load"),
    "-inf-entry": (lambda c: (c, np.array([-math.inf, 1e5]), 230.0), "q_load"),
    "bool-entry": (lambda c: (c, [1e5, True], 230.0), "q_load"),
    "bool-array": (lambda c: (c, np.array([True, False]), 230.0), "q_load"),
    "number-q_load": (lambda c: (c, 1e5, 230.0), "q_load"),
    "table-q_load": (lambda c: (c, [[1e5, 2e5]], 230.0), "q_load"),
    "ragged-q_load": (lambda c: (c, [1.0, [2.0]], 230.0), "q_load"),
    "str-entry": (lambda c: (c, [1e5, "2"], 230.0), "q_load"),
    "negative-v": (lambda c: (c, [1e5], -1.0), "v"),
    "nan-v": (lambda c: (c, [1e5], math.nan), "v"),
    "bool-v": (lambda c: (c, [1e5], True), "v"),
    "mode-name-config": (lambda c: (c.mode, [1e5], 230.0), "config"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(("bad", "name"), _BAD_INPUTS.values(), ids=_BAD_INPUTS)
@pytest.mark.parametrize(
    "config", [NoCompensator(), FixedCapacitor(q_rated=1e5, v_rated=230.0), Statcom(q_max=2e5)],
    ids=lambda config: config.mode,
)
def test_every_mode_judges_its_inputs_alike(config, bad, name):
    """A load column that is not a column, or holds an entry that is not a
    finite real number (a bool included), a bus voltage that is not one finite
    non-negative number, and a config that is not a compensator are each an
    InvalidValue naming the input, whatever the mode, without a warning."""
    with pytest.raises(InvalidValue, match=f"^{name} must be "):
        dispatch(*bad(config))


def _scalar_dispatch(config, q: float, v: float) -> tuple[float, float]:
    """The dispatch formula of each mode for one load value, in Python floats."""
    if isinstance(config, Statcom):
        q_out = min(max(q, -config.q_max), config.q_max)
        return q_out, config.loss_floor_w + config.loss_frac * abs(q_out)
    if isinstance(config, FixedCapacitor):
        ratio = v / config.v_rated
        return config.q_rated * ratio * ratio, config.loss_w
    return 0.0, 0.0


_RATING = st.floats(1.0, 1e12)
_LOSS = st.floats(0.0, 1e6)
_CONFIGS = st.one_of(
    st.just(NoCompensator()),
    st.builds(FixedCapacitor, q_rated=_RATING, v_rated=st.floats(1.0, 1e5), loss_w=_LOSS),
    st.builds(Statcom, q_max=_RATING, loss_floor_w=_LOSS, loss_frac=st.floats(0.0, 0.05)),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    config=_CONFIGS,
    q_load=st.lists(st.floats(-1e13, 1e13), max_size=20),
    p=st.floats(-1e13, 1e13),
    v=st.floats(0.0, 1e5),
)
def test_column_dispatch_is_the_scalar_formula(config, q_load, p, v):
    """Property: for each mode, dispatching a load-q column gives, entry by
    entry and bit for bit, the scalar formula of that mode; the grid power
    factor of the balance lies in [0, 1]."""
    q_out, p_loss = dispatch(config, q_load, v)
    want = [_scalar_dispatch(config, q, v) for q in q_load]
    assert list(map(float.hex, q_out.tolist())) == [float.hex(w[0]) for w in want]
    assert list(map(float.hex, p_loss.tolist())) == [float.hex(w[1]) for w in want]
    pf = power_factor(np.full(len(q_load), p), np.array(q_load) - q_out)
    assert pf.shape == (len(q_load),) and ((0.0 <= pf) & (pf <= 1.0)).all()


# ======================================================================
# Power factor
# ======================================================================


class TestPowerFactor:
    """Magnitude |p|/sqrt(p^2 + q^2) of a P/Q flow, entry by entry."""

    def test_unity(self):
        """Pure real flow has pf 1."""
        assert power_factor(100_000.0, 0.0) == 1.0

    def test_lagging(self):
        """Consumed vars: 50 kW / 100 kVAr gives pf 0.4472."""
        pf = power_factor(50_000.0, 100_000.0)
        assert abs(pf - 0.4472136) < 1e-6, f"pf = {pf!r}"

    def test_leading(self):
        """Supplied vars give the same magnitude as consumed ones."""
        assert power_factor(50_000.0, -100_000.0) == power_factor(50_000.0, 100_000.0)

    def test_sign_of_p_is_irrelevant(self):
        """Reverse real flow has the same pf magnitude."""
        assert power_factor(-50_000.0, 100_000.0) == power_factor(50_000.0, 100_000.0)

    def test_zero_flow_is_unity(self):
        """p = q = 0 has no power factor; it is reported as unity, in a column too."""
        assert power_factor(0.0, 0.0) == 1.0
        assert power_factor(np.array([0.0, 3.0]), np.array([0.0, 4.0])).tolist() == [1.0, 0.6]

    def test_reactive_only_flow(self):
        """Pure reactive exchange has pf 0."""
        assert power_factor(0.0, 50_000.0) == 0.0

    def test_range_and_scale_invariance(self):
        """Property: pf in [0, 1] and invariant under positive scaling."""
        rng = np.random.default_rng(17)
        p = rng.uniform(-3e5, 3e5, 500)
        q = rng.uniform(-3e5, 3e5, 500)
        k = rng.uniform(1e-3, 1e3, 500)
        pf = power_factor(p, q)
        assert ((0.0 <= pf) & (pf <= 1.0)).all()
        assert np.abs(power_factor(k * p, k * q) - pf).max() <= 1e-12
