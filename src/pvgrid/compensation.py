"""Steady-state reactive compensator models and power-factor arithmetic.

Sign convention: positive ``q_out`` means vars injected toward the load
(capacitive behavior); positive load q means vars consumed.  Compensator
real losses are drawn from the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Union

from .errors import UndefinedPF, require_finite


@dataclass(frozen=True)
class NoCompensator:
    """Placeholder for the uncompensated mode."""

    mode: ClassVar[str] = "none"
    label: ClassVar[str] = "compensator"

    def dispatch(self, q_demand: float, v: float) -> CompensatorOutput:
        """No output and no loss."""
        return CompensatorOutput(q_out=0.0, p_loss=0.0)


@dataclass(frozen=True)
class FixedCapacitor:
    """Fixed shunt capacitor bank; output follows the voltage-squared law."""

    mode: ClassVar[str] = "fixed_capacitor"
    label: ClassVar[str] = "capacitor bank"

    q_rated: float  # var, at rated voltage
    v_rated: float  # V
    loss_w: float = 1300.0  # W, constant feeder/breaker loss

    def __post_init__(self) -> None:
        require_finite(vars(self))
        if self.q_rated <= 0.0:
            raise ValueError(f"q_rated must be positive, got {self.q_rated}")
        if self.v_rated <= 0.0:
            raise ValueError(f"v_rated must be positive, got {self.v_rated}")
        if self.loss_w < 0.0:
            raise ValueError(f"loss_w must be non-negative, got {self.loss_w}")

    def dispatch(self, q_demand: float, v: float) -> CompensatorOutput:
        """Output at bus voltage ``v``; the demand is ignored."""
        return capbank_q(self.q_rated, self.v_rated, v, loss_w=self.loss_w)


@dataclass(frozen=True)
class Statcom:
    """Demand-following compensator clamped to its rating."""

    mode: ClassVar[str] = "statcom"
    label: ClassVar[str] = "STATCOM"

    q_max: float  # var
    loss_floor_w: float = 800.0  # W, standby/switching loss
    loss_frac: float = 0.0  # extra loss per var dispatched

    def __post_init__(self) -> None:
        require_finite(vars(self))
        if self.q_max <= 0.0:
            raise ValueError(f"q_max must be positive, got {self.q_max}")
        if self.loss_floor_w < 0.0:
            raise ValueError(f"loss_floor_w must be non-negative, got {self.loss_floor_w}")
        if not 0.0 <= self.loss_frac <= 0.05:
            raise ValueError(f"loss_frac must lie in [0, 0.05], got {self.loss_frac}")

    def dispatch(self, q_demand: float, v: float) -> CompensatorOutput:
        """Output tracking ``q_demand``; the voltage is ignored."""
        return statcom_dispatch(q_demand, self)


CompensatorConfig = Union[NoCompensator, FixedCapacitor, Statcom]

# Scenario ``compensator.mode`` -> configuration class.
COMPENSATORS: dict[str, type] = {
    cls.mode: cls for cls in (NoCompensator, FixedCapacitor, Statcom)
}


@dataclass(frozen=True)
class CompensatorOutput:
    """Dispatched reactive power and the real loss of producing it."""

    q_out: float  # var, positive = supplied toward the load
    p_loss: float  # W, drawn from the grid

    def __post_init__(self) -> None:
        if self.p_loss < 0.0:
            raise ValueError(f"p_loss must be non-negative, got {self.p_loss}")


def capbank_q(
    q_rated: float, v_rated: float, v: float, *, loss_w: float = 0.0
) -> CompensatorOutput:
    """Capacitor bank output at bus voltage ``v``: q = q_rated * (v/v_rated)^2.

    The bank is not dispatchable; its output depends on voltage only.
    """
    require_finite({"q_rated": q_rated, "v_rated": v_rated, "v": v, "loss_w": loss_w})
    if v < 0.0:
        raise ValueError(f"bus voltage must be non-negative, got {v}")
    ratio = v / v_rated
    return CompensatorOutput(q_out=q_rated * ratio * ratio, p_loss=loss_w)


def statcom_dispatch(q_demand: float, config: Statcom) -> CompensatorOutput:
    """Track the reactive demand exactly inside the rating, clamp outside.

    q_out = clamp(q_demand, -q_max, +q_max);
    p_loss = loss_floor_w + loss_frac * |q_out|.
    """
    require_finite({"q_demand": q_demand})
    q_out = min(max(q_demand, -config.q_max), config.q_max)
    return CompensatorOutput(
        q_out=q_out, p_loss=config.loss_floor_w + config.loss_frac * abs(q_out)
    )


def dispatch(
    config: CompensatorConfig, q_demand: float, v: float
) -> CompensatorOutput:
    """Evaluate any compensator configuration at one operating point."""
    return config.dispatch(q_demand, v)


class PFSense(Enum):
    """Reactive character of a power flow."""

    LAGGING = "lagging"
    LEADING = "leading"
    UNITY = "unity"


def power_factor(p: float, q: float) -> tuple[float, PFSense]:
    """Power factor |p|/sqrt(p^2 + q^2) and its sense.

    Lagging means reactive power consumed (q > 0), leading means
    supplied (q < 0).

    Raises:
        UndefinedPF: for the zero flow p = q = 0.
    """
    if p == 0.0 and q == 0.0:
        raise UndefinedPF("power factor of a zero power flow is undefined")
    pf = abs(p) / math.hypot(p, q)
    if q > 0.0:
        sense = PFSense.LAGGING
    elif q < 0.0:
        sense = PFSense.LEADING
    else:
        sense = PFSense.UNITY
    return pf, sense
