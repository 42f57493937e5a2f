"""Steady-state reactive compensator models and power-factor arithmetic.

Dispatch works on columns: a compensator maps the load-q column and the bus
voltage to a ``(q_out, p_loss)`` pair of arrays, one entry per load value.

Sign convention: positive ``q_out`` means vars injected toward the load
(capacitive behavior); positive load q means vars consumed.  Compensator
real losses are drawn from the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .errors import NON_NEGATIVE, POSITIVE, Bound, bounded, check_fields, require, require_each

_LOSS_FRAC = Bound("finite and in [0, 0.05]", lambda x: 0.0 <= x <= 0.05,
                   {"minimum": 0, "maximum": 0.05})


@dataclass(frozen=True)
class NoCompensator:
    """Placeholder for the uncompensated mode: no output and no loss."""

    mode: ClassVar[str] = "none"
    label: ClassVar[str] = "compensator"


@dataclass(frozen=True)
class FixedCapacitor:
    """Fixed shunt capacitor bank; output follows the voltage-squared law."""

    mode: ClassVar[str] = "fixed_capacitor"
    label: ClassVar[str] = "capacitor bank"

    q_rated: float = bounded(POSITIVE)  # var, at rated voltage
    v_rated: float = bounded(POSITIVE)  # V
    loss_w: float = bounded(NON_NEGATIVE, 1300.0)  # W, constant feeder/breaker loss

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class Statcom:
    """Demand-following compensator clamped to its rating."""

    mode: ClassVar[str] = "statcom"
    label: ClassVar[str] = "STATCOM"

    q_max: float = bounded(POSITIVE)  # var
    loss_floor_w: float = bounded(NON_NEGATIVE, 800.0)  # W, standby/switching loss
    loss_frac: float = bounded(_LOSS_FRAC, 0.0)  # extra loss per var dispatched

    def __post_init__(self) -> None:
        check_fields(self)


CompensatorConfig = Union[NoCompensator, FixedCapacitor, Statcom]

# Scenario ``compensator.mode`` -> configuration class.
COMPENSATORS: dict[str, type] = {
    cls.mode: cls for cls in (NoCompensator, FixedCapacitor, Statcom)
}


def capbank_q(q_rated: float, v_rated: float, v, *, loss_w: float = 0.0) -> tuple:
    """Capacitor bank ``(q_out, p_loss)`` at bus voltage ``v``, a number or an
    array: q_out = q_rated * (v/v_rated)^2, and p_loss is ``loss_w`` throughout.

    The bank is not dispatchable; its output depends on voltage only.
    """
    require({"q_rated": q_rated, "loss_w": loss_w}, NON_NEGATIVE)
    require_each({"v": v}, NON_NEGATIVE)
    require({"v_rated": v_rated}, POSITIVE)
    with np.errstate(over="ignore"):  # an output past the float range is rejected below
        ratio = v / v_rated
        q_out = q_rated * ratio * ratio
    require_each({"q_rated * (v/v_rated)^2": q_out})
    return q_out, np.full_like(q_out, loss_w)


def statcom_dispatch(q_demand, config: Statcom) -> tuple:
    """STATCOM ``(q_out, p_loss)`` for the reactive demand ``q_demand``, a number
    or an array: track it exactly inside the rating, clamp outside.

    q_out = clamp(q_demand, -q_max, +q_max);
    p_loss = loss_floor_w + loss_frac * |q_out|.
    """
    require_each({"q_demand": q_demand})
    q_out = np.clip(q_demand, -config.q_max, config.q_max)
    with np.errstate(over="ignore"):  # a loss past the float range is rejected below
        p_loss = config.loss_floor_w + config.loss_frac * np.abs(q_out)
    require_each({"p_loss": p_loss}, NON_NEGATIVE)
    return q_out, p_loss


def dispatch(config: CompensatorConfig, q_load, v: float) -> tuple[np.ndarray, np.ndarray]:
    """Compensator ``(q_out, p_loss)`` arrays, one entry per entry of the
    load-q column ``q_load``, at bus voltage ``v``.

    A STATCOM follows the load, a capacitor bank the voltage, and no
    compensator gives zeros.
    """
    q_load = np.asarray(q_load, dtype=float)
    if isinstance(config, Statcom):
        return statcom_dispatch(q_load, config)
    if isinstance(config, FixedCapacitor):
        q_out, p_loss = capbank_q(config.q_rated, config.v_rated, v, loss_w=config.loss_w)
        return np.full_like(q_load, q_out), np.full_like(q_load, p_loss)
    return np.zeros_like(q_load), np.zeros_like(q_load)


def power_factor(p, q) -> np.ndarray:
    """Power factor |p|/sqrt(p^2 + q^2) of each flow, for numbers or arrays.

    A zero flow p = q = 0 has no power factor; it is reported as unity.
    """
    s = np.hypot(p, q)
    return np.divide(np.abs(p), s, out=np.ones(np.shape(s)), where=s != 0.0)
