"""Steady-state reactive compensator models and power-factor arithmetic.

:func:`dispatch` is the one entry to both laws: for a compensator, the load-q
column and the bus voltage it gives a ``(q_out, p_loss)`` pair of arrays.

Sign convention: positive ``q_out`` means vars injected toward the load
(capacitive behavior); positive load q means vars consumed.  Compensator
real losses are drawn from the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Union, get_args

import numpy as np

from .errors import (
    NON_NEGATIVE, POSITIVE, Bound, InvalidValue, bounded, check_fields, require, require_numbers,
)

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
COMPENSATORS: dict[str, type] = {cls.mode: cls for cls in get_args(CompensatorConfig)}


def dispatch(config: CompensatorConfig, q_load, v: float) -> tuple[np.ndarray, np.ndarray]:
    """Compensator ``(q_out, p_loss)`` arrays, one entry per entry of the
    load-q column ``q_load`` (finite real numbers; a bool is none), at bus voltage ``v``.

    A STATCOM tracks the load inside its rating, q_out = clamp(q_load, -q_max, +q_max),
    and loses p_loss = loss_floor_w + loss_frac * |q_out|.  A capacitor bank follows
    the voltage, q_out = q_rated * (v/v_rated)^2, and loses loss_w.  No compensator
    gives zeros.
    """
    require({"config": config}, CompensatorConfig)
    require({"v": v}, NON_NEGATIVE)
    try:
        q = np.asarray(q_load)
    except ValueError:  # ragged
        q = np.empty(())
    if q.ndim != 1:
        raise InvalidValue(f"q_load must be a column of numbers, got {q_load!r}")
    require_numbers({"q_load": q_load})  # a bool or a string, which numpy reads as a number
    if not (q.dtype.kind in "iuf" and np.isfinite(q).all()):  # NaN, ±inf or an int past int64
        require_numbers({"q_load": q.astype(object)})
    q = q.astype(float)
    if isinstance(config, Statcom):
        q_out = np.clip(q, -config.q_max, config.q_max)
        with np.errstate(over="ignore"):  # a loss past the float range is rejected below
            p_loss = config.loss_floor_w + config.loss_frac * np.abs(q_out)
        require({"p_loss": p_loss.max(initial=0.0)}, NON_NEGATIVE)
        return q_out, p_loss
    if isinstance(config, FixedCapacitor):
        with np.errstate(over="ignore"):  # an output past the float range is rejected below
            ratio = v / config.v_rated
            q_out = config.q_rated * ratio * ratio
        require({"q_rated * (v/v_rated)^2": q_out})
        return np.full_like(q, q_out), np.full_like(q, config.loss_w)
    return np.zeros_like(q), np.zeros_like(q)


def power_factor(p, q) -> np.ndarray:
    """Power factor |p|/sqrt(p^2 + q^2) of each flow, for numbers or arrays.

    A zero flow p = q = 0 has no power factor; it is reported as unity.
    """
    s = np.hypot(p, q)
    return np.divide(np.abs(p), s, out=np.ones(np.shape(s)), where=s != 0.0)
