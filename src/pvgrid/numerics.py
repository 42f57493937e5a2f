"""Root-finding and maximization primitives.

The PV model needs deterministic numeric helpers: a safeguarded Newton
iteration, the same iteration over arrays of independent problems (the
diode-current and maximum-power solves; the scalar form is their
step-for-step reference in the tests), Brent's method for derivative-free
roots, and a golden-section maximizer for unimodal curves.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .errors import NonConvergence

# Inverse golden ratio: interval shrink factor per golden-section step.
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def newton_bisect(
    f: Callable[[float], float],
    df: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    f_tol: float,
    x0: float | None = None,
    max_iter: int = 100,
) -> float:
    """Find a root of ``f`` inside ``[lo, hi]``.

    Newton steps are taken whenever they land strictly inside the current
    bracket; otherwise the iteration falls back to bisection, so progress
    is guaranteed for any continuous ``f`` with a sign change on the
    bracket.  Convergence is judged on the residual, not the step size.

    Args:
        f: Residual function.
        df: Derivative of ``f``.
        lo: Lower bracket endpoint.
        hi: Upper bracket endpoint, ``hi > lo``.
        f_tol: Absolute residual tolerance; iteration stops at |f| <= f_tol.
        x0: Optional initial iterate inside the bracket.
        max_iter: Evaluation budget.

    Returns:
        A point where ``|f| <= f_tol``, or, once no double lies strictly
        inside the bracket, the end of it with the smaller ``|f|``.

    Raises:
        ValueError: if the bracket does not straddle a sign change.
        NonConvergence: if the budget is exhausted first.
    """
    f_lo = f(lo)
    if abs(f_lo) <= f_tol:
        return lo
    f_hi = f(hi)
    if abs(f_hi) <= f_tol:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError(f"no sign change on bracket [{lo!r}, {hi!r}]")

    x = x0 if x0 is not None and lo < x0 < hi else 0.5 * (lo + hi)
    for _ in range(max_iter):
        f_x = f(x)
        if abs(f_x) <= f_tol:
            return x
        if (f_x > 0.0) == (f_lo > 0.0):
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
        if math.nextafter(lo, math.inf) >= hi:  # no double strictly inside the bracket
            return lo if abs(f_lo) <= abs(f_hi) else hi
        d = df(x)
        step_ok = d != 0.0
        if step_ok:
            x_new = x - f_x / d
            step_ok = lo < x_new < hi
        x = x_new if step_ok else 0.5 * (lo + hi)
    raise NonConvergence(
        f"newton_bisect: no root to |f| <= {f_tol:g} within {max_iter} iterations"
    )


def newton_bisect_array(
    fdf: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    lo: np.ndarray,
    hi: np.ndarray,
    f_lo: np.ndarray,
    f_hi: np.ndarray,
    *,
    f_tol: np.ndarray | float,
    x0: np.ndarray,
    max_iter: int = 100,
) -> np.ndarray:
    """:func:`newton_bisect` on many independent problems at once.

    Element k takes exactly the steps ``newton_bisect`` takes on problem k
    alone, so with elementwise arithmetic the roots are the same doubles.
    Only problems still above their tolerance are evaluated.

    Args:
        fdf: ``fdf(x, k)`` gives the residuals and derivatives of the
            problems with indices ``k`` at the points ``x`` (same length).
            It runs with numpy's floating-point warnings off.
        lo: Lower bracket endpoints.
        hi: Upper bracket endpoints.
        f_lo: Residuals at ``lo``, which callers have already evaluated.
        f_hi: Residuals at ``hi``.
        f_tol: Absolute residual tolerance, one or one per problem.
        x0: Initial iterates; one outside its bracket starts at the midpoint.
        max_iter: Evaluation budget per problem.

    Returns:
        Points where ``|f| <= f_tol``, or, where no double lies strictly
        inside the bracket, the end of it with the smaller ``|f|``.

    Raises:
        ValueError: if a bracket does not straddle a sign change.
        NonConvergence: if a problem exhausts the budget first.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    f_lo, f_hi = np.array(f_lo), np.array(f_hi)
    tol = np.broadcast_to(f_tol, lo.shape)
    at_lo = np.abs(f_lo) <= tol
    at_hi = ~at_lo & (np.abs(f_hi) <= tol)
    x = np.where((lo < x0) & (x0 < hi), x0, 0.5 * (lo + hi))
    x = np.where(at_lo, lo, np.where(at_hi, hi, x))
    k = np.flatnonzero(~(at_lo | at_hi))
    for j in k[(f_lo[k] > 0.0) == (f_hi[k] > 0.0)][:1]:
        raise ValueError(f"no sign change on bracket [{float(lo[j])!r}, {float(hi[j])!r}]")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_iter):
            if not len(k):
                return x
            x_k = x[k]
            f_x, d = fdf(x_k, k)
            open_ = np.abs(f_x) > tol[k]
            k, x_k, f_x, d = k[open_], x_k[open_], f_x[open_], d[open_]
            to_lo = (f_x > 0.0) == (f_lo[k] > 0.0)
            lo[k[to_lo]], f_lo[k[to_lo]] = x_k[to_lo], f_x[to_lo]
            hi[k[~to_lo]], f_hi[k[~to_lo]] = x_k[~to_lo], f_x[~to_lo]
            lo_k, hi_k = lo[k], hi[k]
            shut = np.nextafter(lo_k, np.inf) >= hi_k  # no double strictly inside the bracket
            if shut.any():  # stop at the end with the smaller |f|
                j = k[shut]
                x[j] = np.where(np.abs(f_lo[j]) <= np.abs(f_hi[j]), lo[j], hi[j])
                k, x_k, f_x, d, lo_k, hi_k = (a[~shut] for a in (k, x_k, f_x, d, lo_k, hi_k))
            x_new = x_k - f_x / d
            step_ok = (d != 0.0) & (lo_k < x_new) & (x_new < hi_k)
            x[k] = np.where(step_ok, x_new, 0.5 * (lo_k + hi_k))
    if len(k):
        raise NonConvergence(
            f"newton_bisect: no root to |f| <= {tol[k[0]]:g} within {max_iter} iterations"
        )
    return x


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    xtol: float = 2e-12,
    rtol: float = 4.0 * sys.float_info.epsilon,
    max_iter: int = 100,
) -> float:
    """Find a root of ``f`` on ``[a, b]`` by Brent's method.

    A step-for-step port of the routine behind ``scipy.optimize.brentq``
    (Brent 1973, ch. 4): inverse quadratic interpolation or a secant step
    when it is short enough, bisection otherwise.  Same arithmetic in the
    same order, so the returned root is the same double.

    Args:
        f: Continuous function with a sign change on the bracket.
        a: One bracket endpoint.
        b: The other bracket endpoint.
        xtol: Absolute tolerance on the root.
        rtol: Relative tolerance on the root.
        max_iter: Iteration budget after the two endpoint evaluations.

    Returns:
        ``x`` within ``xtol + rtol*|x|`` of a sign change of ``f``.

    Raises:
        ValueError: if ``f(a)`` and ``f(b)`` have the same sign.
        NonConvergence: if the budget is exhausted first.
    """
    x_pre, x_cur = a, b
    f_pre, f_cur = f(x_pre), f(x_cur)
    if f_pre == 0.0:
        return x_pre
    if f_cur == 0.0:
        return x_cur
    if (f_pre < 0.0) == (f_cur < 0.0):
        raise ValueError(f"no sign change on bracket [{a!r}, {b!r}]")
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(max_iter):
        if f_pre != 0.0 and f_cur != 0.0 and (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = (xtol + rtol * abs(x_cur)) / 2.0
        s_bis = (x_blk - x_cur) / 2.0
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                divisor = d_blk * d_pre * (f_blk - f_pre)
                # An underflowed divisor gives inf or nan in C, which bisects below.
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / divisor if divisor else math.inf
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        if abs(s_cur) > delta:
            x_cur += s_cur
        else:
            x_cur += delta if s_bis > 0.0 else -delta
        f_cur = f(x_cur)
    raise NonConvergence(
        f"brentq: no root to within {xtol:g} + {rtol:g}*|x| in {max_iter} iterations"
    )


def golden_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    x_tol: float,
    max_iter: int = 500,
) -> tuple[float, float]:
    """Maximize a unimodal ``f`` on ``[lo, hi]`` by golden-section search.

    Args:
        f: Objective, unimodal on the interval.
        lo: Lower endpoint.
        hi: Upper endpoint.
        x_tol: Interval-width stopping tolerance.
        max_iter: Evaluation budget guard.

    Returns:
        ``(x, f(x))`` at the located maximum.

    Raises:
        NonConvergence: if the interval cannot be reduced to ``x_tol``
            within the budget.
    """
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    f_c, f_d = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= x_tol:
            x = 0.5 * (a + b)
            return x, f(x)
        if f_c > f_d:
            b, d, f_d = d, c, f_c
            c = b - _INVPHI * (b - a)
            f_c = f(c)
        else:
            a, c, f_c = c, d, f_d
            d = a + _INVPHI * (b - a)
            f_d = f(d)
    raise NonConvergence(
        f"golden_max: interval not reduced to {x_tol:g} within {max_iter} iterations"
    )
