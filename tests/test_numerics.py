"""Tests for pvgrid.numerics — safeguarded Newton, Brent and golden-section search."""

from __future__ import annotations

import math

import numpy as np
import pytest

from pvgrid.errors import NonConvergence
from pvgrid.numerics import brentq, golden_max, newton_bisect
from pvgrid.pv_model import EnvCondition, adjust_params, module_voc

from conftest import REF_MODULE


# ======================================================================
# newton_bisect
# ======================================================================


class TestNewtonBisect:
    """Root finding on a bracketing interval with derivative acceleration."""

    def test_cosine_fixed_point(self):
        """Solve cos(x) = x; the Dottie number is 0.7390851332151607."""
        x = newton_bisect(
            lambda x: math.cos(x) - x,
            lambda x: -math.sin(x) - 1.0,
            lo=0.0,
            hi=1.0,
            f_tol=1e-12,
        )
        assert abs(x - 0.7390851332151607) < 1e-9, f"root {x!r} off Dottie number"

    def test_cubic_root(self):
        """x^3 - 2x - 5 has its real root near 2.0945514815."""
        x = newton_bisect(
            lambda x: x**3 - 2.0 * x - 5.0,
            lambda x: 3.0 * x**2 - 2.0,
            lo=1.0,
            hi=3.0,
            f_tol=1e-12,
        )
        assert abs(x - 2.0945514815423265) < 1e-9

    def test_residual_tolerance_honored(self):
        """Returned point must satisfy |f(x)| <= f_tol."""
        f = lambda x: math.expm1(x) - 2.0
        x = newton_bisect(f, lambda x: math.exp(x), lo=0.0, hi=2.0, f_tol=1e-10)
        assert abs(f(x)) <= 1e-10, f"residual {f(x):.3e} exceeds tolerance"

    def test_endpoint_root_returned_directly(self):
        """An endpoint that already satisfies the tolerance is returned as-is."""
        x = newton_bisect(lambda x: x, lambda x: 1.0, lo=0.0, hi=1.0, f_tol=1e-9)
        assert x == 0.0

    def test_no_sign_change_raises(self):
        """A bracket without a sign change is a caller error."""
        with pytest.raises(ValueError):
            newton_bisect(lambda x: x * x + 1.0, lambda x: 2.0 * x, lo=-1.0, hi=1.0, f_tol=1e-9)

    def test_budget_exhaustion_raises(self):
        """An impossible tolerance within a tiny budget raises NonConvergence."""
        with pytest.raises(NonConvergence):
            newton_bisect(
                lambda x: math.cos(x) - x,
                lambda x: -math.sin(x) - 1.0,
                lo=0.0,
                hi=1.0,
                f_tol=0.0,
                max_iter=3,
            )

    def test_flat_derivative_falls_back_to_bisection(self):
        """A useless derivative (always zero) must not break convergence."""
        x = newton_bisect(lambda x: x**3 - 8.0, lambda x: 0.0, lo=0.0, hi=5.0, f_tol=1e-9)
        assert abs(x - 2.0) < 1e-6

    def test_wild_start_stays_bracketed(self):
        """Newton steps leaving the bracket are replaced by bisection steps."""
        # tan-like function whose Newton iterates diverge from a poor start
        f = lambda x: math.atan(x - 1.5)
        df = lambda x: 1.0 / (1.0 + (x - 1.5) ** 2)
        x = newton_bisect(f, df, lo=-50.0, hi=60.0, x0=59.0, f_tol=1e-12)
        assert abs(x - 1.5) < 1e-9

    def test_random_monotone_cubics(self):
        """Property: roots of shifted cubics are recovered across seeds."""
        rng = np.random.default_rng(42)
        for _ in range(200):
            r = float(rng.uniform(-5.0, 5.0))
            f = lambda x, r=r: (x - r) ** 3 + (x - r)
            df = lambda x, r=r: 3.0 * (x - r) ** 2 + 1.0
            x = newton_bisect(f, df, lo=r - 7.0, hi=r + 9.0, f_tol=1e-12)
            assert abs(x - r) < 1e-7, f"missed root {r} (got {x})"


# ======================================================================
# brentq
# ======================================================================


def _random_monotone(rng: np.random.Generator, kind: int):
    """An increasing function with a root at a random point, and a bracket."""
    r = float(rng.uniform(-5.0, 5.0))
    c = float(rng.uniform(0.01, 10.0))
    funcs = (
        lambda x: (x - r) ** 3 + c * (x - r),
        lambda x: math.expm1(c * (x - r)),
        lambda x: math.atan(c * (x - r)),
        lambda x: math.tanh(c * (x - r)) ** 3 + 1e-3 * (x - r),
    )
    return funcs[kind % 4], r - float(rng.uniform(0.1, 8.0)), r + float(rng.uniform(0.1, 8.0))


class TestBrentq:
    """Derivative-free root finding on a bracketing interval."""

    def test_cubic_root(self):
        """x^3 - 2x - 5 has its real root near 2.0945514815."""
        x = brentq(lambda x: x**3 - 2.0 * x - 5.0, 1.0, 3.0)
        assert abs(x - 2.0945514815423265) < 1e-11

    def test_endpoint_root_returned_directly(self):
        """An endpoint where f is exactly zero is returned as-is."""
        assert brentq(lambda x: x, 0.0, 1.0) == 0.0
        assert brentq(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_no_sign_change_raises(self):
        """A bracket without a sign change is a caller error."""
        with pytest.raises(ValueError):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_budget_exhaustion_raises(self):
        """The smallest tolerance within a tiny budget raises NonConvergence."""
        with pytest.raises(NonConvergence):
            brentq(lambda x: math.cos(x) - x, 0.0, 1.0, xtol=5e-324, max_iter=3)

    def test_random_monotone_functions(self):
        """Property: roots of random increasing functions are found to xtol."""
        rng = np.random.default_rng(3)
        for k in range(400):
            f, a, b = _random_monotone(rng, k)
            x = brentq(f, a, b, xtol=1e-12)
            lo, hi = x - 2e-12, x + 2e-12
            assert f(lo) <= 0.0 <= f(hi), f"no sign change near {x!r}"


class TestBrentqMatchesScipy:
    """The port returns the same double as scipy.optimize.brentq."""

    def test_random_monotone_functions(self):
        """Bit-identical roots over random functions and tolerances."""
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(5)
        for k in range(2_000):
            f, a, b = _random_monotone(rng, k)
            xtol = (2e-12, 1e-12, 1e-14, 5e-324)[k % 4]
            want = scipy_optimize.brentq(f, a, b, xtol=xtol)
            got = brentq(f, a, b, xtol=xtol)
            assert got == want, f"case {k}: {got!r} vs scipy {want!r}"

    def test_module_voc_residual(self, ref_params):
        """module_voc equals scipy's root of the same residual, bit for bit."""
        scipy_optimize = pytest.importorskip("scipy.optimize")
        for g in (1.0, 20.0, 250.0, 640.0, 1000.0, 1200.0):
            for t in (-40.0, 0.0, 25.0, 38.0, 90.0):
                p = adjust_params(ref_params, REF_MODULE, EnvCondition(g, t))
                residual = (
                    lambda v, p=p: p.i_ph - p.i_0 * math.expm1(v / p.a) - v / p.r_sh
                )
                v_hi = p.a * math.log1p(p.i_ph / p.i_0)
                want = scipy_optimize.brentq(residual, 0.0, v_hi, xtol=1e-12, rtol=8.9e-16)
                assert module_voc(p) == want, f"(g={g}, t={t})"


# ======================================================================
# golden_max
# ======================================================================


class TestGoldenMax:
    """Scalar maximisation on an interval."""

    def test_parabola_peak(self):
        """Max of -(x - 2)^2 on [0, 5] sits at x = 2."""
        x, fx = golden_max(lambda x: -((x - 2.0) ** 2), 0.0, 5.0, x_tol=1e-10)
        assert abs(x - 2.0) < 1e-8
        assert abs(fx) < 1e-15

    def test_sine_peak(self):
        """Max of sin on [0, pi] sits at pi/2 with value 1."""
        x, fx = golden_max(math.sin, 0.0, math.pi, x_tol=1e-10)
        assert abs(x - math.pi / 2.0) < 1e-7
        assert abs(fx - 1.0) < 1e-14

    def test_boundary_maximum(self):
        """A monotone function peaks at the interval edge."""
        x, fx = golden_max(lambda x: x, 0.0, 3.0, x_tol=1e-9)
        assert abs(x - 3.0) < 1e-6
        assert abs(fx - 3.0) < 1e-6

    def test_tolerance_respected(self):
        """Looser tolerance still brackets the true peak within x_tol."""
        x, _ = golden_max(lambda x: -((x - 1.25) ** 2), 0.0, 2.0, x_tol=1e-4)
        assert abs(x - 1.25) <= 1e-3

    def test_budget_exhaustion_raises(self):
        """Impossibly tight tolerance with a tiny budget raises NonConvergence."""
        with pytest.raises(NonConvergence):
            golden_max(math.sin, 0.0, math.pi, x_tol=1e-15, max_iter=5)

    def test_random_quadratics(self):
        """Property: peak location recovered for random concave parabolas."""
        rng = np.random.default_rng(7)
        for _ in range(200):
            c = float(rng.uniform(0.5, 9.5))
            a = float(rng.uniform(0.1, 4.0))
            x, _ = golden_max(lambda x, c=c, a=a: -a * (x - c) ** 2, 0.0, 10.0, x_tol=1e-9)
            assert abs(x - c) < 1e-6, f"peak at {c} missed (got {x})"
