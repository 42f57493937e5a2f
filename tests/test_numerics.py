"""Tests for pvgrid.numerics — safeguarded Newton, Brent and golden-section search."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvgrid import pv_model
from pvgrid.errors import InfeasibleSpec, InvalidValue, NonConvergence
from pvgrid.numerics import brentq, golden_max, newton_bisect, newton_bisect_array
from pvgrid.pv_model import (
    G_MAX, EnvCondition, PVArraySpec, PVModuleSpec, adjust_params, array_iv_sweep,
    extract_single_diode_params, module_voc,
)

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

    def test_stops_when_no_double_lies_inside_the_bracket(self):
        """Where no double meets the tolerance the bracket closes on two adjacent
        doubles, and the end with the smaller |f| is returned."""
        f = lambda x: 1e20 * (x * x - 2.0)
        x = newton_bisect(f, lambda x: 2e20 * x, lo=1.0, hi=2.0, f_tol=1e-9)
        neighbours = (math.nextafter(x, 0.0), math.nextafter(x, 2.0))
        assert abs(f(x)) > 1e-9
        assert min(f(x) * f(n) for n in neighbours) < 0.0  # f changes sign next to x
        assert all(abs(f(x)) <= abs(f(n)) for n in neighbours)

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
# newton_bisect_array
# ======================================================================


def _newton_cases() -> dict[str, tuple]:
    """TestNewtonBisect's problems as (f, df, lo, hi, f_tol, x0, max_iter), each
    with f nonzero and of opposite signs at its ends, as newton_bisect_array
    takes them; the scalar's endpoint and sign checks have their own tests."""
    cases = {
        "cosine": (lambda x: math.cos(x) - x, lambda x: -math.sin(x) - 1.0,
                   0.0, 1.0, 1e-12, None, 100),
        "cubic": (lambda x: x**3 - 2.0 * x - 5.0, lambda x: 3.0 * x**2 - 2.0,
                  1.0, 3.0, 1e-12, None, 100),
        "expm1": (lambda x: math.expm1(x) - 2.0, math.exp, 0.0, 2.0, 1e-10, None, 100),
        "flat-derivative": (lambda x: x**3 - 8.0, lambda x: 0.0, 0.0, 5.0, 1e-9, None, 100),
        "wild-start": (lambda x: math.atan(x - 1.5), lambda x: 1.0 / (1.0 + (x - 1.5) ** 2),
                       -50.0, 60.0, 1e-12, 59.0, 100),
        "budget": (lambda x: math.cos(x) - x, lambda x: -math.sin(x) - 1.0,
                   0.0, 1.0, 0.0, None, 3),
        "no-double-inside": (lambda x: 1e20 * (x * x - 2.0), lambda x: 2e20 * x,
                             1.0, 2.0, 1e-9, None, 100),
        # The bracket closes on two doubles whose residuals differ in size.
        "no-double-inside-uneven": (lambda x: 1e20 * (x * x - 5.0), lambda x: 2e20 * x,
                                    1.0, 4.0, 1e-9, None, 100),
        # lo + hi overflows, so the midpoint is inf although doubles lie inside.
        "overflowing-midpoint": (lambda x: x - 1.5e308, lambda x: 1.0,
                                 1e308, 1.7e308, 1e293, 1.2e308, 100),
        # A zero derivative bisects every step: 40 evaluations to this tolerance.
        "bisection-40": (lambda x: x - 1.0 / 3.0, lambda x: 0.0, 0.0, 1.0, 5e-13, None, 100),
    }
    rng = np.random.default_rng(42)
    for n in range(200):
        r = float(rng.uniform(-5.0, 5.0))
        cases[f"cubic-{n}"] = (lambda x, r=r: (x - r) ** 3 + (x - r),
                               lambda x, r=r: 3.0 * (x - r) ** 2 + 1.0,
                               r - 7.0, r + 9.0, 1e-12, None, 100)
    return cases


NEWTON_CASES = _newton_cases()
FAILING = ("budget",)


def _scalar(case: tuple, max_iter: int | None = None):
    """newton_bisect's root of ``case``, or the error it raises."""
    f, df, lo, hi, f_tol, x0, budget = case
    try:
        if max_iter is None:
            max_iter = budget
        return newton_bisect(f, df, lo, hi, f_tol=f_tol, x0=x0, max_iter=max_iter)
    except NonConvergence as exc:
        return exc


def _negated(case: tuple) -> tuple:
    """``case`` with f and df negated: the same root and the same steps."""
    f, df, *rest = case
    return (lambda x: -f(x), lambda x: -df(x), *rest)


def _batched(cases: list[tuple], max_iter: int | None = None, *, calls: list | None = None):
    """newton_bisect_array's roots of ``cases`` in one batch, or the error it
    raises.  A case increasing on its bracket goes in negated, as the solver
    takes f > 0 at the lower end.  The batch's budget is the smallest of its
    cases'.  Each point array ``fdf`` gets is appended to ``calls``."""
    cases = [c if c[0](c[2]) > 0.0 else _negated(c) for c in cases]

    def column(j: int) -> np.ndarray:
        return np.array([np.nan if c[j] is None else c[j] for c in cases], dtype=float)

    def fdf(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if calls is not None:
            calls.append(x.copy())
        pairs = [(c[0](xj), c[1](xj)) for c, xj in zip(cases, x.tolist())]
        return np.array(pairs, dtype=float).reshape(-1, 2).T

    try:
        return newton_bisect_array(
            fdf, column(2), column(3), f_tol=column(4), x0=column(5),
            max_iter=min(c[6] for c in cases) if max_iter is None else max_iter,
        ).tolist()
    except NonConvergence as exc:
        return exc


def _same(got, want) -> bool:
    """Equal roots, or errors of the same type with the same message."""
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return got == want


class TestNewtonBisectArray:
    """The batched solve takes newton_bisect's steps on every problem."""

    @pytest.mark.parametrize("name", [n for n in NEWTON_CASES if not n.startswith("cubic-")])
    def test_batch_of_one_matches_scalar(self, name):
        """Each TestNewtonBisect problem alone: the scalar's double or its error."""
        case = NEWTON_CASES[name]
        want = _scalar(case)
        got = _batched([case])
        assert _same(got, want if isinstance(want, Exception) else [want]), (name, got, want)

    def test_random_cubics_one_at_a_time(self):
        """The 200 shifted cubics of TestNewtonBisect, each a batch of one."""
        for name, case in NEWTON_CASES.items():
            if name.startswith("cubic-"):
                assert _batched([case]) == [_scalar(case)], name

    def test_negated_problem_takes_the_same_steps(self):
        """The scalar solver's root of -f is its root of f, to the bit, and it
        evaluates the same points: the batched solve's convention, f > 0 at the
        lower end, loses nothing by negating an increasing problem."""
        for name in NEWTON_CASES:
            f, *rest = NEWTON_CASES[name]
            points = ([], [])
            for seen, negate in zip(points, (False, True)):
                case = (lambda x, seen=seen: seen.append(x) or f(x), *rest)
                got = _scalar(_negated(case) if negate else case)
                assert _same(got, _scalar(NEWTON_CASES[name])), name
            assert points[0] == points[1], name

    def test_mixed_batch_matches_scalar(self):
        """All converging problems in one batch, each root the scalar's double."""
        cases = [c for name, c in NEWTON_CASES.items() if name not in FAILING]
        assert _batched(cases) == [_scalar(c) for c in cases]

    def test_mixed_batch_errors_carry_scalar_messages(self):
        """A problem out of budget beside one that converged in two steps raises
        the scalar's error, naming the failing problem's tolerance."""
        linear = (lambda x: 0.25 - x, lambda x: -1.0, 0.0, 1.0, 1e-9, None, 100)
        for name in FAILING:
            case = NEWTON_CASES[name]
            assert _same(_batched([linear, case]), _scalar(case)), name

    @pytest.mark.parametrize("name", ["cosine", "cubic", "expm1", "flat-derivative",
                                      "wild-start", "cubic-0"])
    def test_budget_spent_exactly(self, name):
        """With the budget the scalar needs, the root comes from the last
        evaluation; one evaluation fewer raises the scalar's NonConvergence."""
        f, *rest = NEWTON_CASES[name]
        calls = []
        _scalar((lambda x: calls.append(x) or f(x), *rest))
        needed = len(calls) - 2  # the scalar evaluates the two bracket ends first
        case = NEWTON_CASES[name]
        assert _batched([case], needed) == [_scalar(case, needed)]
        want = _scalar(case, needed - 1)
        assert isinstance(want, NonConvergence)
        assert _same(_batched([case], needed - 1), want)

    def test_an_unmoved_end_loses_the_tie_break(self):
        """The bracket closes on 1 and the next double, and f(1) = 1e-300 is
        smaller than f there, but the batched solve never evaluates the end 1,
        which has not moved: it counts as infinite, so the other end is
        returned, where the scalar, which evaluated it, returns 1."""
        case = (lambda x: 1e-300 - (x - 1.0) * 1e20, lambda x: -1e20, 1.0, 2.0, 0.0, None, 100)
        assert _scalar(case) == 1.0
        assert _batched([case]) == [math.nextafter(1.0, 2.0)]

    def test_fdf_gets_whole_arrays_and_a_converged_root_stays_frozen(self):
        """Every call of fdf gets the points of all problems, and a problem that
        converges in 5 steps beside one that takes 40 stays frozen at its root:
        the scalar's double, as it is alone."""
        fast, slow = NEWTON_CASES["cosine"], NEWTON_CASES["bisection-40"]
        calls = []
        assert _batched([fast, slow], calls=calls) == [_scalar(fast), _scalar(slow)]
        assert len(calls) == 40
        assert all(x.shape == (2,) for x in calls)
        assert [x[0] for x in calls[5:]] == [_scalar(fast)] * 35
        assert _batched([fast]) == [_scalar(fast)]


_EDGE_G = st.sampled_from([1.0, G_MAX]) | st.floats(1.0, G_MAX)
_EDGE_T = st.sampled_from([-40.0, 90.0]) | st.floats(-40.0, 90.0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(v_cell=st.floats(0.5, 0.75), n_cells=st.sampled_from([36, 60, 72, 96, 144]),
       i_sc=st.floats(0.5, 15.0), v_frac=st.floats(0.74, 0.86), i_frac=st.floats(0.88, 0.96),
       g=_EDGE_G, t=_EDGE_T, n_points=st.sampled_from([3, 500]))
@example(v_cell=0.605, n_cells=60, i_sc=7.84, v_frac=0.8, i_frac=0.9375, g=1.0, t=-40.0, n_points=3)
@example(v_cell=0.605, n_cells=60, i_sc=7.84, v_frac=0.8, i_frac=0.9375, g=G_MAX, t=90.0,
         n_points=500)
def test_sweep_ends_at_the_libm_start(v_cell, n_cells, i_sc, v_frac, i_frac, g, t, n_points):
    """Property: the last current of a sweep, at v = v_oc, is the start of the
    current solve, i_ph - i_0*expm1(v/a) - v/r_sh with libm's expm1, bit for bit.
    The solve accepts that start before any step, so the numpy exponentials of
    its iterations do not reach the end point that the benchmark references and
    the pv-curve pins record.  ROADMAP item 3, which ends every sweep at exactly
    (v_oc, 0), retires this property."""
    v_oc = v_cell * n_cells
    try:
        spec = PVModuleSpec(p_mp=v_oc * v_frac * i_sc * i_frac, v_mp=v_oc * v_frac,
                            i_mp=i_sc * i_frac, v_oc=v_oc, i_sc=i_sc, n_cells=n_cells)
        params = extract_single_diode_params(spec)
    except (InvalidValue, InfeasibleSpec, NonConvergence):
        return
    env = EnvCondition(g, t)
    p = adjust_params(params, spec, env)
    curve = array_iv_sweep(PVArraySpec(module=spec, n_series=1, n_parallel=1), params, env,
                           n_points)
    v = float(curve.v[-1])
    assert v == module_voc(p)
    start = p.i_ph - p.i_0 * math.expm1(min(v / p.a, pv_model._EXP_CAP)) - v / p.r_sh
    assert float(curve.i[-1]) == start, (float(curve.i[-1]), start)


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

    @pytest.mark.parametrize("scale", [1e-120, 1e-200, 1e-300])
    def test_underflowing_interpolation_bisects(self, scale):
        """Where the interpolation divisor underflows to 0, C's division gives
        inf or nan and the step bisects; the port does the same."""
        scipy_optimize = pytest.importorskip("scipy.optimize")
        f = lambda x: (x**3 - 0.5) * scale  # noqa: E731
        assert brentq(f, 0.0, 1.0) == scipy_optimize.brentq(f, 0.0, 1.0)

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
