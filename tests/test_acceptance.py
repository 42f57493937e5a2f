"""Acceptance suite: one test per release criterion.

Each test evaluates its checks first, prints a single PASS/FAIL line on
the real terminal (outside pytest capture, so the verdicts appear in
plain ``pytest -v`` output), and only then asserts.  Tolerances are part
of the release contract and must not be loosened.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from pvgrid import cli
from pvgrid.compensation import FixedCapacitor, NoCompensator, Statcom, dispatch
from pvgrid.component_design import (
    BoostDesignInput,
    LCLDesignInput,
    boost_design,
    lcl_design,
    resonance_check,
)
from pvgrid.pv_model import EnvCondition, PVArraySpec, adjust_params, module_current, module_voc, mpp
from pvgrid.scenario_io import bundled_scenario_text, emit_csv, emit_scenario, parse_scenario
from pvgrid.simulator import run

from conftest import REF_MODULE, make_scenario, random_scenario


@pytest.fixture()
def criterion(capsys):
    """Verdict printer: one capture-proof PASS/FAIL line, then assert."""

    def _report(n: int, name: str, checks: list[tuple[str, bool]]) -> None:
        ok = all(passed for _, passed in checks)
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[{verdict}] criterion {n}: {name}", flush=True)
        failed = [label for label, passed in checks if not passed]
        assert ok, f"criterion {n} failed: {'; '.join(failed)}"

    return _report


def _within(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


# ======================================================================
# 1. Boost converter worked values
# ======================================================================


def test_criterion_1_boost_design(criterion):
    """Boost sizing at 100.345 kW / 290 V / 700 V / 5 kHz."""
    out = boost_design(
        BoostDesignInput(p=100_345.0, v_in=290.0, v_out=700.0, f_s=5_000.0)
    )
    # Independent hand evaluation of the capacitor expression:
    # 143.35 * (1 - 290/700) / (4.9 * 5000) = 3427.03e-6 F.  Catalog
    # write-ups round this to 3400 uF; the contract pins the unrounded value.
    c_oracle = 143.35 * (1.0 - 290.0 / 700.0) / (4.9 * 5_000.0)
    checks = [
        (f"i_out_max {out.i_out_max:.4f} = 143.35 A +-0.05%",
         _within(out.i_out_max, 143.35, 0.0005)),
        (f"delta_i_l {out.delta_i_l:.4f} = 24.21 A +-0.5%",
         _within(out.delta_i_l, 24.21, 0.005)),
        (f"delta_v_out {out.delta_v_out!r} = 4.9 V exact", out.delta_v_out == 4.9),
        (f"l {out.l * 1e3:.4f} mH = 1.40 mH +-1%", _within(out.l, 1.40e-3, 0.01)),
        (f"c {out.c * 1e6:.2f} uF = 3427 uF +-0.5%", _within(out.c, 3_427e-6, 0.005)),
        (f"c matches hand oracle {c_oracle * 1e6:.2f} uF",
         abs(out.c - c_oracle) <= 1e-15),
    ]
    criterion(1, "boost design reproduces the worked values", checks)


# ======================================================================
# 2. LCL filter worked values
# ======================================================================


def test_criterion_2_lcl_design(criterion):
    """LCL sizing at 100 kW / 230 V / 50 Hz / 700 V / 10 kHz."""
    out = lcl_design(
        LCLDesignInput(p=100_000.0, v_g=230.0, f_g=50.0, v_dc=700.0, f_sw=10_000.0)
    )
    # Strict-formula oracles, evaluated independently here:
    #   i_max = 100e3 * sqrt(2) / (3 * 230 * 0.9)          = 227.7317 A
    #   l_1   = 700 / (6 * 10e3 * 0.1 * i_max)             = 512.30 uH
    #   l_2   = sqrt(1/0.2^2 + 1) / (c_g * (2*pi*1e4)^2)   = 12.879 uH
    # Catalog-value write-ups quote 0.6 mH and 15 uH for this design point;
    # neither follows from these expressions, so the contract pins the
    # strict results and treats the rounded pair as inputs elsewhere.
    i_max_oracle = 100_000.0 * math.sqrt(2.0) / (3.0 * 230.0 * 0.9)
    l_1_oracle = 700.0 / (6.0 * 10_000.0 * 0.10 * i_max_oracle)
    c_g_oracle = 0.05 / (2.0 * math.pi * 50.0 * (230.0**2 / (100_000.0 / 3.0)))
    l_2_oracle = math.sqrt(1.0 / 0.04 + 1.0) / (c_g_oracle * (2.0 * math.pi * 10_000.0) ** 2)
    checks = [
        (f"z_b {out.z_b:.5f} = 1.5870 ohm +-0.1%", _within(out.z_b, 1.5870, 0.001)),
        (f"i_max {out.i_max:.4f} = 227.7317 A +-0.1%",
         _within(out.i_max, 227.7317, 0.001)),
        (f"delta_i_max {out.delta_i_max:.4f} = 22.7732 A +-0.1%",
         _within(out.delta_i_max, 22.7732, 0.001)),
        (f"c_g {out.c_g * 1e6:.3f} uF = 100.29 uF +-0.1%",
         _within(out.c_g, 100.29e-6, 0.001)),
        (f"l_1 {out.l_1 * 1e6:.2f} uH = 512.3 uH +-0.5%",
         _within(out.l_1, 512.3e-6, 0.005)),
        (f"l_2 {out.l_2 * 1e6:.3f} uH = 12.88 uH +-0.5%",
         _within(out.l_2, 12.88e-6, 0.005)),
        ("l_1 equals the strict oracle", abs(out.l_1 - l_1_oracle) <= 1e-18),
        ("l_2 equals the strict oracle",
         abs(out.l_2 - l_2_oracle) <= 1e-9 * l_2_oracle),
        ("strict l_1 is not the 0.6 mH catalog value",
         not _within(out.l_1, 0.6e-3, 0.01)),
        ("strict l_2 is not the 15 uH catalog value",
         not _within(out.l_2, 15e-6, 0.01)),
    ]
    criterion(2, "LCL design matches the strict-formula oracle", checks)


# ======================================================================
# 3. Resonance placement
# ======================================================================


def test_criterion_3_resonance(criterion):
    """Resonance of the 0.6 mH / 15 (15.15) uH / 100.29 uF filter."""
    rep_a = resonance_check(0.6e-3, 15e-6, 100.29e-6, 50.0, 10_000.0)
    rep_b = resonance_check(0.6e-3, 15.15e-6, 100.29e-6, 50.0, 10_000.0)
    checks = [
        (f"f_res {rep_a.f_res:.1f} = 4154 Hz +-1% (l_2 = 15 uH)",
         _within(rep_a.f_res, 4154.0, 0.01)),
        (f"f_res {rep_b.f_res:.1f} = 4134 Hz +-1% (l_2 = 15.15 uH)",
         _within(rep_b.f_res, 4134.0, 0.01)),
        ("bounds are (500, 5000) Hz",
         rep_a.f_min == 500.0 and rep_a.f_max == 5_000.0),
        ("both placements pass", rep_a.passed and rep_b.passed),
    ]
    criterion(3, "resonance placement passes inside (500, 5000) Hz", checks)


# ======================================================================
# 4. PV model anchor points
# ======================================================================


def test_criterion_4_pv_anchors(criterion, ref_params, ref_array):
    """Array maximum power across irradiance and temperature anchors."""
    anchors = [
        (1000.0, 25.0, 100_345.0),
        (500.0, 25.0, 50_750.0),
        (100.0, 25.0, 9_720.0),
        (1000.0, 15.0, 104_100.0),
        (1000.0, 35.0, 98_780.0),
        (1000.0, 45.0, 95_030.0),
    ]
    checks = []
    for g, t, target in anchors:
        got = mpp(ref_array, ref_params, EnvCondition(g=g, t=t)).p_mp
        checks.append(
            (f"({g:g} W/m2, {t:g} C): {got / 1e3:.2f} kW = {target / 1e3:.3f} kW +-3%",
             _within(got, target, 0.03))
        )
    unit = PVArraySpec(module=REF_MODULE, n_series=1, n_parallel=1)
    module_p = mpp(unit, ref_params, EnvCondition(g=1000.0, t=25.0)).p_mp
    checks.append(
        (f"module STC {module_p:.3f} W = 213.15 W +-0.5%",
         _within(module_p, 213.15, 0.005))
    )
    criterion(4, "PV anchor points within 3% (module STC within 0.5%)", checks)


# ======================================================================
# 5. Case 1: uncompensated grid readings
# ======================================================================


def test_criterion_5_case1(criterion):
    """Case 1 at full irradiance: grid absorbs PV surplus, carries load Q."""
    series = run(parse_scenario(bundled_scenario_text("case1")))
    # Records strictly before the 0.1 s irradiance step run at 1000 W/m2.
    full_sun = [r for r in series.records if r.t < 0.1]
    # The companion low-irradiance reading (g = 500) of roughly +0.9 kW
    # depends on an unstated inverter/loss budget and is excluded from
    # the contract; the full-sun figures below are reproducible.
    checks = [
        ("full-sun records exist", len(full_sun) == 10),
        *[
            (f"t={r.t:g}: p_grid {r.p_grid / 1e3:.2f} kW = -44.8 +-1.0 kW",
             abs(r.p_grid - (-44_800.0)) <= 1_000.0)
            for r in full_sun
        ],
        *[
            (f"t={r.t:g}: q_grid {r.q_grid / 1e3:.2f} kVAr = 100 +-0.5 kVAr",
             abs(r.q_grid - 100_000.0) <= 500.0)
            for r in full_sun
        ],
    ]
    criterion(5, "case1 full-sun grid P/Q readings", checks)


# ======================================================================
# 6. Cases 2 and 3: compensated reactive balance
# ======================================================================


def test_criterion_6_case2_case3(criterion):
    """Fixed bank nulls a matched load; STATCOM tracks 150 kVAr exactly."""
    s2 = run(parse_scenario(bundled_scenario_text("case2")))
    s3 = run(parse_scenario(bundled_scenario_text("case3")))
    worst_q2 = max(abs(r.q_grid) for r in s2.records)
    worst_q3 = max(abs(r.q_grid) for r in s3.records)
    checks = [
        (f"case2 max |q_grid| {worst_q2:.1f} VAr <= 2 kVAr", worst_q2 <= 2_000.0),
        *[
            (f"case3 t={r.t:g}: q_comp {r.q_comp / 1e3:.2f} kVAr = 150 +-1 kVAr",
             abs(r.q_comp - 150_000.0) <= 1_000.0)
            for r in s3.records
        ],
        (f"case3 max |q_grid| {worst_q3:.1f} VAr <= 2 kVAr", worst_q3 <= 2_000.0),
    ]
    criterion(6, "case2/case3 compensated reactive balance", checks)


# ======================================================================
# 7. Property suites
# ======================================================================


def test_criterion_7_properties(criterion, ref_params, tmp_path):
    """Randomized invariants: balance, scaling, gradient, laws, IO."""
    checks: list[tuple[str, bool]] = []

    # (a) Per-step P/Q balance on 1000 randomized scenarios.
    rng = np.random.default_rng(90_210)
    worst = 0.0
    for i in range(1000):
        series = run(random_scenario(rng, i))
        for r in series.records:
            scale = (
                math.hypot(r.p_grid, r.q_grid)
                + math.hypot(r.p_load, r.q_load)
                + abs(r.p_inv)
                + math.hypot(r.p_comp_loss, r.q_comp)
                + 1.0
            )
            resid = max(
                abs(r.p_grid + r.p_inv - r.p_load - r.p_comp_loss),
                abs(r.q_grid + r.q_comp - r.q_load),
            )
            worst = max(worst, resid / scale)
    checks.append(
        (f"balance residual {worst:.2e} < 1e-9 on 1000 scenarios", worst < 1e-9)
    )

    # (b) Array-scaling exactness of the maximum power point.
    env = EnvCondition(g=820.0, t=31.0)
    unit = mpp(PVArraySpec(module=REF_MODULE, n_series=1, n_parallel=1),
               ref_params, env)
    scaling_ok = True
    for ns, npar in ((3, 2), (10, 47), (31, 9)):
        arr = mpp(PVArraySpec(module=REF_MODULE, n_series=ns, n_parallel=npar),
                  ref_params, env)
        scaling_ok &= arr.v_mp == unit.v_mp * ns
        scaling_ok &= arr.i_mp == unit.i_mp * npar
        scaling_ok &= arr.p_mp == arr.v_mp * arr.i_mp
    checks.append(("array scaling is exact", scaling_ok))

    # (c) Normalized MPP gradient below 1e-4 across operating points.
    grad_ok = True
    worst_grad = 0.0
    for g, t in ((1000.0, 25.0), (500.0, 25.0), (100.0, 25.0),
                 (1000.0, 15.0), (1000.0, 45.0), (640.0, 38.0)):
        e = EnvCondition(g=g, t=t)
        got = mpp(PVArraySpec(module=REF_MODULE, n_series=1, n_parallel=1),
                  ref_params, e)
        adj = adjust_params(ref_params, REF_MODULE, e)
        h = 1e-6 * module_voc(adj)
        p = lambda v: v * module_current(adj, v)
        slope = (p(got.v_mp + h) - p(got.v_mp - h)) / (2.0 * h)
        norm = abs(slope) * got.v_mp / got.p_mp
        worst_grad = max(worst_grad, norm)
        grad_ok &= norm < 1e-4
    checks.append((f"MPP gradient {worst_grad:.2e} < 1e-4", grad_ok))

    # (d) STATCOM clamp and capacitor voltage-squared laws.
    law_rng = np.random.default_rng(77)
    law_ok = True
    for _ in range(500):
        cfg = Statcom(q_max=float(law_rng.uniform(1e3, 3e5)))
        demand = float(law_rng.uniform(-6e5, 6e5))
        q_out = dispatch(cfg, [demand], 230.0)[0].item()
        law_ok &= abs(q_out) <= cfg.q_max
        law_ok &= q_out == demand if abs(demand) <= cfg.q_max else True
        q_r = float(law_rng.uniform(1e3, 5e5))
        v_r = float(law_rng.uniform(100.0, 500.0))
        v = float(law_rng.uniform(0.0, 600.0))
        expect = q_r * (v / v_r) ** 2
        q_bank = dispatch(FixedCapacitor(q_rated=q_r, v_rated=v_r), [0.0], v)[0].item()
        law_ok &= abs(q_bank - expect) <= 1e-9 * max(expect, 1.0)
    checks.append(("statcom clamp and capacitor V^2 laws hold", law_ok))

    # (e) Parse/emit round trip.
    rt_rng = np.random.default_rng(88)
    rt_ok = all(
        parse_scenario(emit_scenario(s)) == s
        for s in (
            [parse_scenario(bundled_scenario_text(n)) for n in ("case1", "case2", "case3")]
            + [random_scenario(rt_rng, i) for i in range(25)]
        )
    )
    checks.append(("parse/emit round trip is exact", rt_ok))

    # (f) Byte-identical determinism of simulate, library and CLI.
    lib_a = emit_csv(run(parse_scenario(bundled_scenario_text("case2"))))
    lib_b = emit_csv(run(parse_scenario(bundled_scenario_text("case2"))))
    path = tmp_path / "case2.json"
    path.write_text(bundled_scenario_text("case2"), encoding="utf-8")
    out_1, out_2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    rc1 = cli.main(["simulate", str(path), "-o", str(out_1)])
    rc2 = cli.main(["simulate", str(path), "-o", str(out_2)])
    det_ok = (
        lib_a == lib_b
        and rc1 == 0
        and rc2 == 0
        and out_1.read_bytes() == out_2.read_bytes()
        and out_1.read_text(encoding="utf-8") == lib_a
    )
    checks.append(("repeated simulate output is byte-identical", det_ok))

    criterion(7, "randomized property suites", checks)


# ======================================================================
# 8. Mode-ordering theorem
# ======================================================================


def test_criterion_8_mode_ordering(criterion):
    """On a shared q_load >= 0 profile: max|q_grid| statcom <= cap <= none.

    The bank is rated at the profile minimum so its constant output never
    overshoots any segment (|q - c| <= q needs c <= 2*min q); the STATCOM
    is rated above the profile maximum so it tracks every segment exactly.
    """
    rng = np.random.default_rng(4_096)
    checks = []
    for trial in range(25):
        n_seg = int(rng.integers(1, 4))
        starts = (0.0, *sorted(
            float(k) * 0.01
            for k in rng.choice(np.arange(1, 5), size=n_seg - 1, replace=False)
        ))
        load = tuple(
            (t, float(rng.uniform(10_000.0, 120_000.0)),
             float(rng.uniform(20_000.0, 150_000.0)))
            for t in starts
        )
        qs = [q for _, _, q in load]
        compensators = {
            "statcom": Statcom(q_max=1.1 * max(qs)),
            "cap": FixedCapacitor(q_rated=min(qs), v_rated=230.0),
            "none": NoCompensator(),
        }
        worst = {
            name: max(
                abs(r.q_grid)
                for r in run(make_scenario(load=load, compensator=comp,
                                           scenario_id=name)).records
            )
            for name, comp in compensators.items()
        }
        ordered = worst["statcom"] <= worst["cap"] <= worst["none"]
        checks.append(
            (f"trial {trial}: {worst['statcom']:.0f} <= {worst['cap']:.0f} "
             f"<= {worst['none']:.0f}", ordered)
        )
    criterion(8, "mode ordering statcom <= fixed capacitor <= none", checks)
