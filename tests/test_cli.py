"""Tests for pvgrid.cli — subcommands, exit codes, and artifacts."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pvgrid
from pvgrid import cli, pv_model, scenario_io
from pvgrid.compensation import COMPENSATORS
from pvgrid.errors import FINITE, NonConvergence, numeric_fields
from pvgrid.component_design import (
    BoostDesign, BoostDesignInput, LCLDesign, LCLDesignInput, ResonanceReport, boost_design,
    lcl_design,
)
from pvgrid.pv_model import G_MAX, EnvCondition, MPPResult, PVArraySpec, PVModuleSpec
from pvgrid.scenario_io import bundled_scenario_text, emit_csv, parse_scenario
from pvgrid.simulator import COLUMNS, Scenario, TimeSeries, run

from conftest import (
    BOOST_ARGS, COMPENSATOR_DOCS, DATASHEETS, DESIGN_RUNS, LCL_ARGS, OUT_OF_BUDGET_AT_FIRST,
    OUT_OF_BUDGET_ITERATIONS, REF_MODULE, RESONANCE_ARGS, SUBCOMMANDS, scenario_documents,
)


@pytest.fixture()
def case_file(tmp_path):
    """Materialize a bundled scenario as a file path."""

    def _write(name: str) -> str:
        path = tmp_path / f"{name}.json"
        path.write_text(bundled_scenario_text(name), encoding="utf-8")
        return str(path)

    return _write


# ======================================================================
# Design subcommands
# ======================================================================


class TestDesignCommands:
    """design-boost, design-lcl, check-resonance."""

    @pytest.mark.parametrize(("argv", "shown"), [
        pytest.param(BOOST_ARGS, ["i_out_max", "143.35 A", "1.4025 mH", "3427 µF"],
                     id="design-boost"),
        pytest.param(["design-boost", "--p", "1000000", "--vin", "290", "--vout", "700",
                      "--fsw", "1000"], ["170.76 mF"], id="design-boost-mF"),
        pytest.param(LCL_ARGS, ["512.3 µH", "100.29 µF", "12.879 µH", "4.4838 kHz",
                                "passed      = yes"], id="design-lcl"),
        pytest.param(RESONANCE_ARGS, ["26.103 krad/s", "4.1544 kHz", "passed    = yes"],
                     id="check-resonance"),
    ])
    def test_human_output(self, capsys, argv, shown):
        """Values print with engineering prefixes, and the LCL filter with its
        resonance verdict; exit code 0.  A capacitance of 0.1 F and more prints
        in mF, and no value prints in exponent form."""
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        for text in shown:
            assert text in out
        assert "e+" not in out

    def test_boost_json_matches_library(self, capsys):
        """--json emits exactly the library-computed values."""
        assert cli.main(BOOST_ARGS + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        ref = boost_design(BoostDesignInput(p=100345.0, v_in=290.0, v_out=700.0, f_s=5000.0))
        assert doc["i_out_max"] == ref.i_out_max
        assert doc["delta_i_l"] == ref.delta_i_l
        assert doc["delta_v_out"] == ref.delta_v_out
        assert doc["l"] == ref.l
        assert doc["c"] == ref.c

    def test_boost_degenerate_input_exits_1(self, capsys):
        """A non-boosting voltage pair fails with code 1 naming the error."""
        code = cli.main(
            ["design-boost", "--p", "1e5", "--vin", "700", "--vout", "700", "--fsw", "5e3"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidValue: step-up requires v_in < v_out")

    def test_lcl_json_matches_library(self, capsys):
        """--json carries the filter values plus the resonance report."""
        assert cli.main(LCL_ARGS + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        ref = lcl_design(
            LCLDesignInput(p=100000.0, v_g=230.0, f_g=50.0, v_dc=700.0, f_sw=10000.0)
        )
        assert doc["l_1"] == ref.l_1
        assert doc["l_2"] == ref.l_2
        assert doc["c_g"] == ref.c_g
        assert doc["passed"] is True
        assert doc["f_min"] == 500.0 and doc["f_max"] == 5000.0

    def test_check_resonance(self, capsys):
        """The standalone check reports the 4154 Hz placement as passing."""
        code = cli.main(
            ["check-resonance", "--l1", "0.6e-3", "--l2", "15e-6",
             "--cg", "100.29e-6", "--fg", "50", "--fsw", "10000", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["f_res"] - 4154.0) <= 0.01 * 4154.0
        assert doc["passed"] is True

    @pytest.mark.parametrize("argv,sha256", [
        (LCL_ARGS, "275f69de2ed6e4c187e48018f47d17e622add6861f747bfeb7ef52a683225001"),
        (RESONANCE_ARGS, "0132bb54dbbfff08c9b2d93040a0a65924ab0c34b6e2f6a17b49c686f8ae993a"),
    ], ids=["design-lcl", "check-resonance"])
    def test_json_output_is_pinned(self, capsys, argv, sha256):
        """--json stdout keeps its exact bytes and key order (recorded while
        ResonanceReport still took f_res and passed as arguments)."""
        assert cli.main(argv + ["--json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == sha256

    def test_microfarads_follow_the_printed_value(self):
        """A capacitance prints in µF when its value rounded to the 5 digits
        printed lies in [1 µF, 0.1 F), so one that rounds up to 0.1 F prints
        ``100 mF``; no count of µF prints in exponent form."""
        assert cli._fmt_value(0.99999996, "F") == "1 F"
        assert cli._fmt_value(0.99999996e-6, "F") == "1 µF"
        assert cli._fmt_value(3.427e-3, "F") == "3427 µF"
        assert cli._fmt_value(0.0999994, "F") == "99999 µF"
        assert cli._fmt_value(0.0999996, "F") == "100 mF"
        assert cli._fmt_value(0.123456, "F") == "123.46 mF"
        assert cli._fmt_value(0.5, "F") == "500 mF"
        assert cli._fmt_value(0.99999996e-3, "H") == "1 mH"

    def test_output_file_written(self, capsys, tmp_path):
        """-o writes the artifact and reports the path on stderr."""
        target = tmp_path / "boost.txt"
        assert cli.main(BOOST_ARGS + ["-o", str(target)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"wrote {target}" in captured.err
        assert "143.35 A" in target.read_text(encoding="utf-8")


# ======================================================================
# pv-curve
# ======================================================================


# The lit pv-curve --json digest for each float64 expm1 loop of numpy: its baseline
# loop gives libm's bits, its AVX-512 (SIMD) loop not always.
_LIT_SHA256 = {"libm": "97083c09dc57ae2c2a212e68c548e80d0ac5e971fb50573bf1889c27108dcffb",
               "SIMD": "9770daa33b432090c2b6ba4eea92beaeb33917a2253474ff806b627960d500fd"}
_DARK_SHA256 = "91c4dc968ebbe2cecff344c24d2a1b1a15655a15dd7292adde8b0fa4a0ba30d5"


# Prints the float64 expm1 loop that numpy runs, e.g. X86_V4.
_PRINT_EXPM1_LOOP = (
    "from numpy.lib.introspect import opt_func_info\n"
    "print(opt_func_info(func_name='^expm1$')['expm1']['dd']['current'])\n"
)


def _numpy_expm1_is_libm() -> bool:
    """Whether numpy's float64 expm1 gives libm's bits on 2,001 arguments over
    the diode exponents of a sweep; its AVX-512 loop differs on about a tenth."""
    z = np.linspace(-5.0, 45.0, 2001)
    return np.expm1(z).tolist() == [math.expm1(x) for x in z.tolist()]


def _stdout_writes(monkeypatch, argv: list[str]) -> int:
    """How many writes ``pvgrid argv...`` makes to stdout, once it has exited 0."""
    writes = []

    class Stdout(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", Stdout())
    assert cli.main(argv) == 0
    return len(writes)


class TestPvCurve:
    """Curve sweep subcommand."""

    MODULE_ARGS = [
        "pv-curve", "--pmp", "213.15", "--vmp", "29", "--imp", "7.35",
        "--voc", "36.3", "--isc", "7.84",
    ]

    def test_csv_output(self, capsys):
        """Default output is the v,i,p CSV with the requested sample count."""
        assert cli.main(self.MODULE_ARGS + ["--points", "50"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "v,i,p"
        assert len(lines) == 51

    def test_json_mpp_block(self, capsys):
        """--json includes the located maximum power point."""
        assert cli.main(self.MODULE_ARGS + ["--json", "--points", "20"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["points"]) == 20
        assert abs(doc["mpp"]["p_mp"] - 213.15) <= 0.005 * 213.15

    @pytest.mark.parametrize("extra,sha256", [
        ([], _LIT_SHA256),
        (["--g", "0"], _DARK_SHA256),
    ], ids=["lit", "dark"])
    def test_json_output_is_pinned(self, capsys, extra, sha256):
        """--json stdout of a lit and of a dark sweep keeps its exact bytes.  The
        lit sweep's interior currents come from numpy's expm1, whose float64 loop
        gives libm's bits in its baseline build and not always in its AVX-512
        (SIMD) one, so that sweep has one digest for each."""
        assert cli.main(self.MODULE_ARGS + ["--json"] + extra) == 0
        if isinstance(sha256, dict):
            sha256 = sha256["libm" if _numpy_expm1_is_libm() else "SIMD"]
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == sha256

    def test_json_other_digest_with_avx512_off(self, monkeypatch):
        """With numpy's AVX-512 features switched off by NPY_DISABLE_CPU_FEATURES,
        a fresh interpreter runs another float64 expm1 loop and prints the other
        pinned digest of the lit sweep, and the dark sweep's, so both lit digests
        are checked here."""
        found = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
        off = " ".join(f for f in found if f.startswith("AVX512") or f == "X86_V4")
        if not off:
            pytest.skip("this runner's CPU has no AVX-512, so only the libm digest of the "
                        "lit pv-curve sweep ran")
        on = _python(_PRINT_EXPM1_LOOP).strip()
        code = _PRINT_EXPM1_LOOP + (
            "import contextlib, hashlib, io, sys\n"
            "from pvgrid import cli\n"
            "for extra in ([], ['--g', '0']):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        assert cli.main(sys.argv[1:] + extra) == 0\n"
            "    print(hashlib.sha256(out.getvalue().encode('utf-8')).hexdigest())"
        )
        monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", off)
        switched, lit, dark = _python(code, *self.MODULE_ARGS, "--json").split()
        assert switched != on, f"switching off {off} does not change the expm1 loop ({on})"
        assert lit == _LIT_SHA256["SIMD" if _numpy_expm1_is_libm() else "libm"]
        assert dark == _DARK_SHA256

    def test_json_write_count(self, monkeypatch):
        """--json of 10,001 points reaches stdout in four writes, not one: the
        head, a piece of 10,000 points, a piece of one and the tail."""
        assert _stdout_writes(monkeypatch, self.MODULE_ARGS + ["--json", "--points", "10001"]) == 4

    def test_array_scaling(self, capsys):
        """--ns/--np scale the curve to array level."""
        assert cli.main(
            self.MODULE_ARGS + ["--ns", "10", "--np", "47", "--json", "--points", "20"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["mpp"]["p_mp"] - 100_345.0) <= 0.03 * 100_345.0

    def test_mpp_summary_printed_with_output_file(self, capsys, tmp_path):
        """With -o, the CSV goes to the file and the MPP block to stdout."""
        target = tmp_path / "curve.csv"
        assert cli.main(self.MODULE_ARGS + ["-o", str(target)]) == 0
        out = capsys.readouterr().out
        assert "p_mp" in out
        assert target.read_text(encoding="utf-8").startswith("v,i,p\n")

    def test_mpp_block_is_pinned(self, capsys, tmp_path):
        """With -o, the text MPP block on stdout keeps its exact bytes (recorded
        while MPPResult still took p_mp as an argument)."""
        assert cli.main(self.MODULE_ARGS + ["-o", str(tmp_path / "curve.csv")]) == 0
        out = capsys.readouterr().out
        assert out == "v_mp = 29 V\ni_mp = 7.35 A\np_mp = 213.15 W\n"
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "893d7e46e55dde5ecf421a68b5229b719f53a73ec6ff16584cac73c2d8d52a2f"
        )

    def test_impossible_datasheet_exits_1(self, capsys):
        """A fill factor no diode model can reach fails datasheet validation."""
        code = cli.main(
            ["pv-curve", "--pmp", "280", "--vmp", "35.9", "--imp", "7.8",
             "--voc", "36.3", "--isc", "7.84"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InfeasibleSpec: ") and "ideality 1.4: " in err

    @pytest.mark.parametrize("budget", [pv_model._CURRENT_BUDGET, OUT_OF_BUDGET_ITERATIONS],
                             ids=["default-budget", "out-of-budget"])
    def test_datasheet_past_its_first_ideality_exits_0(self, capsys, monkeypatch, budget):
        """The first ideality tried, 1.3, cannot calibrate this datasheet: its
        current at v_oc misses 0, and with a budget of 40 iterations its current
        solve runs out.  Calibration goes on to 1.35 and the sweep succeeds,
        with nothing on stderr."""
        monkeypatch.setattr(pv_model, "_CURRENT_BUDGET", budget)
        monkeypatch.setattr(pv_model, "extract_single_diode_params",
                            pv_model.extract_single_diode_params.__wrapped__)
        assert cli.main(["pv-curve", "--pmp", "91623.728", "--vmp", "1203.228", "--imp", "76.148",
                         "--voc", "1387.653", "--isc", "85.187", "--points", "5"]) == 0
        out, err = capsys.readouterr()
        assert (len(out.strip().split("\n")), err) == (6, "")

    def test_mpp_out_of_budget_exits_2(self, capsys, monkeypatch):
        """An MPP solve that runs out of budget exits 2 with one NonConvergence
        line and no traceback."""
        params = pv_model.extract_single_diode_params(REF_MODULE)
        monkeypatch.setattr(pv_model, "extract_single_diode_params", lambda spec: params)
        solve = pv_model.newton_bisect_array  # the MPP solve alone takes the default budget
        monkeypatch.setattr(pv_model, "newton_bisect_array",
                            lambda *args, **kw: solve(*args, **{"max_iter": 1, **kw}))
        assert cli.main(self.MODULE_ARGS) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: NonConvergence: mpp: no root of dP/dVd within 100 iterations\n"
        )

    def test_underflowing_irradiance_sweeps_dark(self, capsys):
        """g = 0, 1e-300 W/m² and the subnormal 5e-324 W/m² sweep to the dark
        point and exit 0: the CSV is its header and one row 0,0,0."""
        for g in ("0", "1e-300", "5e-324"):
            assert cli.main(self.MODULE_ARGS + ["--g", g, "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc == {"points": [{"v": 0.0, "i": 0.0, "p": 0.0}]}
            assert cli.main(self.MODULE_ARGS + ["--g", g]) == 0
            assert capsys.readouterr() == ("v,i,p\n0,0,0\n", "")
        assert cli.main(self.MODULE_ARGS + ["--g", "1e-100", "--points", "5"]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 6

    def test_invalid_datasheet_exits_1(self, capsys):
        """A datasheet violating basic ordering fails validation."""
        code = cli.main(
            ["pv-curve", "--pmp", "213", "--vmp", "37", "--imp", "7.35",
             "--voc", "36.3", "--isc", "7.84"]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: InvalidValue: require v_mp < v_oc")


# ======================================================================
# Flag values the domain types reject
# ======================================================================


MODULE_ARGS = TestPvCurve.MODULE_ARGS
# The flag of each pv_module key that pv-curve takes.
_MODULE_FLAGS = {"p_mp": "--pmp", "v_mp": "--vmp", "i_mp": "--imp", "v_oc": "--voc",
                 "i_sc": "--isc", "n_cells": "--ncells", "alpha_isc": "--alpha-isc",
                 "beta_voc": "--beta-voc"}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    ("argv", "flag", "named"),
    [
        pytest.param(MODULE_ARGS, "--pmp=nan", "p_mp must be finite", id="pmp-nan"),
        pytest.param(MODULE_ARGS, "--pmp=214.65", "p_mp 214.65 differs from v_mp*i_mp",
                     id="pmp-off-rated"),
        pytest.param(MODULE_ARGS, "--alpha-isc=nan", "alpha_isc must be finite",
                     id="alpha_isc-nan"),
        pytest.param(MODULE_ARGS, "--beta-voc=-inf", "beta_voc must be finite",
                     id="beta_voc-inf"),
        pytest.param(MODULE_ARGS, "--g=nan", "g must be finite", id="g-nan"),
        pytest.param(MODULE_ARGS, "--g=inf", "g must be finite", id="g-inf"),
        pytest.param(MODULE_ARGS, "--g=15000",
                     "g must be finite and in [0, 2000] W/m², got 15000.0", id="g-above-envelope"),
        pytest.param(MODULE_ARGS, "--g=1e300",
                     "g must be finite and in [0, 2000] W/m², got 1e+300", id="g-1e300"),
        pytest.param(MODULE_ARGS, "--t=-40.5", "t_cell must be finite and in [-40, 90] °C",
                     id="t_cell-below-envelope"),
        pytest.param(MODULE_ARGS, "--points=100000000", "n_points must be at most",
                     id="points-over-cap"),
        pytest.param(MODULE_ARGS, f"--ncells={10**400}", "n_cells must be finite and at least 1",
                     id="ncells-past-float-range"),
        pytest.param(RESONANCE_ARGS, "--l1=nan", "l_1 must be finite and positive",
                     id="l1-nan"),
        pytest.param(RESONANCE_ARGS, "--cg=inf", "c_g must be finite and positive",
                     id="cg-inf"),
    ],
)
def test_rejected_flag_value_exits_1(capsys, argv, flag, named):
    """A non-finite or over-cap flag value is rejected by the type it feeds,
    with exit 1 and one InvalidValue line naming the input, not printed as a
    result."""
    assert cli.main(argv + [flag]) == 1  # a repeated flag overrides the earlier one
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: InvalidValue: ") and captured.err.count("\n") == 1
    assert named in captured.err


@pytest.mark.parametrize(("key", "value", "t_cell"), [
    pytest.param("alpha_isc", 1e308, 30.0, id="i_sc-overflow"),
    pytest.param("alpha_isc", 1e308, 20.0, id="i_sc-negative-overflow"),
    pytest.param("beta_voc", -1e308, 40.0, id="v_oc-negative-overflow"),
    pytest.param("beta_voc", -1e308, 10.0, id="v_oc-overflow"),
])
def test_rating_beyond_float_range_names_the_temperature(capsys, tmp_path, key, value, t_cell):
    """A temperature coefficient so large that a rating translated to the cell
    temperature leaves the float range is rejected by that temperature, as a
    negative rating is: exit 1 and one error line, with no numpy warning (the
    suite turns one into an error), from pv-curve and simulate alike."""
    line = f"error: InvalidValue: temperature {t_cell} °C drives datasheet ratings out of (0, inf)"
    assert cli.main(MODULE_ARGS + [f"{_MODULE_FLAGS[key]}={value!r}", f"--t={t_cell!r}"]) == 1
    assert capsys.readouterr() == ("", line + "\n")
    doc = json.loads(bundled_scenario_text("case1"))
    doc["pv_module"][key] = value
    for segment in doc["profiles"]["irradiance"]:
        segment["t_cell"] = t_cell
    path = tmp_path / "hot.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["simulate", str(path)]) == 1
    assert capsys.readouterr() == ("", f"{line} (in {path})\n")


def test_negative_flag_value_in_exponent_form(capsys):
    """A negative flag value in exponent form is a value, as its decimal
    spelling is, after a space or an ``=``: ``--beta-voc -3.6e-3 --t -4e1``
    prints what ``--beta-voc -0.0036 --t -40`` prints.  So is ``-inf`` or
    ``-nan`` in any spelling ``float`` takes, which the record rejects with
    one error line and no usage."""
    outs = set()
    for beta_voc, t in (("-0.0036", "-40"), ("-3.6e-3", "-4e1"), ("-36E-4", "-.4e2")):
        for flags in (["--beta-voc", beta_voc, "--t", t], [f"--beta-voc={beta_voc}", f"--t={t}"]):
            assert cli.main(MODULE_ARGS + flags + ["--points", "5"]) == 0
            out, err = capsys.readouterr()
            assert err == "" and out.startswith("v,i,p\n")
            outs.add(out)
    assert len(outs) == 1
    t_cell = "t_cell must be finite and in [-40, 90] °C, got -inf"
    for flag, value, line in (
        ("--t", "-inf", t_cell), ("--t", "-Infinity", t_cell), ("--t", "-INF", t_cell),
        ("--g", "-nan", "g must be finite and in [0, 2000] W/m², got nan"),
        ("--beta-voc", "-NaN", "beta_voc must be finite and negative, got nan"),
        ("--pmp", "-infinity", "p_mp must be finite and positive, got -inf"),
    ):
        for flags in ([flag, value], [f"{flag}={value}"]):
            assert cli.main(MODULE_ARGS + flags) == 1
            assert capsys.readouterr() == ("", f"error: InvalidValue: {line}\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    ("argv", "named"),
    [
        pytest.param(  # z_b = v_g**2 / (p/3) underflows to 0
            ["design-lcl", "--p", "1e300", "--vg", "1e-300", "--fg", "50", "--vdc", "700",
             "--fsw", "10000"],
            "inputs p = 1e+300, v_g = 1e-300,", id="lcl-base-impedance-underflow",
        ),
        pytest.param(  # (2*pi*f_sw)**2 overflows
            LCL_ARGS + ["--fsw=1e160"], "f_sw = 1e+160,", id="lcl-square-overflow",
        ),
        pytest.param(  # l_1*l_2*c_g underflows to 0 and omega_res is ~1.4e310 rad/s
            RESONANCE_ARGS + ["--l1=1e-320", "--l2=1e-320", "--cg=1e-300"],
            "inputs l_1 = 1e-320, l_2 = 1e-320, c_g = 1e-300,", id="resonance-underflow",
        ),
        pytest.param(  # f_min = 10*f_g overflows to inf, with no error raised
            RESONANCE_ARGS + ["--fg=1.7e308"], "inputs l_1 = 0.0006, l_2 = 1.5e-05, "
            "c_g = 0.00010029, f_g = 1.7e+308, f_sw = 10000.0 put", id="resonance-bound-overflow",
        ),
        pytest.param(  # f_max = 0.5*f_sw underflows to 0
            RESONANCE_ARGS + ["--fsw=5e-324"], "f_g = 50.0, f_sw = 5e-324 put",
            id="resonance-bound-underflow",
        ),
        pytest.param(BOOST_ARGS + ["--p=5e-324"], "inputs p = 5e-324,", id="boost-underflow"),
        pytest.param(  # l = .../(delta_i_l*f_s*v_out) overflows to inf
            BOOST_ARGS + ["--fsw=5e-324"], "inputs p = 100345.0, v_in = 290.0, v_out = 700.0, "
            "f_s = 5e-324, ripple_i_frac = 0.07, ripple_v_frac = 0.007 put", id="boost-overflow",
        ),
        pytest.param(  # l's divisor overflows to inf, so l underflows to 0
            ["design-boost", "--p", "1e5", "--vin", "290", "--vout", "700", "--fsw", "1e308"],
            "inputs p = 100000.0, v_in = 290.0, v_out = 700.0, f_s = 1e+308,",
            id="boost-inductor-underflow",
        ),
        pytest.param(  # delta_i_l = ... / v_in overflows to inf
            ["design-boost", "--p", "1e308", "--vin", "1e-300", "--vout", "700", "--fsw", "1"],
            "inputs p = 1e+308, v_in = 1e-300,", id="boost-ripple-overflow",
        ),
        pytest.param(  # l_1's divisor overflows to inf, so l_1 underflows to 0
            ["design-lcl", "--p", "1e308", "--vg", "230", "--fg", "50", "--vdc", "700",
             "--fsw", "5000"],
            "inputs p = 1e+308, v_g = 230.0,", id="lcl-inductor-underflow",
        ),
    ],
)
def test_out_of_range_design_exits_1(capsys, argv, named):
    """Finite ratings whose arithmetic leaves the float range are rejected as
    InvalidValue naming the inputs, with exit 1: no traceback, no nan or inf.
    A value that underflows to 0 or overflows to inf without raising is named
    by the inputs too, not as a field of the result."""
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: InvalidValue: inputs ")
    assert captured.err.endswith(" put a computed value beyond the float range\n")
    assert named in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    ("l_1", "l_2", "c_g", "omega_res"),
    [
        pytest.param("1e-200", "1e-200", "1e-200", math.sqrt(2.0) * 1e200,
                     id="product-underflow"),
        pytest.param("1e308", "1e308", "1e-308", math.sqrt(2.0), id="product-overflow"),
        pytest.param("1e200", "1e200", "1", math.sqrt(2.0) * 1e-100,
                     id="product-overflow-small-omega"),
        pytest.param("1e300", "1e-300", "1e-300", 1e300, id="quotient-overflow"),
    ],
)
def test_resonance_outside_product_range(capsys, l_1, l_2, c_g, omega_res):
    """A resonance in the float range is computed, with exit 0, even where the
    product l_1*l_2*c_g or the quotient (l_1 + l_2) / (l_1*l_2*c_g) leaves it."""
    argv = ["check-resonance", "--l1", l_1, "--l2", l_2, "--cg", c_g, "--fg", "50",
            "--fsw", "10000", "--json"]
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["omega_res"] == pytest.approx(omega_res, rel=1e-15, abs=0.0)
    assert doc["passed"] is False


# ======================================================================
# Property: every flag value is computed or rejected, never leaked
# ======================================================================


# Flag values: non-finite, signed, subnormal, at the float range's edge, ordinary.
_EDGE_VALUES = ["nan", "inf", "-inf", "-1", "-0.0", "0", "5e-324", "2.2250738585072014e-308",
                "1e-300", "1e300", "1e308", "1.7976931348623157e308", "-1e308"]
_FLAG_VALUE = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.floats(min_value=0.0, max_value=1.0).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
# Integer flags take integer values: none, negative, or past the float range.
_COUNT_VALUE = st.sampled_from(["-1", "0", "1", "2", str(10**200), str(10**400)])
_INTEGER_FLAGS = {"--ncells": _COUNT_VALUE, "--ns": _COUNT_VALUE, "--np": _COUNT_VALUE,
                  "--points": st.sampled_from(["-1", "0", "2", "3", "2000"])}


def _near(value: float) -> st.SearchStrategy[str]:
    """Flag text of ``value`` times a factor in [0.2, 5]."""
    return st.floats(0.2, 5.0).map(lambda k: repr(value * k))


_OMITTED = st.none()
# Each command's flags, with a strategy for an ordinary value (None leaves the flag out).
_DESIGN_FLAGS = {
    "design-boost": {"--p": _near(100345.0), "--vin": _near(290.0), "--vout": _near(700.0),
                     "--fsw": _near(5000.0), "--ripple-i-frac": _OMITTED,
                     "--ripple-v-frac": _OMITTED},
    "design-lcl": {"--p": _near(1e5), "--vg": _near(230.0), "--fg": _near(50.0),
                   "--vdc": _near(700.0), "--fsw": _near(1e4), "--cap-frac": _OMITTED,
                   "--ripple-frac": _OMITTED, "--atten-factor": _OMITTED},
    "check-resonance": {"--l1": _near(0.6e-3), "--l2": _near(15e-6), "--cg": _near(100e-6),
                        "--fg": _near(50.0), "--fsw": _near(1e4)},
}
_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _main_outcome(data, command: str, flags: dict) -> None:
    """Run ``cli.main`` on ``command`` with each flag's ordinary value, except up
    to two flags given a generated value.  It returns 0, 1 or 2 without
    raising, and a run that succeeds prints no NaN or infinity."""
    replaced = data.draw(st.sets(st.sampled_from(sorted(flags)), max_size=2), "replaced")
    argv = [command]
    for flag, ordinary in flags.items():
        raw = _INTEGER_FLAGS.get(flag, _FLAG_VALUE)
        value = data.draw(raw if flag in replaced else ordinary, flag)
        argv += [] if value is None else [f"{flag}={value}"]
    argv += data.draw(st.sampled_from([[], ["--json"]]), "json")
    _assert_outcome(argv)


def _assert_outcome(argv: list[str]) -> None:
    """``cli.main(argv)`` returns 0, 1 or 2 without raising, and prints no NaN
    or infinity when it returns 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if code == 0:
        assert not _NON_FINITE.search(out.getvalue()), (argv, out.getvalue())


@pytest.mark.parametrize("command", list(_DESIGN_FLAGS))
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_design_command_outcome_property(command, data):
    """Property: each design command, over generated values of its flags,
    exits 0, 1 or 2 and never raises; on exit 0 it prints no NaN or inf."""
    _main_outcome(data, command, _DESIGN_FLAGS[command])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_pv_curve_outcome_property(data):
    """Property: pv-curve over real datasheets scaled in voltage and in
    current, extreme scales included, and generated values of the other
    flags, exits 0, 1 or 2 and never raises; on exit 0 it prints no NaN or
    inf.  At most 2,000 points, so no case allocates much."""
    p_mp, v_mp, i_mp, v_oc, i_sc, n_cells = data.draw(st.sampled_from(DATASHEETS), "datasheet")
    scale = st.sampled_from([1.0, 0.25, 0.5, 2.0, 4.0, 1e-300, 1e-100, 1e100, 1e300])
    k_v, k_i = data.draw(scale, "voltage scale"), data.draw(scale, "current scale")
    scaled = {"--pmp": p_mp * k_v * k_i, "--vmp": v_mp * k_v, "--imp": i_mp * k_i,
             "--voc": v_oc * k_v, "--isc": i_sc * k_i}
    flags = {flag: st.just(repr(value)) for flag, value in scaled.items()}
    flags.update({
        "--ncells": st.just(str(n_cells)), "--alpha-isc": _OMITTED, "--beta-voc": _OMITTED,
        "--ns": st.integers(1, 60).map(str), "--np": st.integers(1, 60).map(str),
        "--g": _OMITTED | st.floats(0.0, 1100.0).map(repr),
        "--t": _OMITTED | st.floats(-40.0, 90.0).map(repr),
        "--points": st.integers(3, 2000).map(str),
    })
    _main_outcome(data, "pv-curve", flags)


# Real datasheets and the 91.6 kW one, whose first ideality 1.3 misses I(v_oc) = 0.
_SHEETS = [*DATASHEETS, astuple(OUT_OF_BUDGET_AT_FIRST)[:6]]
# (current-solve budget, idealities) of calibration: the defaults, and ones under
# which the 91.6 kW datasheet runs out of budget at 1.3, then calibrates at 1.35
# or has no ideality left.
_SEARCHES = [
    (pv_model._CURRENT_BUDGET, pv_model._IDEALITIES),
    (OUT_OF_BUDGET_ITERATIONS, pv_model._IDEALITIES),
    (OUT_OF_BUDGET_ITERATIONS, (1.3, 1.0, 1.05)),
    (5, (1.3, 1.0, 1.05, 1.35)),
]


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sheet=st.sampled_from(_SHEETS), search=st.sampled_from(_SEARCHES),
       command=st.sampled_from(["pv-curve", "simulate"]), g=st.floats(0.0, G_MAX),
       t=st.floats(-40.0, 90.0))
@example(sheet=_SHEETS[-1], search=_SEARCHES[2], command="pv-curve", g=1000.0, t=25.0)
@example(sheet=_SHEETS[-1], search=_SEARCHES[2], command="simulate", g=1000.0, t=25.0)
@example(sheet=_SHEETS[-1], search=_SEARCHES[1], command="simulate", g=G_MAX, t=90.0)
def test_exit_2_only_on_a_calibration_nonconvergence(tmp_path, sheet, search, command, g, t):
    """Property: pv-curve and simulate, through ``cli.main``, on a datasheet at a
    point inside the envelope exit 2 exactly when calibration raises
    NonConvergence, with that error on one line; the MPP and the sweep
    converge there.  (Another rejection, such as a temperature whose
    translation overflows, exits 1.)  The budget and idealities drawn apply to
    calibration alone.  From simulate the line ends with the document's path."""
    budget, idealities = search
    failures = []
    calibrate_afresh = pv_model.extract_single_diode_params.__wrapped__

    def calibrate(spec):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pv_model, "_CURRENT_BUDGET", budget)
            patch.setattr(pv_model, "_IDEALITIES", idealities)
            try:
                return calibrate_afresh(spec)
            except NonConvergence as exc:
                failures.append(str(exc))
                raise

    p_mp, v_mp, i_mp, v_oc, i_sc, n_cells = sheet
    if command == "pv-curve":
        argv = ["pv-curve", f"--pmp={p_mp!r}", f"--vmp={v_mp!r}", f"--imp={i_mp!r}",
                f"--voc={v_oc!r}", f"--isc={i_sc!r}", f"--ncells={n_cells}", f"--g={g!r}",
                f"--t={t!r}", "--points=5"]
        lead = tail = ""
    else:
        doc = json.loads(bundled_scenario_text("case1"))
        doc["pv_module"] = {"p_mp": p_mp, "v_mp": v_mp, "i_mp": i_mp, "v_oc": v_oc,
                            "i_sc": i_sc, "n_cells": n_cells}
        doc["profiles"]["irradiance"] = [{"t_start": 0.0, "g": g, "t_cell": t}]
        path = tmp_path / "sheet.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["simulate", str(path)]
        lead = f"module calibration failed for scenario {doc['id']!r}: "
        tail = f" (in {path})"
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pv_model, "extract_single_diode_params", calibrate)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert (code == 2) == bool(failures), (argv, search, code, err.getvalue())
    if failures:
        assert (out.getvalue(), err.getvalue()) == (
            "", f"error: NonConvergence: {lead}{failures[0]}{tail}\n"
        )


_SCENARIO_COMMANDS = [
    ["simulate", "a.json"], ["simulate", "a.json", "--json"], ["simulate", "a.json", "--report"],
    ["compare", "a.json", "b.json"], ["compare", "a.json", "b.json", "--json"],
]


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_scenario_command_outcome_property(tmp_path, data):
    """Property: simulate and compare over generated scenario documents (edge
    numbers, wrong types, unknown keys, unsorted profiles; see
    ``conftest.scenario_documents``) exit 0, 1 or 2 and never raise; on exit 0
    they print no NaN or inf.  The second document of a compare is a new one
    or the first with another compensator.  Each horizon holds at most 200
    records or is rejected by the record cap, so no case allocates much."""
    doc_a = data.draw(scenario_documents(), "a.json")
    doc_b = data.draw(st.one_of(scenario_documents(), st.sampled_from(COMPENSATOR_DOCS).map(
        lambda comp: {**doc_a, "compensator": comp})), "b.json")
    for name, doc in (("a.json", doc_a), ("b.json", doc_b)):
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    argv = data.draw(st.sampled_from(_SCENARIO_COMMANDS), "command")
    _assert_outcome([str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv])


# A value past the float range: Python ints that JSON carries exactly.
_PAST_FLOAT = [10**400, int(sys.float_info.max) + 1, -(10**309)]
_FIELDS = {"irradiance": pvgrid.IrradianceStep._fields, "load": pvgrid.LoadStep._fields}


@st.composite
def _located_bad_value(draw) -> tuple[dict, str, int, str]:
    """Valid profile columns with one bad value put at a random segment of a
    random profile, and the profile, segment index and field it is in."""
    profiles = {}
    for name, (lo, hi), (lo2, hi2) in (("irradiance", (0.0, 2000.0), (-40.0, 90.0)),
                                       ("load", (-1e6, 1e6), (-1e6, 1e6))):
        n = draw(st.integers(1, 6), f"{name} segments")
        starts = [0.0]
        for _ in range(n - 1):
            starts.append(starts[-1] + draw(st.floats(1e-3, 1e3)))
        profiles[name] = [starts, [draw(st.floats(lo, hi)) for _ in range(n)],
                          [draw(st.floats(lo2, hi2)) for _ in range(n)]]
    profile = draw(st.sampled_from(["irradiance", "load"]), "profile")
    fields, columns = _FIELDS[profile], profiles[profile]
    k = draw(st.integers(0, len(columns[0]) - 1), "segment")
    f = draw(st.integers(0, 2), "field")
    bad = st.sampled_from([math.nan, math.inf, -math.inf, *_PAST_FLOAT])
    if fields[f] == "g":
        bad |= st.floats(max_value=-5e-324) | st.floats(min_value=math.nextafter(2000.0, 3e3))
    elif fields[f] == "t_cell":
        bad |= st.floats(max_value=math.nextafter(-40.0, -50.0))
        bad |= st.floats(min_value=math.nextafter(90.0, 100.0))
    elif fields[f] == "t_start" and k == 0:  # a first t_start that is not 0
        bad |= st.floats(allow_nan=False).filter(lambda t: t != 0.0)
    elif fields[f] == "t_start":  # a t_start not after the one before it
        bad |= st.floats(max_value=columns[0][k - 1])
    columns[f][k] = draw(bad, "bad value")
    return profiles, profile, k, fields[f]


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_located_bad_value())
def test_bad_profile_value_names_its_segment(tmp_path, case):
    """Property: one bad profile value (NaN, an infinity, an int past the float
    range, g or t_cell outside the envelope, or a t_start out of order) at a
    random segment is named by that segment's index and its field, by
    ``Scenario`` and by ``simulate`` on one error line with exit 1, which ends
    with the document's path."""
    profiles, profile, k, field = case
    located = f"{profile} profile segment {k}: {field} must be "
    base = parse_scenario(bundled_scenario_text("case1"))
    with pytest.raises(pvgrid.InvalidValue) as failure:
        pvgrid.Scenario(base.grid, base.array, compensator=base.compensator, **profiles)
    assert str(failure.value).startswith(located)
    doc = json.loads(bundled_scenario_text("case1"))
    for name, columns in profiles.items():
        doc["profiles"][name] = [dict(zip(_FIELDS[name], segment)) for segment in zip(*columns)]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["simulate", str(path)])
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue() == f"error: InvalidValue: {failure.value} (in {path})\n"


# ======================================================================
# Flags and printed fields stay in step with the library records
# ======================================================================


# ``pvgrid COMMAND --help`` of each command that takes the flags of a record, at 100
# columns and up to its -o entry.
_HELP = {
    "design-boost": """\
usage: pvgrid design-boost [-h] --p P --vin V_IN --vout V_OUT --fsw F_S
                           [--ripple-i-frac RIPPLE_I_FRAC] [--ripple-v-frac RIPPLE_V_FRAC]
                           [--json] [-o FILE]

options:
  -h, --help            show this help message and exit
  --p P                 W, finite and positive
  --vin V_IN            V, finite and positive
  --vout V_OUT          V, finite and positive
  --fsw F_S             Hz, finite and positive
  --ripple-i-frac RIPPLE_I_FRAC
                        finite and in (0, 1)
  --ripple-v-frac RIPPLE_V_FRAC
                        finite and in (0, 1)
  --json                emit a JSON object instead of text
""",
    "design-lcl": """\
usage: pvgrid design-lcl [-h] --p P --vg V_G --fg F_G --vdc V_DC --fsw F_SW [--cap-frac CAP_FRAC]
                         [--ripple-frac RIPPLE_FRAC] [--atten-factor ATTEN_FACTOR] [--json]
                         [-o FILE]

options:
  -h, --help            show this help message and exit
  --p P                 W, finite and positive
  --vg V_G              V, finite and positive
  --fg F_G              Hz, finite and positive
  --vdc V_DC            V, finite and positive
  --fsw F_SW            Hz, finite and positive
  --cap-frac CAP_FRAC   finite and in (0, 1)
  --ripple-frac RIPPLE_FRAC
                        finite and in (0, 1)
  --atten-factor ATTEN_FACTOR
                        finite and in (0, 1)
  --json                emit a JSON object instead of text
""",
    "pv-curve": """\
usage: pvgrid pv-curve [-h] --pmp P_MP --vmp V_MP --imp I_MP --voc V_OC --isc I_SC
                       [--ncells N_CELLS] [--alpha-isc ALPHA_ISC] [--beta-voc BETA_VOC]
                       [--ns N_SERIES] [--np N_PARALLEL] [--g G] [--t T] [--points POINTS]
                       [--json] [-o FILE]

options:
  -h, --help            show this help message and exit
  --pmp P_MP            W, finite and positive
  --vmp V_MP            V, finite and positive
  --imp I_MP            A, finite and positive
  --voc V_OC            V, finite and positive
  --isc I_SC            A, finite and positive
  --ncells N_CELLS      finite and at least 1
  --alpha-isc ALPHA_ISC
                        1/°C, finite and positive
  --beta-voc BETA_VOC   1/°C, finite and negative
  --ns N_SERIES         finite and at least 1
  --np N_PARALLEL       finite and at least 1
  --g G                 W/m², finite and in [0, 2000] W/m²
  --t T                 °C, finite and in [-40, 90] °C
  --points POINTS
  --json                emit a JSON object instead of text
""",
}


class TestFieldDrift:
    """Output blocks and input records are derived from the dataclasses."""

    # Dests that feed no record field: options, the handler and the subcommand.
    CLI_ONLY = {"json", "output", "points", "handler", "command"}

    @pytest.mark.parametrize("cls", [BoostDesign, LCLDesign, ResonanceReport, MPPResult])
    def test_printed_fields_declare_unit_and_bound(self, cls):
        """Every int and float field of a printed result record declares the unit
        it prints in and a bound stricter than finite; every other field is a
        bool, printed yes/no, and declares no unit."""
        numeric = numeric_fields(cls)
        for f in fields(cls):
            if f.name in numeric:
                assert f.metadata.get("unit") and numeric[f.name][0] is not FINITE, f.name
            else:
                assert f.type == "bool" and "unit" not in f.metadata, f.name

    @pytest.mark.parametrize(
        ("argv", "records", "unexposed"),
        [
            pytest.param(BOOST_ARGS, (BoostDesignInput,), set(), id="design-boost"),
            pytest.param(LCL_ARGS, (LCLDesignInput,), set(), id="design-lcl"),
            pytest.param(MODULE_ARGS, (PVModuleSpec, PVArraySpec, EnvCondition),
                         {"g_stc", "t_stc", "module"}, id="pv-curve"),
        ],
    )
    def test_flag_dests_are_record_fields(self, argv, records, unexposed):
        """Every dest names a field of a record the command builds, and every
        field but the listed unexposed ones has a flag."""
        dests = set(vars(cli.build_parser(argv[0]).parse_args(argv))) - self.CLI_ONLY
        assert dests == {f.name for cls in records for f in fields(cls)} - unexposed

    @pytest.mark.parametrize(
        ("command", "records"),
        [
            pytest.param("design-boost", (BoostDesignInput,), id="design-boost"),
            pytest.param("design-lcl", (LCLDesignInput,), id="design-lcl"),
            pytest.param("pv-curve", (PVModuleSpec, PVArraySpec, EnvCondition), id="pv-curve"),
        ],
    )
    def test_flag_help_gives_unit_and_bound(self, command, records):
        """Each record flag's help opens with its field's unit and its bound's text,
        as the record declares them, and the field's flag is built only for its
        command."""
        declared = {}  # field -> (unit, bound text)
        for cls in records:
            units = {f.name: f.metadata.get("unit") for f in fields(cls)}
            declared.update((name, (units[name], bound.text))
                            for name, (bound, *_) in numeric_fields(cls).items())
        commands = cli.build_parser(command)._actions[-1].choices  # the subparsers
        helps = {action.dest: action.help for action in commands[command]._actions
                 if action.dest in declared}
        assert helps and all(text.startswith(", ".join(filter(None, declared[dest])))
                             for dest, text in helps.items()), helps
        assert not declared.keys() & {action.dest for other, sub in commands.items()
                                      if other != command for action in sub._actions}

    @pytest.mark.parametrize("command", list(_HELP))
    def test_help_text_is_pinned(self, monkeypatch, capsys, command):
        """``pvgrid COMMAND --help`` at 100 columns, up to its ``-o`` entry, which
        Python 3.13 prints as ``-o, --output FILE`` and older ones as ``-o FILE,
        --output FILE``."""
        monkeypatch.setenv("COLUMNS", "100")
        with pytest.raises(SystemExit) as exited:
            cli.main([command, "--help"])
        assert exited.value.code == 0
        assert capsys.readouterr().out.partition("\n  -o")[0] + "\n" == _HELP[command]


# ======================================================================
# simulate
# ======================================================================


_CASE1 = json.loads(bundled_scenario_text("case1"))


def _section_keys() -> list:
    """(section, its other keys, key, the name its error gives, its bound, whether it
    is an integer) of every numeric key of every document section, each compensator
    mode's included.  The scenario judges the ``inverter`` and ``sim`` keys as its
    own fields."""
    sections = [(name, _CASE1.get(name, {}), cls) for name, cls in scenario_io._SECTIONS.items()]
    sections += [("compensator", doc, COMPENSATORS[doc["mode"]]) for doc in COMPENSATOR_DOCS]
    params = []
    for section, doc, cls in sections:
        for key in numeric_fields(cls):
            field = "inverter_efficiency" if section == "inverter" else key
            record = Scenario if section in ("inverter", "sim") else cls
            name = f"grid {key}" if section == "grid" else field
            params.append(pytest.param(section, doc, key, name, *numeric_fields(record)[field][:2],
                                       id=f"{doc.get('mode', section)}-{key}"))
    return params


class TestSimulate:
    """Scenario execution subcommand."""

    def test_csv_to_stdout(self, capsys, case_file):
        """Default output is the run CSV."""
        assert cli.main(["simulate", case_file("case1")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("t,p_pv,p_inv,")
        assert len(out.strip().split("\n")) == 22  # header + 21 records

    def test_csv_matches_library(self, capsys, case_file):
        """CLI output equals emit_csv(run(parse(...))) byte for byte."""
        path = case_file("case2")
        assert cli.main(["simulate", path]) == 0
        out = capsys.readouterr().out
        with open(path, encoding="utf-8") as fh:
            expected = emit_csv(run(parse_scenario(fh.read())))
        assert out == expected

    def test_repeated_runs_byte_identical(self, case_file, tmp_path):
        """Two invocations write byte-identical files."""
        path = case_file("case3")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["simulate", path, "-o", str(out1)]) == 0
        assert cli.main(["simulate", path, "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_mode(self, capsys, case_file):
        """--report prints the human summary instead of CSV."""
        assert cli.main(["simulate", case_file("case3"), "--report"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("scenario: case3")
        assert "STATCOM Q: 150 kVAr" in out

    def test_report_with_output_file(self, capsys, case_file, tmp_path):
        """--report -o FILE saves the CSV and prints the report."""
        target = tmp_path / "case1.csv"
        assert cli.main(["simulate", case_file("case1"), "--report", "-o", str(target)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("scenario: case1")
        assert target.read_text(encoding="utf-8").startswith("t,p_pv")

    def test_json_series(self, capsys, case_file):
        """--json emits the full record list."""
        assert cli.main(["simulate", case_file("case1"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scenario_id"] == "case1"
        assert len(doc["records"]) == 21
        assert doc["records"][0]["q_grid"] == 100_000.0

    @pytest.mark.parametrize("case,sha256", [
        ("case1", "e7e4c244e651e88f7a0ab8ef7448994e10b98c60dc879b23dda8a74f8f3de3e2"),
        ("case2", "6e2933f867961109bffa07d9d3dc5e6403473cc2b193d5b2666cd9390f4c99ff"),
        ("case3", "af93623510570a1792572f479069b273eeea4ac9fb0d360d77dc9b420ffb75d2"),
    ])
    def test_json_output_is_pinned(self, capsys, case_file, case, sha256):
        """--json stdout keeps its exact bytes (recorded while the CLI built one
        dict per record for json.dumps).  The digests are the same whether
        numpy's exp and expm1 give libm's bits or those of its AVX-512 loops."""
        assert cli.main(["simulate", case_file(case), "--json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == sha256

    @pytest.mark.parametrize("extra,pieces", [([], 1), (["--json"], 3)], ids=["csv", "json"])
    def test_artifact_write_count(self, monkeypatch, case_file, extra, pieces):
        """The CSV, a string, goes to stdout in one write, not one per
        character; the JSON of 21 records goes in its three pieces."""
        assert _stdout_writes(monkeypatch, ["simulate", case_file("case1"), *extra]) == pieces

    def test_batch_json_equals_single_file_stdout(self, capsys, case_file, tmp_path):
        """Each file that --batch --json writes holds exactly what simulate
        --json of its document prints."""
        paths = [case_file(name) for name in ("case1", "case2", "case3")]
        out_dir = tmp_path / "results"
        assert cli.main(["simulate", "--batch", str(tmp_path), "--json", "-o", str(out_dir)]) == 0
        capsys.readouterr()
        for path in paths:
            assert cli.main(["simulate", path, "--json"]) == 0
            written = (out_dir / os.path.basename(path)).read_bytes().decode("utf-8")
            assert written == capsys.readouterr().out

    def test_batch_mode(self, capsys, case_file, tmp_path):
        """--batch runs every scenario in a directory, sorted by name."""
        for name in ("case1", "case2", "case3"):
            case_file(name)
        out_dir = tmp_path / "results"
        src_dir = case_file("case1").rsplit("/", 1)[0]
        assert cli.main(["simulate", "--batch", src_dir, "-o", str(out_dir)]) == 0
        err = capsys.readouterr().err
        assert [p.name for p in sorted(out_dir.iterdir())] == [
            "case1.csv", "case2.csv", "case3.csv",
        ]
        assert err.index("case1.csv") < err.index("case2.csv") < err.index("case3.csv")

    def test_failing_document_is_named(self, capsys, tmp_path):
        """A batch stops at its first failing document, keeps what it wrote
        before and names that document on the one error line, exit 1; compare
        names whichever of its two documents fails, and so does a single-file
        simulate, a batch of one."""
        doc = json.loads(bundled_scenario_text("case1"))
        src_dir, out_dir = tmp_path / "in", tmp_path / "out"
        src_dir.mkdir()
        a, b, c = (src_dir / name for name in ("a.json", "b.json", "c.json"))
        a.write_text(json.dumps(doc), encoding="utf-8")
        doc["grid"]["v_phase"] = -1
        b.write_text(json.dumps(doc), encoding="utf-8")
        c.write_text(bundled_scenario_text("case3"), encoding="utf-8")
        line = "error: InvalidValue: grid v_phase must be finite and positive, got -1.0"
        assert cli.main(["simulate", "--batch", str(src_dir), "-o", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"wrote {out_dir / 'a.csv'}\n{line} (in {b})\n"
        assert [p.name for p in out_dir.iterdir()] == ["a.csv"]
        for argv in (["compare", str(b), str(a)], ["compare", str(a), str(b)]):
            assert cli.main(argv) == 1
            assert capsys.readouterr() == ("", f"{line} (in {b})\n")
        for argv in (["simulate", str(b)], ["simulate", str(b), "--report"]):
            assert cli.main(argv) == 1
            assert capsys.readouterr() == ("", f"{line} (in {b})\n")

    def test_batch_empty_dir_exits_1(self, capsys, tmp_path):
        """A batch directory without scenarios is an error."""
        assert cli.main(["simulate", "--batch", str(tmp_path)]) == 1
        assert "no *.json" in capsys.readouterr().err

    def test_scenario_and_batch_are_exclusive(self, capsys, case_file, tmp_path):
        """Giving both a file and --batch is rejected."""
        assert cli.main(["simulate", case_file("case1"), "--batch", str(tmp_path)]) == 1

    def test_report_with_batch_exits_1(self, capsys, case_file, tmp_path):
        """--report, which prints one report, is a usage error with --batch:
        exit 1 with one error line, before any scenario runs or any file is
        written."""
        case_file("case1")
        out_dir = tmp_path / "results"
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--batch", str(tmp_path), "--report", "-o", str(out_dir)])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and [line for line in err.splitlines() if "error:" in line] == [
            "pvgrid simulate: error: argument --report: not allowed with argument --batch"
        ]
        assert not out_dir.exists()

    def test_report_json_without_output_exits_1(self, capsys, case_file, tmp_path):
        """--report --json without -o would drop the JSON, as the report takes
        stdout: rejected before the scenario runs.  With -o both are written."""
        argv = ["simulate", case_file("case1"), "--report", "--json"]
        assert cli.main(argv) == 1
        assert capsys.readouterr() == (
            "", "error: --report prints to stdout, so --json needs -o FILE\n"
        )
        target = tmp_path / "case1-run.json"  # not the scenario itself, which is case1.json
        assert cli.main(argv + ["-o", str(target)]) == 0
        assert capsys.readouterr().out.startswith("scenario: case1")
        assert json.loads(target.read_text(encoding="utf-8"))["scenario_id"] == "case1"

    def test_missing_file_exits_1(self, capsys):
        """A nonexistent scenario path is an I/O error, exit 1."""
        assert cli.main(["simulate", "/nonexistent/path.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_scenario_exits_1(self, capsys, tmp_path):
        """Broken JSON surfaces as ParseError with exit 1."""
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        assert cli.main(["simulate", str(bad)]) == 1
        assert "ParseError" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "compare", "compare-second"])
    @pytest.mark.parametrize(
        ("data", "error"),
        [
            pytest.param(
                bundled_scenario_text("case1").replace('"case1"', '"café"').encode("latin-1"),
                "ParseError", id="latin-1",
            ),
            pytest.param(b'{"id": ' + b"9" * 5000 + b"}", "ParseError", id="int-past-digit-limit"),
            pytest.param(
                bundled_scenario_text("case1").replace('"case1"', '"\\ud800"').encode(),
                "ParseError", id="lone-surrogate-id",
            ),
            pytest.param(
                b'{"id": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
                "ParseError: scenario is not valid JSON", id="deep-nesting",
            ),
        ],
    )
    def test_unwritable_scenario_exits_1(self, capsys, case_file, tmp_path, command, data, error):
        """A file that is not UTF-8, JSON that json cannot load (an int past the
        digit limit, or arrays nested past the recursion limit), or an id no
        report can print exits 1 with one error line, not a traceback, from
        simulate and from compare with it as either document."""
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        argv = {"simulate": ["simulate", str(bad), "--report"],
                "compare": ["compare", str(bad), case_file("case1")],
                "compare-second": ["compare", case_file("case1"), str(bad)]}[command]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        ("path", "value", "named"),
        [
            pytest.param(("profiles", "irradiance", 0, "g"), math.nan,
                         "InvalidValue: irradiance profile segment 0: g must be finite and in "
                         "[0, 2000] W/m², got nan", id="g-nan"),
            pytest.param(("profiles", "irradiance", 0, "g"), int(sys.float_info.max) + 1,
                         "InvalidValue: irradiance profile segment 0: g must be finite and in "
                         f"[0, 2000] W/m², got {int(sys.float_info.max) + 1}",
                         id="g-past-largest-double"),
            pytest.param(("grid", "v_phase"), math.nan,
                         "InvalidValue: grid v_phase must be finite and positive, got nan",
                         id="v_phase-nan"),
            pytest.param(("sim", "t_end"), math.inf,
                         "InvalidValue: t_end must be finite and non-negative, got inf",
                         id="t_end-inf"),
            pytest.param(("pv_module", "p_mp"), 10**400,
                         f"InvalidValue: p_mp must be finite and positive, got {10**400}",
                         id="p_mp-beyond-float"),
            pytest.param(("pv_array", "n_series"), 10**400,
                         f"InvalidValue: n_series must be finite and at least 1, got {10**400}",
                         id="n_series-beyond-float"),
        ],
    )
    def test_non_finite_number_exits_1(self, capsys, tmp_path, path, value, named):
        """NaN, Infinity and out-of-range literals are rejected, not simulated: a
        section key by its record and a profile value by the scenario, each as an
        InvalidValue on a line that ends with the document's path."""
        doc = json.loads(bundled_scenario_text("case3"))
        node = doc
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["simulate", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {named} (in {bad})\n"

    @pytest.mark.parametrize(("section", "doc", "key", "name", "bound", "integer"),
                             _section_keys())
    def test_section_value_not_finite_is_the_records_error(self, capsys, tmp_path, section, doc,
                                                           key, name, bound, integer):
        """NaN, plus or minus Infinity and an int past the float range (one that
        rounds to the largest double too) in any numeric key of any section exit
        1 with the InvalidValue of the record that holds it, naming its field,
        on a line that ends with the document's path.  A ``pv_module`` key's
        line is the one ``pv-curve`` prints for the same flag value.  (NaN and
        Infinity in an integer key are a JSON type error.)"""
        flags = [f"{_MODULE_FLAGS[k]}={v!r}" for k, v in _CASE1["pv_module"].items()]
        bad = tmp_path / "bad.json"
        for value in [*([] if integer else [math.nan, math.inf, -math.inf]),
                      10**400, int(sys.float_info.max) + 1]:
            bad.write_text(json.dumps({**_CASE1, section: {**doc, key: value}}), encoding="utf-8")
            line = f"error: InvalidValue: {name} must be {bound.text}, got {value!r}"
            assert cli.main(["simulate", str(bad)]) == 1
            assert capsys.readouterr() == ("", f"{line} (in {bad})\n")
            if section == "pv_module" and key in _MODULE_FLAGS and integer == (type(value) is int):
                assert cli.main(["pv-curve", *flags, f"{_MODULE_FLAGS[key]}={value!r}"]) == 1
                assert capsys.readouterr() == ("", f"{line}\n")

    def test_record_count_beyond_cap_exits_1(self, capsys, tmp_path):
        """A horizon whose record count overflows is rejected before the run."""
        doc = json.loads(bundled_scenario_text("case3"))
        doc["sim"] = {"t_end": 1e300, "dt": 1e-10}
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["simulate", str(bad)]) == 1
        assert "records" in capsys.readouterr().err

    def _simulate_case3(self, capsys, tmp_path, edit) -> tuple[int, str, str]:
        doc = json.loads(bundled_scenario_text("case3"))
        edit(doc)
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = cli.main(["simulate", str(path)])
        out, err = capsys.readouterr()
        return code, out, err

    def test_array_power_beyond_float_exits_1(self, capsys, tmp_path):
        """Counts in the float range whose product overflows are named as such."""
        code, _, err = self._simulate_case3(
            capsys, tmp_path, lambda d: d["pv_array"].update(n_series=10**300, n_parallel=10**300)
        )
        assert code == 1
        assert "array rated power" in err and "pf_grid" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        ("edit", "named"),
        [
            pytest.param(lambda d: d.update(compensator=_capbank(q_rated=1e5, v_rated=1e-300)),
                         "q_rated * (v/v_rated)^2 must be finite, got inf", id="capbank-output"),
            pytest.param(lambda d: (d.update(compensator=_capbank(q_rated=sys.float_info.max)),
                                    d["profiles"]["load"][0].update(q=-sys.float_info.max)),
                         "grid exchange at t = 0.0 s is beyond the float range",
                         id="grid-exchange"),
            pytest.param(lambda d: (d["compensator"].update(q_max=1e308, loss_frac=0.05,
                                                            loss_floor_w=sys.float_info.max),
                                    d["profiles"]["load"][0].update(q=1e308)),
                         "p_loss must be finite and non-negative, got inf", id="statcom-loss"),
            pytest.param(lambda d: d["profiles"]["irradiance"][0].update(g=sys.float_info.max),
                         "irradiance profile segment 0: g must be finite and in [0, 2000] W/m², "
                         "got 1.7976931348623157e+308",
                         id="irradiance-at-float-max"),
            pytest.param(lambda d: d["profiles"]["irradiance"][0].update(g=1e300),
                         "irradiance profile segment 0: g must be finite and in [0, 2000] W/m², "
                         "got 1e+300", id="irradiance-1e300"),
        ],
    )
    def test_value_beyond_float_range_exits_1(self, capsys, tmp_path, edit, named):
        """A scenario whose compensator output or loss or grid exchange leaves the
        float range, or whose irradiance lies far past the envelope, is rejected
        with exit 1 and one error line: no inf in the output and no numpy
        warning on stderr."""
        code, out, err = self._simulate_case3(capsys, tmp_path, edit)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err

    def test_calibration_overflow_exits_1(self, capsys, tmp_path):
        """An overflowing diode term at every ideality is an infeasible datasheet."""
        module = {"p_mp": 2500.0 * 7.35, "v_mp": 2500.0, "v_oc": 3000.0, "n_cells": 1}
        code, _, err = self._simulate_case3(capsys, tmp_path, lambda d: d["pv_module"].update(module))
        assert code == 1
        assert err.startswith("error: InfeasibleSpec: module calibration failed for scenario")
        assert "overflows a double" in err and "Traceback" not in err

    def test_translation_overflow_exits_1(self, capsys, tmp_path):
        """A cold operating point whose diode term overflows is rejected cleanly."""
        module = {"p_mp": 16.0 * 7.35, "v_mp": 16.0, "v_oc": 20.0, "n_cells": 1}

        def edit(doc):
            doc["pv_module"].update(module)
            doc["profiles"]["irradiance"][0]["t_cell"] = -40.0

        code, _, err = self._simulate_case3(capsys, tmp_path, edit)
        assert code == 1
        assert "overflows a double" in err and "Traceback" not in err

    def test_underflowing_irradiance_runs_dark(self, capsys, tmp_path):
        """g = 1e-300 W/m² and the subnormal 5e-324 W/m² give p_pv = 0 and exit 0,
        like g = 0."""
        for g in (1e-300, 5e-324):
            code, out, _ = self._simulate_case3(
                capsys, tmp_path, lambda d: d["profiles"]["irradiance"][0].update(g=g)
            )
            assert code == 0
            rows = [line.split(",") for line in out.strip().split("\n")[1:]]
            dark = [float(r[1]) for r in rows if float(r[0]) < 0.1]
            assert dark and all(p == 0.0 for p in dark)
            assert all(float(r[1]) > 0.0 for r in rows if float(r[0]) >= 0.1)

    def test_uncalibratable_module_exits_1(self, capsys, tmp_path):
        """A scenario whose module cannot calibrate exits 1 with InfeasibleSpec, as
        pv-curve does, from simulate and from compare, naming the failing file's
        scenario and every ideality tried."""
        doc = json.loads(bundled_scenario_text("case1"))
        doc["id"] = "impossible"
        doc["pv_module"] = {
            "p_mp": 280.0, "v_mp": 35.9, "i_mp": 7.8, "v_oc": 36.3, "i_sc": 7.84,
        }
        path = tmp_path / "impossible.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        case1 = tmp_path / "case1.json"
        case1.write_text(bundled_scenario_text("case1"), encoding="utf-8")
        for argv in (["simulate", str(path)], ["compare", str(case1), str(path)]):
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(
                "error: InfeasibleSpec: module calibration failed for scenario 'impossible': "
            )
            assert err.count("\n") == 1 and "ideality 1.3: " in err and "ideality 1.4: " in err


def _capbank(q_rated: float, v_rated: float = 230.0) -> dict:
    """The ``compensator`` section of a fixed capacitor bank."""
    return {"mode": "fixed_capacitor", "q_rated": q_rated, "v_rated": v_rated}


# ======================================================================
# compare
# ======================================================================


class TestCompare:
    """Two-scenario comparison subcommand."""

    def test_reports_and_verdict(self, capsys, case_file):
        """Both reports print, ending with a verdict naming the winner."""
        assert cli.main(["compare", case_file("case1"), case_file("case3")]) == 0
        out = capsys.readouterr().out
        assert "scenario: case1" in out
        assert "scenario: case3" in out
        assert "verdict: case3 keeps |q_grid| smaller at every step" in out

    def test_json_comparison(self, capsys, case_file):
        """--json carries the dominance verdict and per-step deltas."""
        assert cli.main(
            ["compare", case_file("case1"), case_file("case3"), "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["winner"] == "case3"
        assert doc["scenario_a"] == "case1"
        assert len(doc["delta_q_grid"]) == 21

    def test_json_output_is_pinned(self, capsys, case_file):
        """--json stdout keeps its exact bytes (recorded while the CLI passed a
        deep copy of the report to json.dumps)."""
        assert cli.main(["compare", case_file("case1"), case_file("case3"), "--json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == (
            "1d62612c1da3a9975428947ad21ac0d9475de6c22e85f6b97d3c0a8eab727af8"
        )

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.filterwarnings("error")
    def test_delta_beyond_float_range_exits_1(self, capsys, tmp_path, json_flag):
        """Two runs whose q_grid are near plus and minus the largest double have a
        delta_q_grid past the float range, which JSON cannot hold: exit 1 and one
        error line naming the first such step, without a warning."""
        paths = []
        for name, q in (("a", 1.7e308), ("b", -1.7e308)):
            doc = json.loads(bundled_scenario_text("case1"))
            for segment in doc["profiles"]["load"]:
                segment["q"] = q
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["compare", *map(str, paths), *json_flag]) == 1
        assert capsys.readouterr() == (
            "", "error: InvalidValue: comparison step 0: delta_q_grid must be finite, got -inf\n"
        )

    def test_mismatched_grids_exit_1(self, capsys, case_file, tmp_path):
        """Scenarios on different time grids cannot be compared."""
        doc = json.loads(bundled_scenario_text("case1"))
        doc["sim"] = {"t_end": 0.1, "dt": 0.01}
        short = tmp_path / "short.json"
        short.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["compare", case_file("case1"), str(short)]) == 1
        assert "GridMismatch" in capsys.readouterr().err


class TestNoOverwrite:
    """No artifact is written over a scenario document that the command reads."""

    @pytest.mark.parametrize(("argv", "named"), [
        (["simulate", "--batch", ".", "--json"], "a.json"),
        (["simulate", "--batch", "{d}", "--json", "-o", "{d}"], "{d}/a.json"),
        (["simulate", "--batch", "{d}", "--json", "-o", "out"], "out/b.json"),
        (["simulate", "a.json", "--json", "-o", "{d}/a.json"], "{d}/a.json"),
        (["simulate", "a.json", "--report", "-o", "a.json"], "a.json"),
        (["compare", "a.json", "b.json", "-o", "a.json"], "a.json"),
        (["compare", "a.json", "b.json", "--json", "-o", "out/b.json"], "out/b.json"),
    ], ids=["batch-cwd", "batch-into-itself", "batch-symlink", "simulate-json", "simulate-report",
            "compare-first", "compare-second-symlink"])
    def test_output_over_an_input_exits_1(self, capsys, monkeypatch, tmp_path, argv, named):
        """An output that is one of the command's scenario documents, under any
        name (``out/b.json`` is a symlink to ``b.json``), ends the command
        before its first run: exit 1, one error line naming that output, and
        every file as it was."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.json").write_text(bundled_scenario_text("case1"), encoding="utf-8")
        (tmp_path / "b.json").write_text(bundled_scenario_text("case3"), encoding="utf-8")
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "b.json").symlink_to(tmp_path / "b.json")
        files = lambda: {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        before = files()
        argv = [arg.format(d=tmp_path) for arg in argv]
        assert cli.main(argv) == 1
        assert capsys.readouterr() == (
            "", f"error: will not write over the scenario document {named.format(d=tmp_path)}\n"
        )
        assert files() == before

    def test_output_beside_its_documents_is_written(self, capsys, monkeypatch, tmp_path):
        """A CSV batch into its own directory writes each run beside its
        document, and a document the command does not read may be replaced."""
        monkeypatch.chdir(tmp_path)
        text = bundled_scenario_text("case1")
        (tmp_path / "a.json").write_text(text, encoding="utf-8")
        (tmp_path / "b.json").write_text(text, encoding="utf-8")
        assert cli.main(["simulate", "--batch", "."]) == 0
        assert capsys.readouterr() == ("", "wrote a.csv\nwrote b.csv\n")
        assert cli.main(["simulate", "a.json", "-o", "b.json"]) == 0
        assert capsys.readouterr() == ("", "wrote b.json\n")
        assert (tmp_path / "a.json").read_text(encoding="utf-8") == text
        assert (tmp_path / "a.csv").read_text(encoding="utf-8").startswith("t,p_pv,")
        assert (tmp_path / "b.json").read_text(encoding="utf-8") == (
            (tmp_path / "a.csv").read_text(encoding="utf-8")
        )


# ======================================================================
# JSON rows: the one writer of a run's records and a curve's points
# ======================================================================


def _dumped(head: dict, key: str, columns: dict, tail: dict) -> str:
    """The document as json.dumps writes one dict per row: the oracle of _json_rows."""
    rows = np.column_stack(tuple(columns.values())).tolist()
    records = [dict(zip(columns, row)) for row in rows]
    return json.dumps({**head, key: records, **tail}, indent=2) + "\n"


# Cell values: signed zeros, the smallest subnormal and normal doubles, and
# plus and minus the largest double, among any finite floats.
_JSON_VALUE = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, sys.float_info.max, -sys.float_info.max]
) | st.floats(allow_nan=False, allow_infinity=False)
# Ids with a quote, a backslash, non-ASCII and control characters, which json escapes.
_JSON_ID = st.text(st.sampled_from('"\\\x00\x1f\x7f\n\u2028é€😀a') | st.characters(), min_size=1)
# The shapes the CLI writes: a run's records under its id, and a curve's
# points, lit with its maximum power point after them or dark without.
_JSON_SHAPES = ["run", "curve", "curve-mpp"]


@st.composite
def _json_documents(draw, lengths, shape: str) -> tuple:
    """``_json_rows`` arguments of ``shape`` with a row count from ``lengths``,
    whose cells are drawn from a pool of a few values, so that long documents
    cost no more draws than short."""
    n = draw(lengths)
    pool = np.array(draw(st.lists(_JSON_VALUE, min_size=1, max_size=8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape != "run":
        columns = {name: pool[rng.integers(len(pool), size=n)] for name in ("v", "i", "p")}
        mpp = st.fixed_dictionaries({name: _JSON_VALUE for name in ("v_mp", "i_mp", "p_mp")})
        return {}, "points", columns, {"mpp": draw(mpp)} if shape == "curve-mpp" else {}
    pf = np.array(draw(st.lists(st.sampled_from([0.0, 5e-324, 1.0]) | st.floats(0.0, 1.0),
                                min_size=1, max_size=4)))
    columns = {name: pool[rng.integers(len(pool), size=n)] for name in COLUMNS}
    columns["pf_grid"] = pf[rng.integers(len(pf), size=n)]
    step = draw(st.sampled_from([5e-324, 0.01]) | st.floats(5e-324, sys.float_info.max / n))
    columns["t"] = np.arange(n) * step
    # A series holds only a printable id; the writer is given any string.
    series = TimeSeries("run", columns=columns)
    return {"scenario_id": draw(_JSON_ID)}, "records", series.columns, {}


def _check_json(document: tuple) -> None:
    """_json_rows gives the oracle's bytes, and no piece holds more than 10,000
    rows (each row opens with a line of four spaces and a brace)."""
    pieces = list(cli._json_rows(*document))
    same = "".join(pieces) == _dumped(*document)  # no diff of megabytes on a failure
    assert same, "_json_rows's text differs from json.dumps's"
    per_piece = [piece.count("    {\n") for piece in pieces]
    _, _, columns, _ = document
    assert max(per_piece) <= 10_000 and sum(per_piece) == len(next(iter(columns.values())))


class TestJsonRows:
    """_json_rows equals json.dumps(..., indent=2) of one dict per row."""

    @pytest.mark.parametrize("shape", _JSON_SHAPES)
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_property(self, shape, data):
        """Property: short documents of any finite values and, for a run, any id."""
        _check_json(data.draw(_json_documents(st.integers(1, 40), shape)))

    @pytest.mark.parametrize("shape", _JSON_SHAPES)
    @pytest.mark.parametrize("n", [1, 9_999, 10_000, 10_001, 20_001])
    @settings(derandomize=True, max_examples=2, deadline=None)
    @given(data=st.data())
    def test_piece_boundaries(self, n, shape, data):
        """Property: documents of one row, and of lengths about the piece size
        of 10,000 rows and twice it."""
        _check_json(data.draw(_json_documents(st.just(n), shape)))


# ======================================================================
# Parser behavior
# ======================================================================


def _handler_raising(error: BaseException):
    """A subcommand handler that raises ``error``."""

    def handler(args):
        raise error

    return handler


class TestParserBehavior:
    """Exit codes and environment handling of the argparse front end."""

    @pytest.mark.parametrize(
        "argv,unknown",
        [(BOOST_ARGS, ["--nope"]), (MODULE_ARGS, ["--ideality-guess", "1.0"])],
        ids=["nope", "ideality-guess"],
    )
    def test_unknown_flag_exits_1(self, argv, unknown, capsys):
        """Usage errors exit with status 1, not argparse's default 2.  pv-curve
        calibrates from the datasheet alone: it takes no ideality guess."""
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, *unknown])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"pvgrid: error: unrecognized arguments: {' '.join(unknown)}" in err

    def test_missing_subcommand_exits_1(self):
        """No subcommand is a usage error."""
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 1

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_exits_0(self, capsys, command):
        """Each subcommand's --help prints its usage to stdout and exits 0."""
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith(f"usage: pvgrid {command} ") and err == ""

    def test_style_disabled_without_tty(self, monkeypatch):
        """Captured stdout is not a tty, so ANSI styling stays off."""
        monkeypatch.delenv("PVGRID_NO_COLOR", raising=False)

        class FakePlain:
            def isatty(self) -> bool:
                return False

        monkeypatch.setattr(sys, "stdout", FakePlain())
        assert cli._style_enabled() is False

    def test_no_color_env_overrides_tty(self, monkeypatch):
        """PVGRID_NO_COLOR disables styling even on a terminal."""

        class FakeTty:
            def isatty(self) -> bool:
                return True

        monkeypatch.setattr(sys, "stdout", FakeTty())
        monkeypatch.setenv("PVGRID_NO_COLOR", "1")
        assert cli._style_enabled() is False
        monkeypatch.delenv("PVGRID_NO_COLOR")
        assert cli._style_enabled() is True

    def test_no_ansi_in_captured_output(self, capsys):
        """Pipelines (non-tty) receive plain text."""
        assert cli.main(BOOST_ARGS) == 0
        assert "\x1b[" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        ("error", "code"),
        [
            pytest.param(pvgrid.InvalidValue("x"), 1, id="InvalidValue"),
            pytest.param(pvgrid.ParseError("x"), 1, id="ParseError"),
            pytest.param(pvgrid.InfeasibleSpec("x"), 1, id="InfeasibleSpec"),
            pytest.param(pvgrid.DarkArray("x"), 1, id="DarkArray"),
            pytest.param(pvgrid.GridMismatch("x"), 1, id="GridMismatch"),
            pytest.param(FileNotFoundError("x"), 1, id="OSError"),
            pytest.param(pvgrid.NonConvergence("x"), 2, id="NonConvergence"),
        ],
    )
    def test_exit_code_by_error_class(self, monkeypatch, capsys, error, code):
        """Each pvgrid error and OSError maps to its exit code by class alone."""
        monkeypatch.setattr(cli, "_cmd_check_resonance", _handler_raising(error))
        assert cli.main(RESONANCE_ARGS) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "x" in err

    @pytest.mark.parametrize("error", [ValueError("a bug"), OverflowError("a bug")])
    def test_bug_keeps_its_traceback(self, monkeypatch, error):
        """An exception that is no pvgrid error, a bare ValueError included, is
        a bug: it leaves cli.main with its traceback instead of an exit code."""
        monkeypatch.setattr(cli, "_cmd_check_resonance", _handler_raising(error))
        with pytest.raises(type(error), match="a bug"):
            cli.main(RESONANCE_ARGS)


# ======================================================================
# Start-up
# ======================================================================


def _run_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    """``python -c code argv...`` in a fresh interpreter that imports this
    pvgrid, with its output captured."""
    src = os.path.dirname(os.path.dirname(pvgrid.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
        encoding="utf-8", timeout=60,
    )


def _python(code: str, *argv: str) -> str:
    """Stdout of ``_run_python``; fails the test on a nonzero exit."""
    out = _run_python(code, *argv)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_import_loads_no_scipy():
    """The runtime needs numpy only: importing every pvgrid module loads no
    scipy module."""
    code = (
        "import importlib, pkgutil, sys, pvgrid\n"
        "for mod in pkgutil.iter_modules(pvgrid.__path__):\n"
        "    importlib.import_module(f'pvgrid.{mod.name}')\n"
        "assert 'pvgrid.simulator' in sys.modules\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _python(code).strip() == "[]"


class TestLazyImport:
    """``import pvgrid`` defers each submodule to first use, and each command
    loads only the modules it runs; the design commands never load numpy."""

    def test_import_loads_no_submodule(self):
        code = (
            "import sys, pvgrid; "
            "print(*sorted(m for m in sys.modules if m.startswith('pvgrid') or m == 'numpy'))"
        )
        assert _python(code).split() == ["pvgrid"]

    def test_every_public_name_resolves(self):
        """Each name in ``__all__`` is listed by ``dir`` before its first read
        in a fresh process, resolves, and reads as the same object again."""
        code = (
            "import pvgrid\n"
            "assert set(pvgrid.__all__) <= set(dir(pvgrid))\n"
            "for name in pvgrid.__all__:\n"
            "    assert getattr(pvgrid, name) is getattr(pvgrid, name), name\n"
            "print(len(pvgrid.__all__))"
        )
        assert _python(code).strip() == str(len(pvgrid.__all__))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
            pvgrid.not_a_name  # noqa: B018

    @pytest.mark.parametrize("name", ["step", "IVPoint"])
    def test_removed_row_views_are_gone(self, name):
        """The per-row views are not public names: results are read as columns."""
        assert name not in pvgrid.__all__
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(pvgrid, name)

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize(("argv", "err"), DESIGN_RUNS)
    def test_design_commands_run_without_numpy(self, capsys, argv, err, json_flag):
        """With numpy unimportable, each design command exits as it does
        in-process and prints what it prints there: exit 0, or exit 1 and one
        error line for an input outside its field's bound."""
        code = cli.main(argv + json_flag)
        want = capsys.readouterr()
        assert (code, want.err) == (1 if err else 0, err)
        script = (
            "import sys; sys.modules['numpy'] = None\n"
            "from pvgrid.cli import main; sys.exit(main())"
        )
        out = _run_python(script, *argv, *json_flag)
        assert (out.returncode, out.stdout, out.stderr) == (code, want.out, want.err)

    @pytest.mark.parametrize(
        ("argv", "loaded"),
        [
            pytest.param(RESONANCE_ARGS, ["component_design"], id="check-resonance"),
            pytest.param(
                ["pv-curve", "--pmp", "213.15", "--vmp", "29", "--imp", "7.35", "--voc", "36.3",
                 "--isc", "7.84", "--points", "5"],
                ["numerics", "pv_model"], id="pv-curve",
            ),
            pytest.param(
                ["pv-curve", "--pmp", "213.15", "--vmp", "29", "--imp", "7.35", "--voc", "36.3",
                 "--isc", "7.84", "--points", "5", "--json"],
                ["numerics", "pv_model"], id="pv-curve-json",
            ),
            pytest.param(
                ["simulate", "{case1}"],
                ["compensation", "numerics", "pv_model", "scenario_io", "simulator"],
                id="simulate",
            ),
        ],
    )
    def test_command_loads_only_its_modules(self, case_file, argv, loaded):
        """After ``pvgrid argv...``, the loaded pvgrid modules are the CLI's
        own and ``loaded``, and numpy is loaded only with ``pv_model``."""
        argv = [case_file("case1") if a == "{case1}" else a for a in argv]
        code = (
            "import contextlib, io, sys; from pvgrid import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()): code = cli.main(sys.argv[1:])\n"
            "print(code, *sorted(m for m in sys.modules if m.startswith('pvgrid') or m == 'numpy'))"
        )
        modules = ["pvgrid"] + [f"pvgrid.{m}" for m in ["cli", "errors", *loaded, "units"]]
        if "pv_model" in loaded:
            modules.append("numpy")
        assert _python(code, *argv).split() == ["0", *sorted(modules)]
