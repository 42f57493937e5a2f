"""Tests for pvgrid.cli — subcommands, exit codes, and artifacts."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

import pvgrid
from pvgrid import cli
from pvgrid.component_design import BoostDesignInput, LCLDesignInput, boost_design, lcl_design
from pvgrid.scenario_io import bundled_scenario_text, emit_csv, parse_scenario
from pvgrid.simulator import run

BOOST_ARGS = [
    "design-boost", "--p", "100345", "--vin", "290", "--vout", "700", "--fsw", "5000",
]
LCL_ARGS = [
    "design-lcl", "--p", "100000", "--vg", "230", "--fg", "50",
    "--vdc", "700", "--fsw", "10000",
]


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

    def test_boost_human_output(self, capsys):
        """Values print with engineering prefixes; exit code 0."""
        assert cli.main(BOOST_ARGS) == 0
        out = capsys.readouterr().out
        assert "i_out_max" in out and "143.35 A" in out
        assert "1.4025 mH" in out
        assert "3427 µF" in out

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
        assert "DegenerateInput" in err

    def test_lcl_human_output(self, capsys):
        """LCL values and the resonance verdict print together."""
        assert cli.main(LCL_ARGS) == 0
        out = capsys.readouterr().out
        assert "512.3 µH" in out
        assert "100.29 µF" in out
        assert "passed" in out and "yes" in out

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

    def test_impossible_datasheet_exits_1(self, capsys):
        """A fill factor no diode model can reach fails datasheet validation."""
        code = cli.main(
            ["pv-curve", "--pmp", "280", "--vmp", "35.9", "--imp", "7.8",
             "--voc", "36.3", "--isc", "7.84"]
        )
        assert code == 1
        assert "InfeasibleSpec" in capsys.readouterr().err

    def test_underflowing_irradiance_sweeps_dark(self, capsys):
        """g = 1e-300 W/m² sweeps to the dark point and exits 0, like g = 0."""
        assert cli.main(self.MODULE_ARGS + ["--g", "1e-300", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"points": [{"v": 0.0, "i": 0.0, "p": 0.0}]}
        assert cli.main(self.MODULE_ARGS + ["--g", "1e-100", "--points", "5"]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 6

    def test_invalid_datasheet_exits_1(self, capsys):
        """A datasheet violating basic ordering fails validation."""
        code = cli.main(
            ["pv-curve", "--pmp", "213", "--vmp", "37", "--imp", "7.35",
             "--voc", "36.3", "--isc", "7.84"]
        )
        assert code == 1
        assert "ValueError" in capsys.readouterr().err


# ======================================================================
# simulate
# ======================================================================


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

    def test_batch_empty_dir_exits_1(self, capsys, tmp_path):
        """A batch directory without scenarios is an error."""
        assert cli.main(["simulate", "--batch", str(tmp_path)]) == 1
        assert "no *.json" in capsys.readouterr().err

    def test_scenario_and_batch_are_exclusive(self, capsys, case_file, tmp_path):
        """Giving both a file and --batch is rejected."""
        assert cli.main(["simulate", case_file("case1"), "--batch", str(tmp_path)]) == 1

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

    @pytest.mark.parametrize(
        ("path", "value", "key"),
        [
            pytest.param(("profiles", "irradiance", 0, "g"), math.nan, "g", id="g-nan"),
            pytest.param(("grid", "v_phase"), math.nan, "v_phase", id="v_phase-nan"),
            pytest.param(("sim", "t_end"), math.inf, "t_end", id="t_end-inf"),
            pytest.param(("pv_module", "p_mp"), 10**400, "p_mp", id="p_mp-beyond-float"),
            pytest.param(("pv_array", "n_series"), 10**400, "n_series", id="n_series-beyond-float"),
        ],
    )
    def test_non_finite_number_exits_1(self, capsys, tmp_path, path, value, key):
        """NaN, Infinity and out-of-range literals are rejected, not simulated."""
        doc = json.loads(bundled_scenario_text("case3"))
        node = doc
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["simulate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "ValidationError" in err
        assert f"key '{key}' must be a finite number" in err

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

    def test_calibration_overflow_exits_2(self, capsys, tmp_path):
        """An overflowing diode term ends calibration as CalibrationFailure."""
        module = {"p_mp": 2500.0 * 7.35, "v_mp": 2500.0, "v_oc": 3000.0, "n_cells": 1}
        code, _, err = self._simulate_case3(capsys, tmp_path, lambda d: d["pv_module"].update(module))
        assert code == 2
        assert "CalibrationFailure" in err and "Traceback" not in err

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
        """g = 1e-300 W/m² gives p_pv = 0 and exit 0, like g = 0."""
        code, out, _ = self._simulate_case3(
            capsys, tmp_path, lambda d: d["profiles"]["irradiance"][0].update(g=1e-300)
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        dark = [float(r[1]) for r in rows if float(r[0]) < 0.1]
        assert dark and all(p == 0.0 for p in dark)
        assert all(float(r[1]) > 0.0 for r in rows if float(r[0]) >= 0.1)

    def test_uncalibratable_module_exits_2(self, capsys, tmp_path):
        """A scenario whose module cannot calibrate is a numerical failure."""
        doc = json.loads(bundled_scenario_text("case1"))
        doc["pv_module"] = {
            "p_mp": 280.0, "v_mp": 35.9, "i_mp": 7.8, "v_oc": 36.3, "i_sc": 7.84,
        }
        path = tmp_path / "impossible.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["simulate", str(path)]) == 2
        assert "CalibrationFailure" in capsys.readouterr().err


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

    def test_mismatched_grids_exit_1(self, capsys, case_file, tmp_path):
        """Scenarios on different time grids cannot be compared."""
        doc = json.loads(bundled_scenario_text("case1"))
        doc["sim"] = {"t_end": 0.1, "dt": 0.01}
        short = tmp_path / "short.json"
        short.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["compare", case_file("case1"), str(short)]) == 1
        assert "GridMismatch" in capsys.readouterr().err


# ======================================================================
# Parser behavior
# ======================================================================


class TestParserBehavior:
    """Exit codes and environment handling of the argparse front end."""

    def test_unknown_flag_exits_1(self):
        """Usage errors exit with status 1, not argparse's default 2."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["design-boost", "--nope"])
        assert exc.value.code == 1

    def test_missing_subcommand_exits_1(self):
        """No subcommand is a usage error."""
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 1

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


# ======================================================================
# Start-up
# ======================================================================


def test_import_loads_no_scipy():
    """The runtime needs numpy only: importing the CLI loads no scipy module."""
    src = os.path.dirname(os.path.dirname(pvgrid.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, pvgrid.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"
