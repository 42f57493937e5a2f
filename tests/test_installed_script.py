"""The installed ``pvgrid`` console script and the package it runs.

``tests/test_cli.py`` runs every CLI behaviour from the checkout.  This module
checks what only an installed package can show: that the script runs, that it
imports a package outside the checkout, and that the package works as
shipped.  It runs the ``pvgrid`` found on PATH, and the interpreter named on
that script's ``#!`` line, with ``PYTHONPATH`` removed from their environment,
so neither imports the checkout.  Without a ``pvgrid`` on PATH it skips.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import jsonschema
import pytest

from pvgrid import cli
from pvgrid.scenario_io import bundled_scenario_text

from conftest import DESIGN_RUNS, SUBCOMMANDS

SCRIPT = shutil.which("pvgrid")
CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

pytestmark = pytest.mark.skipif(SCRIPT is None, reason="no pvgrid console script on PATH")


def _script_python() -> str:
    """The interpreter on the script's ``#!`` line, or this one when the line
    names no python (``#!/usr/bin/env python3``, or pip's ``/bin/sh`` form)."""
    with open(SCRIPT, "rb") as fh:
        line = fh.readline().decode("utf-8", "replace")
    words = line[2:].split() if line.startswith("#!") else []
    return words[0] if words and os.path.basename(words[0]).startswith("python") else sys.executable


def _run(argv: list[str], cwd, **env: str) -> subprocess.CompletedProcess:
    """``argv`` in ``cwd`` with PYTHONPATH removed from the environment, and
    ``env`` added to it; its output is captured."""
    environ = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run(argv, cwd=cwd, env={**environ, **env}, capture_output=True,
                          text=True, encoding="utf-8", timeout=60)


def _python(code: str, cwd, *argv: str) -> str:
    """Stdout of the script's interpreter running ``code``; fails the test on
    a nonzero exit."""
    out = _run([_script_python(), "-c", code, *argv], cwd)
    assert out.returncode == 0, out.stderr
    return out.stdout


def _in_process(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_help_of_every_subcommand(tmp_path, command):
    """Each subcommand's --help, run through the script, exits 0."""
    out = _run([SCRIPT, command, "--help"], tmp_path)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.startswith(f"usage: pvgrid {command} ")


def test_package_lies_outside_the_checkout(tmp_path):
    """The script's interpreter imports an installed pvgrid, not this checkout."""
    path = _python("import pvgrid; print(pvgrid.__file__)", tmp_path).strip()
    assert os.path.isabs(path), path
    assert os.path.commonpath([path, CHECKOUT]) != CHECKOUT, path


def test_simulate_prints_what_the_checkout_prints(tmp_path):
    """``pvgrid simulate`` of bundled case1 prints the CSV that ``cli.main``
    prints from the checkout."""
    case = tmp_path / "case1.json"
    case.write_text(bundled_scenario_text("case1"), encoding="utf-8")
    out = _run([SCRIPT, "simulate", str(case)], tmp_path)
    assert (out.returncode, out.stdout, out.stderr) == _in_process(["simulate", str(case)])


def test_simulate_json_prints_what_the_checkout_prints(tmp_path):
    """``pvgrid simulate --json`` of bundled case1 prints the JSON that
    ``cli.main`` prints from the checkout."""
    case = tmp_path / "case1.json"
    case.write_text(bundled_scenario_text("case1"), encoding="utf-8")
    argv = ["simulate", str(case), "--json"]
    out = _run([SCRIPT, *argv], tmp_path)
    assert (out.returncode, out.stdout, out.stderr) == _in_process(argv)


def test_schema_is_valid_and_the_bundled_cases_satisfy_it(tmp_path):
    """``schema_text()`` of the installed package, built from its record types
    (no schema file ships), is a valid draft 2020-12 schema, and its bundled
    case1-3 satisfy it."""
    code = (
        "import json; from pvgrid.scenario_io import bundled_scenario_text, schema_text\n"
        "print(json.dumps([schema_text()] + [bundled_scenario_text(f'case{k}') for k in (1, 2, 3)]))"
    )
    schema, *cases = json.loads(_python(code, tmp_path))
    schema = json.loads(schema)
    jsonschema.Draft202012Validator.check_schema(schema)
    for text in cases:
        jsonschema.validate(json.loads(text), schema)


def test_run_imports_without_site_load_no_importlib_resources(tmp_path):
    """Without ``site``, importing the modules a run needs from the installed
    package loads no ``importlib.resources`` (a slow import), and its bundled
    case1 still reads."""
    code = (
        "import os, numpy, pvgrid\n"
        "for module in (pvgrid, numpy): print(os.path.dirname(os.path.dirname(module.__file__)))"
    )
    paths = _python(code, tmp_path).splitlines()
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "import pvgrid.cli, pvgrid.scenario_io, pvgrid.simulator\n"
        "assert 'importlib.resources' not in sys.modules, 'importlib.resources is loaded'\n"
        "sys.stdout.write(pvgrid.scenario_io.bundled_scenario_text('case1'))\n"
    )
    out = _run([_script_python(), "-S", "-c", code, *paths], tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout == bundled_scenario_text("case1")


@pytest.mark.parametrize(("argv", "err"), DESIGN_RUNS)
def test_design_commands_run_without_numpy(tmp_path, argv, err):
    """With numpy unimportable, each design command run through the script
    exits and prints as ``cli.main`` does in-process: exit 0, or exit 1 and
    one error line for an input outside its field's bound."""
    blocked = tmp_path / "no-numpy"
    blocked.mkdir()
    (blocked / "numpy.py").write_text('raise ImportError("numpy is blocked")\n', encoding="utf-8")
    probe = _run([_script_python(), "-c", "import numpy"], tmp_path, PYTHONPATH=str(blocked))
    assert "numpy is blocked" in probe.stderr
    out = _run([SCRIPT, *argv], tmp_path, PYTHONPATH=str(blocked))
    assert (out.returncode, out.stdout, out.stderr) == _in_process(argv)
    assert (out.returncode, out.stderr) == (1 if err else 0, err)


@pytest.mark.parametrize(
    ("flag", "err"),
    [
        pytest.param(["--beta-voc", "-3.6e-3"], "", id="exponent-form"),
        pytest.param(["--t", "-inf"],
                     "error: InvalidValue: t_cell must be finite and in [-40, 90] °C, got -inf\n",
                     id="minus-inf"),
    ],
)
def test_negative_flag_value_after_a_space(tmp_path, flag, err):
    """A negative value after a space, in exponent form or as ``-inf``, is the
    flag's value on the script's Python, whose argparse reads negative numbers
    by a rule of its own version: exit 0, or exit 1 with the record's one error
    line and no usage line, as ``cli.main`` prints in-process."""
    argv = ["pv-curve", "--pmp", "213.15", "--vmp", "29", "--imp", "7.35", "--voc", "36.3",
            "--isc", "7.84", "--points", "5", *flag]
    out = _run([SCRIPT, *argv], tmp_path)
    assert (out.returncode, out.stdout, out.stderr) == _in_process(argv)
    assert (out.returncode, out.stderr) == (1 if err else 0, err)
