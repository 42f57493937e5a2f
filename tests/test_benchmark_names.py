"""Guard for the pvgrid names the benchmark's tracer looks up.

``perfbench/tracing.py`` wraps pvgrid functions by setting attributes on the
modules that call them, so a rename in ``src`` that it pins breaks a traced
benchmark run.  These tests trace one operation of each in-process workload,
as ``perfbench/run.py --trace 1`` does, and the ``cli_mix`` operations that
read scenario documents in-process, as ``perfbench/traced_cli.py`` does,
without editing ``perfbench``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
from pathlib import Path

import pytest

from pvgrid import cli

# After the installed packages, so that perfbench's module names shadow none of them.
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import inputs  # noqa: E402
import ops  # noqa: E402
import tracing  # noqa: E402


def _traced(op, spec: dict) -> dict:
    """The tracer's summary of one operation, run with every wrapper installed."""
    tracer = tracing.Tracer()
    with tracer.installed():
        artifacts = op(spec)
    assert artifacts
    return tracing.summarize([tracer.dump()])


def test_every_traced_name_resolves():
    """Each pvgrid module attribute the tracer wraps exists."""
    for module, attr, _ in tracing.SPANS + tracing.AGGREGATES + tracing.COUNTED_F:
        assert hasattr(importlib.import_module(f"pvgrid.{module}"), attr), (module, attr)


def test_fleet_op_traces_one_run_of_a_day():
    """A traced fleet operation runs one day at 60 s: 1,441 records."""
    summary = _traced(ops.fleet_minutely, inputs.op_spec("fleet_minutely", 0))
    assert summary["simulator.run"]["calls"] == 1
    assert summary["simulator.run"]["records"] == 1441
    assert summary["compensation.dispatch"]["calls"] == 1
    assert summary["pv_model.array_iv_sweep"]["calls"] == 1


def test_day_compare_op_traces_two_runs_and_a_comparison():
    """A traced day_compare operation runs two days at 1 s and compares them."""
    summary = _traced(ops.day_compare, inputs.op_spec("day_compare", 0))
    assert summary["simulator.run"]["calls"] == 2
    assert summary["simulator.run"]["records"] == 2 * 86_401
    assert summary["simulator.compare_runs"]["calls"] == 1


# The traced writer of each kind of scenario op in cli_mix, and how often it runs.
_WRITERS = {
    "simulate_csv": {"scenario_io.emit_csv": 1},
    "simulate_report": {"scenario_io.render_report": 1},
    "compare_json": {"simulator.compare_runs": 1},
}


@pytest.mark.parametrize("kind", list(_WRITERS))
def test_cli_scenario_op_traces_each_document(tmp_path, kind):
    """A traced cli_mix operation that reads scenario documents, run through
    ``cli.main`` in-process as ``traced_cli.py`` runs it, parses and runs each
    document once, in one ``scenario_io.parse_scenario`` and one
    ``simulator.run`` span, and calls the writer of its kind.  A CLI that held
    these functions under names of its own would hide them from the per-layer
    numbers without failing any other check."""
    spec = inputs.op_spec("cli_mix", inputs.CLI_KINDS.index(kind) * inputs.CLI_PER_KIND)
    assert spec["kind"] == kind
    for name, text in spec["docs"].items():
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in spec["argv"]]
    tracer = tracing.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert tracer.span("cli.main", cli.main, argv) == 0
    summary = tracing.summarize([tracer.dump()])
    documents = len(spec["docs"])
    assert summary["scenario_io.parse_scenario"]["calls"] == documents
    assert summary["simulator.run"]["calls"] == documents
    writers = {name for calls in _WRITERS.values() for name in calls}
    assert {name: summary[name]["calls"] for name in writers if name in summary} == _WRITERS[kind]
