"""Guard for the pvgrid names the benchmark's tracer looks up.

``perfbench/tracing.py`` wraps pvgrid functions by setting attributes on the
modules that call them, so a rename in ``src`` that it pins breaks a traced
benchmark run.  These tests trace one operation of each in-process workload,
as ``perfbench/run.py --trace 1`` does, without editing ``perfbench``.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

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
