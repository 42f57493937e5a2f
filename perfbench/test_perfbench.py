"""Tests of the benchmark itself: ``PYTHONPATH=src python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json

import pytest

import inputs
import ops
import refcheck
import run
import tracing
import worker
from pvgrid import NonConvergence, pv_model

# An ordinary operating point of the bundled module where pv_model.mpp
# raises NonConvergence ("gradient criterion not met") today.
MPP_DEFECT_POINT = (780.91, 35.889)


def _one_point_fleet_spec(g: float, t_cell: float) -> dict:
    module = dict(inputs.BASE_MODULE)
    doc = inputs._scenario(
        "defect", module, inputs._array_for(module),
        {"mode": "statcom", "q_max": 200_000.0, "loss_floor_w": 800.0, "loss_frac": 0.0},
        [{"t_start": 0.0, "g": g, "t_cell": t_cell}],
        [{"t_start": 0.0, "p": 50_000.0, "q": 40_000.0}],
        60.0, 60.0,
    )
    return {"kind": "fleet_minutely", "docs": {"scenario": json.dumps(doc)},
            "sweep": {"g": 1000.0, "t": 25.0}}


def test_mpp_nonconvergence_is_counted_not_raised():
    module = pv_model.PVModuleSpec(**inputs.BASE_MODULE)
    params = pv_model.extract_single_diode_params(module)
    array = pv_model.PVArraySpec(module=module, n_series=10, n_parallel=47)
    try:
        pv_model.mpp(array, params, pv_model.EnvCondition(*MPP_DEFECT_POINT))
    except NonConvergence:
        pass
    else:
        pytest.skip("mpp converges at the known defect point now")

    tracer = tracing.Tracer()
    with tracer.installed():
        seconds, artifacts, error = worker.run_op(
            ops.fleet_minutely, _one_point_fleet_spec(*MPP_DEFECT_POINT))
    assert error == "NonConvergence" and artifacts is None and seconds > 0.0
    assert tracing.summarize([tracer.dump()])["pv_model.mpp"]["fail"] == 1

    results = [{"error": error, "traced": True, "s": seconds},
               {"error": None, "traced": False, "s": 0.1}]
    assert run.failure_summary(results) == (2, 1, {"NonConvergence": 1})


def test_tracer_restores_originals_and_computes_self_time():
    original = pv_model.mpp
    tracer = tracing.Tracer()
    with tracer.installed():
        assert pv_model.mpp is not original
        ops.fleet_minutely(inputs.op_spec("fleet_minutely", 0))
    assert pv_model.mpp is original

    (run_index,) = [i for i, s in enumerate(tracer.spans) if s[0] == "simulator.run"]
    name, start, end, _parent, _child_s, attrs = tracer.spans[run_index]
    # Direct children of run: the calibration span and three per-step calls
    # (module_current and the numerics nest inside mpp, not directly in run).
    direct = ("pv_model.mpp", "compensation.dispatch", "compensation.power_factor")
    children = sum(s[2] - s[1] for s in tracer.spans if s[3] == run_index)
    children += sum(v[1] for (span, n), v in tracer.aggregates.items()
                    if span == run_index and n in direct)
    summary = tracing.summarize([tracer.dump()])
    assert attrs == {"records": 1441}
    assert summary["simulator.run"]["self_s"] == pytest.approx(end - start - children, abs=1e-9)
    assert summary["pv_model.mpp"]["calls"] > 500
    assert summary["numerics.golden_max"]["evals"] > summary["numerics.golden_max"]["calls"]


def test_inputs_are_reproducible_and_seed_dependent():
    a = [inputs.spec_key(inputs.op_spec("fleet_minutely", i)) for i in range(3)]
    b = [inputs.spec_key(inputs.op_spec("fleet_minutely", i)) for i in range(3)]
    assert a == b and len(set(a)) == 3
    assert inputs.op_order("day_compare", 1) == inputs.op_order("day_compare", 1)
    assert inputs.op_order("day_compare", 1) != inputs.op_order("day_compare", 2)
    order = inputs.op_order("cli_mix", 7)
    n = len(inputs.CLI_KINDS)
    for r in range(len(order) // n):
        kinds = {inputs.op_spec("cli_mix", i)["kind"] for i in order[r * n:(r + 1) * n]}
        assert kinds == set(inputs.CLI_KINDS)


def _clock(*readings):
    it = iter(readings)
    return lambda: next(it)


def test_whole_passes_attempt_every_entry_the_same_number_of_times():
    pool = inputs.pool_size("fleet_minutely")
    warm_up, timed = inputs.schedule("fleet_minutely", 3, 30, _clock(0, 0, 31))
    once = list(timed)
    assert warm_up == pool and sorted(once) == list(range(pool))
    # Passes of 10 s: a third fits in 30 s, a fourth would not.
    _, timed = inputs.schedule("fleet_minutely", 3, 30, _clock(0, 0, 10, 10, 20, 20, 30))
    assert list(timed) == once * 3


def test_timed_runs_stop_at_the_deadline():
    order = inputs.op_order("day_compare", 3)
    warm_up, timed = inputs.schedule("day_compare", 3, 30, _clock(0, 0, 29, 30))
    assert warm_up == order[-1] and list(timed) == order[:2]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_pool_matches_the_recorded_references(workload):
    refs = run.load_refs(workload)
    assert inputs.pool_digest(workload) == refs["pool_digest"]
    assert len(refs["ops"]) == inputs.pool_size(workload)


def test_sixth_significant_digit_tolerance():
    text = "t,x\n0,1.23456\n1,-98765.4\n2,0.5\n"
    ref = refcheck.make_reference("a.csv", text, "exact")
    assert refcheck.mismatches("a.csv", text, ref) == []
    assert refcheck.mismatches("a.csv", "t,x\n0,1.23457\n1,-98765.3\n2,0.5\n", ref) == []
    assert refcheck.mismatches("a.csv", "t,x\n0,1.23458\n1,-98765.4\n2,0.5\n", ref)
    assert refcheck.mismatches("a.csv", "t;x\n0,1.23456\n1,-98765.4\n2,0.5\n", ref)
    assert refcheck.mismatches("a.csv", "t,x\n0,nan\n1,-98765.4\n2,0.5\n", ref)
    stats = refcheck.make_reference("a.csv", text, "stats")
    assert refcheck.mismatches("a.csv", "t,x\n0,1.23457\n1,-98765.3\n2,0.5\n", stats) == []
    assert refcheck.mismatches("a.csv", "t,x\n0,1.23456\n1,-98765.4\n2,0.6\n", stats)


def test_bundled_outputs_match_and_a_changed_digit_is_caught():
    with open(f"{run.REF_DIR}/bundled.json", encoding="utf-8") as fh:
        refs = json.load(fh)
    outputs = worker.bundled_outputs()
    for name, ref in refs.items():
        assert refcheck.mismatches(name, outputs[name], ref) == []
    lines = outputs["case1.csv"].split("\n")
    fields = lines[5].split(",")
    fields[1] = f"{float(fields[1]) * 1.001:.6g}"  # p_pv off by 0.1%
    lines[5] = ",".join(fields)
    assert refcheck.mismatches("case1.csv", "\n".join(lines), refs["case1.csv"])


def test_runs_encoding_round_trips():
    values = [0.0, 1.0, 2.0, 3.0, 5.0, 5.0, 5.0, 5.0, 0.07, 0.1]
    assert refcheck._decode_runs(refcheck._encode_runs(values)) == values


def test_layer_units_match_benchmark_json():
    with open(f"{run.ROOT}/BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert {name: run.layer_unit(name) for name in declared} == declared


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    assert run.tail([1.0] * 20) is None
    value, pct = run.tail([float(i) for i in range(1, 41)])
    assert (value, pct) == (30.0, 75.0)
