"""Worker process of ``day_compare`` and ``fleet_minutely``, and the bundled-case check.

``run.py`` starts this file in a fresh interpreter with ``src`` on the
path.  It imports pvgrid, runs one untimed warm-up operation, then runs
operations in a closed loop as ``inputs.schedule`` lays them out,
timing ``speed.loop_s`` before each.  Each artifact's sha256 is
compared with the expected one after the timed region; artifacts that
differ are written to ``--out`` for ``run.py`` to compare number by
number.  With ``--trace 1`` every
second operation runs with the tracer installed.

``--bundled`` instead writes the CSVs of the bundled cases and the
acceptance ``p_mp`` values to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import inputs
import ops
import refcheck
import speed
import tracing
from pvgrid import PVGridError, pv_model, scenario_io, simulator

# Anchors of acceptance criterion 4 (tests/test_acceptance.py): the
# 10 x 47 array at six operating points, then one module at STC.
ACCEPTANCE_ANCHORS = (
    (10, 47, 1000.0, 25.0),
    (10, 47, 500.0, 25.0),
    (10, 47, 100.0, 25.0),
    (10, 47, 1000.0, 15.0),
    (10, 47, 1000.0, 35.0),
    (10, 47, 1000.0, 45.0),
    (1, 1, 1000.0, 25.0),
)


def bundled_outputs() -> dict:
    """CSVs of bundled case1-3 and the acceptance p_mp values."""
    out = {}
    for case in ("case1", "case2", "case3"):
        scenario = scenario_io.parse_scenario(scenario_io.bundled_scenario_text(case))
        out[f"{case}.csv"] = scenario_io.emit_csv(simulator.run(scenario))
    module = pv_model.PVModuleSpec(**inputs.BASE_MODULE)
    params = pv_model.extract_single_diode_params(module)
    p_mp = []
    for n_series, n_parallel, g, t in ACCEPTANCE_ANCHORS:
        array = pv_model.PVArraySpec(module=module, n_series=n_series, n_parallel=n_parallel)
        p_mp.append(pv_model.mpp(array, params, pv_model.EnvCondition(g=g, t=t)).p_mp)
    out["acceptance_p_mp.json"] = json.dumps(p_mp) + "\n"
    return out


def run_op(op, spec: dict) -> tuple[float, dict[str, str] | None, str | None]:
    """Run one operation; a PVGridError is a failed operation, not a crash."""
    start = time.perf_counter()
    try:
        artifacts = op(spec)
        error = None
    except PVGridError as exc:
        artifacts, error = None, type(exc).__name__
    return time.perf_counter() - start, artifacts, error


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--expected", help="JSON: op key -> artifact name -> sha256")
    ap.add_argument("--out", required=True)
    ap.add_argument("--bundled", action="store_true")
    args = ap.parse_args()

    if args.bundled:
        for name, text in bundled_outputs().items():
            with open(os.path.join(args.out, name), "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        return 0

    with open(args.expected, encoding="utf-8") as fh:
        expected = json.load(fh)
    op = ops.OPS[args.workload]
    warm_up, timed = inputs.schedule(args.workload, args.seed, args.seconds,
                                     time.perf_counter)
    tracer = tracing.Tracer()

    run_op(op, inputs.op_spec(args.workload, warm_up))  # not timed
    results = []
    for k, index in enumerate(timed):
        loop_s = speed.loop_s()
        spec = inputs.op_spec(args.workload, index)
        traced = bool(args.trace) and k % 2 == 1
        if traced:
            with tracer.installed():
                seconds, artifacts, error = run_op(op, spec)
        else:
            seconds, artifacts, error = run_op(op, spec)
        key = inputs.spec_key(spec)
        result = {"index": index, "key": key, "s": seconds, "loop_s": loop_s,
                  "traced": traced, "error": error, "records": 0, "matched": [], "differs": []}
        if artifacts is not None:
            result["records"] = ops.csv_records(artifacts)
            want = expected.get(key, {})
            for name, text in artifacts.items():
                if refcheck.sha256(text) == want.get(name):
                    result["matched"].append(name)
                    continue
                path = os.path.join(args.out, f"{index}.{name}")
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
                result["differs"].append(name)
        results.append(result)
        del artifacts

    doc = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": results,
        "trace": tracer.dump(),
    }
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
