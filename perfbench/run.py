"""pvgrid benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; pvgrid is imported from its
``src`` directory.  Workloads (``inputs.py`` generates their inputs):

* ``fleet_minutely``: a datasheet new to the process, one day at 60 s
  (~720 distinct MPP solves), its CSV and a 500-point sweep.
  Calibration and MPP work in ``pv_model`` and ``numerics``.  Runs are
  whole passes over a 128-entry pool, so every run attempts the same
  datasheets and fails on the same ones.
* ``cli_mix``: one ``pvgrid`` process per operation, in rounds of seven
  subcommands.  Import dominates; the only workload reaching
  ``component_design``.
* ``day_compare``: one day at 1 s, STATCOM against a capacitor bank:
  parse x2, run x2, compare, CSV x2, report.  Per-step work in
  ``simulator``, ``compensation`` and CSV output; ~24 MPP solves.  Not
  in ``BENCHMARK.json``: a run holds only about ten 3-4 s operations,
  whose wall times moved by 25-35% between runs on a shared 2-core
  machine, and a third workload of 40 s runs does not fit the time the
  whole benchmark may take.  Run it by name to see ``peak_rss_mb`` and
  ``records_per_s`` of a full day.

Every workload runs one untimed warm-up operation, then operations in a
closed loop (one client, the next operation starts when the last ends)
for about ``--seconds`` (``inputs.schedule``).  A PVGridError or a
non-zero exit code is a failed operation; failed operations count in
``failed`` but not in the times.

End-to-end metrics (``--trace 0``):

* ``setup_s``: median over 6 fresh processes of ``import pvgrid``, 3
  before the operations and 3 after.
* ``op_p50_loops``: the median, over the successful operations, of an
  operation's wall time divided by the time of ``speed.loop_s``, a
  fixed piece of pure-Python work timed just before it in the process
  that times the operations.  Other tenants of a shared machine slow it
  by up to 1.7x for minutes at a time, and the loop slows with it: over
  eight runs of each workload the quartile distance over the median was
  0.05 (``fleet_minutely``) and 0.09 (``cli_mix``) for the median wall
  time and 0.03 and 0.04 for this ratio.  It moves with the program as
  the wall time does, since the loop calls nothing in pvgrid.  The loop
  does not follow every slowdown, so a change is judged against the
  bound in ``BENCHMARK.json``, not against the loop ratio of one run.
* ``peak_rss_mb``: peak RSS of the worker process, or of the largest
  ``pvgrid`` process for ``cli_mix``.
* printed but not in the JSON, because they are undefined on some
  workload, zero, or too unsteady on a shared machine to gate:
  ``op_p50_s`` (median wall time), ``op_tail_s`` (highest percentile with 10
  samples beyond it), ``records_per_s``, ``fail_frac`` (the JSON
  carries ``attempted`` and ``failed``) and ``ref_mismatch``
  (``correct`` is false unless it is 0, the bundled cases match and the
  generated inputs are the recorded ones).  ``op_times_s`` lists every
  successful untraced operation's time in run order.

Per-layer metrics (``--trace 1``): even operations run untraced and odd
ones traced (``tracing.py``); values are means per traced operation,
``cli.main*`` medians per traced ``pvgrid`` process, ``cli.import*``
medians of 3 ``python -X importtime`` runs, and ``trace.overhead_frac``
the traced over the untraced median, minus one.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric by name and unit, the input digests and the machine.
"""

from __future__ import annotations

import argparse
import gzip
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import cliops
import inputs
import refcheck
import speed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REF_DIR = os.path.join(HERE, "ref")
# Timed fresh-process imports, half before the operations and half after,
# so that one slow phase of a shared machine does not set the median; one
# untimed import runs first.
SETUP_PROBES = 6
IMPORTTIME_PROBES = 3
RUN_BUDGET_S = 170  # every child is killed by then
MACHINE_NOTE = (
    "{nproc}-core machine that other tenants may share, so any run can be slowed; "
    "no system cache is dropped, so setup_s and cli_mix times are warm-cache "
    "figures and cold start is not measured"
)

PER_KIND_METRICS = tuple(f"cli.main.{kind}_s" for kind in inputs.CLI_KINDS)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def remaining(t0: float) -> float:
    return max(5.0, RUN_BUDGET_S - (time.monotonic() - t0))


def import_probe(env: dict, t0: float) -> float:
    """Seconds for ``import pvgrid`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import pvgrid; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=remaining(t0))
    return float(out.stdout)


def importtime_probe(env: dict, t0: float) -> tuple[float, float]:
    """(pvgrid.cli, scipy) cumulative import seconds from ``python -X importtime``."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pvgrid.cli"],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=remaining(t0))
    rows = []
    for line in out.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        if self_us.strip().isdigit():
            rows.append((len(name) - len(name.lstrip()), int(cum_us), name.strip()))

    def top(package: str) -> float:
        # Children print before their parent: walk backwards, keep the ancestry.
        total, stack = 0, []
        for depth, cum, name in reversed(rows):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            in_pkg = name == package or name.startswith(package + ".")
            if in_pkg and not any(n == package or n.startswith(package + ".") for _, n in stack):
                total += cum
            stack.append((depth, name))
        return total / 1e6

    return top("pvgrid"), top("scipy")


def load_refs(workload: str) -> dict:
    with gzip.open(os.path.join(REF_DIR, f"{workload}.json.gz"), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def check_op(op_ref: dict | None, error: str | None, artifacts: dict[str, str],
             matched: list[str] = ()) -> list[str]:
    """Departures of one operation from its reference (empty: it matches).

    ``matched`` names artifacts already found byte-identical by sha256.
    """
    if op_ref is None:
        return ["no reference for this input"]
    if "error" in op_ref:
        return []  # failed when recorded: nothing to compare, success is no mismatch
    if error is not None:
        return [f"failed with {error}; the reference succeeded"]
    names = set(artifacts) | set(matched)
    if names != set(op_ref["artifacts"]):
        return [f"artifacts {sorted(names)} vs reference {sorted(op_ref['artifacts'])}"]
    problems = []
    for name, text in artifacts.items():
        problems.extend(refcheck.mismatches(name, text, op_ref["artifacts"][name]))
    return problems


# ---------------------------------------------------------------------------
# Workloads: each runner returns a list of op results and extra facts
# ---------------------------------------------------------------------------


def run_in_worker(args, refs: dict, env: dict, workdir: str, t0: float) -> tuple[list, dict]:
    expected = {
        key: {name: art["sha256"] for name, art in ref["artifacts"].items()}
        for key, ref in refs["ops"].items() if "artifacts" in ref
    }
    expected_path = os.path.join(workdir, "expected.json")
    with open(expected_path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--expected", expected_path, "--out", workdir],
        env=env, check=True, timeout=remaining(t0),
    )
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    for op in doc["ops"]:
        artifacts = {}
        for name in op["differs"]:
            with open(os.path.join(workdir, f"{op['index']}.{name}"), encoding="utf-8",
                      newline="") as fh:
                artifacts[name] = fh.read()
        op["problems"] = check_op(refs["ops"].get(op["key"]), op["error"], artifacts,
                                  op["matched"])
    return doc["ops"], {"peak_rss_mb": doc["peak_rss_mb"], "traces": [doc["trace"]]}


def run_cli(args, refs: dict, env: dict, workdir: str, t0: float) -> tuple[list, dict]:
    # Whole rounds only, so every run has the same mix of subcommands.
    warm_up, timed = inputs.schedule("cli_mix", args.seed, args.seconds, time.perf_counter)
    opdir = os.path.join(workdir, "op")
    os.mkdir(opdir)
    cliops.execute(inputs.op_spec("cli_mix", warm_up), opdir, env)  # not timed
    results, traces = [], []
    for k, index in enumerate(timed):
        loop_s = speed.loop_s()
        spec = inputs.op_spec("cli_mix", index)
        traced = bool(args.trace) and k % 2 == 1
        trace_out = os.path.join(workdir, "trace.json") if traced else None
        seconds, code, artifacts = cliops.execute(spec, opdir, env, trace_out)
        error = None if code == 0 else f"exit {code}"
        key = inputs.spec_key(spec)
        results.append({"index": index, "key": key, "s": seconds, "loop_s": loop_s,
                        "traced": traced, "error": error, "records": 0,
                        "problems": check_op(refs["ops"].get(key), error, artifacts)})
        if traced:
            with open(trace_out, encoding="utf-8") as fh:
                traces.append(json.load(fh))
        if time.monotonic() - t0 > RUN_BUDGET_S - 30:
            break
    # Peak RSS over the pvgrid processes so far (the import probes are smaller).
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return results, {"peak_rss_mb": peak, "traces": traces}


def check_bundled(env: dict, workdir: str, t0: float) -> list[str]:
    """Bundled case1-3 CSVs and acceptance p_mp values against their references."""
    outdir = os.path.join(workdir, "bundled")
    os.mkdir(outdir)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--bundled",
                    "--out", outdir], env=env, check=True, timeout=remaining(t0))
    with open(os.path.join(REF_DIR, "bundled.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    problems = []
    for name, ref in refs.items():
        with open(os.path.join(outdir, name), encoding="utf-8", newline="") as fh:
            problems.extend(refcheck.mismatches(name, fh.read(), ref))
    return problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def failure_summary(ops: list[dict]) -> tuple[int, int, dict[str, int]]:
    """(attempted, failed, failures by kind) over the timed operations."""
    kinds: dict[str, int] = {}
    for op in ops:
        if op["error"] is not None:
            kinds[op["error"]] = kinds.get(op["error"], 0) + 1
    return len(ops), sum(kinds.values()), kinds


def tail(times: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least 10 samples beyond it, as (value, percentile).

    None when that percentile would not lie above the median.
    """
    n = len(times)
    rank = n - 10
    if 2 * rank <= n:
        return None
    return sorted(times)[rank - 1], 100.0 * rank / n


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    facts = {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}
    for dist in ("numpy", "scipy"):
        try:
            facts[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            facts[dist] = "absent"
    return facts


def layer_metrics(summary: dict, n_ops: int, traces: list[dict]) -> dict[str, float]:
    def get(name, field):
        return summary.get(name, {}).get(field, 0) / n_ops if n_ops else 0.0

    records = summary.get("simulator.run", {}).get("records", 0)
    mpp_calls = summary.get("pv_model.mpp", {}).get("calls", 0)
    m = {
        "scenario_io.parse_scenario.s": get("scenario_io.parse_scenario", "s"),
        "scenario_io.parse_scenario.calls": get("scenario_io.parse_scenario", "calls"),
        "scenario_io.emit_csv.s": get("scenario_io.emit_csv", "s"),
        "scenario_io.emit_csv.bytes": get("scenario_io.emit_csv", "bytes"),
        "scenario_io.render_report.s": get("scenario_io.render_report", "s"),
        "simulator.run.s": get("simulator.run", "s"),
        "simulator.run.self_s": get("simulator.run", "self_s"),
        "simulator.run.records": get("simulator.run", "records"),
        "simulator.compare_runs.s": get("simulator.compare_runs", "s"),
        "simulator.mpp_per_record": mpp_calls / records if records else 0.0,
        "compensation.dispatch.calls": get("compensation.dispatch", "calls"),
        "compensation.dispatch.s": get("compensation.dispatch", "s"),
        "compensation.power_factor.calls": get("compensation.power_factor", "calls"),
        "pv_model.extract_single_diode_params.calls": get("pv_model.extract_single_diode_params", "calls"),
        "pv_model.extract_single_diode_params.s": get("pv_model.extract_single_diode_params", "s"),
        "pv_model.mpp.calls": get("pv_model.mpp", "calls"),
        "pv_model.mpp.s": get("pv_model.mpp", "s"),
        "pv_model.mpp.fail": get("pv_model.mpp", "fail"),
        "pv_model.module_current.calls": get("pv_model.module_current", "calls"),
        "pv_model.module_voc.calls": get("pv_model.module_voc", "calls"),
        "pv_model.adjust_params.calls": get("pv_model.adjust_params", "calls"),
        "pv_model.array_iv_sweep.s": get("pv_model.array_iv_sweep", "s"),
        "numerics.newton_bisect.calls": get("numerics.newton_bisect", "calls"),
        "numerics.newton_bisect.evals": get("numerics.newton_bisect", "evals"),
        "numerics.golden_max.calls": get("numerics.golden_max", "calls"),
        "numerics.golden_max.evals": get("numerics.golden_max", "evals"),
        "component_design.s": sum(get(f"component_design.{f}", "s") for f in
                                  ("boost_design", "lcl_design", "resonance_check")),
    }
    main_s = {kind: [] for kind in inputs.CLI_KINDS}
    for dump in traces:
        if "kind" in dump:
            _name, start, end = dump["spans"][0][:3]
            main_s[dump["kind"]].append(end - start)
    every = [s for values in main_s.values() for s in values]
    m["cli.main_s"] = statistics.median(every) if every else 0.0
    for kind, metric in zip(inputs.CLI_KINDS, PER_KIND_METRICS):
        m[metric] = statistics.median(main_s[kind]) if main_s[kind] else 0.0
    return m


LAYER_UNITS = {
    ".s": "s/op", ".self_s": "s/op", ".calls": "calls/op", ".evals": "evals/op",
    ".fail": "fails/op", ".bytes": "bytes/op", ".records": "records/op",
}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    if name.endswith("_s"):
        return "s"
    return "ratio"


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t0 = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "pvgrid", "__init__.py")):
        print(f"error: no pvgrid sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    refs = load_refs(args.workload)
    pool_digest = inputs.pool_digest(args.workload)

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        probes = [import_probe(env, t0) for _ in range(SETUP_PROBES // 2 + 1)][1:]
        if args.workload == "cli_mix":
            ops, extra = run_cli(args, refs, env, workdir, t0)
        else:
            ops, extra = run_in_worker(args, refs, env, workdir, t0)
        probes += [import_probe(env, t0) for _ in range(SETUP_PROBES - len(probes))]
        bundled_problems = check_bundled(env, workdir, t0)
        importtimes = ([importtime_probe(env, t0) for _ in range(IMPORTTIME_PROBES)]
                       if args.trace else [])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    attempted, n_failed, kinds = failure_summary(ops)
    ok_plain = [op for op in ops if op["error"] is None and not op["traced"]]
    ok_traced = [op for op in ops if op["error"] is None and op["traced"]]
    plain_s = [op["s"] for op in ok_plain]
    if not plain_s:
        print(f"error: no untraced operation succeeded ({n_failed}/{attempted} failed)",
              file=sys.stderr)
        return 2
    mismatched = [op for op in ops if op["problems"]]
    pool_ok = pool_digest == refs["pool_digest"]
    correct = not mismatched and not bundled_problems and pool_ok

    setup_s = statistics.median(probes)
    op_p50_s = statistics.median(plain_s)
    op_p50_loops = statistics.median(op["s"] / op["loop_s"] for op in ok_plain)
    loop_s = statistics.median(op["loop_s"] for op in ok_plain)
    facts = machine()
    used = refcheck.sha256("".join(op["key"] for op in ops))

    print(f"pvgrid benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print("note: " + MACHINE_NOTE.format(nproc=facts["nproc"]))
    print(f"inputs: pool_sha256={pool_digest} "
          f"({'matches' if pool_ok else 'DIFFERS FROM'} the recorded pool) "
          f"used_sha256={used} ops={attempted}")
    print(f"setup_s = {setup_s:.6f} s (median of {len(probes)} fresh imports: "
          + ", ".join(f"{p:.4f}" for p in probes) + ")")
    print(f"op_p50_s = {op_p50_s:.6f} s (n={len(plain_s)} untraced successful ops)")
    print(f"op_p50_loops = {op_p50_loops:.6f} loops (median of op time over the speed.loop_s "
          f"timed just before it; loop_s median {loop_s:.6f} s)")
    print("op_times_s: " + " ".join(f"{s:.4f}" for s in plain_s))
    t = tail(plain_s)
    if t is None:
        print(f"op_tail_s = n/a s (n={len(plain_s)}: too few samples for a tail "
              "with 10 beyond it)")
    else:
        print(f"op_tail_s = {t[0]:.6f} s (p{t[1]:.1f}, n={len(plain_s)}, 10 samples beyond)")
    if args.workload == "cli_mix":
        print("records_per_s = n/a 1/s (cli_mix emits no simulation records per op)")
    else:
        records = sum(op["records"] for op in ok_plain)
        rate = records / sum(plain_s)
        print(f"records_per_s = {rate:.1f} 1/s ({records} CSV records in {sum(plain_s):.3f} s)")
    print(f"fail_frac = {n_failed / attempted:.6f} ratio ({n_failed}/{attempted}"
          + "".join(f"; {k} x{v}" for k, v in sorted(kinds.items())) + ")")
    print(f"peak_rss_mb = {extra['peak_rss_mb']:.1f} MB")
    print(f"ref_mismatch = {len(mismatched)} count (of {attempted} ops; bundled case1-3 "
          f"CSVs and acceptance p_mp: {'ok' if not bundled_problems else 'MISMATCH'})")
    for op in mismatched[:5]:
        print(f"  op {op['index']}: " + "; ".join(op["problems"][:3]))
    for problem in bundled_problems[:5]:
        print(f"  bundled: {problem}")

    if args.trace:
        summary = tracing.summarize(extra["traces"])
        n_traced = sum(1 for op in ops if op["traced"])
        metrics = layer_metrics(summary, n_traced, extra["traces"])
        metrics["cli.import_s"] = statistics.median(p for p, _ in importtimes)
        metrics["cli.import.scipy_s"] = statistics.median(s for _, s in importtimes)
        traced_p50 = statistics.median(op["s"] for op in ok_traced) if ok_traced else op_p50_s
        metrics["trace.overhead_frac"] = traced_p50 / op_p50_s - 1.0
        print(f"traced ops: {n_traced} (per-op values are means over them); "
              f"untraced ops: {len(ok_plain)}")
        records = summary.get("simulator.run", {}).get("records", 0)
        print(f"simulator.mpp_per_record base: {summary.get('pv_model.mpp', {}).get('calls', 0)}"
              f" mpp calls / {records} records")
        for name in sorted(metrics):
            print(f"{name} = {metrics[name]:.6g} {layer_unit(name)}")
        out_metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in metrics.items()}
    else:
        out_metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_loops": {"value": op_p50_loops, "unit": "loops"},
            "peak_rss_mb": {"value": extra["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": n_failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
