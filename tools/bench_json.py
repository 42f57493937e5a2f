"""Write a ``BENCH_<n>.json`` from paired runs of the benchmark.

    python tools/bench_json.py -o BENCH_34.json --change TEXT --parent-commit SHA \\
        [--claim WORKLOAD:METRIC] [--protocol KEY=TEXT ...] RUN_OUTPUT...

Each RUN_OUTPUT is the standard output of one ``python3 perfbench/run.py
--workload W --seed S --seconds T --trace 0`` run, saved as
``<workload>-<seed>-<side>.<any suffix>``, where the side is ``parent`` or
``change``.  Only its last line is read: the JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every seed of a workload must have
one run of each side; the runs of one seed are a pair.

The file holds ``change``, ``parent_commit``, ``claim``, ``protocol``,
``machine``, ``summary`` and ``runs``.  ``summary`` has, per workload and per
end-to-end metric of ``BENCHMARK.json``: both medians, the change against the
parent in percent, both interquartile ranges (``statistics.quantiles``, its
default method), the pairs in which the change read lower, the metric's bound
in percent and a verdict.  A claimed metric also gets ``claim_met``: better in
at least 9 of 10 pairs, and the medians apart by more than the parent's IQR.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")


def read_run(path: Path) -> dict:
    """The labels a run's file name gives and the values its last line holds."""
    label = path.name.split(".")[0].rsplit("-", 2)
    if len(label) != 3 or not label[1].isdigit() or label[2] not in SIDES:
        raise ValueError(f"{path}: the name must be <workload>-<seed>-<parent|change>.<suffix>")
    workload, seed, side = label
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    try:
        last = json.loads(lines[-1])
        values = {name: metric["value"] for name, metric in last["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        raise ValueError(f"{path}: the last line is no result of perfbench/run.py") from None
    return {"workload": workload, "seed": int(seed), "side": side, "correct": last["correct"],
            "attempted": last["attempted"], "failed": last["failed"], **values}


def compare(parent: list[float], change: list[float], bound: float, better: str,
            claimed: bool) -> dict:
    """One metric's summary over pairs of runs: ``parent[k]`` and ``change[k]`` a pair."""
    med_p, med_c = statistics.median(parent), statistics.median(change)
    iqr = [q[2] - q[0] for q in (statistics.quantiles(x, n=4) for x in (parent, change))]
    pct = (med_c / med_p - 1.0) * 100.0
    sign = 1.0 if better == "lower" else -1.0  # sign * pct > 0 where the change is worse
    lower = sum(c < p for p, c in zip(parent, change))
    entry = {
        "parent_median": round(med_p, 6), "change_median": round(med_c, 6),
        "change_vs_parent_pct": round(pct, 2),
        "parent_iqr": round(iqr[0], 6), "change_iqr": round(iqr[1], 6),
        "change_lower_pairs": f"{lower}/{len(parent)}", "bound_pct": bound * 100.0,
        "verdict": "WORSE than the bound" if sign * pct > bound * 100.0 else "within the bound",
    }
    if claimed:
        better_pairs = lower if better == "lower" else sum(c > p for p, c in zip(parent, change))
        entry["claim_met"] = (better_pairs >= math.ceil(0.9 * len(parent))
                              and sign * (med_p - med_c) > iqr[0])
    return entry


def summarize(runs: list[dict], benchmark: dict, claim: tuple[str, str] | None) -> dict:
    """``summary`` of the runs: per workload, per end-to-end metric of ``benchmark``."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        sides = {side: {run["seed"]: run for run in runs
                        if run["workload"] == workload and run["side"] == side} for side in SIDES}
        unpaired = sorted(sides["parent"].keys() ^ sides["change"].keys())
        if unpaired:
            raise ValueError(f"{workload}: the seeds {unpaired} have a run of one side only")
        seeds = sorted(sides["parent"])
        summary[workload] = {
            metric["name"]: compare(
                *([sides[side][seed][metric["name"]] for seed in seeds] for side in SIDES),
                metric["bound"], metric["better"], claim == (workload, metric["name"]))
            for metric in benchmark["end_to_end"]
        }
    return summary


def machine() -> dict:
    """The machine the script runs on, where the runs are taken to have run."""
    import numpy

    return {"nproc": os.cpu_count(), "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def _note(text: str) -> tuple[str, str]:
    key, sep, note = text.partition("=")
    if not (key and sep):
        raise argparse.ArgumentTypeError(f"expected KEY=TEXT, got {text!r}")
    return key, note


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("runs", nargs="+", type=Path, help="saved output of one run each")
    ap.add_argument("-o", "--output", type=Path, required=True)
    ap.add_argument("--change", required=True, help="what the change does, in one line")
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the metric a gain is claimed on")
    ap.add_argument("--protocol", metavar="KEY=TEXT", type=_note, action="append", default=[],
                    help="a note on how the runs were taken, added to the protocol")
    args = ap.parse_args(argv)
    benchmark = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    claim = tuple(args.claim.partition(":")[::2]) if args.claim else None
    if claim is not None and claim[1] not in better:
        ap.error(f"--claim names no end-to-end metric of {BENCHMARK.name}: {args.claim!r}")
    try:
        runs = sorted(map(read_run, args.runs),
                      key=lambda run: (run["workload"], run["seed"], SIDES.index(run["side"])))
        summary = summarize(runs, benchmark, claim)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc = {
        "change": args.change,
        "parent_commit": args.parent_commit,
        "claim": None if claim is None else {
            "workload": claim[0], "metric": claim[1], "better": better[claim[1]],
            "rule": "change better in at least 9 of 10 pairs, and the medians differ by "
                    "more than the parent's IQR"},
        "protocol": {
            "command": " ".join(benchmark["command"]) + " --workload W --seed S --seconds "
                       f"{benchmark['run_seconds']} --trace 0, run from the root of each tree",
            "run_seconds": benchmark["run_seconds"],
            **dict(args.protocol),
        },
        "machine": machine(),
        "summary": summary,
        "runs": runs,
    }
    args.output.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
