"""Record the reference outputs in ``perfbench/ref`` from the current sources.

    python3 perfbench/record.py [WORKLOAD ...]

Runs every pool entry of each named workload (all three by default) and
the bundled cases, and writes ``ref/<workload>.json.gz`` and
``ref/bundled.json``.  Record on the commit whose answers are the
reference, never on a change under test.  An entry that fails with a
PVGridError (or a non-zero exit code) is stored as that failure and has
no outputs to compare.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import cliops  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402
import refcheck  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

# fleet_minutely keeps column statistics: every number of its 128 entries
# (a 1,441-row CSV and a 500-point sweep each) would take megabytes.
MODE = {"day_compare": "exact", "fleet_minutely": "stats", "cli_mix": "exact"}


def record(workload: str) -> dict:
    entries = {}
    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
        for index in range(inputs.pool_size(workload)):
            spec = inputs.op_spec(workload, index)
            if workload == "cli_mix":
                _, code, artifacts = cliops.execute(spec, workdir, run.child_env())
                error = None if code == 0 else f"exit {code}"
            else:
                _, artifacts, error = worker.run_op(ops.OPS[workload], spec)
            if error is not None:
                entries[inputs.spec_key(spec)] = {"index": index, "error": error}
            else:
                entries[inputs.spec_key(spec)] = {"index": index, "artifacts": {
                    name: refcheck.make_reference(name, text, MODE[workload])
                    for name, text in artifacts.items()
                }}
            print(f"{workload} {index}: {error or 'ok'}", file=sys.stderr)
    return {
        "pool_digest": inputs.pool_digest(workload),
        "recorded_with": run.machine(),
        "ops": entries,
    }


def main() -> int:
    workloads = sys.argv[1:] or list(inputs.WORKLOADS)
    os.makedirs(run.REF_DIR, exist_ok=True)
    for workload in workloads:
        data = json.dumps(record(workload), sort_keys=True, separators=(",", ":"))
        with open(os.path.join(run.REF_DIR, f"{workload}.json.gz"), "wb") as fh:
            fh.write(gzip.compress(data.encode("utf-8"), mtime=0))
    bundled = {name: refcheck.make_reference(name, text, "exact")
               for name, text in worker.bundled_outputs().items()}
    with open(os.path.join(run.REF_DIR, "bundled.json"), "w", encoding="utf-8") as fh:
        json.dump(bundled, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
