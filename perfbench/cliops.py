"""One ``cli_mix`` operation: a ``pvgrid`` process on scenario files in a work directory."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

# What the ``pvgrid`` console script runs.
ENTRY_POINT = "import sys; from pvgrid.cli import main; sys.exit(main())"
HERE = os.path.dirname(os.path.abspath(__file__))
TIMEOUT_S = 120


def _stdout_name(kind: str) -> str:
    return "stdout.json" if kind == "compare_json" else "stdout.txt"


def execute(spec: dict, workdir: str, env: dict, trace_out: str | None = None):
    """Run one invocation; returns (wall seconds, exit code, artifacts).

    With ``trace_out`` the process is ``traced_cli.py``, which installs the
    tracer, calls ``cli.main`` in-process and writes its trace there.
    """
    for name in os.listdir(workdir):
        os.remove(os.path.join(workdir, name))
    for name, text in spec["docs"].items():
        with open(os.path.join(workdir, f"{name}.json"), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    argv = [a.replace("{dir}", workdir) for a in spec["argv"]]
    if trace_out is None:
        cmd = [sys.executable, "-c", ENTRY_POINT, *argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_out, spec["kind"], *argv]
    stdout_path = os.path.join(workdir, "stdout")
    with open(stdout_path, "wb") as out, open(os.devnull, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        # A wait with a timeout polls with sleeps of up to 50 ms, which would
        # round every time up to that step; a blocking wait returns at exit.
        killer = threading.Timer(TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    artifacts = {}
    if code == 0:
        with open(stdout_path, encoding="utf-8", newline="") as fh:
            artifacts[_stdout_name(spec["kind"])] = fh.read()
        for arg in argv:
            if arg.startswith(workdir) and not arg.endswith(".json"):
                with open(arg, encoding="utf-8", newline="") as fh:
                    artifacts[os.path.basename(arg)] = fh.read()
    return seconds, code, artifacts
