"""``pvgrid`` with the tracer installed: ``traced_cli.py TRACE_OUT KIND ARGV...``.

Calls ``pvgrid.cli.main(argv)`` in-process inside a ``cli.main`` span,
writes the trace to TRACE_OUT and exits with main's code.
"""

from __future__ import annotations

import json
import sys

import tracing
from pvgrid import cli


def main() -> int:
    trace_out, kind, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = tracing.Tracer()
    with tracer.installed():
        code = tracer.span("cli.main", cli.main, argv)
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({**tracer.dump(), "kind": kind}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
