"""Tracing of pvgrid from outside: wrappers installed at the names callers look up.

Coarse calls (parse, run, emit, calibration, sweep, design calculators,
``cli.main``) become spans with a name, start, end and parent.  Per-step
calls (``mpp``, ``dispatch``, ``power_factor``, the diode solves and the
two numeric primitives) are aggregated under their nearest enclosing
span as call count, summed time, summed self time and failures, so an
86,401-step run keeps a bounded trace.  Self time is a call's duration
minus the time of its direct children, spans and aggregated calls alike.
For ``newton_bisect`` and ``golden_max`` the evaluations of the ``f``
passed in are counted too.

Nothing is installed until :meth:`Tracer.installed` is entered, and the
original functions are put back when it exits.  Importing this module
does not import pvgrid, so the benchmark client can use :func:`summarize`.
"""

from __future__ import annotations

import contextlib
import importlib
import time

# (pvgrid module, attribute, layer name) of every coarse call.
SPANS = (
    ("scenario_io", "parse_scenario", "scenario_io.parse_scenario"),
    ("scenario_io", "emit_csv", "scenario_io.emit_csv"),
    ("scenario_io", "render_report", "scenario_io.render_report"),
    ("simulator", "run", "simulator.run"),
    ("simulator", "compare_runs", "simulator.compare_runs"),
    ("pv_model", "extract_single_diode_params", "pv_model.extract_single_diode_params"),
    ("pv_model", "array_iv_sweep", "pv_model.array_iv_sweep"),
    ("component_design", "boost_design", "component_design.boost_design"),
    ("component_design", "lcl_design", "component_design.lcl_design"),
    ("component_design", "resonance_check", "component_design.resonance_check"),
)

# Per-step calls.  ``simulator`` imports dispatch and power_factor by name
# and ``pv_model`` calls its helpers and the numerics through its globals,
# so the wrappers go where those modules look the names up.
AGGREGATES = (
    ("pv_model", "mpp", "pv_model.mpp"),
    ("simulator", "dispatch", "compensation.dispatch"),
    ("simulator", "power_factor", "compensation.power_factor"),
    ("pv_model", "module_current", "pv_model.module_current"),
    ("pv_model", "module_voc", "pv_model.module_voc"),
    ("pv_model", "adjust_params", "pv_model.adjust_params"),
)
COUNTED_F = (
    ("pv_model", "newton_bisect", "numerics.newton_bisect"),
    ("pv_model", "golden_max", "numerics.golden_max"),
)

# Result attributes kept on spans.
_ATTRS = {
    "simulator.run": lambda series: {"records": len(series.records)},
    "scenario_io.emit_csv": lambda text: {"bytes": len(text.encode("utf-8"))},
}


class Tracer:
    """Spans and per-step aggregates of one process, kept in memory."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, child seconds, attrs]
        self.spans: list[list] = []
        # (span index, name) -> [calls, seconds, self seconds, failures, f evaluations]
        self.aggregates: dict[tuple[int, str], list] = {}
        self._frames: list[list[float]] = []  # child seconds of each active call
        self._span = -1  # innermost open span

    def _finish(self, elapsed: float) -> None:
        """Close the innermost call and charge its time to its parent."""
        self._frames.pop()
        if self._frames:
            self._frames[-1][0] += elapsed

    def _wrap_span(self, name, fn):
        attrs_of = _ATTRS.get(name)

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._span, 0.0, {}]
            self.spans.append(record)
            frame = [0.0]
            self._frames.append(frame)
            outer, self._span = self._span, index
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._span = outer
                self._finish(record[2] - record[1])
                record[4] = frame[0]
            if attrs_of is not None:
                record[5] = attrs_of(result)
            return result

        return wrapper

    def _wrap_aggregate(self, name, fn, count_f=False):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            evals = [0]
            if count_f:
                f = args[0]

                def counted(x):
                    evals[0] += 1
                    return f(x)

                args = (counted,) + args[1:]
            frame = [0.0]
            self._frames.append(frame)
            failed = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = 0
                return result
            finally:
                elapsed = clock() - start
                self._finish(elapsed)
                key = (self._span, name)
                agg = self.aggregates.get(key)
                if agg is None:
                    agg = self.aggregates[key] = [0, 0.0, 0.0, 0, 0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[0]
                agg[3] += failed
                agg[4] += evals[0]

        return wrapper

    def _wrap_counted(self, name, fn):
        return self._wrap_aggregate(name, fn, count_f=True)

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own (used around ``cli.main``)."""
        return self._wrap_span(name, fn)(*args, **kwargs)

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        targets = [(m, a, self._wrap_span, n) for m, a, n in SPANS]
        targets += [(m, a, self._wrap_aggregate, n) for m, a, n in AGGREGATES]
        targets += [(m, a, self._wrap_counted, n) for m, a, n in COUNTED_F]
        saved = []
        try:
            for module_name, attr, wrap, name in targets:
                module = importlib.import_module(f"pvgrid.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        return {
            "spans": self.spans,
            "aggregates": [[span, name, *values] for (span, name), values in self.aggregates.items()],
        }


def summarize(dumps: list[dict]) -> dict[str, dict[str, float]]:
    """Totals per layer name over a list of :meth:`Tracer.dump` results.

    Returns ``{name: {"calls", "s", "self_s", "fail", "evals", <attrs>}}``.
    """
    out: dict[str, dict[str, float]] = {}

    def entry(name):
        return out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "fail": 0, "evals": 0})

    for dump in dumps:
        for name, start, end, _parent, child_s, attrs in dump["spans"]:
            e = entry(name)
            e["calls"] += 1
            e["s"] += end - start
            e["self_s"] += end - start - child_s
            for key, value in attrs.items():
                e[key] = e.get(key, 0) + value
        for _span, name, calls, secs, self_s, fails, evals in dump["aggregates"]:
            e = entry(name)
            e["calls"] += calls
            e["s"] += secs
            e["self_s"] += self_s
            e["fail"] += fails
            e["evals"] += evals
    return out

