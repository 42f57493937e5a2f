"""Command-line front end.

Subcommands: design-boost, design-lcl, check-resonance, pv-curve,
simulate, compare.  All flags take SI base units; printed values use
engineering prefixes.  ``--json`` switches any human text block to a
JSON object with identical values.  Exit codes: 0 success, 1 validation
or parse error, 2 numerical failure.  Diagnostics go to stderr; data
goes to stdout or to the ``-o`` target.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import sys
from collections.abc import Iterable, Iterator
from dataclasses import MISSING, fields
from itertools import chain
from pathlib import Path

from .errors import DarkArray, NonConvergence, PVGridError, numeric_fields
from .units import format_si, shown_magnitude


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with status 1, not 2, and that reads a
    negative number in exponent form (``-3.6e-3``), ``-inf`` or ``-nan`` as a value."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)  # argparse's matcher omits "-4e1" and "-inf"
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _style_enabled() -> bool:
    if "PVGRID_NO_COLOR" in os.environ:
        return False
    return sys.stdout.isatty()


def _bold(text: str) -> str:
    return f"\x1b[1m{text}\x1b[0m" if _style_enabled() else text


def _fmt_value(value: object, unit: str) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    assert isinstance(value, float)
    # Capacitances from 1 µF up to 0.1 F read naturally in microfarads, below
    # 1e5 µF, where the count would print in exponent form.
    if unit == "F" and 1e-6 <= shown_magnitude(value) < 0.1:
        return f"{value / 1e-6:.5g} µF"
    return format_si(value, unit)


def _write_artifact(text: str | Iterable[str], out_path: str | Path | None) -> None:
    pieces = (text,) if isinstance(text, str) else text  # a str goes out in one write
    if out_path is None:
        sys.stdout.writelines(pieces)
    else:
        with Path(out_path).open("w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
        print(f"wrote {out_path}", file=sys.stderr)


def _refuse_overwrite(inputs: Iterable, outputs: Iterable) -> None:
    """Raise FileExistsError naming the first of ``outputs`` (None is stdout) that is an
    existing file among ``inputs``: no artifact replaces a document the command reads."""
    read = {os.stat(path)[1:3] for path in inputs if os.path.exists(path)}  # (inode, device)
    for out in filter(None, outputs):
        if os.path.exists(out) and os.stat(out)[1:3] in read:
            raise FileExistsError(f"will not write over the scenario document {out}")


def _block(results: tuple, json_mode: bool) -> str:
    """Every field of each result record, in field order, as text or JSON; text
    shows each number in the unit its field declares, and a bool as yes/no."""
    rows = [(f.name, getattr(result, f.name), f.metadata.get("unit", ""))
            for result in results for f in fields(result)]
    if json_mode:
        return json.dumps({name: value for name, value, _ in rows}, indent=2) + "\n"
    width = max(len(name) for name, *_ in rows)
    return "".join(
        f"{_bold(name.ljust(width))} = {_fmt_value(value, unit)}\n" for name, value, unit in rows
    )


_JSON_PIECE = 10_000  # most rows in one piece of _json_rows: its memory holds one piece


def _json_rows(head: dict, key: str, columns: dict, tail: dict) -> Iterator[str]:
    """``json.dumps({**head, key: rows, **tail}, indent=2)`` and a newline, where ``rows``
    holds one object per row of ``columns``, in pieces of at most 10,000 rows.  Each
    piece fills a ``%r`` row template, which prints a finite float as json does: every
    column is an array of finite floats, as ``TimeSeries`` and ``IVCurve`` ensure."""
    before, after = (json.dumps(members, indent=2)[2:-2] for members in (head, tail))
    values = list(columns.values())
    row = "    {\n" + ",\n".join(f'      "{name}": %r' for name in columns) + "\n    }"
    yield "{\n" + before + ",\n" * bool(before) + f'  "{key}": [\n'
    for start in range(0, len(values[0]), _JSON_PIECE):  # each piece after the first opens ",\n"
        piece = [column[start:start + _JSON_PIECE] for column in values]  # views, not floats
        yield ",\n" * bool(start) + ",\n".join([row] * len(piece[0])) % tuple(
            chain.from_iterable(zip(*[cells.tolist() for cells in piece])))
    yield "\n  ]" + ",\n" * bool(after) + after + "\n}\n"


def _record(cls, args: argparse.Namespace, **given):
    """A ``cls`` from the flags whose dest names one of its fields, plus ``given``.

    A flag left at ``None`` is not passed, so the field keeps its default.
    """
    flags = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    return cls(**{name: v for name, v in flags.items() if v is not None}, **given)


# ============================================================================
# Subcommand handlers
# ============================================================================

# Each handler imports the modules it runs, so the design commands never load
# numpy and no command loads a module it does not use.


def _cmd_design_boost(args: argparse.Namespace) -> int:
    from . import component_design

    out = component_design.boost_design(_record(component_design.BoostDesignInput, args))
    _write_artifact(_block((out,), args.json), args.output)
    return 0


def _cmd_design_lcl(args: argparse.Namespace) -> int:
    from . import component_design

    out = component_design.lcl_design(_record(component_design.LCLDesignInput, args))
    res = component_design.resonance_check(out.l_1, out.l_2, out.c_g, args.f_g, args.f_sw)
    _write_artifact(_block((out, res), args.json), args.output)
    return 0


def _cmd_check_resonance(args: argparse.Namespace) -> int:
    from . import component_design

    res = component_design.resonance_check(args.l1, args.l2, args.cg, args.fg, args.fsw)
    _write_artifact(_block((res,), args.json), args.output)
    return 0


def _cmd_pv_curve(args: argparse.Namespace) -> int:
    from . import pv_model
    from .pv_model import EnvCondition, PVArraySpec, PVModuleSpec

    module = _record(PVModuleSpec, args)
    params = pv_model.extract_single_diode_params(module)
    array = _record(PVArraySpec, args, module=module)
    env = _record(EnvCondition, args)
    curve = pv_model.array_iv_sweep(array, params, env, args.points)
    try:
        peak = pv_model.mpp(array, params, env)
    except DarkArray:  # the sweep is the dark point (0, 0, 0)
        peak = None
    if args.json:
        columns = {"v": curve.v, "i": curve.i, "p": curve.p}
        tail = {} if peak is None else {"mpp": vars(peak)}
        _write_artifact(_json_rows({}, "points", columns, tail), args.output)
        return 0
    _write_artifact(curve.to_csv(), args.output)
    if args.output is not None and peak is not None:
        sys.stdout.write(_block((peak,), False))
    return 0


def _run_document(path: str | Path) -> tuple:
    """The scenario at ``path`` and its run, for every command that reads a document; a
    pvgrid error keeps its class, and its message ends `` (in PATH)``."""
    from . import scenario_io, simulator

    try:
        scenario = scenario_io.parse_scenario(Path(path).read_bytes())
        return scenario, simulator.run(scenario)
    except PVGridError as exc:
        raise type(exc)(f"{exc} (in {path})") from exc


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import scenario_io

    if (args.scenario is None) == (args.batch is None):
        print("error: give exactly one of a scenario file or --batch DIR", file=sys.stderr)
        return 1
    if args.report and args.json and args.output is None:
        print("error: --report prints to stdout, so --json needs -o FILE", file=sys.stderr)
        return 1
    emit = scenario_io.emit_csv if not args.json else lambda series: _json_rows(
        {"scenario_id": series.scenario_id}, "records", series.columns, {})
    files, outputs = [args.scenario], [args.output]  # a file is a batch of one: -o FILE or stdout
    out_dir = Path(args.output or ".")  # where a batch writes
    if args.batch is not None:
        files = sorted(Path(args.batch).glob("*.json"))
        if not files:
            print(f"error: no *.json scenarios in {Path(args.batch)}", file=sys.stderr)
            return 1
        outputs = [out_dir / (path.stem + (".json" if args.json else ".csv")) for path in files]
    _refuse_overwrite(files, outputs)
    if args.batch is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for path, output in zip(files, outputs):  # the first failing document stops the batch
        scenario, series = _run_document(path)
        if not args.report or output is not None:  # a report alone takes stdout
            _write_artifact(emit(series), output)
        if args.report:
            sys.stdout.write(scenario_io.render_report(series, scenario=scenario))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from . import scenario_io, simulator

    _refuse_overwrite([args.scenario_a, args.scenario_b], [args.output])
    scenario_a, series_a = _run_document(args.scenario_a)
    scenario_b, series_b = _run_document(args.scenario_b)
    comparison = simulator.compare_runs(series_a, series_b)
    if args.json:
        text = json.dumps(vars(comparison), indent=2, default=lambda column: column.tolist())
        _write_artifact(text + "\n", args.output)
        return 0
    report_a = scenario_io.render_report(series_a, scenario=scenario_a)
    report_b = scenario_io.render_report(series_b, comparison, scenario=scenario_b)
    _write_artifact((report_a, "\n", report_b), args.output)
    return 0


# ============================================================================
# Parser assembly
# ============================================================================


# The records each command builds from its flags, by module.  Each int or float field
# has one flag, "--" and its name, unless _SPELLINGS has it (None: no flag): "_" is
# dropped after a one-letter symbol (``--vin``, ``--pmp``), else "-" (``--alpha-isc``).
# It is required unless its field has a default, in the record or in _CLI_DEFAULTS.
_RECORDS = {
    "design-boost": ("component_design", ["BoostDesignInput"]),
    "design-lcl": ("component_design", ["LCLDesignInput"]),
    "pv-curve": ("pv_model", ["PVModuleSpec", "PVArraySpec", "EnvCondition"]),
}
_SPELLINGS = {"f_s": "--fsw", "n_series": "--ns", "n_parallel": "--np", "g_stc": None,
              "t_stc": None}
_CLI_DEFAULTS = {"n_series": 1, "n_parallel": 1, "g": 1000.0, "t": 25.0}  # pv-curve's


def _add_record_flags(sub: argparse.ArgumentParser, command: str) -> None:
    """One flag per int or float field of each record ``command`` builds, its help the
    field's unit and bound.  A flag left out stores None (but for ``_CLI_DEFAULTS``),
    which :func:`_record` drops, so the record's default holds."""
    module_name, names = _RECORDS[command]
    module = importlib.import_module(f"{__package__}.{module_name}")
    for cls in (getattr(module, name) for name in names):
        units = {f.name: f.metadata.get("unit") for f in fields(cls)}
        for name, (bound, integer, default) in numeric_fields(cls).items():
            flag = _SPELLINGS.get(name, "--" + name.replace("_", "" if name[1:2] == "_" else "-"))
            if flag is not None:
                sub.add_argument(flag, dest=name, type=int if integer else float,
                                 required=default is MISSING and name not in _CLI_DEFAULTS,
                                 default=_CLI_DEFAULTS.get(name),
                                 help=", ".join(filter(None, [units[name], bound.text])))


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``pvgrid`` parser.  Only ``command``'s subparser gets the flags of the
    records it builds, and only its module is imported for them: a design command
    loads no numpy, and no command a module it does not run."""
    parser = _Parser(prog="pvgrid", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name: str, handler, text: str) -> argparse.ArgumentParser:
        one = subs.add_parser(name, help=text)
        one.set_defaults(handler=handler)
        if name == command and name in _RECORDS:
            _add_record_flags(one, name)
        return one

    sub("design-boost", _cmd_design_boost, "size the dc-dc boost stage")
    sub("design-lcl", _cmd_design_lcl, "size the grid-side LCL filter")

    res = sub("check-resonance", _cmd_check_resonance, "place the LCL resonance frequency")
    for flag, text in (("--l1", "inverter-side inductor, H"), ("--l2", "grid-side inductor, H"),
                       ("--cg", "filter capacitor, F"), ("--fg", "grid frequency, Hz"),
                       ("--fsw", "switching frequency, Hz")):
        res.add_argument(flag, type=float, required=True, help=text)

    sub("pv-curve", _cmd_pv_curve, "sweep the array I-V / P-V curve").add_argument(
        "--points", type=int, default=500)

    sim = sub("simulate", _cmd_simulate, "run a scenario to CSV")
    sim.add_argument("scenario", nargs="?", help="scenario JSON file")
    batch_or_report = sim.add_mutually_exclusive_group()
    batch_or_report.add_argument("--batch", metavar="DIR", help="run every *.json in DIR")
    batch_or_report.add_argument("--report", action="store_true", help="print a human summary")

    comp = sub("compare", _cmd_compare, "run two scenarios and compare grid Q")
    comp.add_argument("scenario_a", help="first scenario JSON file")
    comp.add_argument("scenario_b", help="second scenario JSON file")

    for one in subs.choices.values():
        one.add_argument("--json", action="store_true", help="emit a JSON object instead of text")
        one.add_argument("-o", "--output", metavar="FILE", help="write the artifact to FILE")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.handler(args)
    except PVGridError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, NonConvergence) else 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
