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
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import component_design, pv_model, scenario_io, simulator
from .errors import CalibrationFailure, DarkArray, NonConvergence, PVGridError
from .pv_model import EnvCondition, PVArraySpec, PVModuleSpec


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with status 1, not 2."""

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
    # Capacitances below one farad read naturally in microfarads.
    if unit == "F" and 1e-6 <= abs(value) < 1.0:
        return f"{value / 1e-6:.5g} µF"
    if not unit:
        return f"{value:.5g}"
    return scenario_io.format_si(value, unit)


def _write_artifact(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, encoding="utf-8", newline="")
        print(f"wrote {out_path}", file=sys.stderr)


def _block(fields: list[tuple[str, object, str]], json_mode: bool) -> str:
    if json_mode:
        return json.dumps({name: value for name, value, _ in fields}, indent=2) + "\n"
    width = max(len(name) for name, _, _ in fields)
    lines = [
        f"{_bold(name.ljust(width))} = {_fmt_value(value, unit)}"
        for name, value, unit in fields
    ]
    return "\n".join(lines) + "\n"


# ============================================================================
# Subcommand handlers
# ============================================================================


def _cmd_design_boost(args: argparse.Namespace) -> int:
    out = component_design.boost_design(
        component_design.BoostDesignInput(
            p=args.p,
            v_in=args.vin,
            v_out=args.vout,
            f_s=args.fsw,
            ripple_i_frac=args.ripple_i_frac,
            ripple_v_frac=args.ripple_v_frac,
        )
    )
    fields = [
        ("i_out_max", out.i_out_max, "A"),
        ("delta_i_l", out.delta_i_l, "A"),
        ("delta_v_out", out.delta_v_out, "V"),
        ("l", out.l, "H"),
        ("c", out.c, "F"),
    ]
    _write_artifact(_block(fields, args.json), args.output)
    return 0


def _cmd_design_lcl(args: argparse.Namespace) -> int:
    out = component_design.lcl_design(
        component_design.LCLDesignInput(
            p=args.p,
            v_g=args.vg,
            f_g=args.fg,
            v_dc=args.vdc,
            f_sw=args.fsw,
            cap_frac=args.cap_frac,
            ripple_frac=args.ripple_frac,
            atten_factor=args.atten_factor,
        )
    )
    res = component_design.resonance_check(out.l_1, out.l_2, out.c_g, args.fg, args.fsw)
    fields = [
        ("omega_g", out.omega_g, "rad/s"),
        ("z_b", out.z_b, "Ω"),
        ("c_b", out.c_b, "F"),
        ("i_max", out.i_max, "A"),
        ("delta_i_max", out.delta_i_max, "A"),
        ("l_1", out.l_1, "H"),
        ("c_g", out.c_g, "F"),
        ("l_2", out.l_2, "H"),
        ("omega_res", res.omega_res, "rad/s"),
        ("f_res", res.f_res, "Hz"),
        ("f_min", res.f_min, "Hz"),
        ("f_max", res.f_max, "Hz"),
        ("passed", res.passed, ""),
    ]
    _write_artifact(_block(fields, args.json), args.output)
    return 0


def _cmd_check_resonance(args: argparse.Namespace) -> int:
    res = component_design.resonance_check(args.l1, args.l2, args.cg, args.fg, args.fsw)
    fields = [
        ("omega_res", res.omega_res, "rad/s"),
        ("f_res", res.f_res, "Hz"),
        ("f_min", res.f_min, "Hz"),
        ("f_max", res.f_max, "Hz"),
        ("passed", res.passed, ""),
    ]
    _write_artifact(_block(fields, args.json), args.output)
    return 0


def _cmd_pv_curve(args: argparse.Namespace) -> int:
    module = PVModuleSpec(
        p_mp=args.pmp,
        v_mp=args.vmp,
        i_mp=args.imp,
        v_oc=args.voc,
        i_sc=args.isc,
        n_cells=args.ncells,
        alpha_isc=args.alpha_isc,
        beta_voc=args.beta_voc,
    )
    params = pv_model.extract_single_diode_params(
        module, n_ideality_guess=args.ideality_guess
    )
    array = PVArraySpec(module=module, n_series=args.ns, n_parallel=args.np)
    env = EnvCondition(g=args.g, t=args.t)
    curve = pv_model.array_iv_sweep(array, params, env, args.points)
    try:
        peak = pv_model.mpp(array, params, env)
    except DarkArray:  # the sweep is the dark point (0, 0, 0)
        peak = None
    if args.json:
        doc: dict = {
            "points": [{"v": pt.v, "i": pt.i, "p": pt.p} for pt in curve.points]
        }
        if peak is not None:
            doc["mpp"] = {"v_mp": peak.v_mp, "i_mp": peak.i_mp, "p_mp": peak.p_mp}
        _write_artifact(json.dumps(doc, indent=2) + "\n", args.output)
        return 0
    _write_artifact(curve.to_csv(), args.output)
    if args.output is not None and peak is not None:
        fields = [
            ("v_mp", peak.v_mp, "V"),
            ("i_mp", peak.i_mp, "A"),
            ("p_mp", peak.p_mp, "W"),
        ]
        sys.stdout.write(_block(fields, False))
    return 0


def _series_json(series: simulator.TimeSeries) -> str:
    doc = {
        "scenario_id": series.scenario_id,
        "records": [dict(zip(simulator.COLUMNS, row)) for row in series.rows()],
    }
    return json.dumps(doc, indent=2) + "\n"


def _cmd_simulate(args: argparse.Namespace) -> int:
    if (args.scenario is None) == (args.batch is None):
        print("error: give exactly one of a scenario file or --batch DIR", file=sys.stderr)
        return 1
    if args.batch is not None:
        batch_dir = Path(args.batch)
        files = sorted(batch_dir.glob("*.json"))
        if not files:
            print(f"error: no *.json scenarios in {batch_dir}", file=sys.stderr)
            return 1
        out_dir = Path(args.output) if args.output else Path(".")
        out_dir.mkdir(parents=True, exist_ok=True)
        for path in files:
            series = simulator.run(scenario_io.parse_scenario(path.read_text("utf-8")))
            suffix = ".json" if args.json else ".csv"
            text = _series_json(series) if args.json else scenario_io.emit_csv(series)
            target = out_dir / (path.stem + suffix)
            target.write_text(text, encoding="utf-8", newline="")
            print(f"wrote {target}", file=sys.stderr)
        return 0
    scenario = scenario_io.parse_scenario(Path(args.scenario).read_text("utf-8"))
    series = simulator.run(scenario)
    artifact = _series_json(series) if args.json else scenario_io.emit_csv(series)
    if args.report:
        report = scenario_io.render_report(series, scenario=scenario)
        if args.output is not None:
            _write_artifact(artifact, args.output)
        sys.stdout.write(report)
        return 0
    _write_artifact(artifact, args.output)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario_a = scenario_io.parse_scenario(Path(args.scenario_a).read_text("utf-8"))
    scenario_b = scenario_io.parse_scenario(Path(args.scenario_b).read_text("utf-8"))
    series_a = simulator.run(scenario_a)
    series_b = simulator.run(scenario_b)
    comparison = simulator.compare_runs(series_a, series_b)
    if args.json:
        _write_artifact(json.dumps(asdict(comparison), indent=2) + "\n", args.output)
        return 0
    text = (
        scenario_io.render_report(series_a, scenario=scenario_a)
        + "\n"
        + scenario_io.render_report(series_b, comparison, scenario=scenario_b)
    )
    _write_artifact(text, args.output)
    return 0


# ============================================================================
# Parser assembly
# ============================================================================


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="emit a JSON object instead of text")
    sub.add_argument("-o", "--output", metavar="FILE", help="write the artifact to FILE")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pvgrid", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    boost = subs.add_parser("design-boost", help="size the dc-dc boost stage")
    boost.add_argument("--p", type=float, required=True, help="PV power at STC, W")
    boost.add_argument("--vin", type=float, required=True, help="PV voltage at STC, V")
    boost.add_argument("--vout", type=float, required=True, help="dc-link voltage, V")
    boost.add_argument("--fsw", type=float, required=True, help="switching frequency, Hz")
    boost_in = component_design.BoostDesignInput
    boost.add_argument("--ripple-i-frac", type=float, default=boost_in.ripple_i_frac)
    boost.add_argument("--ripple-v-frac", type=float, default=boost_in.ripple_v_frac)
    _add_common(boost)
    boost.set_defaults(handler=_cmd_design_boost)

    lcl = subs.add_parser("design-lcl", help="size the grid-side LCL filter")
    lcl.add_argument("--p", type=float, required=True, help="converter power, W")
    lcl.add_argument("--vg", type=float, required=True, help="grid phase voltage, V")
    lcl.add_argument("--fg", type=float, required=True, help="grid frequency, Hz")
    lcl.add_argument("--vdc", type=float, required=True, help="dc-link voltage, V")
    lcl.add_argument("--fsw", type=float, required=True, help="switching frequency, Hz")
    lcl_in = component_design.LCLDesignInput
    lcl.add_argument("--cap-frac", type=float, default=lcl_in.cap_frac)
    lcl.add_argument("--ripple-frac", type=float, default=lcl_in.ripple_frac)
    lcl.add_argument("--atten-factor", type=float, default=lcl_in.atten_factor)
    _add_common(lcl)
    lcl.set_defaults(handler=_cmd_design_lcl)

    res = subs.add_parser("check-resonance", help="place the LCL resonance frequency")
    res.add_argument("--l1", type=float, required=True, help="inverter-side inductor, H")
    res.add_argument("--l2", type=float, required=True, help="grid-side inductor, H")
    res.add_argument("--cg", type=float, required=True, help="filter capacitor, F")
    res.add_argument("--fg", type=float, required=True, help="grid frequency, Hz")
    res.add_argument("--fsw", type=float, required=True, help="switching frequency, Hz")
    _add_common(res)
    res.set_defaults(handler=_cmd_check_resonance)

    curve = subs.add_parser("pv-curve", help="sweep the array I-V / P-V curve")
    curve.add_argument("--pmp", type=float, required=True, help="module power, W")
    curve.add_argument("--vmp", type=float, required=True, help="module MPP voltage, V")
    curve.add_argument("--imp", type=float, required=True, help="module MPP current, A")
    curve.add_argument("--voc", type=float, required=True, help="module open-circuit voltage, V")
    curve.add_argument("--isc", type=float, required=True, help="module short-circuit current, A")
    curve.add_argument("--ncells", type=int, default=PVModuleSpec.n_cells)
    curve.add_argument("--alpha-isc", type=float, default=PVModuleSpec.alpha_isc)
    curve.add_argument("--beta-voc", type=float, default=PVModuleSpec.beta_voc)
    curve.add_argument("--ideality-guess", type=float, default=1.3)
    curve.add_argument("--ns", type=int, default=1, help="modules in series")
    curve.add_argument("--np", type=int, default=1, help="strings in parallel")
    curve.add_argument("--g", type=float, default=1000.0, help="irradiance, W/m²")
    curve.add_argument("--t", type=float, default=25.0, help="cell temperature, °C")
    curve.add_argument("--points", type=int, default=500)
    _add_common(curve)
    curve.set_defaults(handler=_cmd_pv_curve)

    sim = subs.add_parser("simulate", help="run a scenario to CSV")
    sim.add_argument("scenario", nargs="?", help="scenario JSON file")
    sim.add_argument("--batch", metavar="DIR", help="run every *.json in DIR")
    sim.add_argument("--report", action="store_true", help="print a human summary")
    _add_common(sim)
    sim.set_defaults(handler=_cmd_simulate)

    comp = subs.add_parser("compare", help="run two scenarios and compare grid Q")
    comp.add_argument("scenario_a", help="first scenario JSON file")
    comp.add_argument("scenario_b", help="second scenario JSON file")
    _add_common(comp)
    comp.set_defaults(handler=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (NonConvergence, CalibrationFailure) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (PVGridError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
