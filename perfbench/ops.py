"""The in-process operations of ``day_compare`` and ``fleet_minutely``.

Every call into pvgrid goes through its public modules, looked up at
call time (``scenario_io.parse_scenario``, not a name imported once), so
the tracer in ``trace.py`` sees it when installed.
"""

from __future__ import annotations

from pvgrid import pv_model, scenario_io, simulator


def day_compare(spec: dict) -> dict[str, str]:
    """One day at 1 s, STATCOM against a fixed capacitor bank."""
    docs = spec["docs"]
    statcom = scenario_io.parse_scenario(docs["statcom"])
    capbank = scenario_io.parse_scenario(docs["capbank"])
    series_s = simulator.run(statcom)
    series_c = simulator.run(capbank)
    comparison = simulator.compare_runs(series_s, series_c)
    return {
        "statcom.csv": scenario_io.emit_csv(series_s),
        "capbank.csv": scenario_io.emit_csv(series_c),
        "report.txt": scenario_io.render_report(series_c, comparison, scenario=capbank),
    }


def fleet_minutely(spec: dict) -> dict[str, str]:
    """A new datasheet: one day at 60 s, its CSV and a 500-point sweep."""
    scenario = scenario_io.parse_scenario(spec["docs"]["scenario"])
    csv = scenario_io.emit_csv(simulator.run(scenario))
    module = scenario.array.module
    params = pv_model.extract_single_diode_params(module)
    env = pv_model.EnvCondition(g=spec["sweep"]["g"], t=spec["sweep"]["t"])
    curve = pv_model.array_iv_sweep(scenario.array, params, env, 500)
    return {"run.csv": csv, "sweep.csv": curve.to_csv()}


OPS = {"day_compare": day_compare, "fleet_minutely": fleet_minutely}


def csv_records(artifacts: dict[str, str]) -> int:
    """Simulation records in an operation's CSV output (header lines excluded)."""
    return sum(
        text.count("\n") - 1
        for name, text in artifacts.items()
        if name.endswith(".csv") and name != "sweep.csv"
    )
