"""Design toolkit and quasi-steady-state simulator for a grid-connected
solar PV array with reactive-power compensation.

Each public name is imported from its home submodule on first read
(PEP 562), so ``import pvgrid`` loads no submodule and no numpy, and a
process loads only the submodules it uses.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOMES = {
    "BoostDesign": "component_design",
    "BoostDesignInput": "component_design",
    "ComparisonReport": "simulator",
    "CompensatorConfig": "compensation",
    "DarkArray": "errors",
    "EnvCondition": "pv_model",
    "FixedCapacitor": "compensation",
    "GridMismatch": "errors",
    "GridSpec": "simulator",
    "IVCurve": "pv_model",
    "InfeasibleSpec": "errors",
    "InvalidValue": "errors",
    "IrradianceStep": "simulator",
    "LCLDesign": "component_design",
    "LCLDesignInput": "component_design",
    "LoadStep": "simulator",
    "MPPResult": "pv_model",
    "NoCompensator": "compensation",
    "NonConvergence": "errors",
    "PVArraySpec": "pv_model",
    "PVGridError": "errors",
    "PVModuleSpec": "pv_model",
    "ParseError": "errors",
    "PowerFlowRecord": "simulator",
    "ResonanceReport": "component_design",
    "Scenario": "simulator",
    "SingleDiodeParams": "pv_model",
    "Statcom": "compensation",
    "TimeSeries": "simulator",
    "adjust_params": "pv_model",
    "array_iv_sweep": "pv_model",
    "array_mpp": "pv_model",
    "boost_design": "component_design",
    "bundled_scenario_text": "scenario_io",
    "capbank_size": "component_design",
    "compare_runs": "simulator",
    "dispatch": "compensation",
    "emit_csv": "scenario_io",
    "emit_scenario": "scenario_io",
    "extract_single_diode_params": "pv_model",
    "lcl_design": "component_design",
    "module_current": "pv_model",
    "module_voc": "pv_model",
    "mpp": "pv_model",
    "parse_scenario": "scenario_io",
    "power_factor": "compensation",
    "render_report": "scenario_io",
    "resonance_check": "component_design",
    "run": "simulator",
    "schema_text": "scenario_io",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
