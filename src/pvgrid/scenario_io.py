"""Scenario document parsing, result serialization, and report rendering.

Scenario files are JSON with fixed sections (grid, pv_module, pv_array,
inverter, compensator, profiles, sim).  Unknown keys are hard errors so
typos in scientific configurations surface immediately.  The parser
applies documented defaults for omitted optional fields and materializes
all of them on emit, making parse-emit round trips exact.
"""

from __future__ import annotations

import json
from dataclasses import MISSING
from itertools import chain, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .compensation import COMPENSATORS, NoCompensator
from .errors import IDENTIFIER, ParseError, numbers_only, numeric_fields, within
from .pv_model import PVArraySpec, PVModuleSpec
from .simulator import (
    COLUMNS,
    ComparisonReport,
    GridSpec,
    IrradianceStep,
    LoadStep,
    Scenario,
    TimeSeries,
)
from .units import format_si


# ============================================================================
# Parsing
# ============================================================================


# The ``inverter`` and ``sim`` sections hold scalar fields of Scenario, with their bounds.
_SCENARIO_BOUNDS = {name: bound for name, (bound, *_) in numeric_fields(Scenario).items()}


class _Inverter(NamedTuple):
    efficiency: float = Scenario.inverter_efficiency

    BOUNDS = {"efficiency": _SCENARIO_BOUNDS["inverter_efficiency"]}


class _Sim(NamedTuple):
    t_end: float = Scenario.t_end  # s
    dt: float = Scenario.dt  # s

    BOUNDS = _SCENARIO_BOUNDS


# Document section -> the record type whose numeric fields are its keys.
# A section whose keys all have defaults may be omitted.
_SECTIONS = {
    "grid": GridSpec,
    "pv_module": PVModuleSpec,
    "pv_array": PVArraySpec,
    "inverter": _Inverter,
    "sim": _Sim,
}
# ``profiles`` key -> the record type of each entry of its list.
_PROFILES = {"irradiance": IrradianceStep, "load": LoadStep}
_DOCUMENT_KEYS = {"id", "compensator", "profiles", *_SECTIONS}


def _reject_unknown(section: dict, allowed, where: str) -> None:
    unknown = section.keys() - allowed
    if unknown:
        raise ParseError(f"{where}: unknown keys {', '.join(sorted(unknown))}")


def _section(doc: dict, key: str, default: dict | None = None) -> dict:
    """The object under ``key``: ``default`` when absent, an error if that is None."""
    if key not in doc:
        if default is None:
            raise ParseError(f"document: missing required section '{key}'")
        return default
    if not isinstance(doc[key], dict):
        raise ParseError(f"document: section '{key}' must be an object")
    return doc[key]


def _read(section: object, cls: type, where: str) -> dict:
    """Keyword arguments for ``cls`` from one document object, its keys and JSON types checked."""
    if not isinstance(section, dict):
        raise ParseError(f"{where} must be an object")
    keys = numeric_fields(cls)
    _reject_unknown(section, keys.keys(), where)
    values = {}
    for key, (_, integer, default) in keys.items():
        if key not in section:
            if default is MISSING:
                raise ParseError(f"{where}: missing required key '{key}'")
            values[key] = default
            continue
        value = section[key]
        if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
            kind = "an integer" if integer else "a number"
            raise ParseError(f"{where}: key '{key}' must be {kind}")
        # The record judges a value that is not finite, as given: an int past the float range too.
        values[key] = float(value) if within(value) and not integer else value
    return values


def _read_profile(entries: list, cls: type, where: str) -> np.ndarray:
    """The values of one profile list as given, an array row per field of ``cls``.

    Each entry must be an object with exactly the keys of ``cls``, each
    value an int or a float, not a bool; :class:`Scenario` judges the
    values, and in an array it need not look for a bool again.  ``_read``
    names the first entry that breaks this rule.
    """
    keys = numeric_fields(cls)

    def columns(entries: list) -> list[list] | None:  # None if an entry breaks the rule
        if set(map(type, entries)) != {dict} or set(map(len, entries)) != {len(keys)}:
            return None
        try:
            values = [list(map(itemgetter(key), entries)) for key in keys]
        except KeyError:  # an unknown key in place of one of ``keys``
            return None
        return values if all(map(numbers_only, values)) else None

    values = columns(entries)
    if values is None:
        idx = next(idx for idx, entry in enumerate(entries) if columns([entry]) is None)
        _read(entries[idx], cls, f"{where}[{idx}]")  # raises, naming what breaks the rule
    return np.asarray(values)


def parse_scenario(text: str | bytes) -> Scenario:
    """Parse and validate a scenario document, given as text or as UTF-8 bytes.

    Raises:
        ParseError: for malformed or too deeply nested JSON, bytes that are
            not UTF-8, a non-object document, missing or unknown keys,
            wrong JSON types, a bad ``id`` or an unknown compensator ``mode``.
        InvalidValue: for a value that a record or :class:`Scenario`
            rejects, such as a negative grid voltage, a NaN, an infinity or an
            irradiance outside the envelope, with the message a flag gets.
    """
    try:
        doc = json.loads(text.decode() if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:  # malformed, too deep, not UTF-8, or a huge int
        raise ParseError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    _reject_unknown(doc, _DOCUMENT_KEYS, "document")

    scenario_id = doc.get("id", "scenario")
    if not IDENTIFIER.holds(scenario_id):
        raise ParseError(f"document: key 'id' must be {IDENTIFIER.text}")

    kw = {}
    for name, cls in _SECTIONS.items():
        optional = MISSING not in (default for *_, default in numeric_fields(cls).values())
        kw[name] = _read(_section(doc, name, {} if optional else None), cls, name)
    comp_s = dict(_section(doc, "compensator", {"mode": NoCompensator.mode}))
    if "mode" not in comp_s:
        raise ParseError("compensator: missing required key 'mode'")
    mode = comp_s.pop("mode")
    comp_cls = COMPENSATORS.get(mode) if isinstance(mode, str) else None
    if comp_cls is None:
        raise ParseError(
            f"compensator: mode must be one of {', '.join(COMPENSATORS)}; got {mode!r}"
        )
    kw["compensator"] = _read(comp_s, comp_cls, "compensator")

    profiles_s = _section(doc, "profiles")
    _reject_unknown(profiles_s, _PROFILES.keys(), "profiles")
    for key, cls in _PROFILES.items():
        if key not in profiles_s:
            raise ParseError(f"profiles: missing required key '{key}'")
        entries = profiles_s[key]
        if not isinstance(entries, list) or not entries:
            raise ParseError(f"profiles.{key} must be a non-empty list")
        kw[key] = _read_profile(entries, cls, f"profiles.{key}")
    return Scenario(
        grid=GridSpec(**kw["grid"]),
        array=PVArraySpec(module=PVModuleSpec(**kw["pv_module"]), **kw["pv_array"]),
        inverter_efficiency=kw["inverter"]["efficiency"],
        irradiance=kw["irradiance"],
        load=kw["load"],
        compensator=comp_cls(**kw["compensator"]),
        scenario_id=scenario_id,
        **kw["sim"],
    )


# ============================================================================
# Emission
# ============================================================================


def _doc(record: object) -> dict:
    """The document keys of one record and their values, in field order; a count
    held as a numpy integer is written as an int."""
    return {
        key: int(getattr(record, key)) if integer else getattr(record, key)
        for key, (_, integer, _) in numeric_fields(type(record)).items()
    }


def emit_scenario(scenario: Scenario) -> str:
    """Serialize a scenario to canonical JSON with all defaults materialized.

    ``parse_scenario(emit_scenario(s))`` reproduces ``s`` field for field, since
    a ``Scenario`` holds only what a document carries (an id included).
    """
    doc = {
        "id": scenario.scenario_id,
        "grid": _doc(scenario.grid),
        "pv_module": _doc(scenario.array.module),
        "pv_array": _doc(scenario.array),
        "inverter": _doc(_Inverter(scenario.inverter_efficiency)),
        "compensator": {"mode": scenario.compensator.mode, **_doc(scenario.compensator)},
        "profiles": {
            key: [dict(zip(numeric_fields(cls), segment))
                  for segment in getattr(scenario, key).T.tolist()]
            for key, cls in _PROFILES.items()
        },
        "sim": _doc(_Sim(scenario.t_end, scenario.dt)),
    }
    return json.dumps(doc, indent=2) + "\n"


def emit_csv(series: TimeSeries) -> str:
    """Render a run as CSV: fixed column set, 6 significant digits, LF endings.

    The cells after ``t`` are joined into one row tail per run of rows in
    which none of them changes, and inside those runs each column is
    formatted once per run of equal values.  Values are told apart by bit
    pattern, not by ``==``, so -0.0 prints ``-0`` beside 0.0.
    """
    t, *rest = series.columns.values()
    values = np.stack(rest)
    bits = values.view(np.int64)
    starts = np.flatnonzero(np.append(True, (bits[:, 1:] != bits[:, :-1]).any(axis=0)))
    bits = bits[:, starts]
    new = np.ones(bits.shape, dtype=bool)  # a value differing from the tail before
    new[:, 1:] = bits[:, 1:] != bits[:, :-1]
    # One % over many values costs far less per value than one % each.
    distinct = values[:, starts][new].tolist()
    text = np.array(("%.6g\n" * len(distinct) % tuple(distinct)).split("\n"), dtype=object)
    cells = text[np.cumsum(new).reshape(new.shape) - 1]
    tails = map(repeat, map(",".join, cells.T.tolist()), np.diff(starts, append=len(t)).tolist())
    rows = tuple(chain.from_iterable(zip(t.tolist(), chain.from_iterable(tails))))
    return ",".join(COLUMNS) + "\n" + "%.6g,%s\n" * len(t) % rows


# ============================================================================
# Report rendering
# ============================================================================


# Columns whose change starts a new report segment.
_STEADY = ("p_pv", "p_inv", "p_load", "q_load", "q_comp", "p_comp_loss", "p_grid", "q_grid")


def _segment_blocks(series: TimeSeries) -> list[tuple[float, float, dict]]:
    """``(t first, t last, values)`` of each run of identical steady-state values."""
    cols = series.columns
    changed = np.zeros(len(series) - 1, dtype=bool)
    for name in _STEADY:
        changed |= cols[name][1:] != cols[name][:-1]
    starts = [0, *(np.flatnonzero(changed) + 1).tolist()]
    ends = [*starts[1:], len(series)]
    t = cols["t"].tolist()
    return [
        (t[i], t[j - 1], {name: col[i].item() for name, col in cols.items()})
        for i, j in zip(starts, ends)
    ]


def render_report(
    series: TimeSeries,
    comparison: ComparisonReport | None = None,
    *,
    scenario: Scenario | None = None,
) -> str:
    """Human-readable per-segment summary of a run.

    When the originating scenario is supplied, the compensator row is
    labeled by its mode; when a comparison is supplied, a verdict line
    names the run that kept grid reactive power smaller.
    """
    label = "compensator" if scenario is None else scenario.compensator.label
    lines = [f"scenario: {series.scenario_id}"]
    t, pfs = series.columns["t"], series.columns["pf_grid"]
    span = f"{t[0]:g} s .. {t[-1]:g} s"
    lines.append(f"records: {len(series)}   span: {span}")
    for idx, (t0, t1, r) in enumerate(_segment_blocks(series), start=1):
        lines.append(f"segment {idx}: t = {t0:g} s .. {t1:g} s")
        lines.append(
            f"  PV P: {format_si(r['p_pv'], 'W')}   "
            f"inverter P: {format_si(r['p_inv'], 'W')}   "
            f"inverter Q: {format_si(r['q_inv'], 'VAr')}"
        )
        lines.append(
            f"  load P: {format_si(r['p_load'], 'W')}   "
            f"load Q: {format_si(r['q_load'], 'VAr')}"
        )
        lines.append(
            f"  {label} Q: {format_si(r['q_comp'], 'VAr')}   "
            f"loss: {format_si(r['p_comp_loss'], 'W')}"
        )
        lines.append(
            f"  grid P: {format_si(r['p_grid'], 'W')}   "
            f"grid Q: {format_si(r['q_grid'], 'VAr')}   "
            f"pf: {r['pf_grid']:.4f}"
        )
    lines.append(f"pf_grid: min {pfs.min():.4f}, max {pfs.max():.4f}")
    if comparison is not None:
        if comparison.winner is None:
            lines.append("verdict: neither run keeps |q_grid| smaller at every step")
        else:
            lines.append(
                f"verdict: {comparison.winner} keeps |q_grid| smaller at every step "
                f"(max |q_grid|: {comparison.scenario_a} "
                f"{format_si(comparison.max_abs_q_grid_a, 'VAr')}, "
                f"{comparison.scenario_b} "
                f"{format_si(comparison.max_abs_q_grid_b, 'VAr')})"
            )
    return "\n".join(lines) + "\n"


# ============================================================================
# Bundled resources
# ============================================================================


def bundled_scenario_text(name: str) -> str:
    """Text of a bundled reference scenario, e.g. ``case1``."""
    from importlib import resources  # a slow import that no run needs: only this reads a file

    fname = name if name.endswith(".json") else f"{name}.json"
    return (resources.files("pvgrid") / "scenarios" / fname).read_text("utf-8")


def _object_schema(cls: type, mode: str | None = None) -> dict:
    """The schema of a document object whose keys are the numeric fields of ``cls``
    (and ``mode``, if given, as a constant): each key's JSON type, its bound's
    keywords and its default; a key without a default is required."""
    keys = numeric_fields(cls)
    props = {} if mode is None else {"mode": {"const": mode}}
    for key, (bound, integer, default) in keys.items():
        props[key] = {"type": "integer" if integer else "number", **bound.schema}
        if default is not MISSING:
            props[key]["default"] = default
    required = [key for key in props if key == "mode" or keys[key][2] is MISSING]
    return {
        "type": "object",
        "additionalProperties": False,
        **({"required": required} if required else {}),
        "properties": props,
    }


def schema_text() -> str:
    """Text of the scenario document's JSON schema (draft 2020-12), built from the
    keys, defaults and bounds of the record types the parser reads."""
    sections = {name: _object_schema(cls) for name, cls in _SECTIONS.items()}
    profiles = {}
    for key, cls in _PROFILES.items():
        entry = _object_schema(cls)
        entry["properties"]["t_start"]["minimum"] = 0  # the first is 0, the others rise
        profiles[key] = {"type": "array", "minItems": 1, "items": entry}
    schema = {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "title": "pvgrid scenario",
        "description": "Scenario configuration for the quasi-steady-state PV grid simulator. "
        "Optional keys have documented defaults; unknown keys are rejected.",
        "type": "object",
        "additionalProperties": False,
        "required": [*(name for name, node in sections.items() if "required" in node), "profiles"],
        "properties": {
            "id": {"type": "string", "minLength": 1},
            **sections,
            "compensator": {
                "oneOf": [_object_schema(cls, mode) for mode, cls in COMPENSATORS.items()]
            },
            "profiles": {
                "type": "object",
                "additionalProperties": False,
                "required": list(profiles),
                "properties": profiles,
            },
        },
    }
    return json.dumps(schema, indent=2) + "\n"
