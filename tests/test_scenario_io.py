"""Tests for pvgrid.scenario_io — parsing, emission, CSV, and reports."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import MISSING

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pvgrid
from pvgrid.compensation import COMPENSATORS, FixedCapacitor, NoCompensator, Statcom
from pvgrid.errors import FINITE, InvalidValue, ParseError, PVGridError, numeric_fields
from pvgrid.scenario_io import (
    _DOCUMENT_KEYS,
    _PROFILES,
    _SECTIONS,
    bundled_scenario_text,
    emit_csv,
    emit_scenario,
    format_si,
    parse_scenario,
    render_report,
    schema_text,
)
from pvgrid.pv_model import ENVELOPE, G_MAX, PVArraySpec
from pvgrid.simulator import COLUMNS, GridSpec, Scenario, TimeSeries, compare_runs, run

from conftest import REF_MODULE, make_scenario, random_scenario, scenario_documents

MINIMAL_DOC = {
    "grid": {"v_phase": 230.0, "f": 50.0, "v_dc": 700.0},
    "pv_module": {"p_mp": 213.15, "v_mp": 29.0, "i_mp": 7.35, "v_oc": 36.3, "i_sc": 7.84},
    "pv_array": {"n_series": 10, "n_parallel": 47},
    "profiles": {
        "irradiance": [{"t_start": 0.0, "g": 1000.0, "t_cell": 25.0}],
        "load": [{"t_start": 0.0, "p": 50000.0, "q": 100000.0}],
    },
}


def _doc(**overrides) -> str:
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc.update(overrides)
    return json.dumps(doc)


# ======================================================================
# Parsing
# ======================================================================


class TestParseScenario:
    """JSON document parsing and validation."""

    def test_minimal_document_defaults(self):
        """Omitted sections pick up the documented defaults."""
        s = parse_scenario(_doc())
        assert s.scenario_id == "scenario"
        assert s.inverter_efficiency == 0.997
        assert s.compensator == NoCompensator()
        assert s.t_end == 0.2 and s.dt == 0.01

    def test_malformed_json(self):
        """Invalid JSON is a ParseError."""
        with pytest.raises(ParseError):
            parse_scenario("{not json")

    def test_empty_text(self):
        """Empty input is a ParseError."""
        with pytest.raises(ParseError):
            parse_scenario("")

    def test_non_object_document(self):
        """A top-level array is a ParseError."""
        with pytest.raises(ParseError):
            parse_scenario("[1, 2, 3]")

    def test_missing_required_section(self):
        """Dropping the grid section is a ParseError naming it."""
        doc = json.loads(_doc())
        del doc["grid"]
        with pytest.raises(ParseError, match="grid"):
            parse_scenario(json.dumps(doc))

    def test_unknown_top_level_key(self):
        """Unknown keys are hard errors, named in the message."""
        with pytest.raises(ParseError, match="voltage_class"):
            parse_scenario(_doc(voltage_class="LV"))

    def test_unknown_nested_key(self):
        """Typos inside a section are caught too."""
        doc = json.loads(_doc())
        doc["grid"]["v_phse"] = 230.0
        with pytest.raises(ParseError, match="v_phse"):
            parse_scenario(json.dumps(doc))

    @pytest.mark.xfail(strict=True, reason="json.loads keeps the last of repeated keys; "
                       "rejecting them costs ~0.4-0.5 ms per fleet document (ROADMAP)")
    def test_repeated_key_rejected(self):
        """A key written twice in one object is a ParseError naming it, not a
        run on its last value (today this document simulates at 230 V)."""
        text = _doc().replace('"v_phase": 230.0', '"v_phase": 1.0, "v_phase": 230.0', 1)
        assert text.count('"v_phase"') == 2
        with pytest.raises(ParseError, match="v_phase"):
            parse_scenario(text)

    def test_wrong_type_rejected(self):
        """Strings where numbers belong are ParseErrors."""
        doc = json.loads(_doc())
        doc["grid"]["v_phase"] = "230"
        with pytest.raises(ParseError, match="v_phase"):
            parse_scenario(json.dumps(doc))

    def test_booleans_are_not_numbers(self):
        """JSON true must not silently coerce to 1.0."""
        doc = json.loads(_doc())
        doc["grid"]["v_phase"] = True
        with pytest.raises(ParseError):
            parse_scenario(json.dumps(doc))

    def test_unknown_compensator_mode(self):
        """An unrecognized mode is a ParseError."""
        with pytest.raises(ParseError, match="mode"):
            parse_scenario(_doc(compensator={"mode": "svc"}))

    def test_compensator_modes_parse(self):
        """All three modes produce the right config types."""
        none = parse_scenario(_doc(compensator={"mode": "none"}))
        cap = parse_scenario(
            _doc(compensator={"mode": "fixed_capacitor", "q_rated": 1e5, "v_rated": 230.0})
        )
        stat = parse_scenario(_doc(compensator={"mode": "statcom", "q_max": 2e5}))
        assert none.compensator == NoCompensator()
        assert cap.compensator == FixedCapacitor(q_rated=1e5, v_rated=230.0, loss_w=1300.0)
        assert stat.compensator == Statcom(q_max=2e5, loss_floor_w=800.0, loss_frac=0.0)

    def test_extra_key_on_none_mode(self):
        """mode none accepts no other keys."""
        with pytest.raises(ParseError, match="q_rated"):
            parse_scenario(_doc(compensator={"mode": "none", "q_rated": 1e5}))

    def test_domain_violations_become_validation_errors(self):
        """A scenario invariant reaches the caller as the InvalidValue that the
        scenario raised, a ValueError, not wrapped by the parser."""
        doc = json.loads(_doc())
        doc["profiles"]["irradiance"][0]["g"] = -5.0
        with pytest.raises(InvalidValue) as err:
            parse_scenario(json.dumps(doc))
        assert type(err.value) is InvalidValue and err.value.__cause__ is None

    @pytest.mark.parametrize(
        ("path", "value", "error", "message"),
        [
            pytest.param(("voltage_class",), "LV", ParseError,
                         "document: unknown keys voltage_class", id="unknown-key"),
            pytest.param(("grid", "v_phase"), "230", ParseError,
                         "grid: key 'v_phase' must be a number", id="string-v_phase"),
            pytest.param(("id",), "", ParseError,
                         "document: key 'id' must be a non-empty printable string", id="empty-id"),
            pytest.param(("compensator",), {"mode": "svc"}, ParseError,
                         "compensator: mode must be one of none, fixed_capacitor, statcom; "
                         "got 'svc'", id="unknown-mode"),
            pytest.param(("grid", "v_phase"), -1, InvalidValue,
                         "grid v_phase must be finite and positive, got -1.0", id="v_phase-negative"),
            pytest.param(("profiles", "irradiance", 0, "g"), 3000.0, InvalidValue,
                         "irradiance profile segment 0: g must be finite and in [0, 2000] W/m², "
                         "got 3000.0", id="g-3000"),
            pytest.param(("sim", "dt"), 0, InvalidValue,
                         "dt must be finite and positive, got 0.0", id="dt-zero"),
            pytest.param(("inverter", "efficiency"), 1.5, InvalidValue,
                         "inverter_efficiency must be finite and in (0, 1], got 1.5",
                         id="efficiency-1.5"),
            pytest.param(("pv_module", "v_mp"), 40.0, InvalidValue,
                         "require v_mp < v_oc, got 40.0, 36.3", id="v_mp-above-v_oc"),
            pytest.param(("compensator",), {"mode": "statcom", "q_max": -1.0}, InvalidValue,
                         "q_max must be finite and positive, got -1.0", id="q_max-negative"),
        ],
    )
    def test_rejection_class_and_message(self, path, value, error, message):
        """What the parser rejects by itself, the document's shape, is a
        ParseError and no ValueError; a value out of its domain is the
        InvalidValue, a ValueError, that its record or the scenario raised."""
        doc = json.loads(_doc())
        node = doc
        for step in path[:-1]:
            node = node.setdefault(step, {}) if isinstance(step, str) else node[step]
        node[path[-1]] = value
        with pytest.raises(PVGridError) as err:
            parse_scenario(json.dumps(doc))
        assert type(err.value) is error and str(err.value) == message
        assert isinstance(err.value, ValueError) is (error is InvalidValue)

    def test_fractional_integer_rejected(self):
        """Array counts must be JSON integers."""
        doc = json.loads(_doc())
        doc["pv_array"]["n_series"] = 10.5
        with pytest.raises(ParseError, match="n_series"):
            parse_scenario(json.dumps(doc))


# ======================================================================
# Bundled scenarios and schema
# ======================================================================


# Malformed values and entries of a profile list, with the error class and
# message each gets ("{where}" is the entry, "{key}" the key, "{segment}" the
# segment as the scenario names it, "{bound}" the words of the key's bound).
# The parser names an entry of the wrong shape or type in a ParseError; the
# scenario names the segment holding a value that is not finite in an
# InvalidValue.
MALFORMED_ENTRY = {
    "true": ("true", ParseError, "{where}: key '{key}' must be a number"),
    "string": ('"500"', ParseError, "{where}: key '{key}' must be a number"),
    "null": ("null", ParseError, "{where}: key '{key}' must be a number"),
    "nan": ("NaN", InvalidValue, "{segment}: {key} must be {bound}, got nan"),
    "1e400": ("1e400", InvalidValue, "{segment}: {key} must be {bound}, got inf"),
    "10**400": (str(10**400), InvalidValue,
                "{segment}: {key} must be {bound}, got " + str(10**400)),
    # An integer that float() rounds down to the largest double.
    "max+1": (str(int(sys.float_info.max) + 1), InvalidValue,
              "{segment}: {key} must be {bound}, got " + str(int(sys.float_info.max) + 1)),
    "missing-key": (None, ParseError, "{where}: missing required key '{key}'"),
    "unknown-key": (None, ParseError, "{where}: unknown keys bogus"),
    "non-object": (None, ParseError, "{where} must be an object"),
}


def _five_entry_doc() -> dict:
    doc = json.loads(_doc())
    doc["profiles"] = {
        "irradiance": [{"t_start": 0.01 * k, "g": 500.0 + k, "t_cell": 25.0} for k in range(5)],
        "load": [{"t_start": 0.01 * k, "p": 1e5, "q": 1.5e5 - k} for k in range(5)],
    }
    return doc


def _malformed(doc: dict, profile: str, key: str, pos: int, case: str) -> str:
    """``doc`` as text with entry ``pos`` of ``profile`` broken as ``case`` says."""
    literal, _, _ = MALFORMED_ENTRY[case]
    entry = doc["profiles"][profile][pos]
    if case == "missing-key":
        del entry[key]
    elif case == "unknown-key":
        entry["bogus"] = 1.0
    elif case == "non-object":
        doc["profiles"][profile][pos] = [0.0, 1.0, 2.0]
    else:
        entry[key] = "@@"
    return json.dumps(doc).replace('"@@"', literal or '"@@"')


_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**1000), 2**1000)
)
_JUNK = [True, False, None, "1.0", math.nan, math.inf, -math.inf, 10**400, [1.0], {}]


@st.composite
def _profile_list(draw, values: dict) -> tuple[list, type | None]:
    """A valid profile list with ``values[key]`` drawing each key's values,
    and the class of the error the parser raises for it: None if no entry
    was broken, InvalidValue if one value was made not finite, else ParseError."""
    entries, t = [], 0
    for _ in range(draw(st.integers(1, 5))):
        entries.append({"t_start": t, **{key: draw(v) for key, v in values.items()}})
        t += draw(st.one_of(st.integers(1, 1000), st.floats(1e-3, 1e3)))
    error = None
    if draw(st.booleans()):
        error = ParseError
        pos = draw(st.integers(0, len(entries) - 1))
        key = draw(st.sampled_from(["t_start", *values]))
        how = draw(st.sampled_from(["value", "missing", "unknown", "entry"]))
        if how == "value":
            entries[pos][key] = junk = draw(st.sampled_from(_JUNK))
            if type(junk) in (int, float):
                error = InvalidValue
        elif how == "missing":
            del entries[pos][key]
        elif how == "unknown":
            entries[pos]["bogus"] = 1.0
        else:
            entries[pos] = draw(st.sampled_from(_JUNK))
    return entries, error


class TestProfileLists:
    """Profile lists are read as columns: the parser checks the shape and
    types of the entries, and the scenario judges the values."""

    @pytest.mark.parametrize("case", list(MALFORMED_ENTRY))
    @pytest.mark.parametrize("pos", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("profile,key", [("irradiance", "g"), ("load", "q")])
    def test_malformed_entry_is_named(self, profile, key, pos, case):
        """The error names the broken entry by its place in the list: as the
        document's entry for a wrong shape or type, as the profile's segment
        for a value that is not finite."""
        text = _malformed(_five_entry_doc(), profile, key, pos, case)
        with pytest.raises(PVGridError) as err:
            parse_scenario(text)
        _, error, message = MALFORMED_ENTRY[case]
        assert type(err.value) is error
        want = message.format(
            where=f"profiles.{profile}[{pos}]", key=key, segment=f"{profile} profile segment {pos}",
            bound=ENVELOPE.get(key, FINITE).text,
        )
        assert str(err.value) == want

    def test_first_broken_entry_wins(self):
        """With two entries of the wrong type the earlier one is named, and an
        entry of the wrong type is named before an earlier value that is not finite."""
        doc = _five_entry_doc()
        doc["profiles"]["load"][3]["p"] = None
        text = _malformed(doc, "load", "q", 1, "string")
        with pytest.raises(ParseError, match=r"^profiles\.load\[1\]: key 'q' must be a"):
            parse_scenario(text)
        text = _malformed(doc, "load", "q", 1, "nan")
        with pytest.raises(ParseError, match=r"^profiles\.load\[3\]: key 'p' must be a"):
            parse_scenario(text)

    def test_int_values_read_as_their_float_twin(self):
        """A fleet-like day at 60 s (1,440 irradiance and 96 load segments) written
        with int values gives the same scenario arrays and CSV bytes as its twin
        written with floats."""
        irradiance = [{"t_start": 60 * k, "g": max(0, 1000 - abs(720 - k) * 2),
                       "t_cell": 20 + k % 30} for k in range(1440)]
        load = [{"t_start": 900 * k, "p": 40_000 + 417 * k, "q": 30_000 - 611 * k}
                for k in range(96)]
        ints = json.loads(_doc(id="day", sim={"t_end": 86_400, "dt": 60}))
        ints["profiles"] = {"irradiance": irradiance, "load": load}
        floats = json.loads(json.dumps(ints))
        for entries in floats["profiles"].values():
            for entry in entries:
                entry.update((key, float(value)) for key, value in entry.items())
        assert '"g": 1000,' in json.dumps(ints) and '"g": 1000.0,' in json.dumps(floats)
        a, b = parse_scenario(json.dumps(ints)), parse_scenario(json.dumps(floats))
        for key in _PROFILES:
            assert getattr(a, key).tolist() == getattr(b, key).tolist()
        assert a == b
        assert emit_csv(run(a)) == emit_csv(run(b))

    @pytest.mark.parametrize("value,shown", [
        (10**20, str(10**20)), (10**400, str(10**400)),
        (int(sys.float_info.max) + 1, str(int(sys.float_info.max) + 1)),
        (2**62, "4.611686018427388e+18"),
    ])
    def test_large_int_is_judged_as_given(self, value, shown):
        """An int past the range of int64 is printed as written, as are the
        ones past the float range; a smaller int is read as a float."""
        entries = [{"t_start": 0.0, "g": value, "t_cell": 25.0}]
        with pytest.raises(InvalidValue) as err:
            parse_scenario(_doc(profiles={"irradiance": entries, "load": MINIMAL_DOC[
                "profiles"]["load"]}))
        assert str(err.value) == (
            f"irradiance profile segment 0: g must be {ENVELOPE['g'].text}, got {shown}"
        )

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        irradiance=_profile_list({"g": st.one_of(st.floats(0.0, 1500.0), st.integers(0, 1500)),
                                  "t_cell": st.one_of(st.floats(-40.0, 90.0),
                                                      st.integers(-40, 90))}),
        load=_profile_list({"p": _NUMBER, "q": _NUMBER}),
    )
    def test_columns_equal_entry_by_entry_construction(self, irradiance, load):
        """Property: a valid list parses to the records built entry by entry,
        bit for bit; a list with a broken entry raises a ParseError if an entry
        has the wrong shape or type (the parser checks both lists for that
        first), else an InvalidValue for its value that is not finite."""
        doc = json.loads(_doc())
        doc["profiles"] = {"irradiance": irradiance[0], "load": load[0]}
        text = json.dumps(doc)
        errors = {irradiance[1], load[1]} - {None}
        if errors:
            with pytest.raises(PVGridError) as err:
                parse_scenario(text)
            assert type(err.value) is (ParseError if ParseError in errors else InvalidValue)
            return
        scenario = parse_scenario(text)
        for key, entries in (("irradiance", irradiance[0]), ("load", load[0])):
            want = [[float(entry[k]) for entry in entries] for k in _PROFILES[key]._fields]
            bits = lambda columns: [list(map(float.hex, column)) for column in columns]
            assert bits(getattr(scenario, key).tolist()) == bits(want)


class TestBundledScenarios:
    """The three reference scenarios shipped inside the package."""

    def test_case1_contents(self):
        """case1: uncompensated, 50 kW / 100 kVAr load, irradiance step at 0.1 s."""
        s = parse_scenario(bundled_scenario_text("case1"))
        assert s.scenario_id == "case1"
        assert s.compensator == NoCompensator()
        assert s.load.T.tolist() == [[0.0, 50_000.0, 100_000.0]]
        assert s.irradiance[:2].tolist() == [[0.0, 0.1], [1000.0, 500.0]]  # t_start, g

    def test_case2_contents(self):
        """case2: 100 kVAr fixed bank against a 100 kW / 100 kVAr load."""
        s = parse_scenario(bundled_scenario_text("case2"))
        assert isinstance(s.compensator, FixedCapacitor)
        assert s.compensator.q_rated == 100_000.0
        assert s.load[2].tolist() == [100_000.0]

    def test_case3_contents(self):
        """case3: STATCOM against a 100 kW / 150 kVAr load."""
        s = parse_scenario(bundled_scenario_text("case3"))
        assert isinstance(s.compensator, Statcom)
        assert s.load[2].tolist() == [150_000.0]

    def test_bundled_files_satisfy_schema(self):
        """Every bundled scenario validates against the shipped JSON schema."""
        schema = json.loads(schema_text())
        jsonschema.Draft202012Validator.check_schema(schema)
        for name in ("case1", "case2", "case3"):
            doc = json.loads(bundled_scenario_text(name))
            jsonschema.validate(doc, schema)

    def test_schema_rejects_unknown_keys(self):
        """The schema itself encodes the closed-world key policy."""
        schema = json.loads(schema_text())
        doc = json.loads(bundled_scenario_text("case1"))
        doc["surprise"] = 1
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)

    def test_run_imports_load_no_importlib_resources(self):
        """Without ``site``, importing the modules a run needs leaves
        ``importlib.resources`` (a slow import) unloaded; only reading a
        bundled case loads it, and the case then reads as in-process."""
        code = (
            "import sys; sys.path[:0] = sys.argv[1:]\n"
            "import pvgrid.cli, pvgrid.scenario_io, pvgrid.simulator\n"
            "assert 'importlib.resources' not in sys.modules, 'importlib.resources is loaded'\n"
            "sys.stdout.write(pvgrid.scenario_io.bundled_scenario_text('case1'))\n"
        )
        paths = [os.path.dirname(os.path.dirname(module.__file__)) for module in (pvgrid, np)]
        out = subprocess.run(
            [sys.executable, "-S", "-c", code, *paths], capture_output=True, text=True,
            encoding="utf-8", check=False,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == bundled_scenario_text("case1")

    def test_unknown_bundle_name(self):
        """Asking for a scenario that does not exist raises OSError."""
        with pytest.raises(OSError):
            bundled_scenario_text("case99")


@settings(derandomize=True, max_examples=400, deadline=None)
@given(doc=scenario_documents())
@example(doc=MINIMAL_DOC)
def test_parser_accepts_only_what_the_schema_accepts(doc):
    """Property: a generated document (see ``conftest.scenario_documents``)
    that the parser accepts, the shipped schema accepts; one the schema
    rejects, the parser rejects with ParseError or InvalidValue.

    The converse does not hold: the schema cannot express v_mp < v_oc,
    p_mp = v_mp*i_mp within 0.5%, sorted profiles starting at t = 0, the
    record cap or the float range, so it accepts documents the parser
    rejects."""
    text = json.dumps(doc)
    schema_accepts = _VALIDATOR.is_valid(json.loads(text))
    try:
        parse_scenario(text)
    except (ParseError, InvalidValue):
        return
    assert schema_accepts, text


_VALIDATOR = jsonschema.Draft202012Validator(json.loads(schema_text()))


# ======================================================================
# Schema drift: the published schema against the parser's key table
# ======================================================================


def _assert_node_matches(node: dict, cls: type, where: str, extra: tuple = ()) -> None:
    """A schema object node has exactly the parser's keys, required list and defaults."""
    keys = numeric_fields(cls)
    props = {k: v for k, v in node["properties"].items() if k not in extra}
    assert set(props) == set(keys), f"{where}: keys differ"
    required = [k for k, (*_, default) in keys.items() if default is MISSING]
    assert node.get("required", []) == [*extra, *required], f"{where}: required differs"
    defaults = {k: d for k, (*_, d) in keys.items() if d is not MISSING}
    assert {k: v["default"] for k, v in props.items() if "default" in v} == defaults, (
        f"{where}: defaults differ"
    )
    for key, (_, integer, _) in keys.items():
        assert props[key]["type"] == ("integer" if integer else "number"), f"{where}.{key}"
    assert node["additionalProperties"] is False, where


class TestSchemaDrift:
    """The hand-written schema stays equal to what the parser accepts."""

    def test_document_sections(self):
        """Top-level keys and required sections match the parser's table."""
        schema = json.loads(schema_text())
        assert set(schema["properties"]) == _DOCUMENT_KEYS
        required = [
            name for name, cls in _SECTIONS.items()
            if any(default is MISSING for *_, default in numeric_fields(cls).values())
        ]
        assert schema["required"] == [*required, "profiles"]
        for name, cls in _SECTIONS.items():
            _assert_node_matches(schema["properties"][name], cls, name)

    def test_profiles(self):
        """Each profile list's entries match their record type."""
        node = json.loads(schema_text())["properties"]["profiles"]
        assert node["required"] == list(_PROFILES)
        assert set(node["properties"]) == set(_PROFILES)
        for key, cls in _PROFILES.items():
            _assert_node_matches(node["properties"][key]["items"], cls, key)

    def test_envelope(self):
        """The bounds of g and t_cell in an irradiance entry are the model's
        envelope: each edge is inside it and the next double past it is not."""
        node = json.loads(schema_text())["properties"]["profiles"]["properties"]["irradiance"]
        props = node["items"]["properties"]
        assert props["g"]["maximum"] == G_MAX
        for key in ("g", "t_cell"):
            lo, hi = props[key]["minimum"], props[key]["maximum"]
            holds = ENVELOPE[key].holds
            assert holds(lo) and holds(hi), key
            assert not holds(math.nextafter(lo, -math.inf)), key
            assert not holds(math.nextafter(hi, math.inf)), key

    def test_bound_keywords_agree_with_their_tests(self):
        """Every bound in the key table says with its schema keywords what its
        test holds: an inclusive edge holds and the next double past it does not,
        an exclusive edge does not hold and the next double inside it does, and a
        bound without keywords holds at both ends of the float range."""
        outward = {"minimum": -math.inf, "exclusiveMinimum": -math.inf,
                   "maximum": math.inf, "exclusiveMaximum": math.inf}
        seen = set()
        for cls in (*_SECTIONS.values(), *_PROFILES.values(), *COMPENSATORS.values()):
            for key, (bound, *_) in numeric_fields(cls).items():
                where = f"{cls.__name__}.{key}"
                if not bound.schema:
                    assert bound.holds(sys.float_info.max), where
                    assert bound.holds(-sys.float_info.max), where
                for word, edge in bound.schema.items():
                    seen.add(word)
                    past = math.nextafter(edge, outward[word])
                    inside = math.nextafter(edge, -outward[word])
                    if word.startswith("exclusive"):
                        assert not bound.holds(edge) and bound.holds(inside), (where, word)
                    else:
                        assert bound.holds(edge) and not bound.holds(past), (where, word)
        assert seen == set(outward)

    def test_compensator_modes(self):
        """One oneOf branch per registered mode, with that class's fields."""
        branches = json.loads(schema_text())["properties"]["compensator"]["oneOf"]
        modes = [b["properties"]["mode"]["const"] for b in branches]
        assert modes == list(COMPENSATORS)
        for mode, branch in zip(modes, branches):
            _assert_node_matches(branch, COMPENSATORS[mode], mode, ("mode",))


# ======================================================================
# Emission round trip
# ======================================================================


# Ids: printable text in about half the draws, else any text, an int or None.
_PRINTABLE_IDS = st.text(st.characters(exclude_categories=["C", "Z"]) | st.just(" "), min_size=1)
_DRAWN_IDS = st.integers(0, 3).flatmap(
    lambda k: _PRINTABLE_IDS if k < 2 else st.text() if k == 2 else st.integers() | st.none())
_DRAWN_COMPENSATORS = st.one_of(
    st.just(NoCompensator()),
    st.builds(FixedCapacitor, q_rated=st.floats(1.0, 1e9), v_rated=st.floats(1.0, 1e4),
              loss_w=st.floats(0.0, 1e4)),
    st.builds(Statcom, q_max=st.floats(1.0, 1e9), loss_floor_w=st.floats(0.0, 1e4),
              loss_frac=st.floats(0.0, 0.05)),
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _drawn_profile(draw, *values):
    """Profile columns of 1 to 50 segments: starts from 0 (a start may repeat),
    then one column per strategy of ``values``; one entry of them may then be
    replaced by a value that may be out of its bound or no number."""
    n = draw(st.integers(1, 50))
    starts = [0.0, *sorted(draw(st.lists(st.floats(0.0, 1e6), min_size=n - 1, max_size=n - 1)))]
    columns = [starts, *(draw(st.lists(value, min_size=n, max_size=n)) for value in values)]
    bad = draw(st.none() | st.sampled_from([math.nan, -math.inf, -1.0, 3000.0, True, "1", None]))
    if bad is not None:
        columns[draw(st.integers(0, len(values)))][draw(st.integers(0, n - 1))] = bad
    return columns


class TestEmitScenario:
    """Canonical serialization."""

    def test_round_trip_bundled(self):
        """parse(emit(parse(text))) is field-for-field identical."""
        for name in ("case1", "case2", "case3"):
            s = parse_scenario(bundled_scenario_text(name))
            again = parse_scenario(emit_scenario(s))
            assert again == s, f"{name} round trip altered the scenario"

    def test_round_trip_random(self):
        """Property: random scenarios survive the round trip exactly."""
        rng = np.random.default_rng(41)
        for i in range(50):
            s = random_scenario(rng, i)
            assert parse_scenario(emit_scenario(s)) == s

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(scenario_id=_DRAWN_IDS, compensator=_DRAWN_COMPENSATORS,
           irradiance=_drawn_profile(st.floats(0.0, G_MAX), st.floats(-40.0, 90.0)),
           load=_drawn_profile(_FINITE, _FINITE),
           efficiency=st.floats(0.5, 1.0), t_end=st.floats(0.0, 10.0), dt=st.floats(1e-3, 10.0))
    @example(scenario_id=5, compensator=NoCompensator(), irradiance=[[0.0], [1e3], [25.0]],
             load=[[0.0], [1e5], [0.0]], efficiency=0.997, t_end=0.2, dt=0.01)
    def test_round_trip_of_drawn_scenarios(self, scenario_id, compensator, irradiance, load,
                                           efficiency, t_end, dt):
        """Property: a Scenario built from drawn fields (an id that may be no string,
        or not a printable one; each compensator mode; profiles of 1 to 50
        segments, perhaps with one value out of its bound) either is rejected by an
        InvalidValue naming the field, or comes back equal from emit_scenario and
        parse_scenario, as emit_scenario promises."""
        try:
            s = Scenario(grid=GridSpec(230.0, 50.0, 700.0), array=PVArraySpec(REF_MODULE, 10, 47),
                         compensator=compensator, irradiance=irradiance, load=load,
                         inverter_efficiency=efficiency, t_end=t_end, dt=dt,
                         scenario_id=scenario_id)
        except InvalidValue as exc:
            assert str(exc).startswith(
                ("scenario_id must be ", "irradiance profile segment ", "load profile segment ")
            ), exc
            return
        assert parse_scenario(emit_scenario(s)) == s

    def test_round_trip_numpy_counts(self):
        """A count held as a numpy integer is written as a JSON integer and reads
        back equal."""
        s = make_scenario(n_series=np.int64(10), n_parallel=np.int32(47))
        assert parse_scenario(emit_scenario(s)) == s
        assert json.loads(emit_scenario(s))["pv_array"] == {"n_series": 10, "n_parallel": 47}

    def test_emit_materializes_defaults(self):
        """A minimal document emits with every optional section present."""
        s = parse_scenario(_doc())
        doc = json.loads(emit_scenario(s))
        assert doc["inverter"] == {"efficiency": 0.997}
        assert doc["compensator"] == {"mode": "none"}
        assert doc["sim"] == {"t_end": 0.2, "dt": 0.01}
        assert doc["pv_module"]["n_cells"] == 60

    def test_emit_ends_with_newline(self):
        """Emitted JSON is newline-terminated."""
        assert emit_scenario(make_scenario()).endswith("}\n")


# ======================================================================
# CSV emission
# ======================================================================


class TestEmitCsv:
    """Fixed-column CSV rendering of a run."""

    def test_header_and_row_count(self):
        """Header plus one row per record, trailing newline."""
        series = run(make_scenario(t_end=0.03))
        text = emit_csv(series)
        lines = text.split("\n")
        assert lines[0] == (
            "t,p_pv,p_inv,q_inv,p_load,q_load,q_comp,p_comp_loss,"
            "p_grid,q_grid,pf_grid,v_dc"
        )
        assert len(lines) == 2 + len(series.records) and lines[-1] == ""

    def test_lf_endings(self):
        """No carriage returns anywhere."""
        assert "\r" not in emit_csv(run(make_scenario()))

    def test_six_significant_digits(self):
        """Values render with %.6g: 100345 stays integral, pf gets 6 digits."""
        series = run(make_scenario(load=((0.0, 100_345.0, 0.0),), t_end=0.0))
        row = emit_csv(series).split("\n")[1].split(",")
        assert row[4] == "100345"
        assert row[11] == "700"

    def test_profile_step_visible_in_rows(self):
        """Rows at and after a boundary show the new segment."""
        series = run(
            make_scenario(
                irradiance=((0.0, 1000.0, 25.0), (0.02, 500.0, 25.0)), t_end=0.04
            )
        )
        rows = [line.split(",") for line in emit_csv(series).strip().split("\n")[1:]]
        p_pv = [float(r[1]) for r in rows]
        assert p_pv[0] == p_pv[1] > p_pv[2] == p_pv[3] == p_pv[4]

    def test_deterministic_bytes(self):
        """Two runs of the same scenario render byte-identical CSV."""
        a = emit_csv(run(make_scenario()))
        b = emit_csv(run(make_scenario()))
        assert a == b

    def test_signed_zero_prints_apart(self):
        """Cells are formatted per bit pattern: q = -0.0 prints -0, 0.0 prints 0."""
        doc = json.loads(bundled_scenario_text("case3"))
        doc["profiles"]["load"] = [
            {"t_start": 0.0, "p": 100000.0, "q": -0.0},
            {"t_start": 0.1, "p": 100000.0, "q": 0.0},
        ]
        series = run(parse_scenario(json.dumps(doc)))
        column = COLUMNS.index("q_load")
        cells = [line.split(",")[column] for line in emit_csv(series).split("\n")[1:-1]]
        t = series.columns["t"]
        assert cells == ["-0" if t_k < 0.1 else "0" for t_k in t]
        assert "-0" in cells and "0" in cells


def _naive_csv(rows: list[tuple[float, ...]]) -> str:
    """The CSV written one ``%.6g`` per cell, row by row: the oracle of emit_csv."""
    line = ",".join(["%.6g"] * len(COLUMNS)) + "\n"
    return ",".join(COLUMNS) + "\n" + "".join(line % row for row in rows)


def _series_of(rows: list[tuple[float, ...]]) -> TimeSeries:
    return TimeSeries("s", columns=dict(zip(COLUMNS, map(np.array, zip(*rows)))))


def _row(t: float, value: float, pf: float = 1.0) -> tuple[float, ...]:
    """A row with every column after ``t`` equal to ``value``, except pf_grid."""
    return (t, *[value] * 9, pf, value)


# Row tails: the cells after t.  A pool of a few values makes equal tails
# and equal column values recur, next to each other and apart.
_TAIL_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5e-7, 100345.0, 1234567.0, 0.1 + 0.2]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_TAIL = st.tuples(*[_TAIL_VALUE] * 9, st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0),
                  _TAIL_VALUE)


@st.composite
def _csv_rows(draw) -> list[tuple[float, ...]]:
    """Rows of runs of equal tails, each run 1-60 rows long, at increasing t."""
    pool = draw(st.lists(_TAIL, min_size=1, max_size=4))
    runs = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 60)),
                         min_size=1, max_size=10))
    tails = [tail for tail, count in runs for _ in range(count)]
    t = np.arange(len(tails)) * draw(st.floats(1e-3, 1e5))
    return [(t_k, *tail) for t_k, tail in zip(t.tolist(), tails)]


class TestEmitCsvOracle:
    """emit_csv equals formatting every cell of every row on its own."""

    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param([_row(0.0, 100345.0)], id="single-row"),
            pytest.param([_row(float(k), 0.25) for k in range(5000)], id="long-run"),
            pytest.param([_row(k * 0.5, k + 0.125, k / 700.0) for k in range(700)],
                         id="all-distinct"),
            pytest.param([_row(float(k), (-0.0, 0.0)[k % 3 == 0], (-0.0, 0.0)[k % 2])
                          for k in range(30)], id="signed-zeros"),
            pytest.param([_row(float(k), (1.5, 2.5, 1.5, 3.5)[k // 4 % 4]) for k in range(64)],
                         id="repeats-apart"),
            pytest.param([(float(k), *[float(k % 2)] * 8, 7.0 + (k // 3 == 1), 1.0, 7.0)
                          for k in range(12)], id="column-repeats-apart-inside-tails"),
        ],
    )
    def test_cases(self, rows):
        """Named shapes of rows, each written as the oracle writes it."""
        assert emit_csv(_series_of(rows)) == _naive_csv(rows)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(rows=_csv_rows())
    def test_property(self, rows):
        """Property: over generated runs of tails, the same bytes as the oracle."""
        assert emit_csv(_series_of(rows)) == _naive_csv(rows)


# sha256 of emit_csv and render_report(..., scenario=...) of each bundled
# case, recorded before the simulator and writer became columnar.
PINNED = {
    "case1": ("11487c09a1a49fa6005ab1d0e2e367481dc4e599f046f4a9b1e74057aa574822",
              "7d3323b71251ea5f0d48e24cb6f443481ba0e645863800161b1bbf05c46b6ddd"),
    "case2": ("7548ed5961026b472e95bef589a7148b646ae09159f01847181b9649e7c6caef",
              "2b9535eb2c32827a914d880620b7fe3df9168916c97b07e4cea3a646b51ca5d4"),
    "case3": ("eebc36257206e0ab7dbe039518b2fe4742a79e353761dfa6d8cb5395c11be8cf",
              "54121148b4ca0456f05f43649b20acc0870da61afe25179b93285a0d57265183"),
}

# sha256 of emit_scenario of each bundled case, recorded while the scenario
# still had per-segment views.
EMITTED = {
    "case1": "225313dad59798d885bddfe1bda5716c89b16617bbe5fc50cac35744bde9e106",
    "case2": "641ee13caacce172e3c0aba4da6f146074620797ee78c17e08372fbab628e6bd",
    "case3": "7778fdc2aeca746052d053b73789021256a6b2002b053ee9e51219e510604c7b",
}


class TestPinnedOutputs:
    """Byte-exact artifacts of the bundled reference cases."""

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_bundled_outputs_are_pinned(self, case):
        """The CSV and the report of every bundled case keep their exact bytes."""
        scenario = parse_scenario(bundled_scenario_text(case))
        series = run(scenario)
        digest = lambda text: hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest(emit_csv(series)) == PINNED[case][0]
        assert digest(render_report(series, scenario=scenario)) == PINNED[case][1]

    @pytest.mark.parametrize("case", sorted(EMITTED))
    def test_emitted_scenarios_are_pinned(self, case):
        """emit_scenario of every bundled case keeps its exact bytes."""
        text = emit_scenario(parse_scenario(bundled_scenario_text(case)))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == EMITTED[case]


# ======================================================================
# Report rendering
# ======================================================================


class TestRenderReport:
    """Human-readable per-segment summary."""

    def test_single_segment_layout(self):
        """A flat run renders one segment block with the id and span."""
        series = run(make_scenario(scenario_id="flat", t_end=0.05))
        text = render_report(series)
        assert text.startswith("scenario: flat\n")
        assert "records: 6   span: 0 s .. 0.05 s" in text
        assert text.count("segment ") == 1

    def test_segment_split_on_profile_step(self):
        """A stepped profile produces one block per steady interval."""
        series = run(
            make_scenario(irradiance=((0.0, 1000.0, 25.0), (0.03, 500.0, 25.0)))
        )
        text = render_report(series)
        assert text.count("segment ") == 2
        assert "segment 2: t = 0.03 s" in text

    def test_compensator_label_follows_mode(self):
        """The Q row is labeled by the compensator type when known."""
        s_stat = make_scenario(
            compensator=Statcom(q_max=200_000.0), scenario_id="stat"
        )
        s_cap = make_scenario(
            compensator=FixedCapacitor(q_rated=1e5, v_rated=230.0), scenario_id="cap"
        )
        assert "STATCOM Q:" in render_report(run(s_stat), scenario=s_stat)
        assert "capacitor bank Q:" in render_report(run(s_cap), scenario=s_cap)
        assert "compensator Q:" in render_report(run(s_cap))

    def test_statcom_matches_demand_in_text(self):
        """A 150 kVAr load fully tracked shows as 150 kVAr dispatched."""
        s = make_scenario(
            load=((0.0, 100_000.0, 150_000.0),),
            compensator=Statcom(q_max=200_000.0),
            scenario_id="tracked",
        )
        text = render_report(run(s), scenario=s)
        assert "STATCOM Q: 150 kVAr" in text
        assert "grid Q: 0 VAr" in text

    def test_verdict_names_winner(self):
        """The comparison verdict names the dominating run and both maxima."""
        load = ((0.0, 100_000.0, 150_000.0),)
        plain = run(make_scenario(load=load, scenario_id="plain"))
        stat = run(
            make_scenario(
                load=load, compensator=Statcom(q_max=200_000.0), scenario_id="stat"
            )
        )
        report = compare_runs(plain, stat)
        text = render_report(stat, report)
        assert "verdict: stat keeps |q_grid| smaller at every step" in text
        assert "plain 150 kVAr" in text
        assert "stat 0 VAr" in text

    def test_no_winner_verdict(self):
        """A tie renders the neither-run verdict."""
        series = run(make_scenario(scenario_id="base"))
        report = compare_runs(series, series)
        text = render_report(series, report)
        assert "verdict: neither run keeps |q_grid| smaller" in text


# ======================================================================
# SI formatting
# ======================================================================


class TestFormatSi:
    """Engineering-prefix formatting."""

    def test_spot_values(self):
        """Representative magnitudes across the prefix table."""
        assert format_si(0.0, "W") == "0 W"
        assert format_si(100_345.0, "W") == "100.34 kW"  # %.5g rounds half-even
        assert format_si(1.4025e-3, "H") == "1.4025 mH"
        assert format_si(3.427e-3, "F") == "3.427 mF"
        assert format_si(12.88e-6, "H") == "12.88 µH"
        assert format_si(2.5e9, "W") == "2.5 GW"
        assert format_si(-150_000.0, "VAr") == "-150 kVAr"

    def test_prefix_follows_the_printed_value(self):
        """The prefix is chosen from the value rounded to the 5 digits printed,
        so a value that rounds up to the next prefix prints 1 of it."""
        assert format_si(999.9996, "W") == "1 kW"
        assert format_si(-999.9996, "W") == "-1 kW"
        assert format_si(0.99999996e-3, "H") == "1 mH"
        assert format_si(0.99999996e-6, "F") == "1 µF"
        assert format_si(999.94, "W") == "999.94 W"

    def test_tiny_values_use_smallest_prefix(self):
        """Below nano, values are still expressed in nano."""
        assert format_si(5e-10, "F") == "0.5 nF"
