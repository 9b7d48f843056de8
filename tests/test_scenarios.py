"""Scenario plumbing: the artifact writer and schema validation.

Artifacts must equal json.dumps(sort_keys=True, indent=2) byte for byte, and
validation must raise the error jsonschema itself would raise.
"""

import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ccgclocks import scenarios
from ccgclocks.scenarios import (
    SCENARIO_SCHEMA,
    _PARAMETER_SCHEMAS,
    _json_bytes,
    run_scenario,
    validate_scenario,
)


def reference_bytes(value) -> bytes:
    return (json.dumps(value, sort_keys=True, indent=2) + "\n").encode()


# -- writer ----------------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-10**60, max_value=10**60),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.text(),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=6),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_values)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[]], "d": [{}]})
@example({"x": [-0.0, math.nan, math.inf, -math.inf, 10**30, True, None]})
@example([np.float64(-0.0), np.float64(1e-300), "é☃\U0001d11e"])
@example((1, (2.5, [3]), {"k": ()}))
def test_writer_matches_indented_dumps(value):
    assert _json_bytes(value) == reference_bytes(value)


@pytest.mark.parametrize("keys", [[3, -1, 10**20], [2.5, -0.0, math.inf], [True, False], [None]])
def test_writer_non_string_keys_match_dumps(keys):
    value = {k: [k] for k in keys}
    assert _json_bytes(value) == reference_bytes(value)


def _clock(x, y=0.0):
    return {"quoted_frequency": 1e15, "position": [x, y, 0.0]}


_CLOCKS = {"clocks": [_clock(0.0), _clock(3e-7), _clock(1e-7, 4e-7)]}

# every scenario kind, and every runner branch that writes JSON
EVERY_KIND = [
    {"kind": "rates", "convention": "both",
     "parameters": {"geometry": _CLOCKS, "mode": "pairwise", "case": "A-free"}},
    {"kind": "rates", "output": {"format": "json"},
     "parameters": {"geometry": {"lattice": {"dimension": 2, "lattice_constant": 1e-6,
                                             "counts": [3, 2],
                                             "quoted_frequency": 1e15}},
                    "mode": "global", "case": "B-fixed"}},
    {"kind": "rates",
     "parameters": {"geometry": _CLOCKS, "mode": "pairwise", "case": "given-rates",
                    "gamma": {"pairwise": [[0, 1e-40, 2e-40], [3e-40, 0, 1e-40],
                                           [1e-40, 5e-40, 0]]}}},
    {"kind": "optimize", "parameters": {"geometry": _CLOCKS, "mode": "global"}},
    {"kind": "scaling-sweep",
     "parameters": {"dimension": 2, "mode": "pairwise", "case": "B-fixed",
                    "sides": [3, 5, 15, 31]}},
    {"kind": "simulate",
     "parameters": {"kind": "ccg-global", "initial_state": ["plus", [[0.6, 0], [0, 0.8]]],
                    "times": {"stop": 2.0, "num": 9}, "export_density_matrix": True}},
    {"kind": "simulate",
     "parameters": {"kind": "unitary", "initial_state": ["plus", "plus-i"],
                    "times": {"stop": 1.0, "num": 5}}},
    {"kind": "redshift",
     "parameters": {"body": {"kind": "shell", "inner_radius": 0.01, "outer_radius": 1.0},
                    "quoted_frequency": 1e15, "gamma_clock": 0.0}},
    {"kind": "redshift",
     "parameters": {"body": {"kind": "simple", "mass": 5.97e24, "distance": 6.371e6,
                             "gamma_position": 15.0},
                    "quoted_frequency": 1e15, "gamma_clock": 0.3}},
    {"kind": "redshift",
     "parameters": {"body": {"kind": "crystal", "atom_mass": 1.81e-25,
                             "lattice_constant": 1e-10,
                             "positions": [[1.0, 0, 0], [1.0, 1e-10, 0]],
                             "clock_position": [0, 0, 0]},
                    "quoted_frequency": 1e15, "gamma_clock": 0.0}},
    {"kind": "paper-report"},
]


def test_every_kind_is_covered():
    assert {c["kind"] for c in EVERY_KIND} == set(_PARAMETER_SCHEMAS)


@pytest.mark.parametrize("config", EVERY_KIND,
                         ids=lambda c: c["kind"] + "-" + json.dumps(c)[-12:])
def test_scenario_artifacts_match_indented_dumps(config, tmp_path, monkeypatch):
    written = []
    original = scenarios._json_bytes

    def recording(payload):
        data = original(payload)
        written.append((payload, data))
        return data

    monkeypatch.setattr(scenarios, "_json_bytes", recording)
    run_scenario(config, tmp_path)
    assert written
    for payload, data in written:
        assert data == reference_bytes(payload)


# -- validation ------------------------------------------------------------------

@pytest.mark.parametrize("schema", [SCENARIO_SCHEMA, *_PARAMETER_SCHEMAS.values()])
def test_schemas_are_valid_draft_2020_12(schema):
    # validation no longer checks the schemas on each call
    jsonschema.Draft202012Validator.check_schema(schema)


def assert_same_parameter_error(config):
    validator = jsonschema.Draft202012Validator(_PARAMETER_SCHEMAS[config["kind"]])
    reference = sorted(validator.iter_errors(config["parameters"]), key=str)[0]
    with pytest.raises(jsonschema.ValidationError) as info:
        validate_scenario(config)
    assert info.value.message == reference.message
    assert list(info.value.path) == ["parameters", *reference.path]
    return reference


@pytest.mark.parametrize("bad", ["1e-40", True, None, [1.0], {"x": 1}])
def test_bad_gamma_entry_error_matches_jsonschema(bad):
    gamma = [[0.0 if i == j else 1e-40 * (1 + i + j) for j in range(50)]
             for i in range(50)]
    gamma[17][23] = bad
    gamma[40][2] = bad
    clocks = [_clock(1e-6 * k) for k in range(50)]
    config = {"kind": "rates",
              "parameters": {"geometry": {"clocks": clocks}, "mode": "pairwise",
                             "case": "given-rates", "gamma": {"pairwise": gamma}}}
    reference = assert_same_parameter_error(config)
    assert list(reference.path) == ["gamma", "pairwise", 17, 23]


@pytest.mark.parametrize("bad", ["0.0", False, None])
def test_bad_position_error_matches_jsonschema(bad):
    config = {"kind": "rates",
              "parameters": {"geometry": {"clocks": [_clock(0.0), _clock(3e-7)]},
                             "mode": "pairwise", "case": "A-free"}}
    config["parameters"]["geometry"]["clocks"][1]["position"][2] = bad
    reference = assert_same_parameter_error(config)
    assert list(reference.path) == ["geometry", "clocks", 1, "position", 2]


def _crystal(positions):
    return {"kind": "redshift",
            "parameters": {"body": {"kind": "crystal", "atom_mass": 1.81e-25,
                                    "lattice_constant": 1e-10, "positions": positions,
                                    "clock_position": [0.0, 0.0, 0.0]},
                           "quoted_frequency": 1e15, "gamma_clock": 0.0}}


_CRYSTAL_ROWS = [[1.0 + 1e-10 * k, 0.0, 0] for k in range(10_000)]


def test_large_crystal_passes_like_jsonschema():
    config = _crystal(_CRYSTAL_ROWS)
    validate_scenario(config)
    validator = jsonschema.Draft202012Validator(_PARAMETER_SCHEMAS["redshift"])
    assert not list(validator.iter_errors(config["parameters"]))


@pytest.mark.parametrize("row, cell", [
    (None, True), (None, "1.0"), (None, None), (None, [1.0]),
    ([1.0, 2.0], None), ([1.0, 2.0, 3.0, 4.0], None), ([[1.0, 2.0, 3.0]], None),
])
def test_bad_crystal_position_error_matches_jsonschema(row, cell):
    # a bad cell, or a whole row of the wrong length or depth
    rows = [list(r) for r in _CRYSTAL_ROWS]
    if row is None:
        rows[6543][1] = rows[9000][2] = cell
    else:
        rows[6543] = rows[9000] = row
    config = _crystal(rows)
    validator = jsonschema.Draft202012Validator(_PARAMETER_SCHEMAS["redshift"])
    reference = sorted(validator.iter_errors(config["parameters"]), key=str)[0]
    with pytest.raises(jsonschema.ValidationError) as info:
        validate_scenario(config)
    got = info.value
    assert list(got.path) == ["parameters", *reference.path]
    # the body's oneOf error carries each branch's errors as its context
    assert got.message == reference.message
    assert sorted((list(e.path), e.message) for e in got.context) == \
        sorted((list(e.path), e.message) for e in reference.context)


_numbers = st.one_of(st.integers(-3, 3), st.floats(allow_nan=False))
_cells = st.one_of(_numbers, st.booleans(), st.none(), st.text(max_size=2),
                   st.lists(st.integers(), max_size=2))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.lists(_numbers, max_size=5), max_size=6),
                 st.lists(st.one_of(st.lists(_cells, max_size=5), _cells), max_size=6)),
       st.sampled_from([{}, {"minItems": 2}, {"maxItems": 3},
                        {"minItems": 3, "maxItems": 3}, {"uniqueItems": True}]),
       st.sampled_from(["number", "integer"]))
def test_row_items_match_jsonschema(rows, bounds, cell_type):
    # only number rows with length bounds take the one-pass path
    schema = {"type": "array",
              "items": {"type": "array", "items": {"type": cell_type}, **bounds}}
    got = sorted(map(str, scenarios._Validator(schema).iter_errors(rows)))
    want = sorted(map(str, jsonschema.Draft202012Validator(schema).iter_errors(rows)))
    assert got == want


@pytest.mark.parametrize("items, good, bad", [
    ({"type": "number"}, 1.5, True),
    ({"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3},
     [1.0, 2.0, 3.0], [1.0, 2.0]),
])
def test_bad_number_list_checks_only_its_offenders(monkeypatch, items, good, bad):
    instance = [good] * 1000
    instance[500] = instance[900] = bad
    descend, seen = scenarios._Validator.descend, []

    def spy(self, *args, **kwargs):
        seen.append(kwargs.get("path"))
        return descend(self, *args, **kwargs)

    monkeypatch.setattr(scenarios._Validator, "descend", spy)
    schema = {"type": "array", "items": items}
    got = [str(e) for e in scenarios._Validator(schema).iter_errors(instance)]
    assert seen == [500, 900]
    assert got == [str(e) for e in
                   jsonschema.Draft202012Validator(schema).iter_errors(instance)]


@pytest.mark.parametrize("config", [
    {"kind": "rates", "surprise": 1},
    {"kind": "nonsense"},
    {"kind": "paper-report", "output": {"stem": "", "format": "xml"}},
    {"convention": "sideways"},
    # two errors: the shallower one wins, not the first by message
    {"kind": "rates", "surprise": 1, "convention": "sideways"},
])
def test_top_level_error_matches_jsonschema_validate(config):
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(config, SCENARIO_SCHEMA)
    with pytest.raises(jsonschema.ValidationError) as got:
        validate_scenario(config)
    assert str(got.value) == str(expected.value)
    assert list(got.value.path) == list(expected.value.path)
