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
    # the writer takes float arrays where json.dumps takes their nested lists
    return (json.dumps(value, sort_keys=True, indent=2, allow_nan=False,
                       default=lambda a: a.tolist()) + "\n").encode()


def assert_writes_like_dumps(value):
    """The writer gives strict json.dumps' bytes, or refuses as it does."""
    try:
        expected = reference_bytes(value)
    except ValueError:  # a NaN or infinity, which strict JSON cannot spell
        with pytest.raises(ValueError, match="not JSON compliant"):
            _json_bytes(value)
        return
    assert _json_bytes(value) == expected


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
    assert_writes_like_dumps(value)


@pytest.mark.parametrize("keys", [[3, -1, 10**20], [2.5, -0.0, math.inf], [True, False], [None],
                                  [2.5, -0.0, 1e300], [math.nan]])
def test_writer_non_string_keys_match_dumps(keys):
    value = {k: [k] for k in keys}
    assert_writes_like_dumps(value)


# ±0.0, subnormals and the non-finite values json spells by name
_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, math.nan, math.inf, -math.inf]


@st.composite
def float_arrays(draw):
    """A 1-D or 2-D float64 array filled from a pool of one to four values,
    with sizes on both sides of the writer's small-array cutoff."""
    pool = np.array(draw(st.lists(st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats()),
                                  min_size=1, max_size=4)))
    shape = draw(st.one_of(st.tuples(st.integers(0, 150)),
                           st.tuples(st.integers(0, 12), st.integers(0, 12))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = pool[rng.integers(len(pool), size=shape)]
    return a.T if draw(st.booleans()) else a  # also a non-contiguous view


_CUTOFF = scenarios._UNIQUE_MIN_CELLS
_CORNERS = np.array([[0.0, -0.0, 5e-324, 2.5e-310], [math.nan, math.inf, -math.inf, 1.5]])


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(max_size=3),
                       st.one_of(float_arrays(),
                                 st.dictionaries(st.text(max_size=3), float_arrays(),
                                                 max_size=3)),
                       max_size=4))
@example({"empty": np.zeros(0), "rows": np.zeros((3, 0)), "cols": np.zeros((0, 3)),
          "one": np.full((1, 1), -0.0)})
@example({"below": np.resize(_CORNERS, _CUTOFF - 1), "at": np.resize(_CORNERS, _CUTOFF),
          "square": np.resize(_CORNERS, (12, 12)), "row": np.resize(_CORNERS, (1, 100)),
          "column": np.resize(_CORNERS, (100, 1))})
def test_writer_arrays_match_dumps_of_their_lists(value):
    assert_writes_like_dumps(value)


@pytest.mark.parametrize("value", [
    math.nan, -math.inf, np.float64(math.inf), [1.0, math.nan], {"a": [0.5, math.inf, 2.0]},
    np.resize([1.0, math.nan], _CUTOFF - 1), np.resize([1.0, -math.inf], _CUTOFF),
    np.resize([0.25, math.inf, 0.5], (8, 8)), {"rows": np.full((3, 40), math.nan)}])
def test_writer_refuses_non_finite_floats(value):
    # scalars, short lists, and arrays on both sides of the small-array cutoff
    with pytest.raises(ValueError, match="not JSON compliant"):
        _json_bytes({"x": value})


@pytest.mark.parametrize("array", [np.arange(3), np.zeros((2, 2, 2)), np.array(1.5),
                                   np.zeros(2, np.float32)])
def test_writer_refuses_other_arrays_as_dumps_does(array):
    with pytest.raises(TypeError, match="not JSON serializable"):
        json.dumps({"a": array})
    with pytest.raises(TypeError, match="not JSON serializable"):
        _json_bytes({"a": array})


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


# 40-clock chains: the pair matrix repeats 39 distances, and the B-fixed
# optimal rates are one scalar off a zero diagonal
CHAINS = [
    {"kind": "rates",
     "parameters": {"geometry": {"lattice": {"dimension": 1, "lattice_constant": 1e-6,
                                             "counts": [40], "quoted_frequency": 1e15}},
                    "mode": "pairwise", "case": case},
     "output": {"stem": stem}}
    for case, stem in (("A-free", "pwA_1d40"), ("B-fixed", "pwB_1d40"))
]


def test_every_kind_is_covered():
    assert {c["kind"] for c in EVERY_KIND} == set(_PARAMETER_SCHEMAS)


@pytest.mark.parametrize("config", EVERY_KIND + CHAINS,
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
    got = sorted(map(str, scenarios._validator_class()(schema).iter_errors(rows)))
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
    validator_class = scenarios._validator_class()
    descend, seen = validator_class.descend, []

    def spy(self, *args, **kwargs):
        seen.append(kwargs.get("path"))
        return descend(self, *args, **kwargs)

    monkeypatch.setattr(validator_class, "descend", spy)
    schema = {"type": "array", "items": items}
    got = [str(e) for e in validator_class(schema).iter_errors(instance)]
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


# -- acceptance without jsonschema ---------------------------------------------------

def reference_accepts(config) -> bool:
    """Draft 2020-12 on the top level and the kind's parameters, then the
    two rules the schemas cannot state."""
    if not jsonschema.Draft202012Validator(SCENARIO_SCHEMA).is_valid(config):
        return False
    kind, params = config["kind"], config.get("parameters", {})
    if not jsonschema.Draft202012Validator(_PARAMETER_SCHEMAS[kind]).is_valid(params):
        return False
    if kind == "rates":
        return (params["case"] == "given-rates") == ("gamma" in params)
    return kind != "scaling-sweep" or all(side % 2 for side in params.get("sides", []))


def is_plain(value) -> bool:
    if type(value) is dict:
        return all(map(is_plain, value.values()))
    if type(value) is list:
        return all(map(is_plain, value))
    return type(value) in (str, int, float, bool, type(None))


_LATTICE = {"dimension": 3, "lattice_constant": 1e-6, "counts": [2, 2, 1],
            "quoted_frequency": 1e15}
_PAIRWISE = [[0.0, 1e-40, 2e-40], [1e-40, 0.0, 3e-40], [2e-40, 3e-40, 0.0]]
# valid configs that between them use every keyword and optional key
VALID = EVERY_KIND + [
    {"kind": "rates", "output": {"stem": "r", "format": "both"},
     "parameters": {"geometry": {"clocks": [dict(_clock(0.0), rest_mass=1e-25),
                                            _clock(1e-6)]},
                    "mode": "global", "case": "given-rates",
                    "gamma": {"global": [1e-40, 2e-40]}}},
    {"kind": "optimize", "parameters": {"geometry": {"lattice": _LATTICE},
                                        "mode": "fixed-scalar"}},
    {"kind": "scaling-sweep", "convention": "2pi",
     "parameters": {"dimension": 1, "mode": "global", "case": "A-free",
                    "sides": [3, 5, 7, 9], "lattice_constant": 1e-6,
                    "quoted_frequency": 4e14}},
    {"kind": "simulate",
     "parameters": {"kind": "ccg-pairwise", "coupling_matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
                    "omegas": [1.0, 2.0, 3.0], "gamma": {"pairwise": _PAIRWISE},
                    "initial_state": ["plus", "zero", [[1, 0], [0, 0]]],
                    "times": {"start": 0.5, "stop": 2.0, "num": 4},
                    "fit_decay": False, "fit_clock": 2}},
    {"kind": "simulate",
     "parameters": {"kind": "ccg-global", "gamma": "optimal", "initial_state": ["plus", "one"],
                    "times": {"stop": 1.0, "num": 3}, "fit_clock": 1}},
]

# a key and value to add beside each key of a oneOf, so that both branches match
_PARTNERS = {"clocks": ("lattice", _LATTICE), "lattice": ("clocks", _CLOCKS["clocks"]),
             "pairwise": ("global", [1e-40, 1e-40]), "global": ("pairwise", _PAIRWISE)}
_ODD_VALUES = [True, False, 0, 1, 2, 3, 3.0, 3.5, -1.0, 0.0, -0.0, math.nan, math.inf,
               -math.inf, 2**70, None, "", "plus", "optimal", "shell", [], {}, [1.0, 2.0]]
_KEYS = sorted({k for c in VALID for k in json.dumps(c).split('"')[1::2]} | {"surprise"})


def _paths(value, path=()):
    yield path
    items = value.items() if type(value) is dict else \
        enumerate(value) if type(value) is list else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


@st.composite
def mutated_configs(draw):
    """A valid config with one mutation at one node."""
    config = json.loads(json.dumps(draw(st.sampled_from(VALID))))
    path = draw(st.sampled_from(list(_paths(config))))
    parent, key = None, None
    node = config
    for step in path:
        parent, key, node = node, step, node[step]
    mutation = draw(st.sampled_from(["replace", "add", "drop", "partner", "resize",
                                     "numpy", "tuple"]))
    if mutation == "replace" and parent is not None:
        parent[key] = draw(st.sampled_from(_ODD_VALUES))
    elif mutation == "add" and type(node) is dict:
        node[draw(st.sampled_from(_KEYS))] = draw(st.sampled_from(_ODD_VALUES + [_LATTICE]))
    elif mutation == "drop" and type(node) is dict and node:
        del node[draw(st.sampled_from(sorted(node)))]
    elif mutation == "partner" and type(node) is dict and node.keys() & _PARTNERS.keys():
        other, value = _PARTNERS[draw(st.sampled_from(sorted(node.keys() & _PARTNERS.keys())))]
        node[other] = value
    elif mutation == "resize" and type(node) is list and node:
        node.append(node[-1]) if draw(st.booleans()) else node.pop()
    elif mutation == "numpy" and parent is not None and type(node) in (int, float):
        parent[key] = (np.float64 if type(node) is float else np.int64)(node)
    elif mutation == "tuple" and parent is not None and type(node) is list:
        parent[key] = tuple(node)
    return config


@settings(max_examples=1500, deadline=None)
@given(mutated_configs())
def test_checker_decides_as_jsonschema(config):
    want = reference_accepts(config)
    accepted = scenarios._accepts(config)
    # a config the checker cannot read exactly is left to jsonschema
    assert accepted == want if is_plain(config) else not accepted
    try:
        validate_scenario(config)
    except jsonschema.ValidationError:
        assert not want
    else:
        assert want


@pytest.mark.parametrize("config", VALID, ids=lambda c: c["kind"] + "-" + json.dumps(c)[-12:])
def test_valid_configs_are_accepted_without_jsonschema(config):
    assert reference_accepts(config)
    assert scenarios._accepts(config)


def _keywords(schema):
    """(keyword, value) of every keyword of a schema and its subschemas."""
    for key, value in schema.items():
        yield key, value
        subschemas = (value.values() if key == "properties" else
                      value if key == "oneOf" else
                      [value] if key in ("items", "additionalProperties") else ())
        for sub in subschemas:
            if isinstance(sub, dict):
                yield from _keywords(sub)


@pytest.mark.parametrize("schema", [SCENARIO_SCHEMA, *_PARAMETER_SCHEMAS.values()])
def test_checker_knows_every_schema_keyword(schema):
    for key, value in _keywords(schema):
        scenarios._valid(None, {key: value})  # an unknown keyword raises KeyError
    with pytest.raises(KeyError, match="uniqueItems"):
        scenarios._valid(None, {"uniqueItems": True})
