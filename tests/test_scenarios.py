"""Scenario plumbing: the artifact writer and schema validation.

Artifacts must equal json.dumps(sort_keys=True, indent=2) byte for byte, and
validation must decide as jsonschema does, refusing with a message and path
that jsonschema also reports; jsonschema is the oracle here only.
"""

import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ccgclocks import __version__, cli, scenarios
from ccgclocks.scenarios import (
    SCENARIO_SCHEMA,
    _PARAMETER_SCHEMAS,
    ConfigError,
    run_scenario,
    validate_scenario,
)


def reference_bytes(value) -> bytes:
    # the writer takes float arrays where json.dumps takes their nested lists
    return (json.dumps(value, sort_keys=True, indent=2, allow_nan=False,
                       default=lambda a: a.tolist()) + "\n").encode()


def written(value) -> bytes:
    """What the writer writes for value: its chunks, joined."""
    return b"".join(scenarios._json_chunks(value))


def assert_writes_like_dumps(value):
    """The writer gives strict json.dumps' bytes, or refuses as it does."""
    try:
        expected = reference_bytes(value)
    except ValueError:  # a NaN or infinity, which strict JSON cannot spell
        with pytest.raises(ValueError, match="not JSON compliant"):
            written(value)
        return
    assert written(value) == expected


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
@example({"matrix": np.random.default_rng(300).standard_normal((300, 300))
          * 10.0 ** np.random.default_rng(301).integers(-40, 40, (300, 300))})
def test_writer_arrays_match_dumps_of_their_lists(value):
    assert_writes_like_dumps(value)


@pytest.mark.parametrize("value", [
    math.nan, -math.inf, np.float64(math.inf), [1.0, math.nan], {"a": [0.5, math.inf, 2.0]},
    np.resize([1.0, math.nan], _CUTOFF - 1), np.resize([1.0, -math.inf], _CUTOFF),
    np.resize([0.25, math.inf, 0.5], (8, 8)), {"rows": np.full((3, 40), math.nan)},
    np.append(np.linspace(1.0, 2.0, 600), -math.inf)])
def test_writer_refuses_non_finite_floats(value):
    # scalars, short lists, arrays on both sides of the small-array cutoff, and
    # one with enough distinct values for the vectorized spelling
    with pytest.raises(ValueError, match="not JSON compliant"):
        written({"x": value})


@pytest.mark.parametrize("array", [np.arange(3), np.zeros((2, 2, 2)), np.array(1.5),
                                   np.zeros(2, np.float32)])
def test_writer_refuses_other_arrays_as_dumps_does(array):
    with pytest.raises(TypeError, match="not JSON serializable"):
        json.dumps({"a": array})
    with pytest.raises(TypeError, match="not JSON serializable"):
        written({"a": array})


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
    payloads = []
    original = scenarios._json_chunks

    def recording(payload):
        payloads.append(payload)
        return original(payload)

    monkeypatch.setattr(scenarios, "_json_chunks", recording)
    paths = run_scenario(config, tmp_path)
    files = sorted(p.read_bytes() for p in paths if p.suffix == ".json")
    assert files and files == sorted(map(reference_bytes, payloads))


# -- the vectorized spelling of a large array's distinct values ---------------------

def assert_spells_like_repr(values):
    """`_spell` gives repr of each value, in bit order and as drawn, or
    refuses a NaN or infinity as the C encoder does."""
    values = np.asarray(values, dtype=np.float64)
    for order in (values, np.sort(values.view(np.int64)).view(np.float64)):
        if np.isfinite(order).all():
            assert scenarios._spell(order) == list(map(repr, order.tolist()))
        else:
            with pytest.raises(ValueError) as expected:
                scenarios._dumps(order.tolist())
            with pytest.raises(ValueError, match=f"^{expected.value}$"):
                scenarios._spell(order)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_spell_matches_repr_on_raw_bit_patterns(patterns):
    assert_spells_like_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_spell_matches_repr_on_floats(values):
    assert_spells_like_repr(values)


def _edge_floats():
    """Zeros, the ends of the float range, every power of two, 10**k and both
    its neighbours, and short decimals d·10**k: the values whose spelling
    sits on a boundary of the kernel or of repr's notation."""
    edges = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    edges += [2.0 ** k for k in range(-1074, 1024)]
    for k in range(-323, 309):
        ten = float(f"1e{k}")
        edges += [ten, math.nextafter(ten, 0.0), math.nextafter(ten, math.inf)]
    edges += [float(f"{d}e{k}") for d in (1, 2, 5, 12, 125, 999, 4503599627370497)
              for k in range(-330, 310)]
    return edges + [-x for x in edges]


def test_spell_matches_repr_on_the_edges():
    assert_spells_like_repr(_edge_floats())


def test_spell_matches_repr_on_a_million_bit_patterns():
    # in blocks sorted by bit pattern, as the writer hands them over
    rng = np.random.default_rng(26)
    patterns = rng.integers(-2**63, 2**63, size=2**20, dtype=np.int64)
    values = np.sort(patterns[np.isfinite(patterns.view(np.float64))]).view(np.float64)
    for start in range(0, len(values), scenarios._BLOCK_CELLS):
        block = values[start:start + scenarios._BLOCK_CELLS]
        assert scenarios._spell(block) == list(map(repr, block.tolist()))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -math.nan])
def test_spell_refuses_non_finite_values_as_dumps_does(bad):
    values = np.linspace(0.5, 2.0, 300)
    values[150] = bad
    assert_spells_like_repr(values)


def test_spell_formats_ordinary_values_itself(monkeypatch):
    # the C encoder gets only the values on a boundary and the decimals of at
    # most 14 digits, about one in a hundred of these
    handed = []
    encoded = scenarios._encoded
    monkeypatch.setattr(scenarios, "_encoded", lambda v: handed.extend(v) or encoded(v))
    rng = np.random.default_rng(7)
    values = np.sort(rng.standard_normal(2048) * 10.0 ** rng.integers(-30, 14, 2048))
    assert scenarios._spell(values) == list(map(repr, values.tolist()))
    assert len(handed) < 2048 // 50


# values whose spellings differ in length, ±0.0 and subnormals among them
_FINITE = np.array([0.0, -0.0, 5e-324, 2.5e-310, 1.5, -3e300, 0.1])


@pytest.mark.parametrize("shape", [(2049,), (5000,), (300, 40), (3, 2100), (2100, 1)])
def test_writer_blocks_and_chunks_match_dumps(shape):
    # past _BLOCK_CELLS cells an array is written a block at a time, and past
    # _CHUNK_CHARS characters an artifact goes out in several chunks, each at
    # most one block (under 50 characters a cell, brackets included) longer
    rng = np.random.default_rng(len(shape))
    value = {"few": np.resize(_FINITE, shape), "many": rng.uniform(-1, 1, shape),
             "view": np.resize(_FINITE, shape).T, "tail": [1.0, "x", None]}
    chunks = list(scenarios._json_chunks(value))
    assert b"".join(chunks) == reference_bytes(value)
    bound = scenarios._CHUNK_CHARS + 50 * scenarios._BLOCK_CELLS
    assert len(chunks) > 1 and max(map(len, chunks)) < bound


@pytest.mark.parametrize("convention", ["direct", "both"])
def test_a_refusal_partway_through_a_file_leaves_no_file_of_the_run(
        convention, tmp_path, monkeypatch):
    finite = np.linspace(1.0, 2.0, 10**4)
    refused = finite.copy()
    refused[-1] = math.nan
    # with "both", the direct files are written and the 2pi files refused
    refused_path = tmp_path / ("rates.json" if convention == "direct" else "rates_2pi.json")
    sizes = []
    original = scenarios._json_chunks

    def recording(payload):
        try:
            yield from original(payload)
        except ValueError:
            sizes.append(refused_path.stat().st_size)
            raise

    def runner(params, conv):
        bad = convention == "direct" or conv.value == "times-two-pi"
        return {".csv": [["N"], [1]], ".json": {"a": finite, "b": refused if bad else finite}}

    monkeypatch.setattr(scenarios, "_json_chunks", recording)
    monkeypatch.setitem(scenarios._RUNNERS, "rates",
                        (runner, *scenarios._RUNNERS["rates"][1:]))
    config = {"kind": "rates", "convention": convention,
              "parameters": {"geometry": _CLOCKS, "mode": "pairwise", "case": "A-free"}}
    with pytest.raises(ValueError, match="not JSON compliant"):
        run_scenario(config, tmp_path)
    assert sizes[0] > 0  # chunks of the file were written before the refusal
    assert list(tmp_path.iterdir()) == []  # the direct files of "both" too


# -- files written ----------------------------------------------------------------

_PARAMETERS = {
    "rates": {"geometry": _CLOCKS, "mode": "pairwise", "case": "A-free"},
    "optimize": {"geometry": _CLOCKS, "mode": "global"},
    "scaling-sweep": EVERY_KIND[4]["parameters"],
    "simulate": EVERY_KIND[5]["parameters"],  # exports the density matrix
    "redshift": EVERY_KIND[7]["parameters"],
    "paper-report": {},
}

# kind -> (stem, suffixes written by default and in formats "csv", "json", "both")
_FILES = {
    "rates": ("rates", [".csv", ".json"], [".csv"], [".json"], [".csv", ".json"]),
    "optimize": ("optimize", [".json"], [".csv"], [".json"], [".csv", ".json"]),
    "scaling-sweep": ("scaling", [".csv", ".json", "_plot.csv"], [".csv", "_plot.csv"],
                      [".json"], [".csv", ".json", "_plot.csv"]),
    "simulate": ("simulate", [".csv", ".json", "_rho.json"], [".csv", "_rho.json"],
                 [".json", "_rho.json"], [".csv", ".json", "_rho.json"]),
    "redshift": ("redshift", [".json"], [".json"], [".json"], [".json"]),
    "paper-report": ("paper_report", [".csv", ".json"], [".csv"], [".json"],
                     [".csv", ".json"]),
}


def assert_meta(path, convention):
    meta = json.loads(path.read_text(encoding="utf-8"))["meta"]
    assert meta == {"package": "ccgclocks", "version": __version__,
                    **({"convention": convention} if convention else {})}


@pytest.mark.parametrize("fmt", [None, "csv", "json", "both"])
@pytest.mark.parametrize("kind", sorted(_FILES))
def test_each_kind_writes_its_files_in_each_format(kind, fmt, tmp_path):
    config = {"kind": kind, "parameters": _PARAMETERS[kind]}
    if fmt is not None:
        config["output"] = {"format": fmt}
    stem, *by_format = _FILES[kind]
    expected = [stem + suffix for suffix in by_format[[None, "csv", "json", "both"].index(fmt)]]
    paths = run_scenario(config, tmp_path)
    assert [p.name for p in paths] == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for path in paths:
        if path.suffix == ".json":  # the report's rows carry both conventions
            assert_meta(path, None if kind == "paper-report" else "direct")


def test_both_conventions_write_each_file_twice_convention_by_convention(tmp_path):
    config = {"kind": "simulate", "convention": "both", "output": {"format": "csv"},
              "parameters": _PARAMETERS["simulate"]}
    paths = run_scenario(config, tmp_path)
    assert [p.name for p in paths] == ["simulate_direct.csv", "simulate_direct_rho.json",
                                       "simulate_2pi.csv", "simulate_2pi_rho.json"]
    assert_meta(paths[1], "direct")
    assert_meta(paths[3], "times-two-pi")


# -- validation ------------------------------------------------------------------

@pytest.mark.parametrize("schema", [SCENARIO_SCHEMA, *_PARAMETER_SCHEMAS.values()])
def test_schemas_are_valid_draft_2020_12(schema):
    # validation no longer checks the schemas on each call
    jsonschema.Draft202012Validator.check_schema(schema)


def reference_errors(instance, schema, prefix=()):
    """(path, message) of every error jsonschema reports, oneOf contexts included."""
    def walk(errors):
        for error in errors:
            yield (*prefix, *error.absolute_path), error.message
            yield from walk(error.context)

    return set(walk(jsonschema.Draft202012Validator(schema).iter_errors(instance)))


def assert_same_parameter_error(config):
    """The refusal's message and path are one of jsonschema's errors."""
    with pytest.raises(ConfigError) as info:
        validate_scenario(config)
    got = info.value
    assert (got.path, got.message) in reference_errors(
        config["parameters"], _PARAMETER_SCHEMAS[config["kind"]], ("parameters",))
    return got


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
    got = assert_same_parameter_error(config)
    assert got.path == ("parameters", "gamma", "pairwise", 17, 23)


@pytest.mark.parametrize("bad", ["0.0", False, None])
def test_bad_position_error_matches_jsonschema(bad):
    config = {"kind": "rates",
              "parameters": {"geometry": {"clocks": [_clock(0.0), _clock(3e-7)]},
                             "mode": "pairwise", "case": "A-free"}}
    config["parameters"]["geometry"]["clocks"][1]["position"][2] = bad
    got = assert_same_parameter_error(config)
    assert got.path == ("parameters", "geometry", "clocks", 1, "position", 2)


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
    # the body's oneOf refuses every branch: the crystal branch's error lies
    # deepest, at the first bad row, where jsonschema reports it in the context
    got = assert_same_parameter_error(_crystal(rows))
    assert got.path == ("parameters", "body", "positions", 6543,
                        *([] if row is not None else [1]))


def test_crystal_body_without_positions_is_refused_for_its_missing_key():
    # every body branch fails at the body itself; the crystal branch names the
    # body's kind, so its error is the one reported
    config = _crystal([[1.0, 0.0, 0.0]])
    del config["parameters"]["body"]["positions"]
    got = assert_same_parameter_error(config)
    assert (got.path, got.message) == (("parameters", "body"),
                                       "'positions' is a required property")


def test_one_bad_cell_of_a_large_crystal_is_named_in_one_short_line(tmp_path, capsys):
    rows = [list(r) for r in _CRYSTAL_ROWS]
    rows[5000][1] = "0.0"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_crystal(rows)), encoding="utf-8")
    assert cli.main(["redshift", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == ("error: invalid config at parameters/body/positions/5000/1: "
                   "'0.0' is not of type 'number'\n")
    assert len(err) < 200


_numbers = st.one_of(st.integers(-3, 3), st.floats(allow_nan=False))
_cells = st.one_of(_numbers, st.booleans(), st.none(), st.text(max_size=2),
                   st.lists(st.integers(), max_size=2))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.lists(_numbers, max_size=5), max_size=6),
                 st.lists(st.one_of(st.lists(_cells, max_size=5), _cells), max_size=6)),
       st.sampled_from([{}, {"minItems": 2}, {"maxItems": 3},
                        {"minItems": 3, "maxItems": 3}, {"minLength": 1}]),
       st.sampled_from(["number", "integer"]))
def test_row_items_match_jsonschema(rows, bounds, cell_type):
    # only number rows with length bounds take the one-pass path; the first
    # error is jsonschema's first, message and path
    schema = {"type": "array",
              "items": {"type": "array", "items": {"type": cell_type}, **bounds}}
    first = next(jsonschema.Draft202012Validator(schema).iter_errors(rows), None)
    assert scenarios._error(rows, schema) == (
        None if first is None else (first.message, tuple(first.path)))


@pytest.mark.parametrize("items, good, bad", [
    ({"type": "number"}, 1.5, True),
    ({"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3},
     [1.0, 2.0, 3.0], [1.0, 2.0]),
])
def test_bad_number_list_checks_only_its_offenders(monkeypatch, items, good, bad):
    instance = [good] * 1000
    instance[500] = instance[900] = bad
    schema = {"type": "array", "items": items}
    first = next(jsonschema.Draft202012Validator(schema).iter_errors(instance))
    assert scenarios._error(instance, schema) == (first.message, (500,))
    error, seen = scenarios._error, []

    def spy(x, sub):  # an element is recorded and let pass, so the walk goes on
        if sub is items:
            seen.append(x)
            return None
        return error(x, sub)

    monkeypatch.setattr(scenarios, "_error", spy)
    assert error(instance, schema) is None
    assert seen == [bad, bad]


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
    with pytest.raises(ConfigError) as got:
        validate_scenario(config)
    assert got.value.message == expected.value.message
    assert got.value.path == tuple(expected.value.path)


# -- acceptance, decided as jsonschema decides ------------------------------------------

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
    plain = is_plain(config)
    try:
        validate_scenario(config)
    except ConfigError as exc:
        # a value json.loads never returns is refused, whatever jsonschema says
        assert not (plain and reference_accepts(config))
        error = exc
    else:
        assert plain and reference_accepts(config)
        return
    if not plain:
        return
    errors = reference_errors(config, SCENARIO_SCHEMA)
    if not errors and type(config.get("parameters", {})) is dict:
        errors = reference_errors(config.get("parameters", {}),
                                  _PARAMETER_SCHEMAS[config["kind"]], ("parameters",))
    if errors:  # else a rule the schemas cannot state refused it
        assert error.path in {path for path, _ in errors}
        # jsonschema repeats a value valid under several oneOf branches; the checker does not
        assert (error.path, error.message) in errors or \
            error.message.startswith("is valid under each of")


@pytest.mark.parametrize("config", VALID, ids=lambda c: c["kind"] + "-" + json.dumps(c)[-12:])
def test_valid_configs_are_accepted_without_jsonschema(config):
    assert reference_accepts(config)
    validate_scenario(config)


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
        scenarios._error(None, {key: value})  # an unknown keyword raises KeyError
    with pytest.raises(KeyError, match="uniqueItems"):
        scenarios._error(None, {"uniqueItems": True})


# -- sizes refused before allocation -----------------------------------------------

@pytest.mark.parametrize("kind", ["rates", "optimize"])
def test_lattice_past_the_dense_limit_is_refused_before_it_is_built(
        kind, tmp_path, monkeypatch, capsys):
    from ccgclocks import geometry

    def unbuilt(*args, **kwargs):
        raise AssertionError("build_lattice ran")

    monkeypatch.setattr(scenarios, "build_lattice", unbuilt)
    counts = [17, 241, 1]  # one clock past the limit
    assert math.prod(counts) == geometry._PAIR_MATRIX_LIMIT + 1
    lattice = dict(_LATTICE, counts=counts)
    config = {"kind": kind, "parameters": {"geometry": {"lattice": lattice},
                                           "mode": "pairwise", "case": "A-free"}}
    if kind == "optimize":
        del config["parameters"]["case"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main([kind, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "pair rate matrix for N=4097 clocks exceeds the dense limit (4096)" in err
    # the one message, as the pair kernel gives it for an array already built
    clocks = geometry.ClockArray(np.ones(4097), np.arange(3 * 4097.0).reshape(-1, 3))
    with pytest.raises(ValueError) as info:
        geometry.pair_rate_matrix(clocks)
    assert str(info.value) in err
