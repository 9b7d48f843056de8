"""Scenario configs: schema validation, dispatch and deterministic outputs.

A scenario is a JSON document with a `kind`, optional `convention` and
`output` blocks, and kind-specific `parameters`. Validation is strict
(unknown keys are rejected) and every emitted file is byte-identical across
reruns of the same config: floats are written with repr, JSON keys are
sorted, and CSV rows end with CRLF.

A kind's runner computes and returns its artifacts by file-name suffix: CSV
rows (a list), a JSON payload without its "meta" block (a dict) or finished
bytes. `run_scenario` alone names, filters by output format, encodes and
writes them; what differs between kinds is data in `_RUNNERS`.

One checker written here decides, as Draft 2020-12 would, whether a config
is valid, and names the first value it refuses: `ConfigError` carries the
message, in jsonschema's wording, and the path to that value. jsonschema is
the tests' oracle, not a dependency. A runner imports the modules its kind
uses when it runs.

A JSON artifact is strict JSON: it equals
json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n" byte
for byte, where each float array in the payload stands for its nested list,
and a NaN or infinity raises ValueError. The runners hand rate vectors and
matrices to the writer as float64 arrays, and the writer spells each
distinct bit pattern once, a large array's by a vectorized kernel whose every
string is repr's. That gives the same bytes, because json spells a float by
its shortest round-trip repr, a function of the float's bits alone. A JSON
artifact is formatted as it is written, in chunks of bounded size, so no
artifact is held whole in memory; a run's files are written all or nothing,
so a refusal partway through a file, or in the second of two conventions,
removes every file of the run.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from .constants import FrequencyConvention, apply_convention
from .geometry import ClockArray, _check_dense_size, build_lattice, pair_rate_matrix
from .rates import (_CLOSED_FORMS, MeasurementRates, dephasing_given_rates,
                    optimize_rates)

_POSITION = {"type": "array", "minItems": 3, "maxItems": 3,
             "items": {"type": "number"}}

_GEOMETRY_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "oneOf": [{"required": ["clocks"]}, {"required": ["lattice"]}],
    "properties": {
        "clocks": {
            "type": "array", "minItems": 1,
            "items": {
                "type": "object", "additionalProperties": False,
                "required": ["quoted_frequency", "position"],
                "properties": {
                    "quoted_frequency": {"type": "number", "minimum": 0},
                    "position": _POSITION,
                    "rest_mass": {"type": "number", "exclusiveMinimum": 0},
                },
            },
        },
        "lattice": {
            "type": "object", "additionalProperties": False,
            "required": ["dimension", "lattice_constant", "counts",
                         "quoted_frequency"],
            "properties": {
                "dimension": {"enum": [1, 2, 3]},
                "lattice_constant": {"type": "number", "exclusiveMinimum": 0},
                "counts": {"type": "array", "minItems": 1, "maxItems": 3,
                           "items": {"type": "integer", "minimum": 1}},
                "quoted_frequency": {"type": "number", "minimum": 0},
            },
        },
    },
}

_GAMMA_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "oneOf": [{"required": ["pairwise"]}, {"required": ["global"]}],
    "properties": {
        "pairwise": {"type": "array",
                     "items": {"type": "array", "items": {"type": "number"}}},
        "global": {"type": "array", "items": {"type": "number"}},
    },
}

_PARAMETER_SCHEMAS = {
    "rates": {
        "type": "object", "additionalProperties": False,
        "required": ["geometry", "mode", "case"],
        "properties": {
            "geometry": _GEOMETRY_SCHEMA,
            "mode": {"enum": ["pairwise", "global"]},
            "case": {"enum": ["A-free", "B-fixed", "given-rates"]},
            "gamma": _GAMMA_SCHEMA,
        },
    },
    "optimize": {
        "type": "object", "additionalProperties": False,
        "required": ["geometry", "mode"],
        "properties": {
            "geometry": _GEOMETRY_SCHEMA,
            "mode": {"enum": ["pairwise", "global", "fixed-scalar",
                              "fixed-scalar-global"]},
        },
    },
    "scaling-sweep": {
        "type": "object", "additionalProperties": False,
        "required": ["dimension", "mode", "case"],
        "properties": {
            "dimension": {"enum": [1, 2, 3]},
            "mode": {"enum": ["pairwise", "global"]},
            "case": {"enum": ["A-free", "B-fixed"]},
            "sides": {"type": "array", "minItems": 4,
                      "items": {"type": "integer", "minimum": 3}},
            "lattice_constant": {"type": "number", "exclusiveMinimum": 0},
            "quoted_frequency": {"type": "number", "minimum": 0},
        },
    },
    "simulate": {
        "type": "object", "additionalProperties": False,
        "required": ["kind", "initial_state", "times"],
        "properties": {
            "kind": {"enum": ["unitary", "ccg-pairwise", "ccg-global"]},
            "coupling_matrix": {"type": "array",
                                "items": {"type": "array",
                                          "items": {"type": "number"}}},
            "omegas": {"type": "array", "items": {"type": "number"}},
            "gamma": {"oneOf": [{"const": "optimal"}, _GAMMA_SCHEMA]},
            "initial_state": {
                "type": "array", "minItems": 1,
                "items": {"oneOf": [
                    {"type": "string"},
                    {"type": "array", "minItems": 2, "maxItems": 2,
                     "items": {"type": "array", "minItems": 2, "maxItems": 2,
                               "items": {"type": "number"}}},
                ]},
            },
            "times": {
                "type": "object", "additionalProperties": False,
                "required": ["stop", "num"],
                "properties": {
                    "start": {"type": "number", "minimum": 0},
                    "stop": {"type": "number", "exclusiveMinimum": 0},
                    "num": {"type": "integer", "minimum": 2},
                },
            },
            "fit_decay": {"type": "boolean"},
            "fit_clock": {"type": "integer", "minimum": 0},
            "export_density_matrix": {"type": "boolean"},
        },
    },
    "redshift": {
        "type": "object", "additionalProperties": False,
        "required": ["body", "quoted_frequency", "gamma_clock"],
        "properties": {
            "body": {
                "oneOf": [
                    {"type": "object", "additionalProperties": False,
                     "required": ["kind", "inner_radius", "outer_radius"],
                     "properties": {
                         "kind": {"const": "shell"},
                         "inner_radius": {"type": "number", "exclusiveMinimum": 0},
                         "outer_radius": {"type": "number", "exclusiveMinimum": 0},
                     }},
                    {"type": "object", "additionalProperties": False,
                     "required": ["kind", "mass", "distance", "gamma_position"],
                     "properties": {
                         "kind": {"const": "simple"},
                         "mass": {"type": "number", "exclusiveMinimum": 0},
                         "distance": {"type": "number", "exclusiveMinimum": 0},
                         "gamma_position": {"type": "number", "exclusiveMinimum": 0},
                     }},
                    {"type": "object", "additionalProperties": False,
                     "required": ["kind", "atom_mass", "lattice_constant",
                                  "positions", "clock_position"],
                     "properties": {
                         "kind": {"const": "crystal"},
                         "atom_mass": {"type": "number", "exclusiveMinimum": 0},
                         "lattice_constant": {"type": "number",
                                              "exclusiveMinimum": 0},
                         "positions": {"type": "array", "minItems": 1,
                                       "items": _POSITION},
                         "clock_position": _POSITION,
                     }},
                ],
            },
            "quoted_frequency": {"type": "number", "minimum": 0},
            "gamma_clock": {"type": "number", "minimum": 0},
        },
    },
    "paper-report": {
        "type": "object", "additionalProperties": False, "properties": {},
    },
}

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": sorted(_PARAMETER_SCHEMAS)},
        "convention": {"enum": ["direct", "times-two-pi", "2pi", "both"]},
        "output": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "stem": {"type": "string", "minLength": 1},
                "format": {"enum": ["csv", "json", "both"]},
            },
        },
        "parameters": {"type": "object"},
    },
}


_NUMBER = {"type": "number"}
_PLAIN_NUMBERS = {int, float}


def _offenders(items, instance):
    """Indices of the elements of `instance` that `_error` must check against
    `items`, when `items` is {"type": "number"} or an array of such with no
    keyword but minItems/maxItems; else None. Every other element is a plain
    int or float, or a list of them of allowed length, which `items` accepts:
    a valid list of numbers or rows costs one pass, and a refused one names
    only its offenders."""
    if items == _NUMBER:
        if set(map(type, instance)) <= _PLAIN_NUMBERS:
            return ()
        return (k for k, x in enumerate(instance) if type(x) not in _PLAIN_NUMBERS)
    if not (items.get("type") == "array" and items.get("items") == _NUMBER
            and items.keys() <= {"type", "items", "minItems", "maxItems"}):
        return None
    lo, hi = items.get("minItems", 0), items.get("maxItems", math.inf)
    if (set(map(type, instance)) <= {list}
            and all(lo <= n <= hi for n in set(map(len, instance)))
            and set(map(type, itertools.chain.from_iterable(instance))) <= _PLAIN_NUMBERS):
        return ()  # one pass over every cell, the common case
    return (k for k, row in enumerate(instance)
            if not (type(row) is list and lo <= len(row) <= hi
                    and set(map(type, row)) <= _PLAIN_NUMBERS))


_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean",
               type(None): "null", int: "integer", float: "number"}


class ConfigError(ValueError):
    """A scenario config that validation refuses: `message` says why, and
    `path`, the keys and indices from the config's root, says where."""

    def __init__(self, message: str, path=()):
        super().__init__(message)
        self.message, self.path = message, tuple(path)


def _error(x, schema):
    """(message, path) of the first value in `x` that `schema` refuses, or
    None, as Draft 2020-12 decides for the keywords the scenario schemas use;
    any other keyword (or additionalProperties but false) is a KeyError.
    Messages keep jsonschema's wording; the path from `x` to the value is
    built only on the way back from a refusal.

    A `oneOf` that no branch accepts gives the error of the branch whose
    error lies deepest; on a tie, of the branch whose `kind` const is x's
    kind, else of the first. A value of a type json.loads
    never returns (a tuple, a numpy scalar) is refused as not a JSON value.
    """
    t = type(x)
    if t not in _JSON_TYPES:
        return f"{x!r} is not a JSON value", ()
    number, size = t in _PLAIN_NUMBERS, len(x) if t in (list, str) else 0
    for key, value in schema.items():
        children = ()
        if key == "type":
            kind = _JSON_TYPES[t]
            if not (kind == value or (kind, value) == ("integer", "number")
                    or ((kind, value) == ("number", "integer") and x.is_integer())):
                return f"{x!r} is not of type {value!r}", ()
        elif key in ("enum", "const"):  # True is not 1, but 1.0 is
            if not any(x == v and (t is bool) == (type(v) is bool)
                       for v in (value if key == "enum" else [value])):
                return (f"{x!r} is not one of {value!r}" if key == "enum"
                        else f"{value!r} was expected"), ()
        elif key == "oneOf":
            errors = [_error(x, branch) for branch in value]
            valid = [branch for branch, error in zip(value, errors) if error is None]
            if not valid:
                named = {"const": x.get("kind")} if t is dict else None
                return max(zip(errors, value), key=lambda pair: (
                    len(pair[0][1]), pair[1].get("properties", {}).get("kind") == named))[0]
            if len(valid) > 1:  # the value itself is not repeated: it may be large
                return f"is valid under each of {', '.join(map(repr, valid))}", ()
        elif key in ("minimum", "exclusiveMinimum"):  # NaN passes both
            if number and (x < value if key == "minimum" else x <= value):
                return (f"{x!r} is less than {'' if key == 'minimum' else 'or equal to '}"
                        f"the minimum of {value!r}", ())
        elif key in ("minItems", "maxItems", "minLength"):
            if t is (str if key == "minLength" else list) and (
                    size > value if key == "maxItems" else size < value):
                return f"{x!r} " + ("is too long" if key == "maxItems" else
                                    "should be non-empty" if value == 1 else "is too short"), ()
        elif key == "required":
            for k in value if t is dict else ():
                if k not in x:
                    return f"{k!r} is a required property", ()
        elif key == "additionalProperties" and value is False:
            extras = sorted(x.keys() - schema.get("properties", {}), key=str) if t is dict else ()
            if extras:
                return (f"Additional properties are not allowed ({', '.join(map(repr, extras))} "
                        f"{'was' if len(extras) == 1 else 'were'} unexpected)", ())
        elif key == "items":
            offenders = () if t is not list else _offenders(value, x)
            children = ((k, value) for k in (range(size) if offenders is None else offenders))
        elif key == "properties":
            children = ((k, s) for k, s in value.items() if k in x) if t is dict else ()
        elif key != "$schema":
            raise KeyError(f"schema keyword {key!r} is not checked here")
        for k, s in children:
            error = _error(x[k], s)
            if error is not None:
                return error[0], (k, *error[1])
    return None


def _rule_error(config: dict):
    """(message, path) of the first rule a schema cannot state, or None."""
    stem = config.get("output", {}).get("stem", "")
    if "/" in stem or "\\" in stem:  # a file name inside the output directory
        return f"output stem {stem!r} holds a path separator", ["output", "stem"]
    kind, params = config["kind"], config.get("parameters", {})
    if kind == "rates":
        case = params["case"]
        if case == "given-rates" and "gamma" not in params:
            return "case 'given-rates' requires a gamma block", ["parameters", "gamma"]
        if case != "given-rates" and "gamma" in params:
            return f"case {case!r} takes no gamma block", ["parameters", "gamma"]
    if kind == "scaling-sweep" and "sides" in params:
        for k, side in enumerate(params["sides"]):
            if side % 2 == 0:
                return f"sweep sides must be odd, got {side}", ["parameters", "sides", k]
    return None


def validate_scenario(config: dict) -> None:
    """Validate a scenario config; raises ConfigError naming the first value
    refused: the top level first, then the kind's parameters, then the rules
    a schema cannot state."""
    error = _error(config, SCENARIO_SCHEMA)
    if error is None:
        params = _error(config.get("parameters", {}), _PARAMETER_SCHEMAS[config["kind"]])
        error = (params[0], ("parameters", *params[1])) if params else _rule_error(config)
    if error is not None:
        raise ConfigError(*error)


# -- builders ------------------------------------------------------------------

def _build_geometry(block: dict, convention: FrequencyConvention) -> ClockArray:
    # apply_convention(f) is factor * f, the factor 1 or 2 pi, bit for bit
    factor = float(apply_convention(1.0, convention))
    if "lattice" in block:
        lat = block["lattice"]
        # every runner builds the pair matrix: refuse its size before the lattice
        _check_dense_size(math.prod(lat["counts"]))
        return build_lattice(lat["dimension"], lat["lattice_constant"],
                             lat["counts"], factor * lat["quoted_frequency"],
                             convention=convention)
    clocks = block["clocks"]
    return ClockArray([factor * c["quoted_frequency"] for c in clocks],
                      [c["position"] for c in clocks],
                      [c.get("rest_mass") for c in clocks], convention=convention)


def _integral(schema: dict) -> bool:
    """Whether a schema admits only integers: "type": "integer" or an enum of ints."""
    return (schema.get("type") == "integer"
            or all(type(v) is int for v in schema.get("enum", [None])))


def _as_ints(x, schema: dict):
    """A valid `x` with each float at an integer position of `schema` as an
    int: Draft 2020-12 takes 3.0 as an integer, numpy's sizes and indices do
    not. The scenario schemas hold integers only as properties and as items
    of flat lists."""
    if type(x) is dict:
        properties = schema.get("properties", {})
        return {k: _as_ints(v, properties.get(k, {})) for k, v in x.items()}
    if type(x) is list and _integral(schema.get("items", {})):
        return list(map(int, x))
    return int(x) if isinstance(x, float) and _integral(schema) else x


def _build_gamma(block: dict) -> MeasurementRates:
    mode = "pairwise" if "pairwise" in block else "global"
    return MeasurementRates(mode, **{f"{mode}_gamma": block[mode]})


def _csv_bytes(rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


_CONTAINERS = (dict, list, tuple)
_SCALARS = {int, float, str, bool, type(None)}


# json.dumps(value, allow_nan=False): strict JSON, so a NaN or infinite
# float raises ValueError instead of being spelled NaN or Infinity
_dumps = json.JSONEncoder(allow_nan=False).encode

# an array of fewer cells is written as its list: the C encoder formats so
# few floats faster than a sort finds the distinct ones
_UNIQUE_MIN_CELLS = 64
# a large array is written in blocks of about this many cells (its distinct
# values are spelled in blocks of as many), and an artifact is written in
# chunks of about this many characters
_BLOCK_CELLS = 2**11
_CHUNK_CHARS = 2**16
# a block of fewer distinct values is spelled by the C encoder, which is then
# the faster of the two
_SPELL_MIN_VALUES = 256

# the UCS-4 codes of "00" to "99", a pair to a uint64, then the same with the
# second digit and with both digits NUL, for a digit string's last pair
_PAIRS = np.array([[48 + v // 10, 48 + v % 10][:2 - nul] + [0] * nul
                   for nul in range(3) for v in range(100)],
                  dtype=np.uint32).view(np.uint64).ravel()


def _encoded(values: np.ndarray) -> list:
    """json's spelling of each float64 of `values`, by one C-encoder call."""
    return _dumps(values.tolist())[1:-1].split(", ")


def _scaled(x: np.ndarray, k: np.ndarray):
    """x·10**k as a double-double (hi, lo), exact to about 2**-104 relative,
    and 10**k rounded. 10**k is split into a rounded part and its rounded
    remainder, from exact integers, for each k in range; the product is
    Dekker's, with Veltkamp's splits (Numer. Math. 18, 1971)."""
    low, powers = int(k.min()), []
    for j in range(low, int(k.max()) + 1):
        num, den = (10**j, 1) if j >= 0 else (1, 10**-j)
        p, q = (num / den).as_integer_ratio()  # int division rounds correctly
        powers.append((p / q, (num * q - p * den) / (den * q)))
    ten, ten_lo = np.array(powers)[k - low].T

    def split(a):
        c = 134217729.0 * a  # 2**27 + 1
        hi = c - (c - a)
        return hi, a - hi

    (xh, xl), (th, tl) = split(x), split(ten)
    p = x * ten
    err = ((xh * th - p) + xh * tl + xl * th) + xl * tl + x * ten_lo
    hi = p + err
    return hi, err - (hi - p), ten


def _spell(values: np.ndarray) -> list:
    """json's spelling of each float64 of `values`: its shortest round-trip
    repr, as Python's correctly rounded dtoa writes it (Gay, 1990).

    y = |x|·10**(16-e), with e = floor(log10|x|), is formed exactly enough in
    double-double arithmetic to decide, for 17, 16 and 15 digits, the nearest
    decimal and whether it lies within the half gap (spacing(x)/2)·10**(16-e)
    about y; the fewest digits that do are repr's. A value whose decision lies
    within 1e-9 of a boundary, a power of two (whose gap is asymmetric), a
    value outside [1e-280, 1e280] (NaN, infinities and zeros too), one whose y
    is within a few units of 1e16 or 1e17, a decimal of at most 14 digits and
    an integer below 1e16 are spelled by `_encoded` instead, which also
    raises json's ValueError for a NaN or an infinity. Values sorted by bit
    pattern run fastest: one copy per run of one sign and layout.
    """
    size, bits = len(values), values.view(np.int64)
    ax = np.abs(values)
    fast = (ax >= 1e-280) & (ax <= 1e280)
    ax[~fast] = 1.5
    fast &= (bits & (2**52 - 1)) != 0
    e = np.floor(np.log10(ax)).astype(np.int64)
    yh, yl, ten = _scaled(ax, 16 - e)
    off = np.flatnonzero((yh < 1e16) | (yh >= 1e17))  # log10 rounded across a power
    if off.size:
        e[off] += np.where(yh[off] < 1e16, -1, 1)
        yh[off], yl[off], ten[off] = _scaled(ax[off], 16 - e[off])
    fast &= (yh > 1e16 + 4) & (yh < 1e17 - 256)
    whole = np.floor(yl)
    y_int, frac = yh.astype(np.int64) + whole.astype(np.int64), yl - whole
    half_gap = np.spacing(ax) * 0.5 * ten
    # 17 digits always round-trip: y >= 1e16 puts the half gap above 0.55
    digits, zeros = y_int + (frac > 0.5), np.zeros(size, dtype=np.int64)
    fast &= np.abs(frac - 0.5) > 1e-9
    for z, s in ((1, 10), (2, 100)):  # 16 and 15 digits
        rem = y_int % s
        t = rem + frac
        up = t > s / 2
        dist = np.abs(t - s * up)
        fast &= (np.abs(t - s / 2) > 1e-9) & (np.abs(dist - half_gap) > 1e-9)
        inside = dist < half_gap
        digits = np.where(inside, y_int - rem + s * up, digits)
        zeros[inside] = z
    fast &= (digits % 1000 != 0) & ((e >= 16) | (e + zeros < 16))
    digits[~fast] = 10**16
    codes = np.empty((size, 9), dtype=np.uint64)
    rest = digits // 100
    codes[:, 8] = _PAIRS[zeros * 100 + digits - rest * 100]
    for j in range(7, -1, -1):
        digits, rest = rest, rest // 100
        codes[:, j] = _PAIRS[digits - rest * 100]
    chars = codes.view(np.uint32)[:, 1:]  # 17 digits, the trailing zeros NUL
    neg, sci = bits < 0, (e < -4) | (e >= 16)
    key = np.where(sci, 99, e) * 2 + neg
    starts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), size]
    text = np.zeros((size, 24), dtype=np.uint32)
    for lo, hi in zip(starts, starts[1:]):
        ex, sign = divmod(int(key[lo]), 2)
        if sign:
            text[lo:hi, 0] = ord("-")
        row = text[lo:hi, sign:]
        if ex < 0:  # 0.000ddd
            row[:, :1 - ex] = ord("0")
            row[:, 1] = ord(".")
            row[:, 1 - ex:18 - ex] = chars[lo:hi]
        else:  # d.ddd before an exponent, or ddd.ddd
            point = 1 if ex == 99 else ex + 1
            row[:, :point] = chars[lo:hi, :point]
            row[:, point] = ord(".")
            row[:, point + 1:18] = chars[lo:hi, point:]
    rows = np.flatnonzero(sci)
    if rows.size:  # the exponent, after the last digit
        low = int(e[rows].min())
        exponents = np.array([[ord(c) for c in f"e{k:+03d}".ljust(5, "\0")]
                              for k in range(low, int(e[rows].max()) + 1)], dtype=np.uint32)
        at = rows * 24 + neg[rows] + 18 - zeros[rows]
        text.ravel()[at[:, None] + np.arange(5)] = exponents[e[rows] - low]
    spelled = text.view("U24").ravel().tolist()
    slow = np.flatnonzero(~fast)
    if slow.size:
        for i, word in zip(slow.tolist(), _encoded(values[slow])):
            spelled[i] = word
    return spelled


def _array_pieces(a: np.ndarray, newline: str):
    """Pieces of a 1-D or 2-D float64 array written as its nested list.

    json spells a float by its shortest round-trip repr, a function of its
    bits alone, so each distinct bit pattern is spelled once, by `_spell` a
    block of `_BLOCK_CELLS` at a time; comparing bits keeps -0.0 apart from
    0.0. Cells are gathered from those strings by a binary search of their bit
    patterns, a block of about `_BLOCK_CELLS` cells at a time, so no index or
    string array of the whole array is kept.
    """
    if a.size < _UNIQUE_MIN_CELLS:
        yield from _json_pieces(a.tolist(), newline)
        return
    bits = a.view(np.int64)
    ordered = np.sort(bits, axis=None)
    new = np.empty(ordered.size, dtype=bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    distinct = ordered[new]
    del ordered, new
    spelled = np.empty(len(distinct), dtype=object)
    for start in range(0, len(distinct), _BLOCK_CELLS):
        block = distinct[start:start + _BLOCK_CELLS].view(np.float64)
        spelled[start:start + len(block)] = (
            _spell(block) if len(block) >= _SPELL_MIN_VALUES else _encoded(block))

    def cells(block_bits):
        # as lists: str.join reads a list faster than an object array
        return spelled[np.searchsorted(distinct, block_bits)].tolist()

    inner = newline + "  "
    if a.ndim == 1:
        separator = "," + inner
        opener = "[" + inner
        for start in range(0, len(bits), _BLOCK_CELLS):
            yield opener + separator.join(cells(bits[start:start + _BLOCK_CELLS]))
            opener = separator
        yield newline + "]"
        return
    cell = inner + "  "
    separator = "," + cell
    opener = "[" + inner
    rows = max(1, _BLOCK_CELLS // bits.shape[1])
    for start in range(0, len(bits), rows):
        yield opener + ("," + inner).join(
            "[" + cell + separator.join(row) + inner + "]"
            for row in cells(bits[start:start + rows]))
        opener = "," + inner
    yield newline + "]"


def _json_pieces(value, newline: str):
    """Pieces of json.dumps(value, sort_keys=True, allow_nan=False) indented
    by two spaces.

    `newline` is "\n" plus the current indentation. The standard library
    writes indented JSON with its pure-Python encoder; here each flat list of
    plain scalars goes to the C encoder in one call instead, with the newline
    and indentation folded into its item separator, and a 1-D or 2-D float64
    array is written as its nested list by `_array_pieces`. Any other array
    is refused as json.dumps refuses it.
    """
    if (isinstance(value, np.ndarray) and value.dtype == np.float64
            and value.ndim in (1, 2)):
        yield from _array_pieces(value, newline)
        return
    if not isinstance(value, _CONTAINERS):
        yield _dumps(value)
        return
    if not value:
        yield "{}" if isinstance(value, dict) else "[]"
        return
    inner = newline + "  "
    if isinstance(value, dict):
        # non-str keys are written as the standard library writes them
        entries = ((_dumps(k if isinstance(k, str) else _dumps(k)) + ": ", v)
                   for k, v in sorted(value.items()))
        brackets = "{}"
    elif set(map(type, value)) <= _SCALARS:
        body = json.dumps(value, allow_nan=False, separators=("," + inner, ": "))
        yield "[" + inner + body[1:-1] + newline + "]"
        return
    else:
        entries = (("", v) for v in value)
        brackets = "[]"
    yield brackets[0]
    separator = inner
    for prefix, item in entries:
        if type(item) in _SCALARS:  # one piece, without a nested generator
            yield separator + prefix + _dumps(item)
        else:
            yield separator + prefix
            yield from _json_pieces(item, inner)
        separator = "," + inner
    yield newline + brackets[1]


def _json_chunks(payload: dict):
    """Artifact bytes in chunks of about `_CHUNK_CHARS`: sorted keys,
    two-space indentation, floats by repr."""
    batch, size = [], 0
    for piece in _json_pieces(payload, "\n"):
        batch.append(piece)
        size += len(piece)
        if size >= _CHUNK_CHARS:
            yield "".join(batch).encode("utf-8")
            batch, size = [], 0
    batch.append("\n")
    yield "".join(batch).encode("utf-8")


def _state_from_config(entries):
    states = []
    for entry in entries:
        if isinstance(entry, str):
            states.append(entry)
        else:
            states.append(np.array([complex(re, im) for re, im in entry]))
    return states


def emit_plot_data(entries) -> bytes:
    """Tidy long-format CSV for scaling plots; header-only when empty."""
    rows = [["N", "D", "mode", "case", "rate", "fit_model", "fit_param"]]
    for e in entries:
        rows.append([e["N"], e["D"], e["mode"], e["case"], repr(e["rate"]),
                     e["fit_model"], repr(e["fit_param"])])
    return _csv_bytes(rows)


# -- per-kind runners: (params, convention) -> {suffix: artifact} ---------------
# An artifact is CSV rows (a list), a JSON payload without its "meta" block (a
# dict) or finished bytes; run_scenario names, filters, encodes and writes them.

def _run_rates(params, convention):
    array = _build_geometry(params["geometry"], convention)
    g = pair_rate_matrix(array)
    if params["case"] == "given-rates":
        report = dephasing_given_rates(g, _build_gamma(params["gamma"]))
        if report.mode != params["mode"]:
            raise ValueError("gamma block does not match the requested mode")
    else:
        report = _CLOSED_FORMS[(params["mode"], params["case"])](g)
    return {".csv": report.csv_rows(), ".json": {"report": report._json_fields()}}


def _run_optimize(params, convention):
    array = _build_geometry(params["geometry"], convention)
    g = pair_rate_matrix(array)
    rates, report = optimize_rates(g, params["mode"])
    return {".csv": report.csv_rows(),
            ".json": {"optimal_rates": rates._json_fields(),
                      "achieved": report._json_fields(),
                      "objective": report.objective()}}


# the runners below import the modules only their kind uses, when they run

def _run_scaling(params, convention):
    from .continuum import fit_scaling, scaling_rate_sweep

    omega = float(apply_convention(params.get("quoted_frequency", 1e15),
                                   convention))
    dim = params["dimension"]
    mode, case = params["mode"], params["case"]
    points = scaling_rate_sweep(dim, mode, case, omega,
                                L_c=params.get("lattice_constant", 1.0),
                                sides=params.get("sides"))
    fit = fit_scaling([(p.N, p.rate) for p in points])
    rows = [["N", "exact_sum", "continuum_estimate", "ratio",
             "fitted_model", "parameter", "mode", "case", "convention"]]
    for p in points:
        rows.append([p.N, repr(p.exact_sum), repr(p.continuum_estimate),
                     repr(p.ratio), fit.model, repr(fit.parameter),
                     mode, case, convention.value])
    plot = emit_plot_data([
        {"N": p.N, "D": dim, "mode": mode, "case": case, "rate": p.rate,
         "fit_model": fit.model, "fit_param": fit.parameter}
        for p in points
    ])
    return {".csv": rows, "_plot.csv": plot, ".json": {
        "dimension": dim, "mode": mode, "case": case,
        "fit": {"model": fit.model, "parameter": fit.parameter,
                "residual": fit.residual,
                "ranking": [[m, r] for m, r in fit.ranking]},
        "points": [{"N": p.N, "exact_sum": p.exact_sum,
                    "continuum_estimate": p.continuum_estimate,
                    "ratio": p.ratio, "rate": p.rate} for p in points],
    }}


def _run_simulate(params, convention):
    from .lindblad import (EXPORT_CLOCK_LIMIT, DensityMatrix, coherence_decay_rate,
                           dimensionless_model, evolve_exact, product_state_coherence)

    coupling = params.get("coupling_matrix", [[0.0, 1.0], [1.0, 0.0]])
    gamma = params.get("gamma", "optimal")
    rates = gamma if gamma == "optimal" else _build_gamma(gamma)
    model = dimensionless_model(coupling, kind=params["kind"],
                                omegas=params.get("omegas"),
                                rates=None if params["kind"] == "unitary" else rates)
    states = _state_from_config(params["initial_state"])
    export = params.get("export_density_matrix", False)
    if export and model.n_clocks > EXPORT_CLOCK_LIMIT:
        raise ValueError(f"JSON export is limited to {EXPORT_CLOCK_LIMIT} clocks")
    t = params["times"]
    with np.errstate(invalid="ignore"):  # a non-finite stop is refused below
        times = np.linspace(t.get("start", 0.0), t["stop"], t["num"])
    trace = product_state_coherence(model, states, times)
    summary = {
        "kind": params["kind"],
        "n_clocks": model.n_clocks,
        "per_clock_dephasing": model.per_clock_dephasing,
        "time_unit_s": model.time_unit,
    }
    if params.get("fit_decay", True):
        clock = params.get("fit_clock", 0)
        try:
            summary["fitted_decay_rate"] = float(
                coherence_decay_rate(trace, clock=clock))
            summary["fit_error"] = None
        except ValueError as exc:
            summary["fitted_decay_rate"] = None
            summary["fit_error"] = str(exc)
    out = {".csv": trace.csv_rows(), ".json": summary}
    if export:
        final = evolve_exact(DensityMatrix.from_qubit_states(states), model,
                             float(times[-1]))
        out["_rho.json"] = {"time": float(times[-1]), "rho": final.to_json_dict()}
    return out


def _run_redshift(params, convention):
    from .redshift import (CompositeBody, ExplicitAtoms, composite_dephasing,
                           shell_dephasing, simple_particle_dephasing)

    omega = apply_convention(params["quoted_frequency"], convention)
    body = params["body"]
    gz = params["gamma_clock"]
    if body["kind"] == "shell":
        result = shell_dephasing(body["inner_radius"], body["outer_radius"],
                                 omega, gz, convention=convention)
    elif body["kind"] == "simple":
        result = simple_particle_dephasing(body["mass"], body["distance"],
                                           omega, body["gamma_position"], gz,
                                           convention=convention)
    else:
        comp = CompositeBody(body["atom_mass"], body["lattice_constant"],
                             ExplicitAtoms(body["positions"]))
        result = composite_dephasing(comp, body["clock_position"], omega, gz,
                                     convention=convention)
    return {".json": {"dephasing": result._json_fields()}}


def _run_paper_report(params, convention):
    from .report import paper_report

    report = paper_report()
    return {".csv": report.csv_rows(), ".json": {"report": report.to_json_dict()}}


# kind -> (runner, default stem, default format, suffixes written in every
# format, whether "meta" names the convention); any other suffix is written
# when the format is "both" or its extension
_RUNNERS = {
    "rates": (_run_rates, "rates", "both", (), True),
    "optimize": (_run_optimize, "optimize", "json", (), True),
    "scaling-sweep": (_run_scaling, "scaling", "both", (), True),
    "simulate": (_run_simulate, "simulate", "both", ("_rho.json",), True),
    "redshift": (_run_redshift, "redshift", "json", (".json",), True),
    "paper-report": (_run_paper_report, "paper_report", "both", (), False),
}

_CONVENTION_SUFFIX = {
    FrequencyConvention.DIRECT: "direct",
    FrequencyConvention.TIMES_TWO_PI: "2pi",
}


def run_scenario(config: dict | str | Path, out_dir: str | Path,
                 convention_override: str | None = None) -> list[Path]:
    """Validate a scenario, run it, and write its artifacts into out_dir.

    Returns the written paths. Identical configs produce byte-identical files.
    """
    if not isinstance(config, dict):
        config = json.loads(Path(config).read_text(encoding="utf-8"))
    validate_scenario(config)
    kind = config["kind"]
    runner, default_stem, default_fmt, every_format, names_convention = _RUNNERS[kind]
    out_block = config.get("output", {})
    stem = out_block.get("stem", default_stem)
    fmt = out_block.get("format", default_fmt)
    requested = convention_override or config.get("convention", "direct")
    if requested == "both":
        conventions = [FrequencyConvention.DIRECT,
                       FrequencyConvention.TIMES_TWO_PI]
    else:
        conventions = [FrequencyConvention.parse(requested)]

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = _as_ints(config.get("parameters", {}), _PARAMETER_SCHEMAS[kind])
    written = []
    try:
        for conv in conventions:
            conv_stem = stem if len(conventions) == 1 \
                else f"{stem}_{_CONVENTION_SUFFIX[conv]}"
            meta = {"package": "ccgclocks", "version": __version__}
            if names_convention:
                meta["convention"] = conv.value
            artifacts = {conv_stem + suffix: data
                         for suffix, data in runner(params, conv).items()
                         if fmt == "both" or suffix.endswith("." + fmt)
                         or suffix in every_format}
            for name in sorted(artifacts):
                data, path = artifacts[name], out_dir / name
                chunks = (_json_chunks({"meta": meta, **data}) if isinstance(data, dict)
                          else [_csv_bytes(data) if isinstance(data, list) else data])
                with path.open("wb") as f:
                    written.append(path)
                    f.writelines(chunks)
    except BaseException:
        # all or nothing: a JSON artifact is formatted as it is written, so a
        # refusal can come partway through a file, or in a later convention
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return written
