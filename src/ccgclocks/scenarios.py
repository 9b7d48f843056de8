"""Scenario configs: schema validation, dispatch and deterministic outputs.

A scenario is a JSON document with a `kind`, optional `convention` and
`output` blocks, and kind-specific `parameters`. Validation is strict
(unknown keys are rejected) and every emitted file is byte-identical across
reruns of the same config: floats are written with repr, JSON keys are
sorted, and CSV rows end with CRLF.

A checker written here decides, as Draft 2020-12 would, that a config is
valid; jsonschema is imported only to explain a config the checker refuses,
so every error message and path is jsonschema's. A runner imports the
modules its kind uses when it runs.

A JSON artifact is strict JSON: it equals
json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n" byte
for byte, where each float array in the payload stands for its nested list,
and a NaN or infinity raises ValueError. The runners hand rate vectors and
matrices to the writer as float64 arrays, and the writer formats each
distinct bit pattern once. That gives the same bytes, because json spells a
float by its shortest round-trip repr, a function of the float's bits alone.
Rate matrices repeat few values (lattice distances, a B-fixed scalar, the
two halves of a symmetric matrix), so a large one costs about one repr per
distinct value.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from .constants import FrequencyConvention, apply_convention
from .geometry import ClockArray, build_lattice, pair_rate_matrix
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
    """Indices of the elements of `instance` that jsonschema must check
    against `items`, when `items` is {"type": "number"} or an array of such
    with no keyword but minItems/maxItems; else None. Every other element is
    a plain int or float, or a list of them of allowed length: no error."""
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


# -- acceptance: decided here, without jsonschema ---------------------------------

class _Unsure(Exception):
    """A value of a type JSON does not parse to: jsonschema decides."""


_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean",
               type(None): "null", int: "integer", float: "number"}


def _equal(x, value) -> bool:
    """enum/const equality: True is not 1, but 1.0 is."""
    return x == value and (type(x) is bool) == (type(value) is bool)


def _valid(x, schema) -> bool:
    """Whether `x` is valid against `schema` as Draft 2020-12 decides, for
    the keywords the scenario schemas use; any other keyword is a KeyError.

    Raises _Unsure for a value that is not a plain dict, list, str, int,
    float, bool or None, so that no `oneOf` count rests on a guess.
    """
    if isinstance(schema, bool):
        return schema
    t = type(x)
    if t not in _JSON_TYPES:
        raise _Unsure
    number, size = t in _PLAIN_NUMBERS, len(x) if t in (list, str) else 0
    for key, value in schema.items():
        if key == "type":
            kind = _JSON_TYPES[t]
            ok = (kind == value or (kind, value) == ("integer", "number")
                  or ((kind, value) == ("number", "integer") and x.is_integer()))
        elif key in ("enum", "const"):
            ok = any(_equal(x, v) for v in (value if key == "enum" else [value]))
        elif key == "oneOf":
            ok = sum(_valid(x, branch) for branch in value) == 1
        elif key in ("minimum", "exclusiveMinimum"):  # NaN passes both
            ok = not number or not (x < value if key == "minimum" else x <= value)
        elif key in ("minItems", "maxItems", "minLength"):
            ok = t is not (str if key == "minLength" else list) or (
                size <= value if key == "maxItems" else size >= value)
        elif key == "items":
            offenders = () if t is not list else _offenders(value, x)
            ok = all(_valid(x[k], value)
                     for k in (range(size) if offenders is None else offenders))
        elif key == "required":
            ok = t is not dict or all(k in x for k in value)
        elif key == "properties":
            ok = t is not dict or all(_valid(x[k], s) for k, s in value.items() if k in x)
        elif key == "additionalProperties":
            extras = x.keys() - schema.get("properties", {}) if t is dict else ()
            ok = all(_valid(x[k], value) for k in extras)
        elif key == "$schema":
            ok = True
        else:
            raise KeyError(f"schema keyword {key!r} is not checked here")
        if not ok:
            return False
    return True


def _rule_error(kind: str, params: dict):
    """(message, path) of the first rule a schema cannot state, or None."""
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


def _accepts(config) -> bool:
    """Whether validate_scenario accepts `config`, decided without jsonschema."""
    try:
        if not _valid(config, SCENARIO_SCHEMA):
            return False
        kind, params = config["kind"], config.get("parameters", {})
        return _valid(params, _PARAMETER_SCHEMAS[kind]) and _rule_error(kind, params) is None
    except _Unsure:
        return False


# -- rejection: explained by jsonschema ---------------------------------------------

@functools.cache
def _validator_class():
    """Draft 2020-12 with a one-pass `items`; jsonschema is imported here."""
    import jsonschema

    draft_items = jsonschema.Draft202012Validator.VALIDATORS["items"]

    def items(validator, items, instance, schema):
        # hands jsonschema only the elements that `_offenders` names, in order
        # and with their index as path, as its own keyword does; so errors
        # are the same
        offenders = None
        if type(instance) is list and "prefixItems" not in schema:
            offenders = _offenders(items, instance)
        if offenders is None:
            yield from draft_items(validator, items, instance, schema)
            return
        for k in offenders:
            yield from validator.descend(instance[k], items, path=k)

    return jsonschema.validators.extend(jsonschema.Draft202012Validator,
                                        {"items": items})


@functools.cache
def _validator(kind: str | None = None):
    """Validator of the top level (kind None) or of a kind's parameters;
    the schemas are checked against the meta-schema by the tests."""
    return _validator_class()(SCENARIO_SCHEMA if kind is None
                              else _PARAMETER_SCHEMAS[kind])


def validate_scenario(config: dict) -> None:
    """Validate a scenario config; raises jsonschema.ValidationError.

    A config is accepted without importing jsonschema when `_accepts` says
    so; any other is walked by jsonschema, whose error is raised.
    """
    if _accepts(config):
        return
    import jsonschema

    error = jsonschema.exceptions.best_match(_validator().iter_errors(config))
    if error is not None:
        raise error
    kind = config["kind"]
    params = config.get("parameters", {})
    errors = list(_validator(kind).iter_errors(params))
    if errors:  # the first by str, which pretty-prints the instance: only if several
        error = min(errors, key=str) if len(errors) > 1 else errors[0]
        error.path.appendleft("parameters")
        raise error
    rule = _rule_error(kind, params)
    if rule is not None:
        raise jsonschema.ValidationError(rule[0], path=rule[1])


# -- builders ------------------------------------------------------------------

def _build_geometry(block: dict, convention: FrequencyConvention) -> ClockArray:
    # apply_convention(f) is factor * f, the factor 1 or 2 pi, bit for bit
    factor = float(apply_convention(1.0, convention))
    if "lattice" in block:
        lat = block["lattice"]
        return build_lattice(lat["dimension"], lat["lattice_constant"],
                             lat["counts"], factor * lat["quoted_frequency"],
                             convention=convention)
    clocks = block["clocks"]
    return ClockArray([factor * c["quoted_frequency"] for c in clocks],
                      [c["position"] for c in clocks],
                      [c.get("rest_mass") for c in clocks], convention=convention)


def _build_gamma(block: dict) -> MeasurementRates:
    mode = "pairwise" if "pairwise" in block else "global"
    return MeasurementRates(mode, **{f"{mode}_gamma": np.array(block[mode], float)})


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
# few floats faster than np.unique finds the distinct ones, and a process that
# writes only small arrays never maps np.unique's kernels (1.7 MB of RSS)
_UNIQUE_MIN_CELLS = 64


def _array_pieces(a: np.ndarray, newline: str):
    """Pieces of a 1-D or 2-D float64 array written as its nested list.

    json spells a float by its shortest round-trip repr, a function of its
    bits alone, so each distinct bit pattern is formatted once, by one
    C-encoder call; comparing bits keeps -0.0 apart from 0.0. Each row is
    gathered from those strings by a binary search of its bit patterns and
    yielded on its own, so no N x N index or string array is kept.
    """
    if a.size < _UNIQUE_MIN_CELLS:
        yield from _json_pieces(a.tolist(), newline)
        return
    bits = a.view(np.int64)
    distinct = np.unique(bits)
    spelled = np.array(_dumps(distinct.view(np.float64).tolist())[1:-1].split(", "),
                       dtype=object)

    def line(row_bits, row_newline):
        cell = row_newline + "  "
        return ("[" + cell + ("," + cell).join(spelled[np.searchsorted(distinct, row_bits)])
                + row_newline + "]")

    if a.ndim == 1:
        yield line(bits, newline)
        return
    inner = newline + "  "
    separator = "[" + inner
    for row in bits:
        yield separator + line(row, inner)
        separator = "," + inner
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
        yield separator + prefix
        yield from _json_pieces(item, inner)
        separator = "," + inner
    yield newline + brackets[1]


def _json_bytes(payload: dict) -> bytes:
    """Artifact bytes: sorted keys, two-space indentation, floats by repr."""
    return ("".join(_json_pieces(payload, "\n")) + "\n").encode("utf-8")


def _meta(convention: FrequencyConvention | None) -> dict:
    meta = {"package": "ccgclocks", "version": __version__}
    if convention is not None:
        meta["convention"] = convention.value
    return meta


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


# -- per-kind runners (return {filename: bytes}) --------------------------------

def _run_rates(params, convention, stem, fmt):
    array = _build_geometry(params["geometry"], convention)
    g = pair_rate_matrix(array)
    if params["case"] == "given-rates":
        report = dephasing_given_rates(g, _build_gamma(params["gamma"]))
        if report.mode != params["mode"]:
            raise ValueError("gamma block does not match the requested mode")
    else:
        report = _CLOSED_FORMS[(params["mode"], params["case"])](g)
    out = {}
    if fmt in ("csv", "both"):
        out[f"{stem}.csv"] = _csv_bytes(report.csv_rows())
    if fmt in ("json", "both"):
        out[f"{stem}.json"] = _json_bytes(
            {"meta": _meta(convention), "report": report._json_fields()})
    return out


def _run_optimize(params, convention, stem, fmt):
    array = _build_geometry(params["geometry"], convention)
    g = pair_rate_matrix(array)
    rates, report = optimize_rates(g, params["mode"])
    out = {}
    if fmt in ("csv", "both"):
        out[f"{stem}.csv"] = _csv_bytes(report.csv_rows())
    if fmt in ("json", "both"):
        out[f"{stem}.json"] = _json_bytes({
            "meta": _meta(convention),
            "optimal_rates": rates._json_fields(),
            "achieved": report._json_fields(),
            "objective": report.objective(),
        })
    return out


# the runners below import the modules only their kind uses, when they run

def _run_scaling(params, convention, stem, fmt):
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
    out = {}
    if fmt in ("csv", "both"):
        out[f"{stem}.csv"] = _csv_bytes(rows)
        out[f"{stem}_plot.csv"] = plot
    if fmt in ("json", "both"):
        out[f"{stem}.json"] = _json_bytes({
            "meta": _meta(convention),
            "dimension": dim, "mode": mode, "case": case,
            "fit": {"model": fit.model, "parameter": fit.parameter,
                    "residual": fit.residual,
                    "ranking": [[m, r] for m, r in fit.ranking]},
            "points": [{"N": p.N, "exact_sum": p.exact_sum,
                        "continuum_estimate": p.continuum_estimate,
                        "ratio": p.ratio, "rate": p.rate} for p in points],
        })
    return out


def _run_simulate(params, convention, stem, fmt):
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
        "meta": _meta(convention),
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
    out = {}
    if fmt in ("csv", "both"):
        out[f"{stem}.csv"] = _csv_bytes(trace.csv_rows())
    if fmt in ("json", "both"):
        out[f"{stem}.json"] = _json_bytes(summary)
    if export:
        final = evolve_exact(DensityMatrix.from_qubit_states(states), model,
                             float(times[-1]))
        out[f"{stem}_rho.json"] = _json_bytes(
            {"meta": _meta(convention), "time": float(times[-1]),
             "rho": final.to_json_dict()})
    return out


def _run_redshift(params, convention, stem, fmt):
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
                             ExplicitAtoms(np.array(body["positions"], float)))
        result = composite_dephasing(comp, body["clock_position"], omega, gz,
                                     convention=convention)
    payload = {"meta": _meta(convention), "dephasing": result._json_fields()}
    return {f"{stem}.json": _json_bytes(payload)}


def _run_paper_report(params, convention, stem, fmt):
    from .report import paper_report

    report = paper_report()
    out = {}
    if fmt in ("csv", "both"):
        out[f"{stem}.csv"] = _csv_bytes(report.csv_rows())
    if fmt in ("json", "both"):
        out[f"{stem}.json"] = _json_bytes(
            {"meta": _meta(None), "report": report.to_json_dict()})
    return out


_RUNNERS = {
    "rates": (_run_rates, "rates", "both"),
    "optimize": (_run_optimize, "optimize", "json"),
    "scaling-sweep": (_run_scaling, "scaling", "both"),
    "simulate": (_run_simulate, "simulate", "both"),
    "redshift": (_run_redshift, "redshift", "json"),
    "paper-report": (_run_paper_report, "paper_report", "both"),
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
    runner, default_stem, default_fmt = _RUNNERS[kind]
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
    params = config.get("parameters", {})
    written = []
    for conv in conventions:
        conv_stem = stem if len(conventions) == 1 \
            else f"{stem}_{_CONVENTION_SUFFIX[conv]}"
        artifacts = runner(params, conv, conv_stem, fmt)
        for name in sorted(artifacts):
            path = out_dir / name
            path.write_bytes(artifacts[name])
            written.append(path)
    return written
