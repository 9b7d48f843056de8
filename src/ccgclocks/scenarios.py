"""Scenario configs: schema validation, dispatch and deterministic outputs.

A scenario is a JSON document with a `kind`, optional `convention` and
`output` blocks, and kind-specific `parameters`. Validation is strict
(unknown keys are rejected) and every emitted file is byte-identical across
reruns of the same config: floats are written with repr, JSON keys are
sorted, and CSV rows end with CRLF.

A JSON artifact equals json.dumps(payload, sort_keys=True, indent=2) + "\n"
byte for byte, where each float array in the payload stands for its nested
list. The runners hand rate vectors and matrices to the writer as float64
arrays, and the writer formats each distinct bit pattern once. That gives
the same bytes, because json spells a float by its shortest round-trip repr,
a function of the float's bits alone. Rate matrices repeat few values
(lattice distances, a B-fixed scalar, the two halves of a symmetric matrix),
so a large one costs about one repr per distinct value.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .constants import FrequencyConvention, apply_convention
from .continuum import fit_scaling, scaling_rate_sweep
from .geometry import ClockArray, ClockSpec, build_lattice, pair_rate_matrix
from .lindblad import (
    EXPORT_CLOCK_LIMIT,
    DensityMatrix,
    coherence_decay_rate,
    dimensionless_model,
    evolve_exact,
    product_state_coherence,
)
from .rates import (
    MeasurementRates,
    dephasing_given_rates,
    min_dephasing_global_A,
    min_dephasing_global_B,
    min_dephasing_pairwise_A,
    min_dephasing_pairwise_B,
    optimize_rates,
)
from .redshift import (
    CompositeBody,
    ExplicitAtoms,
    composite_dephasing,
    shell_dephasing,
    simple_particle_dephasing,
)
from .report import paper_report

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
_draft_items = jsonschema.Draft202012Validator.VALIDATORS["items"]


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


def _items(validator, items, instance, schema):
    """Draft 2020-12 `items` that hands jsonschema only the elements that
    `_offenders` names, in order and with their index as path, as
    jsonschema's own keyword does; so errors are the same."""
    offenders = None
    if type(instance) is list and "prefixItems" not in schema:
        offenders = _offenders(items, instance)
    if offenders is None:
        yield from _draft_items(validator, items, instance, schema)
        return
    for k in offenders:
        yield from validator.descend(instance[k], items, path=k)


_Validator = jsonschema.validators.extend(jsonschema.Draft202012Validator,
                                          {"items": _items})
# built once: the schemas are checked against the meta-schema by the tests
_SCENARIO_VALIDATOR = _Validator(SCENARIO_SCHEMA)
_PARAMETER_VALIDATORS = {kind: _Validator(schema)
                         for kind, schema in _PARAMETER_SCHEMAS.items()}


def validate_scenario(config: dict) -> None:
    """Validate a scenario config; raises jsonschema.ValidationError."""
    error = jsonschema.exceptions.best_match(_SCENARIO_VALIDATOR.iter_errors(config))
    if error is not None:
        raise error
    kind = config["kind"]
    params = config.get("parameters", {})
    errors = list(_PARAMETER_VALIDATORS[kind].iter_errors(params))
    if errors:  # the first by str, which pretty-prints the instance: only if several
        error = min(errors, key=str) if len(errors) > 1 else errors[0]
        error.path.appendleft("parameters")
        raise error
    if kind == "rates":
        case = params["case"]
        if case == "given-rates" and "gamma" not in params:
            raise jsonschema.ValidationError(
                "case 'given-rates' requires a gamma block",
                path=["parameters", "gamma"])
        if case != "given-rates" and "gamma" in params:
            raise jsonschema.ValidationError(
                f"case {case!r} takes no gamma block",
                path=["parameters", "gamma"])
    if kind == "scaling-sweep" and "sides" in params:
        for k, side in enumerate(params["sides"]):
            if side % 2 == 0:
                raise jsonschema.ValidationError(
                    f"sweep sides must be odd, got {side}",
                    path=["parameters", "sides", k])


# -- builders ------------------------------------------------------------------

def _build_geometry(block: dict, convention: FrequencyConvention) -> ClockArray:
    if "lattice" in block:
        lat = block["lattice"]
        return build_lattice(lat["dimension"], lat["lattice_constant"],
                             lat["counts"],
                             apply_convention(lat["quoted_frequency"], convention),
                             convention=convention)
    clocks = [
        ClockSpec(apply_convention(c["quoted_frequency"], convention),
                  tuple(c["position"]), c.get("rest_mass"))
        for c in block["clocks"]
    ]
    return ClockArray.from_clocks(clocks, convention=convention)


def _build_gamma(block: dict) -> MeasurementRates:
    if "pairwise" in block:
        return MeasurementRates("pairwise",
                                pairwise_gamma=np.array(block["pairwise"], float))
    return MeasurementRates("global",
                            global_gamma=np.array(block["global"], float))


def _csv_bytes(rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


_CONTAINERS = (dict, list, tuple)
_SCALARS = {int, float, str, bool, type(None)}


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
    spelled = np.array(json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", "),
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
    """Pieces of json.dumps(value, sort_keys=True) indented by two spaces.

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
        yield json.dumps(value)
        return
    if not value:
        yield "{}" if isinstance(value, dict) else "[]"
        return
    inner = newline + "  "
    if isinstance(value, dict):
        # non-str keys are written as the standard library writes them
        entries = ((json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": ", v)
                   for k, v in sorted(value.items()))
        brackets = "{}"
    elif set(map(type, value)) <= _SCALARS:
        body = json.dumps(value, separators=("," + inner, ": "))
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

_CLOSED_FORMS = {
    ("pairwise", "A-free"): min_dephasing_pairwise_A,
    ("global", "A-free"): min_dephasing_global_A,
    ("pairwise", "B-fixed"): min_dephasing_pairwise_B,
    ("global", "B-fixed"): min_dephasing_global_B,
}


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


def _run_scaling(params, convention, stem, fmt):
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
    coupling = params.get("coupling_matrix", [[0.0, 1.0], [1.0, 0.0]])
    gamma = params.get("gamma", "optimal")
    rates = gamma if gamma == "optimal" else _build_gamma(gamma)
    model = dimensionless_model(coupling, kind=params["kind"],
                                omegas=params.get("omegas"),
                                rates=None if params["kind"] == "unitary" else rates)
    states = _state_from_config(params["initial_state"])
    if len(states) != model.n_clocks:
        raise ValueError(
            f"initial_state has {len(states)} entries for {model.n_clocks} clocks")
    export = params.get("export_density_matrix", False)
    if export and model.n_clocks > EXPORT_CLOCK_LIMIT:
        raise ValueError(f"JSON export is limited to {EXPORT_CLOCK_LIMIT} clocks")
    t = params["times"]
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
    payload = {"meta": _meta(convention), "dephasing": result.to_json_dict()}
    return {f"{stem}.json": _json_bytes(payload)}


def _run_paper_report(params, convention, stem, fmt):
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
