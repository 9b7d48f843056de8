"""Comparison of computed rates against published headline estimates.

The claims are one table, `_CLAIMS`. Each parameter preset is evaluated once
per frequency convention and yields rows for its claims, under both channel
modes (and lattice dimensions) where the arrangement is ambiguous.
Disagreements are reported as data, never corrected: the row closest to the
reference value is marked, and the claim status is graded as reproduced
(within x10), order-compatible (within x100) or discrepant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import FrequencyConvention, apply_convention, dephasing_prefactor
from .continuum import _CENTER_RATES, SOLID_ANGLE, continuum_sum
from .geometry import ClockSpec
from .geometry import pair_interaction_rate as _pair_rate
from .redshift import bound_parameters

CONVENTIONS = (FrequencyConvention.DIRECT, FrequencyConvention.TIMES_TWO_PI)

# Parameter sets the claims refer to.
PRESETS = {
    "petahertz-pair": {"quoted_frequency": 1e15, "separation": 300e-9},
    "optical-lattice-1e6": {"quoted_frequency": 1e15, "lattice_constant": 800e-9,
                            "n_clocks": 1e6},
    "dense-matter-1e23": {"quoted_frequency": 1e26, "lattice_constant": 1e-15,
                          "n_clocks": 1e23},
    "silver-mossbauer": {"quoted_frequency": 8e17, "lattice_constant": 1e-10,
                         "n_clocks": 6.02214076e23},
    "earth-clock": {"quoted_frequency": 1e15, "mass": 5.97e24,
                    "distance": 6.371e6, "dephasing_cap": 1e-4},
}


@dataclass(frozen=True)
class ClaimRow:
    convention: str
    mode: str
    dimension: int | None
    formula_id: str
    value: float
    fold_difference: float
    closest: bool = False


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    description: str
    reference_value: float
    unit: str
    status: str
    rows: tuple[ClaimRow, ...]

    def closest_row(self) -> ClaimRow:
        return next(r for r in self.rows if r.closest)


@dataclass(frozen=True)
class PaperReport:
    entries: tuple[ClaimResult, ...]

    def claim(self, claim_id: str) -> ClaimResult:
        for entry in self.entries:
            if entry.claim_id == claim_id:
                return entry
        raise KeyError(claim_id)

    def to_json_dict(self) -> dict:
        # the fields are strs, numbers, bools and None: one shallow copy each
        return {"entries": [{**vars(e), "rows": [vars(r).copy() for r in e.rows]}
                            for e in self.entries]}

    def csv_rows(self) -> list[list]:
        rows = [["claim_id", "description", "reference_value", "unit",
                 "convention", "mode", "dimension", "formula_id",
                 "computed_value", "fold_difference", "closest", "status"]]
        for e in self.entries:
            for r in e.rows:
                rows.append([
                    e.claim_id, e.description, repr(e.reference_value), e.unit,
                    r.convention, r.mode,
                    "" if r.dimension is None else r.dimension,
                    r.formula_id, repr(r.value), repr(r.fold_difference),
                    str(r.closest).lower(), e.status,
                ])
        return rows


def _fold(value: float, reference: float) -> float:
    if value <= 0 or reference <= 0:
        return math.inf
    return max(value / reference, reference / value)


def _grade(fold: float) -> str:
    if fold <= 10.0:
        return "reproduced"
    if fold <= 100.0:
        return "order-compatible"
    return "discrepant"


def _finish(claim_id, description, reference, unit, raw_rows) -> ClaimResult:
    folds = [_fold(v, reference) for (_, _, _, _, v) in raw_rows]
    best = min(range(len(folds)), key=lambda k: folds[k])
    rows = tuple(
        ClaimRow(convention=c, mode=m, dimension=d, formula_id=f, value=v,
                 fold_difference=folds[k], closest=(k == best))
        for k, (c, m, d, f, v) in enumerate(raw_rows)
    )
    return ClaimResult(claim_id=claim_id, description=description,
                       reference_value=reference, unit=unit,
                       status=_grade(folds[best]), rows=rows)


def array_minimum_rate(n_clocks: float, dimension: int, lattice_constant: float,
                       omega: float, mode: str) -> float:
    """Continuum estimate of the center-clock minimum dephasing rate.

    mode "pairwise" uses the free per-pair optimum (alpha = 1 sum); "global"
    the free per-clock optimum (square root of the alpha = 2 sum). Large-N
    estimates are only available through the continuum integral.
    """
    if (mode, "A-free") not in _CENTER_RATES:
        raise ValueError(f"unknown mode {mode!r}")
    alpha, center_rate = _CENTER_RATES[mode, "A-free"]
    n = int(n_clocks) if n_clocks == int(n_clocks) else n_clocks
    s = continuum_sum(n, dimension, lattice_constant, alpha).value
    return dephasing_prefactor(omega) * center_rate(s, n)


def atoms_for_target_rate(target_rate: float, dimension: int,
                          lattice_constant: float, omega: float,
                          mode: str) -> float:
    """Invert the continuum estimate: atom count at which the center-clock
    minimum reaches the target rate."""
    if not target_rate > 0:
        raise ValueError("target rate must be positive")
    k = dephasing_prefactor(omega)
    s_d = SOLID_ANGLE[dimension]
    lc = lattice_constant
    if dimension != 3:
        raise ValueError("the atom-count inversion is defined for 3D bodies")
    if mode == "pairwise":
        # rate = k * (s_d / lc) * (N^(2/3) - 1) / 2
        base = 2.0 * target_rate * lc / (k * s_d) + 1.0
        return base ** 1.5
    if mode == "global":
        # rate = k * sqrt(s_d * (N^(1/3) - 1)) / lc
        base = (target_rate * lc / k) ** 2 / s_d + 1.0
        return base ** 3
    raise ValueError(f"unknown mode {mode!r}")


# (claim id, description, reference value, unit), in report order
_CLAIMS = (
    ("two-clock-300nm", "minimum dephasing rate of two petahertz clocks 300 nm apart",
     1e-42, "Hz"),
    ("fractional-uncertainty", "fractional frequency uncertainty needed to observe "
     "the two-clock rate", 1e-57, "dimensionless"),
    ("array-1e6-800nm", "minimum dephasing rate for 10^6 lattice clocks at 800 nm "
     "spacing", 1e-40, "Hz"),
    ("array-1e23-1fm", "minimum dephasing rate for 10^23 high-frequency clocks at "
     "1 fm spacing", 1.0, "Hz"),
    ("mossbauer-linewidth", "minimum gamma-ray linewidth for one mole of metallic "
     "silver", 1e-11, "Hz"),
    ("mossbauer-atom-count", "silver atom count at which the linewidth reaches 1 mHz",
     1e36, "atoms"),
    ("earth-gamma-i", "lower bound on the position measurement rate from clock "
     "experiments", 10.0, "Hz m^-2"),
    ("earth-gamma-z", "upper bound on the clock measurement rate from clock "
     "experiments", 1e-4, "Hz"),
)

_FREE_MINIMA = (("pairwise", "pairwise-free-min"), ("global", "global-free-min"))


def _pair_rows(p, w):
    rate = float(_pair_rate(ClockSpec(w, (0.0, 0.0, 0.0)),
                            ClockSpec(w, (p["separation"], 0.0, 0.0)))) / 2.0
    return [("two-clock-300nm", "pairwise", None, "pair-rate-half", rate),
            ("fractional-uncertainty", "pairwise", None, "rate-over-omega", rate / w)]


def _array_rows(claim_id, dimensions):
    def rows(p, w):
        return [(claim_id, mode, dim, formula + "-continuum",
                 array_minimum_rate(p["n_clocks"], dim, p["lattice_constant"], w, mode))
                for mode, formula in _FREE_MINIMA for dim in dimensions]
    return rows


def _silver_rows(p, w):
    return _array_rows("mossbauer-linewidth", (3,))(p, w) + [
        ("mossbauer-atom-count", mode, 3, formula + "-inverted",
         atoms_for_target_rate(1e-3, 3, p["lattice_constant"], w, mode))
        for mode, formula in _FREE_MINIMA]


def _earth_rows(p, w):
    gi, gz = bound_parameters(p["dephasing_cap"], p["mass"], p["distance"], w)
    return [("earth-gamma-i", "global", None, "bound-feedback-term", float(gi)),
            ("earth-gamma-z", "global", None, "bound-measurement-term", float(gz))]


# preset -> evaluator of (preset, angular frequency) into
# (claim id, mode, dimension, formula id, value) rows
_EVALUATORS = {
    "petahertz-pair": _pair_rows,
    "optical-lattice-1e6": _array_rows("array-1e6-800nm", (1, 2, 3)),
    "dense-matter-1e23": _array_rows("array-1e23-1fm", (3,)),
    "silver-mossbauer": _silver_rows,
    "earth-clock": _earth_rows,
}


def paper_report() -> PaperReport:
    """Evaluate every headline claim under all relevant combinations: each
    preset once per convention, the rows gathered per claim."""
    rows = {claim[0]: [] for claim in _CLAIMS}
    for conv in CONVENTIONS:
        for key, evaluate in _EVALUATORS.items():
            p = PRESETS[key]
            w = float(apply_convention(p["quoted_frequency"], conv))
            for claim_id, *row in evaluate(p, w):
                rows[claim_id].append((conv.value, *row))
    return PaperReport(entries=tuple(_finish(*claim, rows[claim[0]]) for claim in _CLAIMS))
