"""Comparison of computed rates against published headline estimates.

Each claim is evaluated under both frequency conventions and, where the
channel arrangement is ambiguous, under both channel modes (and lattice
dimensions). Disagreements are reported as data, never corrected: the row
closest to the reference value is marked, and the claim status is graded as
reproduced (within x10), order-compatible (within x100) or discrepant.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .constants import FrequencyConvention, apply_convention, dephasing_prefactor
from .continuum import SOLID_ANGLE, continuum_sum
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
        return {"entries": [dict(asdict(e), rows=[asdict(r) for r in e.rows])
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
    n = int(n_clocks) if n_clocks == int(n_clocks) else n_clocks
    if mode == "pairwise":
        s = continuum_sum(n, dimension, lattice_constant, 1.0).value
        return dephasing_prefactor(omega) * s
    if mode == "global":
        s = continuum_sum(n, dimension, lattice_constant, 2.0).value
        return dephasing_prefactor(omega) * math.sqrt(s)
    raise ValueError(f"unknown mode {mode!r}")


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


def _two_clock_rows():
    p = PRESETS["petahertz-pair"]
    rows = []
    for conv in CONVENTIONS:
        w = apply_convention(p["quoted_frequency"], conv)
        c1 = ClockSpec(w, (0.0, 0.0, 0.0))
        c2 = ClockSpec(w, (p["separation"], 0.0, 0.0))
        rows.append((conv.value, "pairwise", None, "pair-rate-half",
                     float(_pair_rate(c1, c2)) / 2.0))
    return rows


def _multiparticle_rows(preset_key: str, dimensions) -> list:
    p = PRESETS[preset_key]
    rows = []
    for conv in CONVENTIONS:
        w = float(apply_convention(p["quoted_frequency"], conv))
        for mode, formula in (("pairwise", "pairwise-free-min"),
                              ("global", "global-free-min")):
            for dim in dimensions:
                rows.append((conv.value, mode, dim, formula + "-continuum",
                             array_minimum_rate(p["n_clocks"], dim,
                                                p["lattice_constant"], w, mode)))
    return rows


def paper_report() -> PaperReport:
    """Evaluate every headline claim under all relevant combinations."""
    entries = []

    entries.append(_finish(
        "two-clock-300nm",
        "minimum dephasing rate of two petahertz clocks 300 nm apart",
        1e-42, "Hz", _two_clock_rows()))

    frac_rows = []
    for conv in CONVENTIONS:
        p = PRESETS["petahertz-pair"]
        w = apply_convention(p["quoted_frequency"], conv)
        c1 = ClockSpec(w, (0.0, 0.0, 0.0))
        c2 = ClockSpec(w, (p["separation"], 0.0, 0.0))
        rate = float(_pair_rate(c1, c2)) / 2.0
        frac_rows.append((conv.value, "pairwise", None, "rate-over-omega",
                          rate / float(w)))
    entries.append(_finish(
        "fractional-uncertainty",
        "fractional frequency uncertainty needed to observe the two-clock rate",
        1e-57, "dimensionless", frac_rows))

    entries.append(_finish(
        "array-1e6-800nm",
        "minimum dephasing rate for 10^6 lattice clocks at 800 nm spacing",
        1e-40, "Hz", _multiparticle_rows("optical-lattice-1e6", (1, 2, 3))))

    entries.append(_finish(
        "array-1e23-1fm",
        "minimum dephasing rate for 10^23 high-frequency clocks at 1 fm spacing",
        1.0, "Hz", _multiparticle_rows("dense-matter-1e23", (3,))))

    entries.append(_finish(
        "mossbauer-linewidth",
        "minimum gamma-ray linewidth for one mole of metallic silver",
        1e-11, "Hz", _multiparticle_rows("silver-mossbauer", (3,))))

    count_rows = []
    p = PRESETS["silver-mossbauer"]
    for conv in CONVENTIONS:
        w = float(apply_convention(p["quoted_frequency"], conv))
        for mode, formula in (("pairwise", "pairwise-free-min"),
                              ("global", "global-free-min")):
            count_rows.append((conv.value, mode, 3, formula + "-inverted",
                               atoms_for_target_rate(1e-3, 3,
                                                     p["lattice_constant"],
                                                     w, mode)))
    entries.append(_finish(
        "mossbauer-atom-count",
        "silver atom count at which the linewidth reaches 1 mHz",
        1e36, "atoms", count_rows))

    earth = PRESETS["earth-clock"]
    gi_rows, gz_rows = [], []
    for conv in CONVENTIONS:
        w = apply_convention(earth["quoted_frequency"], conv)
        gi, gz = bound_parameters(earth["dephasing_cap"], earth["mass"],
                                  earth["distance"], w)
        gi_rows.append((conv.value, "global", None, "bound-feedback-term",
                        float(gi)))
        gz_rows.append((conv.value, "global", None, "bound-measurement-term",
                        float(gz)))
    entries.append(_finish(
        "earth-gamma-i",
        "lower bound on the position measurement rate from clock experiments",
        10.0, "Hz m^-2", gi_rows))
    entries.append(_finish(
        "earth-gamma-z",
        "upper bound on the clock measurement rate from clock experiments",
        1e-4, "Hz", gz_rows))

    return PaperReport(entries=tuple(entries))
