"""Per-clock dephasing rates and their minimization over measurement rates.

Two channel topologies are supported. With pairwise feedback every ordered
pair (i, j) carries its own measurement at rate Gamma_ij and the i-th clock
dephases at

    D_i = sum_{j != i} ( Gamma_ij / 2 + g_ij^2 / (8 Gamma_ji) ).

With global feedback each clock is measured once at rate Gamma_i and the
record is broadcast, giving

    D_i = Gamma_i / 2 + sum_{j != i} g_ij^2 / (8 Gamma_j).

Minimizing the summed dephasing over the free rates gives closed forms
(Gamma_ij = g_ij / 2 pairwise, Gamma_i^2 = sum_j g_ij^2 / 4 global); the
numerical optimizer re-derives them without using that algebra, as a check.
Minimizing each clock alone is unphysical: any one D_i can be driven to zero
at the cost of instantly dephasing the rest, so the objective is the sum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_CONVENTION, FrequencyConvention
from .geometry import PairRateMatrix

OBJECTIVE_TOLERANCE = 1e-10
ITERATION_CAP = 200


def _as_lists(fields: dict) -> dict:
    """`fields` with every array, also in nested dicts, as a nested list."""
    return {k: v.tolist() if isinstance(v, np.ndarray)
            else _as_lists(v) if isinstance(v, dict) else v
            for k, v in fields.items()}


@dataclass(frozen=True)
class MeasurementRates:
    """Free channel parameters: a pairwise matrix or a per-clock vector.

    Pairwise entry [i][j] is the rate of the measurement of clock i whose
    record drives the feedback on clock j; it need not equal [j][i]. A pairwise
    float array is frozen in place, not copied, because a copy costs N^2.
    """

    mode: str
    pairwise_gamma: np.ndarray | None = None
    global_gamma: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("pairwise", "global"):
            raise ValueError(f"mode must be 'pairwise' or 'global', got {self.mode!r}")
        if self.mode == "pairwise":
            if self.pairwise_gamma is None or self.global_gamma is not None:
                raise ValueError("pairwise mode needs pairwise_gamma only")
            gam = np.asarray(self.pairwise_gamma, dtype=float)
            if gam.ndim != 2 or gam.shape[0] != gam.shape[1]:
                raise ValueError("pairwise_gamma must be a square matrix")
            n = gam.shape[0]
            ok = np.isfinite(gam) & (gam > 0)
            # with an exactly zero diagonal, where no entry is ok, every
            # off-diagonal entry is ok exactly when n(n-1) entries are
            if np.any(gam.diagonal() != 0) or np.count_nonzero(ok) != n * (n - 1):
                # the first offender in row-major order decides the message
                bad = np.where(np.eye(n, dtype=bool), gam != 0, ~ok)
                i, j = divmod(int(np.argmax(bad)), n)
                if i == j:
                    raise ValueError("pairwise_gamma diagonal must be zero")
                raise ValueError(
                    f"pairwise_gamma[{i}][{j}] must be finite and positive "
                    "(zero and infinity are limits, not parameters)")
            gam.setflags(write=False)
            object.__setattr__(self, "pairwise_gamma", gam)
        else:
            if self.global_gamma is None or self.pairwise_gamma is not None:
                raise ValueError("global mode needs global_gamma only")
            # a copy: freezing it below leaves the caller's array writeable
            gam = np.array(self.global_gamma, dtype=float).reshape(-1)
            bad = ~(np.isfinite(gam) & (gam > 0))
            if bad.any():
                raise ValueError(
                    f"global_gamma[{int(np.argmax(bad))}] must be finite and positive "
                    "(zero and infinity are limits, not parameters)")
            gam.setflags(write=False)
            object.__setattr__(self, "global_gamma", gam)

    def __len__(self) -> int:
        if self.mode == "pairwise":
            return self.pairwise_gamma.shape[0]
        return len(self.global_gamma)

    def _json_fields(self) -> dict:
        """to_json_dict() with the rate array as an array."""
        if self.mode == "pairwise":
            return {"mode": "pairwise", "pairwise_gamma": self.pairwise_gamma}
        return {"mode": "global", "global_gamma": self.global_gamma}

    def to_json_dict(self) -> dict:
        return _as_lists(self._json_fields())


@dataclass(frozen=True)
class DephasingReport:
    """Per-clock dephasing rates plus the provenance that produced them."""

    per_clock: np.ndarray
    mode: str
    case: str           # "A-free", "B-fixed" or "given-rates"
    convention: FrequencyConvention = DEFAULT_CONVENTION
    formula_id: str = ""
    optimal_rates: MeasurementRates | None = None

    def __post_init__(self):
        # a copy: freezing it below leaves the caller's array writeable
        rates = np.array(self.per_clock, dtype=float).reshape(-1)
        if np.any(rates < 0) or not np.all(np.isfinite(rates)):
            raise ValueError("per-clock dephasing rates must be finite and non-negative")
        rates.setflags(write=False)
        object.__setattr__(self, "per_clock", rates)
        object.__setattr__(self, "convention", FrequencyConvention.parse(self.convention))

    def __len__(self) -> int:
        return len(self.per_clock)

    def objective(self) -> float:
        """Summed dephasing rate, the quantity the optimizer minimizes."""
        return float(math.fsum(self.per_clock.tolist()))

    def _json_fields(self) -> dict:
        """to_json_dict() with the rate arrays as arrays."""
        out = {
            "per_clock_hz": self.per_clock,
            "mode": self.mode,
            "case": self.case,
            "convention": self.convention.value,
            "formula_id": self.formula_id,
        }
        if self.optimal_rates is not None:
            out["optimal_rates"] = self.optimal_rates._json_fields()
        return out

    def to_json_dict(self) -> dict:
        return _as_lists(self._json_fields())

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, allow_nan=False)

    def csv_rows(self) -> list[list]:
        rows = [["clock_index", "rate_hz", "mode", "case", "convention", "formula_id"]]
        rows += ([k, r, self.mode, self.case, self.convention.value, self.formula_id]
                 for k, r in enumerate(map(repr, self.per_clock.tolist())))
        return rows


class OptimizeError(RuntimeError):
    """Raised when the optimizer hits its iteration cap; carries best-so-far."""

    def __init__(self, message, best_rates=None, best_report=None):
        super().__init__(message)
        self.best_rates = best_rates
        self.best_report = best_report


# -- dephasing under given rates -------------------------------------------

# Each quotient is written into a C-ordered buffer: numpy would lay it out in the
# order of a strided gamma (the optimizer's probes), and rows would sum in another.

def _pairwise_per_clock(g: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Per-clock pairwise dephasing; gamma may carry leading batch axes. Its
    diagonal is zero: the identity added to its transpose makes that term 0/8."""
    terms = np.divide(g * g, 8.0 * (np.swapaxes(gamma, -1, -2) + np.eye(len(g))),
                      out=np.empty(gamma.shape))
    terms += gamma / 2.0
    return terms.sum(axis=-1)


def _global_per_clock(g: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Per-clock global dephasing; gamma may carry leading batch axes. The zero
    diagonal of g makes each clock's own feedback term 0."""
    feed = np.divide(g * g, 8.0 * gamma[..., None, :], out=np.empty(gamma.shape + g.shape[:1]))
    return gamma / 2.0 + feed.sum(axis=-1)


def _refuse_overflowing_squares(g: np.ndarray) -> None:
    """Refuse pair rates whose largest square leaves the float range."""
    if (top := float(np.max(g, initial=0.0))) * top == math.inf:
        raise ValueError(f"pair rate {top!r} squared is out of the float range")


def dephasing_given_rates(g: PairRateMatrix, rates: MeasurementRates) -> DephasingReport:
    """Per-clock dephasing for explicitly chosen measurement rates."""
    n = len(g)
    if len(rates) != n:
        raise ValueError(f"rates are for {len(rates)} clocks but the matrix has {n}")
    _refuse_overflowing_squares(g.g)
    with np.errstate(over="ignore"):  # DephasingReport refuses a quotient past the range
        per_clock = (_pairwise_per_clock(g.g, rates.pairwise_gamma) if rates.mode == "pairwise"
                     else _global_per_clock(g.g, rates.global_gamma))
    return DephasingReport(per_clock, rates.mode, "given-rates",
                           convention=g.convention, formula_id=f"{rates.mode}-sum")


# -- closed-form minima ------------------------------------------------------

def min_dephasing_pairwise_A(g: PairRateMatrix) -> DephasingReport:
    """Minimum with free per-pair rates: D_i = (1/2) sum_j g_ij."""
    mat, n = g.g, len(g)
    per_clock = 0.5 * mat.sum(axis=1)
    optimal = None
    if n >= 2:
        gam = mat / 2.0
        # gam is finite and non-negative with a zero diagonal, so every
        # off-diagonal rate is positive exactly when n(n-1) entries are nonzero
        if np.count_nonzero(gam) == n * (n - 1):
            optimal = MeasurementRates("pairwise", pairwise_gamma=gam)
    return DephasingReport(per_clock, "pairwise", "A-free",
                           convention=g.convention,
                           formula_id="pairwise-free-min",
                           optimal_rates=optimal)


def min_dephasing_global_A(g: PairRateMatrix) -> DephasingReport:
    """Minimum with free per-clock rates: D_i = (1/2) sqrt(sum_j g_ij^2).

    The per-clock attribution assumes every clock sees an equivalent
    environment (true on the lattices the closed form was derived for); the
    summed rate equals the optimizer's objective for any geometry.
    """
    mat = g.g
    _refuse_overflowing_squares(mat)
    s = np.sqrt((mat ** 2).sum(axis=1))
    per_clock = 0.5 * s
    optimal = MeasurementRates("global", global_gamma=s / 2.0) if np.all(s > 0) else None
    return DephasingReport(per_clock, "global", "A-free",
                           convention=g.convention,
                           formula_id="global-free-min",
                           optimal_rates=optimal)


def min_dephasing_pairwise_B(g: PairRateMatrix) -> DephasingReport:
    """Minimum when one fixed scalar rate serves every pairwise channel.

    Per clock: sqrt(N-1)/2 * sqrt(sum_j g_ij^2). The attached rates hold the
    single scalar that minimizes the summed dephasing.

    The per-clock form assumes equivalent sites, every row with the same
    sum_j g_ij^2. By Cauchy-Schwarz the per-clock rates sum to at most the summed dephasing
    at the best shared scalar, sqrt(N(N-1) sum_ij g_ij^2)/2, with equality
    exactly when the row sums are equal.
    """
    n = len(g)
    if n < 2:
        raise ValueError("the fixed-rate minimum is undefined for a single clock")
    mat = g.g
    _refuse_overflowing_squares(mat)
    s2 = (mat ** 2).sum(axis=1)
    per_clock = (math.sqrt(n - 1) / 2.0) * np.sqrt(s2)
    total_sq = float(s2.sum())
    optimal = None
    if total_sq > 0:
        gamma_star = math.sqrt(total_sq / (4.0 * n * (n - 1)))
        gam = np.full((n, n), gamma_star)
        np.fill_diagonal(gam, 0.0)
        optimal = MeasurementRates("pairwise", pairwise_gamma=gam)
    return DephasingReport(per_clock, "pairwise", "B-fixed",
                           convention=g.convention,
                           formula_id="pairwise-fixed-min",
                           optimal_rates=optimal)


def min_dephasing_global_B(g: PairRateMatrix) -> DephasingReport:
    """Fixed-scalar counterpart of the global channel; same form as the free
    global minimum per clock.

    The per-clock form assumes equivalent sites, every row with the same
    sum_j g_ij^2. By Cauchy-Schwarz the per-clock rates sum to at most the
    summed dephasing at the best shared scalar, sqrt(N sum_ij g_ij^2)/2,
    with equality exactly when the row sums are equal; the attached rates
    hold that scalar.
    """
    n = len(g)
    if n < 2:
        raise ValueError("the fixed-rate minimum is undefined for a single clock")
    mat = g.g
    _refuse_overflowing_squares(mat)
    s2 = (mat ** 2).sum(axis=1)
    per_clock = 0.5 * np.sqrt(s2)
    total_sq = float(s2.sum())
    optimal = None
    if total_sq > 0:
        gamma_star = math.sqrt(total_sq / (4.0 * n))
        optimal = MeasurementRates("global", global_gamma=np.full(n, gamma_star))
    return DephasingReport(per_clock, "global", "B-fixed",
                           convention=g.convention,
                           formula_id="global-fixed-min",
                           optimal_rates=optimal)


# (channel, case) -> closed-form minimum
_CLOSED_FORMS = {
    ("pairwise", "A-free"): min_dephasing_pairwise_A,
    ("global", "A-free"): min_dephasing_global_A,
    ("pairwise", "B-fixed"): min_dephasing_pairwise_B,
    ("global", "B-fixed"): min_dephasing_global_B,
}


# -- numerical optimizer -----------------------------------------------------

# mode -> (channel, one log-rate shared by every channel?, case)
_MODES = {
    "pairwise": ("pairwise", False, "A-free"),
    "global": ("global", False, "A-free"),
    "fixed-scalar": ("pairwise", True, "B-fixed"),
    "fixed-scalar-global": ("global", True, "B-fixed"),
}
# the probe points of one Newton iteration are evaluated in blocks of at most
# this many rate-array floats, so memory stays bounded for any N
_BLOCK_FLOATS = 2**21


def _newton(summed, x0: np.ndarray, block: int):
    """Diagonal Newton descent on the summed dephasing of log-rates x.

    In x every mode's objective is a sum of one-dimensional terms
    a e^x + b e^-x with a, b > 0, each strictly convex, so the Hessian is
    diagonal.
    `summed` maps points of shape (..., K) to the objective, shape (...).
    Every iteration takes all K first and second partials from central
    differences over the points x +- h e_k, evaluated `block` coordinates at
    a time; they never reuse the closed-form algebra the optimizer checks.
    The step -d1/d2 (a sign step where d2 <= 0) is clipped to +-5 and halved
    until the objective does not rise.
    Returns (x, converged); x is the best point reached even when the
    iteration cap stops the descent.
    """
    h, k = 1e-5, len(x0)
    x, f = x0, float(summed(x0))
    for _ in range(ITERATION_CAP):
        fp, fm = np.concatenate([
            summed(x + np.stack([e, -e]))
            for e in (h * np.eye(min(block, k - lo), k, lo) for lo in range(0, k, block))],
            axis=1)
        d1, d2 = (fp - fm) / (2 * h), (fp - 2 * f + fm) / (h * h)
        step = np.clip(np.divide(-d1, d2, out=-np.sign(d1), where=d2 > 0), -5.0, 5.0)
        # ends at the latest when x + step rounds to x
        while (f_new := float(summed(x + step))) > f:
            step /= 2.0
        x = x + step
        converged = abs(f - f_new) <= OBJECTIVE_TOLERANCE * max(abs(f_new), 1e-300)
        f = f_new
        if converged:
            return x, True
    return x, False


def optimize_rates(g: PairRateMatrix, mode: str) -> tuple[MeasurementRates, DephasingReport]:
    """Numerically minimize the summed dephasing over the free rates.

    mode: "pairwise" (independent Gamma_ij), "global" (per-clock Gamma_i),
    "fixed-scalar" (one shared rate, pairwise channels) or
    "fixed-scalar-global" (one shared rate, global channels).
    Returns the arg-min rates and the achieved per-clock report.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown optimization mode {mode!r}")
    channel, shared, case = _MODES[mode]
    n = len(g)
    if n < 2:
        raise ValueError("optimization needs at least two clocks")
    mat = g.g
    off = ~np.eye(n, dtype=bool)
    if not np.all(mat[off] > 0):
        raise ValueError("optimization requires strictly positive pair rates")
    _refuse_overflowing_squares(mat)
    slots = n * (n - 1) if channel == "pairwise" else n
    pick = np.zeros(slots, dtype=int) if shared else np.arange(slots)
    kernel = _pairwise_per_clock if channel == "pairwise" else _global_per_clock

    def expand(x):
        """Log-rates (..., K) -> rate array (..., n, n) or (..., n)."""
        r = np.exp(x)[..., pick]
        if channel == "global":
            return r
        gam = np.zeros(x.shape[:-1] + (n, n))
        gam[..., off] = r
        return gam

    x0 = np.full(1 if shared else slots, np.mean(np.log(mat[off])))
    x, converged = _newton(lambda x: kernel(mat, expand(x)).sum(axis=-1), x0,
                           max(1, _BLOCK_FLOATS // (2 * n * n)))
    rates = MeasurementRates(channel, **{f"{channel}_gamma": expand(x)})
    achieved = dephasing_given_rates(g, rates)
    report = DephasingReport(achieved.per_clock, channel, case,
                             convention=g.convention, formula_id=f"optimizer-{mode}",
                             optimal_rates=rates)
    if not converged:
        raise OptimizeError(
            f"optimizer did not converge within {ITERATION_CAP} Newton iterations",
            best_rates=rates, best_report=report)
    return rates, report
