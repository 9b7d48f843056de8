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

import math
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_CONVENTION, FrequencyConvention
from .geometry import PairRateMatrix, _frozen, _trusted

STEP_TOLERANCE = 1e-8
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
    record drives the feedback on clock j; it need not equal [j][i].
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
            gam = _frozen(self.pairwise_gamma)
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
        else:
            if self.global_gamma is None or self.pairwise_gamma is not None:
                raise ValueError("global mode needs global_gamma only")
            gam = _frozen(self.global_gamma).reshape(-1)
            bad = ~(np.isfinite(gam) & (gam > 0))
            if bad.any():
                raise ValueError(
                    f"global_gamma[{int(np.argmax(bad))}] must be finite and positive "
                    "(zero and infinity are limits, not parameters)")
        object.__setattr__(self, f"{self.mode}_gamma", gam)

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
        rates = _frozen(self.per_clock).reshape(-1)
        if np.any(rates < 0) or not np.all(np.isfinite(rates)):
            raise ValueError("per-clock dephasing rates must be finite and non-negative")
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

# Each kernel writes its feedback cells into a C-ordered buffer: numpy would lay
# a quotient out in the order of a transposed or Fortran-ordered operand, and
# the rows of D would sum in another order.

def _pairwise_cells(g: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Pairwise feedback cells g_ij^2 / (8 Gamma_ji), clock i's term from the
    measurement whose record drives it. Gamma's diagonal is zero: the identity
    added to its transpose makes each clock's own cell 0/8."""
    return np.divide(g * g, 8.0 * (gamma.T + np.eye(len(g))), out=np.empty(g.shape))


def _global_cells(g: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Global feedback cells g_ij^2 / (8 Gamma_j). The zero diagonal of g makes
    each clock's own cell 0."""
    return np.divide(g * g, 8.0 * gamma, out=np.empty(g.shape))


def _refuse_overflowing_squares(g: np.ndarray) -> None:
    """Refuse pair rates whose largest square leaves the float range."""
    if (top := float(np.max(g, initial=0.0))) * top == math.inf:
        raise ValueError(f"pair rate {top!r} squared is out of the float range")


def _row_sums_of_squares(g: np.ndarray) -> np.ndarray:
    """Each clock's sum_j g_ij^2; refuses a square or a sum past the float range."""
    _refuse_overflowing_squares(g)
    with np.errstate(over="ignore"):  # refused below
        s2 = (g ** 2).sum(axis=1)
    if (bad := np.isinf(s2)).any():
        raise ValueError(f"clock {int(np.argmax(bad))}'s sum of squared pair rates "
                         "is out of the float range")
    return s2


def dephasing_given_rates(g: PairRateMatrix, rates: MeasurementRates) -> DephasingReport:
    """Per-clock dephasing for explicitly chosen measurement rates."""
    n = len(g)
    if len(rates) != n:
        raise ValueError(f"rates are for {len(rates)} clocks but the matrix has {n}")
    _refuse_overflowing_squares(g.g)
    with np.errstate(over="ignore"):  # DephasingReport refuses a quotient past the range
        if rates.mode == "pairwise":
            terms = _pairwise_cells(g.g, rates.pairwise_gamma)
            terms += rates.pairwise_gamma / 2.0
            per_clock = terms.sum(axis=1)
        else:
            per_clock = (rates.global_gamma / 2.0
                         + _global_cells(g.g, rates.global_gamma).sum(axis=1))
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
            optimal = _trusted(MeasurementRates, mode="pairwise", pairwise_gamma=gam,
                               global_gamma=None)
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
    s = np.sqrt(_row_sums_of_squares(g.g))
    per_clock = 0.5 * s
    # s is finite, and a positive square root is at least 1e-162: s/2 > 0
    optimal = _trusted(MeasurementRates, mode="global", pairwise_gamma=None,
                       global_gamma=s / 2.0) if np.all(s > 0) else None
    return DephasingReport(per_clock, "global", "A-free",
                           convention=g.convention,
                           formula_id="global-free-min",
                           optimal_rates=optimal)


def _min_fixed_scalar(g: PairRateMatrix, channel: str) -> DephasingReport:
    """Minimum when one fixed scalar rate serves every channel of one kind.

    Clock i is fed by k channels (k = N-1 pairwise, 1 global); per clock the
    minimum is sqrt(k)/2 * sqrt(sum_j g_ij^2), and the attached rates hold the
    single scalar sqrt(sum_ij g_ij^2 / (4 N k)) that minimizes the summed
    dephasing.

    The per-clock form assumes equivalent sites, every row with the same
    sum_j g_ij^2. By Cauchy-Schwarz the per-clock rates sum to at most the
    summed dephasing at the best shared scalar, sqrt(N k sum_ij g_ij^2)/2,
    with equality exactly when the row sums are equal.
    """
    n = len(g)
    if n < 2:
        raise ValueError("the fixed-rate minimum is undefined for a single clock")
    k = n - 1 if channel == "pairwise" else 1
    s2 = _row_sums_of_squares(g.g)
    per_clock = (math.sqrt(k) / 2.0) * np.sqrt(s2)
    with np.errstate(over="ignore"):  # MeasurementRates refuses an infinite total
        total_sq = float(s2.sum())
    optimal = None
    if total_sq > 0:
        gamma_star = math.sqrt(total_sq / (4.0 * n * k))
        gam = (np.where(np.eye(n, dtype=bool), 0.0, gamma_star) if channel == "pairwise"
               else np.full(n, gamma_star))
        optimal = MeasurementRates(channel, **{f"{channel}_gamma": gam})
    return DephasingReport(per_clock, channel, "B-fixed",
                           convention=g.convention,
                           formula_id=f"{channel}-fixed-min",
                           optimal_rates=optimal)


def min_dephasing_pairwise_B(g: PairRateMatrix) -> DephasingReport:
    """`_min_fixed_scalar` of pairwise channels: sqrt(N-1)/2 * sqrt(sum_j g_ij^2)."""
    return _min_fixed_scalar(g, "pairwise")


def min_dephasing_global_B(g: PairRateMatrix) -> DephasingReport:
    """`_min_fixed_scalar` of global channels: sqrt(sum_j g_ij^2)/2, the free form."""
    return _min_fixed_scalar(g, "global")


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


def _newton(shares, x0: np.ndarray):
    """Separable Newton descent on log-rates x.

    In x every mode's summed dephasing is a sum of one-dimensional terms
    a e^x + b e^-x with a, b > 0, one per coordinate, each strictly convex.
    `shares` maps x to each coordinate's own term, in the shape of x, so
    every iteration takes all first and second partials at once from central
    differences over x +- h; they never reuse the closed-form algebra the
    optimizer checks. The step -d1/d2 (a sign step where d2 <= 0) is clipped
    to +-5 and halved where the share rose. A step halved to STEP_TOLERANCE
    or below is dropped: a share summed over many cells has a rounding floor,
    where the differences propose steps of about that size for ever. The
    descent stops when no accepted step exceeds STEP_TOLERANCE.
    Returns (x, converged); x is the best point reached even when the
    iteration cap stops the descent.
    """
    h = 1e-5
    x, s = x0, shares(x0)
    for _ in range(ITERATION_CAP):
        sp, sm = shares(x + h), shares(x - h)
        d1, d2 = (sp - sm) / (2 * h), (sp - 2 * s + sm) / (h * h)
        step = np.clip(np.divide(-d1, d2, out=-np.sign(d1), where=d2 > 0), -5.0, 5.0)
        while (rose := (s_new := shares(x + step)) > s).any():
            step[rose] = np.where(np.abs(step[rose]) > 2 * STEP_TOLERANCE, step[rose] / 2.0, 0.0)
        x, s = x + step, s_new
        if np.all(np.abs(step) <= STEP_TOLERANCE):
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
    # the rates are exp(x) * support: the pairwise support's zero diagonal keeps
    # each clock's own rate at 0, and a shared log-rate broadcasts
    support = off.astype(float) if channel == "pairwise" else np.ones(n)

    def shares(x):
        """Each free rate's own term of the summed dephasing; the sum where
        one log-rate is shared."""
        gam = np.exp(x) * support
        own = gam / 2.0 + (_pairwise_cells(mat, gam).T if channel == "pairwise"
                           else _global_cells(mat, gam).sum(axis=0))
        return own.sum(keepdims=True) if shared else own

    x0 = np.full((1,) * support.ndim if shared else support.shape,
                 np.mean(np.log(mat[off])))
    # a step to a share past the float range, inf, is halved like any rise
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(shares(x0)).all():
            raise ValueError("the dephasing at the optimizer's starting rates is out of "
                             "the float range")
        x, converged = _newton(shares, x0)
    rates = MeasurementRates(channel, **{f"{channel}_gamma": np.exp(x) * support})
    achieved = dephasing_given_rates(g, rates)
    report = DephasingReport(achieved.per_clock, channel, case,
                             convention=g.convention, formula_id=f"optimizer-{mode}",
                             optimal_rates=rates)
    if not converged:
        raise OptimizeError(
            f"optimizer did not converge within {ITERATION_CAP} Newton iterations",
            best_rates=rates, best_report=report)
    return rates, report
