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

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_CONVENTION, FrequencyConvention
from .geometry import PairRateMatrix

OBJECTIVE_TOLERANCE = 1e-10
ITERATION_CAP = 10**5


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
            gam = np.asarray(self.pairwise_gamma, dtype=float)
            if gam.ndim != 2 or gam.shape[0] != gam.shape[1]:
                raise ValueError("pairwise_gamma must be a square matrix")
            n = gam.shape[0]
            diag = np.eye(n, dtype=bool)
            bad = np.where(diag, gam != 0, ~(np.isfinite(gam) & (gam > 0)))
            if bad.any():
                # the first offender in row-major order decides the message
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
            gam = np.asarray(self.global_gamma, dtype=float).reshape(-1)
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

    def to_json_dict(self) -> dict:
        if self.mode == "pairwise":
            return {"mode": "pairwise", "pairwise_gamma": self.pairwise_gamma.tolist()}
        return {"mode": "global", "global_gamma": self.global_gamma.tolist()}


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
        rates = np.asarray(self.per_clock, dtype=float).reshape(-1)
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

    def to_json_dict(self) -> dict:
        out = {
            "per_clock_hz": self.per_clock.tolist(),
            "mode": self.mode,
            "case": self.case,
            "convention": self.convention.value,
            "formula_id": self.formula_id,
        }
        if self.optimal_rates is not None:
            out["optimal_rates"] = self.optimal_rates.to_json_dict()
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def csv_rows(self) -> list[list]:
        rows = [["clock_index", "rate_hz", "mode", "case", "convention", "formula_id"]]
        for k, r in enumerate(self.per_clock):
            rows.append([k, repr(float(r)), self.mode, self.case,
                         self.convention.value, self.formula_id])
        return rows

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerows(self.csv_rows())
        return buf.getvalue()


class OptimizeError(RuntimeError):
    """Raised when the optimizer hits its iteration cap; carries best-so-far."""

    def __init__(self, message, best_rates=None, best_report=None):
        super().__init__(message)
        self.best_rates = best_rates
        self.best_report = best_report


# -- dephasing under given rates -------------------------------------------

def _pairwise_per_clock(g: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    n = g.shape[0]
    off = ~np.eye(n, dtype=bool)
    terms = np.zeros_like(g)
    terms[off] = gamma[off] / 2.0 + g[off] ** 2 / (8.0 * gamma.T[off])
    return terms.sum(axis=1)


def _global_per_clock(g: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    n = g.shape[0]
    off = ~np.eye(n, dtype=bool)
    feed = np.zeros_like(g)
    feed[off] = g[off] ** 2 / (8.0 * np.broadcast_to(gamma, (n, n))[off])
    return gamma / 2.0 + feed.sum(axis=1)


def dephasing_given_rates(g: PairRateMatrix, rates: MeasurementRates) -> DephasingReport:
    """Per-clock dephasing for explicitly chosen measurement rates."""
    n = len(g)
    if len(rates) != n:
        raise ValueError(f"rates are for {len(rates)} clocks but the matrix has {n}")
    if rates.mode == "pairwise":
        per_clock = _pairwise_per_clock(g.g, rates.pairwise_gamma)
        formula = "pairwise-sum"
    else:
        per_clock = _global_per_clock(g.g, rates.global_gamma)
        formula = "global-sum"
    return DephasingReport(per_clock, rates.mode, "given-rates",
                           convention=g.convention, formula_id=formula)


# -- closed-form minima ------------------------------------------------------

def min_dephasing_pairwise_A(g: PairRateMatrix) -> DephasingReport:
    """Minimum with free per-pair rates: D_i = (1/2) sum_j g_ij."""
    mat = g.g
    per_clock = 0.5 * mat.sum(axis=1)
    optimal = None
    if len(g) >= 2:
        gam = mat / 2.0
        optimal = MeasurementRates("pairwise", pairwise_gamma=gam) if np.all(
            gam[~np.eye(len(g), dtype=bool)] > 0) else None
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
    """
    n = len(g)
    if n < 2:
        raise ValueError("the fixed-rate minimum is undefined for a single clock")
    mat = g.g
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
    global minimum per clock."""
    n = len(g)
    if n < 2:
        raise ValueError("the fixed-rate minimum is undefined for a single clock")
    mat = g.g
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


# -- numerical optimizer -----------------------------------------------------

def _coordinate_descent(objective, x0: np.ndarray):
    """Cyclic per-coordinate Newton descent in log-space.

    Derivatives are taken by central differences, so the update never reuses
    the closed-form algebra it is meant to check. Each coordinate's section of
    the objective is strictly convex, which makes the safeguarded Newton step
    globally convergent here. Returns (x, f, converged); x is the best point
    reached even when the iteration cap stops the descent.
    """
    x = x0.copy()
    f_prev = objective(x)
    updates = 0
    for _ in range(ITERATION_CAP):
        for k in range(len(x)):
            for _ in range(80):
                h = 1e-5
                xk = x[k]
                x[k] = xk + h
                fp = objective(x)
                x[k] = xk - h
                fm = objective(x)
                x[k] = xk
                f0 = objective(x)
                d1 = (fp - fm) / (2 * h)
                d2 = (fp - 2 * f0 + fm) / (h * h)
                if d2 <= 0:
                    step = -math.copysign(1.0, d1)
                else:
                    step = -d1 / d2
                step = min(5.0, max(-5.0, step))
                if abs(step) < 1e-12:
                    break
                x[k] = xk + step
                if objective(x) > f0:
                    # overshoot: back off until the move pays
                    while abs(step) > 1e-12 and objective(x) > f0:
                        step /= 2.0
                        x[k] = xk + step
                    if abs(step) <= 1e-12:
                        x[k] = xk
                        break
            updates += 1
            if updates >= ITERATION_CAP:
                break
        f_now = objective(x)
        if abs(f_prev - f_now) <= OBJECTIVE_TOLERANCE * max(abs(f_now), 1e-300):
            return x, f_now, True
        f_prev = f_now
        if updates >= ITERATION_CAP:
            break
    return x, f_prev, False


def optimize_rates(g: PairRateMatrix, mode: str) -> tuple[MeasurementRates, DephasingReport]:
    """Numerically minimize the summed dephasing over the free rates.

    mode: "pairwise" (independent Gamma_ij), "global" (per-clock Gamma_i),
    "fixed-scalar" (one shared rate, pairwise channels) or
    "fixed-scalar-global" (one shared rate, global channels).
    Returns the arg-min rates and the achieved per-clock report.
    """
    n = len(g)
    if n < 2:
        raise ValueError("optimization needs at least two clocks")
    mat = g.g
    off = ~np.eye(n, dtype=bool)
    if not np.all(mat[off] > 0):
        raise ValueError("optimization requires strictly positive pair rates")
    scale = float(np.exp(np.mean(np.log(mat[off]))))

    if mode == "pairwise":
        idx = np.argwhere(off)

        def build(x):
            gam = np.zeros((n, n))
            gam[idx[:, 0], idx[:, 1]] = np.exp(x)
            return gam

        def objective(x):
            return float(_pairwise_per_clock(mat, build(x)).sum())

        x0 = np.full(len(idx), math.log(scale))
        make_rates = lambda x: MeasurementRates("pairwise", pairwise_gamma=build(x))
        formula = "optimizer-pairwise"
        case = "A-free"
    elif mode == "global":
        def objective(x):
            return float(_global_per_clock(mat, np.exp(x)).sum())

        x0 = np.full(n, math.log(scale))
        make_rates = lambda x: MeasurementRates("global", global_gamma=np.exp(x))
        formula = "optimizer-global"
        case = "A-free"
    elif mode == "fixed-scalar":
        def build(x):
            gam = np.full((n, n), math.exp(x[0]))
            np.fill_diagonal(gam, 0.0)
            return gam

        def objective(x):
            return float(_pairwise_per_clock(mat, build(x)).sum())

        x0 = np.array([math.log(scale)])
        make_rates = lambda x: MeasurementRates("pairwise", pairwise_gamma=build(x))
        formula = "optimizer-fixed-scalar"
        case = "B-fixed"
    elif mode == "fixed-scalar-global":
        def objective(x):
            return float(_global_per_clock(mat, np.full(n, math.exp(x[0]))).sum())

        x0 = np.array([math.log(scale)])
        make_rates = lambda x: MeasurementRates(
            "global", global_gamma=np.full(n, math.exp(x[0])))
        formula = "optimizer-fixed-scalar-global"
        case = "B-fixed"
    else:
        raise ValueError(f"unknown optimization mode {mode!r}")

    x, _, converged = _coordinate_descent(objective, x0)
    rates = make_rates(x)
    achieved = dephasing_given_rates(g, rates)
    report = DephasingReport(achieved.per_clock, achieved.mode, case,
                             convention=g.convention, formula_id=formula,
                             optimal_rates=rates)
    if not converged:
        raise OptimizeError(
            f"optimizer did not converge within {ITERATION_CAP} coordinate updates",
            best_rates=rates, best_report=report)
    return rates, report
