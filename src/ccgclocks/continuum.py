"""Lattice sums, their continuum integral approximation, and scaling fits.

The distance sums sum_j d_ij^(-alpha) over a regular D-dimensional array of
spacing L_c are approximated by

    (S_D / L_c^D) * integral_{L_c}^{R} r^(D-1-alpha) dr,   R = N^(1/D) L_c

with S_D = 1, 2*pi, 4*pi for linear, planar and spherical geometry. In 1D the
center clock sees two half-lines, each integrated to R/2. The integral only
tracks the sum up to an order-one factor, which compare_sum_vs_integral
quantifies; scaling exponents in N are what it predicts reliably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import dephasing_prefactor
from .geometry import ClockArray, _distances

SOLID_ANGLE = {1: 1.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

# Canonical odd side counts: dense at small N where saturating laws still bend,
# log-spaced above. Chosen so every fit spans >= 2 decades in N.
DEFAULT_SIDES = {
    1: (5, 7, 11, 15, 21, 31, 51, 101, 201, 501, 1001, 2001, 5001, 10001, 30001, 100001),
    2: (5, 7, 11, 15, 21, 31, 51, 101, 151, 221, 317),
    3: (5, 7, 9, 11, 15, 21, 27, 33, 41),
}


def _exact_sum(terms: np.ndarray, what: str) -> float:
    """math.fsum (Shewchuk's exact summation, rounded once) of `terms`;
    raises ValueError naming `what` when the sum is not finite."""
    try:
        total = math.fsum(terms.tolist())
    except OverflowError:  # finite terms whose exact sum overflows
        total = math.inf
    if not math.isfinite(total):
        raise ValueError(f"{what} is not finite")
    return total


def lattice_sum_exact(array: ClockArray, center_index: int, alpha: float) -> float:
    """sum_{j != i} d_ij^(-alpha) for clock i, correctly rounded."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    n = len(array)
    if not 0 <= center_index < n:
        raise ValueError(f"center index {center_index} out of range for {n} clocks")
    pos = array.positions
    with np.errstate(over="ignore"):  # raised as ValueError
        terms = np.delete(_distances(pos, pos[center_index]), center_index) ** (-alpha)
    return _exact_sum(terms, f"distance sum for clock {center_index}")


@dataclass(frozen=True)
class ContinuumEstimate:
    """Closed-form integral approximation of a lattice distance sum."""

    D: int
    alpha: float
    S_D: float
    L_c: float
    R: float          # N^(1/D) * L_c; 1D integrates two half-lines to R/2 each
    value: float      # units m^(-alpha)

    def __post_init__(self):
        if self.D not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2 or 3")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.R < self.L_c:
            raise ValueError("outer radius must not be below the lattice constant")
        if self.S_D != SOLID_ANGLE[self.D]:
            raise ValueError("S_D inconsistent with the dimension")


def _radial_integral(lower: float, upper: float, power: float) -> float:
    # integral of r^power dr, exact at the logarithmic point power = -1
    if upper <= lower:
        return 0.0
    if power == -1.0:
        return math.log(upper / lower)
    p1 = power + 1.0
    return (upper ** p1 - lower ** p1) / p1


def continuum_sum(N: int, D: int, L_c: float, alpha: float) -> ContinuumEstimate:
    """Integral estimate of sum_j d^(-alpha) for a center clock, N sites total."""
    if N < 2:
        raise ValueError("the continuum estimate needs at least two clocks")
    if D not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    if not (L_c > 0 and alpha > 0):
        raise ValueError("lattice constant and alpha must be positive")
    S_D = SOLID_ANGLE[D]
    R = N ** (1.0 / D) * L_c
    power = D - 1.0 - alpha
    try:
        if D == 1:  # two half-lines of N/2 clocks each
            value = 2.0 * (S_D / L_c) * _radial_integral(L_c, (N / 2.0) * L_c, power)
        else:
            value = (S_D / L_c ** D) * _radial_integral(L_c, R, power)
    except (OverflowError, ZeroDivisionError):  # a power of L_c out of the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"continuum estimate at L_c={L_c!r} is out of the float range")
    return ContinuumEstimate(D=D, alpha=alpha, S_D=S_D, L_c=L_c, R=R, value=value)


def compare_sum_vs_integral(array: ClockArray, alpha: float) -> float:
    """Ratio exact sum / continuum estimate for the array's center clock."""
    if array.lattice is None:
        raise ValueError("comparison requires lattice metadata")
    exact = lattice_sum_exact(array, array.center_index(), alpha)
    est = continuum_sum(len(array), array.lattice.dimension,
                        array.lattice.lattice_constant, alpha)
    if est.value == 0.0:
        raise ValueError("continuum estimate is zero (degenerate 1D case N <= 2); "
                         "the ratio is undefined")
    return exact / est.value


# -- scaling-law fits ---------------------------------------------------------

# Evaluation order doubles as a parsimony ranking: when residuals tie within
# _TIE_FACTOR the earlier family wins. Pure power-law data is also fit
# perfectly by rate^2/N affine in log N, so ties do occur.
_MODEL_ORDER = ("power-law", "log-law", "sqrt-log-law", "saturating", "sqrt-n-log-law")
_TIE_FACTOR = 2.0


@dataclass(frozen=True)
class ScalingFit:
    """Best-fit scaling model for rate-vs-N data, with the full ranking."""

    model: str
    parameter: float
    coefficients: tuple[float, float]
    residual: float
    ranking: tuple[tuple[str, float], ...]


def _fit_all_models(N: np.ndarray, y: np.ndarray) -> dict:
    lnN = np.log(N)
    design_log = np.stack([np.ones_like(lnN), lnN], axis=1)
    design_inv = np.stack([np.ones_like(N), 1.0 / N], axis=1)
    fits = {}

    coef, *_ = np.linalg.lstsq(design_log, np.log(y), rcond=None)
    fits["power-law"] = (coef, np.exp(design_log @ coef), float(coef[1]))

    coef, *_ = np.linalg.lstsq(design_log, y, rcond=None)
    fits["log-law"] = (coef, design_log @ coef, float(coef[1]))

    coef, *_ = np.linalg.lstsq(design_log, y * y, rcond=None)
    fits["sqrt-log-law"] = (coef, np.sqrt(np.maximum(design_log @ coef, 0.0)), float(coef[1]))

    coef, *_ = np.linalg.lstsq(design_inv, y * y, rcond=None)
    # y = a sqrt(1 - b/N); b is the saturation coefficient
    b = float(-coef[1] / coef[0]) if coef[0] != 0 else 0.0
    fits["saturating"] = (coef, np.sqrt(np.maximum(design_inv @ coef, 0.0)), b)

    coef, *_ = np.linalg.lstsq(design_log, y * y / N, rcond=None)
    fits["sqrt-n-log-law"] = (coef, np.sqrt(np.maximum((design_log @ coef) * N, 0.0)),
                              float(coef[1]))
    return fits


def fit_scaling(points) -> ScalingFit:
    """Fit candidate scaling models to (N, rate) points and rank them.

    Each model is fit by least squares in its linearizing transform; models are
    compared by relative RMS residual in rate space. Requires at least four
    points spanning two decades in N.
    """
    pts = sorted((float(n), float(r)) for n, r in points)
    if len(pts) < 4:
        raise ValueError("need at least 4 points to fit a scaling law")
    N = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    if N.min() <= 0 or np.any(y <= 0):
        raise ValueError("N and rates must be positive")
    if N.max() / N.min() < 100.0:
        raise ValueError("points must span at least two decades in N")

    fits = _fit_all_models(N, y)
    residuals = {m: float(np.sqrt(np.mean(((pred - y) / y) ** 2)))
                 for m, (coef, pred, par) in fits.items()}
    best_res = min(residuals.values())
    chosen = next(m for m in _MODEL_ORDER if residuals[m] <= _TIE_FACTOR * best_res)
    coef, _, par = fits[chosen]
    ranking = tuple(sorted(residuals.items(), key=lambda kv: kv[1]))
    return ScalingFit(model=chosen, parameter=par,
                      coefficients=(float(coef[0]), float(coef[1])),
                      residual=residuals[chosen], ranking=ranking)


# -- rate sweeps over lattice sizes ------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    N: int
    exact_sum: float
    continuum_estimate: float
    ratio: float
    rate: float


def _center_sum_fast(D: int, side: int, alpha: float, L_c: float) -> float:
    """Distance sum from the center of an odd-sided grid, without a ClockArray.

    Only the orthant {0..half}^D is summed, a site with m nonzero coordinates
    weighted by 2^m: its mirror images have bit-identical squared distances,
    the weight multiplies exactly and fsum rounds the exact total once, so
    the result equals fsum over the full grid.
    """
    half = (side - 1) // 2
    mirrors = np.r_[1.0, np.full(half, 2.0)]
    with np.errstate(over="ignore"):  # raised as ValueError below
        sq = (np.arange(half + 1, dtype=float) * L_c) ** 2
        d2, weight = sq, mirrors
        for _ in range(D - 1):
            d2, weight = np.add.outer(d2, sq), np.multiply.outer(weight, mirrors)
        d2, weight = d2.ravel()[1:], weight.ravel()[1:]  # drop the origin
        if not np.all((d2 > 0) & (d2 < np.inf)):
            raise ValueError(f"squared site distances underflow or overflow at L_c={L_c!r}")
        terms = weight * d2 ** (-alpha / 2.0)
    return _exact_sum(terms, f"distance sum at L_c={L_c!r}")


# (mode, case) -> (alpha, the center clock's minimum rate over the dephasing
# prefactor, from its alpha distance sum s among n clocks): the closed-form minima
_CENTER_RATES = {
    ("pairwise", "A-free"): (1.0, lambda s, n: s),
    ("pairwise", "B-fixed"): (2.0, lambda s, n: math.sqrt((n - 1) * s)),
    ("global", "A-free"): (2.0, lambda s, n: math.sqrt(s)),
    ("global", "B-fixed"): (2.0, lambda s, n: math.sqrt(s)),
}


def scaling_rate_sweep(D: int, mode: str, case: str, omega: float,
                       L_c: float = 1.0, sides=None) -> list[SweepPoint]:
    """Center-clock minimum dephasing rate versus N for one channel/case.

    Sides must be odd so a true center clock exists.
    """
    if (mode, case) not in _CENTER_RATES:
        raise ValueError(f"unsupported mode/case combination ({mode}, {case})")
    if sides is None:
        sides = DEFAULT_SIDES[D]
    sides = [int(s) for s in sides]
    if any(s < 3 or s % 2 == 0 for s in sides):
        raise ValueError("sweep sides must be odd and at least 3")
    if not 0 < L_c < math.inf:  # NaN fails too
        raise ValueError(f"lattice constant must be finite and positive, got {L_c!r}")
    alpha, center_rate = _CENTER_RATES[mode, case]
    prefactor = dephasing_prefactor(omega)

    points = []
    for side in sides:
        n = side ** D
        s = _center_sum_fast(D, side, alpha, L_c)
        est = continuum_sum(n, D, L_c, alpha).value
        points.append(SweepPoint(N=n, exact_sum=s, continuum_estimate=est,
                                 ratio=s / est, rate=prefactor * center_rate(s, n)))
    return points
