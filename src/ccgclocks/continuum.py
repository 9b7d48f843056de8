"""Lattice sums, their continuum integral approximation, and scaling fits.

The distance sums sum_j d_ij^(-alpha) over a regular D-dimensional array of
spacing L_c are approximated by

    (S_D / L_c^D) * integral_{L_c}^{R} r^(D-1-alpha) dr,   R = N^(1/D) L_c

with S_D = 1, 2*pi, 4*pi for linear, planar and spherical geometry. In 1D the
center clock sees two half-lines, each integrated to R/2. The integral only
tracks the sum up to an order-one factor, which compare_sum_vs_integral
quantifies; scaling exponents in N are what it predicts reliably.

Every exact sum goes through one accumulator, _exact_totals (Neal's small
superaccumulator, arXiv:1505.05571). np.frexp splits each term into an
exponent e and a 53-bit integer mantissa, and the mantissa into halves below
2**27; float64 np.bincount adds the halves per (group, e) without rounding,
since a chunk of fewer than 2**26 terms keeps every partial sum an integer
below 2**53. The bins join one Python int per group, and int true division
rounds that exact total once, to nearest with ties to even: bit for bit what
math.fsum returns. A scaling sweep feeds it one slab-wise pass over the
orthant of its largest grid, which gives every side's centre sum at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .constants import dephasing_prefactor
from .geometry import _TINY, ClockArray, _distances

SOLID_ANGLE = {1: 1.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

# Canonical odd side counts: dense at small N where saturating laws still bend,
# log-spaced above. Chosen so every fit spans >= 2 decades in N.
DEFAULT_SIDES = {
    1: (5, 7, 11, 15, 21, 31, 51, 101, 201, 501, 1001, 2001, 5001, 10001, 30001, 100001),
    2: (5, 7, 11, 15, 21, 31, 51, 101, 151, 221, 317),
    3: (5, 7, 9, 11, 15, 21, 27, 33, 41),
}


# -- exact summation (the accumulator of the module docstring) -----------------

# 16 000 float64 are 125 KiB: below glibc's 128 KiB mmap threshold, so a chunk's
# buffers come from the heap instead of fresh pages mapped on every call
_SLAB_SITES = 16_000
_ULP_SHIFT = 1073  # frexp exponents are >= -1073: totals are ints in units of 2**-1126
_UNIT = 1 << (_ULP_SHIFT + 53)


def _exact_totals(terms: np.ndarray, what: str, owner=None, groups: int = 1) -> list[int]:
    """Exact sums of `terms` per group (`owner[k]` is term k's group, all in
    group 0 without `owner`), as ints in units of 2**-1126; raises ValueError
    naming `what` when a term is not finite."""
    totals = [0] * groups
    for k in range(0, terms.size, _SLAB_SITES):
        chunk = terms[k:k + _SLAB_SITES]
        if not np.isfinite(chunk).all():
            raise ValueError(f"{what} is not finite")
        frac, exp = np.frexp(chunk)
        high = np.trunc(frac * 2.0 ** 27)
        low = frac * 2.0 ** 53 - high * 2.0 ** 26
        e0 = int(exp.min())
        span = int(exp.max()) - e0 + 1
        key = exp - e0
        if owner is not None:
            key = owner[k:k + _SLAB_SITES] * span + key
        highs = np.bincount(key, high, groups * span).reshape(groups, span).tolist()
        lows = np.bincount(key, low, groups * span).reshape(groups, span).tolist()
        for g, (hs, ls) in enumerate(zip(highs, lows)):
            totals[g] += sum(((int(h) << 26) + int(lo)) << (e0 + _ULP_SHIFT + j)
                             for j, (h, lo) in enumerate(zip(hs, ls)) if h or lo)
    return totals


def _rounded(total: int, what: str) -> float:
    """An exact total from _exact_totals, rounded once to the nearest float."""
    try:
        return total / _UNIT
    except OverflowError:  # finite terms whose exact sum overflows
        raise ValueError(f"{what} is not finite") from None


def _exact_sum(terms: np.ndarray, what: str) -> float:
    """The exact sum of `terms`, correctly rounded (what math.fsum returns);
    raises ValueError naming `what` when the sum is not finite."""
    return _rounded(_exact_totals(terms, what)[0], what)


def lattice_sum_exact(array: ClockArray, center_index: int, alpha: float) -> float:
    """sum_{j != i} d_ij^(-alpha) for clock i, correctly rounded; a sum below
    the smallest normal float is refused, as `_center_sums` refuses one."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    n = len(array)
    if not 0 <= center_index < n:
        raise ValueError(f"center index {center_index} out of range for {n} clocks")
    pos = array.positions
    with np.errstate(over="ignore"):  # raised as ValueError
        terms = np.delete(_distances(pos, pos[center_index]), center_index) ** (-alpha)
    what = f"distance sum for clock {center_index}"
    total = _exact_sum(terms, what)
    if n > 1 and not total >= _TINY:
        raise ValueError(f"{what} leaves the normal float range")
    return total


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
    # the outer radius in lattice constants; 1D has two half-lines of N/2 clocks
    weight, reach = (2.0 * S_D, N / 2.0) if D == 1 else (S_D, N ** (1.0 / D))
    try:
        cell = L_c ** D
        value = weight / cell * _radial_integral(L_c, reach * L_c, power)
    except (OverflowError, ZeroDivisionError):  # a power of L_c out of the float range
        cell = value = math.inf
    if L_c < 1.0 and not (math.isfinite(value) and cell >= _TINY):
        # a power of L_c below the normal range: as in _center_sums, the unit
        # grid's integral times L_c^-alpha
        try:
            value = weight * L_c ** -alpha * _radial_integral(1.0, reach, power)
        except OverflowError:
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
    if N.min() <= 0 or not np.all((0 < y) & (y < np.sqrt(np.finfo(float).max))):
        raise ValueError("N and rates must be positive, and the rates' squares, which "
                         "three model families fit, in the float range")
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


def _center_sums(D: int, sides, alpha: float, L_c: float) -> list[float]:
    """Distance sums from the centre of odd-sided grids, one per side, in one pass.

    Only the orthant {0..half}^D of the largest grid is built, a slab of
    leading indices at a time, a site with m nonzero coordinates weighted by
    2^m: its mirror images have bit-identical squared distances and the weight
    multiplies exactly. Each term goes to the smallest side whose half-width
    reaches the site's Chebyshev radius, and each side's exact total is rounded
    once, so every sum equals fsum over that side's full grid.
    """
    halves = np.array(sorted({(s - 1) // 2 for s in sides}))
    if not halves.size:
        return []
    n = int(halves[-1]) + 1
    what = f"distance sum at L_c={L_c!r}"
    # squared distances lie in [L_c², the far corner's] as the pass forms them; out
    # of the normal range, sum the unit grid and multiply each sum by L_c^-alpha
    spacing, scale, corner = L_c, 1.0, float(halves[-1]) * L_c
    if not (_TINY <= L_c * L_c and sum([corner * corner] * D) < math.inf):
        try:
            spacing, scale = 1.0, L_c ** -alpha
        except (OverflowError, ZeroDivisionError):
            raise ValueError(f"{what} is not finite") from None

    def axis(lo, hi):
        # squared distances, mirror weights and the smallest side reaching each
        # index; a site's side is the largest of its coordinates' sides
        i = np.arange(lo, hi)
        return (i * float(spacing)) ** 2, np.where(i > 0, 2.0, 1.0), np.searchsorted(halves, i)

    totals = [0] * len(halves)
    with np.errstate(over="ignore"):  # raised as ValueError below
        sq, mirrors, sides_of = axis(0, n if D > 1 else 0)
        rows = max(1, _SLAB_SITES // n ** (D - 1))
        for start in range(0, n, rows):
            d2, weight, owner = axis(start, min(start + rows, n))
            for _ in range(D - 1):
                d2, weight = np.add.outer(d2, sq), np.multiply.outer(weight, mirrors)
                owner = np.maximum.outer(owner, sides_of)
            first = 1 if start == 0 else 0  # drop the origin
            d2, weight, owner = (a.ravel()[first:] for a in (d2, weight, owner))
            terms = weight * d2 ** (-alpha / 2.0)
            for g, t in enumerate(_exact_totals(terms, what, owner, len(halves))):
                totals[g] += t
    sums = [_rounded(t, what) * scale for t in itertools.accumulate(totals)]
    if not (_TINY <= sums[0] and sums[-1] < math.inf):  # the sums ascend with the side
        raise ValueError(f"{what} leaves the normal float range")
    by_half = dict(zip(halves.tolist(), sums))
    return [by_half[(s - 1) // 2] for s in sides]


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

    Sides must be odd so a true center clock exists. A rate below the
    smallest normal float is refused, as a centre sum there is refused.
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
    for side, s in zip(sides, _center_sums(D, sides, alpha, L_c)):
        n = side ** D
        est = continuum_sum(n, D, L_c, alpha).value
        rate = prefactor * center_rate(s, n)
        if not rate >= _TINY:
            raise ValueError(f"dephasing rate at N={n}, L_c={L_c!r} leaves the normal float range")
        points.append(SweepPoint(N=n, exact_sum=s, continuum_estimate=est,
                                 ratio=s / est, rate=rate))
    return points
