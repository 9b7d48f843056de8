"""Clock arrays and pair interaction rates.

A clock pair at distance d with angular frequencies w1, w2 couples at the rate

    g12 = G * hbar * w1 * w2 / (d * c^4)

which sets every dephasing scale in the package. Arrays are stored as explicit
3-vector positions even when they were built as regular lattices; the lattice
metadata is kept so the continuum module can map a sum onto its integral
approximation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .constants import (
    DEFAULT_CONVENTION,
    G_HBAR_OVER_C4,
    AngularFrequency,
    FrequencyConvention,
    Rate,
)

_PAIR_MATRIX_LIMIT = 4096
_PAIR_BLOCK_ROWS = 32
# a squared distance below the smallest normal float has lost its precision
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class ClockSpec:
    """One two-level clock: angular frequency, position, optional rest mass."""

    omega: AngularFrequency
    position: tuple[float, float, float]
    rest_mass: float | None = None

    def __post_init__(self):
        if not isinstance(self.omega, AngularFrequency):
            object.__setattr__(self, "omega", AngularFrequency(float(self.omega)))
        object.__setattr__(self, "position", tuple(float(x) for x in self.position))
        ClockArray([float(self.omega)], [self.position], [self.rest_mass])  # ClockArray's rules


@dataclass(frozen=True)
class LatticeInfo:
    """Advisory metadata for arrays built as regular grids."""

    dimension: int
    lattice_constant: float
    counts: tuple[int, ...]

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"lattice dimension must be 1, 2 or 3, got {self.dimension}")
        if not self.lattice_constant > 0:
            raise ValueError("lattice constant must be positive")
        counts = tuple(int(c) for c in self.counts)
        if len(counts) != self.dimension or any(c < 1 for c in counts):
            raise ValueError(f"need {self.dimension} per-axis counts >= 1, got {self.counts!r}")
        object.__setattr__(self, "counts", counts)


class ClockArray:
    """Ordered collection of clocks, immutable after construction.

    Positions are stored as an (N, 3) float array and frequencies as a length-N
    array, which keeps million-site lattices cheap. `convention` records how the
    angular frequencies were produced from quoted values. `rest_masses` is None
    or one entry per clock, None meaning "no mass"; masses are all-or-none,
    finite and positive. Every other constructor passes its columns here.
    """

    def __init__(self, omegas, positions, rest_masses=None,
                 lattice: LatticeInfo | None = None,
                 convention: FrequencyConvention | str = DEFAULT_CONVENTION):
        # copies: freezing them below leaves the caller's arrays writeable
        omegas = np.array(omegas, dtype=float).reshape(-1)
        positions = np.array(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"positions must have shape (N, 3), got {positions.shape}")
        if len(omegas) != len(positions):
            raise ValueError("omegas and positions must have the same length")
        if len(omegas) < 1:
            raise ValueError("a clock array needs at least one clock")
        if np.any(omegas < 0) or not np.all(np.isfinite(omegas)):
            raise ValueError("angular frequencies must be finite and non-negative")
        if not np.all(np.isfinite(positions)):
            raise ValueError("positions must be finite")
        if rest_masses is not None:
            # one entry per clock, None meaning "no mass": all clocks or none
            given = sum(m is not None for m in rest_masses)
            masses = np.array(rest_masses, dtype=float).reshape(-1)
            if len(masses) != len(omegas):
                raise ValueError("rest_masses must match the number of clocks")
            if given not in (0, len(omegas)):
                raise ValueError("either all clocks carry a rest mass or none do")
            if given and not np.all((masses > 0) & (masses < np.inf)):
                raise ValueError("rest masses must be finite and positive")
            masses.setflags(write=False)
            rest_masses = masses if given else None
        i, j = _coincident_pair(positions)
        if i is not None:
            raise ValueError(f"clocks {i} and {j} are coincident")
        omegas.setflags(write=False)
        positions.setflags(write=False)
        self._omegas = omegas
        self._positions = positions
        self._rest_masses = rest_masses
        self.lattice = lattice
        self.convention = FrequencyConvention.parse(convention)

    def __len__(self) -> int:
        return len(self._omegas)

    @property
    def omegas(self) -> np.ndarray:
        return self._omegas

    @property
    def positions(self) -> np.ndarray:
        return self._positions

    @property
    def rest_masses(self) -> np.ndarray | None:
        return self._rest_masses

    @property
    def clocks(self) -> tuple[ClockSpec, ...]:
        masses = self._rest_masses
        return tuple(
            ClockSpec(AngularFrequency(w), tuple(p),
                      None if masses is None else float(masses[k]))
            for k, (w, p) in enumerate(zip(self._omegas, self._positions))
        )

    @classmethod
    def from_clocks(cls, clocks, lattice: LatticeInfo | None = None,
                    convention=DEFAULT_CONVENTION) -> "ClockArray":
        clocks = list(clocks)
        return cls(
            omegas=[float(c.omega) for c in clocks],
            positions=[c.position for c in clocks],
            rest_masses=[c.rest_mass for c in clocks],
            lattice=lattice,
            convention=convention,
        )

    def center_index(self) -> int:
        """Index of the clock nearest the centroid (ties break to lowest index)."""
        return int(np.argmin(_distances(self._positions, self._positions.mean(axis=0))))

    # -- JSON import/export ------------------------------------------------

    def to_json_dict(self) -> dict:
        clocks = []
        for k in range(len(self)):
            entry = {"omega": float(self._omegas[k]),
                     "position": [float(x) for x in self._positions[k]]}
            if self._rest_masses is not None:
                entry["rest_mass"] = float(self._rest_masses[k])
            clocks.append(entry)
        out = {"clocks": clocks, "convention": self.convention.value}
        if self.lattice is not None:
            out["lattice"] = {
                "dimension": self.lattice.dimension,
                "lattice_constant": self.lattice.lattice_constant,
                "counts": list(self.lattice.counts),
            }
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "ClockArray":
        clocks = data["clocks"]
        lattice = None
        if "lattice" in data:
            lat = data["lattice"]
            lattice = LatticeInfo(lat["dimension"], lat["lattice_constant"],
                                  tuple(lat["counts"]))
        return cls(
            omegas=[c["omega"] for c in clocks],
            positions=[c["position"] for c in clocks],
            rest_masses=[c.get("rest_mass") for c in clocks],
            lattice=lattice,
            convention=data.get("convention", DEFAULT_CONVENTION),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "ClockArray":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class PairRateMatrix:
    """Symmetric N x N matrix of pair interaction rates, zero diagonal. A float
    array g is frozen in place, not copied, because a copy costs N^2."""

    g: np.ndarray
    convention: FrequencyConvention = field(default=DEFAULT_CONVENTION)

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"pair rate matrix must be square, got shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("pair rates must be finite")
        if np.any(np.abs(np.diag(g)) != 0):
            raise ValueError("pair rate matrix must have an exactly zero diagonal")
        # slab by slab of the upper triangle: g.T as a whole is read across rows
        b = _PAIR_BLOCK_ROWS
        if not all(np.array_equal(g[s:, s:s + b], g[s:s + b, s:].T)
                   for s in range(0, len(g), b)):
            raise ValueError("pair rate matrix must be exactly symmetric")
        if np.any(g < 0):
            raise ValueError("pair rates must be non-negative")
        g.setflags(write=False)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "convention", FrequencyConvention.parse(self.convention))

    def __len__(self) -> int:
        return self.g.shape[0]

    @classmethod
    def from_matrix(cls, g, convention=DEFAULT_CONVENTION) -> "PairRateMatrix":
        return cls(np.array(g, dtype=float), convention)


def _coincident_pair(positions: np.ndarray):
    """Lowest clock index sharing its position, and its lowest partner.

    A stable lexsort puts equal positions next to each other in index order,
    so this is O(N log N) at every N.
    """
    order = np.lexsort(positions.T[::-1])
    ranked = positions[order]
    same = np.all(ranked[1:] == ranked[:-1], axis=1)
    if not same.any():
        return (None, None)
    # a run of equal rows starts with its lowest index; take the lowest run
    starts = np.flatnonzero(same & ~np.concatenate(([False], same[:-1])))
    k = starts[np.argmin(order[starts])]
    return (int(order[k]), int(order[k + 1]))


def build_lattice(dimension: int, lattice_constant: float, counts,
                  omega: AngularFrequency | float,
                  convention=DEFAULT_CONVENTION) -> ClockArray:
    """Regular grid of identical clocks centered at the origin.

    `counts` gives the number of sites per axis; unused axes sit at zero, so a
    1D chain lies along x and a 2D sheet in the x-y plane.
    """
    info = LatticeInfo(dimension, float(lattice_constant), tuple(counts))
    axes = [
        (np.arange(n, dtype=float) - (n - 1) / 2.0) * info.lattice_constant
        for n in info.counts
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    n_total = int(np.prod(info.counts))
    positions = np.zeros((n_total, 3))
    for axis, grid in enumerate(grids):
        positions[:, axis] = grid.ravel()
    omegas = np.full(n_total, float(omega))
    return ClockArray(omegas, positions, lattice=info, convention=convention)


def pair_interaction_rate(clock1: ClockSpec, clock2: ClockSpec) -> Rate:
    """Interaction rate G hbar w1 w2 / (d c^4) for a single clock pair.

    The distance comes from `_distances`, as in `pair_rate_matrix`.
    """
    d = float(_distances([clock1.position], [clock2.position])[0])
    if d == 0.0:
        raise ValueError("coincident clocks have a singular interaction rate")
    if not d < np.inf:
        raise ValueError("the distance between the clocks is out of the float range")
    return Rate(G_HBAR_OVER_C4 * float(clock1.omega) * float(clock2.omega) / d)


def pair_rate_matrix(array: ClockArray) -> PairRateMatrix:
    """Full symmetric matrix of pair interaction rates for an array.

    The rows are formed in blocks of `_PAIR_BLOCK_ROWS`, in place in the
    result, from the three coordinate columns, so memory beyond the result is
    one (rows, N) buffer. A squared distance is summed as (dx² + dz²) + dy²:
    that is the order in which numpy's einsum("ijk,ijk->ij") reduces the
    contiguous length-3 axis of a C-ordered difference tensor Δ, so every
    matrix keeps the bits of the one-shot formula
    G·ħ·ω_iω_j / (c⁴·sqrt(einsum(Δ, Δ))), and each rate is
    G·ħ·(ω_i·ω_j) / (c⁴·`_distances`(p_i, p_j)). A cell whose squared distance
    under- or overflows takes its length from `_distances`, so clocks 1e-170 m
    or 1e200 m apart get their representable rate.
    """
    n = len(array)
    if n > _PAIR_MATRIX_LIMIT:
        raise ValueError(
            f"pair rate matrix for N={n} clocks exceeds the dense limit "
            f"({_PAIR_MATRIX_LIMIT}); use the continuum module for large arrays")
    pos, omegas = array.positions, array.omegas
    x, y, z = np.ascontiguousarray(pos.T)  # the coordinate columns
    g = np.empty((n, n))
    buffer = np.empty((min(n, _PAIR_BLOCK_ROWS), n))
    # an overflowing distance or rate is refused below or by PairRateMatrix
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, _PAIR_BLOCK_ROWS):
            stop = min(start + _PAIR_BLOCK_ROWS, n)
            d, t = g[start:stop], buffer[:stop - start]
            diagonal = (np.arange(stop - start), np.arange(start, stop))
            np.subtract.outer(x[start:stop], x, out=d)
            np.multiply(d, d, out=d)
            for column in (z, y):
                np.subtract.outer(column[start:stop], column, out=t)
                np.multiply(t, t, out=t)
                np.add(d, t, out=d)
            d[diagonal] = 1.0  # set aside
            bad = None
            if d.min() < _TINY or d.max() == np.inf:
                bad = np.nonzero((d < _TINY) | (d == np.inf))
            np.sqrt(d, out=d)
            if bad is not None:
                # only a flagged cell can be zero or infinite after the sqrt
                d[bad] = redone = _distances(pos[start + bad[0]], pos[bad[1]])
                if not redone.all():
                    k = np.flatnonzero(redone == 0.0)[0]
                    raise ValueError(
                        f"clocks {start + bad[0][k]} and {bad[1][k]} are coincident")
                if not redone.max() < np.inf:
                    k = np.flatnonzero(~np.isfinite(redone))[0]
                    raise ValueError(f"the distance between clocks {start + bad[0][k]} "
                                     f"and {bad[1][k]} is out of the float range")
            np.multiply.outer(omegas[start:stop], omegas, out=t)
            np.multiply(G_HBAR_OVER_C4, t, out=t)
            np.divide(t, d, out=d)
            d[diagonal] = 0.0
    return PairRateMatrix(g, convention=array.convention)


def _distances(a, b) -> np.ndarray:
    """Lengths of the rows of a - b, for (M, 3) point sets or one point
    against a set; the one place a length between points is formed. Squares
    are summed as (dx² + dz²) + dy², the pair kernel's order. A row whose
    square under- or overflows is taken again scaled by its largest
    |component|; a difference past the float range gives a nan length, which
    callers refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.subtract(a, b)
        dx, dy, dz = diff.T
        squared = dx * dx + dz * dz + dy * dy
        d = np.sqrt(squared)
        bad = (squared < _TINY) | (squared == np.inf)
        if bad.any():
            s = np.abs(diff[bad]).max(axis=1)
            dx, dy, dz = diff[bad].T / np.where(s > 0, s, 1.0)
            d[bad] = s * np.sqrt(dx * dx + dz * dz + dy * dy)
    return d
