"""Dephasing of a single clock from the gravitational redshift channel.

A trapped clock near a mass element m at distance d couples through

    g_i = G m w / (c^2 d^2)      [Hz / m]

and the channel adds a clock dephasing D = Gamma_z / 2 + sum_i g_i^2 / (8 Gamma_i)
together with position diffusion on the mass (whose coefficients are reported
but never evolved here; the position sector belongs to companion treatments).
For a crystal of identical atoms the internal gravitational couplings fix
Gamma = G m^2 / (hbar L_c^3), which turns the feedback sum into
(G hbar L_c^3 w^2 / 8 c^4) sum_i d_i^(-4): only nearby atoms matter. For a
spherical shell (inner radius l, outer L) the volume integral is exact:

    D = Gamma_z / 2 + (pi G hbar w^2 / 2 c^4) (1/l - 1/L).

No minimization is attempted in this sector (the clock-mass asymmetry defeats
it); experiment-derived bounds on the rates replace it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    CONSTANTS,
    DEFAULT_CONVENTION,
    FrequencyConvention,
    PositionMeasurementRate,
    Rate,
)
from .continuum import _exact_sum
from .geometry import _distances


@dataclass(frozen=True)
class ShellShape:
    """Spherical shell centered on the clock: inner radius l, outer radius L.

    A zero-thickness shell (L = l) is allowed and contributes nothing.
    """

    inner_radius: float
    outer_radius: float

    def __post_init__(self):
        if not (self.outer_radius >= self.inner_radius > 0):
            raise ValueError("a shell needs outer radius >= inner radius > 0")


@dataclass(frozen=True)
class ExplicitAtoms:
    """Atom positions of a composite body, one row per atom (meters)."""

    positions: np.ndarray

    def __post_init__(self):
        # a copy: freezing it below leaves the caller's array writeable
        pos = np.array(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or len(pos) == 0:
            raise ValueError("positions must be a non-empty (N, 3) array")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)


@dataclass(frozen=True)
class CompositeBody:
    """Crystal of identical atoms: atom mass, lattice constant and a shape."""

    atom_mass: float
    lattice_constant: float
    shape: ShellShape | ExplicitAtoms

    def __post_init__(self):
        if not (self.atom_mass > 0 and self.lattice_constant > 0):
            raise ValueError("atom mass and lattice constant must be positive")
        if not isinstance(self.shape, (ShellShape, ExplicitAtoms)):
            raise ValueError("shape must be a ShellShape or ExplicitAtoms")


@dataclass(frozen=True)
class RedshiftDephasing:
    """Clock dephasing split into measurement and feedback parts.

    position_diffusion holds the per-atom coefficients Gamma/2 + g_i^2/(8 Gamma_z)
    in Hz m^-2 (infinite for Gamma_z = 0 or where they overflow); they are
    reported, not evolved.
    """

    total: float
    measurement_part: float
    feedback_part: float
    position_diffusion: np.ndarray | None = None
    convention: FrequencyConvention = DEFAULT_CONVENTION

    def __post_init__(self):
        if self.measurement_part < 0 or self.feedback_part < 0:
            raise ValueError("dephasing parts must be non-negative")
        if not math.isclose(self.total, self.measurement_part + self.feedback_part,
                            rel_tol=1e-12, abs_tol=0.0):
            raise ValueError("total must equal measurement + feedback part")
        if self.position_diffusion is not None:
            # a copy: freezing it below leaves the caller's array writeable
            arr = np.array(self.position_diffusion, dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, "position_diffusion", arr)
        object.__setattr__(self, "convention",
                           FrequencyConvention.parse(self.convention))

    def _json_fields(self) -> dict:
        """to_json_dict() with a finite diffusion array as an array."""
        out = {
            "total_hz": float(self.total),
            "measurement_part_hz": float(self.measurement_part),
            "feedback_part_hz": float(self.feedback_part),
            "convention": self.convention.value,
        }
        diffusion = self.position_diffusion
        if diffusion is not None:
            # strict JSON has no infinity; Gamma_z = 0 diffusion is "inf"
            out["position_diffusion_hz_per_m2"] = (
                diffusion if np.isfinite(diffusion).all()
                else [x if math.isfinite(x) else "inf" for x in diffusion.tolist()])
        return out

    def to_json_dict(self) -> dict:
        return {k: v.tolist() if isinstance(v, np.ndarray) else v
                for k, v in self._json_fields().items()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, allow_nan=False)


def redshift_coupling(mass: float, distance: float | np.ndarray, omega) -> float | np.ndarray:
    """Energy-position coupling G m w / (c^2 d^2), units Hz/m. An array of
    distances gives one coupling per distance, a float distance a float."""
    if not (np.asarray(distance) > 0).all():  # NaN fails too
        raise ValueError("distance must be positive")
    if mass < 0:
        raise ValueError("mass must be non-negative")
    with np.errstate(over="ignore"):  # an overflowing square is refused below
        squared = distance * distance
    fits = np.ravel((squared > 0) & (squared < np.inf))
    if not fits.all():
        bad = float(np.ravel(distance)[np.argmin(fits)])
        raise ValueError(f"distance {bad!r} squared is out of the float range")
    return CONSTANTS.G * mass * float(omega) / (CONSTANTS.c ** 2 * squared)


def internal_measurement_rate(atom_mass: float, lattice_constant: float) -> PositionMeasurementRate:
    """Position measurement rate G m^2 / (hbar L_c^3) fixed by the couplings
    between neighboring atoms of the body itself."""
    if not (atom_mass > 0 and lattice_constant > 0):
        raise ValueError("atom mass and lattice constant must be positive")
    try:
        return PositionMeasurementRate(
            CONSTANTS.G * atom_mass ** 2 / (CONSTANTS.hbar * lattice_constant ** 3))
    except (OverflowError, ZeroDivisionError):  # a float m^2 or L_c^3 leaves the range
        raise ValueError(f"the position measurement rate of atoms of mass {atom_mass!r} "
                         f"at lattice constant {lattice_constant!r} is out of the "
                         "float range") from None


def _clock_rate(gamma_z) -> float:
    """The clock measurement rate Gamma_z as a float, finite and >= 0."""
    gz = float(gamma_z)
    if not 0 <= gz < math.inf:  # NaN fails too
        raise ValueError("clock measurement rate must be finite and non-negative")
    return gz


def _channel_dephasing(couplings: np.ndarray, gamma, gamma_z,
                       convention) -> RedshiftDephasing:
    """Clock dephasing Gamma_z/2 + sum_i g_i^2 / (8 Gamma) from masses with
    couplings g_i, each measured at the rate Gamma (the feedback term diverges
    at Gamma = 0), and their position diffusion Gamma/2 + g_i^2 / (8 Gamma_z)."""
    gamma, gz = float(gamma), _clock_rate(gamma_z)
    if not 0 < gamma < math.inf:
        raise ValueError("position measurement rate must be finite and positive")
    with np.errstate(over="ignore"):  # a non-finite sum is raised as ValueError
        squares = couplings ** 2
        feedback = _exact_sum(squares / (8.0 * gamma), "redshift feedback sum")
        diffusion = (gamma / 2.0 + squares / (8.0 * gz) if gz > 0
                     else np.full(len(squares), np.inf))
    return RedshiftDephasing(total=gz / 2.0 + feedback,
                             measurement_part=gz / 2.0,
                             feedback_part=feedback,
                             position_diffusion=diffusion,
                             convention=convention)


def shell_dephasing(inner_radius: float, outer_radius: float, omega,
                    gamma_z, convention=DEFAULT_CONVENTION) -> RedshiftDephasing:
    """Closed-form clock dephasing from a shell of matter around the clock."""
    ShellShape(inner_radius, outer_radius)  # the radii rule
    gz = _clock_rate(gamma_z)
    try:
        feedback = (math.pi * CONSTANTS.G * CONSTANTS.hbar * float(omega) ** 2
                    / (2.0 * CONSTANTS.c ** 4)) * (1.0 / inner_radius - 1.0 / outer_radius)
    except OverflowError:  # a float w^2 overflows
        raise ValueError(f"angular frequency {float(omega)!r} squared is out of the "
                         "float range") from None
    total = gz / 2.0 + feedback  # a float product or sum overflows to inf
    if not math.isfinite(total):
        raise ValueError("the shell's dephasing rate is out of the float range")
    return RedshiftDephasing(total=total,
                             measurement_part=gz / 2.0,
                             feedback_part=feedback,
                             convention=convention)


def composite_dephasing(body: CompositeBody, clock_position, omega, gamma_z, *,
                        gamma_atoms: PositionMeasurementRate | float | None = None,
                        convention=DEFAULT_CONVENTION) -> RedshiftDephasing:
    """Clock dephasing from a composite body.

    Shell shapes use the exact volume integral. Explicit atom lists are summed
    with correctly rounded summation; the clock must stay outside every atom's
    exclusion radius L_c / 2, mirroring the lower cutoff that keeps the d^-4
    sum convergent. gamma_atoms overrides the internal measurement rate (used
    e.g. to realize a one-atom body with a prescribed rate).
    """
    if isinstance(body.shape, ShellShape):
        return shell_dephasing(body.shape.inner_radius, body.shape.outer_radius,
                               omega, gamma_z, convention=convention)
    gamma = gamma_atoms if gamma_atoms is not None else internal_measurement_rate(
        body.atom_mass, body.lattice_constant)
    clock = np.asarray(clock_position, dtype=float)
    if clock.shape != (3,) or not np.all(np.isfinite(clock)):
        raise ValueError("clock position must be three finite coordinates")
    d = _distances(body.shape.positions, clock)
    if not np.all(np.isfinite(d)):
        k = int(np.argmin(np.isfinite(d)))
        raise ValueError(f"the distance from the clock to atom {k} is not finite")
    exclusion = body.lattice_constant / 2.0
    if np.any(d < exclusion):
        k = int(np.argmin(d))
        raise ValueError(
            f"clock lies inside the exclusion radius of atom {k} "
            f"(distance {d[k]:.3e} m < {exclusion:.3e} m)")
    return _channel_dephasing(redshift_coupling(body.atom_mass, d, omega),
                              gamma, gamma_z, convention)


def simple_particle_dephasing(mass: float, distance: float, omega,
                              gamma_i, gamma_z,
                              convention=DEFAULT_CONVENTION) -> RedshiftDephasing:
    """Clock dephasing with the body as one collective degree of freedom:
    D = Gamma_z/2 + G^2 M^2 w^2 / (8 c^4 d^4 Gamma_i). This is the one-atom
    limit of the composite description."""
    if not (mass > 0 and distance > 0):
        raise ValueError("mass and distance must be positive")
    return _channel_dephasing(np.array([redshift_coupling(mass, distance, omega)]),
                              gamma_i, gamma_z, convention)


def bound_parameters(observed_dephasing_cap, mass: float, distance: float,
                     omega) -> tuple[PositionMeasurementRate, Rate]:
    """Experiment-derived bounds from the absence of anomalous dephasing.

    A cap on the observed dephasing bounds the measurement rate from above
    (Gamma_z <= 2 cap) and the position rate from below (feedback term alone
    must not exceed the cap).
    """
    cap = float(observed_dephasing_cap)
    if not cap > 0:
        raise ValueError("the dephasing cap must be positive")
    coupling = redshift_coupling(mass, distance, omega)
    try:
        gamma_i_lower = coupling ** 2 / (8.0 * cap)
    except OverflowError:  # a float g^2 overflows
        raise ValueError("the bound position measurement rate is not finite") from None
    return PositionMeasurementRate(gamma_i_lower), Rate(2.0 * cap)
