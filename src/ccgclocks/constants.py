"""Physical constants, unit-carrying scalars and the frequency convention switch.

Everything downstream works in SI units at double precision. The only
configurable piece is how a quoted clock frequency (in Hz) is turned into an
angular frequency: either used as-is ("direct") or multiplied by 2*pi
("times-two-pi"). Published estimates in this domain are only reproduced under
the direct convention, so that is the default; reports always record which
convention produced them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class FrequencyConvention(str, enum.Enum):
    """How quoted experimental frequencies map onto angular frequencies."""

    DIRECT = "direct"
    TIMES_TWO_PI = "times-two-pi"

    @classmethod
    def parse(cls, value) -> "FrequencyConvention":
        if isinstance(value, cls):
            return value
        aliases = {"2pi": cls.TIMES_TWO_PI, "two-pi": cls.TIMES_TWO_PI}
        if value in aliases:
            return aliases[value]
        return cls(value)


DEFAULT_CONVENTION = FrequencyConvention.DIRECT


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA-2018 values; immutable, shared by every module."""

    G: float      # gravitational constant, m^3 kg^-1 s^-2
    hbar: float   # reduced Planck constant, J s
    c: float      # speed of light, m s^-1

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.G, self.hbar, self.c)):
            raise ValueError("physical constants must be strictly positive")


CONSTANTS = PhysicalConstants(G=6.67430e-11, hbar=1.054571817e-34, c=2.99792458e8)

G_HBAR_OVER_C4 = CONSTANTS.G * CONSTANTS.hbar / CONSTANTS.c**4  # m s; g12 = this * w1 w2 / d


def dephasing_prefactor(omega) -> float:
    """G hbar w^2 / (2 c^4), m/s, the factor before a clock's distance sum."""
    try:
        return CONSTANTS.G * CONSTANTS.hbar * float(omega) ** 2 / (2.0 * CONSTANTS.c ** 4)
    except OverflowError:  # a float w^2 overflows
        raise ValueError(f"angular frequency {float(omega)!r} squared is out of the "
                         "float range") from None


def _check_scalar(value: float, name: str, nonnegative: bool = True) -> float:
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if nonnegative and value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


@dataclass(frozen=True)
class _CheckedScalar:
    """A finite, non-negative float; each subclass names it in `_what`."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _check_scalar(self.value, self._what))

    def __float__(self) -> float:
        return self.value


class AngularFrequency(_CheckedScalar):
    """Angular transition frequency, rad/s."""

    _what = "angular frequency"


class Rate(_CheckedScalar):
    """A dephasing or measurement rate, s^-1."""

    _what = "rate"


class PositionMeasurementRate(_CheckedScalar):
    """Strength of a continuous position measurement, Hz m^-2."""

    _what = "position measurement rate"


def apply_convention(quoted_frequency: float,
                     convention: FrequencyConvention | str = DEFAULT_CONVENTION) -> AngularFrequency:
    """Turn a quoted frequency in Hz into an angular frequency in rad/s."""
    f = _check_scalar(quoted_frequency, "quoted frequency")
    convention = FrequencyConvention.parse(convention)
    if convention is FrequencyConvention.TIMES_TWO_PI:
        return AngularFrequency(2.0 * math.pi * f)
    return AngularFrequency(f)
