import math

import pytest
from hypothesis import given, strategies as st

from ccgclocks.constants import (
    CONSTANTS,
    G_HBAR_OVER_C4,
    AngularFrequency,
    FrequencyConvention,
    PhysicalConstants,
    PositionMeasurementRate,
    Rate,
    apply_convention,
    dephasing_prefactor,
)


def test_codata_values():
    assert CONSTANTS.G == 6.67430e-11
    assert CONSTANTS.hbar == 1.054571817e-34
    assert CONSTANTS.c == 2.99792458e8


def test_constants_round_trip_bit_exact():
    again = PhysicalConstants.from_json(CONSTANTS.to_json())
    assert again.G == CONSTANTS.G
    assert again.hbar == CONSTANTS.hbar
    assert again.c == CONSTANTS.c


def test_constants_reject_nonpositive():
    with pytest.raises(ValueError):
        PhysicalConstants(G=0.0, hbar=1e-34, c=3e8)


def test_apply_convention_direct_identity():
    assert float(apply_convention(1e15, "direct")) == 1e15


def test_apply_convention_two_pi():
    w = float(apply_convention(1e15, "times-two-pi"))
    assert w == pytest.approx(6.2832e15, rel=1e-4)
    assert w == 2.0 * math.pi * 1e15


def test_apply_convention_zero():
    assert float(apply_convention(0.0, "direct")) == 0.0
    assert float(apply_convention(0.0, "times-two-pi")) == 0.0


def test_apply_convention_rejects_negative():
    with pytest.raises(ValueError):
        apply_convention(-1.0, "direct")


def test_convention_aliases():
    assert FrequencyConvention.parse("2pi") is FrequencyConvention.TIMES_TWO_PI
    assert FrequencyConvention.parse("direct") is FrequencyConvention.DIRECT
    with pytest.raises(ValueError):
        FrequencyConvention.parse("radians")


@given(st.floats(min_value=1e-30, max_value=1e30))
def test_convention_ratio_is_two_pi(f):
    ratio = float(apply_convention(f, "times-two-pi")) / float(apply_convention(f, "direct"))
    assert ratio == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_scalar_types_validate():
    assert float(AngularFrequency(1e15)) == 1e15
    assert float(Rate(0.0)) == 0.0
    with pytest.raises(ValueError):
        AngularFrequency(-1.0)
    with pytest.raises(ValueError):
        Rate(-1e-3)
    with pytest.raises(ValueError):
        PositionMeasurementRate(float("nan"))


@pytest.mark.parametrize("omega", [1e15, 2 * math.pi * 1e15, 8e17, 1e26, 0.0])
def test_shared_prefactors_keep_their_operation_order(omega):
    G, hbar, c = CONSTANTS.G, CONSTANTS.hbar, CONSTANTS.c
    assert dephasing_prefactor(omega) == G * hbar * omega ** 2 / (2.0 * c ** 4)
    assert G_HBAR_OVER_C4 == G * hbar / c**4
