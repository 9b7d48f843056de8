import json
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


def approx(expected, rel, abs=0.0):
    """pytest.approx without its default 1e-12 absolute tolerance, under which
    any two values below 1e-12 compare equal (SI rates here are near 1e-42 Hz);
    an absolute tolerance is passed where one is meant."""
    return pytest.approx(expected, rel=rel, abs=abs)


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


@pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
@pytest.mark.parametrize("field", ["G", "hbar", "c"])
def test_constants_reject_non_finite(field, bad):
    values = {"G": 1.0, "hbar": 1.0, "c": 1.0, field: bad}
    with pytest.raises(ValueError, match="strictly positive"):
        PhysicalConstants(**values)
    with pytest.raises(ValueError, match="strictly positive"):
        PhysicalConstants.from_json(json.dumps(values))


def _strict_json_cases():
    from ccgclocks.geometry import build_lattice, pair_rate_matrix
    from ccgclocks.lindblad import DensityMatrix
    from ccgclocks.rates import min_dephasing_pairwise_A
    from ccgclocks.redshift import simple_particle_dephasing

    chain = build_lattice(1, 1e-6, [3], 1e15)
    return [chain, DensityMatrix.all_plus(1),
            min_dephasing_pairwise_A(pair_rate_matrix(chain)),
            simple_particle_dephasing(1.0, 1.0, 1e15, 1.0, 0.3)]


@pytest.mark.parametrize("obj", _strict_json_cases(), ids=lambda o: type(o).__name__)
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_every_to_json_writes_strict_json(obj, bad, monkeypatch):
    json.loads(obj.to_json(), parse_constant=pytest.fail)
    monkeypatch.setattr(type(obj), "to_json_dict", lambda self: {"value": bad})
    with pytest.raises(ValueError, match="JSON compliant"):
        obj.to_json()


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_constants_to_json_writes_strict_json(bad):
    json.loads(CONSTANTS.to_json(), parse_constant=pytest.fail)
    constants = PhysicalConstants(1.0, 1.0, 1.0)
    object.__setattr__(constants, "G", bad)  # bypass the check to reach to_json
    with pytest.raises(ValueError, match="JSON compliant"):
        constants.to_json()


def test_apply_convention_direct_identity():
    assert float(apply_convention(1e15, "direct")) == 1e15


def test_apply_convention_two_pi():
    w = float(apply_convention(1e15, "times-two-pi"))
    assert w == approx(6.2832e15, rel=1e-4)
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
    assert ratio == approx(2.0 * math.pi, rel=1e-15)


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


@pytest.mark.parametrize("omega", [1e160, 1e300])
def test_prefactor_whose_frequency_squared_overflows_is_typed(omega):
    # a Python float w ** 2 raised OverflowError
    with pytest.raises(ValueError, match="squared is out of the float range"):
        dephasing_prefactor(omega)
