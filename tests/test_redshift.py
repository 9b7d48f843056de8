import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ccgclocks.constants import CONSTANTS, apply_convention, dephasing_prefactor
from ccgclocks.redshift import (
    CompositeBody,
    ExplicitAtoms,
    RedshiftDephasing,
    ShellShape,
    bound_parameters,
    composite_dephasing,
    internal_measurement_rate,
    redshift_coupling,
    shell_dephasing,
    simple_particle_dephasing,
)

W15 = float(apply_convention(1e15, "direct"))
EARTH_MASS = 5.97e24
EARTH_RADIUS = 6.371e6

G, HBAR, C = CONSTANTS.G, CONSTANTS.hbar, CONSTANTS.c


def approx(expected, rel):
    """pytest.approx without its default 1e-12 absolute tolerance, under which
    any two values below 1e-12 compare equal (most values here are)."""
    return pytest.approx(expected, rel=rel, abs=0.0)


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


def shell_atoms(inner, outer, spacing):
    """Offset cubic grid restricted to the shell (no atom at the clock)."""
    n = int(math.ceil(outer / spacing)) + 1
    ax = (np.arange(-n, n + 1) + 0.5) * spacing
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    pos = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    d2 = (pos**2).sum(axis=1)
    keep = (d2 >= inner**2) & (d2 <= outer**2)
    return pos[keep]


class TestRedshiftCoupling:
    def test_zero_mass(self):
        assert redshift_coupling(0.0, 1.0, W15) == 0.0

    def test_inverse_square_distance(self):
        g1 = redshift_coupling(1.0, 1.0, W15)
        g2 = redshift_coupling(1.0, 2.0, W15)
        assert g2 == approx(g1 / 4.0, rel=1e-12)

    def test_earth_value_constant_folding(self):
        expected = 6.67430e-11 * 5.97e24 * 1e15 / (2.99792458e8**2 * 6.371e6**2)
        got = redshift_coupling(EARTH_MASS, EARTH_RADIUS, W15)
        assert got == approx(expected, rel=1e-12)
        assert got == approx(0.109225, rel=1e-4)

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            redshift_coupling(1.0, 0.0, W15)

    def test_distance_array_gives_one_coupling_per_distance(self):
        d = np.array([0.5, 1.0, 2.0, 6.371e6])
        got = redshift_coupling(3.0, d, W15)
        expected = [redshift_coupling(3.0, float(x), W15) for x in d]
        assert got.tolist() == expected  # one d * d path for floats and arrays
        assert isinstance(redshift_coupling(3.0, 2.0, W15), float)
        with pytest.raises(ValueError, match="distance must be positive"):
            redshift_coupling(3.0, np.array([1.0, 0.0]), W15)
        with pytest.raises(ValueError, match="distance must be positive"):
            redshift_coupling(3.0, np.array([1.0, math.nan]), W15)

    @pytest.mark.parametrize("distance", [1e200, 1e-200, 1e154])
    def test_distance_squared_out_of_float_range_is_typed(self, distance):
        # d * d overflows, or underflows to zero and divides, or c^2 d^2
        # overflows (1e154), for a float distance and an array entry alike,
        # with no RuntimeWarning
        message = f"distance {distance!r} squared is out of the float range"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in (distance, np.array([1.0, distance, 2.0])):
                with pytest.raises(ValueError, match=re.escape(message)):
                    redshift_coupling(1.0, d, W15)


class TestInternalMeasurementRate:
    def test_mass_squared_law(self):
        r1 = float(internal_measurement_rate(1e-25, 1e-10))
        r2 = float(internal_measurement_rate(2e-25, 1e-10))
        assert r2 == approx(4.0 * r1, rel=1e-12)

    def test_silver_atom_value(self):
        got = float(internal_measurement_rate(1.81e-25, 1e-10))
        expected = 6.67430e-11 * (1.81e-25) ** 2 / (1.054571817e-34 * 1e-30)
        assert got == approx(expected, rel=1e-12)
        assert got == approx(2.0734e4, rel=1e-3)
        assert got > 0

    def test_large_spacing_limit(self):
        assert float(internal_measurement_rate(1e-25, 1e10)) < 1e-55

    def test_validation(self):
        with pytest.raises(ValueError):
            internal_measurement_rate(0.0, 1e-10)

    @pytest.mark.parametrize("mass,spacing", [(1.0, 1e110), (1e160, 1.0), (1.0, 1e-110)])
    def test_rate_out_of_the_float_range_is_typed(self, mass, spacing):
        # L_c^3 or m^2 overflows as a Python float, or L_c^3 underflows to 0 and divides
        with pytest.raises(ValueError, match="position measurement rate .* out of the float"):
            internal_measurement_rate(mass, spacing)


class TestShellDephasing:
    def test_zero_thickness_shell_leaves_measurement_only(self):
        out = shell_dephasing(0.5, 0.5, W15, gamma_z=0.8)
        assert out.feedback_part == 0.0
        assert out.total == approx(0.4, rel=1e-12)

    def test_centimeter_to_meter_shell(self):
        out = shell_dephasing(0.01, 1.0, W15, gamma_z=0.0)
        expected = math.pi * G * HBAR * W15**2 / (2 * C**4) * (100.0 - 1.0)
        assert out.feedback_part == approx(expected, rel=1e-12)
        assert out.feedback_part == approx(1.35505e-46, rel=1e-4)

    def test_inverted_shell_rejected(self):
        with pytest.raises(ValueError):
            shell_dephasing(1.0, 0.5, W15, gamma_z=0.0)

    @pytest.mark.parametrize("inner,outer", [(1.0, 0.5), (0.0, 1.0), (-1.0, 1.0),
                                             (math.nan, 1.0), (0.5, math.nan)])
    def test_radii_follow_the_shell_shape_rule(self, inner, outer):
        with pytest.raises(ValueError, match="outer radius >= inner radius > 0"):
            ShellShape(inner, outer)
        with pytest.raises(ValueError, match="outer radius >= inner radius > 0"):
            shell_dephasing(inner, outer, W15, gamma_z=0.0)

    def test_monotone_in_radii(self):
        base = shell_dephasing(0.5, 2.0, W15, 0.0).feedback_part
        assert shell_dephasing(0.6, 2.0, W15, 0.0).feedback_part < base
        assert shell_dephasing(0.5, 3.0, W15, 0.0).feedback_part > base

    def test_thick_shell_dominated_by_inner_radius(self):
        inner_only = math.pi * G * HBAR * W15**2 / (2 * C**4) / 0.5
        thick = shell_dephasing(0.5, 50.0, W15, 0.0).feedback_part
        assert thick == approx(inner_only, rel=1.5e-2)

    def test_distant_shell_vanishes(self):
        far = shell_dephasing(1e9, 2e9, W15, 0.0)
        assert far.feedback_part < 1e-55


    @settings(max_examples=200, deadline=None)
    @given(_log_uniform(-12, 12), st.floats(1.0, 1e6), _log_uniform(0, 100))
    def test_feedback_is_pi_times_the_dephasing_prefactor(self, inner, ratio, omega):
        # the shell kept its own copy of the prefactor, in another order
        got = shell_dephasing(inner, inner * ratio, omega, 0.0).feedback_part
        want = math.pi * dephasing_prefactor(omega) * (1.0 / inner - 1.0 / (inner * ratio))
        assert got.hex() == want.hex()


class TestCompositeDephasing:
    def test_shell_shape_uses_closed_form(self):
        body = CompositeBody(1.8e-25, 1e-10, ShellShape(0.3, 1.7))
        out = composite_dephasing(body, (0, 0, 0), W15, 0.2)
        ref = shell_dephasing(0.3, 1.7, W15, 0.2)
        assert out.total == approx(ref.total, rel=1e-12)

    def test_discretized_shell_approaches_closed_form(self):
        closed = shell_dephasing(0.5, 2.0, W15, 0.0).feedback_part
        errors = []
        for k in (4, 8, 16):
            h = 0.5 / k
            body = CompositeBody(1.0, h, ExplicitAtoms(shell_atoms(0.5, 2.0, h)))
            got = composite_dephasing(body, (0, 0, 0), W15, 0.0).feedback_part
            errors.append(abs(got - closed) / closed)
        assert errors[-1] < 0.01
        assert errors[0] > errors[1] > errors[2]

    def test_explicit_cube_matches_riemann_oracle(self):
        # small cube of atoms vs a fine midpoint quadrature of the volume integral
        spacing = 0.05
        half = 5
        ax = (np.arange(-half, half) + 0.5) * spacing
        x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
        pos = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
        pos[:, 0] += 2.0  # cube center 2 m from the clock
        body = CompositeBody(1.0, spacing, ExplicitAtoms(pos))
        got = composite_dephasing(body, (0, 0, 0), W15, 0.0).feedback_part

        fine = 40
        axq = (np.arange(fine) + 0.5) / fine * (2 * half * spacing) - half * spacing
        xq, yq, zq = np.meshgrid(axq, axq, axq, indexing="ij")
        d4 = ((xq + 2.0) ** 2 + yq**2 + zq**2) ** 2
        cell = (2 * half * spacing / fine) ** 3
        integral = float((cell / d4).sum())
        oracle = G * HBAR * W15**2 / (8 * C**4) * integral
        assert got == approx(oracle, rel=5e-3)

    def test_exclusion_radius_enforced(self):
        body = CompositeBody(1.0, 0.2, ExplicitAtoms(np.array([[0.05, 0, 0]])))
        with pytest.raises(ValueError, match="exclusion"):
            composite_dephasing(body, (0, 0, 0), W15, 0.0)

    def test_overflowing_feedback_sum_is_loud(self):
        body = CompositeBody(1e150, 1.0, ExplicitAtoms(np.array([[1.0, 0, 0], [2.0, 0, 0]])))
        with pytest.raises(ValueError, match="feedback sum is not finite"):
            composite_dephasing(body, (0, 0, 0), W15, 0.0, gamma_atoms=1e-300)

    def test_position_diffusion_reported(self):
        body = CompositeBody(1.0, 0.1, ExplicitAtoms(np.array([[1.0, 0, 0]])))
        out = composite_dephasing(body, (0, 0, 0), W15, gamma_z=0.5)
        gamma = float(internal_measurement_rate(1.0, 0.1))
        gi = redshift_coupling(1.0, 1.0, W15)
        assert out.position_diffusion[0] == approx(
            gamma / 2 + gi**2 / (8 * 0.5), rel=1e-12)
        out0 = composite_dephasing(body, (0, 0, 0), W15, gamma_z=0.0)
        assert np.isinf(out0.position_diffusion[0])

    def test_atom_and_diffusion_arrays_are_copied(self):
        # a view of the caller's array let the caller change a checked object
        pos, diffusion = np.array([[1.0, 0.0, 0.0]]), np.array([2.0])
        atoms = ExplicitAtoms(pos)
        out = RedshiftDephasing(total=1.0, measurement_part=0.5, feedback_part=0.5,
                                position_diffusion=diffusion)
        pos[0, 0], diffusion[0] = math.nan, -5.0
        assert atoms.positions.tolist() == [[1.0, 0.0, 0.0]]
        assert out.position_diffusion.tolist() == [2.0]
        assert pos.flags.writeable and diffusion.flags.writeable


class TestSimpleParticle:
    def test_projective_limit_kills_feedback(self):
        out = simple_particle_dephasing(EARTH_MASS, EARTH_RADIUS, W15,
                                        gamma_i=1e30, gamma_z=0.3)
        assert out.total == approx(0.15, rel=1e-6)

    def test_earth_at_bound_scale(self):
        out = simple_particle_dephasing(EARTH_MASS, EARTH_RADIUS, W15,
                                        gamma_i=15.0, gamma_z=0.0)
        expected = (G**2 * EARTH_MASS**2 * W15**2
                    / (8 * C**4 * EARTH_RADIUS**4 * 15.0))
        assert out.feedback_part == approx(expected, rel=1e-12)
        assert out.feedback_part == approx(1e-4, rel=0.01)

    def test_mass_squared_law(self):
        f1 = simple_particle_dephasing(1e20, 1e6, W15, 1.0, 0.0).feedback_part
        f2 = simple_particle_dephasing(2e20, 1e6, W15, 1.0, 0.0).feedback_part
        assert f2 == approx(4 * f1, rel=1e-12)

    def test_zero_gamma_rejected(self):
        with pytest.raises(ValueError):
            simple_particle_dephasing(1e20, 1e6, W15, 0.0, 0.0)

    def test_position_diffusion_of_the_body(self):
        # Gamma/2 + g^2/(8 Gamma_z) with the coupling term dominating
        out = simple_particle_dephasing(EARTH_MASS, EARTH_RADIUS, W15, 1e-6, 0.3)
        g = G * EARTH_MASS * W15 / (C**2 * EARTH_RADIUS**2)
        assert out.position_diffusion.tolist() == [approx(1e-6 / 2 + g**2 / (8 * 0.3),
                                                          rel=1e-12)]

    @settings(max_examples=200, deadline=None)
    @given(m=_log_uniform(-27, 30), d=_log_uniform(-6, 6), omega=_log_uniform(3, 20),
           gi=_log_uniform(-30, 30),
           gz=st.one_of(st.just(0.0), _log_uniform(-30, 30)))
    @example(m=1.0, d=2.759, omega=1e15, gi=1.0, gz=0.0)  # libm 2.759 ** 2 != 2.759 * 2.759
    def test_single_atom_composite_consistency(self, m, d, omega, gi, gz):
        # one kernel: the simple body is the one-atom crystal at the same rate
        simple = simple_particle_dephasing(m, d, omega, gi, gz)
        body = CompositeBody(m, d, ExplicitAtoms(np.array([[d, 0.0, 0.0]])))
        comp = composite_dephasing(body, (0, 0, 0), omega, gz, gamma_atoms=gi)
        assert comp.total == simple.total
        assert comp.feedback_part == simple.feedback_part
        assert np.array_equal(comp.position_diffusion, simple.position_diffusion)

    def test_omega_squared_scaling(self):
        f1 = simple_particle_dephasing(1e20, 1e6, W15, 1.0, 0.0).feedback_part
        f2 = simple_particle_dephasing(1e20, 1e6, 2 * W15, 1.0, 0.0).feedback_part
        assert f2 == approx(4 * f1, rel=1e-12)
        s1 = shell_dephasing(0.5, 2.0, W15, 0.0).feedback_part
        s2 = shell_dephasing(0.5, 2.0, 2 * W15, 0.0).feedback_part
        assert s2 == approx(4 * s1, rel=1e-12)


class TestBounds:
    def test_earth_bounds_match_published_scale(self):
        gi, gz = bound_parameters(1e-4, EARTH_MASS, EARTH_RADIUS, W15)
        assert float(gi) == approx(14.9127, rel=1e-4)
        assert 10.0 / 3 <= float(gi) <= 10.0 * 3
        assert float(gz) == 2e-4

    def test_linearity_in_cap(self):
        gi1, gz1 = bound_parameters(1e-4, EARTH_MASS, EARTH_RADIUS, W15)
        gi2, gz2 = bound_parameters(1e-3, EARTH_MASS, EARTH_RADIUS, W15)
        assert float(gi2) == approx(float(gi1) / 10.0, rel=1e-12)
        assert float(gz2) == approx(float(gz1) * 10.0, rel=1e-12)

    def test_round_trip_identity(self):
        cap = 3.7e-5
        gi, gz = bound_parameters(cap, EARTH_MASS, EARTH_RADIUS, W15)
        at_bound = simple_particle_dephasing(EARTH_MASS, EARTH_RADIUS, W15,
                                             float(gi), 0.0)
        assert at_bound.feedback_part == approx(cap, rel=1e-12)
        assert float(gz) / 2.0 == approx(cap, rel=1e-12)

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            bound_parameters(0.0, EARTH_MASS, EARTH_RADIUS, W15)


_BODIES = {
    "shell": lambda gz: shell_dephasing(0.5, 2.0, W15, gz),
    "crystal": lambda gz: composite_dephasing(
        CompositeBody(1.0, 0.1, ExplicitAtoms(np.array([[1.0, 0, 0]]))), (0, 0, 0), W15, gz),
    "crystal-shell": lambda gz: composite_dephasing(
        CompositeBody(1.0, 0.1, ShellShape(0.5, 2.0)), (0, 0, 0), W15, gz),
    "simple": lambda gz: simple_particle_dephasing(1.0, 1.0, W15, 1.0, gz),
}


@pytest.mark.parametrize("gz", [math.inf, math.nan, -1.0])
@pytest.mark.parametrize("body", sorted(_BODIES))
def test_clock_rate_must_be_finite_and_non_negative(body, gz):
    with pytest.raises(ValueError, match="clock measurement rate must be finite"):
        _BODIES[body](gz)


@pytest.mark.parametrize("gamma", [math.inf, math.nan, 0.0])
def test_position_rate_must_be_finite_and_positive(gamma):
    body = CompositeBody(1.0, 0.1, ExplicitAtoms(np.array([[1.0, 0, 0]])))
    with pytest.raises(ValueError, match="position measurement rate"):
        composite_dephasing(body, (0, 0, 0), W15, 0.1, gamma_atoms=gamma)
    with pytest.raises(ValueError, match="position measurement rate"):
        simple_particle_dephasing(1.0, 1.0, W15, gamma, 0.1)


def test_overflowing_simple_body_is_loud():
    # the coupling is finite, its square is not
    with pytest.raises(ValueError, match="feedback sum is not finite"):
        simple_particle_dephasing(1e200, 1.0, 1e15, 1.0, 0.1)
    with pytest.raises(ValueError, match="bound position measurement rate is not finite"):
        bound_parameters(1e-300, 1e200, 1.0, 1e15)


def test_shell_frequency_squared_overflow_is_typed():
    with pytest.raises(ValueError, match="squared is out of the float range"):
        shell_dephasing(0.5, 2.0, 1e200, 1e-4)


def test_overflowing_shell_rate_is_refused_where_it_is_computed():
    # w^2 is finite; the prefactor times 1 / inner_radius is not
    with pytest.raises(ValueError, match="shell's dephasing rate is out of the float range"):
        shell_dephasing(1e-300, 2.0, 1e150, 0.1)


@pytest.mark.parametrize("clock", [(math.inf, 0, 0), (0, math.nan, 0), (0, 0)])
def test_clock_position_must_be_three_finite_coordinates(clock):
    body = CompositeBody(1.0, 0.1, ExplicitAtoms(np.array([[1.0, 0, 0]])))
    with pytest.raises(ValueError, match="clock position must be three finite"):
        composite_dephasing(body, clock, W15, 0.1)


def test_overflowing_clock_atom_distance_is_refused():
    # finite coordinates whose distance squared overflows: no warning, a typed error
    body = CompositeBody(1.0, 0.1, ExplicitAtoms(np.array([[1.0, 0, 0], [1e160, 0, 0]])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"distance 1e\+160 squared is out of the float"):
            composite_dephasing(body, (0, 0, 0), W15, 0.1)
        # the difference itself overflows
        body = CompositeBody(1.0, 0.1, ExplicitAtoms(np.array([[1e308, 0, 0]])))
        with pytest.raises(ValueError, match="distance from the clock to atom 0 is not finite"):
            composite_dephasing(body, (-1e308, 0, 0), W15, 0.1)


@pytest.mark.parametrize("gz", [0.5, 0.0])
def test_json_fields_write_the_to_json_dict_bytes(gz):
    from ccgclocks.scenarios import _json_chunks

    body = CompositeBody(1.0, 0.25, ExplicitAtoms(shell_atoms(0.5, 1.0, 0.25)))
    out = composite_dephasing(body, (0, 0, 0), W15, gz)
    fields = out._json_fields()
    diffusion = fields["position_diffusion_hz_per_m2"]
    # a finite diffusion goes to the array writer as an array, gz = 0 as "inf"s
    assert isinstance(diffusion, np.ndarray if gz else list) and len(diffusion) >= 64
    assert b"".join(_json_chunks({"dephasing": fields})) == (json.dumps(
        {"dephasing": out.to_json_dict()}, sort_keys=True, indent=2) + "\n").encode()


def test_infinite_diffusion_is_strict_json():
    from ccgclocks.scenarios import _json_chunks

    out = simple_particle_dephasing(1.0, 1.0, 1e15, 1.0, 0.0)
    text = b"".join(_json_chunks(out._json_fields())).decode()
    assert "Infinity" not in text
    data = json.loads(text, parse_constant=lambda c: pytest.fail(c))
    assert data["position_diffusion_hz_per_m2"] == ["inf"]


def test_redshift_report_serialization():
    out = shell_dephasing(0.5, 2.0, W15, 0.4, convention="times-two-pi")
    d = out.to_json_dict()
    assert d["convention"] == "times-two-pi"
    assert d["total_hz"] == pytest.approx(d["measurement_part_hz"]
                                          + d["feedback_part_hz"])
