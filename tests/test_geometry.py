import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccgclocks.constants import apply_convention
from ccgclocks.geometry import (
    ClockArray,
    ClockSpec,
    LatticeInfo,
    PairRateMatrix,
    build_lattice,
    pair_interaction_rate,
    pair_rate_matrix,
)

W15 = apply_convention(1e15, "direct")

# hand evaluation with CODATA-2018 constants:
# 6.67430e-11 * 1.054571817e-34 * 1e30 / (3e-7 * 2.99792458e8**4)
G12_300NM = 2.9045430515514366e-42


def _clock(pos, omega=W15, mass=None):
    return ClockSpec(omega, pos, mass)


class TestBuildLattice:
    def test_three_site_chain_positions(self):
        arr = build_lattice(1, 1e-6, [3], W15)
        assert sorted(arr.positions[:, 0]) == [-1e-6, 0.0, 1e-6]
        assert np.all(arr.positions[:, 1:] == 0.0)

    def test_cube_corners(self):
        arr = build_lattice(3, 1e-10, [2, 2, 2], W15)
        assert len(arr) == 8
        d = np.linalg.norm(arr.positions[:, None] - arr.positions[None, :], axis=-1)
        nn = d[d > 0].min()
        assert nn == pytest.approx(1e-10, rel=1e-12)

    def test_planar_million_site_array(self):
        arr = build_lattice(2, 8e-7, [1000, 1000], W15)
        assert len(arr) == 10**6
        assert arr.lattice == LatticeInfo(2, 8e-7, (1000, 1000))
        xs = np.unique(arr.positions[:, 0])
        assert len(xs) == 1000
        assert np.diff(xs).min() == pytest.approx(8e-7, rel=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_lattice(1, 0.0, [3], W15)
        with pytest.raises(ValueError):
            build_lattice(2, 1e-6, [3, 0], W15)
        with pytest.raises(ValueError):
            build_lattice(4, 1e-6, [3], W15)

    def test_center_index_on_odd_and_even_grids(self):
        odd = build_lattice(1, 1.0, [5], W15)
        assert np.allclose(odd.positions[odd.center_index()], 0.0)
        even = build_lattice(1, 1.0, [4], W15)
        c = even.positions[even.center_index(), 0]
        assert abs(c) == pytest.approx(0.5)  # nearest the centroid


class TestPairInteractionRate:
    def test_petahertz_pair_at_300nm(self):
        rate = float(pair_interaction_rate(_clock((0, 0, 0)), _clock((300e-9, 0, 0))))
        assert rate == pytest.approx(G12_300NM, rel=1e-6)
        assert rate / 2.0 == pytest.approx(1.45e-42, rel=1e-2)

    def test_zero_frequency_gives_zero(self):
        rate = pair_interaction_rate(_clock((0, 0, 0), omega=0.0), _clock((1e-6, 0, 0)))
        assert float(rate) == 0.0

    def test_inverse_distance_scaling(self):
        r1 = float(pair_interaction_rate(_clock((0, 0, 0)), _clock((1e-6, 0, 0))))
        r2 = float(pair_interaction_rate(_clock((0, 0, 0)), _clock((2e-6, 0, 0))))
        assert r2 == pytest.approx(r1 / 2.0, rel=1e-12)

    def test_symmetric_under_swap(self):
        a, b = _clock((0, 0, 0)), _clock((3e-7, 1e-7, -2e-7))
        assert float(pair_interaction_rate(a, b)) == float(pair_interaction_rate(b, a))

    def test_coincident_positions_rejected(self):
        with pytest.raises(ValueError, match="coincident"):
            pair_interaction_rate(_clock((1, 2, 3)), _clock((1, 2, 3)))


class TestPairRateMatrix:
    def test_two_clock_reduction(self):
        arr = ClockArray([1e15, 1e15], [[0, 0, 0], [3e-7, 0, 0]])
        g = pair_rate_matrix(arr)
        expected = float(pair_interaction_rate(*arr.clocks))
        assert g.g[0, 1] == pytest.approx(expected, rel=1e-12)
        assert g.g[0, 0] == 0.0

    def test_three_collinear_distance_ratios(self):
        arr = build_lattice(1, 1e-6, [3], W15)
        g = pair_rate_matrix(arr).g
        order = np.argsort(arr.positions[:, 0])
        left, mid, right = order
        assert g[left, mid] == pytest.approx(g[mid, right], rel=1e-12)
        assert g[left, mid] == pytest.approx(2.0 * g[left, right], rel=1e-12)

    def test_random_cloud_matches_brute_force(self):
        rng = np.random.default_rng(42)
        pos = rng.uniform(0, 1e-5, size=(5, 3))
        arr = ClockArray(rng.uniform(5e14, 2e15, size=5), pos)
        g = pair_rate_matrix(arr).g
        clocks = arr.clocks
        for i in range(5):
            for j in range(5):
                if i == j:
                    assert g[i, j] == 0.0
                else:
                    brute = float(pair_interaction_rate(clocks[i], clocks[j]))
                    assert g[i, j] == pytest.approx(brute, rel=1e-12)

    def test_coincident_error_names_indices(self):
        with pytest.raises(ValueError, match=r"clocks 0 and 1"):
            ClockArray([1e15, 1e15], [[0, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match=r"clocks 1 and 2"):
            ClockArray([1e15, 1e15, 1e15],
                       [[0, 0, 0], [1e-6, 0, 0], [1e-6, 0, 0]])

    def test_coincidence_checked_above_2048_clocks(self):
        pos = np.zeros((2100, 3))
        pos[:, 0] = np.arange(2100) * 1e-6
        pos[6] = pos[5]
        with pytest.raises(ValueError, match=r"clocks 5 and 6 are coincident"):
            ClockArray(np.full(2100, 1e15), pos)

    def test_validation(self):
        with pytest.raises(ValueError):
            PairRateMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
        with pytest.raises(ValueError):
            PairRateMatrix(np.array([[1.0, 1.0], [1.0, 0.0]]))  # diagonal


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_matrix_invariant_under_rigid_motion(n, seed):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0, 1, size=(n, 3))
    pos += np.linspace(0, 1e-3, n)[:, None]  # keep clocks apart
    omegas = rng.uniform(0.5, 2.0, size=n) * 1e15
    g0 = pair_rate_matrix(ClockArray(omegas, pos)).g

    shift = rng.uniform(-5, 5, size=3)
    theta = rng.uniform(0, 2 * math.pi)
    rot = np.array([[math.cos(theta), -math.sin(theta), 0],
                    [math.sin(theta), math.cos(theta), 0],
                    [0, 0, 1.0]])
    g1 = pair_rate_matrix(ClockArray(omegas, pos @ rot.T + shift)).g
    assert np.allclose(g0, g1, rtol=1e-9, atol=0)


def test_matrix_scaling_laws():
    rng = np.random.default_rng(3)
    pos = rng.uniform(0, 1e-5, size=(4, 3))
    omegas = rng.uniform(0.5, 2.0, size=4) * 1e15
    g0 = pair_rate_matrix(ClockArray(omegas, pos)).g
    g_dist = pair_rate_matrix(ClockArray(omegas, 3.0 * pos)).g
    assert np.allclose(g_dist, g0 / 3.0, rtol=1e-12)
    g_freq = pair_rate_matrix(ClockArray(2.0 * omegas, pos)).g
    assert np.allclose(g_freq, 4.0 * g0, rtol=1e-12)


def test_json_round_trip():
    arr = build_lattice(2, 1e-6, [2, 3], W15)
    again = ClockArray.from_json(arr.to_json())
    assert np.array_equal(again.positions, arr.positions)
    assert np.array_equal(again.omegas, arr.omegas)
    assert again.lattice == arr.lattice
    assert again.convention == arr.convention


def test_json_round_trip_with_masses():
    clocks = [ClockSpec(W15, (0, 0, 0), 1.8e-25), ClockSpec(W15, (1e-6, 0, 0), 1.8e-25)]
    arr = ClockArray.from_clocks(clocks)
    again = ClockArray.from_json(arr.to_json())
    assert np.array_equal(again.rest_masses, arr.rest_masses)


def test_clock_spec_validation():
    with pytest.raises(ValueError):
        ClockSpec(W15, (0, 0))
    with pytest.raises(ValueError):
        ClockSpec(W15, (0, 0, float("inf")))
    with pytest.raises(ValueError):
        ClockSpec(W15, (0, 0, 0), rest_mass=0.0)
