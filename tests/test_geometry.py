import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ccgclocks import geometry
from ccgclocks.constants import G_HBAR_OVER_C4, FrequencyConvention, apply_convention
from ccgclocks.geometry import (
    ClockArray,
    ClockSpec,
    LatticeInfo,
    PairRateMatrix,
    build_lattice,
    pair_interaction_rate,
    pair_rate_matrix,
)


def approx(expected, rel, abs=0.0):
    """pytest.approx without its default 1e-12 absolute tolerance, under which
    any two values below 1e-12 compare equal (SI rates here are near 1e-42 Hz);
    an absolute tolerance is passed where one is meant."""
    return pytest.approx(expected, rel=rel, abs=abs)


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
        assert nn == approx(1e-10, rel=1e-12)

    def test_planar_million_site_array(self):
        arr = build_lattice(2, 8e-7, [1000, 1000], W15)
        assert len(arr) == 10**6
        assert arr.lattice == LatticeInfo(2, 8e-7, (1000, 1000))
        xs = np.unique(arr.positions[:, 0])
        assert len(xs) == 1000
        assert np.diff(xs).min() == approx(8e-7, rel=1e-12)

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
        assert abs(c) == approx(0.5, rel=1e-6)  # nearest the centroid

    @pytest.mark.parametrize("lc", [1e-170, 1e160])
    @pytest.mark.parametrize("dimension,counts,center",
                             [(2, [5, 5], 12), (3, [3, 3, 3], 13), (1, [7], 3)])
    def test_center_index_where_squared_distances_under_or_overflow(
            self, lc, dimension, counts, center):
        # at 1e-170 every squared norm underflowed to 0 and clock 0 won the tie
        assert build_lattice(dimension, lc, counts, W15).center_index() == center


class TestPairInteractionRate:
    def test_petahertz_pair_at_300nm(self):
        rate = float(pair_interaction_rate(_clock((0, 0, 0)), _clock((300e-9, 0, 0))))
        assert rate == approx(G12_300NM, rel=1e-6)
        assert rate / 2.0 == approx(1.45e-42, rel=1e-2)

    def test_zero_frequency_gives_zero(self):
        rate = pair_interaction_rate(_clock((0, 0, 0), omega=0.0), _clock((1e-6, 0, 0)))
        assert float(rate) == 0.0

    def test_inverse_distance_scaling(self):
        r1 = float(pair_interaction_rate(_clock((0, 0, 0)), _clock((1e-6, 0, 0))))
        r2 = float(pair_interaction_rate(_clock((0, 0, 0)), _clock((2e-6, 0, 0))))
        assert r2 == approx(r1 / 2.0, rel=1e-12)

    def test_symmetric_under_swap(self):
        a, b = _clock((0, 0, 0)), _clock((3e-7, 1e-7, -2e-7))
        assert float(pair_interaction_rate(a, b)) == float(pair_interaction_rate(b, a))

    def test_coincident_positions_rejected(self):
        with pytest.raises(ValueError, match="coincident"):
            pair_interaction_rate(_clock((1, 2, 3)), _clock((1, 2, 3)))

    @pytest.mark.parametrize("d", [1e-170, 1e200])
    def test_distance_whose_square_under_or_overflows(self, d):
        # the square underflowed to "coincident" or overflowed to Rate(0.0)
        a, b = _clock((0, 0, 0), omega=1e15), _clock((3 * d, 4 * d, 0), omega=2e15)
        rate = float(pair_interaction_rate(a, b))
        assert rate == approx(G_HBAR_OVER_C4 * 2e30 / (5 * d), rel=1e-15)
        assert rate == pair_rate_matrix(ClockArray.from_clocks([a, b])).g[0, 1]

    def test_a_distance_out_of_the_float_range_is_refused(self):
        with pytest.raises(ValueError, match="out of the float range"):
            pair_interaction_rate(_clock((-1e308, 0, 0)), _clock((1e308, 0, 0)))


class TestPairRateMatrix:
    def test_two_clock_reduction(self):
        arr = ClockArray([1e15, 1e15], [[0, 0, 0], [3e-7, 0, 0]])
        g = pair_rate_matrix(arr)
        expected = float(pair_interaction_rate(*arr.clocks))
        assert g.g[0, 1] == approx(expected, rel=1e-12)
        assert g.g[0, 0] == 0.0

    def test_three_collinear_distance_ratios(self):
        arr = build_lattice(1, 1e-6, [3], W15)
        g = pair_rate_matrix(arr).g
        order = np.argsort(arr.positions[:, 0])
        left, mid, right = order
        assert g[left, mid] == approx(g[mid, right], rel=1e-12)
        assert g[left, mid] == approx(2.0 * g[left, right], rel=1e-12)

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
                    assert g[i, j] == approx(brute, rel=1e-12)

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

    @pytest.mark.parametrize("n", [2, 31, 32, 33, 100])
    def test_blocks_match_the_one_shot_formula_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        arr = ClockArray(rng.uniform(5e14, 2e15, size=n), rng.uniform(0, 1e-5, size=(n, 3)))
        diff = arr.positions[:, None, :] - arr.positions[None, :, :]
        with np.errstate(divide="ignore"):
            want = G_HBAR_OVER_C4 * np.outer(arr.omegas, arr.omegas) / np.sqrt(
                np.einsum("ijk,ijk->ij", diff, diff))
        np.fill_diagonal(want, 0.0)
        assert np.array_equal(pair_rate_matrix(arr).g, want)

    @pytest.mark.parametrize("d", [1e-170, 1e200])
    def test_distances_whose_square_under_or_overflows(self, d):
        # ClockArray takes these clocks as distinct, and each rate is representable
        arr = ClockArray([1e15, 2e15, 1e15, 1e15],
                         [[0, 0, 0], [3 * d, 4 * d, 0], [0, 0, 7e-6], [5e-6, 0, 0]])
        g = pair_rate_matrix(arr).g
        assert g[0, 1] == g[1, 0] == approx(G_HBAR_OVER_C4 * 2e30 / (5 * d), rel=1e-15)
        assert g[0, 2] == approx(G_HBAR_OVER_C4 * 1e30 / 7e-6, rel=1e-15)
        # cells whose square is ordinary keep their bits
        ordinary = pair_rate_matrix(ClockArray([1e15, 1e15], [[0, 0, 7e-6], [5e-6, 0, 0]])).g
        assert g[2, 3] == ordinary[0, 1]

    def test_truly_coincident_clocks_are_refused_by_the_kernel(self, monkeypatch):
        # with ClockArray's own check off, the kernel still names the pair
        monkeypatch.setattr(geometry, "_coincident_pair", lambda positions: (None, None))
        arr = ClockArray([1e15] * 3, [[0, 0, 0], [1e-170, 0, 0], [1e-170, 0, 0]])
        with pytest.raises(ValueError, match=r"^clocks 1 and 2 are coincident$"):
            pair_rate_matrix(arr)

    def test_a_distance_out_of_the_float_range_is_refused(self):
        arr = ClockArray([1e15, 1e15], [[-1e308, 0, 0], [1e308, 0, 0]])
        with pytest.raises(ValueError, match="clocks 0 and 1 is out of the float range"):
            pair_rate_matrix(arr)

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


def _one_shot(arr):
    """G·ħ·ω_iω_j / (c⁴·sqrt(Σ_k Δ_k²)) over the whole C-ordered (N, N, 3)
    difference tensor at once, zero diagonal: the formula the blocked kernel
    keeps. einsum's summation order follows the memory layout, so the
    positions are taken in C order whatever the array's own layout."""
    pos = np.ascontiguousarray(arr.positions)
    diff = pos[:, None, :] - pos[None, :, :]
    with np.errstate(divide="ignore"):
        want = G_HBAR_OVER_C4 * np.outer(arr.omegas, arr.omegas) / np.sqrt(
            np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(want, 0.0)
    return want


@st.composite
def planar_and_solid_clouds(draw):
    """Random clouds and grid subsets of 2 to 200 clocks on a line, in a
    plane or in space, at scales from 1e-9 to 1e3 m, moved off the origin;
    the grid subsets' positions are stored in Fortran order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 200))
    dims = draw(st.sampled_from([1, 2, 3]))
    scale = draw(st.floats(1e-9, 1e3))
    if draw(st.booleans()):
        pos = rng.normal(size=(n, 3))
    else:  # distinct grid sites: many equal distances and exact differences
        side = math.ceil(n ** (1 / dims)) + 1
        sites = rng.choice(side ** dims, size=n, replace=False)
        pos = np.array(np.unravel_index(sites, (side,) * dims), dtype=float).T
        pos = np.pad(pos, ((0, 0), (0, 3 - dims)))
    pos[:, dims:] = 0.0
    offset = rng.normal(size=3) * draw(st.sampled_from([0.0, 1.0, 40.0]))
    omegas = rng.uniform(1e14, 1e16, size=n)
    return ClockArray(omegas, scale * (pos + offset))


@settings(max_examples=80, deadline=None)
@given(planar_and_solid_clouds())
def test_blocked_kernel_equals_the_one_shot_formula(arr):
    # N crosses the 32-row blocks; the (dx² + dz²) + dy² sum must keep every bit
    assert np.array_equal(pair_rate_matrix(arr).g, _one_shot(arr))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40),
       st.sampled_from([1e-170, 1e-6, 1.0, 1e150, 1e160]))
def test_every_pair_rate_divides_by_the_one_distance_kernel(seed, n, scale):
    # 1e-170 and 1e160 clouds have cells whose squared distance under- or
    # overflows, which the kernel takes from _distances; the others must
    # match them in (dx² + dz²) + dy² order
    rng = np.random.default_rng(seed)
    arr = ClockArray(rng.uniform(1e14, 1e16, size=n), rng.normal(size=(n, 3)) * scale)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    pos, omegas = arr.positions, arr.omegas
    want = G_HBAR_OVER_C4 * (omegas[i] * omegas[j]) / geometry._distances(pos[i], pos[j])
    got = pair_rate_matrix(arr).g[i, j]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


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
    with pytest.raises(ValueError, match="finite and positive"):
        ClockSpec(W15, (0, 0, 0), rest_mass=float("inf"))


# -- one construction path: ClockArray owns every per-clock rule -----------------

_CONVENTIONS = ("direct", "times-two-pi")
_BAD_MASSES = [0.0, -1.0, -0.0, math.nan, math.inf, -math.inf, None]


@st.composite
def clock_columns(draw):
    """Quoted frequencies, distinct positions, and masses for all or none."""
    n = draw(st.integers(1, 6))
    cells = draw(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5),
                                    st.integers(-5, 5)),
                          min_size=n, max_size=n, unique=True))
    scale = draw(st.floats(1e-9, 1e-3))
    positions = [[scale * x for x in cell] for cell in cells]
    quoted = draw(st.lists(st.floats(0.0, 1e16), min_size=n, max_size=n))
    masses = draw(st.one_of(st.none(), st.lists(st.floats(1e-30, 1e-20),
                                                min_size=n, max_size=n)))
    return quoted, positions, masses


def _every_path(quoted, positions, masses, convention):
    """The same clocks built by each of the four paths."""
    from ccgclocks.scenarios import _build_geometry

    per_clock = masses if masses is not None else [None] * len(quoted)
    omegas = [float(apply_convention(f, convention)) for f in quoted]
    config = [dict({"quoted_frequency": f, "position": p},
                   **({} if m is None else {"rest_mass": m}))
              for f, p, m in zip(quoted, positions, per_clock)]
    as_json = {"clocks": [dict({"omega": w, "position": p},
                               **({} if m is None else {"rest_mass": m}))
                          for w, p, m in zip(omegas, positions, per_clock)],
               "convention": convention}
    return {
        "init": lambda: ClockArray(omegas, positions, masses, convention=convention),
        "from_clocks": lambda: ClockArray.from_clocks(
            [ClockSpec(w, p, m) for w, p, m in zip(omegas, positions, per_clock)],
            convention=convention),
        "from_json": lambda: ClockArray.from_json(json.dumps(as_json)),
        "scenario": lambda: _build_geometry({"clocks": config},
                                            FrequencyConvention.parse(convention)),
    }


@settings(max_examples=100, deadline=None)
@given(clock_columns(), st.sampled_from(_CONVENTIONS))
def test_every_construction_path_gives_the_same_array(columns, convention):
    arrays = {name: build() for name, build in _every_path(*columns, convention).items()}
    arrays["round_trip"] = ClockArray.from_json(arrays["init"].to_json())
    ref = arrays["init"]
    for name, arr in arrays.items():
        assert np.array_equal(arr.omegas, ref.omegas), name
        assert np.array_equal(arr.positions, ref.positions), name
        if ref.rest_masses is None:
            assert arr.rest_masses is None, name
        else:
            assert np.array_equal(arr.rest_masses, ref.rest_masses), name
        assert arr.convention == ref.convention, name


@settings(max_examples=100, deadline=None)
@given(clock_columns(), st.sampled_from(_CONVENTIONS), st.sampled_from(_BAD_MASSES),
       st.data())
def test_every_construction_path_refuses_the_same_bad_masses(columns, convention, bad,
                                                             data):
    quoted, positions, masses = columns
    masses = list(masses) if masses is not None else [1e-25] * len(quoted)
    assume(bad is not None or len(masses) > 1)  # one clock without a mass has none
    masses[data.draw(st.integers(0, len(masses) - 1))] = bad
    for name, build in _every_path(quoted, positions, masses, convention).items():
        with pytest.raises(ValueError):
            build()
            pytest.fail(f"{name} accepted rest mass {bad!r}")


def test_rest_masses_are_finite_positive_and_all_or_none():
    pos = [[0, 0, 0], [1e-6, 0, 0]]
    with pytest.raises(ValueError, match="finite and positive"):
        ClockArray([W15.value] * 2, pos, rest_masses=[-1.0, math.nan])
    text = ClockArray([W15.value] * 2, pos, rest_masses=[1e-25, 1e-25]).to_json()
    with pytest.raises(ValueError, match="finite and positive"):
        ClockArray.from_json(text.replace("1e-25", "-1e-25", 1))
    partial = json.loads(text)
    del partial["clocks"][0]["rest_mass"]
    with pytest.raises(ValueError, match="either all clocks carry a rest mass or none do"):
        ClockArray.from_json(json.dumps(partial))
    assert ClockArray([W15.value] * 2, pos, rest_masses=[None, None]).rest_masses is None


def test_clock_array_leaves_the_callers_arrays_writeable():
    omegas, pos, masses = np.full(2, W15.value), np.array([[0, 0, 0], [1e-6, 0, 0.0]]), \
        np.array([1e-25, 2e-25])
    arr = ClockArray(omegas, pos, rest_masses=masses)
    for given_array in (omegas, pos, masses):
        assert given_array.flags.writeable
    omegas[0], pos[1, 0], masses[0] = 0.0, 5.0, 1.0
    assert (arr.omegas[0], arr.positions[1, 0], arr.rest_masses[0]) == \
        (W15.value, 1e-6, 1e-25)
    for kept in (arr.omegas, arr.positions, arr.rest_masses):
        assert not kept.flags.writeable
