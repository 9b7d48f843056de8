import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar
from scipy.spatial.transform import Rotation

from ccgclocks.constants import CONSTANTS
from ccgclocks.geometry import ClockArray, PairRateMatrix, build_lattice, pair_rate_matrix
from ccgclocks import rates as rates_module
from ccgclocks.rates import (
    DephasingReport,
    MeasurementRates,
    OptimizeError,
    dephasing_given_rates,
    min_dephasing_global_A,
    min_dephasing_global_B,
    min_dephasing_pairwise_A,
    min_dephasing_pairwise_B,
    optimize_rates,
)


def approx(expected, rel, abs=0.0):
    """pytest.approx without its default 1e-12 absolute tolerance, under which
    any two values below 1e-12 compare equal (SI rates here are near 1e-42 Hz);
    an absolute tolerance is passed where one is meant."""
    return pytest.approx(expected, rel=rel, abs=abs)


def two_clock_matrix(g=1.0):
    return PairRateMatrix.from_matrix([[0.0, g], [g, 0.0]])


def equidistant_matrix(n, g=1.0):
    m = np.full((n, n), g)
    np.fill_diagonal(m, 0.0)
    return PairRateMatrix.from_matrix(m)


def random_geometry_matrix(n, seed):
    rng = np.random.default_rng(seed)
    while True:
        pos = rng.uniform(0, 1, size=(n, 3))
        diff = pos[:, None] - pos[None, :]
        d = np.sqrt((diff ** 2).sum(-1))
        np.fill_diagonal(d, np.inf)
        if d.min() > 0.08:
            return pair_rate_matrix(ClockArray(np.full(n, 1e15), pos))


def loop_pairwise_error(gam):
    """The element-by-element validation, as the reference for the mask."""
    n = len(gam)
    for i in range(n):
        for j in range(n):
            if i == j:
                if gam[i][j] != 0:
                    return "pairwise_gamma diagonal must be zero"
            elif not (math.isfinite(gam[i][j]) and gam[i][j] > 0):
                return f"pairwise_gamma[{i}][{j}] must be finite and positive"
    return None


_ENTRIES = st.sampled_from([0.0, -0.0, -1.0, 2.5, 1e-300, math.nan, math.inf, -math.inf])


@st.composite
def corrupted_pairwise(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    gam = [[0.0 if i == j else 1.0 for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        gam[i][j] = draw(_ENTRIES)
    return gam


class TestMeasurementRates:
    @settings(max_examples=300, deadline=None)
    @given(corrupted_pairwise())
    def test_pairwise_errors_match_the_loop(self, gam):
        expected = loop_pairwise_error(gam)
        if expected is None:
            MeasurementRates("pairwise", pairwise_gamma=np.array(gam))
        else:
            with pytest.raises(ValueError, match=re.escape(expected)):
                MeasurementRates("pairwise", pairwise_gamma=np.array(gam))

    def test_pairwise_rejects_nonpositive_entry_by_name(self):
        gam = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"pairwise_gamma\[1\]\[0\]"):
            MeasurementRates("pairwise", pairwise_gamma=gam)

    def test_global_rejects_nonpositive_entry_by_name(self):
        with pytest.raises(ValueError, match=r"global_gamma\[1\]"):
            MeasurementRates("global", global_gamma=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("gam, message", [
        # an off-diagonal offender before a later non-zero diagonal entry
        ([[0.0, -1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 3.0]], r"pairwise_gamma\[0\]\[1\]"),
        # a non-zero diagonal entry before a later off-diagonal offender
        ([[0.0, 1.0, 1.0], [1.0, 2.0, 0.0], [1.0, 1.0, 0.0]], "diagonal must be zero"),
        ([[math.nan, 1.0], [1.0, 0.0]], "diagonal must be zero"),
        ([[0.0, 1.0], [1.0, math.nan]], "diagonal must be zero"),
        ([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]], r"pairwise_gamma\[1\]\[2\]"),
        ([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [-2.0, 1.0, 0.0]], r"pairwise_gamma\[2\]\[0\]"),
        ([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, math.inf, 0.0]], r"pairwise_gamma\[2\]\[1\]"),
        ([[0.0, math.nan], [-math.inf, 0.0]], r"pairwise_gamma\[0\]\[1\]"),
    ])
    def test_pairwise_first_offender_in_row_major_order(self, gam, message):
        with pytest.raises(ValueError, match=message):
            MeasurementRates("pairwise", pairwise_gamma=np.array(gam))

    @pytest.mark.parametrize("gam, index", [
        ([1.0, 2.0, 0.0, -1.0], 2), ([math.inf, 1.0], 0), ([1.0, 1.0, math.nan], 2),
        ([1.0, -1e-300, math.inf], 1),
    ])
    def test_global_first_offender_by_index(self, gam, index):
        with pytest.raises(ValueError, match=rf"global_gamma\[{index}\] must be finite"):
            MeasurementRates("global", global_gamma=np.array(gam))

    def test_valid_rates_serialize_as_plain_floats(self):
        gam = np.array([[0.0, 0.1], [2.5, 0.0]])
        d = MeasurementRates("pairwise", pairwise_gamma=gam).to_json_dict()
        assert d["pairwise_gamma"] == [[0.0, 0.1], [2.5, 0.0]]
        assert all(type(x) is float for row in d["pairwise_gamma"] for x in row)

    def test_report_serializes_as_plain_lists(self):
        g = PairRateMatrix.from_matrix([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        d = min_dephasing_pairwise_B(g).to_json_dict()
        assert type(d["per_clock_hz"]) is list
        assert type(d["optimal_rates"]["pairwise_gamma"]) is list
        assert all(type(x) is float for x in d["per_clock_hz"])
        assert all(type(x) is float for row in d["optimal_rates"]["pairwise_gamma"]
                   for x in row)

    def test_asymmetric_pairwise_allowed(self):
        gam = np.array([[0.0, 1.0], [2.0, 0.0]])
        rates = MeasurementRates("pairwise", pairwise_gamma=gam)
        assert rates.pairwise_gamma[0, 1] != rates.pairwise_gamma[1, 0]

    def test_per_clock_arrays_are_copied(self):
        # a view of the caller's array let the caller change a checked object
        a, per_clock = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        rates = MeasurementRates("global", global_gamma=a)
        report = DephasingReport(per_clock, "global", "given-rates")
        a[0], per_clock[0] = -5.0, -6.0
        assert rates.global_gamma.tolist() == [1.0, 2.0]
        assert report.per_clock.tolist() == [3.0, 4.0]
        assert a.flags.writeable and per_clock.flags.writeable

    def test_mode_consistency(self):
        with pytest.raises(ValueError):
            MeasurementRates("global", pairwise_gamma=np.eye(2))
        with pytest.raises(ValueError):
            MeasurementRates("sideways", global_gamma=np.ones(2))


class TestDephasingGivenRates:
    def test_two_clock_optimum_reproduces_half_g(self):
        g = two_clock_matrix(2.0)
        gam = np.array([[0.0, 1.0], [1.0, 0.0]])  # g/2
        rep = dephasing_given_rates(g, MeasurementRates("pairwise", pairwise_gamma=gam))
        assert rep.per_clock == approx([1.0, 1.0], rel=1e-12)

    def test_zero_coupling_limit_is_pure_measurement_noise(self):
        g = PairRateMatrix.from_matrix(np.zeros((2, 2)))
        gam = np.array([[0.0, 0.8], [0.8, 0.0]])
        rep = dephasing_given_rates(g, MeasurementRates("pairwise", pairwise_gamma=gam))
        assert rep.per_clock == approx([0.4, 0.4], rel=1e-12)

    def test_three_clock_triangle_matches_hand_expansion(self):
        g = equidistant_matrix(3, g=0.6)
        gam_val = 0.9
        gam = np.full((3, 3), gam_val)
        np.fill_diagonal(gam, 0.0)
        rep = dephasing_given_rates(g, MeasurementRates("pairwise", pairwise_gamma=gam))
        # expanding the pairwise sum for clock 0 by hand:
        expected = (gam_val / 2 + 0.6**2 / (8 * gam_val)) * 2
        assert rep.per_clock == approx([expected] * 3, rel=1e-12)

        repg = dephasing_given_rates(
            g, MeasurementRates("global", global_gamma=np.full(3, gam_val)))
        expected_g = gam_val / 2 + 2 * 0.6**2 / (8 * gam_val)
        assert repg.per_clock == approx([expected_g] * 3, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dephasing_given_rates(
                two_clock_matrix(), MeasurementRates("global", global_gamma=np.ones(3)))


class TestClosedForms:
    def test_pairwise_A_two_clocks(self):
        rep = min_dephasing_pairwise_A(two_clock_matrix(2.0))
        assert rep.per_clock == approx([1.0, 1.0], rel=1e-15)
        assert np.allclose(rep.optimal_rates.pairwise_gamma,
                           [[0.0, 1.0], [1.0, 0.0]])

    def test_pairwise_A_three_site_chain(self):
        arr = build_lattice(1, 1e-6, [3], 1e15)
        g = pair_rate_matrix(arr)
        rep = min_dephasing_pairwise_A(g)
        pref = CONSTANTS.G * CONSTANTS.hbar * 1e30 / (2 * CONSTANTS.c**4)
        center = arr.center_index()
        assert rep.per_clock[center] == approx(pref * 2 / 1e-6, rel=1e-12)
        edge = [i for i in range(3) if i != center][0]
        assert rep.per_clock[edge] == approx(pref * 1.5 / 1e-6, rel=1e-12)

    def test_pairwise_A_center_rate_grows_with_log_N(self):
        pref = CONSTANTS.G * CONSTANTS.hbar * 1e30 / (2 * CONSTANTS.c**4)
        rates = []
        for n in (11, 101, 1001):
            arr = build_lattice(1, 1e-6, [n], 1e15)
            rep = min_dephasing_pairwise_A(pair_rate_matrix(arr))
            rates.append(rep.per_clock[arr.center_index()])
        # the centre clock's exact sum (2 pref / L_c) H_m, m clocks on each
        # side, which grows as (2 pref / L_c)(ln m + gamma_e)
        for n, r in zip((11, 101, 1001), rates):
            m = (n - 1) // 2
            harmonic = math.fsum(1.0 / k for k in range(1, m + 1))
            assert r == approx(2 * pref / 1e-6 * harmonic, rel=1e-14)
        assert rates[1] - rates[0] == approx(rates[2] - rates[1], rel=0.05)

    def test_global_A_equals_pairwise_at_two_clocks(self):
        g = two_clock_matrix(1.4)
        assert min_dephasing_global_A(g).per_clock == approx(
            min_dephasing_pairwise_A(g).per_clock.tolist(), rel=1e-15)

    def test_global_A_equidistant_star(self):
        k = 5  # neighbors
        g = equidistant_matrix(k + 1, g=0.8)
        rep = min_dephasing_global_A(g)
        assert rep.per_clock == approx([0.8 / 2 * math.sqrt(k)] * (k + 1),
                                       rel=1e-12)

    def test_global_A_1d_saturation_constant(self):
        # exact-summation constant: rate / sqrt(1 - 2/N) approaches
        # (G hbar w^2 / 2 c^4) * sqrt(pi^2/3) / L_c
        pref = CONSTANTS.G * CONSTANTS.hbar * 1e30 / (2 * CONSTANTS.c**4)
        limit = pref * math.sqrt(math.pi**2 / 3.0) / 1e-6
        consts = []
        for n in (11, 101, 1001):
            arr = build_lattice(1, 1e-6, [n], 1e15)
            rep = min_dephasing_global_A(pair_rate_matrix(arr))
            consts.append(rep.per_clock[arr.center_index()] / math.sqrt(1 - 2 / n))
        assert consts[0] == approx(limit, rel=5e-2)  # still bending at N=11
        assert consts[1] == approx(consts[2], rel=1e-2)
        assert consts[2] == approx(limit, rel=5e-3)

    def test_pairwise_B_two_clocks(self):
        rep = min_dephasing_pairwise_B(two_clock_matrix(2.0))
        assert rep.per_clock == approx([1.0, 1.0], rel=1e-15)

    def test_pairwise_B_five_equidistant_with_golden_section_check(self):
        g = equidistant_matrix(5, g=1.0)
        rep = min_dephasing_pairwise_B(g)
        # sqrt(N-1)/2 * sqrt(sum g^2) = (2/2) * 2g = 2g
        assert rep.per_clock == approx([2.0] * 5, rel=1e-12)

        def total(gamma):
            gam = np.full((5, 5), gamma)
            np.fill_diagonal(gam, 0.0)
            return dephasing_given_rates(
                g, MeasurementRates("pairwise", pairwise_gamma=gam)).objective()

        res = minimize_scalar(total, bracket=(1e-3, 1.0, 10.0), method="golden",
                              options={"xtol": 1e-12})
        gamma_star = float(rep.optimal_rates.pairwise_gamma[0, 1])
        assert res.x == approx(gamma_star, rel=1e-6)
        assert total(res.x) == approx(rep.objective(), rel=1e-10)

    def test_B_equals_sqrt_Nm1_times_global_A(self):
        g = random_geometry_matrix(6, seed=11)
        b = min_dephasing_pairwise_B(g).per_clock
        a2 = min_dephasing_global_A(g).per_clock
        assert b == approx((math.sqrt(5) * a2).tolist(), rel=1e-12)

    def test_B_rejects_single_clock(self):
        with pytest.raises(ValueError):
            min_dephasing_pairwise_B(PairRateMatrix.from_matrix([[0.0]]))

    def test_fixed_scalar_global_matches_global_A_on_homogeneous(self):
        g = equidistant_matrix(4, g=0.5)
        assert min_dephasing_global_B(g).per_clock == approx(
            min_dephasing_global_A(g).per_clock.tolist(), rel=1e-12)


@pytest.mark.filterwarnings("error")
class TestOverflowingSquares:
    """A pair rate whose square leaves the float range is refused, naming the
    rate and without a warning, before any kernel squares it."""

    @pytest.mark.parametrize("solve", [
        min_dephasing_global_A, min_dephasing_pairwise_B, min_dephasing_global_B,
        lambda g: dephasing_given_rates(g, MeasurementRates("global", global_gamma=[1.0] * 2)),
        lambda g: dephasing_given_rates(g, MeasurementRates(
            "pairwise", pairwise_gamma=[[0.0, 1.0], [1.0, 0.0]])),
        *(lambda g, m=mode: optimize_rates(g, m) for mode in sorted(rates_module._MODES)),
    ], ids=["global_A", "pairwise_B", "global_B", "given_global", "given_pairwise",
            *(f"optimize_{mode}" for mode in sorted(rates_module._MODES))])
    def test_refused_naming_the_rate(self, solve):
        with pytest.raises(ValueError, match=r"pair rate 1e\+200 squared is out of the float"):
            solve(two_clock_matrix(1e200))

    @pytest.mark.parametrize("mode", ["pairwise", "global"])
    def test_given_rates_quotient_past_the_range_is_refused(self, mode):
        gamma = ([[0.0, 1e-300], [1e-300, 0.0]] if mode == "pairwise" else [1e-300] * 2)
        rates = MeasurementRates(mode, **{f"{mode}_gamma": gamma})
        with pytest.raises(ValueError, match="per-clock dephasing rates must be finite"):
            dephasing_given_rates(two_clock_matrix(1e150), rates)


class TestOptimizer:
    def test_iteration_cap_error_carries_best_point(self, monkeypatch):
        monkeypatch.setattr(rates_module, "ITERATION_CAP", 1)
        g = pair_rate_matrix(build_lattice(1, 1e-6, [4], 1e15))
        with pytest.raises(OptimizeError) as info:
            optimize_rates(g, "global")
        best, report = info.value.best_rates, info.value.best_report
        assert isinstance(best, MeasurementRates) and best.mode == "global"
        assert isinstance(report, DephasingReport)
        assert report.optimal_rates is best
        assert report.per_clock == approx(
            dephasing_given_rates(g, best).per_clock, rel=1e-15)

    def test_two_clock_recovers_half_g(self):
        g = two_clock_matrix(3.0)
        rates, rep = optimize_rates(g, "pairwise")
        assert rates.pairwise_gamma[0, 1] == approx(1.5, rel=1e-6)
        assert rates.pairwise_gamma[1, 0] == approx(1.5, rel=1e-6)
        assert rep.per_clock == approx([1.5, 1.5], rel=1e-10)

    def test_random_cloud_global_recovers_closed_form(self):
        g = random_geometry_matrix(6, seed=5)
        rates, rep = optimize_rates(g, "global")
        closed = min_dephasing_global_A(g)
        assert rates.global_gamma == approx(
            closed.optimal_rates.global_gamma.tolist(), rel=1e-6)
        assert rep.objective() == approx(closed.objective(), rel=1e-10)

    def test_argmin_beats_random_perturbations(self):
        g = random_geometry_matrix(4, seed=9)
        rates, rep = optimize_rates(g, "pairwise")
        base = rep.objective()
        rng = np.random.default_rng(0)
        off = ~np.eye(4, dtype=bool)
        for _ in range(100):
            gam = rates.pairwise_gamma * np.exp(rng.uniform(-0.5, 0.5, (4, 4)))
            gam[~off] = 0.0
            trial = dephasing_given_rates(
                g, MeasurementRates("pairwise", pairwise_gamma=gam)).objective()
            assert trial >= base * (1 - 1e-12)

    def test_pairwise_symmetry_emerges(self):
        g = random_geometry_matrix(5, seed=21)
        rates, _ = optimize_rates(g, "pairwise")
        gam = rates.pairwise_gamma
        off = ~np.eye(5, dtype=bool)
        assert np.allclose(gam[off], gam.T[off], rtol=1e-6)

    def test_fixed_scalar_matches_closed_form_scalar(self):
        g = equidistant_matrix(5, g=1.0)
        rates, rep = optimize_rates(g, "fixed-scalar")
        closed = min_dephasing_pairwise_B(g)
        assert rates.pairwise_gamma[0, 1] == approx(
            closed.optimal_rates.pairwise_gamma[0, 1], rel=1e-6)
        assert rep.objective() == approx(closed.objective(), rel=1e-10)

    def test_fixed_scalar_global_homogeneous(self):
        g = equidistant_matrix(4, g=0.7)
        rates, rep = optimize_rates(g, "fixed-scalar-global")
        closed = min_dephasing_global_B(g)
        assert rep.objective() == approx(closed.objective(), rel=1e-10)
        assert rates.global_gamma[0] == approx(
            closed.optimal_rates.global_gamma[0], rel=1e-6)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            optimize_rates(two_clock_matrix(), "per-clock")


_CLOSED_FORMS = {"pairwise": min_dephasing_pairwise_A, "global": min_dephasing_global_A,
                 "fixed-scalar": min_dephasing_pairwise_B,
                 "fixed-scalar-global": min_dephasing_global_B}


@st.composite
def clouds(draw, max_clocks=8):
    """A PairRateMatrix of 2 to max_clocks clocks on distinct sites of a small grid."""
    sites = draw(st.lists(st.tuples(*[st.integers(-6, 6)] * 3),
                          min_size=2, max_size=max_clocks, unique=True))
    omegas = draw(st.lists(st.floats(1e14, 1e16), min_size=len(sites),
                           max_size=len(sites)))
    return pair_rate_matrix(ClockArray(np.array(omegas), 1e-7 * np.array(sites)))


_EQUIVALENT_SITES = [
    [[0, 0, 0], [1, 0, 0]],
    [[1, 0, 0], [-0.5, math.sqrt(3) / 2, 0], [-0.5, -math.sqrt(3) / 2, 0]],
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
]


@st.composite
def equivalent_sites(draw):
    """Two clocks, an equilateral triangle or a regular tetrahedron, scaled,
    rotated and moved at random, every clock at one frequency: every row of
    the pair matrix has the same sum of squares."""
    sites = np.array(draw(st.sampled_from(_EQUIVALENT_SITES)), dtype=float)
    angles = draw(st.lists(st.floats(0, 2 * math.pi), min_size=3, max_size=3))
    rotation = Rotation.from_euler("zyx", angles).as_matrix()
    scale = draw(st.floats(1e-7, 1e-5))
    offset = np.array(draw(st.lists(st.floats(-1e-5, 1e-5), min_size=3, max_size=3)))
    omega = draw(st.floats(1e14, 1e16))
    return pair_rate_matrix(ClockArray(np.full(len(sites), omega),
                                       offset + scale * sites @ rotation.T))


def masked_pairwise_per_clock(g, gamma):
    """The pairwise kernel as boolean masks formed it: the reference for the
    dense one."""
    off = ~np.eye(len(g), dtype=bool)
    terms = np.zeros(gamma.shape)
    terms[..., off] = (gamma[..., off] / 2.0
                       + g[off] ** 2 / (8.0 * np.swapaxes(gamma, -1, -2)[..., off]))
    return terms.sum(axis=-1)


def masked_global_per_clock(g, gamma):
    """The global kernel as boolean masks formed it: the reference for the
    dense one."""
    n = len(g)
    off = ~np.eye(n, dtype=bool)
    feed = np.zeros(gamma.shape + (n,))
    feed[..., off] = g[off] ** 2 / (8.0 * np.broadcast_to(
        gamma[..., None, :], feed.shape)[..., off])
    return gamma / 2.0 + feed.sum(axis=-1)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@settings(max_examples=200, deadline=None)
@given(g=clouds(max_clocks=14), layout=st.sampled_from(["probes", "transposed"]),
       seed=st.integers(0, 2**32 - 1))
def test_kernels_on_strided_batches_match_the_masked_reference_bit_for_bit(g, layout, seed):
    # A quotient laid out in a strided batch's order sums its rows in another
    # order than for a contiguous one, and moves last bits.
    mat, n = g.g, len(g)
    rng = np.random.default_rng(seed)
    x = np.log(mat[mat > 0]).mean() + rng.normal(0.0, 2.0, n)
    pairwise = np.exp(x[:, None] + rng.normal(0.0, 2.0, (n, n, 3)))
    pairwise[np.arange(n), np.arange(n)] = 0.0
    if layout == "probes":
        # as _newton probes x +- h e_k and optimize_rates picks their rates
        e = 1e-5 * np.eye(n)
        global_batch = np.exp(x + np.stack([e, -e]))[..., np.arange(n)]
        pairwise_batch = np.moveaxis(pairwise, -1, 0)  # batch axis last in memory
    else:
        global_batch = np.exp(x + rng.normal(0.0, 2.0, (3, n))).T.copy().T
        pairwise_batch = np.swapaxes(np.moveaxis(pairwise, -1, 0).copy(), -1, -2)
    for kernel, reference, batch, ndim in (
            (rates_module._global_per_clock, masked_global_per_clock, global_batch, 1),
            (rates_module._pairwise_per_clock, masked_pairwise_per_clock, pairwise_batch, 2)):
        assert not batch.flags.c_contiguous
        got = kernel(mat, batch)
        assert np.array_equal(bits(got), bits(reference(mat, batch)))
        each = [kernel(mat, np.ascontiguousarray(batch[i]))
                for i in np.ndindex(batch.shape[:-ndim])]
        assert np.array_equal(bits(got).reshape(-1, n), bits(each))


class TestOptimizerProperties:
    # the B per-clock forms sum to at most the best shared scalar's objective
    # (Cauchy-Schwarz), with equality on equivalent sites
    @settings(max_examples=100, deadline=None)
    @given(mode=st.sampled_from(["fixed-scalar", "fixed-scalar-global"]), g=clouds())
    def test_B_per_clock_sum_is_at_most_the_shared_optimum(self, mode, g):
        _, rep = optimize_rates(g, mode)
        assert _CLOSED_FORMS[mode](g).objective() <= rep.objective() * (1 + 1e-9)

    @settings(max_examples=50, deadline=None)
    @given(mode=st.sampled_from(["fixed-scalar", "fixed-scalar-global"]),
           g=equivalent_sites())
    def test_B_per_clock_sum_is_the_shared_optimum_on_equivalent_sites(self, mode, g):
        _, rep = optimize_rates(g, mode)
        assert _CLOSED_FORMS[mode](g).objective() == approx(rep.objective(),
                                                            rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(mode=st.sampled_from(sorted(_CLOSED_FORMS)), g=clouds())
    def test_objective_meets_closed_form(self, mode, g):
        closed = _CLOSED_FORMS[mode](g)
        if closed.case == "B-fixed":
            # the B per-clock forms assume equivalent sites; the summed minimum
            # is the summed dephasing at their single optimal scalar
            best = dephasing_given_rates(g, closed.optimal_rates).objective()
        else:
            best = closed.objective()
        _, rep = optimize_rates(g, mode)
        n = len(g)
        assert rep.objective() >= best * (1 - 4e-16 * n ** 2)
        assert rep.objective() == approx(best, rel=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(mode=st.sampled_from(sorted(_CLOSED_FORMS)), g=clouds(), data=st.data())
    def test_permuting_clocks_permutes_rates(self, mode, g, data):
        perm = np.array(data.draw(st.permutations(range(len(g)))))
        rates, _ = optimize_rates(g, mode)
        rates_p, _ = optimize_rates(
            PairRateMatrix.from_matrix(g.g[np.ix_(perm, perm)]), mode)
        if rates.mode == "pairwise":
            want = rates.pairwise_gamma[np.ix_(perm, perm)]
            assert rates_p.pairwise_gamma == pytest.approx(want, rel=1e-6)
        else:
            assert rates_p.global_gamma == pytest.approx(
                rates.global_gamma[perm], rel=1e-6)


@st.composite
def moved_clouds(draw):
    """Clocks on distinct sites of a small grid, and the same clocks listed in
    a permuted order after a rotation and a translation: (g, g_moved, perm),
    with clock k of the moved array being clock perm[k] of the first."""
    sites = np.array(draw(st.lists(st.tuples(*[st.integers(-6, 6)] * 3),
                                   min_size=2, max_size=12, unique=True)), dtype=float)
    n = len(sites)
    omegas = np.array(draw(st.lists(st.floats(1e14, 1e16), min_size=n, max_size=n)))
    perm = np.array(draw(st.permutations(range(n))))
    angles = draw(st.lists(st.floats(0, 2 * math.pi), min_size=3, max_size=3))
    rotation = Rotation.from_euler("zyx", angles).as_matrix()
    shift = np.array(draw(st.lists(st.floats(-20, 20), min_size=3, max_size=3)))
    scale = draw(st.floats(1e-9, 1e-3))
    g = pair_rate_matrix(ClockArray(omegas, scale * sites))
    moved = pair_rate_matrix(ClockArray(omegas[perm], scale * (sites[perm] @ rotation.T + shift)))
    return g, moved, perm


@settings(max_examples=100, deadline=None)
@given(form=st.sampled_from(sorted(_CLOSED_FORMS)), clouds=moved_clouds())
def test_closed_forms_are_equivariant_under_permutation_and_rigid_motion(form, clouds):
    g, moved, perm = clouds
    want = _CLOSED_FORMS[form](g).per_clock[perm]
    assert _CLOSED_FORMS[form](moved).per_clock == approx(want.tolist(), rel=1e-12)


class TestInvariants:
    def test_given_rates_at_optimum_matches_closed_form_pairwise(self):
        # exact per-clock equality for any geometry in the pairwise case
        g = random_geometry_matrix(7, seed=2)
        closed = min_dephasing_pairwise_A(g)
        achieved = dephasing_given_rates(g, closed.optimal_rates)
        assert achieved.per_clock == approx(closed.per_clock.tolist(),
                                            rel=1e-12)

    def test_given_rates_at_optimum_matches_closed_form_global_homogeneous(self):
        # per-clock equality requires site-equivalent geometry (here: a square)
        arr = ClockArray(np.full(4, 1e15),
                         [[0, 0, 0], [1e-6, 0, 0], [0, 1e-6, 0], [1e-6, 1e-6, 0]])
        g = pair_rate_matrix(arr)
        closed = min_dephasing_global_A(g)
        achieved = dephasing_given_rates(g, closed.optimal_rates)
        assert achieved.per_clock == approx(closed.per_clock.tolist(),
                                            rel=1e-12)

    def test_global_summed_rate_matches_for_any_geometry(self):
        g = random_geometry_matrix(6, seed=33)
        closed = min_dephasing_global_A(g)
        achieved = dephasing_given_rates(g, closed.optimal_rates)
        assert achieved.objective() == approx(closed.objective(), rel=1e-12)

    def test_global_minimum_below_pairwise_minimum(self):
        for seed in (1, 2, 3):
            g = random_geometry_matrix(5, seed=seed)
            gl = min_dephasing_global_A(g).per_clock
            pw = min_dephasing_pairwise_A(g).per_clock
            assert np.all(gl <= pw * (1 + 1e-12))
            assert np.all(gl < pw)  # strict for N >= 3
        g2 = two_clock_matrix(1.0)
        assert min_dephasing_global_A(g2).per_clock == approx(
            min_dephasing_pairwise_A(g2).per_clock.tolist(), rel=1e-15)

    def test_rates_monotone_in_distance(self):
        g = random_geometry_matrix(5, seed=8).g.copy()
        weaker = g.copy()
        weaker[1, 3] *= 0.5  # pair (1, 3) moved farther apart
        weaker[3, 1] *= 0.5
        for fn in (min_dephasing_pairwise_A, min_dephasing_global_A,
                   min_dephasing_pairwise_B):
            before = fn(PairRateMatrix.from_matrix(g)).per_clock
            after = fn(PairRateMatrix.from_matrix(weaker)).per_clock
            assert np.all(after <= before * (1 + 1e-12))

    def test_permutation_equivariance(self):
        g = random_geometry_matrix(5, seed=17).g
        perm = np.array([3, 0, 4, 1, 2])
        gp = g[np.ix_(perm, perm)]
        for fn in (min_dephasing_pairwise_A, min_dephasing_global_A,
                   min_dephasing_pairwise_B):
            rep = fn(PairRateMatrix.from_matrix(g))
            rep_p = fn(PairRateMatrix.from_matrix(gp))
            assert rep_p.per_clock == approx(rep.per_clock[perm].tolist(),
                                             rel=1e-12)
            assert rep_p.objective() == approx(rep.objective(), rel=1e-12)


class TestReportSerialization:
    def test_csv_and_json(self):
        rep = min_dephasing_pairwise_A(two_clock_matrix(2.0))
        rows = rep.csv_rows()
        assert rows[0] == ["clock_index", "rate_hz", "mode", "case",
                           "convention", "formula_id"]
        assert rows[1][1] == repr(1.0)
        d = rep.to_json_dict()
        assert d["case"] == "A-free"
        assert d["convention"] == "direct"
        assert "optimal_rates" in d

    def test_sum_equals_reported_objective(self):
        g = random_geometry_matrix(4, seed=12)
        _, rep = optimize_rates(g, "pairwise")
        assert rep.objective() == approx(float(rep.per_clock.sum()), rel=1e-12)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            DephasingReport(np.array([-1.0]), "pairwise", "A-free")
