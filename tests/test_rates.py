import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

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

    def test_asymmetric_pairwise_allowed(self):
        gam = np.array([[0.0, 1.0], [2.0, 0.0]])
        rates = MeasurementRates("pairwise", pairwise_gamma=gam)
        assert rates.pairwise_gamma[0, 1] != rates.pairwise_gamma[1, 0]

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
        assert rep.per_clock == pytest.approx([1.0, 1.0], rel=1e-12)

    def test_zero_coupling_limit_is_pure_measurement_noise(self):
        g = PairRateMatrix.from_matrix(np.zeros((2, 2)))
        gam = np.array([[0.0, 0.8], [0.8, 0.0]])
        rep = dephasing_given_rates(g, MeasurementRates("pairwise", pairwise_gamma=gam))
        assert rep.per_clock == pytest.approx([0.4, 0.4], rel=1e-12)

    def test_three_clock_triangle_matches_hand_expansion(self):
        g = equidistant_matrix(3, g=0.6)
        gam_val = 0.9
        gam = np.full((3, 3), gam_val)
        np.fill_diagonal(gam, 0.0)
        rep = dephasing_given_rates(g, MeasurementRates("pairwise", pairwise_gamma=gam))
        # expanding the pairwise sum for clock 0 by hand:
        expected = (gam_val / 2 + 0.6**2 / (8 * gam_val)) * 2
        assert rep.per_clock == pytest.approx([expected] * 3, rel=1e-12)

        repg = dephasing_given_rates(
            g, MeasurementRates("global", global_gamma=np.full(3, gam_val)))
        expected_g = gam_val / 2 + 2 * 0.6**2 / (8 * gam_val)
        assert repg.per_clock == pytest.approx([expected_g] * 3, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dephasing_given_rates(
                two_clock_matrix(), MeasurementRates("global", global_gamma=np.ones(3)))


class TestClosedForms:
    def test_pairwise_A_two_clocks(self):
        rep = min_dephasing_pairwise_A(two_clock_matrix(2.0))
        assert rep.per_clock == pytest.approx([1.0, 1.0], rel=1e-15)
        assert np.allclose(rep.optimal_rates.pairwise_gamma,
                           [[0.0, 1.0], [1.0, 0.0]])

    def test_pairwise_A_three_site_chain(self):
        arr = build_lattice(1, 1e-6, [3], 1e15)
        g = pair_rate_matrix(arr)
        rep = min_dephasing_pairwise_A(g)
        pref = CONSTANTS.G * CONSTANTS.hbar * 1e30 / (2 * CONSTANTS.c**4)
        center = arr.center_index()
        assert rep.per_clock[center] == pytest.approx(pref * 2 / 1e-6, rel=1e-12)
        edge = [i for i in range(3) if i != center][0]
        assert rep.per_clock[edge] == pytest.approx(pref * 1.5 / 1e-6, rel=1e-12)

    def test_pairwise_A_center_rate_grows_with_log_N(self):
        pref = CONSTANTS.G * CONSTANTS.hbar * 1e30 / (2 * CONSTANTS.c**4)
        rates = []
        for n in (11, 101, 1001):
            arr = build_lattice(1, 1e-6, [n], 1e15)
            rep = min_dephasing_pairwise_A(pair_rate_matrix(arr))
            rates.append(rep.per_clock[arr.center_index()])
        # harmonic growth: rate ~ (2 pref / L_c)(ln M + gamma_e)
        for n, r in zip((11, 101, 1001), rates):
            m = (n - 1) // 2
            expected = 2 * pref / 1e-6 * (math.log(m) + 0.5772156649015329)
            assert r == pytest.approx(expected, rel=2e-2)
        assert rates[1] - rates[0] == pytest.approx(rates[2] - rates[1], rel=0.05)

    def test_global_A_equals_pairwise_at_two_clocks(self):
        g = two_clock_matrix(1.4)
        assert min_dephasing_global_A(g).per_clock == pytest.approx(
            min_dephasing_pairwise_A(g).per_clock.tolist(), rel=1e-15)

    def test_global_A_equidistant_star(self):
        k = 5  # neighbors
        g = equidistant_matrix(k + 1, g=0.8)
        rep = min_dephasing_global_A(g)
        assert rep.per_clock == pytest.approx([0.8 / 2 * math.sqrt(k)] * (k + 1),
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
        assert consts[0] == pytest.approx(limit, rel=5e-2)  # still bending at N=11
        assert consts[1] == pytest.approx(consts[2], rel=1e-2)
        assert consts[2] == pytest.approx(limit, rel=5e-3)

    def test_pairwise_B_two_clocks(self):
        rep = min_dephasing_pairwise_B(two_clock_matrix(2.0))
        assert rep.per_clock == pytest.approx([1.0, 1.0], rel=1e-15)

    def test_pairwise_B_five_equidistant_with_golden_section_check(self):
        g = equidistant_matrix(5, g=1.0)
        rep = min_dephasing_pairwise_B(g)
        # sqrt(N-1)/2 * sqrt(sum g^2) = (2/2) * 2g = 2g
        assert rep.per_clock == pytest.approx([2.0] * 5, rel=1e-12)

        def total(gamma):
            gam = np.full((5, 5), gamma)
            np.fill_diagonal(gam, 0.0)
            return dephasing_given_rates(
                g, MeasurementRates("pairwise", pairwise_gamma=gam)).objective()

        res = minimize_scalar(total, bracket=(1e-3, 1.0, 10.0), method="golden",
                              options={"xtol": 1e-12})
        gamma_star = float(rep.optimal_rates.pairwise_gamma[0, 1])
        assert res.x == pytest.approx(gamma_star, rel=1e-6)
        assert total(res.x) == pytest.approx(rep.objective(), rel=1e-10)

    def test_B_equals_sqrt_Nm1_times_global_A(self):
        g = random_geometry_matrix(6, seed=11)
        b = min_dephasing_pairwise_B(g).per_clock
        a2 = min_dephasing_global_A(g).per_clock
        assert b == pytest.approx((math.sqrt(5) * a2).tolist(), rel=1e-12)

    def test_B_rejects_single_clock(self):
        with pytest.raises(ValueError):
            min_dephasing_pairwise_B(PairRateMatrix.from_matrix([[0.0]]))

    def test_fixed_scalar_global_matches_global_A_on_homogeneous(self):
        g = equidistant_matrix(4, g=0.5)
        assert min_dephasing_global_B(g).per_clock == pytest.approx(
            min_dephasing_global_A(g).per_clock.tolist(), rel=1e-12)


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
        assert report.per_clock == pytest.approx(
            dephasing_given_rates(g, best).per_clock, rel=1e-15)

    def test_two_clock_recovers_half_g(self):
        g = two_clock_matrix(3.0)
        rates, rep = optimize_rates(g, "pairwise")
        assert rates.pairwise_gamma[0, 1] == pytest.approx(1.5, rel=1e-6)
        assert rates.pairwise_gamma[1, 0] == pytest.approx(1.5, rel=1e-6)
        assert rep.per_clock == pytest.approx([1.5, 1.5], rel=1e-10)

    def test_random_cloud_global_recovers_closed_form(self):
        g = random_geometry_matrix(6, seed=5)
        rates, rep = optimize_rates(g, "global")
        closed = min_dephasing_global_A(g)
        assert rates.global_gamma == pytest.approx(
            closed.optimal_rates.global_gamma.tolist(), rel=1e-6)
        assert rep.objective() == pytest.approx(closed.objective(), rel=1e-10)

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
        assert rates.pairwise_gamma[0, 1] == pytest.approx(
            closed.optimal_rates.pairwise_gamma[0, 1], rel=1e-6)
        assert rep.objective() == pytest.approx(closed.objective(), rel=1e-10)

    def test_fixed_scalar_global_homogeneous(self):
        g = equidistant_matrix(4, g=0.7)
        rates, rep = optimize_rates(g, "fixed-scalar-global")
        closed = min_dephasing_global_B(g)
        assert rep.objective() == pytest.approx(closed.objective(), rel=1e-10)
        assert rates.global_gamma[0] == pytest.approx(
            closed.optimal_rates.global_gamma[0], rel=1e-6)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            optimize_rates(two_clock_matrix(), "per-clock")


_CLOSED_FORMS = {"pairwise": min_dephasing_pairwise_A, "global": min_dephasing_global_A,
                 "fixed-scalar": min_dephasing_pairwise_B,
                 "fixed-scalar-global": min_dephasing_global_B}


@st.composite
def clouds(draw):
    """A PairRateMatrix of 2 to 8 clocks on distinct sites of a small grid."""
    sites = draw(st.lists(st.tuples(*[st.integers(-6, 6)] * 3),
                          min_size=2, max_size=8, unique=True))
    omegas = draw(st.lists(st.floats(1e14, 1e16), min_size=len(sites),
                           max_size=len(sites)))
    return pair_rate_matrix(ClockArray(np.array(omegas), 1e-7 * np.array(sites)))


class TestOptimizerProperties:
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
        assert rep.objective() == pytest.approx(best, rel=1e-10)

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


class TestInvariants:
    def test_given_rates_at_optimum_matches_closed_form_pairwise(self):
        # exact per-clock equality for any geometry in the pairwise case
        g = random_geometry_matrix(7, seed=2)
        closed = min_dephasing_pairwise_A(g)
        achieved = dephasing_given_rates(g, closed.optimal_rates)
        assert achieved.per_clock == pytest.approx(closed.per_clock.tolist(),
                                                   rel=1e-12)

    def test_given_rates_at_optimum_matches_closed_form_global_homogeneous(self):
        # per-clock equality requires site-equivalent geometry (here: a square)
        arr = ClockArray(np.full(4, 1e15),
                         [[0, 0, 0], [1e-6, 0, 0], [0, 1e-6, 0], [1e-6, 1e-6, 0]])
        g = pair_rate_matrix(arr)
        closed = min_dephasing_global_A(g)
        achieved = dephasing_given_rates(g, closed.optimal_rates)
        assert achieved.per_clock == pytest.approx(closed.per_clock.tolist(),
                                                   rel=1e-12)

    def test_global_summed_rate_matches_for_any_geometry(self):
        g = random_geometry_matrix(6, seed=33)
        closed = min_dephasing_global_A(g)
        achieved = dephasing_given_rates(g, closed.optimal_rates)
        assert achieved.objective() == pytest.approx(closed.objective(), rel=1e-12)

    def test_global_minimum_below_pairwise_minimum(self):
        for seed in (1, 2, 3):
            g = random_geometry_matrix(5, seed=seed)
            gl = min_dephasing_global_A(g).per_clock
            pw = min_dephasing_pairwise_A(g).per_clock
            assert np.all(gl <= pw * (1 + 1e-12))
            assert np.all(gl < pw)  # strict for N >= 3
        g2 = two_clock_matrix(1.0)
        assert min_dephasing_global_A(g2).per_clock == pytest.approx(
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
            assert rep_p.per_clock == pytest.approx(rep.per_clock[perm].tolist(),
                                                    rel=1e-12)
            assert rep_p.objective() == pytest.approx(rep.objective(), rel=1e-12)


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
        assert rep.objective() == pytest.approx(float(rep.per_clock.sum()), rel=1e-12)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            DephasingReport(np.array([-1.0]), "pairwise", "A-free")
