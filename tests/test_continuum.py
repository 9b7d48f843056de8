import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccgclocks.cli import EXIT_COMPUTATION, main
from ccgclocks.continuum import (
    DEFAULT_SIDES,
    ContinuumEstimate,
    _SLAB_SITES,
    _center_sums,
    _exact_sum,
    compare_sum_vs_integral,
    continuum_sum,
    fit_scaling,
    lattice_sum_exact,
    scaling_rate_sweep,
)
from ccgclocks.geometry import ClockArray, build_lattice


def approx(expected, rel, abs=0.0):
    """pytest.approx without its default 1e-12 absolute tolerance, under which
    any two values below 1e-12 compare equal (SI rates here are near 1e-42 Hz);
    an absolute tolerance is passed where one is meant."""
    return pytest.approx(expected, rel=rel, abs=abs)


W15 = 1e15


class TestExactSum:
    """The accumulator against math.fsum, the reference for a correctly rounded
    sum: every result must be the same float, not merely a close one."""

    def test_matches_fsum_on_adversarial_data(self):
        rng = np.random.default_rng(7)
        values = np.concatenate([rng.uniform(1e-9, 1, 5000),
                                 rng.uniform(1e8, 1e9, 5),
                                 rng.uniform(1e-18, 1e-16, 5000)])
        assert _exact_sum(values, "sum") == math.fsum(values.tolist())

    def test_order_independent(self):
        rng = np.random.default_rng(1)
        values = 10.0 ** rng.uniform(-10, 10, 2000)
        total = _exact_sum(values, "sum")
        rng.shuffle(values)
        assert _exact_sum(values, "sum") == total == math.fsum(values.tolist())

    @pytest.mark.parametrize("terms, expected", [
        ([1.0, 2.0 ** -53], 1.0),                                  # tie, even below
        ([1.0 + 2.0 ** -52, 2.0 ** -53], 1.0 + 2.0 ** -51),        # tie, even above
        ([1.0, 2.0 ** -53, 2.0 ** -105], 1.0 + 2.0 ** -52),        # just past the tie
    ])
    def test_ties_round_to_even(self, terms, expected):
        assert _exact_sum(np.array(terms), "sum") == expected == math.fsum(terms)

    @pytest.mark.parametrize("terms", [
        [5e-324] * 7,
        [2.2250738585072014e-308, -5e-324, 1.5e-323],
        [1e-310, 3e-320, 2.5e-308, -1e-311],
    ])
    def test_subnormal_terms(self, terms):
        assert _exact_sum(np.array(terms), "sum") == math.fsum(terms)

    @pytest.mark.parametrize("terms", [
        [1e16, 1.0, -1e16],
        [-1.5, 0.25, -2.0 ** -60],
        [3.0, -3.0, 1e-300, -1e300, 1e300],
    ])
    def test_signed_terms(self, terms):
        assert _exact_sum(np.array(terms), "sum") == math.fsum(terms)

    def test_overflow_boundary(self):
        # the exact total 1.79e308 is below the largest float; 2e308 is not
        assert _exact_sum(np.array([1e308, 7.9e307]), "sum") == math.fsum([1e308, 7.9e307])
        with pytest.raises(ValueError, match="sum X is not finite"):
            _exact_sum(np.array([1e308, 1e308]), "sum X")

    def test_terms_past_one_chunk(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal(3 * _SLAB_SITES + 7) * 10.0 ** rng.integers(
            -200, 200, 3 * _SLAB_SITES + 7)
        assert _exact_sum(values, "sum") == math.fsum(values.tolist())

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300, allow_subnormal=True), max_size=60))
    def test_equals_fsum(self, terms):
        assert _exact_sum(np.array(terms, dtype=float), "sum") == math.fsum(terms)


class TestLatticeSumExact:
    def test_three_site_chain(self):
        arr = build_lattice(1, 2e-6, [3], W15)
        s = lattice_sum_exact(arr, arr.center_index(), 1.0)
        assert s == approx(2.0 / 2e-6, rel=1e-14)

    def test_harmonic_number_identity(self):
        n = 201
        m = (n - 1) // 2
        arr = build_lattice(1, 1.0, [n], W15)
        s = lattice_sum_exact(arr, arr.center_index(), 1.0)
        h_m = float(sum(Fraction(1, k) for k in range(1, m + 1)))
        assert s == approx(2.0 * h_m, rel=1e-13)

    def test_cube_corner_distance_census(self):
        lc = 1e-10
        arr = build_lattice(3, lc, [2, 2, 2], W15)
        s = lattice_sum_exact(arr, 0, 2.0)
        expected = (3.0 + 3.0 / 2.0 + 1.0 / 3.0) / lc**2
        assert s == approx(expected, rel=1e-13)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        arr = build_lattice(2, 1.0, [5, 5], W15)
        center = arr.center_index()
        s0 = lattice_sum_exact(arr, center, 1.0)
        pos = arr.positions.copy()
        others = [i for i in range(len(arr)) if i != center]
        perm = rng.permutation(others)
        pos2 = pos.copy()
        pos2[others] = pos[perm]
        from ccgclocks.geometry import ClockArray
        arr2 = ClockArray(arr.omegas, pos2)
        assert lattice_sum_exact(arr2, center, 1.0) == approx(s0, rel=1e-12)

    def test_validation(self):
        arr = build_lattice(1, 1.0, [3], W15)
        with pytest.raises(ValueError):
            lattice_sum_exact(arr, 0, -1.0)
        with pytest.raises(ValueError):
            lattice_sum_exact(arr, 7, 1.0)

    @pytest.mark.parametrize("d", [1e-170, 1e200])
    def test_distances_whose_square_under_or_overflows(self, d):
        # the squares underflow to zero or overflow to inf; the sum is representable
        arr = ClockArray(np.full(3, W15), [[0.0, 0, 0], [3 * d, 4 * d, 0], [0, 0, -7 * d]])
        assert lattice_sum_exact(arr, 0, 1.0) == approx(1 / (5 * d) + 1 / (7 * d), rel=1e-15)
        # a site whose square is ordinary keeps its bits
        mixed = ClockArray(np.full(3, W15), [[0.0, 0, 0], [3 * d, 4 * d, 0], [0, 0, -7e-6]])
        plain = ClockArray(np.full(2, W15), [[0.0, 0, 0], [0, 0, -7e-6]])
        assert lattice_sum_exact(mixed, 0, 1.0) == math.fsum(
            [1 / (5 * d), lattice_sum_exact(plain, 0, 1.0)])

    def test_a_distance_out_of_the_float_range_is_loud(self):
        # the distance overflowed to inf and the sum read 0.0
        arr = ClockArray(np.full(2, W15), [[-1e308, 0, 0], [1e308, 0, 0]])
        with pytest.raises(ValueError, match="not finite"):
            lattice_sum_exact(arr, 0, 1.0)

    @pytest.mark.parametrize("lattice_constant", [1e160, 1e200])
    def test_a_sum_below_the_normal_float_range_is_refused(self, lattice_constant):
        # 9.1007e-320 and 0.0 were returned, where _center_sums refuses the grid
        arr = build_lattice(2, lattice_constant, [5, 5], W15)
        with pytest.raises(ValueError, match="clock 12 leaves the normal float range"):
            lattice_sum_exact(arr, arr.center_index(), 2.0)
        with pytest.raises(ValueError, match="leaves the normal float range"):
            _center_sums(2, [5], 2.0, lattice_constant)
        assert lattice_sum_exact(arr, arr.center_index(), 1.0) > 0.0

    def test_center_sum_where_squared_distances_underflow(self):
        # the sum of the true centre, clock 12, not clock 0's 9.05e170
        arr = build_lattice(2, 1e-170, [5, 5], W15)
        assert lattice_sum_exact(arr, arr.center_index(), 1.0) == approx(
            1e170 * _center_sums(2, [5], 1.0, 1.0)[0], rel=1e-15)


def full_grid_fsum(D, side, alpha, L_c):
    """Reference: fsum over every site of the full grid but the center."""
    half = (side - 1) // 2
    sq = (np.arange(-half, half + 1, dtype=float) * L_c) ** 2
    d2 = sq
    for _ in range(D - 1):
        d2 = np.add.outer(d2, sq)
    d2 = np.delete(d2.ravel(), d2.size // 2)
    return math.fsum((d2 ** (-alpha / 2.0)).tolist())


@pytest.mark.parametrize("terms", [[1.0, math.inf], [math.nan, 1.0], [1e308, 1e308]])
def test_exact_sum_rejects_non_finite_totals(terms):
    # the last case is finite terms whose exact total overflows
    with pytest.raises(ValueError, match="sum X is not finite"):
        _exact_sum(np.array(terms), "sum X")


class TestCenterSumFast:
    """_center_sums, every side of a sweep in one pass, side by side against
    fsum over each side's full grid; sides come unsorted and repeated."""

    @pytest.mark.parametrize("L_c", [1.0, 8e-7, 3.3e-10, 7.77e3])
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("D", [1, 2, 3])
    def test_orthant_fold_equals_full_grid_fsum(self, D, alpha, L_c):
        sides = [*DEFAULT_SIDES[D][1::2], *DEFAULT_SIDES[D][::2][::-1], DEFAULT_SIDES[D][1]]
        assert sorted(set(sides)) == sorted(DEFAULT_SIDES[D])
        assert _center_sums(D, sides, alpha, L_c) == \
            [full_grid_fsum(D, side, alpha, L_c) for side in sides]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.lists(st.integers(1, 40), min_size=1, max_size=4),
           st.sampled_from([1.0, 2.0]), st.floats(1e-100, 1e100))
    def test_orthant_fold_property(self, D, halves, alpha, L_c):
        sides = [2 * half + 1 for half in halves]
        assert _center_sums(D, sides, alpha, L_c) == \
            [full_grid_fsum(D, side, alpha, L_c) for side in sides]

    @pytest.mark.parametrize("alpha, L_c", [(2.0, 1e-170), (2.0, 1e-160), (1.0, 0.0),
                                            (1.0, 5e-308), (2.0, 1e160), (2.0, 1e200)])
    def test_unrepresentable_sum_names_lattice_constant(self, alpha, L_c):
        # underflowed sites were dropped (sum 0.0), overflow gave 0.0 or nan; a
        # factored sum below the normal range (subnormal or 0.0) is refused too
        for sides in ([5], [5, 3, 5]):
            with pytest.raises(ValueError, match=re.escape(f"L_c={L_c!r}")):
                _center_sums(2, sides, alpha, L_c)

    @pytest.mark.parametrize("L_c", [1e-170, 1e-160, 1e160])
    @pytest.mark.parametrize("D", [1, 2, 3])
    def test_lattice_constant_whose_squares_leave_the_range_is_factored_out(self, D, L_c):
        # the squared distances under- or overflow but the sum is representable:
        # it was refused, and at 1e-160 summed from subnormal squares
        sums = _center_sums(D, [5, 3, 5], 1.0, L_c)
        for side, got in zip([5, 3, 5], sums):
            arr = build_lattice(D, L_c, [side] * D, W15)
            assert got == approx(lattice_sum_exact(arr, arr.center_index(), 1.0), rel=1e-15)

    def test_scaling_cli_exits_with_computation_error(self, tmp_path, capsys):
        # L_c^-2 overflows: the sums are past the float range
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "scaling-sweep", "parameters": {
            "dimension": 2, "mode": "global", "case": "A-free",
            "lattice_constant": 1e-170}}), encoding="utf-8")
        code = main(["scaling", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_COMPUTATION
        assert "L_c=1e-170" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, case", [("global", "A-free"), ("pairwise", "B-fixed")])
    def test_scaling_cli_refuses_sum_below_the_float_range(self, tmp_path, capsys, mode, case):
        # L_c^-2 underflows to 0.0 at 1e200: every sum would read 0.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "scaling-sweep", "parameters": {
            "dimension": 1, "mode": mode, "case": case,
            "lattice_constant": 1e200}}), encoding="utf-8")
        code = main(["scaling", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_COMPUTATION
        assert "L_c=1e+200" in capsys.readouterr().err
        assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


class TestContinuumSum:
    def test_1d_log_case_two_sided(self):
        n, lc = 1000, 1e-6
        est = continuum_sum(n, 1, lc, 1.0)
        n_side = n / 2.0
        assert est.value == approx(math.log(n_side * n_side) / lc, rel=1e-12)
        assert est.S_D == 1.0

    def test_3d_alpha2_power_rule(self):
        n, lc = 64, 1e-3
        est = continuum_sum(n, 3, lc, 2.0)
        r = n ** (1 / 3) * lc
        assert est.value == approx(4 * math.pi / lc**3 * (r - lc), rel=1e-12)
        assert est.R == approx(r, rel=1e-6)

    def test_3d_alpha4_power_rule(self):
        n, lc = 1000, 0.5
        est = continuum_sum(n, 3, lc, 4.0)
        r = n ** (1 / 3) * lc
        assert est.value == approx(
            4 * math.pi / lc**3 * (1 / lc - 1 / r), rel=1e-12)

    def test_continuity_at_logarithmic_point(self):
        for d in (1, 2, 3):
            log_val = continuum_sum(10**4, d, 1.0, float(d)).value
            for eps in (1e-6, -1e-6):
                near = continuum_sum(10**4, d, 1.0, d + eps).value
                assert near == approx(log_val, rel=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            continuum_sum(1, 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            continuum_sum(10, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            ContinuumEstimate(D=2, alpha=1.0, S_D=1.0, L_c=1.0, R=2.0, value=1.0)

    @pytest.mark.parametrize("args", [
        (25, 2, 1e-320, 1.0),   # L_c^-1 overflows
        (125, 3, 1e110, 1.0),   # L_c^3 overflows: an OverflowError
        (125, 3, 1e-200, 2.0),  # L_c^-2 overflows
    ])
    def test_lattice_constant_whose_power_leaves_the_float_range(self, args):
        with pytest.raises(ValueError, match="out of the float range"):
            continuum_sum(*args)

    @pytest.mark.parametrize("args", [
        (25, 2, 1e-170, 1.0),   # L_c^2 underflows to 0
        (125, 3, 1e-103, 2.0),  # L_c^3 is subnormal: the estimate is about 5.03e207
        (125, 3, 3e-103, 2.0),  # L_c^3 is normal, but 4*pi / L_c^3 overflows
    ])
    def test_lattice_constant_whose_power_leaves_the_range_is_factored_out(self, args):
        # S_D L_c^-alpha times the integral over [1, N^(1/D)] in lattice constants:
        # these estimates were refused though representable
        N, D, L_c, alpha = args
        est = continuum_sum(*args)
        unit = continuum_sum(N, D, 1.0, alpha).value
        assert est.value == approx(unit * L_c ** -alpha, rel=1e-15)

    def test_ordinary_lattice_constant_keeps_the_direct_form(self):
        # factoring L_c out everywhere would move the last bit here
        assert continuum_sum(125, 3, 1e-6, 2.0).value == 50265482457436.68

    @pytest.mark.parametrize("D", [1, 2, 3])
    def test_sweep_at_a_lattice_constant_whose_power_underflows(self, D):
        # the pairwise A-free sums scale as 1/L_c: 2-D and 3-D were refused at 1e-170
        tiny = scaling_rate_sweep(D, "pairwise", "A-free", 1e15, L_c=1e-170, sides=[3, 5, 7, 31])
        unit = scaling_rate_sweep(D, "pairwise", "A-free", 1e15, L_c=1.0, sides=[3, 5, 7, 31])
        for a, b in zip(tiny, unit):
            assert a.N == b.N
            assert a.exact_sum == approx(b.exact_sum * 1e170, rel=1e-15)
            assert a.continuum_estimate == approx(b.continuum_estimate * 1e170, rel=1e-15)
            assert a.ratio == approx(b.ratio, rel=1e-15)

    @pytest.mark.parametrize("D, mode, case, omega, L_c", [
        (1, "pairwise", "A-free", 1e15, 1e300),  # exact sums near 3e-300, rates 0.0
        (2, "global", "B-fixed", 1e-130, 1.0),  # a prefactor below the normal range
        (1, "pairwise", "B-fixed", 0.0, 1.0),  # a zero frequency: rates of 0.0
    ])
    def test_sweep_refuses_a_rate_below_the_normal_range(self, D, mode, case, omega, L_c):
        # a library caller got these zeros; only the CLI's fit refused them
        with pytest.raises(ValueError, match="rate at N=.* leaves the normal float range"):
            scaling_rate_sweep(D, mode, case, omega, L_c=L_c)


class TestCompareSumVsIntegral:
    def test_1d_alpha1_large_n(self):
        arr = build_lattice(1, 1.0, [100001], W15)
        ratio = compare_sum_vs_integral(arr, 1.0)
        assert 0.5 <= ratio <= 2.0

    def test_3d_alpha1(self):
        arr = build_lattice(3, 1.0, [21, 21, 21], W15)
        ratio = compare_sum_vs_integral(arr, 1.0)
        assert 0.3 <= ratio <= 3.0

    def test_smallest_case_finite_positive(self):
        arr = build_lattice(3, 1.0, [2, 1, 1], W15)
        ratio = compare_sum_vs_integral(arr, 2.0)
        assert math.isfinite(ratio) and ratio > 0

    def test_requires_lattice_metadata(self):
        arr = ClockArray([W15, W15], [[0, 0, 0], [1, 0, 0]])
        with pytest.raises(ValueError, match="lattice metadata"):
            compare_sum_vs_integral(arr, 1.0)

    def test_degenerate_1d_pair_is_flagged(self):
        arr = build_lattice(1, 1.0, [2], W15)
        with pytest.raises(ValueError, match="degenerate"):
            compare_sum_vs_integral(arr, 1.0)

    def test_ratio_within_factor_three(self):
        # (1D, alpha=4) is excluded: its exact ratio tends to 3*zeta(4) ~ 3.247,
        # above 3 no matter the size.
        cases = {1: (1.0, 2.0), 2: (1.0, 2.0, 4.0), 3: (1.0, 2.0, 4.0)}
        sides = {1: 1001, 2: 51, 3: 15}
        for d, alphas in cases.items():
            arr = build_lattice(d, 1.0, [sides[d]] * d, W15)
            for alpha in alphas:
                ratio = compare_sum_vs_integral(arr, alpha)
                assert 1 / 3 <= ratio <= 3.0, (d, alpha, ratio)

    def test_1d_alpha4_exceeds_three_by_zeta(self):
        arr = build_lattice(1, 1.0, [2001], W15)
        ratio = compare_sum_vs_integral(arr, 4.0)
        zeta4 = math.pi**4 / 90.0
        assert ratio == approx(3.0 * zeta4, rel=1e-3)


class TestFitScaling:
    def test_synthetic_power_law(self):
        n = np.array([10, 30, 100, 300, 1000, 3000, 10000], dtype=float)
        fit = fit_scaling(list(zip(n, 2.5 * n ** (2 / 3))))
        assert fit.model == "power-law"
        assert fit.parameter == approx(2 / 3, rel=0, abs=0.01)

    def test_synthetic_log_law(self):
        n = np.array([10, 100, 1000, 10000, 100000], dtype=float)
        fit = fit_scaling(list(zip(n, 0.3 + 1.7 * np.log(n))))
        assert fit.model == "log-law"
        assert fit.parameter == approx(1.7, rel=1e-6)

    def test_synthetic_sqrt_log(self):
        n = np.array([10, 100, 1000, 10000, 100000], dtype=float)
        fit = fit_scaling(list(zip(n, np.sqrt(0.5 + 2.0 * np.log(n)))))
        assert fit.model == "sqrt-log-law"
        assert fit.parameter == approx(2.0, rel=1e-6)

    def test_synthetic_saturating(self):
        n = np.array([5, 11, 21, 51, 101, 1001, 10001], dtype=float)
        fit = fit_scaling(list(zip(n, 1.3 * np.sqrt(1 - 2.0 / n))))
        assert fit.model == "saturating"
        assert fit.parameter == approx(2.0, rel=1e-6)

    def test_synthetic_sqrt_n_log(self):
        n = np.array([25, 121, 441, 2601, 10201, 48841, 100489], dtype=float)
        fit = fit_scaling(list(zip(n, np.sqrt(n * (1.2 + 3.1 * np.log(n))))))
        assert fit.model == "sqrt-n-log-law"
        assert fit.parameter == approx(3.1, rel=1e-6)

    def test_ranking_is_complete_and_sorted(self):
        n = np.array([10, 100, 1000, 10000], dtype=float)
        fit = fit_scaling(list(zip(n, n ** 0.5)))
        assert len(fit.ranking) == 5
        residuals = [r for _, r in fit.ranking]
        assert residuals == sorted(residuals)

    def test_insufficient_points(self):
        with pytest.raises(ValueError, match="4 points"):
            fit_scaling([(10, 1.0), (100, 2.0), (1000, 3.0)])

    def test_insufficient_span(self):
        with pytest.raises(ValueError, match="decades"):
            fit_scaling([(10, 1.0), (20, 1.2), (40, 1.4), (80, 1.6)])


class TestScalingRateSweep:
    def test_rates_match_closed_forms_on_small_lattice(self):
        from ccgclocks.geometry import pair_rate_matrix
        from ccgclocks.rates import min_dephasing_global_A, min_dephasing_pairwise_A

        pts = scaling_rate_sweep(1, "pairwise", "A-free", W15, L_c=1e-6,
                                 sides=[5, 7, 501, 1001])
        arr = build_lattice(1, 1e-6, [5], W15)
        rep = min_dephasing_pairwise_A(pair_rate_matrix(arr))
        assert pts[0].rate == approx(rep.per_clock[arr.center_index()],
                                     rel=1e-12)

        pts_g = scaling_rate_sweep(1, "global", "A-free", W15, L_c=1e-6,
                                   sides=[5, 7, 501, 1001])
        rep_g = min_dephasing_global_A(pair_rate_matrix(arr))
        assert pts_g[0].rate == approx(rep_g.per_clock[arr.center_index()],
                                       rel=1e-12)

    @pytest.mark.parametrize("mode,case", [("pairwise", "A-free"), ("pairwise", "B-fixed"),
                                           ("global", "A-free"), ("global", "B-fixed")])
    def test_every_mode_and_case_is_its_closed_form_minimum(self, mode, case):
        # the centre-rate table against the N-clock closed forms, no absolute floor
        from ccgclocks.geometry import pair_rate_matrix
        from ccgclocks.rates import _CLOSED_FORMS

        arr = build_lattice(2, 1e-6, [5, 5], W15)
        rep = _CLOSED_FORMS[mode, case](pair_rate_matrix(arr))
        pts = scaling_rate_sweep(2, mode, case, W15, L_c=1e-6, sides=[5])
        np.testing.assert_allclose(pts[0].rate, rep.per_clock[arr.center_index()],
                                   rtol=1e-12, atol=0)

    def test_even_sides_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            scaling_rate_sweep(1, "pairwise", "A-free", W15, sides=[4, 8, 16, 512])

    def test_default_sides_cover_spec_ranges(self):
        assert max(DEFAULT_SIDES[1]) == 100001
        assert max(DEFAULT_SIDES[2]) == 317
        assert max(DEFAULT_SIDES[3]) == 41


def test_edge_clock_higher_dimensions_reported_not_gated():
    # corner clocks see a smaller sum than the center by an order-one factor;
    # only finiteness and ordering are asserted here
    for d, side in ((2, 31), (3, 11)):
        arr = build_lattice(d, 1.0, [side] * d, W15)
        corner = int(np.argmin(arr.positions @ np.ones(3)))
        center = lattice_sum_exact(arr, arr.center_index(), 1.0)
        edge = lattice_sum_exact(arr, corner, 1.0)
        assert 0.0 < edge < center


def test_edge_clock_1d_scaling_is_still_logarithmic():
    # edge clock of the chain: same log-law family, different constant
    from ccgclocks.constants import CONSTANTS

    pref = CONSTANTS.G * CONSTANTS.hbar * W15**2 / (2 * CONSTANTS.c**4)
    points = []
    for n in (11, 31, 101, 301, 1001, 3001):
        arr = build_lattice(1, 1e-6, [n], W15)
        edge = int(np.argmin(arr.positions[:, 0]))
        points.append((n, pref * lattice_sum_exact(arr, edge, 1.0)))
    fit = fit_scaling(points)
    assert fit.model == "log-law"
