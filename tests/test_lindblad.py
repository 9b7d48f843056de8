import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccgclocks import lindblad
from ccgclocks.geometry import ClockArray, PairRateMatrix, build_lattice, pair_rate_matrix
from ccgclocks.lindblad import (
    CoherenceTrace,
    DensityMatrix,
    EvolutionModel,
    _generator_tables,
    build_model,
    coherence_decay_rate,
    dimensionless_model,
    evolve_exact,
    evolve_numeric,
    negativity,
    product_state_coherence,
    qubit_state,
    simulate_coherence,
    single_clock_coherences,
)
from ccgclocks.rates import (_CLOSED_FORMS, MeasurementRates, dephasing_given_rates,
                             min_dephasing_pairwise_A)

G2 = [[0.0, 1.0], [1.0, 0.0]]


def approx(expected, rel, abs=0.0):
    """pytest.approx without its default 1e-12 absolute tolerance, under which
    any two values below 1e-12 compare equal (SI rates here are near 1e-42 Hz);
    an absolute tolerance is passed where one is meant."""
    return pytest.approx(expected, rel=rel, abs=abs)


def ccg2(kind="ccg-pairwise"):
    return dimensionless_model(G2, kind=kind)


def random_density(rng, n):
    dim = 2**n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m))


KINDS = ("unitary", "ccg-pairwise", "ccg-global")


def random_model(rng, n, kind, optimal=False):
    g = rng.uniform(0.1, 1.0, size=(n, n))
    g = 0.5 * (g + g.T)
    np.fill_diagonal(g, 0.0)
    if kind == "unitary":
        rates = None
    elif optimal:
        rates = "optimal"
    elif kind == "ccg-pairwise":
        gam = rng.uniform(0.3, 1.5, size=(n, n))
        np.fill_diagonal(gam, 0.0)
        rates = MeasurementRates("pairwise", pairwise_gamma=gam)
    else:
        rates = MeasurementRates("global", global_gamma=rng.uniform(0.3, 1.5, size=n))
    return dimensionless_model(g, kind=kind, rates=rates,
                               omegas=rng.uniform(0.0, 1.0, size=n))


def random_qubit(rng, form):
    """A qubit state given as a name, a ket or a valid 2x2 matrix."""
    if form == "name":
        return str(rng.choice(["zero", "one", "plus", "minus", "plus-i"]))
    if form == "ket":
        return rng.normal(size=2) + 1j * rng.normal(size=2)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = a @ a.conj().T
    return m / np.trace(m)


QUBIT_FORMS = st.lists(st.sampled_from(("name", "ket", "matrix")),
                       min_size=8, max_size=8)


def per_sample_coherence(model, states, times):
    """The product-state coherence kernel run one time sample at a time."""
    rhos = [qubit_state(s) for s in states]
    pops = np.array([np.real(s[0, 0]) for s in rhos])
    cohs = np.abs([s[1, 0] for s in rhos])
    rows = []
    for t in times:
        phase = np.exp(2j * model.interaction_sign * model.coupling * t)
        env = pops * phase + (1.0 - pops) / phase
        np.fill_diagonal(env, 1.0)
        rows.append(cohs * np.exp(-4.0 * model.per_clock_dephasing * t)
                    * np.abs(env.prod(axis=1)))
    return np.array(rows)


def outer_product_dephasing(g, gamma):
    """The global channel's M as its defining sum of N outer products."""
    m = np.diag(gamma / 2.0)
    for j in range(len(gamma)):
        m += np.outer(g[:, j], g[:, j]) / (8.0 * gamma[j])
    return m


class TestDensityMatrix:
    def test_named_product_states(self):
        rho = DensityMatrix.from_qubit_states(["plus", "zero"])
        assert rho.dim == 4
        assert rho.purity() == approx(1.0, rel=1e-6)
        assert np.trace(rho.matrix) == approx(1.0, rel=1e-6)

    def test_ket_and_matrix_inputs(self):
        ket = np.array([1.0, 1.0j]) / math.sqrt(2)
        rho = DensityMatrix.from_qubit_states([ket, np.eye(2) / 2])
        assert rho.purity() == approx(0.5, rel=1e-6)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="positive"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(ValueError, match="power of two"):
            DensityMatrix(np.eye(3, dtype=complex) / 3)

    def test_product_of_names_and_kets_passes_the_public_check(self):
        ket = np.array([0.6, 0.8j])
        rho = DensityMatrix.from_qubit_states(["plus", ket, "plus-i", [1.0, -2.0]])
        again = DensityMatrix(rho.matrix)
        assert np.array_equal(again.matrix, rho.matrix)
        assert not rho.matrix.flags.writeable

    def test_explicit_matrix_keeps_the_full_check(self):
        with pytest.raises(ValueError, match="positive"):
            DensityMatrix.from_qubit_states(["plus", np.diag([1.5, -0.5])])
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix.from_qubit_states([[[0.5, 1.0], [0.0, 0.5]]])

    def test_non_finite_inputs_rejected(self):
        for ket in ([math.nan, 1.0], [math.inf, 0.0]):
            with pytest.raises(ValueError, match="finite norm"):
                DensityMatrix.from_qubit_states(["plus", ket])
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(np.diag([math.nan, 1.0]).astype(complex))

    def test_kets_at_the_ends_of_the_float_range_are_normalized(self):
        # [1e200, 0] overflows the plain norm, and [1e-160, 1e-160] has
        # subnormal squares; each is divided by its largest entry first
        for ket, name in (([1e200, 0.0], "zero"), ([1e-160, 1e-160], "plus"),
                          ([5e-324, 0.0], "zero"), ([0.0, 1e-300j], "one")):
            rho = DensityMatrix.from_qubit_states([ket])
            assert np.allclose(rho.matrix, qubit_state(name), rtol=0, atol=1e-15)
            DensityMatrix(rho.matrix)  # the public check agrees
            trace = product_state_coherence(ccg2(), ["plus", ket], [0.0, 1.0])
            assert np.allclose(trace.magnitudes[0], [0.5, 0.5 if name == "plus" else 0.0],
                               rtol=0, atol=1e-15)

    def test_ordinary_kets_keep_their_bits(self):
        rng = np.random.default_rng(17)
        for ket in [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(50)]:
            k = ket / np.linalg.norm(ket)
            assert qubit_state(ket).tobytes() == np.outer(k, k.conj()).tobytes()

    def test_json_export_limited_to_four_clocks(self):
        rho = DensityMatrix.from_qubit_states(["plus"] * 5)
        with pytest.raises(ValueError):
            rho.to_json_dict()
        d = DensityMatrix.from_qubit_states(["plus"]).to_json_dict()
        assert d["real"][0][1] == approx(0.5, rel=1e-6)


class TestBuildModel:
    def test_single_free_clock(self):
        arr = ClockArray([1e15], [[0.0, 0.0, 0.0]])
        model = build_model(arr)
        assert model.kind == "unitary"
        assert np.all(model.dephasing == 0.0)
        assert model.omegas[0] == 1e15

    def test_two_clock_optimum_coefficients(self):
        arr = ClockArray([1e15, 1e15], [[0, 0, 0], [3e-7, 0, 0]])
        from ccgclocks.geometry import pair_rate_matrix
        g = pair_rate_matrix(arr).g[0, 1]
        gam = np.array([[0.0, g / 2], [g / 2, 0.0]])
        model = build_model(arr, MeasurementRates("pairwise", pairwise_gamma=gam))
        assert model.kind == "ccg-pairwise"
        assert model.per_clock_dephasing == approx([g / 2, g / 2], rel=1e-12)

    def test_three_clock_global_matches_channel_formula(self):
        arr = build_lattice(1, 1e-6, [3], 1e15)
        from ccgclocks.geometry import pair_rate_matrix
        g = pair_rate_matrix(arr).g
        gam = np.array([0.9, 0.5, 0.7]) * g.max()
        model = build_model(arr, MeasurementRates("global", global_gamma=gam))
        for i in range(3):
            expected = gam[i] / 2 + sum(
                g[i, j] ** 2 / (8 * gam[j]) for j in range(3) if j != i)
            assert model.per_clock_dephasing[i] == approx(expected, rel=1e-12)

    def test_size_limits(self):
        # models have no size cap; the 2^N limit fires where a dense state
        # would be built, before anything of that size is allocated
        model = build_model(build_lattice(1, 1e-6, [13], 1e15))
        assert model.n_clocks == 13
        with pytest.raises(ValueError, match="limited to 12 clocks, got 13"):
            DensityMatrix.from_qubit_states(["plus"] * 13)
        with pytest.raises(ValueError, match="limited to 12 clocks, got 13"):
            evolve_exact(DensityMatrix.all_plus(2), model, 1.0)
        with pytest.raises(ValueError, match="limited to 12 clocks, got 13"):
            simulate_coherence(model, ["plus"] * 13, [0.0, 1.0])

    def test_dephasing_must_be_symmetric_psd(self):
        common = dict(kind="ccg-global", omegas=np.zeros(2), coupling=np.array(G2))
        with pytest.raises(ValueError, match="symmetric"):
            EvolutionModel(dephasing=np.array([[1.0, 0.2], [0.3, 1.0]]), **common)
        # non-negative diagonal, but eigenvalues 3 and -1
        with pytest.raises(ValueError, match="positive semidefinite"):
            EvolutionModel(dephasing=np.array([[1.0, 2.0], [2.0, 1.0]]), **common)
        # a rank-one (singular) M is allowed
        EvolutionModel(dephasing=np.ones((2, 2)), **common)

    def test_diagonal_dephasing_needs_no_eigensolver(self, monkeypatch):
        # the eigenvalues of a diagonal M are its diagonal: its sign check
        # decides, with the message a negative rate always raised
        def refuse(m):
            raise AssertionError("eigvalsh called on a diagonal M")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        common = dict(kind="ccg-pairwise", omegas=np.zeros(3), coupling=np.zeros((3, 3)))
        EvolutionModel(dephasing=np.diag([0.5, -0.0, 2.0]), **common)
        with pytest.raises(ValueError, match="per-clock dephasing rates must be non-negative"):
            EvolutionModel(dephasing=np.diag([0.5, -1e-300, 2.0]), **common)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, -1e-300, 0.5, 2.0, -1.0]),
                    min_size=3, max_size=3),
           st.lists(st.sampled_from([0.0, 0.0, -0.0, 1e-300, 0.5, -2.0]),
                    min_size=3, max_size=3))
    def test_dephasing_checks_match_the_eigensolver(self, diag, upper):
        m = np.diag(diag)
        m[np.triu_indices(3, 1)] = upper
        m = np.triu(m) + np.triu(m, 1).T

        def reference(m):
            if np.any(np.diag(m) < 0):
                return "per-clock dephasing rates must be non-negative"
            if np.min(np.linalg.eigvalsh(m)) < -1e-12 * np.max(np.abs(m)):
                return "dephasing matrix must be positive semidefinite"
            return None

        try:
            EvolutionModel(kind="ccg-global", omegas=np.zeros(3),
                           coupling=np.zeros((3, 3)), dephasing=m)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == reference(m)

    def test_non_finite_model_inputs_refused(self):
        common = dict(kind="ccg-global", omegas=np.zeros(2), coupling=np.array(G2),
                      dephasing=np.eye(2))
        for key, bad in (("omegas", [math.nan, 1.0]), ("omegas", [0.0, math.inf]),
                         ("coupling", [[0.0, math.inf], [math.inf, 0.0]]),
                         ("dephasing", [[1.0, math.nan], [math.nan, 1.0]]),
                         ("dephasing", [[math.inf, 0.0], [0.0, 1.0]])):
            with pytest.raises(ValueError, match="must be finite"):
                EvolutionModel(**dict(common, **{key: np.array(bad)}))
        with pytest.raises(ValueError, match="must be finite"):
            dimensionless_model(G2, omegas=[math.nan, 1.0])

    @pytest.mark.parametrize("mode", ["pairwise", "global"])
    def test_both_constructors_build_the_same_model(self, mode):
        arr = build_lattice(2, 1e-6, [2, 3], 1e15)
        g = pair_rate_matrix(arr)
        optimal = _CLOSED_FORMS[(mode, "A-free")](g).optimal_rates
        for rates in (optimal, "optimal"):
            scaled = dimensionless_model(g.g, kind=f"ccg-{mode}", omegas=arr.omegas,
                                         rates=rates)
            model = build_model(arr, optimal)
            assert model.kind == scaled.kind == f"ccg-{mode}"
            for field in ("omegas", "coupling", "dephasing"):
                assert getattr(model, field).tobytes() == getattr(scaled, field).tobytes()
            assert (model.time_unit, scaled.time_unit) == (None, 1.0)

    @pytest.mark.parametrize("optimal", [False, True])
    @pytest.mark.parametrize("n, spread", [(2, 0), (3, 0), (5, 0), (8, 0), (13, 0),
                                           (40, 0), (8, 20), (30, 20)])
    def test_channel_built_global_dephasing(self, n, spread, optimal):
        # couplings uniform in [0.1, 1], times 10^x for x uniform in [-spread, spread]
        rng = np.random.default_rng(n + spread)
        scale = 10.0 ** rng.uniform(-spread, spread, (n, n))
        g = np.triu(rng.uniform(0.1, 1.0, (n, n)) * scale, 1)
        g += g.T
        gamma = (_CLOSED_FORMS[("global", "A-free")](PairRateMatrix(g)).optimal_rates
                 .global_gamma if optimal else rng.uniform(0.3, 1.5, n) * g.max())
        rates = MeasurementRates("global", global_gamma=gamma)
        model = dimensionless_model(g, kind="ccg-global", rates=rates)
        m = model.dephasing
        assert m.tobytes() == m.T.tobytes()
        # the per-clock rates of simulate.json are the rates kernel's, and the
        # correlated terms of simulate_rho.json the defining outer products'
        per_clock = dephasing_given_rates(PairRateMatrix(g), rates).per_clock
        assert np.diag(m).tobytes() == per_clock.tobytes()
        off = ~np.eye(n, dtype=bool)
        assert m[off].tobytes() == outer_product_dephasing(g, gamma)[off].tobytes()
        rebuilt = EvolutionModel(kind="ccg-global", omegas=model.omegas,
                                 coupling=model.coupling, dephasing=m)
        assert rebuilt.dephasing.tobytes() == m.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.sampled_from(["pairwise", "global"]),
           st.sampled_from([0, 5, 60]), st.booleans())
    def test_model_diagonal_is_the_rates_kernel_bit_for_bit(self, seed, n, channel, spread,
                                                            optimal):
        # a global model summed its diagonal in another order than the rates
        # kernel and disagreed in the last bit
        rng = np.random.default_rng(seed)
        g = rng.uniform(0.1, 1.0, (n, n)) * 10.0 ** rng.uniform(-spread, spread, (n, n))
        g = PairRateMatrix(np.triu(g, 1) + np.triu(g, 1).T)
        if optimal:
            rates = _CLOSED_FORMS[(channel, "A-free")](g).optimal_rates
        else:
            shape = (n, n) if channel == "pairwise" else (n,)
            gamma = rng.uniform(0.3, 1.5, shape) * g.g.max() * 10.0 ** rng.uniform(-spread, spread)
            if channel == "pairwise":
                np.fill_diagonal(gamma, 0.0)
            rates = MeasurementRates(channel, **{f"{channel}_gamma": gamma})
        model = dimensionless_model(g.g, kind=f"ccg-{channel}", rates=rates)
        want = dephasing_given_rates(g, rates).per_clock
        assert model.per_clock_dephasing.tobytes() == want.tobytes()

    def test_overflowing_channel_models_are_refused_without_a_warning(self):
        # g^2 overflows, refused by the rates kernel; then a division by the reference
        rates = MeasurementRates("global", global_gamma=np.array([1e-300, 1e-300]))
        with pytest.raises(ValueError, match=r"pair rate 1e\+200 squared is out of the float"):
            dimensionless_model([[0.0, 1e200], [1e200, 0.0]], kind="ccg-global",
                                rates=rates)
        with pytest.raises(ValueError, match="must be finite"):
            ccg2("ccg-global").nondimensionalized(1e-320)
        with pytest.raises(ValueError, match="symmetric N x N"):
            dimensionless_model(G2, omegas=[0.0, 1.0, 2.0])

    def test_constructors_leave_the_callers_arrays_writeable(self):
        w, g, m = np.zeros(2), np.array(G2), np.eye(2)
        model = EvolutionModel(kind="ccg-global", omegas=w, coupling=g, dephasing=m)
        built = dimensionless_model(g, kind="ccg-global", omegas=w)
        for arr in (w, g, m):
            assert arr.flags.writeable
        w[0], g[0, 1], m[0, 0] = 5.0, 7.0, 9.0
        assert (model.omegas[0], model.coupling[0, 1], model.dephasing[0, 0]) == (0.0, 1.0, 1.0)
        assert (built.omegas[0], built.coupling[0, 1]) == (0.0, 1.0)
        for frozen in (model, built):
            for field in ("omegas", "coupling", "dephasing"):
                assert not getattr(frozen, field).flags.writeable

    def test_unitary_kind_must_have_zero_dephasing(self):
        with pytest.raises(ValueError):
            EvolutionModel(kind="unitary", omegas=np.zeros(2),
                           coupling=np.array(G2), dephasing=np.eye(2))


class TestEvolveExact:
    def test_time_zero_is_identity(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 2)
        out = evolve_exact(rho, ccg2(), 0.0)
        assert np.allclose(out.matrix, rho.matrix, atol=0)

    def test_single_qubit_double_commutator_rate(self):
        # oracle: expand [sz,[sz,rho]] numerically; its off-diagonal factor
        # sets the decay exp(-4 D t)
        sz = np.diag([1.0, -1.0])
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        dc = sz @ (sz @ rho - rho @ sz) - (sz @ rho - rho @ sz) @ sz
        factor = float(np.real(dc[0, 1] / rho[0, 1]))
        assert factor == 4.0

        d = 0.3
        model = EvolutionModel(kind="ccg-pairwise", omegas=np.zeros(1),
                               coupling=np.zeros((1, 1)),
                               dephasing=np.array([[d]]))
        out = evolve_exact(DensityMatrix.from_qubit_states(["plus"]), model, 0.7)
        assert abs(out.matrix[0, 1]) == approx(
            0.5 * math.exp(-factor * d * 0.7), rel=1e-12)

    def test_two_clock_optimum_decay_rate_is_2g(self):
        model = ccg2()
        times = np.linspace(0.0, 3.0, 31)
        trace = simulate_coherence(model, ["plus", "zero"], times)
        rate = float(coherence_decay_rate(trace, clock=0))
        assert rate == approx(2.0, rel=0.0, abs=1e-9)

    def test_semigroup_property(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 2)
        model = ccg2()
        one = evolve_exact(rho, model, 1.7)
        two = evolve_exact(evolve_exact(rho, model, 0.9), model, 0.8)
        assert np.allclose(one.matrix, two.matrix, atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.sampled_from(KINDS),
           st.floats(0.0, 50.0), st.integers(0, 2**31 - 1))
    def test_evolved_state_passes_public_validator(self, n, kind, t, seed):
        # every state built trusted: a product of kets, and states evolved
        rng = np.random.default_rng(seed)
        model = random_model(rng, n, kind)
        product = DensityMatrix.from_qubit_states(
            rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))
        for out in (product, *(evolve_exact(rho, model, t)
                               for rho in (random_density(rng, n), product))):
            DensityMatrix(out.matrix)  # raises if not a state

    @pytest.mark.parametrize("kind", KINDS)
    def test_in_place_kernel_matches_reference_bit_for_bit(self, kind):
        # the one-expression kernel, each step its own temporary
        rng = np.random.default_rng(11)
        for n in range(1, 6):
            rho, model = random_density(rng, n), random_model(rng, n, kind)
            e, z, zm, q = _generator_tables(model)
            lam = q[:, None] + q[None, :] - 2.0 * (zm @ z.T)
            for t in (0.0, 0.37, 2.5, 40.0, np.float64(1.1)):
                want = rho.matrix * np.exp((-1j * np.subtract.outer(e, e) - lam) * t)
                assert evolve_exact(rho, model, t).matrix.tobytes() == want.tobytes()

    def test_populations_invariant(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 3)
        g3 = np.array([[0, 1, 0.4], [1, 0, 0.7], [0.4, 0.7, 0]])
        model = dimensionless_model(g3, kind="ccg-global")
        out = evolve_exact(rho, model, 2.3)
        assert np.allclose(out.populations(), rho.populations(), atol=1e-15)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, 2)
        out = evolve_exact(rho, ccg2(), 1.2)
        m = out.matrix
        assert abs(np.trace(m) - 1.0) < 1e-10
        assert np.max(np.abs(m - m.conj().T)) < 1e-10


class TestEvolveNumeric:
    def test_matches_exact_for_two_clocks(self):
        # dt = t / 10^4 over the g t range [0, 5]
        rng = np.random.default_rng(7)
        rho = random_density(rng, 2)
        model = ccg2()
        for t in (1.0, 5.0):
            ex = evolve_exact(rho, model, t)
            nu = evolve_numeric(rho, model, t, dt=t / 10**4)
            assert np.linalg.norm(nu.rho.matrix - ex.matrix) < 1e-8
            assert nu.convergence_estimate < 1e-8

    def test_unitary_purity_conserved(self):
        model = dimensionless_model(G2, kind="unitary", rates=None,
                                    omegas=[0.5, 1.0])
        rho = DensityMatrix.all_plus(2)
        out = evolve_numeric(rho, model, 3.0, dt=1e-3)
        assert out.rho.purity() == approx(1.0, rel=0.0, abs=1e-10)

    def test_free_dephasing_qubit_matches_analytic(self):
        d = 0.4
        model = EvolutionModel(kind="ccg-pairwise", omegas=np.zeros(1),
                               coupling=np.zeros((1, 1)),
                               dephasing=np.array([[d]]))
        rho = DensityMatrix.from_qubit_states(["plus"])
        out = evolve_numeric(rho, model, 2.0, dt=1e-4)
        assert abs(out.rho.matrix[0, 1]) == approx(
            0.5 * math.exp(-4 * d * 2.0), rel=1e-9)

    def test_rejects_too_large_step(self):
        model = dimensionless_model(10.0 * np.array(G2), kind="ccg-pairwise")
        rho = DensityMatrix.all_plus(2)
        with pytest.raises(ValueError, match="too large"):
            evolve_numeric(rho, model, 5.0, dt=0.5)
        # a pure state's eigenvalue of -2.8e-9 passed a -1e-8 gate, and the
        # trusted result then failed DensityMatrix's own check
        unitary = dimensionless_model(G2, kind="unitary", rates=None, omegas=[0.3, 0.7])
        with pytest.raises(ValueError, match="positivity violated by -2.78e-09"):
            evolve_numeric(rho, unitary, 0.5, dt=0.01)

    def test_overflowing_step_is_refused_without_a_warning(self):
        # the step polynomial raised to the number of steps overflows
        model = dimensionless_model(10.0 * np.array(G2), kind="ccg-pairwise")
        with pytest.raises(ValueError, match="not finite; the step dt=0.5 is too large"):
            evolve_numeric(DensityMatrix.all_plus(2), model, 200.0, dt=0.5)

    def test_size_cap(self):
        g = np.zeros((11, 11))
        g[0, 1] = g[1, 0] = 1.0
        g += 0.01
        np.fill_diagonal(g, 0.0)
        g = 0.5 * (g + g.T)
        model = dimensionless_model(g, kind="ccg-pairwise")
        # the cap is checked before the state, so a small state suffices
        rho = DensityMatrix.all_plus(2)
        with pytest.raises(ValueError, match="limited to 10"):
            evolve_numeric(rho, model, 1.0, dt=1e-2)

    @pytest.mark.parametrize("kind", KINDS)
    def test_output_is_a_state_by_construction(self, kind):
        # the oracle's one check is positivity: its diagonal is rho0's, bit
        # for bit, and it is Hermitian within the public tolerances
        rng = np.random.default_rng(29)
        for n in range(1, 6):
            rho, model = random_density(rng, n), random_model(rng, n, kind)
            out = evolve_numeric(rho, model, rng.uniform(0.1, 2.0), dt=1e-2).rho.matrix
            assert np.diag(out).tobytes() == np.diag(rho.matrix).tobytes()
            assert abs(np.trace(out) - 1.0) <= DensityMatrix.TRACE_TOL
            assert np.max(np.abs(out - out.conj().T)) <= DensityMatrix.HERMITICITY_TOL
            DensityMatrix(out)  # the public check agrees

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            evolve_numeric(DensityMatrix.all_plus(2), ccg2(), 1.0, dt=0.0)


class TestCoherence:
    @pytest.mark.parametrize("coupling, gamma", [(1e15, 1.0), (1e-10, 1e10)])
    def test_times_past_the_float_range_of_the_rates_are_refused(self, coupling, gamma):
        # a phase 2e15 t, or a decay 2e10 t, overflowed with a warning at t = 1e300
        model = dimensionless_model([[0.0, coupling], [coupling, 0.0]], omegas=[1.0, 1.0],
                                    rates=MeasurementRates("pairwise", pairwise_gamma=[
                                        [0.0, gamma], [gamma, 0.0]]))
        rho0 = DensityMatrix.all_plus(2)
        for propagate in (lambda: evolve_exact(rho0, model, 1e300),
                          lambda: evolve_numeric(rho0, model, 1e300, 1e299),
                          lambda: simulate_coherence(model, rho0, [0.0, 1e300]),
                          lambda: product_state_coherence(model, ["plus"] * 2, [0.0, 1e300])):
            with pytest.raises(ValueError, match=r"at times up to 1e\+300 leave the float"):
                propagate()
        assert np.isfinite(product_state_coherence(model, ["plus"] * 2, [0.0, 1e250])
                           .magnitudes).all()

    @pytest.mark.parametrize("kind", KINDS)
    def test_coherence_kernel_matches_evolved_state(self, kind):
        rng = np.random.default_rng(23)
        times = np.concatenate(([0.0], rng.uniform(0.0, 4.0, size=6)))
        for n in range(1, 7):
            model = random_model(rng, n, kind)
            rho0 = random_density(rng, n)
            trace = simulate_coherence(model, rho0, times)
            dense = [single_clock_coherences(
                DensityMatrix(evolve_exact(rho0, model, t).matrix)) for t in times]
            assert np.allclose(trace.magnitudes, dense, rtol=0, atol=1e-14)

    def test_simulate_keeps_propagation_checks(self):
        with pytest.raises(ValueError, match="non-negative"):
            simulate_coherence(ccg2(), ["plus", "zero"], [0.0, -1.0])
        with pytest.raises(ValueError, match="sizes differ"):
            simulate_coherence(ccg2(), ["plus"] * 3, [0.0, 1.0])
        # the closed-form path shares the checks
        with pytest.raises(ValueError, match="non-negative"):
            product_state_coherence(ccg2(), ["plus", "zero"], [0.0, -1.0])
        with pytest.raises(ValueError, match="sizes differ"):
            product_state_coherence(ccg2(), ["plus"] * 3, [0.0, 1.0])

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_times_refused(self, t):
        rho = DensityMatrix.all_plus(2)
        for run in (lambda: evolve_exact(rho, ccg2(), t),
                    lambda: evolve_numeric(rho, ccg2(), t, dt=1e-2),
                    lambda: simulate_coherence(ccg2(), rho, [0.0, t]),
                    lambda: product_state_coherence(ccg2(), ["plus", "zero"], [0.0, t])):
            with pytest.raises(ValueError, match="time must be finite and non-negative"):
                run()

    def test_single_clock_coherence_of_plus(self):
        rho = DensityMatrix.from_qubit_states(["plus", "zero", "one"])
        c = single_clock_coherences(rho)
        assert c == approx([0.5, 0.0, 0.0], rel=0.0, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.sampled_from(KINDS), st.sampled_from((-1.0, 1.0)),
           QUBIT_FORMS, st.integers(0, 2**31 - 1))
    def test_product_state_coherence_matches_dense(self, n, kind, sign, forms, seed):
        rng = np.random.default_rng(seed)
        model = dataclasses.replace(random_model(rng, n, kind), interaction_sign=sign)
        states = [random_qubit(rng, f) for f in forms[:n]]
        times = np.concatenate(([0.0], rng.uniform(0.0, 4.0, size=8)))
        closed = product_state_coherence(model, states, times)
        dense = simulate_coherence(model, DensityMatrix.from_qubit_states(states), times)
        assert np.allclose(closed.magnitudes, dense.magnitudes, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("cells", ["1", "3 N^2", "2^40"])
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.sampled_from(KINDS), st.sampled_from((-1.0, 1.0)),
           st.lists(st.sampled_from(("name", "ket", "matrix")), min_size=12, max_size=12),
           st.lists(st.floats(0.0, 50.0), min_size=1, max_size=10),
           st.integers(0, 2**31 - 1))
    def test_every_row_is_the_single_sample_kernel(self, cells, n, kind, sign, forms,
                                                   times, seed):
        # blocks of one sample, of three (the last one short) and one block
        rng = np.random.default_rng(seed)
        model = dataclasses.replace(random_model(rng, n, kind), interaction_sign=sign)
        states = [random_qubit(rng, f) for f in forms[:n]]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lindblad, "_COHERENCE_BLOCK_CELLS",
                          {"1": 1, "3 N^2": 3 * n * n, "2^40": 2**40}[cells])
            trace = product_state_coherence(model, states, times)
        assert trace.magnitudes.tobytes() == \
            per_sample_coherence(model, states, times).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 3),
           st.sampled_from(("Hermitian", "positive semidefinite")),
           st.floats(0.01, 2.0))
    def test_bad_matrix_entry_rejected_alike_by_both_paths(self, n, where, flaw, x):
        bad = [[0.5, x], [0.0, 0.5]] if flaw == "Hermitian" else [[1.0 + x, 0.0], [0.0, -x]]
        states = ["plus"] * n
        states[where % n] = np.array(bad, dtype=complex)
        model = random_model(np.random.default_rng(n), n, "ccg-global")
        with pytest.raises(ValueError, match=flaw) as closed:
            product_state_coherence(model, states, [0.0, 1.0])
        with pytest.raises(ValueError, match=flaw) as dense:
            simulate_coherence(model, states, [0.0, 1.0])
        assert str(closed.value) == str(dense.value)

    def test_ccg_trace_monotone_from_eigenstate_environment(self):
        trace = simulate_coherence(ccg2(), ["plus", "zero"],
                                   np.linspace(0, 5, 41))
        assert np.all(np.diff(trace.magnitudes[:, 0]) <= 1e-15)

    def test_decay_rate_rejects_unitary_oscillation(self):
        model = dimensionless_model(G2, kind="unitary", rates=None)
        times = np.linspace(0.0, 1.2, 25)  # crosses the cos zero at pi/4
        trace = simulate_coherence(model, ["plus", "plus"], times)
        with pytest.raises(ValueError, match="not .*exponential|zero"):
            coherence_decay_rate(trace, clock=0)

    def test_decay_rate_zero_for_free_clock(self):
        model = dimensionless_model(np.zeros((2, 2)), kind="unitary", rates=None,
                                    omegas=[1.0, 2.0])
        trace = simulate_coherence(model, ["plus", "plus"], np.linspace(0, 2, 15))
        assert float(coherence_decay_rate(trace, clock=0)) == approx(0.0, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("clock", [-1, 2, 5])
    def test_decay_rate_refuses_a_clock_outside_the_trace(self, clock):
        # -1 fitted the last clock, and past the last clock an IndexError escaped
        trace = simulate_coherence(ccg2(), ["plus", "zero"], np.linspace(0, 3, 11))
        with pytest.raises(ValueError, match=f"fit clock {clock} out of range for 2 clocks"):
            coherence_decay_rate(trace, clock=clock)

    @pytest.mark.parametrize("stop", [1e-153, 1e-120, 1e-100, 1e-60, 1e-16])
    def test_decay_rate_refuses_a_slope_of_rounding_noise(self, stop):
        # the log coherence moves by a few ulp: 1e-100 gave 5.26e84 for the rate 2
        trace = simulate_coherence(ccg2(), ["plus", "zero"], np.linspace(0, stop, 11))
        with pytest.raises(ValueError, match="within rounding noise"):
            coherence_decay_rate(trace)

    @pytest.mark.parametrize("stop", [1e-13, 1e-12, 3.0])
    def test_decay_rate_on_short_traces_above_the_noise(self, stop):
        trace = simulate_coherence(ccg2(), ["plus", "zero"], np.linspace(0, stop, 11))
        assert float(coherence_decay_rate(trace)) == approx(2.0, rel=2e-3)

    def test_decay_rate_needs_ten_samples(self):
        trace = simulate_coherence(ccg2(), ["plus", "zero"], np.linspace(0, 1, 5))
        with pytest.raises(ValueError, match="10 samples"):
            coherence_decay_rate(trace)

    def test_trace_magnitude_bounds_enforced(self):
        with pytest.raises(ValueError):
            CoherenceTrace(times=np.array([0.0, 1.0]),
                           magnitudes=np.array([[0.7], [0.1]]))

    def test_times_are_copied(self):
        # a view of the caller's arrays let the caller change a checked trace
        times, magnitudes = np.array([0.0, 1.0]), np.array([[0.5], [0.25]])
        trace = CoherenceTrace(times=times, magnitudes=magnitudes)
        times[0], magnitudes[0, 0] = -5.0, 0.7
        assert trace.times.tolist() == [0.0, 1.0]
        assert trace.magnitudes.tolist() == [[0.5], [0.25]]
        assert times.flags.writeable and magnitudes.flags.writeable

    def test_nan_magnitudes_refused(self):
        with pytest.raises(ValueError, match=r"\[0, 1/2\]"):
            CoherenceTrace(times=np.array([0.0, 1.0]),
                           magnitudes=np.array([[0.5], [math.nan]]))


class TestNegativity:
    def test_product_state_is_separable(self):
        rho = DensityMatrix.from_qubit_states(["plus", "plus-i"])
        assert negativity(rho, [0]) <= 1e-14

    def test_unitary_maximal_at_quarter_period(self):
        # independent oracle: build the 4x4 partial transpose by hand
        model = dimensionless_model(G2, kind="unitary", rates=None)
        rho = evolve_exact(DensityMatrix.all_plus(2), model, math.pi / 4).matrix
        pt = np.empty_like(rho)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    for d in range(2):
                        pt[2 * a + b, 2 * c + d] = rho[2 * a + d, 2 * c + b]
        eigs = np.linalg.eigvalsh(pt)
        by_hand = float(-eigs[eigs < 0].sum())
        assert by_hand == approx(0.5, rel=0.0, abs=1e-12)
        assert negativity(DensityMatrix(rho), [1]) == approx(by_hand, rel=0.0, abs=1e-12)

    def test_ccg_two_clock_grid_stays_separable(self):
        model = ccg2()
        rho0 = DensityMatrix.all_plus(2)
        for t in np.linspace(0.0, 2 * math.pi, 33):
            rho = evolve_exact(rho0, model, float(t))
            assert negativity(rho, [0]) <= 1e-10

    def test_global_needs_correlated_noise_for_three_clocks(self):
        # scalene triangle: with the correlated feedback noise the channel is
        # separability-preserving; with diagonal-only marginals it is not
        g3 = np.array([[0, 1.0, 0.6], [1.0, 0, 0.3], [0.6, 0.3, 0]])
        s = np.sqrt((g3**2).sum(axis=1))
        rates = MeasurementRates("global", global_gamma=s / 2)
        full = dimensionless_model(g3, kind="ccg-global", rates=rates)
        diag = EvolutionModel(kind="ccg-global", omegas=full.omegas,
                              coupling=full.coupling,
                              dephasing=np.diag(full.per_clock_dephasing))
        assert np.any(full.dephasing - np.diag(np.diag(full.dephasing)) != 0)

        rho0 = DensityMatrix.all_plus(3)
        times = np.linspace(0.0, 5.0, 26)
        full_max = max(negativity(evolve_exact(rho0, full, t), [0]) for t in times)
        diag_max = max(negativity(evolve_exact(rho0, diag, t), [0]) for t in times)
        assert full_max <= 1e-10
        assert diag_max > 1e-6

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.sampled_from(("ccg-pairwise", "ccg-global")),
           st.booleans(), QUBIT_FORMS, st.floats(0.0, 5.0), st.integers(0, 2**31 - 1))
    def test_ccg_channels_keep_product_states_separable(self, n, kind, optimal, forms,
                                                        t, seed):
        # optimal rates put the channel at its least dephasing
        rng = np.random.default_rng(seed)
        model = random_model(rng, n, kind, optimal)
        rho0 = DensityMatrix.from_qubit_states([random_qubit(rng, f) for f in forms[:n]])
        rho = evolve_exact(rho0, model, t)
        for size in range(1, n):
            for part in itertools.combinations(range(n), size):
                assert negativity(rho, part) <= 1e-10

    def test_partition_validation(self):
        rho = DensityMatrix.all_plus(2)
        with pytest.raises(ValueError):
            negativity(rho, [])
        with pytest.raises(ValueError):
            negativity(rho, [0, 1])
        with pytest.raises(ValueError):
            negativity(rho, [5])


class TestStructuralProperties:
    def test_interaction_sign_does_not_change_rates_or_negativity(self):
        times = np.linspace(0, 3, 13)
        rho0 = DensityMatrix.all_plus(2)
        mags, negs = [], []
        for sign in (-1.0, 1.0):
            model = EvolutionModel(kind="ccg-pairwise", omegas=np.zeros(2),
                                   coupling=np.array(G2),
                                   dephasing=np.diag([0.5, 0.5]),
                                   interaction_sign=sign)
            mags.append(simulate_coherence(model, rho0, times).magnitudes)
            negs.append([negativity(evolve_exact(rho0, model, t), [0])
                         for t in times])
        assert np.allclose(mags[0], mags[1], atol=1e-14)
        assert np.allclose(negs[0], negs[1], atol=1e-12)

    def test_free_precession_only_adds_phases(self):
        times = np.linspace(0, 3, 13)
        base = dimensionless_model(G2, kind="ccg-pairwise")
        spinning = EvolutionModel(kind="ccg-pairwise", omegas=np.array([3.0, 7.0]),
                                  coupling=base.coupling, dephasing=base.dephasing)
        t0 = simulate_coherence(base, ["plus", "plus"], times)
        t1 = simulate_coherence(spinning, ["plus", "plus"], times)
        assert np.allclose(t0.magnitudes, t1.magnitudes, atol=1e-12)

    def test_first_order_vs_second_order_short_time_loss(self):
        times = np.logspace(-3, -1.5, 12)
        ccg = simulate_coherence(ccg2(), ["plus", "plus"], times)
        uni = simulate_coherence(dimensionless_model(G2, kind="unitary", rates=None),
                                 ["plus", "plus"], times)
        loss_ccg = 1.0 - ccg.magnitudes[:, 0] / 0.5
        loss_uni = 1.0 - uni.magnitudes[:, 0] / 0.5
        slope_ccg = np.polyfit(np.log(times), np.log(loss_ccg), 1)[0]
        slope_uni = np.polyfit(np.log(times), np.log(loss_uni), 1)[0]
        assert slope_ccg == approx(1.0, rel=0.0, abs=0.05)
        assert slope_uni == approx(2.0, rel=0.0, abs=0.05)

    def test_closed_form_coherences_past_the_dense_limit(self):
        # 14 clocks: dense 2^N states are out of reach, the closed-form
        # product-state path is not
        arr = build_lattice(1, 1e-6, [14], 1e15)
        model = build_model(arr).nondimensionalized()
        times = np.linspace(0.0, 2.0, 7)
        trace = product_state_coherence(
            model, ["plus"] + ["zero"] * 13, times)
        assert trace.magnitudes.shape == (7, 14)
        assert np.all(np.isfinite(trace.magnitudes))
        # eigenstate environment and zero dephasing: clock 0 keeps |c| = 1/2
        assert trace.magnitudes[:, 0] == approx([0.5] * 7, rel=0.0, abs=1e-12)
        with pytest.raises(ValueError, match="limited to 12 clocks"):
            evolve_exact(DensityMatrix.all_plus(2), model, 1.0)

    def test_lattice_decay_matches_the_rates_closed_form(self):
        # lindblad against rates on 10^3 clocks: with every other clock in
        # |0> the phase kicks have unit modulus, so the coherence of the
        # clock next to the centre decays at exactly 4 M_cc
        arr = build_lattice(3, 1e-6, [10, 10, 10], 1e15)
        g = pair_rate_matrix(arr)
        report = min_dephasing_pairwise_A(g)
        model = build_model(arr, report.optimal_rates).nondimensionalized()
        c = int(np.argmin(np.linalg.norm(arr.positions, axis=1)))
        want = 4.0 * report.per_clock[c] / g.g.max()
        states = ["zero"] * len(arr)
        states[c] = "plus"
        times = np.linspace(0.0, 2.0 / want, 11)
        trace = product_state_coherence(model, states, times)
        assert float(coherence_decay_rate(trace, clock=c)) == approx(want, rel=1e-9)

    def test_nondimensionalization_records_unit_map(self):
        arr = ClockArray([1e15, 1e15], [[0, 0, 0], [3e-7, 0, 0]])
        from ccgclocks.geometry import pair_rate_matrix
        g = pair_rate_matrix(arr).g[0, 1]
        gam = np.array([[0.0, g / 2], [g / 2, 0.0]])
        model = build_model(arr, MeasurementRates("pairwise", pairwise_gamma=gam))
        scaled = model.nondimensionalized()
        assert scaled.coupling[0, 1] == approx(1.0, rel=1e-12)
        assert scaled.time_unit == approx(1.0 / g, rel=1e-12)
        assert scaled.per_clock_dephasing == approx([0.5, 0.5], rel=1e-12)
