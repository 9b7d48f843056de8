"""How result types hold their arrays: public constructors copy and freeze,
and results the package builds trusted pass those constructors unchanged."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccgclocks.geometry import ClockArray, PairRateMatrix, build_lattice, pair_rate_matrix
from ccgclocks.lindblad import CoherenceTrace, DensityMatrix, EvolutionModel
from ccgclocks.rates import (
    DephasingReport,
    MeasurementRates,
    min_dephasing_global_A,
    min_dephasing_pairwise_A,
)
from ccgclocks.redshift import ExplicitAtoms, RedshiftDephasing

# type -> (the caller's arrays, a constructor taking them, the object's arrays)
CONSTRUCTORS = {
    "ClockArray": (
        lambda: [np.full(2, 1e15), np.array([[0, 0, 0], [1e-6, 0, 0.0]]),
                 np.array([1e-25, 2e-25])],
        lambda w, p, m: ClockArray(w, p, rest_masses=m),
        lambda a: [a.omegas, a.positions, a.rest_masses]),
    "PairRateMatrix": (
        lambda: [np.array([[0.0, 1.0], [1.0, 0.0]])],
        PairRateMatrix,
        lambda g: [g.g]),
    "MeasurementRates-pairwise": (
        lambda: [np.array([[0.0, 1.0], [2.0, 0.0]])],
        lambda gam: MeasurementRates("pairwise", pairwise_gamma=gam),
        lambda r: [r.pairwise_gamma]),
    "MeasurementRates-global": (
        lambda: [np.array([1.0, 2.0])],
        lambda gam: MeasurementRates("global", global_gamma=gam),
        lambda r: [r.global_gamma]),
    "DephasingReport": (
        lambda: [np.array([3.0, 4.0])],
        lambda per_clock: DephasingReport(per_clock, "global", "given-rates"),
        lambda r: [r.per_clock]),
    "EvolutionModel": (
        lambda: [np.zeros(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)],
        lambda w, g, m: EvolutionModel(kind="ccg-global", omegas=w, coupling=g, dephasing=m),
        lambda model: [model.omegas, model.coupling, model.dephasing]),
    "CoherenceTrace": (
        lambda: [np.array([0.0, 1.0]), np.array([[0.5], [0.25]])],
        lambda t, m: CoherenceTrace(times=t, magnitudes=m),
        lambda trace: [trace.times, trace.magnitudes]),
    "DensityMatrix": (
        lambda: [np.diag([0.25, 0.75]).astype(complex)],
        DensityMatrix,
        lambda rho: [rho.matrix]),
    "ExplicitAtoms": (
        lambda: [np.array([[1.0, 0.0, 0.0]])],
        ExplicitAtoms,
        lambda atoms: [atoms.positions]),
    "RedshiftDephasing": (
        lambda: [np.array([2.0])],
        lambda d: RedshiftDephasing(total=1.0, measurement_part=0.5, feedback_part=0.5,
                                    position_diffusion=d),
        lambda out: [out.position_diffusion]),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_constructor_keeps_its_own_copy_and_leaves_the_callers_arrays_writeable(name):
    # PairRateMatrix and pairwise MeasurementRates froze the caller's array
    make, construct, owned = CONSTRUCTORS[name]
    given_arrays = make()
    before = [a.copy() for a in given_arrays]
    kept = owned(construct(*given_arrays))
    for given_array, own, value in zip(given_arrays, kept, before):
        assert given_array.flags.writeable and not own.flags.writeable
        given_array.fill(7.0)
        assert np.array_equal(own, value)


@st.composite
def clouds_and_lattices(draw):
    """Random clouds of 1-40 clocks and lattices of up to 64, at separations
    whose squares under- or overflow (1e-170 m, 1e200 m) and ordinary ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-170, 1e-6, 1.0, 1e200]))
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        counts = draw(st.lists(st.integers(1, 4), min_size=dim, max_size=dim))
        return build_lattice(dim, scale, counts, rng.uniform(1e14, 1e16))
    n = draw(st.integers(1, 40))
    return ClockArray(rng.uniform(1e14, 1e16, size=n), rng.normal(size=(n, 3)) * scale)


@settings(max_examples=150, deadline=None)
@given(clouds_and_lattices())
def test_trusted_builds_pass_their_public_constructors(array):
    g = pair_rate_matrix(array)
    assert np.array_equal(PairRateMatrix(g.g, g.convention).g, g.g)
    for closed_form in (min_dephasing_pairwise_A, min_dephasing_global_A):
        rates = closed_form(g).optimal_rates
        if rates is not None:
            field = f"{rates.mode}_gamma"
            again = MeasurementRates(rates.mode, **{field: getattr(rates, field)})
            assert np.array_equal(getattr(again, field), getattr(rates, field))
