"""Exact and numerical evolution of N-clock states under the clock channel.

Every generator here is diagonal in the computational (sigma_z product) basis:
the Hamiltonian is H = sum_i hbar w_i sz_i - hbar sum_{i<j} g_ij sz_i sz_j and
the dissipator is a quadratic form of sigma_z commutators,

    L_diss(rho) = - sum_{jk} M_jk [sz_j, [sz_k, rho]].

For pairwise feedback the matrix M is diagonal (independent measurement
records per pair). For global feedback the broadcast of one record to every
other clock makes the feedback noise correlated: M picks up rank-one blocks
b_j b_j^T / (8 Gamma_j) with b_j[i] = g_ij. The diagonal of M is the familiar
per-clock dephasing rate in either case, and a single clock's coherence decays
at exactly 4 * M_ii; the off-diagonal entries only matter for multi-clock
coherences. They are what keeps the global channel entanglement-free: with a
diagonal-only dissipator the same per-clock rates can leave a weakly negative
partial transpose for three or more clocks.

Matrix elements evolve in closed form,

    rho_ab(t) = rho_ab(0) * exp(-i (e_a - e_b) t) * exp(-Lambda_ab t),
    Lambda_ab = (z_a - z_b)^T M (z_a - z_b),

which evolve_exact applies directly. For positive semidefinite M, exp(-Lambda t)
is a Gaussian kernel, so by the Schur product theorem the evolved state is PSD
whenever rho(0) is: EvolutionModel certifies M once and evolved states skip the
eigenvalue re-check. evolve_numeric is the independent RK4 oracle; it reads the
generator off the master equation's commutators, not off Lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import Rate
from .geometry import ClockArray, PairRateMatrix, _frozen, _trusted, pair_rate_matrix
from .rates import _CLOSED_FORMS, MeasurementRates, dephasing_given_rates

DENSE_CLOCK_LIMIT = 12       # 2^N density matrices
NUMERIC_CLOCK_LIMIT = 10     # 4^N superoperator diagonal
EXPORT_CLOCK_LIMIT = 4       # density matrices written as JSON
# cells of one (samples, N, N) block of product_state_coherence, whose two
# complex buffers then take 256 KiB each (one sample, N^2 cells, past N = 128);
# larger blocks measured no faster
_COHERENCE_BLOCK_CELLS = 2 ** 14

_NAMED_KETS = {
    "zero": np.array([1.0, 0.0], dtype=complex),
    "one": np.array([0.0, 1.0], dtype=complex),
    "plus": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "minus": np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
    "plus-i": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
}


def _check_dense(n: int) -> None:
    """Refuse an object with 2^n rows before it is allocated."""
    if n > DENSE_CLOCK_LIMIT:
        raise ValueError(f"dense 2^N states are limited to {DENSE_CLOCK_LIMIT} "
                         f"clocks, got {n}")


def qubit_state(state) -> np.ndarray:
    """Normalize a qubit description (name, ket or 2x2 matrix) to a 2x2 dm.

    Every result is a state: a normalized ket gives a Hermitian rank-one
    matrix, and a matrix passes the full `DensityMatrix` check. A ket is
    divided by its largest entry first when its norm would overflow or lose
    digits, so every finite non-zero ket is normalized to full precision."""
    if isinstance(state, str):
        if state not in _NAMED_KETS:
            raise ValueError(f"unknown state name {state!r}; "
                             f"choose from {sorted(_NAMED_KETS)}")
        ket = _NAMED_KETS[state]
        return np.outer(ket, ket.conj())
    arr = np.asarray(state, dtype=complex)
    if arr.shape == (2,):
        with np.errstate(over="ignore", under="ignore"):  # rescaled or raised below
            big = np.max(np.abs(arr))
            if big == 0:
                raise ValueError("qubit ket must be non-zero")
            if not big < np.inf:
                raise ValueError("qubit ket must have a finite norm")
            norm = np.linalg.norm(arr)
            if not np.finfo(float).tiny <= norm * norm < np.inf:
                # the norm overflows or its square is subnormal: divide by the
                # largest entry, real by real as it may be subnormal; ordinary
                # kets skip this and keep their bits
                arr = arr.real / big + 1j * (arr.imag / big)
                norm = np.linalg.norm(arr)
        ket = arr / norm
        return np.outer(ket, ket.conj())
    if arr.shape != (2, 2):
        raise ValueError(f"cannot interpret {state!r} as a qubit state")
    return DensityMatrix(arr).matrix


class DensityMatrix:
    """2^N x 2^N Hermitian, unit-trace, positive-semidefinite state."""

    HERMITICITY_TOL = 1e-12
    TRACE_TOL = 1e-12
    EIGENVALUE_FLOOR = -1e-10

    def __init__(self, matrix):
        m = _frozen(matrix, complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        dim = m.shape[0]
        n = int(round(math.log2(dim)))
        if 2 ** n != dim:
            raise ValueError(f"dimension {dim} is not a power of two")
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix entries must be finite")
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m - m.conj().T)) > self.HERMITICITY_TOL * scale:
            raise ValueError("density matrix is not Hermitian")
        if abs(m.trace() - 1.0) > self.TRACE_TOL:
            raise ValueError(f"trace must be 1, got {m.trace()}")
        if float(np.min(np.linalg.eigvalsh(m))) < self.EIGENVALUE_FLOOR:
            raise ValueError("density matrix is not positive semidefinite")
        self._m = m
        self.n_clocks = n

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    @property
    def dim(self) -> int:
        return self._m.shape[0]

    @classmethod
    def from_qubit_states(cls, states) -> "DensityMatrix":
        """Product state of qubit names, kets or 2x2 matrices.

        Every factor is a state (see `qubit_state`) and a Kronecker product
        of states is a state, so only the product's trace is checked.
        """
        factors = [qubit_state(s) for s in states]
        _check_dense(len(factors))
        rho = np.array([[1.0 + 0j]])
        for f in factors:
            rho = np.kron(rho, f)
        if abs(rho.trace() - 1.0) > cls.TRACE_TOL:
            raise ValueError(f"trace must be 1, got {rho.trace()}")
        return _trusted(cls, _m=rho, n_clocks=len(factors))

    @classmethod
    def all_plus(cls, n_clocks: int) -> "DensityMatrix":
        return cls.from_qubit_states(["plus"] * n_clocks)

    def purity(self) -> float:
        return float(np.real(np.trace(self._m @ self._m)))

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self._m)).copy()

    def to_json_dict(self) -> dict:
        if self.n_clocks > EXPORT_CLOCK_LIMIT:
            raise ValueError(f"JSON export is limited to {EXPORT_CLOCK_LIMIT} clocks")
        return {
            "n_clocks": self.n_clocks,
            "real": self._m.real.tolist(),
            "imag": self._m.imag.tolist(),
        }


def _z_table(n: int) -> np.ndarray:
    """(2^n, n) table of sigma_z eigenvalues; clock 0 is the leading bit."""
    _check_dense(n)
    return 1.0 - 2.0 * ((np.arange(2 ** n)[:, None] >> (n - 1 - np.arange(n))) & 1)


def _coherence_pairs(n: int):
    """(N, 2^(N-1)) indices a with bit i set, and a with bit i cleared."""
    idx = np.arange(2 ** n)
    shifts = n - 1 - np.arange(n)
    upper = np.array([idx[(idx >> s) & 1 == 1] for s in shifts])
    return upper, upper - (1 << shifts)[:, None]


@dataclass(frozen=True)
class EvolutionModel:
    """Hamiltonian plus dephasing data for one evolution kind.

    `dephasing` is the symmetric positive semidefinite matrix M of the module
    docstring; its diagonal holds the per-clock rates. `time_unit` records how
    many seconds one unit of evolution time corresponds to (None = SI).
    """

    kind: str
    omegas: np.ndarray
    coupling: np.ndarray
    dephasing: np.ndarray
    interaction_sign: float = -1.0
    time_unit: float | None = None

    def __post_init__(self):
        if self.kind not in ("unitary", "ccg-pairwise", "ccg-global"):
            raise ValueError(f"unknown evolution kind {self.kind!r}")
        w = _frozen(self.omegas).reshape(-1)
        n = len(w)
        g, m = _frozen(self.coupling), _frozen(self.dephasing)
        if not all(np.all(np.isfinite(a)) for a in (w, g, m)):
            raise ValueError("omegas, coupling and dephasing must be finite")
        if g.shape != (n, n) or not np.array_equal(g, g.T):
            raise ValueError("coupling must be a symmetric N x N matrix")
        if np.any(np.diag(g) != 0):
            raise ValueError("coupling diagonal must be zero")
        if m.shape != (n, n):
            raise ValueError("dephasing matrix must be N x N")
        diag = np.diag(m)
        if np.any(diag < 0):
            raise ValueError("per-clock dephasing rates must be non-negative")
        if not np.array_equal(m, m.T):
            raise ValueError("dephasing matrix must be symmetric")
        # the eigenvalues of a diagonal M (every pairwise model's) are its diagonal
        eigs = diag if np.count_nonzero(m) == np.count_nonzero(diag) \
            else np.linalg.eigvalsh(m)
        if n and np.min(eigs) < -1e-12 * np.max(np.abs(m)):
            raise ValueError("dephasing matrix must be positive semidefinite")
        if self.kind == "unitary" and np.any(m != 0):
            raise ValueError("unitary kind must have zero dephasing")
        if abs(self.interaction_sign) != 1.0:
            raise ValueError("interaction sign must be +1 or -1")
        object.__setattr__(self, "omegas", w)
        object.__setattr__(self, "coupling", g)
        object.__setattr__(self, "dephasing", m)

    @property
    def n_clocks(self) -> int:
        return len(self.omegas)

    @property
    def per_clock_dephasing(self) -> np.ndarray:
        return np.diag(self.dephasing).copy()

    def basis_energies(self) -> np.ndarray:
        """e_a = sum_i w_i z_i(a) + sign * sum_{i<j} g_ij z_i z_j (units of hbar)."""
        z = _z_table(self.n_clocks)
        e = z @ self.omegas
        zg = z @ (self.interaction_sign * self.coupling)
        e += 0.5 * np.einsum("ai,ai->a", zg, z)  # each pair counted once
        return e

    def nondimensionalized(self, reference: float | None = None) -> "EvolutionModel":
        """Rescale so the reference rate (default: max coupling) equals one."""
        if reference is None:
            reference = float(np.max(self.coupling))
        if not reference > 0:
            raise ValueError("reference rate must be positive")
        with np.errstate(over="ignore"):  # an overflow is refused as not finite
            return EvolutionModel(
                kind=self.kind,
                omegas=self.omegas / reference,
                coupling=self.coupling / reference,
                dephasing=self.dephasing / reference,
                interaction_sign=self.interaction_sign,
                time_unit=1.0 / reference,
            )


def _model(g: PairRateMatrix, kind: str, omegas, rates, time_unit) -> EvolutionModel:
    """The one builder behind `build_model` and `dimensionless_model`.

    A ccg kind takes rates of its own channel, "optimal" picking the free
    closed-form minimum. M's diagonal is `dephasing_given_rates`'s per-clock
    dephasing in either channel; off it, the global channel has the correlated
    feedback-noise terms sum_j g_ij g_kj / (8 Gamma_j), added in j order.
    """
    n = len(g)
    m = np.zeros((n, n))
    if kind != "unitary":
        if kind not in ("ccg-pairwise", "ccg-global"):
            raise ValueError(f"unknown evolution kind {kind!r}")
        channel = kind[4:]
        if rates == "optimal":
            rates = _CLOSED_FORMS[(channel, "A-free")](g).optimal_rates
            if rates is None:
                raise ValueError("optimal rates are undefined for this coupling")
        if not isinstance(rates, MeasurementRates) or rates.mode != channel:
            raise ValueError(f"{kind} needs {channel} measurement rates")
        per_clock = dephasing_given_rates(g, rates).per_clock
        if channel == "global":
            with np.errstate(over="ignore"):  # a sum past the range is refused below
                for j, gamma in enumerate(rates.global_gamma):
                    m += np.outer(g.g[:, j], g.g[:, j]) / (8.0 * gamma)
        np.fill_diagonal(m, per_clock)
    return EvolutionModel(kind=kind, omegas=omegas, coupling=g.g, dephasing=m,
                          time_unit=time_unit)


def build_model(array: ClockArray,
                rates: MeasurementRates | None = None) -> EvolutionModel:
    """Build the evolution model for an array, optionally with a channel.

    Without rates the model is purely unitary. With rates the per-clock
    dephasing follows the pairwise/global channel formulas; the global kind
    carries the correlated feedback-noise terms.
    """
    kind = "unitary" if rates is None else f"ccg-{rates.mode}"
    return _model(pair_rate_matrix(array), kind, array.omegas, rates, None)


def dimensionless_model(coupling, kind: str = "ccg-pairwise", omegas=None,
                        rates: MeasurementRates | str | None = "optimal"
                        ) -> EvolutionModel:
    """Model from a dimensionless coupling matrix (reference rate = 1).

    rates="optimal" picks the summed-dephasing minimum for the kind; a
    MeasurementRates instance is used as given; None requires kind="unitary".
    """
    g = PairRateMatrix(coupling)
    return _model(g, kind, np.zeros(len(g)) if omegas is None else omegas, rates, 1.0)


# -- propagation --------------------------------------------------------------

def _generator_tables(model: EvolutionModel):
    """Energies e, sigma_z table z, z @ M and q_a = z_a^T M z_a, so that
    Lambda_ab = q_a + q_b - 2 (z M z^T)_ab."""
    z = _z_table(model.n_clocks)
    zm = z @ model.dephasing
    return model.basis_energies(), z, zm, np.einsum("ai,ai->a", zm, z)


def _check_propagation(n_state: int, model: EvolutionModel, times) -> np.ndarray:
    """The times as an array: finite, >= 0, and keeping every phase |e_a - e_b| t
    <= (2 sum|w| + sum|g|) t and decay Lambda_ab t <= 4 sum|M| t in the float range."""
    t = np.asarray(times, dtype=float)
    if not np.all((t >= 0) & (t < np.inf)):  # NaN fails both
        raise ValueError("time must be finite and non-negative")
    if n_state != model.n_clocks:
        raise ValueError(f"state and model sizes differ ({n_state} and "
                         f"{model.n_clocks} clocks)")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        bound = (2.0 * np.abs(model.omegas).sum() + np.abs(model.coupling).sum()
                 + 4.0 * np.abs(model.dephasing).sum()) * np.max(t, initial=0.0)
    if not bound < np.inf:
        raise ValueError(f"the phases and decays at times up to {float(np.max(t))!r} "
                         "leave the float range")
    return t


def evolve_exact(rho0: DensityMatrix, model: EvolutionModel, t: float) -> DensityMatrix:
    """Closed-form propagation; a state by construction, so not re-validated.
    The kernel is built in the output buffer: no step allocates its own 4^N."""
    e, z, zm, q = _generator_tables(model)  # refuses a model past the dense limit
    _check_propagation(rho0.n_clocks, model, t)
    lam = zm @ z.T
    lam *= 2.0
    np.subtract(np.add.outer(q, q), lam, out=lam)
    out = np.subtract.outer(e, e, out=np.empty(lam.shape, dtype=complex))
    np.multiply(-1j, out, out=out)
    np.subtract(out, lam, out=out)
    np.multiply(out, t, out=out)
    np.exp(out, out=out)
    np.multiply(rho0.matrix, out, out=out)
    return _trusted(DensityMatrix, _m=out, n_clocks=rho0.n_clocks)


@dataclass(frozen=True)
class NumericEvolution:
    """Result of the fixed-step integrator, with its step-halving estimate."""

    rho: DensityMatrix
    convergence_estimate: float
    n_steps: int


def _master_equation(model: EvolutionModel, x: np.ndarray) -> np.ndarray:
    """-i[H, x] - sum_jk M_jk [sz_j, [sz_k, x]], written as commutators."""
    z = _z_table(model.n_clocks)

    def comm(d, y):  # [diag(d), y]
        return d[:, None] * y - y * d[None, :]

    out = -1j * comm(model.basis_energies(), x)
    for j in range(model.n_clocks):
        # sum_k M_jk [sz_k, x] = [sum_k M_jk sz_k, x]
        out -= comm(z[:, j], comm(z @ model.dephasing[j], x))
    return out


def _superoperator_diagonal(model: EvolutionModel) -> np.ndarray:
    """Generator eigenvalue on every |a><b|, read off the master equation."""
    dim = 2 ** model.n_clocks
    gen = _master_equation(model, np.ones((dim, dim), dtype=complex))
    # generic probe: Weyl-sequence phases, without importing numpy.random
    probe = np.exp(2j * np.pi * ((np.arange(dim * dim) * 0.6180339887498949) % 1.0))
    probe = probe.reshape(dim, dim)
    err = np.max(np.abs(_master_equation(model, probe) - gen * probe))
    if err > 1e-12 * max(1.0, float(np.max(np.abs(gen)))):
        raise RuntimeError(f"master equation is not diagonal (residual {err:.2e})")
    return gen


def _rk4_run(gen: np.ndarray, rho0: np.ndarray, t: float, n_steps: int) -> np.ndarray:
    # classical RK4 on a linear autonomous system is the degree-4 Taylor
    # polynomial of exp(dt * L): one scalar per element for a diagonal L
    a = (t / n_steps) * gen
    step = 1.0 + a + a * a / 2.0 + a ** 3 / 6.0 + a ** 4 / 24.0
    return rho0 * step ** n_steps


def evolve_numeric(rho0: DensityMatrix, model: EvolutionModel, t: float,
                   dt: float) -> NumericEvolution:
    """Fixed-step 4th-order integration of the master equation.

    Integrates d(rho)/dt = -i[H, rho] - sum_{jk} M_jk [sz_j, [sz_k, rho]] with
    step size at most dt, and attaches the Frobenius distance to a half-step
    rerun as a convergence estimate.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if model.n_clocks > NUMERIC_CLOCK_LIMIT:
        raise ValueError(
            f"the RK4 oracle is limited to {NUMERIC_CLOCK_LIMIT} "
            "clocks; use evolve_exact for larger systems")
    _check_propagation(rho0.n_clocks, model, t)
    if t == 0.0:
        return NumericEvolution(rho=rho0, convergence_estimate=0.0, n_steps=0)
    n_steps = max(1, int(math.ceil(t / dt)))
    gen = _superoperator_diagonal(model)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        result = _rk4_run(gen, rho0.matrix, t, n_steps)
        halved = _rk4_run(gen, rho0.matrix, t, 2 * n_steps)
        estimate = float(np.linalg.norm(result - halved))
    if not np.all(np.isfinite(result)):
        raise ValueError(f"the result is not finite; the step dt={dt} is too large")
    # a zero generator diagonal and gen[b, a] == conj(gen[a, b]) carry rho0's trace
    # and Hermiticity over: positivity at the public floor is the one check left
    min_eig = float(np.min(np.linalg.eigvalsh(result)))
    if min_eig < DensityMatrix.EIGENVALUE_FLOOR:
        raise ValueError(
            f"positivity violated by {min_eig:.2e}; the step dt={dt} is too large")
    return NumericEvolution(rho=_trusted(DensityMatrix, _m=result, n_clocks=rho0.n_clocks),
                            convergence_estimate=estimate, n_steps=n_steps)


# -- coherences and diagnostics ------------------------------------------------

def single_clock_coherences(rho: DensityMatrix) -> np.ndarray:
    """|<sigma_+^(i)>| for each clock i."""
    upper, lower = _coherence_pairs(rho.n_clocks)
    return np.abs(rho.matrix[upper, lower].sum(axis=1))


@dataclass(frozen=True)
class CoherenceTrace:
    """Per-clock coherence magnitudes on a time grid."""

    times: np.ndarray
    magnitudes: np.ndarray  # shape (T, N)

    def __post_init__(self):
        t, m = _frozen(self.times).reshape(-1), _frozen(self.magnitudes)
        if m.ndim != 2 or m.shape[0] != len(t):
            raise ValueError("magnitudes must have shape (len(times), n_clocks)")
        if not np.all((m >= -1e-12) & (m <= 0.5 + 1e-9)):  # NaN fails too
            raise ValueError("coherence magnitudes must lie in [0, 1/2]")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "magnitudes", m)

    def csv_rows(self) -> list[list]:
        n = self.magnitudes.shape[1]
        rows = [["time"] + [f"coherence_{i}" for i in range(n)]]
        rows += ([repr(t), *map(repr, row)]
                 for t, row in zip(self.times.tolist(), self.magnitudes.tolist()))
        return rows


def simulate_coherence(model: EvolutionModel, initial, times) -> CoherenceTrace:
    """Per-clock coherences of the exactly evolved initial state.

    Each entry rho[a, b] a coherence needs evolves by its own generator
    eigenvalue, so a sample costs O(N 2^N) and rho(t) is never formed.
    """
    rho0 = initial if isinstance(initial, DensityMatrix) \
        else DensityMatrix.from_qubit_states(initial)
    times = _check_propagation(rho0.n_clocks, model, times)
    e, z, zm, q = _generator_tables(model)
    upper, lower = _coherence_pairs(model.n_clocks)
    lam = q[upper] + q[lower] - 2.0 * np.einsum("kai,kai->ka", zm[upper], z[lower])
    rate = -1j * (e[upper] - e[lower]) - lam
    coeff = rho0.matrix[upper, lower]
    mags = np.empty((len(times), model.n_clocks))
    for k, t in enumerate(times):
        mags[k] = np.abs((coeff * np.exp(rate * t)).sum(axis=1))
    return CoherenceTrace(times=times, magnitudes=mags)


def product_state_coherence(model: EvolutionModel, qubit_states, times) -> CoherenceTrace:
    """Closed-form per-clock coherences for a product initial state.

    A single-clock coherence rho[a, a - 2^(N-1-i)] has z_a - z_b = 2 e_i, so
    its decay is exp(-4 M_ii t) for every kind (the correlated global M
    included) and the other clocks enter only through their populations.
    O(N) per clock and time sample, with no 2^N object and no size limit.
    The samples are taken in blocks of _COHERENCE_BLOCK_CELLS // N^2, each one
    broadcast expression whose entries are computed as for a single sample.
    """
    states = [qubit_state(s) for s in qubit_states]
    times = _check_propagation(len(states), model, times)
    n = model.n_clocks
    pops = np.array([np.real(s[0, 0]) for s in states])
    unpops = 1.0 - pops
    cohs = np.abs([s[1, 0] for s in states])
    kick = 2j * model.interaction_sign * model.coupling
    decay = -4.0 * np.diag(model.dephasing)
    diagonal = np.arange(n)
    block = max(1, _COHERENCE_BLOCK_CELLS // max(1, n * n))
    # two buffers, reused by every block
    phases = np.empty((min(block, len(times)), n, n), dtype=complex)
    envs = np.empty_like(phases)
    mags = np.empty((len(times), n))
    for start in range(0, len(times), block):
        t = times[start:start + block]
        phase, env = phases[:len(t)], envs[:len(t)]
        np.exp(np.multiply(kick, t[:, None, None], out=phase), out=phase)
        # env[k, i, j]: clock j's population-weighted phase kick on clock i at
        # t[k], p_j phase + (1 - p_j) / phase (an IEEE sum is commutative)
        np.divide(unpops, phase, out=env)
        env += np.multiply(pops, phase, out=phase)
        env[:, diagonal, diagonal] = 1.0
        mags[start:start + block] = cohs * np.exp(decay * t[:, None]) \
            * np.abs(env.prod(axis=2))
    return CoherenceTrace(times=times, magnitudes=mags)


def coherence_decay_rate(trace: CoherenceTrace, clock: int = 0,
                         residual_threshold: float = 1e-3) -> Rate:
    """Exponential decay rate of one clock's coherence (minus the log-slope).

    Raises if the trace is not exponential to within the threshold (relative
    RMS residual of the straight-line fit in log space), e.g. for the
    oscillatory coherence of purely unitary evolution, and if a nonzero fitted
    log change over the trace is within a few ulp of the logs: on a trace that
    short the slope is rounding noise.
    """
    n = trace.magnitudes.shape[1]
    if not 0 <= clock < n:
        raise ValueError(f"fit clock {clock} out of range for {n} clocks")
    if len(trace.times) < 10:
        raise ValueError("need at least 10 samples to fit a decay rate")
    y = trace.magnitudes[:, clock]
    if not y[0] > 0:
        raise ValueError("initial coherence must be positive")
    if np.any(y <= 0):
        raise ValueError("coherence reaches zero: not an exponential decay")
    logy = np.log(y)
    times = trace.times.tolist()
    if not (last := times[-1]) * last >= np.finfo(float).tiny:  # polyfit squares t
        raise ValueError(f"sample time {last!r} squared is below the smallest normal "
                         "float: too short to fit")
    if sum(t * t for t in times) == math.inf:  # and sums the squares, in this order
        raise ValueError(f"sample times up to {last!r} have squares summing past the "
                         "float range: too long to fit")
    (slope, intercept), _, rank, _, _ = np.polyfit(trace.times, logy, 1, full=True)
    if rank < 2:  # np.polyfit's own test, which it would otherwise warn about
        raise ValueError(f"sample times from {times[0]!r} to {last!r} are too close "
                         "together to fit a slope")
    resid = float(np.sqrt(np.mean((logy - (slope * trace.times + intercept)) ** 2)))
    if resid > residual_threshold:
        raise ValueError(
            f"trace is not exponential (log-residual {resid:.3e} exceeds "
            f"{residual_threshold:.1e})")
    rate = -float(slope)
    change = abs(rate * (times[-1] - times[0]))  # the fitted log change over the trace
    if abs(rate) > 1e-12 and change <= (noise := 8 * np.spacing(np.max(np.abs(logy)))):
        raise ValueError(f"the fitted log change {change:.1e} is within rounding noise "
                         f"({noise:.1e}) of the logs: too short to fit")
    if rate < 0:
        if rate > -1e-12:
            rate = 0.0
        else:
            raise ValueError("coherence grows; not a decay")
    return Rate(rate)


def negativity(rho: DensityMatrix, partition) -> float:
    """Entanglement negativity across a bipartition (sum |negative eigenvalues|
    of the partial transpose over the given clocks)."""
    n = rho.n_clocks
    part = sorted(set(int(i) for i in partition))
    if any(i < 0 or i >= n for i in part):
        raise ValueError(f"partition indices must lie in [0, {n})")
    if not 0 < len(part) < n:
        raise ValueError("partition must be a non-empty proper subset of the clocks")
    tensor = rho.matrix.reshape((2,) * (2 * n))
    perm = list(range(2 * n))
    for q in part:
        perm[q], perm[n + q] = perm[n + q], perm[q]
    pt = np.transpose(tensor, perm).reshape(2 ** n, 2 ** n)
    eigs = np.linalg.eigvalsh(pt)
    return float(-eigs[eigs < 0].sum()) + 0.0
