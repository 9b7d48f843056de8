"""Seeded operation lists for the three workloads.

An operation is one call into the package: a scenario run through
ccgclocks.cli.main on a config file written during set-up, or one of the few
library-only calls. Each operation returns its artifacts as bytes, which the
checks read back and which every later round must reproduce byte for byte.
The seed changes positions, couplings, states, rates and scales; the sizes
and the number of operations of each type are fixed, so every seed does the
same amount of work of each kind.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

WORKLOADS = ("arrays", "dynamics", "sweeps")


@dataclass
class Op:
    name: str
    call: Callable[[], object]              # the timed part
    collect: Callable[[object], dict]       # artifacts as {name: bytes}
    check: Callable[[dict], None]           # raises checks.CheckError
    failure: Callable[[object], str | None] = lambda result: None
    prepare: Callable[[], None] = lambda: None  # untimed, before each call


@dataclass
class Workload:
    ops: list = field(default_factory=list)
    # checks over several operations' artifacts, keyed by operation name
    group_checks: list = field(default_factory=list)


def _dump(value) -> bytes:
    return (json.dumps(value, sort_keys=True, allow_nan=False) + "\n").encode()


def _complex_rows(matrix) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _from_complex_rows(rows) -> list:
    return [[complex(a, b) for a, b in row] for row in rows]


class Builder:
    """Writes configs into the work directory and wraps them as operations."""

    def __init__(self, pkg, workdir: Path):
        self.pkg = pkg
        self.workdir = workdir
        self.workload = Workload()
        self.grid_sums = {}  # exact grid sums the sweep checks share

    def cli(self, name: str, subcommand: str, config: dict,
            check: Callable[[dict, dict], None]) -> None:
        cfg_path = self.workdir / f"{name}.json"
        out_dir = self.workdir / name
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        out_dir.mkdir(parents=True, exist_ok=True)
        argv = [subcommand, "--config", str(cfg_path), "--out", str(out_dir)]
        cli = self.pkg.cli

        def prepare():
            for stale in out_dir.iterdir():
                stale.unlink()

        def call():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            return code, sink.getvalue()

        def collect(result):
            return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

        def failure(result):
            code, text = result
            return None if code == 0 else f"exit {code}: {text.strip()}"

        self.workload.ops.append(Op(name, call, collect,
                                    lambda art: check(config, art), failure,
                                    prepare))

    def lib(self, name: str, call: Callable[[], object],
            encode: Callable[[object], object],
            check: Callable[[dict], None]) -> None:
        self.workload.ops.append(Op(
            name, call, lambda result: {"result.json": _dump(encode(result))},
            lambda art: check(checks.strict_json(art["result.json"]))))


# -- inputs ----------------------------------------------------------------------

def cloud(rng: random.Random, n: int, spacing: float, min_sep: float,
          freq=lambda rng: 1e15) -> list:
    """n clocks uniform in a cube of side spacing * n^(1/3), at least min_sep
    apart, each with its own quoted frequency."""
    side = spacing * n ** (1.0 / 3.0)
    points = []
    while len(points) < n:
        p = [rng.uniform(0.0, side) for _ in range(3)]
        if all(math.dist(p, q) >= min_sep for q in points):
            points.append(p)
    return [{"quoted_frequency": freq(rng), "position": p} for p in points]


def lattice(dim: int, counts, spacing: float, freq: float) -> dict:
    return {"lattice": {"dimension": dim, "lattice_constant": spacing,
                        "counts": list(counts), "quoted_frequency": freq}}


def unit_couplings(rng: random.Random, n: int) -> list:
    """Symmetric 1/d couplings of random points, scaled so the largest is 1."""
    pts = [p["position"] for p in cloud(rng, n, 1.0, 0.3)]
    g = [[0.0 if i == j else 1.0 / math.dist(pts[i], pts[j]) for j in range(n)]
         for i in range(n)]
    top = max(max(row) for row in g)
    return [[x / top for x in row] for row in g]


def random_ket(rng: random.Random) -> list:
    return [[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(2)]


# -- arrays ----------------------------------------------------------------------

def build_arrays(b: Builder, rng: random.Random) -> None:
    spacing = 1e-6
    freq = lambda r: r.uniform(0.5e15, 2e15)

    def rates(name, geometry, mode, case, gamma=None, convention=None):
        params = {"geometry": geometry, "mode": mode, "case": case}
        if gamma is not None:
            params["gamma"] = gamma
        config = {"kind": "rates", "parameters": params}
        if convention:
            config["convention"] = convention
        b.cli(name, "rates", config, checks.check_rates)

    def cloud_geo(n):
        return {"clocks": cloud(rng, n, spacing, 0.45 * spacing, freq)}

    def pair_gamma(n):
        return {"pairwise": [[0.0 if i == j else rng.uniform(0.2, 5.0) * 1e-33
                              for j in range(n)] for i in range(n)]}

    def gl_gamma(n):
        return {"global": [rng.uniform(0.2, 5.0) * 1e-32 for _ in range(n)]}

    f0 = rng.uniform(0.5e15, 2e15)
    # 23 small operations, a few ms of work beyond the CLI's own cost; with
    # 35 operations a round the median falls among them and the 90th
    # percentile among the six large ones
    for mode, case, n in (("pairwise", "A-free", 3), ("global", "A-free", 5),
                          ("pairwise", "B-fixed", 6), ("global", "B-fixed", 8),
                          ("pairwise", "A-free", 10), ("global", "A-free", 12),
                          ("pairwise", "B-fixed", 16), ("global", "B-fixed", 20)):
        rates(f"rates_{mode}_{case}_{n}", cloud_geo(n), mode, case)
    for n in (7, 12):
        rates(f"rates_given_pairwise_{n}", cloud_geo(n), "pairwise", "given-rates",
              pair_gamma(n))
    for n in (9, 14):
        rates(f"rates_given_global_{n}", cloud_geo(n), "global", "given-rates",
              gl_gamma(n))
    rates("rates_pwA_1d16", lattice(1, [16], spacing, f0), "pairwise", "A-free",
          convention="both")
    for mode, case, dim, counts in (
            ("global", "A-free", 2, [4, 4]), ("pairwise", "B-fixed", 3, [3, 3, 3]),
            ("global", "B-fixed", 2, [6, 6]), ("pairwise", "A-free", 2, [3, 5]),
            ("global", "B-fixed", 1, [20]), ("pairwise", "B-fixed", 2, [4, 4])):
        rates(f"rates_{mode}_{case}_{dim}d{'x'.join(map(str, counts))}",
              lattice(dim, counts, spacing, f0), mode, case)
    base = cloud_geo(24)
    perm = list(range(24))
    rng.shuffle(perm)
    rates("rates_pwA_24", base, "pairwise", "A-free")
    rates("rates_pwA_24_perm", {"clocks": [base["clocks"][k] for k in perm]},
          "pairwise", "A-free")
    b.workload.group_checks.append(lambda arts: checks.check_permuted(
        arts["rates_pwA_24"], arts["rates_pwA_24_perm"], perm))
    # the optimizer on lattices: a uniform rescaling leaves its iterations
    # unchanged, so their cost does not depend on the seed
    for mode, dim, counts in (("fixed-scalar-global", 1, [2]),
                              ("fixed-scalar", 2, [3, 4]),
                              ("global", 3, [2, 2, 3]),
                              ("pairwise", 2, [2, 4])):
        a = spacing * rng.uniform(0.5, 2.0)
        b.cli(f"optimize_{mode}_{dim}d", "optimize",
              {"kind": "optimize",
               "parameters": {"geometry": lattice(dim, counts, a, f0), "mode": mode}},
              checks.check_optimize)
    # the optimizer on small random clouds, as in the closed-form equivalence
    # criterion; kept small because their iteration count depends on the seed
    for mode, n in (("pairwise", 3), ("global", 7)):
        geo = {"clocks": cloud(rng, n, spacing / n ** (1.0 / 3.0), 0.08 * spacing)}
        b.cli(f"optimize_{mode}_{n}", "optimize",
              {"kind": "optimize", "parameters": {"geometry": geo, "mode": mode}},
              checks.check_optimize)
    # medium and large arrays: the O(N^2) geometry and rates kernels
    rates("rates_glA_2d18", lattice(2, [18, 18], spacing, f0), "global", "A-free")
    rates("rates_glB_400", cloud_geo(400), "global", "B-fixed")
    rates("rates_pwA_320", cloud_geo(320), "pairwise", "A-free")
    rates("rates_pwB_3d7", lattice(3, [7, 7, 7], spacing, f0), "pairwise", "B-fixed")
    rates("rates_pwA_1d330", lattice(1, [330], spacing, f0), "pairwise", "A-free")
    rates("rates_given_pw_200", cloud_geo(200), "pairwise", "given-rates",
          pair_gamma(200))
    rates("rates_pwB_2d18", lattice(2, [18, 18], spacing, f0), "pairwise", "B-fixed")
    rates("rates_pwA_2d19x17", lattice(2, [19, 17], spacing, f0), "pairwise", "A-free")


# -- dynamics --------------------------------------------------------------------

NAMED = ("zero", "one", "plus", "minus", "plus-i")


def build_dynamics(b: Builder, rng: random.Random) -> None:
    import numpy as np  # only the workload process imports numpy

    lind = b.pkg.lindblad

    def simulate(name, n, kind, states, *, gamma="optimal", fit=False,
                 export=False, omegas=False, coupling=None):
        params = {"kind": kind, "initial_state": states,
                  "coupling_matrix": coupling or unit_couplings(rng, n),
                  "times": {"stop": rng.uniform(1.0, 3.0), "num": 31},
                  "fit_decay": fit, "export_density_matrix": export}
        if omegas:
            params["omegas"] = [rng.uniform(0.0, 1.0) for _ in range(n)]
        if kind != "unitary" and gamma != "optimal":
            params["gamma"] = gamma
        check = checks.check_simulate
        if coupling is not None:
            check = checks.check_two_clock_rate
        b.cli(name, "simulate", {"kind": "simulate", "parameters": params}, check)

    def named(n):
        return [rng.choice(NAMED) for _ in range(n)]

    def kets(n):
        return [random_ket(rng) for _ in range(n)]

    def basis_env(n):
        # clock 0 in superposition, the rest in basis states: an exact
        # exponential decay at 4 D_0, so the decay fit is checked as well
        return ["plus"] + [rng.choice(("zero", "one")) for _ in range(n - 1)]

    simulate("sim_pw_2_rate", 2, "ccg-pairwise", ["plus", "zero"], fit=True,
             export=True, coupling=[[0.0, 1.0], [1.0, 0.0]])
    simulate("sim_gl_2", 2, "ccg-global", kets(2), export=True)
    simulate("sim_un_2", 2, "unitary", ["plus", "plus"], export=True)
    for n in range(3, 9):
        alt = n % 2 == 0
        simulate(f"sim_pw_{n}", n, "ccg-pairwise", kets(n) if alt else named(n),
                 export=n <= 4, omegas=alt,
                 gamma={"pairwise": [[0.0 if i == j else rng.uniform(0.3, 1.5)
                                      for j in range(n)] for i in range(n)]}
                 if n in (3, 6) else "optimal")
        simulate(f"sim_gl_{n}", n, "ccg-global", basis_env(n), fit=True,
                 export=n <= 4,
                 gamma={"global": [rng.uniform(0.3, 1.5) for _ in range(n)]}
                 if n in (4, 7) else "optimal")
        simulate(f"sim_un_{n}", n, "unitary", named(n) if alt else kets(n),
                 export=n <= 4, omegas=not alt)

    def oracle(name, n, kind):
        g = unit_couplings(rng, n)
        if kind == "ccg-pairwise":
            gam = [[0.0 if i == j else rng.uniform(0.3, 1.5) for j in range(n)]
                   for i in range(n)]
            rates = (lambda: b.pkg.rates.MeasurementRates(
                "pairwise", pairwise_gamma=np.array(gam)))
        else:
            gam = [rng.uniform(0.3, 1.5) for _ in range(n)]
            rates = (lambda: b.pkg.rates.MeasurementRates(
                "global", global_gamma=np.array(gam)))
        omegas = [rng.uniform(0.0, 1.0) for _ in range(n)]
        a = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2 ** n)]
                      for _ in range(2 ** n)])
        m = a @ a.conj().T
        rho = m / np.trace(m)
        t = rng.uniform(2.0, 3.0)

        def call():
            model = lind.dimensionless_model(g, kind=kind, rates=rates(),
                                             omegas=omegas)
            rho0 = lind.DensityMatrix(rho)
            return (lind.evolve_exact(rho0, model, t),
                    lind.evolve_numeric(rho0, model, t, dt=2.5e-4))

        b.lib(name, call,
              lambda r: {"exact": _complex_rows(r[0].matrix),
                         "numeric": _complex_rows(r[1].rho.matrix)},
              lambda d: checks.check_oracle(_from_complex_rows(d["exact"]),
                                            _from_complex_rows(d["numeric"])))

    def entanglement(name, n, kind):
        g = unit_couplings(rng, n)
        states = kets(n)
        t = rng.uniform(0.5, 8.0)
        parts = [[i] for i in range(n)] + ([[0, 1]] if n >= 3 else [])

        def call():
            model = lind.dimensionless_model(g, kind=kind)
            rho0 = lind.DensityMatrix.from_qubit_states(
                [np.array([complex(*z) for z in s]) for s in states])
            rho = lind.evolve_exact(rho0, model, t)
            return [lind.negativity(rho, p) for p in parts]

        b.lib(name, call, lambda r: {"negativity": r},
              lambda d: checks.check_negativities(d["negativity"], kind, None))

    def bell(name):
        def call():
            model = lind.dimensionless_model([[0.0, 1.0], [1.0, 0.0]],
                                             kind="unitary", rates=None)
            rho = lind.evolve_exact(lind.DensityMatrix.all_plus(2), model,
                                    math.pi / 4)
            return lind.negativity(rho, [0])

        b.lib(name, call, lambda r: {"negativity": r},
              lambda d: checks.check_negativities([d["negativity"]], "unitary",
                                                  d["negativity"]))

    oracle("oracle_pw_3", 3, "ccg-pairwise")
    oracle("oracle_gl_4", 4, "ccg-global")
    entanglement("negativity_gl_3", 3, "ccg-global")
    bell("negativity_unitary_bell")


# -- sweeps ----------------------------------------------------------------------

def shell_atoms(inner: float, outer: float, spacing: float) -> list:
    """Cell-centred cubic grid points of spacing h inside the shell."""
    n = int(math.ceil(outer / spacing)) + 1
    ax = [(k + 0.5) * spacing for k in range(-n, n + 1)]
    lo, hi = inner * inner, outer * outer
    return [[x, y, z] for x in ax for y in ax for z in ax
            if lo <= x * x + y * y + z * z <= hi]


# shell crystals: inner radius over spacing, coarse to fine (637 to ~10^4 atoms)
CRYSTAL_REFINEMENTS = (4, 5, 6, 7, 8, 10)
CRYSTAL_FIRST_ORDER = 0.5
SHELL_RATIO = 1.5


def build_sweeps(b: Builder, rng: random.Random) -> None:
    spacing = rng.uniform(0.5, 2.0) * 1e-6
    freq = rng.uniform(0.5e15, 2e15)
    for (mode, case, dim) in checks.SCALING_TABLE:
        config = {"kind": "scaling-sweep",
                  "parameters": {"dimension": dim, "mode": mode, "case": case,
                                 "lattice_constant": spacing,
                                 "quoted_frequency": freq}}
        if (mode, case, dim) == ("global", "A-free", 3):
            config["convention"] = "both"
        b.cli(f"scaling_{mode}_{case}_{dim}d", "scaling", config,
              lambda cfg, art: checks.check_scaling(cfg, art, b.grid_sums))

    geo = b.pkg.geometry
    cont = b.pkg.continuum
    for dim, side, alpha in ((1, 1001, 1.0), (1, 4001, 2.0), (2, 31, 2.0),
                             (3, 11, 1.0)):
        a = rng.uniform(0.5, 2.0) * 1e-6

        def call(dim=dim, side=side, alpha=alpha, a=a):
            arr = geo.build_lattice(dim, a, [side] * dim, freq)
            return cont.compare_sum_vs_integral(arr, alpha)

        b.lib(f"compare_{dim}d_{side}", call, lambda r: {"ratio": r},
              lambda d, dim=dim, side=side, alpha=alpha, a=a:
              checks.check_lattice_ratio(dim, side, a, alpha, d["ratio"]))

    def redshift(name, body):
        config = {"kind": "redshift",
                  "parameters": {"body": body, "quoted_frequency": freq,
                                 "gamma_clock": rng.uniform(1e-5, 1e-3)}}
        b.cli(name, "redshift", config, checks.check_redshift)

    for k in range(2):
        inner = rng.uniform(0.01, 0.5)
        redshift(f"redshift_shell_{k}", {"kind": "shell", "inner_radius": inner,
                                         "outer_radius": inner * rng.uniform(1.5, 100)})
        redshift(f"redshift_simple_{k}", {
            "kind": "simple", "mass": rng.uniform(1.0, 1e3),
            "distance": rng.uniform(0.1, 10.0), "gamma_position": rng.uniform(1.0, 1e3)})

    inner = rng.uniform(0.5, 2.0)
    outer = SHELL_RATIO * inner
    atom_mass = rng.uniform(1e-26, 1e-24)
    crystals = {}
    for k in CRYSTAL_REFINEMENTS:
        h = inner / k
        body = {"kind": "crystal", "atom_mass": atom_mass, "lattice_constant": h,
                "positions": shell_atoms(inner, outer, h),
                "clock_position": [0.0, 0.0, 0.0]}
        redshift(f"redshift_crystal_{k}", body)
        crystals[f"redshift_crystal_{k}"] = k

    def convergence(arts):
        ref = checks.shell_feedback(freq, inner, outer)
        results = [(1.0 / k, checks.strict_json(arts[name]["redshift.json"])
                    ["dephasing"]["feedback_part_hz"], ref)
                   for name, k in crystals.items()]
        checks.check_shell_convergence(results, CRYSTAL_FIRST_ORDER)

    b.workload.group_checks.append(convergence)

    for k in range(2):
        b.cli(f"paper_report_{k}", "paper-report", {"kind": "paper-report"},
              lambda cfg, art: checks.check_paper_report(art))


def build(name: str, seed: int, pkg, workdir: Path) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    b = Builder(pkg, workdir)
    {"arrays": build_arrays, "dynamics": build_dynamics,
     "sweeps": build_sweeps}[name](b, rng)
    return b.workload
