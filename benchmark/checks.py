"""Output checks computed apart from the package.

Every expected value here is derived from the generated inputs with the
model's formulas written out again (pair rates G hbar w_i w_j / (d c^4), the
closed-form minima, the product-state coherence, the shell integral, the
headline grading rule) and summed with math.fsum. Nothing is a stored copy of
an earlier run's output. A failed check raises CheckError.
"""

from __future__ import annotations

import cmath
import csv
import io
import itertools
import json
import math

# CODATA 2018, kept here so the checks do not read the package's constants.
G = 6.67430e-11
HBAR = 1.054571817e-34
C = 299792458.0

RATE_RTOL = 1e-12
OPT_OBJECTIVE_RTOL = 1e-10
OPT_RATE_RTOL = 1e-6
COHERENCE_ATOL = 1e-12
ORACLE_FROBENIUS = 1e-8
NEGATIVITY_ZERO = 1e-10
NEGATIVITY_BELL_ATOL = 1e-9

# (mode, case, dimension) -> (scaling law, stated power exponent or None);
# the nine-entry table of center-clock minimum rates versus N.
SCALING_TABLE = {
    ("pairwise", "A-free", 1): ("log-law", None),
    ("pairwise", "A-free", 2): ("power-law", 0.5),
    ("pairwise", "A-free", 3): ("power-law", 2.0 / 3.0),
    ("global", "A-free", 1): ("saturating", None),
    ("global", "A-free", 2): ("sqrt-log-law", None),
    ("global", "A-free", 3): ("power-law", 1.0 / 6.0),
    ("pairwise", "B-fixed", 1): ("power-law", 0.5),
    ("pairwise", "B-fixed", 2): ("sqrt-n-log-law", None),
    ("pairwise", "B-fixed", 3): ("power-law", 2.0 / 3.0),
}
EXPONENT_ATOL = 0.05

SOLID_ANGLE = {1: 1.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}
CONVENTION_FACTOR = {"direct": 1.0, "times-two-pi": 2.0 * math.pi}


class CheckError(AssertionError):
    """An artifact disagrees with the independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def close(got: float, want: float, rtol: float, what: str) -> None:
    scale = max(abs(want), abs(got))
    require(abs(got - want) <= rtol * scale,
            f"{what}: got {got!r}, expected {want!r} (rtol {rtol:g})")


# -- artifact parsing ----------------------------------------------------------

def _reject_constant(name):
    raise CheckError(f"non-standard JSON constant {name}")


def strict_json(data: bytes):
    """Parse JSON the way allow_nan=False writes it: no NaN or Infinity."""
    return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)


def csv_rows(data: bytes) -> list[list[str]]:
    text = data.decode("utf-8")
    require(all(line.endswith("\r") for line in text.split("\n")[:-1]),
            "CSV rows must end with CRLF")
    return list(csv.reader(io.StringIO(text, newline="")))


def conventions(config: dict) -> list[tuple[str, float]]:
    """(artifact stem suffix, omega factor) for each convention a config asks."""
    conv = config.get("convention", "direct")
    if conv == "both":
        return [("_direct", 1.0), ("_2pi", 2.0 * math.pi)]
    return [("", CONVENTION_FACTOR[conv])]


# -- geometry ------------------------------------------------------------------

def clock_positions(geometry: dict) -> tuple[list[float], list[tuple]]:
    """Quoted frequencies and positions of a geometry block, lattices expanded
    in C order around the origin."""
    if "clocks" in geometry:
        clocks = geometry["clocks"]
        return ([float(c["quoted_frequency"]) for c in clocks],
                [tuple(float(x) for x in c["position"]) for c in clocks])
    lat = geometry["lattice"]
    a = float(lat["lattice_constant"])
    counts = lat["counts"]
    positions = []
    for idx in itertools.product(*(range(n) for n in counts)):
        pos = [(k - (n - 1) / 2.0) * a for k, n in zip(idx, counts)]
        positions.append(tuple(pos + [0.0] * (3 - len(pos))))
    return [float(lat["quoted_frequency"])] * len(positions), positions


def pair_rates(freqs, positions, factor: float) -> list[list[float]]:
    """g_ij = G hbar w_i w_j / (d_ij c^4), zero diagonal."""
    k = G * HBAR / C ** 4
    w = [f * factor for f in freqs]
    n = len(w)
    g = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = math.dist(positions[i], positions[j])
            require(d > 0, f"clocks {i} and {j} coincide in the generated input")
            g[i][j] = g[j][i] = k * w[i] * w[j] / d
    return g


def closed_form_minima(g, mode: str, case: str) -> list[float]:
    n = len(g)
    if (mode, case) == ("pairwise", "A-free"):
        return [0.5 * math.fsum(row) for row in g]
    s2 = [math.fsum(x * x for x in row) for row in g]
    if (mode, case) == ("pairwise", "B-fixed"):
        return [math.sqrt(n - 1) / 2.0 * math.sqrt(s) for s in s2]
    return [0.5 * math.sqrt(s) for s in s2]


def given_rate_dephasing(g, mode: str, gamma) -> list[float]:
    n = len(g)
    if mode == "pairwise":
        return [math.fsum(gamma[i][j] / 2.0 + g[i][j] ** 2 / (8.0 * gamma[j][i])
                          for j in range(n) if j != i) for i in range(n)]
    return [gamma[i] / 2.0 + math.fsum(g[i][j] ** 2 / (8.0 * gamma[j])
                                       for j in range(n) if j != i)
            for i in range(n)]


def _check_report_rows(rows: list[list[str]], per_clock: list[float]) -> None:
    require(rows[0][:2] == ["clock_index", "rate_hz"], "rates CSV header")
    require(len(rows) == len(per_clock) + 1, "rates CSV row count")
    for k, row in enumerate(rows[1:]):
        require(int(row[0]) == k and float(row[1]) == per_clock[k],
                f"rates CSV row {k} disagrees with the JSON report")


# -- arrays workload -------------------------------------------------------------

def check_rates(config: dict, artifacts: dict) -> None:
    params = config["parameters"]
    freqs, positions = clock_positions(params["geometry"])
    mode, case = params["mode"], params["case"]
    for suffix, factor in conventions(config):
        report = strict_json(artifacts[f"rates{suffix}.json"])["report"]
        require(report["mode"] == mode and report["case"] == case,
                "report mode/case differ from the config")
        g = pair_rates(freqs, positions, factor)
        if case == "given-rates":
            gamma = params["gamma"][mode]
            want = given_rate_dephasing(g, mode, gamma)
        else:
            want = closed_form_minima(g, mode, case)
        got = report["per_clock_hz"]
        require(len(got) == len(want), "per-clock rate count")
        for i, (x, y) in enumerate(zip(got, want)):
            close(x, y, RATE_RTOL, f"clock {i} rate ({mode}, {case})")
        if case == "A-free":
            rates = report["optimal_rates"]
            if mode == "pairwise":
                for i, row in enumerate(rates["pairwise_gamma"]):
                    for j, x in enumerate(row):
                        close(x, g[i][j] / 2.0, RATE_RTOL, f"optimal gamma[{i}][{j}]")
            else:
                for i, x in enumerate(rates["global_gamma"]):
                    close(x, 0.5 * math.sqrt(math.fsum(v * v for v in g[i])),
                          RATE_RTOL, f"optimal gamma[{i}]")
        _check_report_rows(csv_rows(artifacts[f"rates{suffix}.csv"]), got)


def optimum(g, mode: str) -> tuple[float, object]:
    """Closed-form minimum of the summed dephasing and the arg-min rates."""
    n = len(g)
    if mode == "pairwise":
        return (0.5 * math.fsum(itertools.chain.from_iterable(g)),
                [[x / 2.0 for x in row] for row in g])
    row_sq = [math.fsum(x * x for x in row) for row in g]
    total_sq = math.fsum(row_sq)
    if mode == "global":
        gamma = [0.5 * math.sqrt(s) for s in row_sq]
        return math.fsum(gamma), gamma
    if mode == "fixed-scalar":
        star = math.sqrt(total_sq / (4.0 * n * (n - 1)))
        return (0.5 * math.sqrt(n * (n - 1) * total_sq),
                [[0.0 if i == j else star for j in range(n)] for i in range(n)])
    star = math.sqrt(total_sq / (4.0 * n))
    return 0.5 * math.sqrt(n * total_sq), [star] * n


def check_optimize(config: dict, artifacts: dict) -> None:
    params = config["parameters"]
    freqs, positions = clock_positions(params["geometry"])
    mode = params["mode"]
    for suffix, factor in conventions(config):
        doc = strict_json(artifacts[f"optimize{suffix}.json"])
        g = pair_rates(freqs, positions, factor)
        best, want_rates = optimum(g, mode)
        objective = doc["objective"]
        # >= up to the rounding of the two sums
        require(objective >= best * (1.0 - 4e-16 * len(g) ** 2),
                f"optimizer objective {objective!r} lies below the minimum {best!r}")
        close(objective, best, OPT_OBJECTIVE_RTOL, f"{mode} optimizer objective")
        rates = doc["optimal_rates"]
        if isinstance(want_rates[0], list):
            got_rates = rates["pairwise_gamma"]
            for i, row in enumerate(want_rates):
                for j, x in enumerate(row):
                    if i != j:
                        close(got_rates[i][j], x, OPT_RATE_RTOL,
                              f"{mode} optimizer gamma[{i}][{j}]")
            channel = "pairwise"
        else:
            got_rates = rates["global_gamma"]
            for i, x in enumerate(want_rates):
                close(got_rates[i], x, OPT_RATE_RTOL, f"{mode} optimizer gamma[{i}]")
            channel = "global"
        achieved = doc["achieved"]["per_clock_hz"]
        for i, (x, y) in enumerate(zip(achieved, given_rate_dephasing(
                g, channel, got_rates))):
            close(x, y, RATE_RTOL, f"achieved rate of clock {i}")
        close(objective, math.fsum(achieved), 1e-15, "objective vs achieved sum")


def check_permuted(original: dict, permuted: dict, perm: list[int]) -> None:
    """Clock k of the permuted geometry is clock perm[k] of the original."""
    a = strict_json(original["rates.json"])["report"]["per_clock_hz"]
    b = strict_json(permuted["rates.json"])["report"]["per_clock_hz"]
    for k, src in enumerate(perm):
        close(b[k], a[src], RATE_RTOL, f"permuted clock {k}")


# -- dynamics workload -------------------------------------------------------------

def dephasing_matrix_diag(coupling, kind: str, gamma) -> list[float]:
    """Per-clock dephasing D_i of the model the simulate scenario builds."""
    n = len(coupling)
    if kind == "unitary":
        return [0.0] * n
    if gamma == "optimal":
        if kind == "ccg-pairwise":
            gamma = [[x / 2.0 for x in row] for row in coupling]
        else:
            gamma = [0.5 * math.sqrt(math.fsum(x * x for x in row))
                     for row in coupling]
    else:
        gamma = gamma["pairwise" if kind == "ccg-pairwise" else "global"]
    channel = "pairwise" if kind == "ccg-pairwise" else "global"
    return given_rate_dephasing(coupling, channel, gamma)


def qubit(entry) -> tuple[float, complex]:
    """(population of |0>, coherence rho[1][0]) of a named or explicit qubit."""
    r = math.sqrt(0.5)
    kets = {"zero": (1, 0), "one": (0, 1), "plus": (r, r), "minus": (r, -r),
            "plus-i": (r, 1j * r)}
    if isinstance(entry, str):
        a, b = kets[entry]
    else:
        a, b = (complex(re, im) for re, im in entry)
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    a, b = a / norm, b / norm
    return abs(a) ** 2, b * a.conjugate()


def product_coherence(coupling, diag, states, t: float, sign: float = -1.0):
    """|c_i| e^(-4 D_i t) |prod_j (p_j e^(2i s g_ij t) + (1-p_j) e^(-2i s g_ij t))|."""
    out = []
    for i, (p_i, c_i) in enumerate(states):
        env = 1.0 + 0j
        for j, (p_j, _) in enumerate(states):
            if j != i:
                phase = cmath.exp(2j * sign * coupling[i][j] * t)
                env *= p_j * phase + (1.0 - p_j) / phase
        out.append(abs(c_i) * math.exp(-4.0 * diag[i] * t) * abs(env))
    return out


def check_simulate(config: dict, artifacts: dict) -> None:
    params = config["parameters"]
    coupling = params.get("coupling_matrix", [[0.0, 1.0], [1.0, 0.0]])
    n = len(coupling)
    kind = params["kind"]
    diag = dephasing_matrix_diag(coupling, kind, params.get("gamma", "optimal"))
    states = [qubit(s) for s in params["initial_state"]]
    summary = strict_json(artifacts["simulate.json"])
    require(summary["kind"] == kind and summary["n_clocks"] == n,
            "simulate summary kind / size")
    for i, (x, y) in enumerate(zip(summary["per_clock_dephasing"], diag)):
        close(x, y, RATE_RTOL, f"per-clock dephasing of clock {i}")
    rows = csv_rows(artifacts["simulate.csv"])
    require(rows[0] == ["time"] + [f"coherence_{i}" for i in range(n)],
            "coherence CSV header")
    times = params["times"]
    start, stop, num = times.get("start", 0.0), times["stop"], times["num"]
    require(len(rows) == num + 1, "coherence sample count")
    last = None
    for k, row in enumerate(rows[1:]):
        t = float(row[0])
        close(t, start + (stop - start) * k / (num - 1), 1e-14, f"sample time {k}")
        want = product_coherence(coupling, diag, states, t)
        last = [float(x) for x in row[1:]]
        for i, (x, y) in enumerate(zip(last, want)):
            require(abs(x - y) <= COHERENCE_ATOL,
                    f"coherence of clock {i} at t={t!r}: got {x!r}, expected {y!r}")
    if params.get("fit_decay", True):
        clock = params.get("fit_clock", 0)
        rate = summary["fitted_decay_rate"]
        require(rate is not None, f"decay fit failed: {summary.get('fit_error')}")
        close(rate, 4.0 * diag[clock], 1e-9, "fitted decay rate")
    if "simulate_rho.json" in artifacts:
        rho = strict_json(artifacts["simulate_rho.json"])["rho"]
        m = [[complex(a, b) for a, b in zip(ra, rb)]
             for ra, rb in zip(rho["real"], rho["imag"])]
        check_state(m)
        dim = len(m)
        for i in range(n):
            step = 1 << (n - 1 - i)
            coh = abs(sum(m[a][a - step] for a in range(dim) if a & step))
            require(abs(coh - last[i]) <= COHERENCE_ATOL,
                    f"exported state's coherence of clock {i} disagrees with the trace")


def check_state(m) -> None:
    """Hermitian with unit trace."""
    dim = len(m)
    scale = max(1.0, max(abs(x) for row in m for x in row))
    for a in range(dim):
        for b in range(a, dim):
            require(abs(m[a][b] - m[b][a].conjugate()) <= 1e-12 * scale,
                    f"state is not Hermitian at ({a}, {b})")
    trace = sum(m[a][a] for a in range(dim))
    require(abs(trace - 1.0) <= 1e-12, f"state trace {trace!r} is not 1")


def check_two_clock_rate(config: dict, artifacts: dict) -> None:
    check_simulate(config, artifacts)
    rate = strict_json(artifacts["simulate.json"])["fitted_decay_rate"]
    close(rate, 2.0, 1e-9, "two-clock decay rate at the optimum")


def check_oracle(exact, numeric) -> None:
    diff = math.sqrt(math.fsum(abs(exact[a][b] - numeric[a][b]) ** 2
                               for a in range(len(exact)) for b in range(len(exact))))
    require(diff <= ORACLE_FROBENIUS,
            f"exact and RK4 states differ by {diff:.3e} (Frobenius)")
    check_state(exact)


def check_negativities(values, kind: str, bell: float | None) -> None:
    if kind != "unitary":
        worst = max(values)
        require(worst <= NEGATIVITY_ZERO,
                f"{kind} channel produced negativity {worst:.3e}")
    if bell is not None:
        require(abs(bell - 0.5) <= NEGATIVITY_BELL_ATOL,
                f"unitary |++> at t=pi/4 has negativity {bell!r}, expected 1/2")


# -- sweeps workload ---------------------------------------------------------------

def grid_sum(dim: int, side: int, alpha: float, spacing: float) -> float:
    """sum over the non-center sites of an odd-sided grid of d^-alpha."""
    half = (side - 1) // 2
    axis = range(-half, half + 1)
    terms = []
    for idx in itertools.product(axis, repeat=dim):
        r2 = sum(k * k for k in idx)
        if r2:
            terms.append((r2 * spacing * spacing) ** (-alpha / 2.0))
    return math.fsum(terms)


def continuum_estimate(n: int, dim: int, spacing: float, alpha: float) -> float:
    """(S_D / L^D) int_L^R r^(D-1-alpha) dr, R = N^(1/D) L; 1D as two
    half-lines of length N L / 2."""
    power = dim - 1.0 - alpha
    if dim == 1:
        lo, hi, pre = spacing, n / 2.0 * spacing, 2.0 / spacing
    else:
        lo, hi, pre = spacing, n ** (1.0 / dim) * spacing, SOLID_ANGLE[dim] / spacing ** dim
    if hi <= lo:
        return 0.0
    if power == -1.0:
        return pre * math.log(hi / lo)
    return pre * (hi ** (power + 1.0) - lo ** (power + 1.0)) / (power + 1.0)


def check_scaling(config: dict, artifacts: dict, sums: dict) -> None:
    params = config["parameters"]
    dim, mode, case = params["dimension"], params["mode"], params["case"]
    spacing = params.get("lattice_constant", 1.0)
    alpha = 1.0 if (mode, case) == ("pairwise", "A-free") else 2.0
    law, exponent = SCALING_TABLE[(mode, case, dim)]
    for suffix, factor in conventions(config):
        doc = strict_json(artifacts[f"scaling{suffix}.json"])
        omega = params.get("quoted_frequency", 1e15) * factor
        pre = G * HBAR * omega ** 2 / (2.0 * C ** 4)
        points = doc["points"]
        require(len(points) >= 4, "a sweep needs at least four points")
        for p in points:
            n = p["N"]
            side = round(n ** (1.0 / dim))
            require(side ** dim == n and side % 2 == 1, f"N={n} is no odd {dim}D grid")
            key = (dim, side, alpha, spacing)
            if key not in sums:
                sums[key] = grid_sum(dim, side, alpha, spacing)
            s = sums[key]
            close(p["exact_sum"], s, RATE_RTOL, f"exact sum at N={n}")
            est = continuum_estimate(n, dim, spacing, alpha)
            close(p["continuum_estimate"], est, RATE_RTOL, f"continuum at N={n}")
            close(p["ratio"], s / est, RATE_RTOL, f"sum/integral ratio at N={n}")
            rate = {("pairwise", "A-free"): s,
                    ("global", "A-free"): math.sqrt(s),
                    ("pairwise", "B-fixed"): math.sqrt((n - 1) * s),
                    ("global", "B-fixed"): math.sqrt(s)}[(mode, case)]
            close(p["rate"], pre * rate, RATE_RTOL, f"rate at N={n}")
        fit = doc["fit"]
        require(fit["model"] == law,
                f"{mode}/{case}/{dim}D fits {fit['model']}, expected {law}")
        if exponent is not None:
            require(abs(fit["parameter"] - exponent) <= EXPONENT_ATOL,
                    f"{mode}/{case}/{dim}D exponent {fit['parameter']!r}, "
                    f"expected {exponent!r}")
        rows = csv_rows(artifacts[f"scaling{suffix}.csv"])
        require(len(rows) == len(points) + 1, "scaling CSV row count")
        for row, p in zip(rows[1:], points):
            require(int(row[0]) == p["N"] and float(row[1]) == p["exact_sum"]
                    and row[4] == fit["model"], "scaling CSV disagrees with JSON")
        plot = csv_rows(artifacts[f"scaling{suffix}_plot.csv"])
        require(len(plot) == len(points) + 1, "plot data row count")


def check_lattice_ratio(dim: int, side: int, spacing: float, alpha: float,
                        ratio: float) -> None:
    n = side ** dim
    want = grid_sum(dim, side, alpha, spacing) / continuum_estimate(
        n, dim, spacing, alpha)
    close(ratio, want, RATE_RTOL, f"sum/integral ratio of a {dim}D {side}-side lattice")


def shell_feedback(omega: float, inner: float, outer: float) -> float:
    return (math.pi * G * HBAR * omega ** 2 / (2.0 * C ** 4)) * (1.0 / inner - 1.0 / outer)


def check_redshift(config: dict, artifacts: dict) -> None:
    params = config["parameters"]
    body = params["body"]
    gz = params["gamma_clock"]
    for suffix, factor in conventions(config):
        dep = strict_json(artifacts[f"redshift{suffix}.json"])["dephasing"]
        omega = params["quoted_frequency"] * factor
        diffusion = None
        if body["kind"] == "shell":
            feedback = shell_feedback(omega, body["inner_radius"], body["outer_radius"])
        elif body["kind"] == "simple":
            coupling = G * body["mass"] * omega / (C ** 2 * body["distance"] ** 2)
            feedback = coupling ** 2 / (8.0 * body["gamma_position"])
            diffusion = [body["gamma_position"] / 2.0 + coupling ** 2 / (8.0 * gz)]
        else:
            m, a = body["atom_mass"], body["lattice_constant"]
            gamma = G * m * m / (HBAR * a ** 3)
            couplings = [G * m * omega / (C ** 2 * math.dist(p, body["clock_position"]) ** 2)
                         for p in body["positions"]]
            feedback = math.fsum(c * c / (8.0 * gamma) for c in couplings)
            diffusion = [gamma / 2.0 + c * c / (8.0 * gz) for c in couplings]
        close(dep["measurement_part_hz"], gz / 2.0, RATE_RTOL, "measurement part")
        close(dep["feedback_part_hz"], feedback, RATE_RTOL, "feedback part")
        close(dep["total_hz"], gz / 2.0 + feedback, RATE_RTOL, "total dephasing")
        if diffusion is not None:
            got = dep["position_diffusion_hz_per_m2"]
            require(len(got) == len(diffusion), "position diffusion count")
            for k, (x, y) in enumerate(zip(got, diffusion)):
                close(x, y, RATE_RTOL, f"position diffusion of atom {k}")


def check_shell_convergence(results: list[tuple[float, float, float]],
                            first_order: float) -> None:
    """(spacing / inner radius, feedback, closed form) per crystal. A cubic
    grid's surface error oscillates with the refinement, so the check is a
    first-order envelope, error <= first_order * h / l, and the finest
    crystal must come closest."""
    results = sorted(results, reverse=True)
    errors = [abs(f - ref) / ref for _, f, ref in results]
    for (h, _, _), err in zip(results, errors):
        require(err <= first_order * h,
                f"shell crystal with h/l={h:.3g} is off by {err:.3e}, "
                f"above {first_order * h:.3e}")
    require(errors[-1] == min(errors),
            f"the finest shell crystal is not the closest: {errors}")


def check_paper_report(artifacts: dict) -> None:
    entries = strict_json(artifacts["paper_report.json"])["report"]["entries"]
    n_rows = 0
    for e in entries:
        ref = e["reference_value"]
        rows = e["rows"]
        n_rows += len(rows)
        folds = []
        for r in rows:
            v = r["value"]
            fold = max(v / ref, ref / v)
            close(r["fold_difference"], fold, 1e-15, f"{e['claim_id']} fold")
            folds.append(fold)
        closest = [k for k, r in enumerate(rows) if r["closest"]]
        require(len(closest) == 1, f"{e['claim_id']} has {len(closest)} closest rows")
        best = min(folds)
        require(folds[closest[0]] == best, f"{e['claim_id']} marks a non-minimal row")
        grade = ("reproduced" if best <= 10.0 else
                 "order-compatible" if best <= 100.0 else "discrepant")
        require(e["status"] == grade, f"{e['claim_id']} graded {e['status']}, "
                                      f"expected {grade}")
        if e["claim_id"] == "two-clock-300nm":
            for r in rows:
                w = 1e15 * CONVENTION_FACTOR[r["convention"]]
                close(r["value"], G * HBAR * w * w / (300e-9 * C ** 4) / 2.0,
                      RATE_RTOL, "two-clock headline rate")
    require(len(csv_rows(artifacts["paper_report.csv"])) == n_rows + 1,
            "paper report CSV row count")
