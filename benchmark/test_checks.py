"""The benchmark's checks accept the package's outputs and reject perturbed ones.

Each test runs one operation through the package, shows that its check
passes, then perturbs the artifact by a tiny amount (a rate scaled by
1 + 1e-9, a coherence moved by 1e-9, a flipped fit model, ...) and shows
that the check raises.

    python3 -m unittest discover -s benchmark -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from ccgclocks import cli, lindblad  # noqa: E402


def run_cli(subcommand: str, config: dict) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([subcommand, "--config", str(cfg), "--out", str(out)])
        assert code == 0, f"{subcommand} exited {code}"
        return {p.name: p.read_bytes() for p in out.iterdir()}


def edit_json(artifacts: dict, name: str, edit) -> dict:
    doc = json.loads(artifacts[name])
    edit(doc)
    return dict(artifacts, **{name: (json.dumps(doc, sort_keys=True, indent=2)
                                     + "\n").encode()})


class PerturbedOutputs(unittest.TestCase):
    def setUp(self):
        self.rng = random.Random(7)

    def assertRejects(self, check, *args):
        with self.assertRaises(checks.CheckError):
            check(*args)

    def test_rate_scaled_by_one_part_in_1e9(self):
        clocks = workloads.cloud(self.rng, 5, 1e-6, 0.45e-6)
        for mode, case in (("pairwise", "A-free"), ("global", "A-free"),
                           ("pairwise", "B-fixed"), ("global", "B-fixed")):
            config = {"kind": "rates", "parameters": {
                "geometry": {"clocks": clocks}, "mode": mode, "case": case}}
            art = run_cli("rates", config)
            checks.check_rates(config, art)

            def scale(doc):
                doc["report"]["per_clock_hz"][2] *= 1 + 1e-9
            self.assertRejects(checks.check_rates, config,
                               edit_json(art, "rates.json", scale))

    def test_given_rates_scaled(self):
        clocks = workloads.cloud(self.rng, 4, 1e-6, 0.45e-6)
        config = {"kind": "rates", "parameters": {
            "geometry": {"clocks": clocks}, "mode": "global", "case": "given-rates",
            "gamma": {"global": [1e-32, 2e-32, 3e-32, 4e-32]}}}
        art = run_cli("rates", config)
        checks.check_rates(config, art)

        def scale(doc):
            doc["report"]["per_clock_hz"][0] *= 1 + 1e-9
        self.assertRejects(checks.check_rates, config,
                           edit_json(art, "rates.json", scale))

    def test_optimizer_objective_off(self):
        clocks = workloads.cloud(self.rng, 4, 1e-6, 0.08e-6)
        config = {"kind": "optimize", "parameters": {
            "geometry": {"clocks": clocks}, "mode": "global"}}
        art = run_cli("optimize", config)
        checks.check_optimize(config, art)

        def lower(doc):
            doc["objective"] *= 1 - 1e-9
        self.assertRejects(checks.check_optimize, config,
                           edit_json(art, "optimize.json", lower))

    def test_permuted_result_not_permuted(self):
        clocks = workloads.cloud(self.rng, 6, 1e-6, 0.45e-6)
        perm = [3, 0, 5, 1, 4, 2]
        runs = [run_cli("rates", {"kind": "rates", "parameters": {
            "geometry": {"clocks": cl}, "mode": "pairwise", "case": "A-free"}})
            for cl in (clocks, [clocks[k] for k in perm])]
        checks.check_permuted(runs[0], runs[1], perm)
        self.assertRejects(checks.check_permuted, runs[0], runs[1], list(range(6)))

    def test_coherence_off_by_1e9(self):
        coupling = workloads.unit_couplings(self.rng, 3)
        config = {"kind": "simulate", "parameters": {
            "kind": "ccg-global", "coupling_matrix": coupling,
            "initial_state": ["plus", [[0.3, 0.1], [0.5, -0.2]], "minus"],
            "times": {"stop": 2.0, "num": 11}, "fit_decay": False}}
        art = run_cli("simulate", config)
        checks.check_simulate(config, art)
        text = art["simulate.csv"].decode()
        lines = text.split("\r\n")
        cells = lines[4].split(",")
        cells[2] = repr(float(cells[2]) + 1e-9)
        lines[4] = ",".join(cells)
        bad = dict(art, **{"simulate.csv": "\r\n".join(lines).encode()})
        self.assertRejects(checks.check_simulate, config, bad)

    def test_two_clock_decay_rate(self):
        config = {"kind": "simulate", "parameters": {
            "kind": "ccg-pairwise", "initial_state": ["plus", "zero"],
            "times": {"stop": 3.0, "num": 31}, "export_density_matrix": True}}
        art = run_cli("simulate", config)
        checks.check_two_clock_rate(config, art)

        def nudge(doc):
            doc["fitted_decay_rate"] += 1e-8
        self.assertRejects(checks.check_two_clock_rate, config,
                           edit_json(art, "simulate.json", nudge))

        def skew(doc):
            doc["rho"]["imag"][0][1] += 1e-9
        self.assertRejects(checks.check_simulate, config,
                           edit_json(art, "simulate_rho.json", skew))

    def test_oracle_and_negativity(self):
        model = lindblad.dimensionless_model([[0.0, 1.0], [1.0, 0.0]],
                                             kind="ccg-pairwise")
        rho0 = lindblad.DensityMatrix.from_qubit_states(["plus", "plus"])
        exact = lindblad.evolve_exact(rho0, model, 1.0).matrix.tolist()
        numeric = lindblad.evolve_numeric(rho0, model, 1.0, 2.5e-4).rho.matrix.tolist()
        checks.check_oracle(exact, numeric)
        numeric[1][2] += 1e-7
        self.assertRejects(checks.check_oracle, exact, numeric)
        checks.check_negativities([0.0, 1e-12], "ccg-global", None)
        self.assertRejects(checks.check_negativities, [1e-9], "ccg-global", None)
        self.assertRejects(checks.check_negativities, [0.4999], "unitary", 0.4999)

    def test_flipped_fit_model(self):
        config = {"kind": "scaling-sweep", "parameters": {
            "dimension": 1, "mode": "pairwise", "case": "A-free",
            "sides": [5, 11, 31, 101, 301, 1001]}}
        art = run_cli("scaling", config)
        checks.check_scaling(config, art, {})

        def flip(doc):
            doc["fit"]["model"] = "power-law"
        self.assertRejects(checks.check_scaling, config,
                           edit_json(art, "scaling.json", flip), {})

        def off(doc):
            doc["points"][3]["exact_sum"] *= 1 + 1e-9
        self.assertRejects(checks.check_scaling, config,
                           edit_json(art, "scaling.json", off), {})

    def test_redshift_feedback_scaled(self):
        body = {"kind": "crystal", "atom_mass": 1e-25, "lattice_constant": 0.25,
                "positions": workloads.shell_atoms(1.0, 1.5, 0.25),
                "clock_position": [0.0, 0.0, 0.0]}
        config = {"kind": "redshift", "parameters": {
            "body": body, "quoted_frequency": 1e15, "gamma_clock": 1e-4}}
        art = run_cli("redshift", config)
        checks.check_redshift(config, art)

        def scale(doc):
            doc["dephasing"]["feedback_part_hz"] *= 1 + 1e-9
        self.assertRejects(checks.check_redshift, config,
                           edit_json(art, "redshift.json", scale))

    def test_shell_convergence_envelope(self):
        ref = 1.0
        checks.check_shell_convergence([(0.25, 1.04, ref), (0.1, 1.001, ref)], 0.5)
        self.assertRejects(checks.check_shell_convergence,
                           [(0.25, 1.04, ref), (0.1, 1.06, ref)], 0.5)
        self.assertRejects(checks.check_shell_convergence,
                           [(0.25, 1.001, ref), (0.1, 1.002, ref)], 0.5)

    def test_paper_report_fold_and_grade(self):
        art = run_cli("paper-report", {"kind": "paper-report"})
        checks.check_paper_report(art)

        def fold(doc):
            doc["report"]["entries"][0]["rows"][0]["fold_difference"] *= 1 + 1e-9
        self.assertRejects(checks.check_paper_report,
                           edit_json(art, "paper_report.json", fold))

        def two_closest(doc):
            for row in doc["report"]["entries"][1]["rows"]:
                row["closest"] = True
        self.assertRejects(checks.check_paper_report,
                           edit_json(art, "paper_report.json", two_closest))

        def regrade(doc):
            doc["report"]["entries"][0]["status"] = "discrepant"
        self.assertRejects(checks.check_paper_report,
                           edit_json(art, "paper_report.json", regrade))

    def test_non_standard_json_rejected(self):
        self.assertRejects(checks.strict_json, b'{"total_hz": Infinity}')
        self.assertRejects(checks.strict_json, b'{"x": NaN}')
        self.assertEqual(checks.strict_json(b'{"x": "inf"}'), {"x": "inf"})

    def test_lattice_ratio_off(self):
        from ccgclocks import continuum, geometry
        arr = geometry.build_lattice(2, 1e-6, [11, 11], 1e15)
        ratio = continuum.compare_sum_vs_integral(arr, 2.0)
        checks.check_lattice_ratio(2, 11, 1e-6, 2.0, ratio)
        self.assertRejects(checks.check_lattice_ratio, 2, 11, 1e-6, 2.0,
                           ratio * (1 + 1e-9))


if __name__ == "__main__":
    unittest.main()
