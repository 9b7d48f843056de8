import contextlib
import csv
import dataclasses
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccgclocks import cli
from ccgclocks.cli import main
from ccgclocks import report
from ccgclocks.constants import apply_convention
from ccgclocks.geometry import ClockSpec, pair_interaction_rate
from ccgclocks.redshift import bound_parameters
from ccgclocks.report import (PRESETS, atoms_for_target_rate, array_minimum_rate,
                              paper_report)
from ccgclocks.scenarios import (_GAMMA_SCHEMA, _PARAMETER_SCHEMAS, SCENARIO_SCHEMA,
                                 emit_plot_data, run_scenario, validate_scenario)


def approx(expected, rel, abs=0.0):
    """pytest.approx without its default 1e-12 absolute tolerance, under which
    any two values below 1e-12 compare equal (SI rates here are near 1e-42 Hz);
    an absolute tolerance is passed where one is meant."""
    return pytest.approx(expected, rel=rel, abs=abs)


RATES_CONFIG = {
    "kind": "rates",
    "parameters": {
        "geometry": {"clocks": [
            {"quoted_frequency": 1e15, "position": [0, 0, 0]},
            {"quoted_frequency": 1e15, "position": [3e-7, 0, 0]},
        ]},
        "mode": "pairwise",
        "case": "A-free",
    },
}

SIMULATE_CONFIG = {
    "kind": "simulate",
    "parameters": {
        "kind": "ccg-pairwise",
        "initial_state": ["plus", "zero"],
        "times": {"stop": 3.0, "num": 61},
    },
}


def write_config(tmp_path, config, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestValidation:
    def test_valid_configs_pass(self):
        validate_scenario(RATES_CONFIG)
        validate_scenario(SIMULATE_CONFIG)
        validate_scenario({"kind": "paper-report"})

    def test_unknown_top_level_key_rejected(self):
        bad = dict(RATES_CONFIG, surprise=1)
        with pytest.raises(Exception, match="surprise"):
            validate_scenario(bad)

    def test_unknown_parameter_key_rejected(self):
        bad = json.loads(json.dumps(RATES_CONFIG))
        bad["parameters"]["extra"] = True
        with pytest.raises(Exception, match="extra"):
            validate_scenario(bad)

    def test_zero_lattice_constant_rejected(self):
        bad = {
            "kind": "rates",
            "parameters": {
                "geometry": {"lattice": {"dimension": 1, "lattice_constant": 0,
                                         "counts": [3], "quoted_frequency": 1e15}},
                "mode": "pairwise", "case": "A-free",
            },
        }
        with pytest.raises(Exception):
            validate_scenario(bad)

    def test_given_rates_requires_gamma(self):
        bad = json.loads(json.dumps(RATES_CONFIG))
        bad["parameters"]["case"] = "given-rates"
        with pytest.raises(Exception, match="gamma"):
            validate_scenario(bad)

    def test_even_sweep_sides_rejected(self):
        bad = {"kind": "scaling-sweep",
               "parameters": {"dimension": 1, "mode": "pairwise",
                              "case": "A-free", "sides": [5, 8, 101, 1001]}}
        with pytest.raises(Exception, match="odd"):
            validate_scenario(bad)


class TestRunScenario:
    def test_rates_scenario_emits_expected_rate(self, tmp_path):
        written = run_scenario(RATES_CONFIG, tmp_path / "out")
        csv_path = [p for p in written if p.suffix == ".csv"][0]
        text = csv_path.read_text()
        assert "1.4522715257757183e-42" in text
        assert "pairwise-free-min" in text
        payload = json.loads((tmp_path / "out" / "rates.json").read_text())
        assert payload["meta"]["convention"] == "direct"

    def test_simulate_scenario_fits_rate_two(self, tmp_path):
        run_scenario(SIMULATE_CONFIG, tmp_path / "out")
        summary = json.loads((tmp_path / "out" / "simulate.json").read_text())
        assert summary["fitted_decay_rate"] == approx(2.0, rel=0, abs=1e-9)
        assert summary["per_clock_dephasing"] == approx([0.5, 0.5], rel=1e-6)

    def test_both_conventions_emit_suffixed_files(self, tmp_path):
        cfg = dict(RATES_CONFIG, convention="both")
        written = run_scenario(cfg, tmp_path / "out")
        names = sorted(p.name for p in written)
        assert "rates_direct.csv" in names and "rates_2pi.csv" in names
        direct = (tmp_path / "out" / "rates_direct.csv").read_text()
        two_pi = (tmp_path / "out" / "rates_2pi.csv").read_text()
        assert "1.4522715257757183e-42" in direct
        assert "5.73333817694911" in two_pi  # (2 pi)^2 larger

    def test_optimize_scenario(self, tmp_path):
        cfg = {
            "kind": "optimize",
            "parameters": {
                "geometry": {"lattice": {"dimension": 1, "lattice_constant": 1e-6,
                                         "counts": [4], "quoted_frequency": 1e15}},
                "mode": "global",
            },
        }
        run_scenario(cfg, tmp_path / "out")
        payload = json.loads((tmp_path / "out" / "optimize.json").read_text())
        got = np.array(payload["optimal_rates"]["global_gamma"])
        from ccgclocks.geometry import build_lattice, pair_rate_matrix
        from ccgclocks.rates import min_dephasing_global_A
        g = pair_rate_matrix(build_lattice(1, 1e-6, [4], 1e15))
        expected = min_dephasing_global_A(g).optimal_rates.global_gamma
        assert got == approx(expected, rel=1e-6)

    def test_scaling_scenario_outputs(self, tmp_path):
        cfg = {
            "kind": "scaling-sweep",
            "parameters": {"dimension": 1, "mode": "pairwise", "case": "A-free",
                           "sides": [5, 11, 101, 1001]},
        }
        run_scenario(cfg, tmp_path / "out")
        lines = (tmp_path / "out" / "scaling.csv").read_text().splitlines()
        assert lines[0] == ("N,exact_sum,continuum_estimate,ratio,"
                            "fitted_model,parameter,mode,case,convention")
        assert len(lines) == 5
        plot = (tmp_path / "out" / "scaling_plot.csv").read_text().splitlines()
        assert plot[0] == "N,D,mode,case,rate,fit_model,fit_param"
        payload = json.loads((tmp_path / "out" / "scaling.json").read_text())
        assert payload["fit"]["model"] == "log-law"

    def test_redshift_scenarios(self, tmp_path):
        shell = {
            "kind": "redshift",
            "parameters": {"body": {"kind": "shell", "inner_radius": 0.01,
                                    "outer_radius": 1.0},
                           "quoted_frequency": 1e15, "gamma_clock": 0.0},
        }
        run_scenario(shell, tmp_path / "out")
        payload = json.loads((tmp_path / "out" / "redshift.json").read_text())
        assert payload["dephasing"]["feedback_part_hz"] == approx(
            1.3550463302492074e-46, rel=1e-6)

        simple = {
            "kind": "redshift",
            "parameters": {"body": {"kind": "simple", "mass": 5.97e24,
                                    "distance": 6.371e6, "gamma_position": 15.0},
                           "quoted_frequency": 1e15, "gamma_clock": 0.0},
        }
        run_scenario(simple, tmp_path / "out2")
        payload = json.loads((tmp_path / "out2" / "redshift.json").read_text())
        assert payload["dephasing"]["feedback_part_hz"] == approx(1e-4, rel=0.01)
        assert payload["dephasing"]["position_diffusion_hz_per_m2"] == ["inf"]

    def test_rates_scenario_with_given_rates(self, tmp_path):
        cfg = {
            "kind": "rates",
            "parameters": {
                "geometry": {"clocks": [
                    {"quoted_frequency": 1e15, "position": [0, 0, 0]},
                    {"quoted_frequency": 1e15, "position": [3e-7, 0, 0]}]},
                "mode": "global",
                "case": "given-rates",
                "gamma": {"global": [1e-42, 1e-42]},
            },
        }
        run_scenario(cfg, tmp_path / "out")
        text = (tmp_path / "out" / "rates.csv").read_text()
        assert "given-rates" in text and "global-sum" in text

    def test_simulate_with_explicit_gamma_and_coupling(self, tmp_path):
        cfg = {
            "kind": "simulate",
            "parameters": {
                "kind": "ccg-global",
                "coupling_matrix": [[0.0, 0.5, 0.2], [0.5, 0.0, 0.3],
                                    [0.2, 0.3, 0.0]],
                "omegas": [0.0, 0.1, 0.2],
                "gamma": {"global": [0.4, 0.6, 0.5]},
                "initial_state": ["plus", "zero", "one"],
                "times": {"stop": 2.0, "num": 21},
            },
        }
        run_scenario(cfg, tmp_path / "out")
        summary = json.loads((tmp_path / "out" / "simulate.json").read_text())
        expected_d0 = 0.4 / 2 + 0.5**2 / (8 * 0.6) + 0.2**2 / (8 * 0.5)
        assert summary["per_clock_dephasing"][0] == approx(expected_d0, rel=1e-6)
        assert summary["fitted_decay_rate"] == approx(4 * expected_d0, rel=0, abs=1e-9)

    def test_crystal_redshift_scenario(self, tmp_path):
        cfg = {
            "kind": "redshift",
            "parameters": {
                "body": {"kind": "crystal", "atom_mass": 1.81e-25,
                         "lattice_constant": 1e-10,
                         "positions": [[1.0, 0, 0], [1.0, 1e-10, 0]],
                         "clock_position": [0, 0, 0]},
                "quoted_frequency": 1e15, "gamma_clock": 0.1,
            },
        }
        run_scenario(cfg, tmp_path / "out")
        payload = json.loads((tmp_path / "out" / "redshift.json").read_text())
        assert payload["dephasing"]["measurement_part_hz"] == approx(0.05, rel=1e-6)
        assert len(payload["dephasing"]["position_diffusion_hz_per_m2"]) == 2

    def test_3d_global_sweep_plot_data_has_sixth_root_exponent(self, tmp_path):
        cfg = {
            "kind": "scaling-sweep",
            "parameters": {"dimension": 3, "mode": "global", "case": "A-free",
                           "sides": [5, 9, 15, 21, 27, 33, 41]},
        }
        run_scenario(cfg, tmp_path / "out")
        lines = (tmp_path / "out" / "scaling_plot.csv").read_text().splitlines()
        last = lines[-1].split(",")
        assert last[5] == "power-law"
        assert float(last[6]) == approx(1 / 6, rel=0, abs=0.05)

    def test_unitary_simulation_reports_fit_failure(self, tmp_path):
        cfg = {
            "kind": "simulate",
            "parameters": {
                "kind": "unitary",
                "initial_state": ["plus", "plus"],
                "times": {"stop": 1.2, "num": 30},
            },
        }
        run_scenario(cfg, tmp_path / "out")
        summary = json.loads((tmp_path / "out" / "simulate.json").read_text())
        assert summary["fitted_decay_rate"] is None
        assert summary["fit_error"]

    def test_density_matrix_export(self, tmp_path):
        cfg = json.loads(json.dumps(SIMULATE_CONFIG))
        cfg["parameters"]["export_density_matrix"] = True
        run_scenario(cfg, tmp_path / "out")
        rho = json.loads((tmp_path / "out" / "simulate_rho.json").read_text())
        assert rho["rho"]["n_clocks"] == 2

    def test_reruns_are_byte_identical(self, tmp_path):
        for cfg in (RATES_CONFIG, SIMULATE_CONFIG):
            a = run_scenario(cfg, tmp_path / "a")
            b = run_scenario(cfg, tmp_path / "b")
            for pa, pb in zip(sorted(a), sorted(b)):
                assert pa.read_bytes() == pb.read_bytes()


class TestCliEntryPoint:
    def test_rates_roundtrip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RATES_CONFIG)
        assert main(["rates", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "rates.csv" in out

    def test_validation_failure_exit_2(self, tmp_path, capsys):
        bad = {"kind": "rates", "parameters": {
            "geometry": {"lattice": {"dimension": 1, "lattice_constant": 0.0,
                                     "counts": [3], "quoted_frequency": 1e15}},
            "mode": "pairwise", "case": "A-free"}}
        cfg = write_config(tmp_path, bad)
        assert main(["rates", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "lattice_constant" in err

    def test_computation_failure_exit_3(self, tmp_path, capsys):
        coincident = {"kind": "rates", "parameters": {
            "geometry": {"clocks": [
                {"quoted_frequency": 1e15, "position": [0, 0, 0]},
                {"quoted_frequency": 1e15, "position": [0, 0, 0]}]},
            "mode": "pairwise", "case": "A-free"}}
        cfg = write_config(tmp_path, coincident)
        assert main(["rates", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "coincident" in capsys.readouterr().err

    def test_kind_mismatch_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RATES_CONFIG)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("stem", ["../escaped", "sub/x", "..\\escaped"])
    def test_stem_with_a_path_separator_exit_2_writing_nothing(self, tmp_path, capsys, stem):
        cfg = write_config(tmp_path, {"kind": "paper-report", "output": {"stem": stem}})
        assert main(["paper-report", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "invalid config at output/stem" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*")] == ["cfg.json"]

    def test_stem_too_long_for_the_file_system_exit_3_writing_nothing(self, tmp_path, capsys):
        # the file system refuses the name: an OSError traceback, exit 1
        cfg = write_config(tmp_path, {"kind": "paper-report", "output": {"stem": "x" * 300}})
        assert main(["paper-report", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "File name too long" in capsys.readouterr().err
        assert list((tmp_path / "o").iterdir()) == []

    def test_paper_report_without_config(self, tmp_path):
        assert main(["paper-report", "--out", str(tmp_path / "o")]) == 0
        payload = json.loads((tmp_path / "o" / "paper_report.json").read_text())
        assert len(payload["report"]["entries"]) == 8

    def test_convention_flag_override(self, tmp_path):
        cfg = write_config(tmp_path, RATES_CONFIG)
        assert main(["--convention", "2pi", "rates", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 0
        text = (tmp_path / "o" / "rates.csv").read_text()
        assert "times-two-pi" in text

    def test_parser_is_built_once_per_process(self, tmp_path, capsys):
        cli._build_parser.cache_clear()
        cfg = write_config(tmp_path, RATES_CONFIG)
        for _ in range(2):
            assert main(["rates", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0), (["rates", "--help"], 0), ([], 2), (["rates"], 2),
        (["nonsense"], 2), (["--convention", "3pi", "rates"], 2),
    ])
    def test_usage_and_help_match_a_fresh_parser(self, capsys, argv, code):
        outputs = []
        for parse in (main, cli._build_parser.__wrapped__().parse_args):
            with pytest.raises(SystemExit) as info:
                parse(argv)
            assert info.value.code == code
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert (outputs[0].out + outputs[0].err).startswith("usage: ccgclocks")


_COLD_RUN = """
import json, sys
from ccgclocks import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def _cold(args, tmp_path):
    """Run the CLI in a fresh interpreter that finds the package under test."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


class TestColdStart:
    def test_two_clock_rates_loads_only_what_it_runs(self, tmp_path):
        cfg = write_config(tmp_path, RATES_CONFIG)
        proc = _cold(["-c", _COLD_RUN, "rates", "--config", str(cfg),
                      "--out", str(tmp_path / "o")], tmp_path)
        code, modules = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0, proc.stderr
        assert {"ccgclocks.rates", "ccgclocks.scenarios"} <= set(modules)
        loaded = set(modules) & {"jsonschema", "ccgclocks.lindblad", "ccgclocks.continuum",
                                 "ccgclocks.redshift", "ccgclocks.report"}
        assert not loaded

    def test_invalid_config_keeps_its_exit_code_and_message(self, tmp_path):
        bad = json.loads(json.dumps(RATES_CONFIG))
        bad["parameters"]["geometry"]["clocks"][1]["position"][2] = True
        cfg = write_config(tmp_path, bad)
        proc = _cold(["-m", "ccgclocks.cli", "rates", "--config", str(cfg),
                      "--out", str(tmp_path / "o")], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == ("error: invalid config at parameters/geometry/clocks/1/"
                               "position/2: True is not of type 'number'\n")
        assert proc.stdout == ""

    def test_every_public_name_resolves_from_its_module(self):
        import ccgclocks

        assert set(ccgclocks.__all__) <= set(dir(ccgclocks))
        for name, module in ccgclocks._MODULE_OF.items():
            assert getattr(ccgclocks, name) is getattr(
                importlib.import_module(f"ccgclocks.{module}"), name)
        for module in ccgclocks._EXPORTS:
            assert getattr(ccgclocks, module) is importlib.import_module(f"ccgclocks.{module}")
        with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
            ccgclocks.nonsense


def chain_config(n, export=False):
    coupling = [[0.0 if i == j else 1.0 / abs(i - j) for j in range(n)]
                for i in range(n)]
    return {"kind": "simulate", "parameters": {
        "kind": "ccg-global", "coupling_matrix": coupling,
        "initial_state": ["plus"] + ["zero"] * (n - 1),
        "times": {"stop": 0.5, "num": 11}, "export_density_matrix": export}}


class TestSimulateAtArrayScale:
    @pytest.fixture
    def no_dense_work(self, monkeypatch):
        from ccgclocks import lindblad

        def refuse(*args, **kwargs):
            raise AssertionError("dense 2^N work in the simulate scenario")

        monkeypatch.setattr(lindblad, "evolve_exact", refuse)
        monkeypatch.setattr(lindblad, "simulate_coherence", refuse)
        monkeypatch.setattr(lindblad.DensityMatrix, "from_qubit_states", refuse)

    def test_fourteen_clocks_run_on_the_closed_form(self, tmp_path, no_dense_work):
        cfg = write_config(tmp_path, chain_config(14))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "simulate.json").read_text())
        assert summary["n_clocks"] == 14
        assert summary["fitted_decay_rate"] == approx(
            4.0 * summary["per_clock_dephasing"][0], rel=1e-9)

    @pytest.mark.parametrize("n", [5, 14])
    def test_export_past_four_clocks_fails_before_dense_work(
            self, tmp_path, capsys, no_dense_work, n):
        cfg = write_config(tmp_path, chain_config(n, export=True))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "JSON export is limited to 4 clocks" in capsys.readouterr().err


REDSHIFT_SIMPLE = {"kind": "redshift", "parameters": {
    "body": {"kind": "simple", "mass": 5.97e24, "distance": 6.371e6, "gamma_position": 15.0},
    "quoted_frequency": 1e15, "gamma_clock": 0.1}}

TINY_CHAIN = {"lattice": {"dimension": 1, "lattice_constant": 1e-320, "counts": [4],
                          "quoted_frequency": 1e15}}

# configs whose numbers JSON reads as NaN or Infinity, which the schemas
# cannot refuse, or whose results overflow: the runners refuse them before
# any artifact is written
NON_FINITE_CONFIGS = {
    "stop_nan": ("simulate", dict(SIMULATE_CONFIG, parameters=dict(
        SIMULATE_CONFIG["parameters"], times={"stop": math.nan, "num": 5}))),
    "stop_inf": ("simulate", dict(SIMULATE_CONFIG, parameters=dict(
        SIMULATE_CONFIG["parameters"], times={"stop": math.inf, "num": 5}))),
    "omega_nan_export": ("simulate", dict(SIMULATE_CONFIG, parameters=dict(
        SIMULATE_CONFIG["parameters"], omegas=[math.nan, 1.0],
        export_density_matrix=True))),
    "lattice_constant_inf": ("scaling", {"kind": "scaling-sweep", "parameters": {
        "dimension": 2, "mode": "pairwise", "case": "A-free",
        "lattice_constant": math.inf}}),
    "gamma_clock_nan": ("redshift", dict(REDSHIFT_SIMPLE, parameters=dict(
        REDSHIFT_SIMPLE["parameters"], gamma_clock=math.nan))),
    "gamma_clock_inf": ("redshift", dict(REDSHIFT_SIMPLE, parameters=dict(
        REDSHIFT_SIMPLE["parameters"], gamma_clock=math.inf))),
    # a finite frequency whose square overflows
    "shell_frequency_overflow": ("redshift", dict(REDSHIFT_SIMPLE, parameters=dict(
        REDSHIFT_SIMPLE["parameters"], quoted_frequency=1e200, body={
            "kind": "shell", "inner_radius": 0.5, "outer_radius": 2.0}))),
    # a finite frequency and radius whose shell rate overflows
    "shell_rate_overflow": ("redshift", dict(REDSHIFT_SIMPLE, parameters=dict(
        REDSHIFT_SIMPLE["parameters"], quoted_frequency=1e150, body={
            "kind": "shell", "inner_radius": 1e-300, "outer_radius": 2.0}))),
    "crystal_clock_position_inf": ("redshift", dict(REDSHIFT_SIMPLE, parameters=dict(
        REDSHIFT_SIMPLE["parameters"], body={
            "kind": "crystal", "atom_mass": 1e-25, "lattice_constant": 1e-9,
            "positions": [[1e-6, 0, 0]], "clock_position": [math.inf, 0, 0]}))),
    # a finite coupling whose square overflows
    "simple_body_overflow": ("redshift", dict(REDSHIFT_SIMPLE, parameters=dict(
        REDSHIFT_SIMPLE["parameters"], body=dict(
            REDSHIFT_SIMPLE["parameters"]["body"], mass=1e200, distance=1.0)))),
    # a crystal whose L_c^3 overflows, or underflows to zero, in its measurement rate
    "crystal_lattice_constant_overflow": ("redshift", dict(REDSHIFT_SIMPLE, parameters=dict(
        REDSHIFT_SIMPLE["parameters"], body={
            "kind": "crystal", "atom_mass": 1e-25, "lattice_constant": 1e110,
            "positions": [[1e-6, 0, 0]], "clock_position": [0, 0, 0]}))),
    "crystal_lattice_constant_underflow": ("redshift", dict(REDSHIFT_SIMPLE, parameters=dict(
        REDSHIFT_SIMPLE["parameters"], body={
            "kind": "crystal", "atom_mass": 1e-25, "lattice_constant": 1e-110,
            "positions": [[1e-6, 0, 0]], "clock_position": [0, 0, 0]}))),
    # a sweep whose frequency squared overflows in the dephasing prefactor
    "sweep_frequency_overflow": ("scaling", {"kind": "scaling-sweep", "parameters": {
        "dimension": 2, "mode": "pairwise", "case": "A-free", "quoted_frequency": 1e160}}),
    # a 4-clock chain 1e-320 m apart, whose pair rates square past the float range
    **{f"rates_{mode}_{case}_square_overflow": ("rates", {"kind": "rates", "parameters": {
        "geometry": TINY_CHAIN, "mode": mode, "case": case}})
       for mode, case in (("global", "A-free"), ("pairwise", "B-fixed"), ("global", "B-fixed"))},
    **{f"rates_given_{mode}_square_overflow": ("rates", {"kind": "rates", "parameters": {
        "geometry": TINY_CHAIN, "mode": mode, "case": "given-rates", "gamma": gamma}})
       for mode, gamma in (
           ("pairwise", {"pairwise": [[float(i != j) for j in range(4)] for i in range(4)]}),
           ("global", {"global": [1.0] * 4}))},
    **{f"optimize_{mode}_square_overflow": ("optimize", {"kind": "optimize", "parameters": {
        "geometry": TINY_CHAIN, "mode": mode}})
       for mode in ("pairwise", "global", "fixed-scalar", "fixed-scalar-global")},
    # a 4-clock chain 7.9e-203 m apart, whose squares fit but whose row sums do not
    **{f"rates_{mode}_{case}_row_sum_overflow": ("rates", {"kind": "rates", "parameters": {
        "geometry": {"lattice": dict(TINY_CHAIN["lattice"], lattice_constant=7.9e-203)},
        "mode": mode, "case": case}})
       for mode, case in (("global", "A-free"), ("pairwise", "B-fixed"), ("global", "B-fixed"))},
    # squares that fit, but a quotient g^2 / (8 Gamma) past the float range
    "rates_given_global_quotient_overflow": ("rates", {"kind": "rates", "parameters": {
        "geometry": {"lattice": dict(TINY_CHAIN["lattice"], lattice_constant=1e-200)},
        "mode": "global", "case": "given-rates", "gamma": {"global": [1e-300] * 4}}}),
    "simulate_global_coupling_square_overflow": ("simulate", {"kind": "simulate", "parameters": {
        "kind": "ccg-global", "initial_state": ["plus", "plus"],
        "coupling_matrix": [[0.0, 1e200], [1e200, 0.0]], "times": {"stop": 1.0, "num": 3}}}),
    # a frequency whose pair rates leave the float range, refused by the pair kernel
    "rates_pair_rate_overflow": ("rates", {"kind": "rates", "parameters": {
        "geometry": {"lattice": dict(TINY_CHAIN["lattice"], lattice_constant=1e-6,
                                     quoted_frequency=1e200)},
        "mode": "pairwise", "case": "A-free"}}),
    # an infinite lattice constant, whose centre site is 0 * inf
    "optimize_lattice_constant_inf": ("optimize", {"kind": "optimize", "parameters": {
        "geometry": {"lattice": dict(TINY_CHAIN["lattice"], lattice_constant=math.inf,
                                     counts=[3])},
        "mode": "pairwise"}}),
    # phases (e_a - e_b) t past the float range, in the trace and in the export
    "simulate_phase_overflow": ("simulate", {"kind": "simulate", "parameters": {
        "kind": "ccg-pairwise", "initial_state": ["plus", "plus"],
        "coupling_matrix": [[0.0, 1e15], [1e15, 0.0]], "times": {"stop": 1e300, "num": 5}}}),
    "simulate_export_phase_overflow": ("simulate", {"kind": "simulate", "parameters": {
        "kind": "ccg-pairwise", "initial_state": ["plus"], "coupling_matrix": [[0.0]],
        "omegas": [1e15], "gamma": {"pairwise": [[0.0]]}, "export_density_matrix": True,
        "times": {"stop": 1e300, "num": 5}}}),
    # pair rates 1e-285 to 1e121, whose shares overflow at the optimizer's start
    "optimize_start_overflow": ("optimize", {"kind": "optimize", "parameters": {
        "mode": "fixed-scalar", "geometry": {"clocks": [
            {"position": [3e-07, 3.0, 0.5], "quoted_frequency": 1e200},
            {"position": [1.0, 0.1, 3e-07], "quoted_frequency": 2.0},
            {"position": [1e15, 0.1, 1e100], "quoted_frequency": 1.0},
            {"position": [1e200, 0.1, 1.0], "quoted_frequency": 3e-07}]}}}),
    # sweep rates past 1e154, whose squares three scaling fits take
    "sweep_rate_square_overflow": ("scaling", {"kind": "scaling-sweep", "parameters": {
        "dimension": 3, "mode": "global", "case": "B-fixed", "quoted_frequency": 1e154,
        "lattice_constant": 3.0}}),
    # a frequency whose square fits directly but not times 2 pi: the direct
    # files of "both" are removed too
    "shell_frequency_overflow_in_2pi": ("redshift", dict(REDSHIFT_SIMPLE, convention="both",
                                                         parameters=dict(
        REDSHIFT_SIMPLE["parameters"], quoted_frequency=1e154, body={
            "kind": "shell", "inner_radius": 0.5, "outer_radius": 2.0}))),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_CONFIGS))
def test_non_finite_numbers_exit_3_without_artifacts(tmp_path, capsys, name):
    subcommand, config = NON_FINITE_CONFIGS[name]
    cfg = write_config(tmp_path, config)  # json writes NaN and Infinity, and reads them
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would fail the run
        code = main([subcommand, "--config", str(cfg), "--out", str(out)])
    assert code == 3
    assert not out.exists() or not any(out.iterdir())
    err = capsys.readouterr().err
    assert err.startswith("error: computation failed:") and "Warning" not in err
    assert "Traceback" not in err


def test_sweep_at_a_lattice_constant_whose_cube_overflows_runs(tmp_path, capsys):
    # it exited 3, though every value it reports is representable: at N = 125 the
    # sum is near 5.7e-109 and the rate near 2.5e-157; each is the unit lattice's
    # value times L_c^-1
    def run(lattice_constant):
        config = {"kind": "scaling-sweep", "parameters": {
            "dimension": 3, "mode": "pairwise", "case": "A-free",
            "lattice_constant": lattice_constant}}
        out = tmp_path / repr(lattice_constant)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["scaling", "--config", str(write_config(tmp_path, config)),
                         "--out", str(out)])
        assert code == 0
        with open(out / "scaling.csv", newline="") as f, \
                open(out / "scaling_plot.csv", newline="") as g:
            return [[int(row["N"]), float(row["exact_sum"]), float(row["continuum_estimate"]),
                     float(point["rate"])]
                    for row, point in zip(csv.DictReader(f), csv.DictReader(g))]

    vast, unit = run(1e110), run(1.0)
    assert [row[0] for row in vast] == [side ** 3 for side in (5, 7, 9, 11, 15, 21, 27, 33, 41)]
    assert vast[0][1] == approx(5.72e-109, rel=1e-3) and vast[0][3] == approx(2.49e-157, rel=1e-2)
    for got, ref in zip(vast, unit):
        assert got[1:] == [approx(value * 1e-110, rel=1e-15) for value in ref[1:]]
    assert capsys.readouterr().err == ""


def test_pairwise_free_minimum_squares_nothing(tmp_path, capsys):
    config = {"kind": "rates", "parameters": {
        "geometry": TINY_CHAIN, "mode": "pairwise", "case": "A-free"}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["rates", "--config", str(write_config(tmp_path, config)),
                     "--out", str(tmp_path / "o")])
    assert code == 0 and capsys.readouterr().err == ""
    written = json.loads((tmp_path / "o" / "rates.json").read_text())
    assert written["report"]["per_clock_hz"][0] > 1e271


_SWEEP_1D = {"kind": "scaling-sweep", "parameters": {
    "dimension": 1, "mode": "pairwise", "case": "A-free", "sides": [3, 9, 31, 301]}}
_LATTICE_RATES = {"kind": "rates", "parameters": {
    "geometry": {"lattice": {"dimension": 2, "lattice_constant": 1e-6, "counts": [3, 2],
                             "quoted_frequency": 1e15}},
    "mode": "global", "case": "A-free"}}
# subcommand, a config, and the path in its parameters of an integer that
# Draft 2020-12 also takes as an integral float
INTEGER_POSITIONS = {
    "simulate_times_num": ("simulate", SIMULATE_CONFIG, ["times", "num"]),
    "simulate_fit_clock": ("simulate", {"kind": "simulate", "parameters": dict(
        SIMULATE_CONFIG["parameters"], fit_clock=1)}, ["fit_clock"]),
    "scaling_dimension": ("scaling", _SWEEP_1D, ["dimension"]),
    "scaling_sides": ("scaling", _SWEEP_1D, ["sides", 2]),
    "rates_lattice_dimension": ("rates", _LATTICE_RATES, ["geometry", "lattice", "dimension"]),
    "rates_lattice_counts": ("rates", _LATTICE_RATES, ["geometry", "lattice", "counts", 1]),
}


@pytest.mark.parametrize("name", sorted(INTEGER_POSITIONS))
def test_integral_float_at_an_integer_position_runs_as_its_integer_twin(tmp_path, name):
    subcommand, config, path = INTEGER_POSITIONS[name]
    as_float = json.loads(json.dumps(config))
    *parents, last = path
    node = as_float["parameters"]
    for key in parents:
        node = node[key]
    node[last] = float(node[last])
    outputs = []
    for tag, cfg in (("int", config), ("float", as_float)):
        out = tmp_path / tag
        assert main([subcommand, "--config", str(write_config(tmp_path, cfg, f"{tag}.json")),
                     "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] and outputs[1] == outputs[0]


@pytest.mark.parametrize("stop", [1e-170, 1e-320])
def test_fit_on_times_whose_squares_underflow_is_refused_quietly(tmp_path, capfd, stop):
    config = dict(SIMULATE_CONFIG, parameters=dict(
        SIMULATE_CONFIG["parameters"], times={"stop": stop, "num": 11}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--config", str(write_config(tmp_path, config)),
                     "--out", str(tmp_path / "o")])
    assert code == 0
    summary = json.loads((tmp_path / "o" / "simulate.json").read_text())
    assert summary["fitted_decay_rate"] is None
    assert "squared is below the smallest normal float" in summary["fit_error"]
    out, err = capfd.readouterr()  # LAPACK writes its complaints to the C stdout
    assert "DLASCL" not in out + err and "Warning" not in err


@pytest.mark.parametrize("parameters, error", [
    ({"fit_clock": 5, "times": {"stop": 3.0, "num": 11}}, "fit clock 5 out of range"),
    ({"times": {"stop": 1e-100, "num": 11}}, "within rounding noise"),
    ({"times": {"stop": 1e-153, "num": 11}}, "within rounding noise"),
    ({"times": {"start": 2.0, "stop": 2.0, "num": 11}}, "too close together to fit"),
])
def test_fits_the_trace_cannot_support_are_refused_quietly(tmp_path, capfd, parameters, error):
    # fit_clock 5 ended in an IndexError traceback (exit 1); the short traces
    # recorded 5.26e84 and 3.0e137 for the model rate 2.0
    config = dict(SIMULATE_CONFIG, parameters=dict(SIMULATE_CONFIG["parameters"], **parameters))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--config", str(write_config(tmp_path, config)),
                     "--out", str(tmp_path / "o")])
    assert code == 0
    summary = json.loads((tmp_path / "o" / "simulate.json").read_text())
    assert summary["fitted_decay_rate"] is None
    assert error in summary["fit_error"]
    assert "Warning" not in capfd.readouterr().err


@pytest.mark.parametrize("stop", [1e154, 1e160, 1e300])
def test_fit_on_times_whose_squares_overflow_is_refused_quietly(tmp_path, capfd, stop):
    config = {"kind": "simulate", "parameters": {
        "kind": "unitary", "initial_state": ["plus", "zero"],
        "times": {"stop": stop, "num": 11}}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--config", str(write_config(tmp_path, config)),
                     "--out", str(tmp_path / "o")])
    assert code == 0
    summary = json.loads((tmp_path / "o" / "simulate.json").read_text())
    assert summary["fitted_decay_rate"] is None
    assert "squares summing past the float range" in summary["fit_error"]
    assert "Warning" not in capfd.readouterr().err


class TestPaperReport:
    def test_every_claim_present_once(self):
        rep = paper_report()
        ids = [e.claim_id for e in rep.entries]
        assert ids == ["two-clock-300nm", "fractional-uncertainty",
                       "array-1e6-800nm", "array-1e23-1fm",
                       "mossbauer-linewidth", "mossbauer-atom-count",
                       "earth-gamma-i", "earth-gamma-z"]
        assert len(set(ids)) == 8

    def test_every_row_tagged_and_one_closest(self):
        rep = paper_report()
        for entry in rep.entries:
            assert sum(r.closest for r in entry.rows) == 1
            for row in entry.rows:
                assert row.convention in ("direct", "times-two-pi")
                assert row.formula_id

    def test_two_clock_claim_status(self):
        entry = paper_report().claim("two-clock-300nm")
        assert entry.status == "reproduced"
        best = entry.closest_row()
        assert best.convention == "direct"
        assert best.value == approx(1.4522715257757183e-42, rel=1e-6)

    def test_ambiguous_claims_have_four_mode_convention_combos(self):
        rep = paper_report()
        for claim_id in ("array-1e23-1fm", "mossbauer-linewidth",
                         "mossbauer-atom-count"):
            rows = rep.claim(claim_id).rows
            combos = {(r.convention, r.mode) for r in rows}
            assert combos == {("direct", "pairwise"), ("direct", "global"),
                              ("times-two-pi", "pairwise"),
                              ("times-two-pi", "global")}

    def test_atom_count_inversion_round_trip(self):
        n = atoms_for_target_rate(1e-3, 3, 1e-10, 8e17, "pairwise")
        back = array_minimum_rate(n, 3, 1e-10, 8e17, "pairwise")
        assert back == approx(1e-3, rel=1e-9)
        n_g = atoms_for_target_rate(1e-3, 3, 1e-10, 8e17, "global")
        back_g = array_minimum_rate(n_g, 3, 1e-10, 8e17, "global")
        assert back_g == approx(1e-3, rel=1e-9)

    CLAIM_PRESETS = {
        "two-clock-300nm": "petahertz-pair", "fractional-uncertainty": "petahertz-pair",
        "array-1e6-800nm": "optical-lattice-1e6", "array-1e23-1fm": "dense-matter-1e23",
        "mossbauer-linewidth": "silver-mossbauer", "mossbauer-atom-count": "silver-mossbauer",
        "earth-gamma-i": "earth-clock", "earth-gamma-z": "earth-clock",
    }

    @staticmethod
    def public_value(row, p):
        """The value of `row` from the public call its formula id names."""
        w = float(apply_convention(p["quoted_frequency"], row.convention))
        if row.formula_id.endswith("-continuum"):
            return array_minimum_rate(p["n_clocks"], row.dimension, p["lattice_constant"],
                                      w, row.mode)
        if row.formula_id.endswith("-inverted"):
            return atoms_for_target_rate(1e-3, 3, p["lattice_constant"], w, row.mode)
        if row.formula_id.startswith("bound-"):
            gi, gz = bound_parameters(p["dephasing_cap"], p["mass"], p["distance"], w)
            return float(gi if row.formula_id == "bound-feedback-term" else gz)
        half = float(pair_interaction_rate(ClockSpec(w, (0.0, 0.0, 0.0)),
                                           ClockSpec(w, (p["separation"], 0.0, 0.0)))) / 2.0
        return {"pair-rate-half": half, "rate-over-omega": half / w}[row.formula_id]

    def test_every_row_is_the_public_call_its_formula_names(self):
        for entry in paper_report().entries:
            p = PRESETS[self.CLAIM_PRESETS[entry.claim_id]]
            for row in entry.rows:
                assert row.value.hex() == self.public_value(row, p).hex(), (entry.claim_id, row)
                if row.formula_id.endswith(("-continuum", "-inverted")):
                    assert row.formula_id.startswith(row.mode)

    def test_json_dict_holds_every_field_as_asdict_does(self):
        report = paper_report()
        got = report.to_json_dict()
        assert got == {"entries": [dict(dataclasses.asdict(e), rows=[
            dataclasses.asdict(r) for r in e.rows]) for e in report.entries]}
        got["entries"][0]["rows"][0]["value"] = None  # a copy, not the report's fields
        assert report.entries[0].rows[0].value is not None

    def test_rows_are_convention_major(self):
        for entry in paper_report().entries:
            half = len(entry.rows) // 2
            assert [r.convention for r in entry.rows] == (
                ["direct"] * half + ["times-two-pi"] * half)
            assert ([(r.mode, r.dimension, r.formula_id) for r in entry.rows[:half]]
                    == [(r.mode, r.dimension, r.formula_id) for r in entry.rows[half:]])

    def test_each_preset_is_evaluated_once_per_convention(self, monkeypatch):
        calls = []
        monkeypatch.setattr(report, "_EVALUATORS", {
            key: (lambda p, w, key=key, evaluate=evaluate:
                  calls.append((key, w)) or evaluate(p, w))
            for key, evaluate in report._EVALUATORS.items()})
        paper_report()
        assert sorted(calls) == sorted(
            (key, float(apply_convention(p["quoted_frequency"], conv)))
            for key, p in PRESETS.items() for conv in report.CONVENTIONS)


def test_emit_plot_data_empty_is_header_only():
    data = emit_plot_data([]).decode()
    assert data == "N,D,mode,case,rate,fit_model,fit_param\r\n"


def test_emit_plot_data_rows():
    data = emit_plot_data([{"N": 125, "D": 3, "mode": "global", "case": "A-free",
                            "rate": 1.5e-40, "fit_model": "power-law",
                            "fit_param": 1 / 6}]).decode()
    lines = data.splitlines()
    assert lines[1].startswith("125,3,global,A-free,1.5e-40,power-law")


# -- the CLI contract as a property --------------------------------------------------

_CONTRACT_NUMBERS = ([3e-7, 1e-6, 0.1, 0.5, 1.0, 2.0, 3.0, 1e15],
                     [0.0, 1e-320, 1e-300, 1e-170, 1e100, 1e154, 1e160, 1e200, 1e300,
                      -1.0, math.nan, math.inf])
_CONTRACT_STEMS = ["x", "run.1", "..", ".", "a b", "é", "../escaped", "sub/x", "sub\\x", "/abs",
                   "x" * 300]
# sizes are kept small: a large count or num allocates before any check runs
_CONTRACT_INTEGERS = {"num": st.integers(2, 64), "fit_clock": st.integers(0, 7),
                      "counts": st.integers(1, 6), "sides": st.sampled_from([3, 4, 5, 7, 9])}


def _at_most_six_sites(counts):
    """Lattice counts, each capped so that they multiply to at most 6."""
    room, capped = 6, []
    for count in counts:
        capped.append(type(count)(min(count, room)))
        room //= int(capped[-1])
    return capped


def _contract_value(schema, n, key=None):
    """A strategy for values of `schema`, mostly valid ones, with every list of
    numbers, and every matrix of them, sized for n clocks."""
    if "oneOf" in schema and "properties" not in schema:
        return st.one_of([_contract_value(branch, n, key) for branch in schema["oneOf"]])
    if "const" in schema:
        return st.just(schema["const"])
    if "enum" in schema:
        ints = [float(v) for v in schema["enum"] if type(v) is int]
        return st.sampled_from(schema["enum"] + ints)
    kind = schema.get("type")
    if kind == "boolean":
        return st.booleans()
    if kind == "number":  # an ordinary value 3 times in 4; NaN passes a minimum
        low = schema.get("minimum", -math.inf)
        above = schema.get("exclusiveMinimum", -math.inf)
        pools = [[x for x in pool if not (x < low or x <= above)]
                 for pool in _CONTRACT_NUMBERS]
        return st.sampled_from([0, 0, 0, 1]).flatmap(lambda k: st.sampled_from(pools[k]))
    if kind == "integer":  # an integral float is an integer too
        ints = _CONTRACT_INTEGERS[key]
        return st.one_of(ints, ints.map(float))
    if kind == "string":
        if key == "stem":
            return st.sampled_from(_CONTRACT_STEMS)
        return st.sampled_from(["plus", "zero", "one", "minus", "plus-i", "sideways"])
    if kind == "array":
        items = schema["items"]
        lo, hi = schema.get("minItems", 1), schema.get("maxItems", 6)
        if key == "counts":
            return st.lists(_contract_value(items, n, key), min_size=lo,
                            max_size=hi).map(_at_most_six_sites)
        if key == "sides":
            return st.lists(_contract_value(items, n, key), min_size=4, max_size=5)
        if items.get("type") == "array" and "minItems" not in items:  # an N x N matrix
            cell = _contract_value(items["items"], n)
            return st.lists(cell, min_size=n * n, max_size=n * n).map(
                lambda cells: [[0.0 if i == j else cells[n * min(i, j) + max(i, j)]
                                for j in range(n)] for i in range(n)])
        size = st.just(lo) if lo == hi else st.one_of(st.just(n), st.integers(lo, hi))
        return size.flatmap(lambda k: st.lists(_contract_value(items, n, key),
                                               min_size=k, max_size=k))
    # an object: every required property, some optional ones, and one key of
    # each oneOf of required keys
    properties = schema["properties"]
    required = set(schema.get("required", ()))
    choices = [b["required"][0] for b in schema.get("oneOf", ())]
    optional = sorted(properties.keys() - required - set(choices))
    return st.tuples(st.sampled_from(choices or [None]),
                     st.lists(st.sampled_from(optional), unique=True) if optional
                     else st.just([])).flatmap(
        lambda pick: st.fixed_dictionaries({
            k: _contract_value(properties[k], n, k)
            for k in sorted(required | set(pick[1]) | ({pick[0]} - {None}))}))


def _keep_the_unwritten_rules(draw, kind, params, n):
    """Make `params` keep the rules that the schema cannot state, so that most
    drawn configs reach the computation."""
    if kind == "rates":  # a gamma block exactly for given rates, of the mode's shape
        params.pop("gamma", None)
        if params["case"] == "given-rates":
            mode = params["mode"]
            params["gamma"] = {mode: draw(_contract_value(_GAMMA_SCHEMA["properties"][mode], n))}
    geometry = params.get("geometry", {})
    lattice = geometry.get("lattice")
    if lattice and type(lattice["dimension"]) is int:  # one count per axis
        lattice["counts"] = (lattice["counts"] + [1, 1])[:lattice["dimension"]]
    clocks = geometry.get("clocks", [])
    if not all("rest_mass" in clock for clock in clocks):  # masses: all or none
        for clock in clocks:
            clock.pop("rest_mass", None)
    if "sides" in params:  # odd sides
        params["sides"] = [side | 1 for side in map(int, params["sides"])]
    if kind == "simulate":  # one state and frequency per coupled clock, rates of the kind
        size = len(params.get("coupling_matrix", [[0.0, 1.0], [1.0, 0.0]]))
        for key in ("initial_state", "omegas"):
            if key in params:
                params[key] = (params[key] * size)[:size]
        if type(params.get("gamma")) is dict and params["kind"][4:] not in params["gamma"]:
            params["gamma"] = "optimal"


@st.composite
def contract_configs(draw):
    """(subcommand, convention flag, config) drawn from SCENARIO_SCHEMA, three
    in four keeping the rules that it cannot state."""
    kind = draw(st.sampled_from(SCENARIO_SCHEMA["properties"]["kind"]["enum"]))
    n = draw(st.integers(1, 6))
    config = {"kind": kind,
              "parameters": draw(_contract_value(_PARAMETER_SCHEMAS[kind], n))}
    for key in ("convention", "output"):
        if draw(st.booleans()):
            config[key] = draw(_contract_value(SCENARIO_SCHEMA["properties"][key], n, key))
    if draw(st.integers(0, 3)):
        _keep_the_unwritten_rules(draw, kind, config["parameters"], n)
    subcommand = next(s for s, k in cli._SUBCOMMANDS.items() if k == kind)
    return subcommand, draw(st.sampled_from([None, "direct", "2pi", "both"])), config


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=250, deadline=None)
@given(contract_configs())
def test_cli_contract(case):
    subcommand, convention, config = case
    flag = [] if convention is None else ["--convention", convention]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg, out = root / "cfg.json", root / "out"
        cfg.write_text(json.dumps(config), encoding="utf-8")  # NaN and Infinity too
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main([*flag, subcommand, "--config", str(cfg), "--out", str(out)])
        err = stderr.getvalue()
        assert code in (0, 2, 3), err
        assert "Traceback" not in err and "Warning" not in err, err
        assert {p.name for p in root.iterdir()} <= {"cfg.json", "out"}
        files = sorted(out.iterdir()) if out.exists() else []
        if code != 0:
            assert files == [], err
            return
        assert files and all(p.is_file() for p in files)
        assert [str(p) for p in files] == sorted(stdout.getvalue().split("\n")[:-1])
        for path in files:
            text = path.read_text(encoding="utf-8")
            if path.suffix == ".json":
                json.loads(text, parse_constant=_refuse_constant)
            else:
                assert path.suffix == ".csv" and list(csv.reader(io.StringIO(text)))
