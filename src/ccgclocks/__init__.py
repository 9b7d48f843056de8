"""Dephasing of gravitationally coupled two-level clocks under a classical
information channel: minimum rates, scaling laws, exact open-system dynamics
and the gravitational-redshift sector.

Public names are imported from their module on first use (PEP 562), so a
scenario run loads only the modules its kind needs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# module -> the public names it exports here
_EXPORTS = {
    "constants": (
        "CONSTANTS", "AngularFrequency", "FrequencyConvention", "PhysicalConstants",
        "PositionMeasurementRate", "Rate", "apply_convention"),
    "geometry": (
        "ClockArray", "ClockSpec", "LatticeInfo", "PairRateMatrix", "build_lattice",
        "pair_interaction_rate", "pair_rate_matrix"),
    "rates": (
        "DephasingReport", "MeasurementRates", "OptimizeError", "dephasing_given_rates",
        "min_dephasing_global_A", "min_dephasing_global_B", "min_dephasing_pairwise_A",
        "min_dephasing_pairwise_B", "optimize_rates"),
    "continuum": (
        "ContinuumEstimate", "ScalingFit", "SweepPoint", "compare_sum_vs_integral",
        "continuum_sum", "fit_scaling", "lattice_sum_exact", "scaling_rate_sweep"),
    "lindblad": (
        "CoherenceTrace", "DensityMatrix", "EvolutionModel", "NumericEvolution",
        "build_model", "coherence_decay_rate", "dimensionless_model", "evolve_exact",
        "evolve_numeric", "negativity", "product_state_coherence", "simulate_coherence",
        "single_clock_coherences"),
    "redshift": (
        "CompositeBody", "ExplicitAtoms", "RedshiftDephasing", "ShellShape",
        "bound_parameters", "composite_dephasing", "internal_measurement_rate",
        "redshift_coupling", "shell_dephasing", "simple_particle_dephasing"),
    "report": ("PaperReport", "paper_report"),
    "scenarios": (
        "SCENARIO_SCHEMA", "emit_plot_data", "run_scenario", "validate_scenario"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name in _EXPORTS:  # a submodule resolves without its own import statement
        return _import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
