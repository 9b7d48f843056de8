"""In-memory span recorder wrapped around the package's public entry points.

Each span records its metric name, start, end and parent span. A layer's self
time is the span's duration minus the time its direct child spans cover; since
the benchmark is single-threaded, spans nest strictly and the children's
durations can simply be summed. Wrappers are installed into every module of
the package that holds a reference to the wrapped object, and removed again
for untraced rounds, so untraced timings carry no wrapper cost at all.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field

# metric name -> list of "module:qualname" targets whose calls it times.
# A target missing from the package (a private helper that a later version
# removes) is skipped; README.md lists which targets are private.
SPAN_TARGETS = {
    "geometry.lattice_s": [
        "geometry:build_lattice", "geometry:ClockArray.__init__",
        "geometry:ClockArray.from_clocks", "geometry:ClockSpec.__post_init__"],
    "geometry.pair_matrix_s": [
        "geometry:pair_rate_matrix", "geometry:PairRateMatrix.__post_init__"],
    "rates.closed_form_s": [
        "rates:min_dephasing_pairwise_A", "rates:min_dephasing_pairwise_B",
        "rates:min_dephasing_global_A", "rates:min_dephasing_global_B",
        "rates:dephasing_given_rates"],
    "rates.measurement_rates_s": ["rates:MeasurementRates.__post_init__"],
    "rates.optimize_s": ["rates:optimize_rates"],
    "continuum.sweep_s": [
        "continuum:scaling_rate_sweep", "continuum:compare_sum_vs_integral",
        "continuum:continuum_sum"],
    "continuum.exact_sum_s": [
        "continuum:lattice_sum_exact", "continuum:_center_sum_fast"],
    "continuum.fit_s": ["continuum:fit_scaling"],
    "lindblad.state_s": ["lindblad:DensityMatrix.__init__"],
    "lindblad.model_s": ["lindblad:dimensionless_model", "lindblad:build_model"],
    "lindblad.simulate_s": ["lindblad:simulate_coherence"],
    "lindblad.evolve_exact_s": ["lindblad:evolve_exact"],
    "lindblad.oracle_s": ["lindblad:evolve_numeric"],
    "lindblad.fit_s": ["lindblad:coherence_decay_rate"],
    "lindblad.negativity_s": ["lindblad:negativity"],
    "redshift.composite_s": [
        "redshift:composite_dephasing", "redshift:ExplicitAtoms.__post_init__"],
    "redshift.closed_form_s": [
        "redshift:shell_dephasing", "redshift:simple_particle_dephasing"],
    "report.paper_report_s": ["report:paper_report"],
    "scenarios.validate_s": ["scenarios:validate_scenario"],
    "scenarios.self_s": ["scenarios:run_scenario"],
    "cli.self_s": ["cli:main"],
}

# Objective evaluations inside optimize_rates go through these private
# kernels; they are counted, not timed, because a span per evaluation would
# cost as much as the evaluation itself.
OBJECTIVE_KERNELS = ["rates:_pairwise_per_clock", "rates:_global_per_clock"]

SELF_TIME_METRICS = tuple(SPAN_TARGETS)
# counter -> unit
COUNT_METRICS = {"geometry.pairs": "count", "rates.optimize_calls": "count",
                 "continuum.terms": "count", "lindblad.matrix_entries": "count",
                 "redshift.atoms": "count", "scenarios.artifact_bytes": "bytes"}


def _count_args(target: str, args, result):
    """(metric, amount) pairs a call adds to the layer counters."""
    name = target.split(":")[1]
    if name == "PairRateMatrix.__post_init__":
        n = args[0].g.shape[0]
        return [("geometry.pairs", n * (n - 1))]
    if name == "lattice_sum_exact":
        return [("continuum.terms", len(args[0]) - 1)]
    if name == "_center_sum_fast":
        dim, side = args[0], args[1]
        return [("continuum.terms", side ** dim - 1)]
    if name in ("evolve_exact", "evolve_numeric"):
        return [("lindblad.matrix_entries", 4 ** args[0].n_clocks)]
    if name == "composite_dephasing":
        shape = args[0].shape
        if hasattr(shape, "positions"):
            return [("redshift.atoms", len(shape.positions))]
    if name == "run_scenario":
        return [("scenarios.artifact_bytes",
                 sum(p.stat().st_size for p in result))]
    return []


@dataclass
class Span:
    metric: str
    start: float
    end: float = math.nan
    parent: int = -1
    child_time: float = 0.0


@dataclass
class Recorder:
    """Collects spans and counters while its wrappers are installed."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, target: str, metric: str, func):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = Span(metric, 0.0, parent=stack[-1] if stack else -1)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_time += span.end - span.start
            for key, amount in _count_args(target, args, result):
                counts[key] = counts.get(key, 0) + amount
            return result

        return wrapper

    def _wrap_counter(self, func):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if any(spans[i].metric == "rates.optimize_s" for i in stack):
                counts["rates.optimize_calls"] = \
                    counts.get("rates.optimize_calls", 0) + 1
            return func(*args, **kwargs)

        return wrapper

    def install(self, package: str = "ccgclocks") -> None:
        """Replace every reference to each target across the package."""
        if self._patches:
            raise RuntimeError("wrappers are already installed")
        modules = [m for name, m in sys.modules.items()
                   if (name == package or name.startswith(package + "."))
                   and m is not None]
        targets = [(t, metric) for metric, ts in SPAN_TARGETS.items() for t in ts]
        targets += [(t, None) for t in OBJECTIVE_KERNELS]
        for target, metric in targets:
            mod_name, qualname = target.split(":")
            module = sys.modules.get(f"{package}.{mod_name}")
            if module is None:
                continue
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or attr not in vars(cls):
                    continue
                raw = vars(cls)[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(target, metric, raw.__func__))
                else:
                    new = self._wrap(target, metric, raw)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            func = getattr(module, qualname, None)
            if func is None:
                continue
            new = (self._wrap_counter(func) if metric is None
                   else self._wrap(target, metric, func))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, new)
                    elif isinstance(value, dict):
                        # dispatch tables such as scenarios._CLOSED_FORMS
                        for key, entry in list(value.items()):
                            if entry is func:
                                self._patches.append((value, key, entry))
                                value[key] = new

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._patches.clear()

    # -- summaries --------------------------------------------------------------

    def mark(self) -> tuple[int, dict]:
        """Position to summarize from: span count and a copy of the counters."""
        return len(self.spans), dict(self.counts)

    def self_times(self, since: int = 0) -> dict:
        """Self time per metric over spans recorded after `since`."""
        out = dict.fromkeys(SELF_TIME_METRICS, 0.0)
        for span in self.spans[since:]:
            out[span.metric] += (span.end - span.start) - span.child_time
        return out

    def counts_since(self, before: dict) -> dict:
        return {k: self.counts.get(k, 0) - before.get(k, 0) for k in COUNT_METRICS}

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for k, s in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": s.metric, "start": s.start,
                                     "end": s.end, "parent": s.parent}) + "\n")
