"""Workload process: runs one workload's operations in a closed loop.

Started by run.py with the BLAS thread variables already set, so that numpy
reads them at import. Prints one JSON object with the raw measurements on its
last stdout line; run.py turns them into metrics.

    python3 benchmark/worker.py --workload arrays --seed 1 --seconds 20 \
        --trace 0 --root . --workdir .bench_work/123
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 4     # with 25 operations a round, at least 100 timed operations
PACKAGE_MODULES = ("cli", "constants", "continuum", "geometry", "lindblad",
                   "rates", "redshift", "report", "scenarios")


def import_package(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("ccgclocks")
    if Path(pkg.__file__).resolve().parent != src / "ccgclocks":
        raise SystemExit(f"imported ccgclocks from {pkg.__file__}, not from {src}")
    for name in PACKAGE_MODULES:
        importlib.import_module(f"ccgclocks.{name}")
    return pkg


def blas_info() -> str:
    import numpy as np
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{cfg.get('name')} {cfg.get('version')}"
    except Exception:  # older numpy without mode="dicts"
        return "unknown"


def run_op(op):
    """Time one call; returns (seconds, result, failure message or None)."""
    op.prepare()
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a failing operation is counted, not fatal
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, result, op.failure(result)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args()

    pkg = import_package(args.root)
    import numpy as np
    load = workloads.build(args.workload, args.seed, pkg, args.workdir)
    ops = load.ops
    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # failures: operations that raised or exited non-zero; errors: outputs
    # that disagree with a check (these make the run incorrect)
    failures, errors, failed, attempted = [], [], 0, 0
    reference = {}
    # warm-up round: fills lazy caches, and is the round whose artifacts are
    # checked against the independent computations
    for op in ops:
        _, result, failure = run_op(op)
        attempted += 1
        if failure is not None:
            failed += 1
            failures.append(f"{op.name}: {failure}")
            continue
        reference[op.name] = op.collect(result)
        try:
            op.check(reference[op.name])
        except checks.CheckError as exc:
            errors.append(f"{op.name}: check failed: {exc}")
        except Exception:  # a check that crashes is a failed check
            errors.append(f"{op.name}: check crashed: {traceback.format_exc()}")
    for group in load.group_checks:
        try:
            group(reference)
        except KeyError:
            pass  # an operation it needs failed; already counted
        except checks.CheckError as exc:
            errors.append(f"group check failed: {exc}")

    recorder = spans.Recorder() if args.trace else None
    # per-operation latencies in seconds, untraced and traced rounds apart
    latencies = [[] for _ in ops]
    traced_latencies = [[] for _ in ops]
    traced_walls = []
    self_totals = dict.fromkeys(spans.SELF_TIME_METRICS, 0.0)
    count_totals = dict.fromkeys(spans.COUNT_METRICS, 0)
    span_total = 0
    begin = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - begin < args.seconds:
        traced = recorder is not None and rounds % 2 == 1
        gc.collect()
        if traced:
            mark, before = recorder.mark()
            recorder.install()
        round_wall = 0.0
        for k, op in enumerate(ops):
            elapsed, result, failure = run_op(op)
            attempted += 1
            round_wall += elapsed
            if failure is not None:
                failed += 1
                failures.append(f"{op.name}: {failure}")
                continue
            (traced_latencies if traced else latencies)[k].append(elapsed)
            if op.name in reference and op.collect(result) != reference[op.name]:
                errors.append(f"{op.name}: rerun artifacts differ from the first run")
        if traced:
            recorder.uninstall()
            traced_walls.append(round_wall)
            for k, v in recorder.self_times(mark).items():
                self_totals[k] += v
            for k, v in recorder.counts_since(before).items():
                count_totals[k] += v
            span_total += len(recorder.spans) - mark
        rounds += 1

    out = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "failures": sorted(set(failures))[:20],
        "ops_per_round": len(ops),
        "rounds": rounds,
        "op_names": [op.name for op in ops],
        "latencies_s": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_rss_mb": setup_rss_mb,
        "numpy": np.__version__,
        "blas": blas_info(),
    }
    if recorder is not None:
        n = len(traced_walls)
        out["traced_walls_s"] = traced_walls
        out["traced_latencies_s"] = traced_latencies
        out["self_s"] = {k: v / n for k, v in self_totals.items()}
        out["counts"] = {k: v / n for k, v in count_totals.items()}
        out["spans_per_round"] = span_total / n
        if args.spans_out is not None:
            recorder.write_jsonl(args.spans_out)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
