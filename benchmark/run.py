"""Benchmark entry point for ccgclocks.

    python3 benchmark/run.py --workload {arrays,dynamics,sweeps} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics when --trace 0, the
per-layer metrics when --trace 1. The line before it is the run record
(machine, versions, thread variables, seed, git sha), which is also written
with the metrics to .bench_results/.

Set-up: setup_s is the median wall time of SETUP_REPEATS fresh interpreters
that each import ccgclocks and run a two-clock rates scenario. The workload
itself runs in one child process (worker.py) with the BLAS thread variables
pinned, in a closed loop, for --seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set for the benchmark's child processes only, and recorded with each result
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
SETUP_REPEATS = 9
IMPORT_REPEATS = 5
DEADLINE_S = 170.0
WORK_DIR = ".bench_work"
RESULTS_DIR = ".bench_results"

WARMUP_CONFIG = {
    "kind": "rates",
    "parameters": {
        "geometry": {"clocks": [
            {"quoted_frequency": 1e15, "position": [0.0, 0.0, 0.0]},
            {"quoted_frequency": 1e15, "position": [3e-7, 0.0, 0.0]}]},
        "mode": "pairwise", "case": "A-free"},
}

SETUP_SNIPPET = """
import sys
sys.path.insert(0, "src")
import ccgclocks
from ccgclocks import cli
raise SystemExit(cli.main(["rates", "--config", sys.argv[1], "--out", sys.argv[2]]))
"""

IMPORT_SNIPPET = """
import json, sys, time
sys.path.insert(0, "src")
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import jsonschema
t2 = time.perf_counter()
import ccgclocks.cli
t3 = time.perf_counter()
print(json.dumps({"cli.import_numpy_s": t1 - t0, "cli.import_jsonschema_s": t2 - t1,
                  "cli.import_own_s": t3 - t2}))
"""

END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def git_sha(root: Path) -> str | None:
    """HEAD of a git checkout, read without running git; None elsewhere."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def remaining(start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - start)
    if left <= 5.0:
        raise BenchError("out of time before the workload finished")
    return left


def measure_setup(root: Path, work: Path, env: dict, start: float) -> list[float]:
    """Wall time of fresh interpreters importing the package and running a
    two-clock rates scenario, each checked against the closed form."""
    cfg = work / "setup.json"
    cfg.write_text(json.dumps(WARMUP_CONFIG), encoding="utf-8")
    times = []
    for k in range(SETUP_REPEATS):
        out = work / f"setup_{k}"
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(cfg), str(out)],
                              cwd=root, env=env, capture_output=True,
                              timeout=remaining(start))
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up scenario failed: {proc.stderr.decode()[-2000:]}")
        checks.check_rates(WARMUP_CONFIG, {p.name: p.read_bytes() for p in out.iterdir()})
    return times


def measure_imports(root: Path, env: dict, start: float) -> dict:
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=root,
                              env=env, capture_output=True, timeout=remaining(start))
        if proc.returncode != 0:
            raise BenchError(f"import timing failed: {proc.stderr.decode()[-2000:]}")
        samples.append(json.loads(proc.stdout.decode().strip().splitlines()[-1]))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def run_worker(args, root: Path, work: Path, env: dict, start: float,
               spans_out: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(root), "--workdir", str(work)]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        stdout, stderr = proc.communicate(timeout=remaining(start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload process overran the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}: "
                         f"{stderr.decode()[-2000:]}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def list_wall(latencies: list[list[float]]) -> float:
    """Time to run the operation list once: the sum of each operation's
    median latency, which a burst of machine noise in one round cannot move."""
    return math.fsum(statistics.median(x) for x in latencies if x)


def end_to_end(raw: dict, setup: list[float]) -> dict:
    flat = [x * 1e3 for op in raw["latencies_s"] for x in op]
    values = {
        "wall_s": list_wall(raw["latencies_s"]),
        "op_p50_ms": statistics.median(flat),
        "op_p90_ms": statistics.quantiles(flat, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(raw: dict, imports: dict) -> dict:
    """Self time per layer and counts, per traced round; the self times plus
    trace.remainder_s add up to trace.wall_s."""
    metrics = {}
    for k, v in raw["self_s"].items():
        metrics[k] = {"value": v, "unit": "s"}
    for k, v in raw["counts"].items():
        metrics[k] = {"value": v, "unit": spans.COUNT_METRICS[k]}
    for k, v in imports.items():
        metrics[k] = {"value": v, "unit": "s"}
    traced = raw["traced_walls_s"]
    wall = statistics.fmean(traced)
    metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
    metrics["trace.remainder_s"] = {
        "value": wall - sum(raw["self_s"].values()), "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": list_wall(raw["traced_latencies_s"]) - list_wall(raw["latencies_s"]),
        "unit": "s"}
    metrics["trace.spans"] = {"value": raw["spans_per_round"], "unit": "count"}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    root = Path.cwd().resolve()
    if not (root / "src" / "ccgclocks" / "__init__.py").is_file():
        print(f"error: no ccgclocks sources under {root / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    work = root / WORK_DIR / str(os.getpid())
    results = root / RESULTS_DIR
    env = child_env(root)
    try:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        results.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            imports = measure_imports(root, env, start)
            raw = run_worker(args, root, work, env, start,
                             results / f"{stem}-spans.jsonl")
            metrics = per_layer(raw, imports)
        else:
            setup = measure_setup(root, work, env, start)
            raw = run_worker(args, root, work, env, start, None)
            metrics = end_to_end(raw, setup)
    except (BenchError, checks.CheckError, subprocess.SubprocessError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(root),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": raw["numpy"],
        "blas": raw["blas"], "pinned_env": PINNED_ENV,
        "rounds": raw["rounds"], "ops_per_round": raw["ops_per_round"],
        "timed_ops": sum(len(x) for x in raw["latencies_s"]),
        "rss_before_first_op_mb": raw["setup_rss_mb"],
        "errors": raw["errors"], "failures": raw["failures"],
    }
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    op_median_ms = {name: statistics.median(x) * 1e3
                    for name, x in zip(raw["op_names"], raw["latencies_s"]) if x}
    (results / f"{stem}.json").write_text(json.dumps(
        {"record": record, "result": result, "op_median_ms": op_median_ms},
        indent=2) + "\n")
    for line in raw["errors"] + raw["failures"]:
        print(line, file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
