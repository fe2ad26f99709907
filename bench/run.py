"""Benchmark of the ``ymcone`` scenario runner.

    python3 bench/run.py --workload flat-wave --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics (``setup_s``, ``scenario_s``, ``peak_rss_mib``) with
``--trace 0``, the per-layer metrics of ``tracing.PER_LAYER`` with
``--trace 1``.  Every child process gets the BLAS thread count (at most the
CPUs this process may use) in its environment before numpy loads.  Outputs,
spans and the run record go to ``.bench_runs/`` in the checkout.  See
``bench/README.md`` for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import selftest
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(ROOT, ".bench_runs")
WORKER = os.path.join(HERE, "worker.py")

END_TO_END = (("setup_s", "s"), ("scenario_s", "s"), ("peak_rss_mib", "MiB"))
SETUP_PROBES = {0: 5, 1: 3}     # fresh-process set-ups per run, by --trace
CHILD_TIMEOUT_S = 150.0         # hard stop for any one child process
MAX_THREADS = 2                 # BLAS thread cap, never above the CPUs


class BenchError(RuntimeError):
    pass


def child_env():
    cap = max(1, min(MAX_THREADS, len(os.sched_getaffinity(0))))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(cap)
    env.pop("PYTHONPATH", None)      # the worker puts src/ first itself
    return env


def run_child(args, deadline):
    """Run the worker with args; return its JSON result (last stdout line)."""
    timeout = min(CHILD_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        raise BenchError("out of time before starting " + " ".join(args))
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with "
                         f"{proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return (proc.stdout.strip() or None) if proc.returncode == 0 else None


def measure(workload, seed, seconds, trace):
    deadline = time.monotonic() + 170.0
    common = ["--workload", workload, "--seed", str(seed)]
    out_root = os.path.join(RUNS, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    result = run_child(["run", *common, "--seconds", str(seconds),
                        "--trace", str(trace), "--out", out_root], deadline)
    # the probes follow the worker: this box runs faster for ~30 s after an
    # idle spell, so probing first would time set-up in whichever speed
    # regime the pause before the run happened to leave
    probes = [run_child(["setup", *common], deadline)
              for _ in range(SETUP_PROBES[trace])]
    result["setup_s"] = statistics.median(p["setup_s"] for p in probes)
    result["setup_samples"] = [p["setup_s"] for p in probes]
    result["record"]["git_sha"] = git_sha()
    with open(os.path.join(out_root, "record.json"), "w") as fh:
        json.dump(result, fh, indent=1)

    if trace:
        layers = result["per_layer"]
        layers["runner.import_s"] = statistics.median(
            p["import_s"] for p in probes)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _better in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in END_TO_END}
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"record: {json.dumps(result['record'], sort_keys=True)}")
    print(f"{workload} seed {seed}: {result['scenarios']} scenarios "
          f"attempted, {result['scenarios_failed']} failed; "
          f"{result['attempted']} experiments attempted, "
          f"{result['failed']} failed; scenario walls "
          f"{[round(w, 3) for w in result['scenario_walls']]}")
    return {"correct": not result["problems"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "ymcone")):
        print(f"error: no ymcone sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        selftest.run_all(END_TO_END)
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, selftest.SelfTestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
