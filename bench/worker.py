"""One benchmark process: a set-up probe, or the closed-loop scenario runs.

    python3 bench/worker.py setup --workload W --seed N
    python3 bench/worker.py run --workload W --seed N --seconds S \
        --trace 0|1 --out DIR

Both import ``ymcone`` from ``src/`` of the checkout this file sits in and
print one JSON object.  ``bench/run.py`` starts them with the BLAS thread
count already set in the environment, before numpy loads.

``run`` repeats one scenario -- a parsed config through ``runner.run`` and
``runner.emit`` to a checked ``report.json`` plus CSVs -- until ``--seconds``
have passed, one repetition after the other.  With ``--trace 1`` every
second repetition runs with the spans of ``tracing.py`` installed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_program():
    sys.path.insert(0, SRC)
    import ymcone.runner
    origin = os.path.realpath(ymcone.runner.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"ymcone was imported from {origin}, not from {SRC}")
    return ymcone


def setup_probe(workload, seed):
    """Fresh-process set-up: import, parse, chart, algebra, grid or lattice."""
    doc = workloads.scenario(workload, seed)
    t0 = time.perf_counter()
    import_program()
    t_import = time.perf_counter()
    from ymcone import evolution, geometry, runner, sphere
    scn = runner.parse_config(doc)
    geometry.make_chart(scn.chart_name, **scn.chart_params)
    runner.make_algebra(scn.algebra)
    if workloads.builds_cone(workload):
        sphere.SphereGrid(scn.cone["n_theta"], scn.cone["n_phi"])
    else:
        evolution.Lattice2D(scn.evolution["n"], scn.evolution["length"])
    done = time.perf_counter()
    return {"setup_s": done - t0, "import_s": t_import - t0}


def _blas_threads():
    """Threads the OpenBLAS bundled with numpy reports, None if not found."""
    import ctypes
    import glob
    import numpy as np
    site = os.path.dirname(os.path.dirname(np.__file__))
    for path in glob.glob(os.path.join(site, "numpy.libs",
                                       "libscipy_openblas*.so*")):
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def run_record():
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_in_use": _blas_threads(),
        "thread_cap": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_workload(workload, seed, seconds, trace, out_root):
    import_program()
    from ymcone import runner
    import checks
    import tracing

    doc = workloads.scenario(workload, seed)
    scn = runner.parse_config(doc)
    n_experiments = len(scn.experiments)
    walls = {False: [], True: []}
    layer_samples, spans = [], []
    problems = checks.check_targets(workload, doc)
    attempted = failed = scenarios_failed = 0
    first_raw = None
    begin = time.perf_counter()
    rep = 0
    while True:
        traced = bool(trace) and rep % 2 == 1
        out_dir = os.path.join(out_root, f"rep{rep}")
        tracer = tracing.Tracer() if traced else None
        t0 = time.perf_counter()
        if traced:
            tracer.install()
        try:
            report = runner.run(scn)
            runner.emit(report, out_dir)
        finally:
            if traced:
                tracer.uninstall()
        outputs = checks.load_outputs(out_dir)
        bad = checks.failed_experiments(outputs)
        found = checks.check_outputs(workload, doc, outputs, skip=bad)
        if first_raw is None:
            first_raw = outputs["raw"]
        found += checks.check_identical(first_raw, outputs["raw"])
        wall = time.perf_counter() - t0
        shutil.rmtree(out_dir)

        attempted += n_experiments
        failed += len(bad)
        scenarios_failed += bool(bad)
        problems += [f"rep {rep}: {p}" for p in found]
        walls[traced].append(wall)
        if traced:
            if tracing.span_self_total(tracer) > wall:
                problems.append(f"rep {rep}: self times sum past the wall")
            missing = set(workloads.LAYERS[workload]) \
                - tracing.layers_reached(tracer)
            if missing:
                problems.append(f"rep {rep}: no span from {sorted(missing)}")
            layers = tracing.layer_metrics(tracer)
            if layer_samples and any(layers[k] != layer_samples[0][k]
                                     for k in tracing.EXACT):
                problems.append(f"rep {rep}: counts differ from the first "
                                f"traced repetition")
            layer_samples.append(layers)
            spans.append({"rep": rep, "wall_s": wall,
                          "spans": tracer.to_json()})
        rep += 1
        enough = len(walls[False]) >= 3 and (not trace or len(walls[True]) >= 2)
        # stop when another repetition like the last would overrun --seconds
        if enough and time.perf_counter() - begin + wall > seconds:
            break

    result = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "scenarios": rep, "scenarios_failed": scenarios_failed,
        "attempted": attempted, "failed": failed,
        "problems": problems,
        "scenario_s": statistics.median(walls[False]),
        "scenario_walls": walls[False],
        "traced_walls": walls[True],
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "record": run_record(),
    }
    if trace:
        layers = tracing.median_metrics(layer_samples)
        layers["trace.overhead_s"] = statistics.median(walls[True]) \
            - result["scenario_s"]
        result["per_layer"] = layers
        with open(os.path.join(out_root, "spans.json"), "w") as fh:
            json.dump(spans, fh)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
