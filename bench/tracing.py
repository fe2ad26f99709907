"""Outside-in spans around the program's public functions.

``Tracer.install`` replaces module attributes and class methods of the
``ymcone`` package with wrappers that record one span per call (name,
parent, start, end) and add work counts read off the arguments.  The
program looks these names up at call time (``geometry.christoffel(...)``,
``bundle.optical()``, ``basis.bracket(...)``), so its internal calls are
seen too.  ``uninstall`` puts the originals back, so untraced repetitions
run the program exactly as shipped.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

# (metric, unit, better) for every per-layer figure, in report order; the
# traced run prints exactly these, and BENCHMARK.json lists the same names
PER_LAYER = (
    ("runner.import_s", "s", "lower"),
    ("runner.run.self_s", "s", "lower"),
    ("runner.run.cpu_s", "s", "lower"),
    ("runner.emit_s", "s", "lower"),
    ("nullcone.bundles", "count", "lower"),
    ("nullcone.nodes", "count", "lower"),
    ("nullcone.fan.self_s", "s", "lower"),
    ("nullcone.optical.self_s", "s", "lower"),
    ("nullcone.optical.calls", "count", "lower"),
    ("nullcone.mass_aspect.total_s", "s", "lower"),
    ("nullcone.null_frames.self_s", "s", "lower"),
    ("sphere.dtheta.self_s", "s", "lower"),
    ("sphere.dtheta.calls", "count", "lower"),
    ("sphere.dtheta.values", "count", "lower"),
    ("sphere.dphi.self_s", "s", "lower"),
    ("sphere.dphi.calls", "count", "lower"),
    ("sphere.dphi.values", "count", "lower"),
    ("geometry.christoffel.self_s", "s", "lower"),
    ("geometry.christoffel.calls", "count", "lower"),
    ("geometry.christoffel.points_per_node", "points/node", "lower"),
    ("geometry.inverse_metric.self_s", "s", "lower"),
    ("geometry.inverse_metric.points_per_node", "points/node", "lower"),
    ("geometry.riemann.self_s", "s", "lower"),
    ("geometry.riemann.calls", "count", "lower"),
    ("geometry.riemann.points_per_node", "points/node", "lower"),
    ("parametrix.assemble_representation.self_s", "s", "lower"),
    ("parametrix.assemble_representation.calls", "count", "lower"),
    ("parametrix.transport_weight.self_s", "s", "lower"),
    ("parametrix.screen_laplacian.self_s", "s", "lower"),
    ("parametrix.angular_gauge_derivative.self_s", "s", "lower"),
    ("parametrix.angular_gauge_derivative.calls", "count", "lower"),
    ("parametrix.raise_two_form.self_s", "s", "lower"),
    ("parametrix.raise_two_form.calls", "count", "lower"),
    ("parametrix.sample_field.self_s", "s", "lower"),
    ("parametrix.sample_field.calls", "count", "lower"),
    ("liegauge.wave_source.self_s", "s", "lower"),
    ("liegauge.wave_source.calls", "count", "lower"),
    ("liegauge.bracket.self_s", "s", "lower"),
    ("liegauge.bracket.calls", "count", "lower"),
    ("energy.divergence_identity_report.total_s", "s", "lower"),
    ("energy.cone_flux.self_s", "s", "lower"),
    ("energy.flux_density_frame.self_s", "s", "lower"),
    ("energy.slice_energy.self_s", "s", "lower"),
    ("energy.bulk_term.self_s", "s", "lower"),
    ("evolution.step.self_s", "s", "lower"),
    ("evolution.rk4_steps", "count", "lower"),
    ("evolution.site_steps_per_s", "1/s", "higher"),
    ("bounds.pachpatte_envelope.self_s", "s", "lower"),
    ("bounds.picard_envelope.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

#: metrics that must repeat exactly from one traced repetition to the next
EXACT = tuple(name for name, unit, _ in PER_LAYER
              if unit in ("count", "points/node"))


def _points(x):
    """Points in a batch: the product of all but the last axis of x."""
    return math.prod(np.shape(x)[:-1])


def _count_bundle(counts, args, kwargs, result):
    bundle = args[0]
    counts["nullcone.bundles"] += 1
    counts["nullcone.nodes"] += math.prod(bundle.x.shape[:-1])


def _count_values(key):
    def count(counts, args, kwargs, result):
        counts[key] += args[1].size
    return count


def _count_points(key):
    def count(counts, args, kwargs, result):
        counts[key] += _points(args[1] if len(args) > 1 else kwargs["x"])
    return count


def _count_steps(counts, args, kwargs, result):
    state = args[0]
    n_steps = args[2] if len(args) > 2 else kwargs.get("n_steps", 1)
    counts["evolution.rk4_steps"] += n_steps
    counts["evolution.site_steps"] += n_steps * state.lattice.n ** 2


def _targets():
    """(owner, attribute, span name, counter) for every wrapped entry point."""
    from ymcone import (bounds, energy, evolution, geometry, liegauge,
                        nullcone, parametrix, runner, sphere)
    bundle, grid = nullcone.NullConeBundle, sphere.SphereGrid
    return [
        (runner, "run", "runner.run", None),
        (runner, "emit", "runner.emit", None),
        (bundle, "__init__", "nullcone.fan", _count_bundle),
        (bundle, "optical", "nullcone.optical", None),
        (bundle, "mass_aspect", "nullcone.mass_aspect", None),
        (bundle, "null_frames", "nullcone.null_frames", None),
        (grid, "dtheta", "sphere.dtheta", _count_values("sphere.dtheta.values")),
        (grid, "dphi", "sphere.dphi", _count_values("sphere.dphi.values")),
        (geometry, "christoffel", "geometry.christoffel",
         _count_points("geometry.christoffel.points")),
        (geometry, "inverse_metric", "geometry.inverse_metric",
         _count_points("geometry.inverse_metric.points")),
        (geometry, "riemann", "geometry.riemann",
         _count_points("geometry.riemann.points")),
        (parametrix, "assemble_representation",
         "parametrix.assemble_representation", None),
        (parametrix, "transport_weight", "parametrix.transport_weight", None),
        (parametrix, "screen_laplacian", "parametrix.screen_laplacian", None),
        (parametrix, "angular_gauge_derivative",
         "parametrix.angular_gauge_derivative", None),
        (parametrix, "raise_two_form", "parametrix.raise_two_form", None),
        (parametrix, "sample_field", "parametrix.sample_field", None),
        (liegauge, "wave_source", "liegauge.wave_source", None),
        (liegauge.AlgebraBasis, "bracket", "liegauge.bracket", None),
        (energy, "divergence_identity_report",
         "energy.divergence_identity_report", None),
        (energy, "cone_flux", "energy.cone_flux", None),
        (energy, "flux_density_frame", "energy.flux_density_frame", None),
        (energy, "slice_energy", "energy.slice_energy", None),
        (energy, "bulk_term", "energy.bulk_term", None),
        (evolution, "step", "evolution.step", _count_steps),
        (bounds, "pachpatte_envelope", "bounds.pachpatte_envelope", None),
        (bounds, "picard_envelope", "bounds.picard_envelope", None),
    ]


class Tracer:
    """Records spans [name, parent, start, end, cpu_start, cpu_end]."""

    CPU_SPANS = ("runner.run",)

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patched = []

    # -- recording ------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        cpu = time.process_time() if name in self.CPU_SPANS else None
        self.spans.append([name, parent, time.perf_counter(), None, cpu, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        span = self.spans[idx]
        span[3] = time.perf_counter()
        if span[4] is not None:
            span[5] = time.process_time()
        self._stack.pop()

    def wrap(self, owner, attr, name, count=None):
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def install(self):
        for owner, attr, name, count in _targets():
            self.wrap(owner, attr, name, count)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def to_json(self):
        keys = ("name", "parent", "start", "end", "cpu_start", "cpu_end")
        return [dict(zip(keys, span)) for span in self.spans]


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Per span: its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for name, parent, start, end, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [end - start - _covered(children[i], start, end)
            for i, (name, parent, start, end, *_) in enumerate(spans)]


#: per-layer figures measured outside a single traced scenario
EXTERNAL = ("runner.import_s", "trace.overhead_s")


def layer_metrics(tracer):
    """Every PER_LAYER figure of one traced scenario, except EXTERNAL."""
    selfs, totals, calls = Counter(), Counter(), Counter()
    cpu = 0.0
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name, _parent, start, end, cpu_start, cpu_end = span
        selfs[name] += own
        totals[name] += end - start
        calls[name] += 1
        if cpu_start is not None:
            cpu += cpu_end - cpu_start
    counts = tracer.counts
    nodes = counts["nullcone.nodes"]

    def per_node(key):
        return counts[key] / nodes if nodes else 0.0

    step_s = totals["evolution.step"]
    out = {
        "runner.run.cpu_s": cpu,
        "runner.emit_s": totals["runner.emit"],
        "nullcone.bundles": counts["nullcone.bundles"],
        "nullcone.nodes": nodes,
        "nullcone.mass_aspect.total_s": totals["nullcone.mass_aspect"],
        "energy.divergence_identity_report.total_s":
            totals["energy.divergence_identity_report"],
        "evolution.rk4_steps": counts["evolution.rk4_steps"],
        "evolution.site_steps_per_s":
            counts["evolution.site_steps"] / step_s if step_s else 0.0,
    }
    for metric, _unit, _better in PER_LAYER:
        if metric in out or metric in EXTERNAL:
            continue
        span, _, kind = metric.rpartition(".")
        if kind == "self_s":
            out[metric] = selfs[span]
        elif kind == "calls":
            out[metric] = calls[span]
        elif kind == "values":
            out[metric] = counts[metric]
        elif kind == "points_per_node":
            out[metric] = per_node(span + ".points")
        else:
            raise KeyError(f"no rule for per-layer metric {metric!r}")
    return out


def layers_reached(tracer):
    return {name.split(".")[0] for name, *_ in tracer.spans}


def span_self_total(tracer):
    return sum(self_times(tracer.spans))


def median_metrics(samples):
    """Per-metric median over traced repetitions (EXTERNAL left out).

    Counts repeat exactly from one repetition to the next (the worker
    checks that), so they are taken from the first one and stay integers.
    """
    return {metric: samples[0][metric] if metric in EXACT
            else statistics.median(s[metric] for s in samples)
            for metric, _unit, _better in PER_LAYER if metric not in EXTERNAL}
