"""The benchmark tracer in ``bench/`` against the package it wraps."""

import sys
from pathlib import Path

import pytest

from ymcone import runner

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def _bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return tracing, workloads


def test_tracer_wraps_and_restores_every_target():
    # a rename or deletion of a wrapped name fails here, not in a traced run
    tracing, _ = _bench_modules()
    targets = [(owner, attr) for owner, attr, *_ in tracing._targets()]
    assert len(targets) == 27
    before = [_current(owner, attr) for owner, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [_current(owner, attr) for owner, attr in targets]
    finally:
        tracer.uninstall()
    assert all(w is not b for w, b in zip(wrapped, before))
    assert all(_current(owner, attr) is b
               for (owner, attr), b in zip(targets, before))


@pytest.mark.parametrize("name", ["flat-wave", "schwarzschild-coulomb"])
def test_traced_cone_scenario_reaches_every_layer(name):
    # a cone hot path moved off the wrapped names (SphereGrid.dtheta/dphi,
    # say) would silently drop that layer from traced benchmark runs
    tracing, workloads = _bench_modules()
    doc = workloads.scenario(name, 1)
    doc["cone"].update(n_theta=6, n_phi=12, ds=0.05)
    scn = runner.parse_config(doc)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = runner.run(scn)
    finally:
        tracer.uninstall()
    assert not report.partial
    assert set(workloads.LAYERS[name]) <= tracing.layers_reached(tracer)
