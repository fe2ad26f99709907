"""Self-test of the benchmark harness; needs no ``ymcone``.

    python3 bench/selftest.py

Covers the span arithmetic (self time on a synthetic nested call tree and
the per-layer figures built from it) and every correctness check: each is
fed a synthetic output that must pass and then deliberately wrong values
that it must reject.  ``bench/run.py`` runs it before every measurement.
"""

from __future__ import annotations

import copy
import json
import math
import os

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


class SelfTestError(AssertionError):
    pass


def _expect(cond, what):
    if not cond:
        raise SelfTestError(f"harness self-test: {what}")


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _span(name, parent, start, end):
    return [name, parent, start, end, None, None]


def test_self_times():
    # runner.run [0, 10] > fan [1, 4] > christoffel [2, 3]; optical [5, 9]
    spans = [_span("runner.run", None, 0.0, 10.0),
             _span("nullcone.fan", 0, 1.0, 4.0),
             _span("geometry.christoffel", 1, 2.0, 3.0),
             _span("nullcone.optical", 0, 5.0, 9.0),
             _span("runner.emit", None, 10.5, 11.0)]
    own = tracing.self_times(spans)
    for got, want in zip(own, (3.0, 2.0, 1.0, 4.0, 0.5)):
        _expect(_close(got, want), f"self times {own}")
    _expect(_close(sum(own), 10.5), "self times must sum to the root spans")
    # overlapping children count once; a child past its parent is clipped
    spans = [_span("a", None, 0.0, 10.0), _span("b", 0, 1.0, 4.0),
             _span("c", 0, 3.0, 6.0), _span("d", 0, 9.0, 12.0)]
    _expect(_close(tracing.self_times(spans)[0], 10.0 - 5.0 - 1.0),
            "union of child intervals")

    tracer = tracing.Tracer()
    tracer.spans = [
        [*_span("runner.run", None, 0.0, 8.0)[:4], 1.0, 4.5],
        _span("nullcone.fan", 0, 0.5, 2.5),
        _span("geometry.christoffel", 1, 1.0, 1.5),
        _span("geometry.christoffel", 1, 1.5, 2.25),
        _span("evolution.step", 0, 3.0, 5.0),
        _span("runner.emit", None, 8.0, 8.25)]
    tracer.counts.update({"nullcone.bundles": 1, "nullcone.nodes": 100,
                          "geometry.christoffel.points": 400,
                          "evolution.rk4_steps": 10,
                          "evolution.site_steps": 1000})
    m = tracing.layer_metrics(tracer)
    want = {"runner.run.self_s": 4.0, "runner.run.cpu_s": 3.5,
            "runner.emit_s": 0.25, "nullcone.fan.self_s": 0.75,
            "geometry.christoffel.self_s": 1.25,
            "geometry.christoffel.calls": 2,
            "geometry.christoffel.points_per_node": 4.0,
            "geometry.riemann.points_per_node": 0.0,
            "evolution.step.self_s": 2.0, "evolution.rk4_steps": 10,
            "evolution.site_steps_per_s": 500.0, "nullcone.bundles": 1}
    for key, value in want.items():
        _expect(_close(m[key], value), f"{key} = {m[key]}, want {value}")
    names = {name for name, _, _ in tracing.PER_LAYER}
    _expect(set(m) == names - set(tracing.EXTERNAL),
            "layer_metrics must fill every per-layer metric")


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------

def _outputs(report, tables):
    raw = json.dumps(report, sort_keys=True).encode()
    return {"report": report, "raw": raw,
            "csv": {k: [[str(v) for v in row] for row in rows]
                    for k, rows in tables.items()}}


def _s_rows(doc, s_lo):
    ds, s_max = doc["cone"]["ds"], doc["cone"]["s_max"]
    n = int(round(s_max / ds))
    return [i * ds for i in range(n + 1) if i * ds >= s_lo - 1e-12]


def _flat(doc):
    area = [("s", "area", "area_deviation")] + [
        (s, 4 * math.pi * s * s, 0.0) for s in _s_rows(doc, 0.1)]
    e0, e1, flux = 3.0, 0.75, 2.25
    report = {"passed": {e: True for e in doc["experiments"]}, "metrics": {
        "cone_geometry": {"expansion_deviation_max": 3e-14},
        "transport": {"max_deviation_from_seed": 2e-14},
        "parametrix": {"relative_error_max": 1e-15},
        "energy_balance": {"E_start": e0, "E_end": e1, "flux": flux,
                           "bulk": 0.0, "residual": e1 - e0 + flux}}}
    return report, {"cone_geometry": area,
                    "transport": [("s", "r")] + [(0.0, 1.0), (1.0, 1.0)],
                    "parametrix": [("i", "e")] + [(i, 1e-15)
                                                  for i in range(6)],
                    "energy_balance": [("term", "value")]}


def _schwarzschild(doc):
    quartic = checks.vacuum_quartic(workloads.SCHWARZSCHILD_MASS,
                                    doc["vertex"][1])
    area = [("s", "area", "area_deviation")] + [
        (s, 4 * math.pi * s * s * (1 + quartic * s ** 4), quartic * s ** 4)
        for s in _s_rows(doc, 0.1)]
    e0, e1, flux = 0.5, 0.25, 0.25
    report = {"passed": {e: True for e in doc["experiments"]}, "metrics": {
        "cone_geometry": {},
        "parametrix": {},
        "energy_balance": {"E_start": e0, "E_end": e1, "flux": flux,
                           "bulk": 1e-14, "residual": e1 - e0 + flux + 1e-14}}}
    return report, {"cone_geometry": area,
                    "parametrix": [("i", "e")] + [(i, 7e-4)
                                                  for i in range(6)]}


def _lattice(doc):
    t_final = doc["evolution"]["crossings"] * doc["evolution"]["length"]
    rows = [("t", "energy", "constraint")] + [
        (t_final * i / 20, 1.0 + 1e-8 * (i % 3), 1e-6 * (1 + i / 20))
        for i in range(21)]
    env = [("t", "envelope", "picard")] + [(0.1 * i, 1 + 0.01 * i,
                                            1 + 0.01 * i) for i in range(11)]
    report = {"passed": {e: True for e in doc["experiments"]}, "metrics": {
        "evolution": {"energy_drift": 2e-8},
        "bounds": {"riccati_blowup_error": 1e-6}}}
    return report, {"evolution": rows, "bounds": env}


def _set(path, value):
    def edit(report, tables):
        *keys, last = path
        target = report if keys[0] == "report" else tables
        for k in keys[1:]:
            target = target[k]
        target[last] = value(target[last]) if callable(value) else value
    return edit


def _check(workload, make, wrong):
    doc = workloads.scenario(workload, 7)
    report, tables = make(doc)
    found = checks.check_outputs(workload, doc, _outputs(report, tables))
    _expect(not found, f"{workload}: synthetic good output rejected: {found}")
    for label, edit in wrong.items():
        bad_report, bad_tables = copy.deepcopy(report), copy.deepcopy(tables)
        edit(bad_report, bad_tables)
        found = checks.check_outputs(workload, doc,
                                     _outputs(bad_report, bad_tables))
        _expect(found, f"{workload}: check accepted {label}")


def test_checks():
    row = lambda r: (r[0], r[1] * (1 + 1e-3), r[2])   # noqa: E731
    _check(workloads.FLAT_WAVE, _flat, {
        "an area off by 1e-3": _set(("tables", "cone_geometry", 5), row),
        "a reconstruction error of 1e-1": _set(
            ("tables", "parametrix", 3), (2, 1e-1)),
        "a transported norm off by 1e-9": _set(
            ("tables", "transport", 1), (0.0, 1 + 1e-9)),
        "a flat bulk term of 1e-20": _set(
            ("report", "metrics", "energy_balance", "bulk"), 1e-20),
        "an energy residual of 1e-3": _set(
            ("report", "metrics", "energy_balance", "flux"), 2.253),
        "s trchi / 2 off by 1e-6": _set(
            ("report", "metrics", "cone_geometry", "expansion_deviation_max"),
            1e-6),
        "a missing experiment": _set(
            ("report", "passed"), {"cone_geometry": True}),
    })
    _check(workloads.SCHWARZSCHILD_COULOMB, _schwarzschild, {
        "a reconstruction error of 1e-1": _set(
            ("tables", "parametrix", 2), (1, 1e-1)),
        "an s^4 coefficient 5% off": _set(
            ("tables", "cone_geometry"),
            lambda rows: rows[:1] + [(s, a, d * 1.05) for s, a, d in rows[1:]]),
        "an s^2 area law": _set(
            ("tables", "cone_geometry"),
            lambda rows: rows[:1] + [(s, a, d / s ** 2)
                                     for s, a, d in rows[1:]]),
        "a Killing bulk term of 1e-6 E0": _set(
            ("report", "metrics", "energy_balance", "bulk"), 5e-7),
    })
    _check(workloads.SU2_LATTICE, _lattice, {
        "an energy drift of 1e-5": _set(
            ("tables", "evolution", 10), lambda r: (r[0], 1.00001, r[2])),
        "a constraint growth of 20x": _set(
            ("tables", "evolution", 10), lambda r: (r[0], r[1], 2e-5)),
        "a Picard mismatch of 1e-5": _set(
            ("tables", "bounds", 4), lambda r: (r[0], r[1], r[2] + 1e-5)),
        "a Riccati blow-up 1e-3 late": _set(
            ("report", "metrics", "bounds", "riccati_blowup_error"), 1e-3),
        "a NaN energy": _set(
            ("tables", "evolution", 3), lambda r: (r[0], float("nan"), r[2])),
    })
    _expect(checks.check_identical(b"{}", b"{}") == [],
            "identical reports rejected")
    _expect(checks.check_identical(b'{"a": 1}', b'{"a": 2}'),
            "a non-identical second report accepted")


def test_benchmark_file(end_to_end):
    """BENCHMARK.json names the metrics the harness prints, and no others."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    _expect([w["name"] for w in spec["workloads"]] == list(workloads.NAMES),
            "BENCHMARK.json workloads differ from workloads.NAMES")
    _expect([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == list(end_to_end),
            "BENCHMARK.json end_to_end differs from the printed metrics")
    _expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == list(tracing.PER_LAYER),
            "BENCHMARK.json per_layer differs from tracing.PER_LAYER")


def run_all(end_to_end):
    test_self_times()
    test_checks()
    test_benchmark_file(end_to_end)


if __name__ == "__main__":
    import run
    run_all(run.END_TO_END)
    print("harness self-test passed")
