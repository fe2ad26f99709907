"""Scenario orchestration: configs, experiments, reports, and the CLI.

A scenario is a JSON document naming a chart, an algebra, a field profile,
cone/evolution parameters and a list of experiments.  ``run`` executes the
experiments in order, collecting metrics; a failing experiment marks the
report partial but does not stop the others.  ``emit`` writes report.json
plus one CSV per experiment; identical configs produce byte-identical
reports (fixed reduction orders, fixed seed).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import __version__, bounds, energy, evolution, geometry, liegauge
from . import nullcone, parametrix, sphere

SCHEMA_VERSION = 1

CHARTS = tuple(geometry.CHART_CATALOG)
ALGEBRAS = tuple(liegauge.ALGEBRA_CATALOG)
PROFILES = ("none", "plane_wave", "constant", "coulomb", "su2_bump")
EXPERIMENTS = ("cone_geometry", "transport", "parametrix", "energy_balance",
               "bounds", "cartan_check", "evolution")


class ConfigError(ValueError):
    """Invalid scenario document; ``problems`` lists every violation."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid config: " + "; ".join(self.problems))


# ----------------------------------------------------------------------
# field profiles
# ----------------------------------------------------------------------

def make_algebra(name):
    try:
        return liegauge.make_algebra(name)
    except liegauge.AlgebraError as exc:
        raise ConfigError([str(exc)]) from None


def plane_wave_field(basis, omega=1.0, amplitude=1.0, direction=(1.0, 0.0, 0.0)):
    """Transverse null plane wave F_mn = a (k_m e_n - k_n e_m) cos(k.x).

    Exact source-free Maxwell solution on the flat chart; the wave covector
    is k = omega (-1, khat) and the polarization is a unit vector orthogonal
    to khat.  Lives in the first algebra direction.
    """
    khat = np.asarray(direction, dtype=float)
    khat = khat / np.linalg.norm(khat)
    k = omega * np.concatenate([[-1.0], khat])
    trial = np.array([0.0, 0.0, 1.0]) if abs(khat[2]) < 0.9 \
        else np.array([0.0, 1.0, 0.0])
    pol3 = trial - np.dot(trial, khat) * khat
    pol = np.concatenate([[0.0], pol3 / np.linalg.norm(pol3)])
    two_form = amplitude * (np.outer(k, pol) - np.outer(pol, k))
    kup = k.copy()
    kup[0] = -kup[0]

    def fn(x):
        x = np.asarray(x, dtype=float)
        phase = np.einsum("...m,m->...", x, k)
        out = np.zeros(x.shape[:-1] + (4, 4, basis.dim))
        out[..., :, :, 0] = np.cos(phase)[..., None, None] * two_form
        return out

    def jac(x):
        x = np.asarray(x, dtype=float)
        phase = np.einsum("...m,m->...", x, k)
        out = np.zeros(x.shape[:-1] + (4, 4, 4, basis.dim))
        out[..., :, :, :, 0] = (-np.sin(phase))[..., None, None, None] \
            * np.einsum("a,mn->amn", k, two_form)
        return out

    return liegauge.FieldStrength(basis, fn, jac=jac)


def constant_field(basis, components=((0, 1, 1.0),)):
    """Covariantly constant-component F; exact flat abelian solution."""
    mat = np.zeros((4, 4))
    for m, n, v in components:
        mat[int(m), int(n)] += float(v)
        mat[int(n), int(m)] -= float(v)

    def fn(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (4, 4, basis.dim))
        out[..., :, :, 0] = mat
        return out

    def jac(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (4, 4, 4, basis.dim))

    return liegauge.FieldStrength(basis, fn, jac=jac)


def coulomb_field(basis, charge=1.0):
    """Static radial field F_tr = charge / r^2 on the polar static charts.

    An exact source-free solution there, including the Schwarzschild chart
    (the metric determinant factors cancel in the divergence).
    """
    def fn(x):
        x = np.asarray(x, dtype=float)
        r = x[..., 1]
        out = np.zeros(x.shape[:-1] + (4, 4, basis.dim))
        out[..., 0, 1, 0] = charge / r ** 2
        out[..., 1, 0, 0] = -charge / r ** 2
        return out

    return liegauge.FieldStrength(basis, fn)


def su2_bump_potential(basis, amplitude=0.1, width=1.0):
    """Smooth localized non-abelian potential for convergence studies."""
    if basis.dim < 2:
        raise ConfigError(["profile 'su2_bump' needs a non-abelian algebra"])

    def fn(x):
        x = np.asarray(x, dtype=float)
        t, xs, ys, zs = (x[..., i] for i in range(4))
        env = amplitude * np.exp(-(xs ** 2 + ys ** 2 + zs ** 2) / width ** 2)
        out = np.zeros(x.shape[:-1] + (4, basis.dim))
        out[..., 1, 0] = env * np.cos(t)
        out[..., 2, 1] = env * np.sin(xs)
        if basis.dim > 2:
            out[..., 3, 2] = env * ys * np.exp(-ys ** 2)
        return out

    return liegauge.GaugePotential(basis, fn, step=1e-3)


def make_field(basis, profile, params):
    """Build (field_strength, potential) for a named profile."""
    params = dict(params or {})
    if profile == "none":
        return None, liegauge.zero_potential(basis)
    if profile == "plane_wave":
        return plane_wave_field(basis, **params), liegauge.zero_potential(basis)
    if profile == "constant":
        comps = [tuple(c) for c in params.pop("components", [(0, 1, 1.0)])]
        return constant_field(basis, comps), liegauge.zero_potential(basis)
    if profile == "coulomb":
        return coulomb_field(basis, **params), liegauge.zero_potential(basis)
    if profile == "su2_bump":
        A = su2_bump_potential(basis, **params)
        return liegauge.curvature_from_potential(A), A
    raise ConfigError([f"unknown field profile '{profile}'; catalog: {PROFILES}"])


def canonical_seeds(basis):
    """The six antisymmetric unit two-forms in the first algebra direction."""
    seeds = []
    for m in range(4):
        for n in range(m + 1, 4):
            s = np.zeros((4, 4, basis.dim))
            s[m, n, 0] = 1.0
            s[n, m, 0] = -1.0
            seeds.append(s)
    return seeds


# ----------------------------------------------------------------------
# scenario parsing
# ----------------------------------------------------------------------

_CONE_DEFAULTS = {"n_theta": 8, "n_phi": 16, "s_max": 1.0, "ds": 0.005}
_EVOLUTION_DEFAULTS = {"n": 32, "length": 1.0, "dt_factor": 0.2,
                       "crossings": 2.0, "amplitude": 0.1}
_BOUNDS_DEFAULTS = {"c": 0.1, "t1": 1.0, "dt": 1e-3}

_TOP_KEYS = {"chart", "algebra", "field", "vertex", "cone", "evolution",
             "bounds", "experiments", "seed", "tolerances", "out_dir"}


@dataclass
class Scenario:
    chart_name: str
    chart_params: dict
    algebra: str
    profile: str
    profile_params: dict
    vertex: np.ndarray
    cone: dict
    evolution: dict
    bounds: dict
    experiments: list
    seed: int
    tolerances: dict
    out_dir: str | None
    raw: dict = dc_field(repr=False, default_factory=dict)

    def config_hash(self):
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _merged_section(doc, key, defaults, problems):
    out = dict(defaults)
    section = doc.get(key, {})
    if not isinstance(section, dict):
        problems.append(f"'{key}' must be an object")
        return out
    for k, v in section.items():
        if k not in defaults:
            problems.append(f"unknown key '{key}.{k}'")
        elif not isinstance(v, (int, float)):
            problems.append(f"'{key}.{k}' must be numeric")
        elif v <= 0:
            problems.append(f"'{key}.{k}' must be positive")
        else:
            out[k] = type(defaults[k])(v)
    return out


def parse_config(doc, strict=False):
    """Validate a scenario document; every violation is reported at once."""
    if not isinstance(doc, dict):
        raise ConfigError(["top-level document must be a JSON object"])
    problems = []
    unknown = sorted(set(doc) - _TOP_KEYS)
    if unknown:
        msg = "unknown top-level keys: " + ", ".join(unknown)
        if strict:
            problems.append(msg)

    chart = doc.get("chart", {})
    if isinstance(chart, str):
        chart = {"name": chart}
    chart_name = chart.get("name")
    chart_params = dict(chart.get("params", {}))
    if chart_name not in CHARTS:
        problems.append(f"unknown chart '{chart_name}'; catalog: {list(CHARTS)}")

    algebra = doc.get("algebra", "u1")
    if algebra not in ALGEBRAS:
        problems.append(f"unknown algebra '{algebra}'; catalog: {list(ALGEBRAS)}")

    fld = doc.get("field", {"profile": "none"})
    if isinstance(fld, str):
        fld = {"profile": fld}
    profile = fld.get("profile", "none")
    if profile not in PROFILES:
        problems.append(f"unknown field profile '{profile}'; "
                        f"catalog: {list(PROFILES)}")

    default_vertex = [0.0, 10.0, np.pi / 2, 0.0] \
        if chart_name in ("schwarzschild",) else [0.0, 0.0, 0.0, 0.0]
    vertex = doc.get("vertex", default_vertex)
    if (not isinstance(vertex, (list, tuple)) or len(vertex) != 4
            or not all(isinstance(v, (int, float)) for v in vertex)):
        problems.append("'vertex' must be a list of 4 numbers")
        vertex = default_vertex

    cone = _merged_section(doc, "cone", _CONE_DEFAULTS, problems)
    if cone["ds"] >= cone["s_max"]:
        problems.append("'cone.ds' must be smaller than 'cone.s_max'")
    evo = _merged_section(doc, "evolution", _EVOLUTION_DEFAULTS, problems)
    if evo["dt_factor"] > 1.0:
        problems.append("'evolution.dt_factor' exceeds the stability range")
    bnd = _merged_section(doc, "bounds", _BOUNDS_DEFAULTS, problems)

    experiments = doc.get("experiments", [])
    if not isinstance(experiments, list):
        problems.append("'experiments' must be a list")
        experiments = []
    for e in experiments:
        if e not in EXPERIMENTS:
            problems.append(f"unknown experiment '{e}'; "
                            f"catalog: {list(EXPERIMENTS)}")

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        problems.append("'seed' must be a nonnegative integer")
        seed = 0

    tolerances = doc.get("tolerances", {})
    if not isinstance(tolerances, dict):
        problems.append("'tolerances' must be an object")
        tolerances = {}

    if problems:
        raise ConfigError(problems)
    return Scenario(chart_name, chart_params, algebra, profile,
                    dict(fld.get("params", {})), np.asarray(vertex, float),
                    cone, evo, bnd, list(experiments), seed, dict(tolerances),
                    doc.get("out_dir"), raw=doc)


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------

def _build_bundle(scn, chart):
    grid = sphere.SphereGrid(scn.cone["n_theta"], scn.cone["n_phi"])
    return nullcone.NullConeBundle(chart, scn.vertex, grid,
                                   scn.cone["s_max"], scn.cone["ds"])


def _exp_cone_geometry(scn, bundle, basis):
    opt = bundle.optical()
    live = bundle.s >= 0.1
    dev = np.abs(bundle.s[live, None, None] * opt["trchi"][live] / 2.0 - 1.0)
    areas = bundle.area()
    area_dev = np.abs(areas[live] / (4.0 * np.pi * bundle.s[live] ** 2) - 1.0)
    pairings = bundle.frame_pairing_residuals()
    metrics = {
        "expansion_deviation_max": float(np.max(dev)),
        "area_deviation_max": float(np.max(area_dev)),
        "frame_pairing_max": max(pairings.values()),
        "transport_consistency": bundle.transport_consistency(),
    }
    rows = [("s", "area", "area_deviation")] + [
        (float(s), float(a), float(a / (4 * np.pi * s ** 2) - 1.0))
        for s, a in zip(bundle.s[live], areas[live])]
    default_tol = 1e-6 if bundle.chart.flat else 1.0
    tol = scn.tolerances.get("cone_geometry", default_tol)
    return metrics, rows, metrics["expansion_deviation_max"] < tol


def _exp_transport(scn, bundle, basis):
    _, potential = make_field(basis, scn.profile, scn.profile_params)
    seed = canonical_seeds(basis)[0]
    psi = parametrix.transport_weight(bundle, seed, potential)
    norms = np.sqrt(np.einsum("...mnk,...mnk->...", psi, psi))
    seed_norm = float(np.sqrt(np.einsum("mnk,mnk->", seed, seed)))
    metrics = {
        "max_deviation_from_seed": float(np.max(np.abs(psi - seed))),
        "sup_norm_ratio": float(np.max(norms) / seed_norm),
    }
    rows = [("s", "max_norm_ratio")] + [
        (float(s), float(np.max(norms[i]) / seed_norm))
        for i, s in enumerate(bundle.s)]
    flat = bundle.chart.flat
    tol = scn.tolerances.get("transport", 1e-10 if flat else 1.5)
    key = "max_deviation_from_seed" if flat else "sup_norm_ratio"
    return metrics, rows, metrics[key] <= tol


def _exp_parametrix(scn, bundle, basis):
    field, potential = make_field(basis, scn.profile, scn.profile_params)
    if field is None:
        raise ConfigError(["parametrix experiment needs a field profile"])
    reps = parametrix.assemble_representation(
        bundle, canonical_seeds(basis), field, potential=potential)
    errs = [rep["rel_error"] for rep in reps]
    metrics = {"relative_error_max": float(np.max(errs)),
               "relative_error_mean": float(np.mean(errs))}
    rows = [("seed_index", "relative_error")] + [
        (i, float(e)) for i, e in enumerate(errs)]
    tol = scn.tolerances.get("parametrix", 2e-2)
    return metrics, rows, metrics["relative_error_max"] < tol


def _exp_energy_balance(scn, bundle, basis):
    field, _ = make_field(basis, scn.profile, scn.profile_params)
    if field is None:
        raise ConfigError(["energy_balance experiment needs a field profile"])
    t_far = scn.vertex[0] - 0.9 * scn.cone["s_max"] / max(
        1.0, float(np.max(np.abs(bundle.phi[-1]))))
    t_near = scn.vertex[0] + 0.5 * (t_far - scn.vertex[0])
    report = energy.divergence_identity_report(bundle.chart, field, bundle,
                                               t_far, t_near)
    metrics = {k: float(v) for k, v in report.items()}
    rows = [("term", "value")] + [(k, float(v)) for k, v in report.items()]
    tol = scn.tolerances.get("energy_balance", 1e-2)
    return metrics, rows, metrics["relative_residual"] < tol


def _exp_bounds(scn, chart, basis):
    c, t1, dt = scn.bounds["c"], scn.bounds["t1"], scn.bounds["dt"]
    ric = bounds.BoundSpec("quadratic", 1.0, 0.0, 2.0, dt, double_coef=0.0)
    blow = bounds.pachpatte_envelope(ric)
    full = bounds.BoundSpec("quadratic", c, 0.0, t1, dt)
    env = bounds.pachpatte_envelope(full)
    oracle = bounds.picard_envelope(full)
    metrics = {
        "riccati_blowup_error": abs(blow.t_blowup - 1.0),
        "picard_mismatch": float(np.max(np.abs(env.b - oracle.b))),
        "envelope_end": float(env.b[-1]),
    }
    rows = [("t", "envelope", "picard")] + [
        (float(t), float(b), float(o))
        for t, b, o in zip(env.t[::50], env.b[::50], oracle.b[::50])]
    tol = scn.tolerances.get("bounds", 1e-6)
    passed = metrics["riccati_blowup_error"] < 1e-4 \
        and metrics["picard_mismatch"] < tol
    return metrics, rows, passed


def _exp_cartan_check(scn, chart, basis):
    frame_field = liegauge.static_diagonal_frame(chart)
    rng = np.random.default_rng(scn.seed)
    base = np.asarray(scn.vertex, dtype=float)
    # offsets in the vertex's orthonormal frame, of proper length about
    # 0.05 coordinate_scale: on Schwarzschild at r = 10 the angles then
    # spread by about 0.05 rad and stay off the polar axis
    frame = geometry.orthonormal_frame(chart, base).vectors
    pts = base + 0.05 * chart.coordinate_scale \
        * rng.standard_normal((8, 4)) @ frame
    step = 1e-3 * chart.coordinate_scale    # nested FD: roundoff-limited below
    res = liegauge.cartan_ym_residual(chart, pts, frame_field, step=step)
    curv = liegauge.cartan_curvature(chart, frame_field, step=step)(pts)
    riem = geometry.riemann(chart, pts).riemann      # fully lowered R_{rsmn}
    e = frame_field(pts)
    frame_riem = np.einsum("...rsmn,...ar,...bs->...mnab", riem, e, e)
    metrics = {
        "ym_residual_max": float(np.max(np.abs(res))),
        "curvature_match_max": float(np.max(np.abs(curv - frame_riem))),
    }
    rows = [("metric", "value")] + [(k, v) for k, v in metrics.items()]
    tol = scn.tolerances.get("cartan_check", 1e-6)
    return metrics, rows, max(metrics.values()) < tol


def _exp_evolution(scn, chart, basis):
    lat = evolution.Lattice2D(scn.evolution["n"], scn.evolution["length"])
    state = evolution.crossed_stream_data(lat, basis,
                                          amplitude=scn.evolution["amplitude"])
    e0 = evolution.total_energy(state)
    c0 = evolution.constraint_residual(state)
    dt = scn.evolution["dt_factor"] * lat.dx
    _, hist = evolution.run_diagnostics(
        state, dt, scn.evolution["crossings"] * lat.length)
    drift = float(np.max(np.abs(hist[:, 1] - e0)) / e0)
    growth = float(np.max(hist[:, 2]) / c0)
    metrics = {"energy_drift": drift, "constraint_growth": growth,
               "initial_energy": float(e0)}
    rows = [("t", "energy", "constraint")] + [tuple(map(float, r))
                                              for r in hist]
    tol = scn.tolerances.get("energy_balance_drift", 1e-4)
    return metrics, rows, drift < tol


# experiments that run on the scenario's null cone; they share one bundle
_CONE_EXPERIMENTS = ("cone_geometry", "transport", "parametrix",
                     "energy_balance")

_EXPERIMENT_FNS = {
    "cone_geometry": _exp_cone_geometry,
    "transport": _exp_transport,
    "parametrix": _exp_parametrix,
    "energy_balance": _exp_energy_balance,
    "bounds": _exp_bounds,
    "cartan_check": _exp_cartan_check,
    "evolution": _exp_evolution,
}


# ----------------------------------------------------------------------
# run / emit
# ----------------------------------------------------------------------

@dataclass
class RunReport:
    schema_version: int
    code_version: str
    config_hash: str
    metrics: dict
    passed: dict
    partial: bool
    rows: dict = dc_field(repr=False, default_factory=dict)

    def to_json(self):
        return {
            "schema_version": self.schema_version,
            "code_version": self.code_version,
            "config_hash": self.config_hash,
            "metrics": self.metrics,
            "passed": self.passed,
            "partial": self.partial,
        }


def run(scenario):
    """Execute the scenario's experiments; failures mark the report partial."""
    chart = geometry.make_chart(scenario.chart_name, **scenario.chart_params)
    basis = make_algebra(scenario.algebra)
    metrics, passed, rows = {}, {}, {}
    partial = False
    bundle = None               # built by the first cone experiment
    for name in scenario.experiments:
        fn = _EXPERIMENT_FNS[name]
        try:
            if name in _CONE_EXPERIMENTS:
                if bundle is None:
                    bundle = _build_bundle(scenario, chart)
                m, r, ok = fn(scenario, bundle, basis)
            else:
                m, r, ok = fn(scenario, chart, basis)
        except Exception as exc:  # continue with the other experiments
            metrics[name] = {"error": f"{type(exc).__name__}: {exc}"}
            passed[name] = False
            partial = True
            continue
        metrics[name], passed[name], rows[name] = m, bool(ok), r
    return RunReport(SCHEMA_VERSION, __version__, scenario.config_hash(),
                     metrics, passed, partial, rows)


def emit(report, out_dir):
    """Write report.json and one CSV per experiment into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        json.dump(report.to_json(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    written = [path]
    for name, rows in sorted(report.rows.items()):
        p = os.path.join(out_dir, f"{name}.csv")
        with open(p, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        written.append(p)
    return written


def load_report(path):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema version "
                         f"{doc.get('schema_version')!r}; "
                         f"this reader handles {SCHEMA_VERSION}")
    return doc


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _catalog_text():
    lines = ["charts:"]
    lines += [f"  {c}" for c in CHARTS]
    lines.append("algebras:")
    lines += [f"  {a}" for a in ALGEBRAS]
    lines.append("field profiles:")
    lines += [f"  {p}" for p in PROFILES]
    lines.append("experiments:")
    lines += [f"  {e}" for e in EXPERIMENTS]
    return "\n".join(lines)


def _set_threads(n):
    if n is None:
        return
    try:
        import threadpoolctl
    except ImportError:
        # the BLAS thread pool is sized when numpy loads, which has happened
        # by now, so setting the environment variables here would do nothing
        print(f"warning: --threads {n} not applied: threadpoolctl is not "
              f"installed; set OPENBLAS_NUM_THREADS={n} before launch instead",
              file=sys.stderr)
        return
    threadpoolctl.threadpool_limits(n)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ymcone",
        description="Run null-cone / gauge-field numerical experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("run", "validate"):
        p = sub.add_parser(cmd)
        p.add_argument("config", nargs="?", default=None)
        p.add_argument("--config", dest="config_flag", default=None)
        p.add_argument("--strict", action="store_true")
        if cmd == "run":
            p.add_argument("--out", default=None)
            p.add_argument("--threads", type=int, default=None)
    sub.add_parser("catalog")
    args = parser.parse_args(argv)

    if args.command == "catalog":
        print(_catalog_text())
        return 0

    config_path = args.config_flag or args.config
    if config_path is None:
        print("error: a config path is required", file=sys.stderr)
        return 2
    try:
        with open(config_path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config {config_path}: {exc}",
              file=sys.stderr)
        return 2
    try:
        scenario = parse_config(doc, strict=args.strict)
    except ConfigError as exc:
        for p in exc.problems:
            print(f"config error: {p}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"valid: {config_path} ({len(scenario.experiments)} experiments)")
        return 0

    _set_threads(args.threads)
    out_dir = args.out or os.environ.get("YMCONE_OUT") \
        or scenario.out_dir or "ymcone_out"
    report = run(scenario)
    try:
        written = emit(report, out_dir)
    except OSError as exc:
        print(f"error: cannot write {out_dir}: {exc}", file=sys.stderr)
        return 2
    for name, ok in report.passed.items():
        print(f"{name}: {'pass' if ok else 'FAIL'}")
    print(f"report: {written[0]}")
    return 0 if (not report.partial and all(report.passed.values())) else 1


if __name__ == "__main__":
    sys.exit(main())
