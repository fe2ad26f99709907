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
import math
import os
import sys
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, bounds, energy, evolution, geometry, liegauge
from . import nullcone, parametrix, sphere

SCHEMA_VERSION = 1

CHARTS = tuple(geometry.CHART_CATALOG)
ALGEBRAS = tuple(liegauge.ALGEBRA_CATALOG)


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
    """Static radial field F_tr = charge / r^2, x[1] read as r.

    An exact source-free solution on the Schwarzschild chart (the metric
    determinant factors cancel in the divergence).
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
        raise ValueError("profile 'su2_bump' needs a non-abelian algebra")

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


class Profile(NamedTuple):
    """``build(basis, **params)`` gives F, a potential A or None, and
    ``solves_on`` the charts on which F solves Yang-Mills, D^a F_ab = 0."""
    build: Callable
    solves_on: tuple = ()


PROFILES = {
    "none": Profile(lambda basis: None),
    "plane_wave": Profile(plane_wave_field, ("minkowski",)),
    "constant": Profile(constant_field, ("minkowski",)),
    "coulomb": Profile(coulomb_field, ("schwarzschild",)),
    "su2_bump": Profile(su2_bump_potential),
}


def make_field(basis, profile, params):
    """Build (field_strength, potential) for a named profile; the potential
    is None unless the profile gives one, and the field is then its curvature."""
    built = PROFILES[profile].build(basis, **(params or {}))
    if isinstance(built, liegauge.GaugePotential):
        return liegauge.curvature_from_potential(built), built
    return built, None


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
             "bounds", "experiments", "seed", "out_dir"}


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
    out_dir: str | None
    # built once by parse_config; the experiments share them
    chart: geometry.Chart = dc_field(repr=False)
    basis: liegauge.AlgebraBasis = dc_field(repr=False)
    field: liegauge.FieldStrength | None = dc_field(repr=False)
    potential: liegauge.GaugePotential | None = dc_field(repr=False)
    raw: dict = dc_field(repr=False, default_factory=dict)

    def config_hash(self):
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _finite_number(v):
    """True for an int or a finite float; a bool is not a number here."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and (isinstance(v, int) or math.isfinite(v))


def _merged_section(doc, key, defaults, problems):
    out = dict(defaults)
    section = doc.get(key, {})
    if not isinstance(section, dict):
        problems.append(f"'{key}' must be an object")
        return out
    for k, v in section.items():
        if k not in defaults:
            problems.append(f"unknown key '{key}.{k}'")
        elif not _finite_number(v):
            problems.append(f"'{key}.{k}' must be a finite number")
        elif v <= 0:
            problems.append(f"'{key}.{k}' must be positive")
        elif isinstance(defaults[k], int) and v != int(v):
            problems.append(f"'{key}.{k}' must be an integer")
        else:
            out[k] = type(defaults[k])(v)
    return out


def _checked_chart(name, params, vertex, problems):
    """Build the chart and check that the vertex, the chart's default when
    None, lies in it; return (chart, vertex), chart None for bad params."""
    try:
        chart = geometry.make_chart(name, **params)
        if not all(_finite_number(v) for v in params.values()):
            raise ValueError("values must be finite numbers")
    except (TypeError, ValueError) as exc:
        problems.append(f"bad 'chart.params' {params!r} for chart '{name}': "
                        f"{exc}")
        return None, vertex
    if vertex is None:
        vertex = chart.default_vertex()
    vertex = np.asarray(vertex, dtype=float)
    if not chart.contains(vertex):
        problems.append(f"'vertex' {vertex.tolist()} lies outside chart "
                        f"'{name}', which holds the points where "
                        f"{chart.domain}")
    return chart, vertex


def _holds_bool(v):
    """True for a bool, or for a list that holds one at any depth."""
    if isinstance(v, (list, tuple)):
        return any(map(_holds_bool, v))
    return isinstance(v, bool)


def _checked_field(profile, params, basis, vertex, problems):
    """Build the profile's (F, A) and evaluate both at the vertex."""
    try:
        with np.errstate(all="ignore"):
            fields = make_field(basis, profile, params)
            for k, v in (params or {}).items():
                if _holds_bool(v):
                    raise ValueError(f"'field.params.{k}' holds a bool; "
                                     f"a bool is not a number here")
            values = [f(vertex) for f in fields if f is not None]
        if not all(np.isfinite(v).all() for v in values):
            raise ValueError(f"not finite at the vertex {vertex.tolist()}")
    except (TypeError, ValueError, IndexError, ArithmeticError) as exc:
        problems.append(f"bad 'field.params' {params!r} for profile "
                        f"'{profile}' on algebra '{basis.name}': {exc}")
        return None, None
    return fields


def _unmet_needs(spec, chart, basis, profile):
    """What the experiment ``spec`` needs that the scenario lacks."""
    if spec.solution and chart.name not in PROFILES[profile].solves_on:
        yield "a field that solves Yang-Mills on the chart"
    if spec.ricci_flat and not chart.ricci_flat:
        yield "a Ricci-flat chart"
    if spec.lattice and (not chart.flat or basis.abelian):
        yield "a non-abelian algebra on a flat chart"


def parse_config(doc):
    """Validate a scenario document and build its chart, algebra and field;
    every violation is reported at once."""
    if not isinstance(doc, dict):
        raise ConfigError(["top-level document must be a JSON object"])
    problems = []
    unknown = sorted(set(doc) - _TOP_KEYS)
    if unknown:
        problems.append("unknown top-level keys: " + ", ".join(unknown))

    chart = doc.get("chart", {})
    if isinstance(chart, str):
        chart = {"name": chart}
    if not isinstance(chart, dict):
        problems.append("'chart' must be a name or an object")
        chart = {}
    chart_name = chart.get("name")
    chart_params = chart.get("params", {})
    if chart_name not in CHARTS:
        problems.append(f"unknown chart '{chart_name}'; catalog: {list(CHARTS)}")

    algebra = doc.get("algebra", "u1")
    if algebra not in ALGEBRAS:
        problems.append(f"unknown algebra '{algebra}'; catalog: {list(ALGEBRAS)}")

    fld = doc.get("field", {"profile": "none"})
    if isinstance(fld, str):
        fld = {"profile": fld}
    if not isinstance(fld, dict):
        problems.append("'field' must be a profile name or an object")
        fld = {}
    profile = fld.get("profile", "none")
    params = fld.get("params", {})
    if not (isinstance(profile, str) and profile in PROFILES):
        problems.append(f"unknown field profile '{profile}'; "
                        f"catalog: {list(PROFILES)}")
    problems += [f"unknown key '{key}.{k}'" for key, obj, known in (
        ("chart", chart, {"name", "params"}),
        ("field", fld, {"profile", "params"})) for k in sorted(set(obj) - known)]

    vertex = doc.get("vertex")
    if "vertex" in doc and (not isinstance(vertex, (list, tuple))
            or len(vertex) != 4 or not all(map(_finite_number, vertex))):
        problems.append("'vertex' must be a list of 4 finite numbers")
        vertex = None
    chart_obj = None
    if chart_name in CHARTS:
        chart_obj, vertex = _checked_chart(chart_name, chart_params, vertex,
                                           problems)

    cone = _merged_section(doc, "cone", _CONE_DEFAULTS, problems)
    # the bundle's slice count must leave a slice between the vertex closure
    # region, s < vertex_factor ds, and the last slice
    n_s = int(round(cone["s_max"] / cone["ds"]))
    factor = nullcone.NullConeBundle.vertex_factor
    if cone["s_max"] <= 0.1 or n_s <= factor:
        problems.append(f"'cone.s_max' must exceed 0.1 and give more than "
                        f"{factor:g} slices of 'cone.ds' (the vertex closure "
                        f"region), got round(s_max / ds) = {n_s}")
    # the spectral derivatives need a Legendre degree and a Fourier mode
    if cone["n_theta"] < 2:
        problems.append("'cone.n_theta' must be at least 2: one ring of "
                        "nodes has no d/dtheta")
    if cone["n_phi"] % 2 or cone["n_phi"] < 4:
        problems.append("'cone.n_phi' must be even and at least 4: fewer "
                        "nodes have no d/dphi")
    evo = _merged_section(doc, "evolution", _EVOLUTION_DEFAULTS, problems)
    if evo["n"] < 5:
        problems.append("'evolution.n' must be at least 5: the five-point "
                        "stencil's offsets alias on fewer sites")
    if evo["dt_factor"] > evolution.CFL_LIMIT:
        problems.append(f"'evolution.dt_factor' exceeds the step bound "
                        f"evolution.CFL_LIMIT = {evolution.CFL_LIMIT}")
    bnd = _merged_section(doc, "bounds", _BOUNDS_DEFAULTS, problems)

    experiments = doc.get("experiments", [])
    if not isinstance(experiments, list):
        problems.append("'experiments' must be a list")
        experiments = []
    for e in experiments:
        if not (isinstance(e, str) and e in EXPERIMENTS):
            problems.append(f"unknown experiment '{e}'; "
                            f"catalog: {list(EXPERIMENTS)}")

    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        problems.append("'seed' must be a nonnegative integer")
        seed = 0

    out_dir = doc.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        problems.append("'out_dir' must be a path string")

    if not problems:        # chart, algebra, profile and experiments known
        basis = make_algebra(algebra)
        field, potential = _checked_field(profile, params, basis, vertex,
                                          problems)
        problems += [f"experiment '{e}' cannot run with profile '{profile}' "
                     f"on chart '{chart_name}' (algebra '{algebra}'): it "
                     f"needs {need}" for e in experiments
                     for need in _unmet_needs(EXPERIMENTS[e], chart_obj,
                                              basis, profile)]
    if problems:
        raise ConfigError(problems)
    return Scenario(chart_name, dict(chart_params), algebra, profile,
                    dict(params), vertex, cone, evo, bnd, list(experiments),
                    seed, out_dir, chart_obj, basis, field, potential, raw=doc)


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------

def _build_bundle(scn):
    grid = sphere.SphereGrid(scn.cone["n_theta"], scn.cone["n_phi"])
    return nullcone.NullConeBundle(scn.chart, scn.vertex, grid,
                                   scn.cone["s_max"], scn.cone["ds"])


def _exp_cone_geometry(scn, bundle):
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
    tol = 1e-6 if bundle.chart.flat else 1.0
    return metrics, rows, metrics["expansion_deviation_max"] < tol


def _exp_transport(scn, bundle):
    seed = canonical_seeds(scn.basis)[0]
    conn = parametrix.connection(bundle, scn.potential)
    psi = parametrix.transport_weight(bundle, seed, conn)
    norms = np.sqrt(np.einsum("...mnk,...mnk->...", psi, psi))
    seed_norm = float(np.sqrt(np.einsum("mnk,mnk->", seed, seed)))
    metrics = {
        "max_deviation_from_seed": float(np.max(np.abs(psi - seed))),
        "sup_norm_ratio": float(np.max(norms) / seed_norm),
    }
    rows = [("s", "max_norm_ratio")] + [
        (float(s), float(np.max(norms[i]) / seed_norm))
        for i, s in enumerate(bundle.s)]
    # without a connection along L, psi stays the seed; otherwise it is
    # rotated (gauge) or reweighted (curvature) and only its size is checked
    parallel = conn.gamma_L is None and conn.a_L is None
    tol = 1e-10 if parallel else 1.5
    key = "max_deviation_from_seed" if parallel else "sup_norm_ratio"
    return metrics, rows, metrics[key] <= tol


def _exp_parametrix(scn, bundle):
    reps = parametrix.assemble_representation(
        bundle, canonical_seeds(scn.basis), scn.field, potential=scn.potential)
    errs = [rep["rel_error"] for rep in reps]
    metrics = {"relative_error_max": float(np.max(errs)),
               "relative_error_mean": float(np.mean(errs))}
    rows = [("seed_index", "relative_error")] + [
        (i, float(e)) for i, e in enumerate(errs)]
    return metrics, rows, metrics["relative_error_max"] < 2e-2


def _exp_energy_balance(scn, bundle):
    t_far = scn.vertex[0] - 0.9 * scn.cone["s_max"] / max(
        1.0, float(np.max(np.abs(bundle.phi[-1]))))
    t_near = scn.vertex[0] + 0.5 * (t_far - scn.vertex[0])
    report = energy.divergence_identity_report(scn.field, bundle, t_far,
                                               t_near)
    metrics = {k: float(v) for k, v in report.items()}
    rows = [("term", "value")] + [(k, float(v)) for k, v in report.items()]
    return metrics, rows, metrics["relative_residual"] < 1e-2


def _exp_bounds(scn, bundle):
    c, t1, dt = scn.bounds["c"], scn.bounds["t1"], scn.bounds["dt"]
    # the Riccati envelope blows up at t = 1 on purpose; the full one may not
    ric = bounds.BoundSpec(1.0, 0.0, 2.0, dt, double_coef=0.0)
    blow = bounds.pachpatte_envelope(ric)
    full = bounds.BoundSpec(c, 0.0, t1, dt)
    env = bounds.pachpatte_envelope(full)
    if env.t_blowup is not None:
        raise bounds.BoundsError(
            f"the envelope of 'bounds.c' = {c:g} blows up at "
            f"t* = {env.t_blowup:.6g} before 'bounds.t1' = {t1:g}; "
            f"lower 'bounds.c' or 'bounds.t1'")
    oracle = bounds.picard_envelope(full)
    metrics = {
        "riccati_blowup_error": abs(blow.t_blowup - 1.0),
        "picard_mismatch": float(np.max(np.abs(env.b - oracle.b))),
        "envelope_end": float(env.b[-1]),
    }
    rows = [("t", "envelope", "picard")] + [
        (float(t), float(b), float(o))
        for t, b, o in zip(env.t[::50], env.b[::50], oracle.b[::50])]
    passed = metrics["riccati_blowup_error"] < 1e-4 \
        and metrics["picard_mismatch"] < 1e-6
    return metrics, rows, passed


def _exp_cartan_check(scn, bundle):
    chart = scn.chart
    frame_field = liegauge.static_diagonal_frame(chart)
    rng = np.random.default_rng(scn.seed)
    base = np.asarray(scn.vertex, dtype=float)
    # offsets in the vertex's orthonormal frame, of proper length about
    # 0.05 coordinate_scale: on Schwarzschild at r = 10 the angles then
    # spread by about 0.05 rad and stay off the polar axis
    frame = frame_field(base)
    pts = base + 0.05 * chart.coordinate_scale \
        * rng.standard_normal((8, 4)) @ frame
    # the curvature differences the connection once and the residual twice;
    # roundoff limits smaller steps
    step = 1e-3 * chart.coordinate_scale
    # the nested fourth-order stencils reach x + k e_a + j e_b, |k|, |j| <= 2
    reach = step * np.arange(-2, 3)[:, None, None] * np.eye(4)
    reach = (reach.reshape(-1, 1, 4) + reach.reshape(1, -1, 4)).reshape(-1, 4)
    inside = chart.contains(pts[:, None, :] + reach).all(axis=1)
    if not inside.all():
        i = int(np.argmin(inside))
        raise geometry.GeometryError(
            f"Cartan sample {i} at {pts[i].tolist()} or its difference "
            f"stencil leaves chart '{chart.name}', which holds the points "
            f"where {chart.domain}")
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
    return metrics, rows, max(metrics.values()) < 1e-6


def _exp_evolution(scn, bundle):
    lat = evolution.Lattice2D(scn.evolution["n"], scn.evolution["length"])
    state = evolution.crossed_stream_data(lat, scn.basis,
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
    return metrics, rows, drift < 1e-4


class Experiment(NamedTuple):
    """``run(scn, bundle) -> (metrics, rows, passed)`` and what it needs:
    ``cone``, the shared null cone as ``bundle`` (None before the first such
    experiment); ``solution``, F solving Yang-Mills on the chart, as the
    parametrix and energy identities assume; ``ricci_flat``, the only charts
    where the frame curvature solves Yang-Mills; ``lattice``, a non-abelian
    algebra on a flat chart, as the lattice is flat whatever the chart."""
    run: Callable
    cone: bool = False
    solution: bool = False
    ricci_flat: bool = False
    lattice: bool = False


EXPERIMENTS = {
    "cone_geometry": Experiment(_exp_cone_geometry, cone=True),
    "transport": Experiment(_exp_transport, cone=True),
    "parametrix": Experiment(_exp_parametrix, cone=True, solution=True),
    "energy_balance": Experiment(_exp_energy_balance, cone=True,
                                 solution=True),
    "bounds": Experiment(_exp_bounds),
    "cartan_check": Experiment(_exp_cartan_check, ricci_flat=True),
    "evolution": Experiment(_exp_evolution, lattice=True),
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
    metrics, passed, rows = {}, {}, {}
    partial = False
    bundle = None
    for name in scenario.experiments:
        spec = EXPERIMENTS[name]
        try:
            if spec.cone and bundle is None:
                bundle = _build_bundle(scenario)
            m, r, ok = spec.run(scenario, bundle)
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


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _catalog_text():
    lines = []
    for title, names in (("charts", CHARTS), ("algebras", ALGEBRAS),
                         ("field profiles", PROFILES),
                         ("experiments", EXPERIMENTS)):
        lines += [f"{title}:"] + [f"  {n}" for n in names]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ymcone",
        description="Run null-cone / gauge-field numerical experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("run", "validate"):
        p = sub.add_parser(cmd)
        p.add_argument("config")
        if cmd == "run":
            p.add_argument("--out", default=None)
    sub.add_parser("catalog")
    args = parser.parse_args(argv)

    if args.command == "catalog":
        print(_catalog_text())
        return 0

    config_path = args.config
    try:
        with open(config_path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config {config_path}: {exc}",
              file=sys.stderr)
        return 2
    try:
        scenario = parse_config(doc)
    except ConfigError as exc:
        for p in exc.problems:
            print(f"config error: {p}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"valid: {config_path} ({len(scenario.experiments)} experiments)")
        return 0

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
