"""Config parsing, report emission, determinism, and the CLI entry point."""

import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ymcone import (bounds, evolution, geometry, liegauge, nullcone,
                    parametrix, runner)

MINIMAL = {
    "chart": {"name": "minkowski"},
    "experiments": ["bounds"],
}


def test_minimal_config_valid():
    scn = runner.parse_config(MINIMAL)
    assert scn.chart_name == "minkowski"
    assert scn.experiments == ["bounds"]
    assert scn.cone["s_max"] == 1.0          # documented default


def test_all_violations_reported_at_once():
    doc = {
        "chart": {"name": "nowhere"},
        "algebra": "su9",
        "cone": {"ds": -1.0},
        "experiments": ["bounds", "nonsense"],
        "seed": -3,
    }
    with pytest.raises(runner.ConfigError) as exc:
        runner.parse_config(doc)
    text = "; ".join(exc.value.problems)
    for frag in ("nowhere", "su9", "ds", "nonsense", "seed"):
        assert frag in text
    assert len(exc.value.problems) >= 5


def test_negative_step_names_the_field():
    with pytest.raises(runner.ConfigError) as exc:
        runner.parse_config({"chart": "minkowski", "cone": {"ds": -0.1}})
    assert any("cone.ds" in p for p in exc.value.problems)


def test_step_factor_bound_is_the_lattice_bound():
    limit = evolution.CFL_LIMIT
    scn = runner.parse_config({"chart": "minkowski",
                               "evolution": {"dt_factor": limit}})
    assert scn.evolution["dt_factor"] == limit
    with pytest.raises(runner.ConfigError) as exc:
        runner.parse_config({"chart": "minkowski",
                             "evolution": {"dt_factor": limit * (1 + 1e-9)}})
    assert any("evolution.dt_factor" in p and "CFL_LIMIT" in p
               for p in exc.value.problems)


@pytest.mark.parametrize("algebra", runner.ALGEBRAS)
def test_absent_potential_is_none(algebra):
    basis = runner.make_algebra(algebra)
    for profile in runner.PROFILES:
        if profile != "su2_bump":
            assert runner.make_field(basis, profile, {})[1] is None, profile
    if basis.dim > 1:
        _, A = runner.make_field(basis, "su2_bump", {})
        assert isinstance(A, liegauge.GaugePotential)


@pytest.mark.parametrize("doc,field", [
    ({"cone": {"n_theta": True}}, "cone.n_theta"),
    ({"seed": True}, "seed"),
    ({"cone": {"ds": float("nan")}}, "cone.ds"),
    ({"cone": {"s_max": float("inf")}}, "cone.s_max"),
    ({"bounds": {"dt": float("inf")}}, "bounds.dt"),
    ({"cone": {"n_theta": 8.7}}, "cone.n_theta"),
    ({"cone": {"n_phi": 16.5}}, "cone.n_phi"),
    ({"evolution": {"n": 31.5}}, "evolution.n"),
    ({"cone": {"n_phi": 15}}, "cone.n_phi"),
    ({"cone": {"s_max": 0.3, "ds": 0.05}}, "cone.s_max"),
    ({"cone": {"s_max": 0.08, "ds": 0.001}}, "cone.s_max"),
    ({"out_dir": 5}, "out_dir"),
    ({"field": {"profile": "plane_wave", "param": {"omega": 2.0}}},
     "field.param"),
    ({"chart": {"name": "minkowski", "parms": {}}}, "chart.parms"),
    ({"cone": {"s_max": 0.52, "ds": 0.05}}, "cone.s_max"),
    ({"evolution": {"n": 2}}, "evolution.n"),
    ({"evolution": {"n": 4}}, "evolution.n"),
    ({"cone": {"n_phi": 2}}, "cone.n_phi"),
    ({"cone": {"n_theta": 1}}, "cone.n_theta"),
    ({"out_dir": "reports"}, "out_dir"),      # --out alone names it
])
def test_strict_section_values_name_the_field(doc, field):
    with pytest.raises(runner.ConfigError) as exc:
        runner.parse_config(dict(MINIMAL, **doc))
    assert any(field in p for p in exc.value.problems), exc.value.problems


@pytest.mark.parametrize("params", [{"massx": 1}, {"mass": "heavy"},
                                    {"mass": True}, [1.0]])
def test_bad_chart_params_name_the_field(params):
    doc = {"chart": {"name": "schwarzschild", "params": params},
           "experiments": ["cone_geometry"]}
    with pytest.raises(runner.ConfigError) as exc:
        runner.parse_config(doc)
    assert any("chart.params" in p for p in exc.value.problems)


@pytest.mark.parametrize("chart,vertex", [
    ({"name": "flrw"}, [0.0, 0.0, 0.0, 0.0]),             # big bang, a = 0
    ({"name": "schwarzschild"}, [0.0, 2.0, 1.0, 0.0]),    # horizon
    ({"name": "schwarzschild"}, [0.0, 1.5, 1.0, 0.0]),    # inside: r timelike
    ({"name": "schwarzschild"}, [0.0, 10.0, 0.0, 0.0]),   # polar axis
    ({"name": "minkowski"}, [0.0, float("nan"), 0.0, 0.0]),
])
def test_vertex_outside_chart_rejected(chart, vertex):
    with pytest.raises(runner.ConfigError) as exc:
        runner.parse_config({"chart": chart, "vertex": vertex})
    assert any("vertex" in p for p in exc.value.problems)


def test_cone_around_the_polar_axis_names_the_ray():
    # the vertex lies in the chart, but its cone surrounds the polar axis
    # 0.5 away: no ray reaches theta = 0 (the nearest passes at 0.012), yet
    # rays between them cross it, so the fan stops there instead of
    # reporting the expansion and the reconstruction of a broken cone
    doc = {"chart": "schwarzschild", "algebra": "u1",
           "field": {"profile": "coulomb"},
           "vertex": [0.0, 10.0, 0.05, 0.0],
           "cone": {"n_theta": 6, "n_phi": 12, "s_max": 1.0, "ds": 0.01},
           "experiments": ["cone_geometry", "parametrix"]}
    report = runner.run(runner.parse_config(doc))
    for name in doc["experiments"]:
        assert re.fullmatch(r"ChartDomainError: ray \(theta, phi\) = \(\d+, "
                            r"\d+\) leaves chart 'schwarzschild' at s = "
                            r"0\.5\d*", report.metrics[name]["error"])
    doc["vertex"][2] = -0.1                 # sin^2 theta > 0, off the patch
    with pytest.raises(runner.ConfigError) as exc:
        runner.parse_config(doc)
    assert any("0 < theta < pi" in p for p in exc.value.problems)


@pytest.mark.parametrize("power,s_max,error", [
    # the step to s = 1.52 ends where |det g| = t^6 < DEGENERATE_DET, outside
    # the chart; its stage points must not be evaluated past t = 0 either
    (1.0, 3.5, "at s = 1.52"),
    # stage 2 of the step to s = 1.01 reaches t < 0.1, where the metric is
    # degenerate although its diagonal has the right signs
    (2.0, 1.1, "at s = 1.01 (RK4 stage 2 of the step to that s)"),
])
def test_flrw_cone_past_the_big_bang_names_ray_and_s(power, s_max, error):
    # the vertex's past rays reach a = 0; the fan stops at the first step
    # that leaves the chart, and no floating-point warning escapes
    scn = runner.parse_config({
        "chart": {"name": "flrw", "params": {"power": power}},
        "vertex": [3.0, 0.0, 0.0, 0.0],
        "cone": {"n_theta": 4, "n_phi": 8, "s_max": s_max, "ds": 0.01},
        "experiments": ["cone_geometry"]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = runner.run(scn)
    assert report.metrics["cone_geometry"]["error"] == (
        "ChartDomainError: ray (theta, phi) = (0, 0) leaves chart 'flrw' "
        + error)


def test_valid_chart_params_and_vertex_parse():
    for chart, vertex in (({"name": "flrw", "params": {"power": 0.5}},
                           [1.0, 0.0, 0.0, 0.0]),
                          ({"name": "schwarzschild-isotropic",
                            "params": {"mass": 1}}, [0.0, 8.0, 0.0, 0.0])):
        scn = runner.parse_config({"chart": chart, "vertex": vertex})
        assert scn.chart_params == chart["params"]


@pytest.mark.parametrize("chart", [{"name": name} for name in runner.CHARTS]
                         + [{"name": "schwarzschild", "params": {"mass": 6}}])
def test_default_vertex_lies_in_chart(chart):
    # parse_config rejects a vertex outside the chart, the default one too
    scn = runner.parse_config({"chart": chart})
    assert scn.vertex.shape == (4,)


def test_schwarzschild_default_vertex_kept():
    scn = runner.parse_config({"chart": "schwarzschild"})
    assert np.array_equal(scn.vertex, [0.0, 10.0, np.pi / 2, 0.0])


@pytest.mark.parametrize("algebra,experiments,named", [
    ("u1", ["transport"], "non-abelian"),
    ("su2", ["parametrix"], "'parametrix'"),
    ("su2", ["cone_geometry", "energy_balance"], "'energy_balance'"),
])
def test_su2_bump_rejected_where_it_cannot_run(algebra, experiments, named):
    # the bump needs a bracket, and its curvature solves no Yang-Mills
    # equation, so the identities of parametrix and energy_balance fail
    doc = {"chart": "minkowski", "algebra": algebra,
           "field": "su2_bump", "experiments": experiments}
    with pytest.raises(runner.ConfigError) as exc:
        runner.parse_config(doc)
    assert [p for p in exc.value.problems if "su2_bump" in p and named in p]
    scn = runner.parse_config(dict(doc, algebra="su2",
                                   experiments=["transport"]))
    assert scn.profile == "su2_bump"


def test_unknown_chart_lists_catalog():
    with pytest.raises(runner.ConfigError) as exc:
        runner.parse_config({"chart": "kerr"})
    assert any("minkowski" in p for p in exc.value.problems)


def test_strict_mode_rejects_unknown_keys():
    doc = dict(MINIMAL, extra_key=1)
    with pytest.raises(runner.ConfigError):
        runner.parse_config(doc)


def _near_vertex(chart, n=16):
    """n points within about 0.05 coordinate_scale of the default vertex."""
    v = chart.default_vertex()
    frame = liegauge.static_diagonal_frame(chart)(v)
    offsets = np.random.default_rng(0).standard_normal((n, 4)) @ frame
    return v + 0.05 * chart.coordinate_scale * offsets


@pytest.mark.parametrize("profile", [p for p in runner.PROFILES if p != "none"])
@pytest.mark.parametrize("chart_name", runner.CHARTS)
def test_profile_table_matches_yang_mills_residual(profile, chart_name):
    chart = geometry.make_chart(chart_name)
    F, A = runner.make_field(liegauge.su2(), profile, {})
    pts = _near_vertex(chart)
    res = np.max(np.abs(liegauge.ym_residual(chart, pts, F, A)))
    f_max = np.max(np.abs(F(pts)))
    if chart_name in runner.PROFILES[profile].solves_on:
        assert res <= 1e-12 * max(1.0, f_max)
    elif profile != "su2_bump":
        assert res / f_max >= 1e-3


@pytest.mark.parametrize("chart_name", runner.CHARTS)
def test_ricci_flat_flag_matches_curvature(chart_name):
    chart = geometry.make_chart(chart_name)
    ricci = np.max(np.abs(geometry.riemann(chart, _near_vertex(chart)).ricci))
    assert (ricci < 1e-10) == chart.ricci_flat, ricci


@pytest.mark.parametrize("chart,algebra,profile,experiment", [
    # these passed: the identities do not hold off a solution
    ("schwarzschild", "u1", "plane_wave", "parametrix"),
    ("flrw", "u1", "constant", "parametrix"),
    ("schwarzschild", "u1", "constant", "energy_balance"),
    ("schwarzschild-isotropic", "su2", "coulomb", "energy_balance"),
    # this passed on the flat lattice under a curved chart's name
    ("schwarzschild", "su2", "none", "evolution"),
    # these failed whatever the field, or could not run
    ("flrw", "u1", "none", "cartan_check"),
    ("minkowski", "su2", "none", "parametrix"),
    ("minkowski", "u1", "none", "energy_balance"),
    ("minkowski", "u1", "none", "evolution"),
])
def test_unmet_needs_rejected_in_one_message(chart, algebra, profile,
                                             experiment):
    doc = {"chart": chart, "algebra": algebra, "field": profile,
           "experiments": ["bounds", experiment]}
    with pytest.raises(runner.ConfigError) as exc:
        runner.parse_config(doc)
    [problem] = exc.value.problems
    for name in (experiment, profile, chart):
        assert f"'{name}'" in problem


@pytest.mark.parametrize("field", [
    {"profile": "plane_wave", "params": {"omega": 1.0, "phase": 0.5}},
    {"profile": "plane_wave", "params": {"omega": "fast"}},
    {"profile": "plane_wave", "params": {"direction": [0, 0, 0]}},
    {"profile": "constant", "params": {"components": [[0, 4, 1.0]]}},
    {"profile": "coulomb", "params": [1.0]},
    {"profile": "coulomb"},                   # singular at the default vertex
    {"profile": "plane_wave", "params": {"omega": True}},   # would run as 1
    {"profile": "constant", "params": {"components": [[0, True, 1.0]]}},
    {"profile": "constant", "params": {"components": [[0.5, 1.9, 1.0]]}},
    {"profile": "constant", "params": {"components": [[-1, 0, 1.0]]}},
    {"profile": "constant", "params": {"components": [[1, 1, 1.0]]}},
])
def test_bad_field_params_name_the_field(field):
    with pytest.raises(runner.ConfigError) as exc:
        runner.parse_config({"chart": "minkowski", "field": field})
    assert any("field.params" in p for p in exc.value.problems)


@pytest.mark.parametrize("tolerances,key", [
    ({"bounds": "tight"}, "bounds"),
    ({"parametrix": 0.0}, "parametrix"),
    ({"cone_geometry": float("inf")}, "cone_geometry"),
    ({"energy_balance_drift": 1e-4}, "energy_balance_drift"),
    ({"evolution": 1.0}, "evolution"),
])
def test_bad_tolerances_name_the_key(tolerances, key):
    # the verdict thresholds are fixed: a 'tolerances' section, even one
    # that names an experiment, is an unknown top-level key
    with pytest.raises(runner.ConfigError) as exc:
        runner.parse_config(dict(MINIMAL, tolerances=tolerances))
    assert exc.value.problems == ["unknown top-level keys: tolerances"]


def test_evolution_reads_its_own_tolerance():
    # the verdict is energy drift < 1e-4: the default step drifts by 1.1e-4
    # over a quarter crossing, half of it by 3.6e-6
    doc = {"chart": "minkowski", "algebra": "su2",
           "experiments": ["evolution"]}
    for dt_factor, ok in ((0.1, True), (0.2, False)):
        scn = runner.parse_config(dict(doc, evolution={
            "n": 8, "crossings": 0.25, "dt_factor": dt_factor}))
        report = runner.run(scn)
        assert report.passed["evolution"] is ok
        assert (report.metrics["evolution"]["energy_drift"] < 1e-4) is ok


def test_transport_gauge_rotation_passes():
    # the bump's potential rotates psi away from the seed at unchanged size
    scn = runner.parse_config({
        "chart": "minkowski", "algebra": "su2", "field": "su2_bump",
        "cone": {"n_theta": 4, "n_phi": 8, "s_max": 1.2, "ds": 0.05},
        "experiments": ["transport"]})
    report = runner.run(scn)
    assert report.passed["transport"], report.metrics
    assert report.metrics["transport"]["max_deviation_from_seed"] > 1e-3


def test_empty_experiment_list_gives_empty_report():
    scn = runner.parse_config({"chart": "minkowski", "experiments": []})
    report = runner.run(scn)
    assert report.metrics == {} and not report.partial


def test_run_and_emit_deterministic(tmp_path):
    scn = runner.parse_config(dict(MINIMAL, seed=7))
    r1, r2 = runner.run(scn), runner.run(scn)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    runner.emit(r1, d1)
    runner.emit(r2, d2)
    assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
    assert (d1 / "bounds.csv").read_bytes() == (d2 / "bounds.csv").read_bytes()


def test_failed_experiment_marks_partial():
    # on this short cone the rays never reach the initial-data slice
    scn = runner.parse_config({"chart": "minkowski", "field": "plane_wave",
                               "cone": {"s_max": 0.5, "ds": 0.01},
                               "experiments": ["parametrix", "bounds"]})
    report = runner.run(scn)
    assert report.partial
    assert report.passed["parametrix"] is False
    assert "never reach" in report.metrics["parametrix"]["error"]
    assert report.passed["bounds"] is True        # the others still ran


def test_blowing_up_bounds_names_its_fields():
    # the full envelope for c = 5 blows up inside [0, t1]: the run says so
    # before the Picard oracle overflows
    scn = runner.parse_config(dict(MINIMAL, bounds={"c": 5.0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = runner.run(scn)
    error = report.metrics["bounds"]["error"]
    assert error.startswith("BoundsError") and "'bounds.c'" in error
    assert "'bounds.t1'" in error and report.partial


def test_report_schema_version_checked(tmp_path):
    scn = runner.parse_config(MINIMAL)
    runner.emit(runner.run(scn), tmp_path)
    with open(tmp_path / "report.json") as fh:
        doc = json.load(fh)
    assert doc["schema_version"] == runner.SCHEMA_VERSION
    # the report's own fields, less the CSV rows
    assert set(doc) == {"schema_version", "code_version", "config_hash",
                        "metrics", "passed", "partial"}


def _bundles_built(monkeypatch, doc):
    """Run ``doc`` and count the NullConeBundle constructions."""
    built = []
    init = nullcone.NullConeBundle.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(nullcone.NullConeBundle, "__init__", counting)
    report = runner.run(runner.parse_config(doc))
    assert not report.partial, report.metrics
    return len(built)


def test_cone_experiments_share_one_bundle(monkeypatch):
    # one cone for all four cone experiments
    assert _bundles_built(monkeypatch, {
        "chart": "minkowski",
        "field": {"profile": "plane_wave"},
        "cone": {"n_theta": 6, "n_phi": 12, "s_max": 1.2, "ds": 0.02},
        "experiments": ["cone_geometry", "transport", "parametrix",
                        "energy_balance"],
    }) == 1


def test_curved_cone_experiments_share_one_bundle(monkeypatch):
    # one cone for the cone experiments on a curved chart too: the mass
    # aspect comes from that cone, with no second one
    assert _bundles_built(monkeypatch, {
        "chart": "schwarzschild",
        "field": {"profile": "coulomb"},
        "cone": {"n_theta": 6, "n_phi": 12, "s_max": 1.0, "ds": 0.02},
        "experiments": ["cone_geometry", "parametrix", "energy_balance"],
    }) == 1


@pytest.mark.parametrize("chart, algebra, profile, s_max, seed_ndim", [
    ("minkowski", "u1", "plane_wave", 1.2, 0),   # one scalar weight
    ("minkowski", "su2", "constant", 1.2, 4),    # seed stack: non-abelian
    ("schwarzschild", "u1", "coulomb", 1.0, 4),  # seed stack: curved
])
def test_reconstruction_and_energy_identity_pass(chart, algebra, profile,
                                                 s_max, seed_ndim,
                                                 monkeypatch):
    # the config fuzz reaches these two experiments rarely; here each weight
    # route of the reconstruction runs both through runner.run
    seen = []
    transport = parametrix.transport_weight

    def recording(bundle, seed, *args):
        seen.append(np.ndim(seed))
        return transport(bundle, seed, *args)

    monkeypatch.setattr(parametrix, "transport_weight", recording)
    report = runner.run(runner.parse_config({
        "chart": chart, "algebra": algebra, "field": {"profile": profile},
        "cone": {"n_theta": 4, "n_phi": 8, "s_max": s_max, "ds": 0.05},
        "experiments": ["parametrix", "energy_balance"]}))
    assert not report.partial, report.metrics
    assert report.passed == {"parametrix": True, "energy_balance": True}
    assert seen == [seed_ndim]


def test_cartan_samples_leaving_the_chart_name_the_sample():
    # at r = 2.25 the samples spread 0.05 coordinate_scale in the vertex
    # frame, and some of them or their difference stencils cross r = 2M:
    # the check refuses them before it evaluates anything, so no
    # RuntimeWarning from the static frame's power escapes
    scn = runner.parse_config({"chart": "schwarzschild",
                               "vertex": [0.0, 2.25, math.pi / 2, 0.0],
                               "experiments": ["cartan_check"]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = runner.run(scn)
    error = report.metrics["cartan_check"]["error"]
    assert error.startswith("GeometryError: Cartan sample 2 at [")
    assert scn.chart.domain in error


@pytest.mark.parametrize("seed", [29, 50])
def test_cartan_check_samples_near_the_vertex(seed):
    # with offsets drawn in coordinates, these seeds put sample points near
    # the Schwarzschild polar axis, where the nested differences fail
    scn = runner.parse_config({"chart": "schwarzschild", "seed": seed,
                               "experiments": ["cartan_check"]})
    report = runner.run(scn)
    assert report.passed["cartan_check"], report.metrics


def test_canonical_seeds_are_antisymmetric_basis():
    import itertools
    u1 = runner.make_algebra("u1")
    seeds = runner.canonical_seeds(u1)
    assert len(seeds) == 6
    for a, b in itertools.combinations(range(6), 2):
        assert abs(np.sum(seeds[a] * seeds[b])) == 0.0
    for s in seeds:
        assert np.max(np.abs(s + np.swapaxes(s, 0, 1))) == 0.0


def test_cli_validate_and_catalog(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(MINIMAL))
    assert runner.main(["validate", str(cfg)]) == 0
    assert runner.main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "minkowski" in out and "bounds" in out


def test_cli_run_writes_report(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(MINIMAL)))
    out_dir = tmp_path / "out"
    code = runner.main(["run", str(cfg), "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "report.json").exists()
    assert "bounds: pass" in capsys.readouterr().out


def test_cli_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"chart": "kerr"}))
    assert runner.main(["validate", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_missing_file(capsys):
    assert runner.main(["run", "/nonexistent/cfg.json"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: cannot read config /nonexistent/cfg.json: ")


def test_cli_run_without_out_writes_ymcone_out(tmp_path, capsys,
                                              monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(MINIMAL))
    monkeypatch.chdir(tmp_path)
    assert runner.main(["run", str(cfg)]) == 0
    assert (tmp_path / "ymcone_out" / "report.json").exists()
    lines = capsys.readouterr().out.splitlines()
    assert "bounds: pass" in lines
    assert "report: ymcone_out/report.json" in lines


def test_plane_wave_profile_is_transverse():
    u1 = runner.make_algebra("u1")
    F = runner.plane_wave_field(u1, omega=2.0, direction=(0.0, 0.0, 1.0))
    val = F(np.zeros(4))
    assert np.max(np.abs(val + np.swapaxes(val, 0, 1))) < 1e-15
    assert np.max(np.abs(val)) > 0.1


SU2_LATTICE_SETUP = """
import sys
from ymcone import evolution, liegauge, runner
scn = runner.parse_config({
    "chart": "minkowski", "algebra": "su2",
    "evolution": {"n": 32, "length": 1.0, "dt_factor": 0.05,
                  "crossings": 3.0, "amplitude": 0.1},
    "bounds": {"c": 0.1}, "experiments": ["evolution", "bounds"], "seed": 1})
evolution.Lattice2D(32)
liegauge.su2()
"""

# the whole run: the lattice RK4, both envelopes with the Picard oracle,
# and the report files
SU2_LATTICE_RUN = SU2_LATTICE_SETUP + """
import tempfile
with tempfile.TemporaryDirectory() as out:
    runner.emit(runner.run(scn), out)
"""

LOADED_SCIPY = """
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


@pytest.mark.parametrize("script", [SU2_LATTICE_SETUP, SU2_LATTICE_RUN],
                         ids=["setup", "run"])
def test_lattice_setup_loads_no_scipy(script):
    # a fresh process pays for every import on the path the script takes
    src = os.path.dirname(os.path.dirname(os.path.abspath(runner.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", script + LOADED_SCIPY],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# a ConfigError is no run-time error: parse_config raises every one
YMCONE_ERRORS = {name for mod in (bounds, evolution, geometry, liegauge,
                                   nullcone)
                 for name, obj in vars(mod).items()
                 if isinstance(obj, type) and issubclass(obj, Exception)
                 and obj.__module__ == mod.__name__}


@st.composite
def catalog_docs(draw):
    """A scenario parse_config accepts: params and a vertex that validate,
    and only experiments whose needs the chart, algebra and profile meet."""
    name = draw(st.sampled_from(runner.CHARTS))
    params = {}
    if name in ("schwarzschild", "schwarzschild-isotropic"):
        params["mass"] = draw(st.sampled_from([0.5, 1.0]))
    if name == "flrw":
        # the default vertex t = 2(1 + p) reaches the big bang a = 0 at s = 2;
        # the derandomized draws favour the first value of each list
        params["power"] = draw(st.sampled_from([1.0, 2.0, 0.5]))
    chart = geometry.make_chart(name, **params)
    # a vertex off x1 = 0, where the Coulomb profile is singular; on the
    # Schwarzschild charts x1 > 2.2 lies outside the horizon of either mass
    vertex = chart.default_vertex()
    vertex[1] = draw(st.floats(2.2, 12.0))
    algebra = draw(st.sampled_from(runner.ALGEBRAS))
    basis = liegauge.make_algebra(algebra)
    profile = draw(st.sampled_from([p for p in runner.PROFILES
                                    if p != "su2_bump" or not basis.abelian]))
    field_params = {
        "plane_wave": {"omega": draw(st.sampled_from([1.0, 2.5])),
                       "direction": draw(st.sampled_from(
                           [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]))},
        "constant": {"components": [[*draw(st.permutations(range(4)))[:2],
                                     draw(st.sampled_from([1.0, -0.5]))]]},
        "coulomb": {"charge": draw(st.sampled_from([1.0, -2.0]))},
        "su2_bump": {"amplitude": draw(st.sampled_from([0.1, 0.3]))},
    }.get(profile, {})

    def met(spec):
        return (not spec.solution
                or name in runner.PROFILES[profile].solves_on) \
            and (not spec.ricci_flat or chart.ricci_flat) \
            and (not spec.lattice or (chart.flat and not basis.abelian))

    doc = {"chart": {"name": name, "params": params},
           "algebra": algebra,
           "field": {"profile": profile, "params": field_params},
           "vertex": vertex.tolist(),
           "experiments": draw(st.lists(st.sampled_from(
               [e for e, spec in runner.EXPERIMENTS.items() if met(spec)]),
               unique=True, max_size=3)),
           "cone": {"n_theta": 4, "n_phi": 8,
                    "ds": draw(st.sampled_from([0.02, 0.05])),
                    "s_max": draw(st.sampled_from([0.6, 1.2]))},
           "evolution": {"n": 8, "crossings": 0.25},
           "bounds": {"c": draw(st.sampled_from([0.1, 5.0]))},
           "seed": draw(st.integers(0, 1000))}
    if name == "flrw":
        doc["cone"]["s_max"] = draw(st.sampled_from([2.5, 1.2]))
    return doc


@settings(derandomize=True, deadline=None, max_examples=60)
@given(catalog_docs())
def test_accepted_configs_run_or_name_their_error(doc):
    report = runner.run(runner.parse_config(doc))
    for name, metrics in report.metrics.items():
        if "error" in metrics:
            assert metrics["error"].split(":")[0] in YMCONE_ERRORS, metrics
        else:
            assert all(map(math.isfinite, metrics.values())), (name, metrics)
