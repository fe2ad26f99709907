"""Config parsing, report emission, determinism, and the CLI entry point."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ymcone import nullcone, runner

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
    runner.parse_config(doc)                       # lenient by default
    with pytest.raises(runner.ConfigError):
        runner.parse_config(doc, strict=True)


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
    # parametrix without a field profile cannot run
    scn = runner.parse_config({"chart": "minkowski",
                               "experiments": ["parametrix", "bounds"]})
    report = runner.run(scn)
    assert report.partial
    assert report.passed["parametrix"] is False
    assert report.passed["bounds"] is True        # the others still ran


def test_report_schema_version_checked(tmp_path):
    scn = runner.parse_config(MINIMAL)
    runner.emit(runner.run(scn), tmp_path)
    path = tmp_path / "report.json"
    doc = runner.load_report(path)
    assert doc["schema_version"] == runner.SCHEMA_VERSION
    doc["schema_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        runner.load_report(path)


def test_cone_experiments_share_one_bundle(monkeypatch):
    # one main cone for all four cone experiments, plus the one complex-step
    # twin cone of the mass aspect that the parametrix needs
    built = []
    init = nullcone.NullConeBundle.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(nullcone.NullConeBundle, "__init__", counting)
    scn = runner.parse_config({
        "chart": "minkowski",
        "field": {"profile": "plane_wave"},
        "cone": {"n_theta": 6, "n_phi": 12, "s_max": 1.2, "ds": 0.02},
        "experiments": ["cone_geometry", "transport", "parametrix",
                        "energy_balance"],
    })
    report = runner.run(scn)
    assert not report.partial, report.metrics
    assert len(built) == 2


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


def test_env_var_output_dir(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(MINIMAL))
    target = tmp_path / "envout"
    monkeypatch.setenv("YMCONE_OUT", str(target))
    assert runner.main(["run", str(cfg)]) == 0
    assert (target / "report.json").exists()


def test_plane_wave_profile_is_transverse():
    u1 = runner.make_algebra("u1")
    F = runner.plane_wave_field(u1, omega=2.0, direction=(0.0, 0.0, 1.0))
    val = F(np.zeros(4))
    assert np.max(np.abs(val + np.swapaxes(val, 0, 1))) < 1e-15
    assert np.max(np.abs(val)) > 0.1


SU2_LATTICE_SETUP = """
import sys
from ymcone import evolution, liegauge, runner
runner.parse_config({
    "chart": "minkowski", "algebra": "su2",
    "evolution": {"n": 32, "length": 1.0, "dt_factor": 0.05,
                  "crossings": 3.0, "amplitude": 0.1},
    "bounds": {"c": 0.1}, "experiments": ["evolution", "bounds"], "seed": 1})
evolution.Lattice2D(32)
liegauge.su2()
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_lattice_setup_loads_no_scipy():
    # a fresh process pays for every import on the set-up path
    src = os.path.dirname(os.path.dirname(os.path.abspath(runner.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", SU2_LATTICE_SETUP], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
