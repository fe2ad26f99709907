"""Stress tensor algebra, fluxes, slice quadrature, divergence identity."""

import numpy as np
import pytest

from ymcone import (energy, geometry, liegauge, nullcone, parametrix, runner,
                    sphere)

import oracles

#: curved charts with points where the su(2) bump of width 3 is of order 1
CURVED_POINTS = [
    ("schwarzschild", {"mass": 1.0},
     [[0.3, 3.0, 1.2, 0.3], [0.5, 4.5, 0.9, 1.0]]),
    ("flrw", {"power": 0.5}, [[2.0, 0.1, 0.2, 0.3], [1.5, -0.3, 0.4, 0.1]]),
]


@pytest.fixture(scope="module")
def u1():
    return liegauge.u1()


def _wave(u1):
    return runner.plane_wave_field(u1, omega=1.0, direction=(1.0, 1.0, 0.0))


def _su2_bump():
    A = runner.su2_bump_potential(liegauge.su2(), amplitude=0.3, width=3.0)
    return liegauge.curvature_from_potential(A)


def test_stress_tensor_symmetric_traceless(flat_chart, u1):
    F = _wave(u1)
    pts = np.random.default_rng(0).standard_normal((6, 4))
    T = oracles.stress_tensor(flat_chart, pts, F)
    assert np.max(np.abs(T - np.swapaxes(T, -1, -2))) < 1e-12
    ginv = geometry.inverse_metric(flat_chart, pts)
    tr = np.einsum("...mn,...mn->...", ginv, T)
    assert np.max(np.abs(tr)) < 1e-10


def test_stress_tensor_traceless_curved(schw_chart, u1):
    F = runner.coulomb_field(u1)
    pts = np.array([[0.0, 9.0, 1.2, 0.3], [0.5, 11.0, 0.9, 1.0]])
    T = oracles.stress_tensor(schw_chart, pts, F)
    ginv = geometry.inverse_metric(schw_chart, pts)
    tr = np.einsum("...mn,...mn->...", ginv, T)
    assert np.max(np.abs(tr)) < 1e-12


def test_energy_density_nonnegative(flat_chart, u1):
    F = _wave(u1)
    pts = np.random.default_rng(1).standard_normal((20, 4))
    dens = energy.frame_energy_density(flat_chart, pts, F)
    assert np.all(dens >= -1e-14)


@pytest.mark.parametrize("name,params,pts", CURVED_POINTS)
def test_frame_energy_density_is_stress_on_unit_normal(name, params, pts):
    chart = geometry.make_chart(name, **params)
    pts = np.asarray(pts)
    F = _su2_bump()
    dens = energy.frame_energy_density(chart, pts, F)
    that = geometry.unit_time(chart, pts)
    want = np.einsum("...mn,...m,...n->...",
                     oracles.stress_tensor(chart, pts, F), that, that)
    assert np.min(want) > 1e-6
    assert np.max(np.abs(dens - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name,params,pts", CURVED_POINTS)
def test_bulk_density_matches_deformation_tensor(name, params, pts):
    # the closed-form diagonal pi^{mn} against the generic Gamma-based
    # deformation tensor of d/dt; d/dt is Killing on Schwarzschild only
    chart = geometry.make_chart(name, **params)
    pts = np.asarray(pts)
    F = _su2_bump()
    got = energy.bulk_density(chart, pts, F)
    pi = oracles.deformation_tensor(chart, pts,
                                    oracles.coordinate_time_field())
    want = np.einsum("...mn,...mn->...", pi,
                     oracles.stress_tensor(chart, pts, F))
    if name == "flrw":
        assert np.min(np.abs(want)) > 1e-6
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_consumers_reject_degenerate_point(schw_chart, u1):
    # every 1/g_aa goes through the checked Chart.inverse_diagonal
    horizon = np.array([[0.0, 10.0, 1.0, 0.0], [0.0, 2.0, 1.0, 0.0]])
    F = runner.coulomb_field(u1)
    calls = (lambda: parametrix.raise_two_form(schw_chart, horizon,
                                               F(horizon)),
             lambda: oracles.stress_tensor(schw_chart, horizon, F),
             lambda: energy.frame_energy_density(schw_chart, horizon, F))
    with np.errstate(divide="ignore", invalid="ignore"):
        for call in calls:
            with pytest.raises(geometry.DegenerateMetricError):
                call()


def test_flux_frame_form_matches_direct(schw_bundle, u1):
    F = runner.coulomb_field(u1)
    F_nodes = parametrix.sample_field(schw_bundle, F, (4, 4, 1))
    d1 = energy.flux_density_frame(schw_bundle, F_nodes)
    d2 = oracles.flux_density_direct(schw_bundle, F_nodes)
    scale = np.max(np.abs(d2)) + 1e-300
    assert np.max(np.abs(d1[1:] - d2[1:])) / scale < 1e-10


def test_slice_quadrature_ball_volume(flat_bundle):
    # the crossing region of the flat cone with t = -a is a ball of radius a
    cr = flat_bundle.crossing(-0.8)
    pts, w = energy.slice_region_quadrature(cr, n_radial=20)
    vol = float(np.sum(w))
    assert abs(vol - 4.0 * np.pi * 0.8 ** 3 / 3.0) < 1e-8
    # all quadrature points sit on the slice
    assert np.max(np.abs(pts[..., 0] + 0.8)) < 1e-10


def test_bulk_term_zero_flat(flat_bundle, u1):
    F = _wave(u1)
    val = energy.bulk_term(F, flat_bundle, -0.8, -0.4, n_time=4, n_radial=8)
    assert abs(val) < 1e-12


def _counting(F):
    """F as a FieldStrength that records the point shape of every call."""
    shapes = []

    def fn(x):
        shapes.append(np.shape(x)[:-1])
        return F(x)

    return liegauge.FieldStrength(F.basis, fn), shapes


def test_bulk_term_skips_the_field_where_time_is_killing(schw_bundle, u1,
                                                         monkeypatch):
    # t is ignorable on both static charts, so pi(d/dt) vanishes: the bulk
    # term is exactly zero, builds no crossing and never evaluates F
    iso = geometry.make_chart("schwarzschild-isotropic", mass=1.0)
    iso_bundle = nullcone.NullConeBundle(iso, iso.default_vertex(),
                                         sphere.SphereGrid(6, 12), s_max=0.5,
                                         ds=0.005)
    for bundle in (schw_bundle, iso_bundle):
        assert 0 in bundle.chart.ignorable
        crossings, build = [], bundle.crossing

        def crossing(t, build=build, crossings=crossings):
            crossings.append(t)
            return build(t)

        monkeypatch.setattr(bundle, "crossing", crossing)
        F, shapes = _counting(runner.coulomb_field(u1))
        val = energy.bulk_term(F, bundle, -0.45, -0.2, n_time=4, n_radial=6)
        assert val == 0.0
        assert shapes == []
        assert crossings == []


def test_bulk_term_on_flrw_is_the_deformation_integral():
    # where d/dt is not Killing the bulk term is the quadrature of
    # pi^{mn} T_{mn} from the generic deformation tensor and stress tensor
    chart = geometry.make_chart("flrw", power=0.5)
    bundle = nullcone.NullConeBundle(chart, np.array([2.0, 0.0, 0.0, 0.0]),
                                     sphere.SphereGrid(6, 12), s_max=0.5,
                                     ds=0.005)
    F, shapes = _counting(_su2_bump())
    t0, t1 = 1.6, 1.8
    got = energy.bulk_term(F, bundle, t0, t1, n_time=3, n_radial=6)
    tq, wq = np.polynomial.legendre.leggauss(3)
    want = 0.0
    for tv, wt in zip(0.5 * (t1 - t0) * (tq + 1.0) + t0, 0.5 * (t1 - t0) * wq):
        pts, w = energy.slice_region_quadrature(bundle.crossing(tv), 6)
        pi = oracles.deformation_tensor(chart, pts,
                                        oracles.coordinate_time_field())
        dens = np.einsum("...mn,...mn->...", pi,
                         oracles.stress_tensor(chart, pts, F))
        vol = np.sqrt(np.abs(np.prod(chart.diagonal(pts), axis=-1)))
        want += wt * float(np.sum(w * dens * vol))
    assert abs(want) > 1e-6
    assert abs(got - want) <= 1e-12 * abs(want)
    assert len(shapes) == 6


def test_cone_flux_samples_only_the_slices_it_reads(schw_bundle, u1):
    # the flux quadrature reads slices 0 .. far.stop - 1, and F is evaluated
    # on those alone; the value is the one from F on every slice
    far, near = schw_bundle.crossing(-0.45), schw_bundle.crossing(-0.2)
    assert far.stop < schw_bundle.n_s + 1
    F, shapes = _counting(runner.coulomb_field(u1))
    got = energy.cone_flux(schw_bundle, F, far, near)
    assert sum(shape[0] for shape in shapes) == far.stop
    assert all(shape[1:] == schw_bundle.x.shape[1:3] for shape in shapes)
    F_all = parametrix.sample_field(schw_bundle, F, (4, 4, 1))
    want = schw_bundle.cone_integral(
        energy.flux_density_frame(schw_bundle, F_all), far, near)
    assert got == want


def test_divergence_identity_flat(flat_bundle, u1):
    F = _wave(u1)
    rep = energy.divergence_identity_report(F, flat_bundle, -0.9, -0.45)
    assert rep["bulk"] == 0.0
    assert rep["relative_residual"] < 1e-3


def test_divergence_identity_schwarzschild(schw_bundle, u1):
    F = runner.coulomb_field(u1)
    rep = energy.divergence_identity_report(F, schw_bundle, -0.45, -0.2)
    # static chart, static field: the bulk term vanishes (Killing time)
    assert rep["relative_residual"] < 1e-2
