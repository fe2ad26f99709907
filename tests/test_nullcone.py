"""Null cone bundles: flat closed forms, frame identities, curved checks."""

import numpy as np
import pytest

from ymcone import energy, geometry, liegauge, nullcone, runner, sphere

import oracles


def test_flat_expansion_closed_form(flat_bundle):
    opt = flat_bundle.optical()
    live = flat_bundle.s >= 0.1
    dev = flat_bundle.s[live, None, None] * opt["trchi"][live] / 2.0 - 1.0
    assert np.max(np.abs(dev)) < 1e-10


def test_flat_area_density_closed_form(flat_bundle):
    # J = s^2 on the flat cone
    opt = flat_bundle.optical()
    live = flat_bundle.s >= 0.05
    dev = opt["J"][live] / flat_bundle.s[live, None, None] ** 2 - 1.0
    assert np.max(np.abs(dev)) < 1e-10


def test_flat_sphere_areas(flat_bundle):
    areas = flat_bundle.area()
    live = flat_bundle.s >= 0.05
    expected = 4.0 * np.pi * flat_bundle.s[live] ** 2
    assert np.max(np.abs(areas[live] / expected - 1.0)) < 1e-10


def test_flat_shear_and_torsion_vanish(flat_bundle):
    opt = flat_bundle.optical()
    assert np.max(np.abs(opt["chihat2"])) < 1e-10
    assert np.max(np.abs(opt["zeta"])) < 1e-9


def test_flat_rays_are_straight(flat_bundle):
    # x(s) = -s * (1, -omega) for the past cone from the origin
    dirs = flat_bundle.grid.directions()
    s = flat_bundle.s[:, None, None]
    assert np.max(np.abs(flat_bundle.x[..., 0] + s)) < 1e-12
    spatial = flat_bundle.x[..., 1:]
    assert np.max(np.abs(spatial - s[..., None] * dirs[None])) < 1e-12


def test_flat_null_lapse_is_one(flat_bundle):
    assert np.max(np.abs(flat_bundle.phi - 1.0)) < 1e-12


def test_frame_pairings_flat(flat_bundle):
    res = flat_bundle.frame_pairing_residuals()
    assert max(res.values()) < 1e-10


def test_frame_pairings_schwarzschild(schw_bundle):
    res = schw_bundle.frame_pairing_residuals()
    assert max(res.values()) < 1e-10


def test_rays_stay_null_schwarzschild(schw_bundle):
    ll = schw_bundle.dot(schw_bundle.L, schw_bundle.L)
    assert np.max(np.abs(ll)) < 1e-10


def test_transport_consistency(flat_bundle, schw_bundle):
    assert flat_bundle.transport_consistency() < 1e-9
    assert schw_bundle.transport_consistency() < 1e-6


def test_crossing_ring_area_flat(flat_bundle):
    # the t = -a slice cuts the flat cone in a sphere of radius a
    cr = flat_bundle.crossing(-0.6)
    assert np.max(np.abs(cr.s_star - 0.6)) < 1e-10
    ones = np.ones((flat_bundle.grid.n_theta, flat_bundle.grid.n_phi))
    # ring measure includes the null lapse (= 1 here)
    area = cr.ring_integral(ones)
    assert abs(area - 4.0 * np.pi * 0.36) < 1e-8


@pytest.mark.parametrize("t_slice", [0.0, 0.2])
def test_crossing_refuses_a_slice_at_or_above_the_vertex(flat_bundle,
                                                         t_slice):
    # the past cone from t = 0 meets such a slice at most in its vertex, a
    # ring at s* = 0 that the reconstruction divides by
    with pytest.raises(nullcone.ConeError, match="vertex time 0"):
        flat_bundle.crossing(t_slice)


def test_crossing_interpolation_recovers_smooth_field(flat_bundle):
    cr = flat_bundle.crossing(-0.37)
    f = np.sin(flat_bundle.x[..., 0])         # smooth function of t
    got = cr.interpolate(f)
    assert np.max(np.abs(got - np.sin(-0.37))) < 1e-9


def _cone_volume(s_near, s_far):
    """4 pi (s_far^3 - s_near^3) / 3: f = 1 over the flat cone, J = s^2."""
    return 4.0 * np.pi * (s_far ** 3 - s_near ** 3) / 3.0


def test_cone_integral_volume(flat_bundle):
    # vertex to the ring t = -0.6: int_0^0.6 4 pi s^2 ds
    f = np.ones_like(flat_bundle.x[..., 0])
    vol = flat_bundle.cone_integral(f, flat_bundle.crossing(-0.6))
    # trapezoid in s near the closed vertex region: O(ds^2)
    assert abs(vol / _cone_volume(0.0, 0.6) - 1.0) < 1e-4


def test_cone_integral_adjacent_cells(flat_bundle):
    # the crossings fall in the neighbouring cells [80, 81] and [81, 82], so
    # no whole cell lies between them; node 81 is shared by the two end cells
    near, far = flat_bundle.crossing(-0.4003), flat_bundle.crossing(-0.4071)
    assert np.all(near.i0 == 80) and np.all(far.i0 == 81)
    f = np.ones_like(flat_bundle.x[..., 0])
    vol = flat_bundle.cone_integral(f, far, near)
    assert abs(vol / _cone_volume(0.4003, 0.4071) - 1.0) < 1e-4


def test_cone_integral_one_cell(flat_bundle):
    # both crossings inside the cell [80, 81]: the single trapezoid between
    # the rings, 4 pi (b - a)(a^2 + b^2) / 2 with J = s^2 interpolated exactly
    a, b = 0.4003, 0.4041
    near, far = flat_bundle.crossing(-a), flat_bundle.crossing(-b)
    assert np.all(near.i0 == 80) and np.all(far.i0 == 80)
    f = np.ones_like(flat_bundle.x[..., 0])
    vol = flat_bundle.cone_integral(f, far, near)
    assert abs(vol / (2.0 * np.pi * (b - a) * (a * a + b * b)) - 1.0) < 1e-9
    assert abs(vol / _cone_volume(a, b) - 1.0) < 1e-4


def test_cone_integral_reads_only_up_to_the_ring(flat_bundle):
    # data over slices 0 .. stop - 1 give the whole-cone value; fewer
    # slices than the ring interpolation reads are refused
    far = flat_bundle.crossing(-0.6)
    f = np.cos(flat_bundle.x[..., 1]) + flat_bundle.s[:, None, None]
    assert far.stop == int(np.max(far.i0)) + 3 < flat_bundle.n_s + 1
    whole = flat_bundle.cone_integral(f, far)
    assert flat_bundle.cone_integral(f[:far.stop], far) == pytest.approx(
        whole, rel=1e-14)
    with pytest.raises(ValueError, match="covers"):
        flat_bundle.cone_integral(f[:far.stop - 1], far)


def test_cone_integral_rejects_nan(flat_bundle):
    f = np.ones_like(flat_bundle.x[..., 0])
    f[3, 1, 2] = np.nan
    with pytest.raises(nullcone.ConeError, match=r"\(3, 1, 2\)"):
        flat_bundle.cone_integral(f, flat_bundle.crossing(-0.6))


def test_cone_integral_rejects_swapped_crossings(flat_bundle):
    # a near ring past the far one names the ray instead of returning a
    # number (0.0099 here, for a region of volume 0.637)
    f = np.ones_like(flat_bundle.x[..., 0])
    far, near = flat_bundle.crossing(-0.4), flat_bundle.crossing(-0.6)
    with pytest.raises(nullcone.ConeError,
                       match=r"ray \(theta, phi\) = \(0, 0\)"):
        flat_bundle.cone_integral(f, far, near)
    F = runner.plane_wave_field(liegauge.u1())
    with pytest.raises(nullcone.ConeError, match="near crossing"):
        energy.divergence_identity_report(F, flat_bundle, -0.4, -0.6)


@pytest.fixture(scope="module")
def flrw_bundle():
    chart = geometry.make_chart("flrw", power=0.5)
    return nullcone.NullConeBundle(chart, np.array([2.0, 0.0, 0.0, 0.0]),
                                   sphere.SphereGrid(6, 12), s_max=0.5,
                                   ds=0.005)


@pytest.mark.parametrize("name", ["schw_bundle", "flrw_bundle"])
def test_optical_matches_the_batched_screen_algebra(name, request):
    # the component arithmetic of ``optical`` against batched matrix
    # products with the full Christoffel symbols, on the live slices; FLRW
    # (p = 1/2) is the catalog chart with k != 0.  Each value is compared
    # against the size of the terms it is built from: trchi for k and zeta
    # too, trchi^2 for the shear and khat.chihat
    b = request.getfixturevalue(name)
    opt, ref = b.optical(), oracles.screen_algebra(b)
    live = b.s >= b.s_min
    tr = np.max(np.abs(ref["trchi"][live]))
    size = {"trchi": tr, "kscreen": tr, "zeta": tr, "chihat2": tr ** 2,
            "khat_chihat": tr ** 2,
            "minv": np.max(np.abs(ref["minv"][live])),
            "cb": np.max(np.abs(opt["Ytilde"][live])),
            "J": np.max(ref["J"][live])}
    for key, scale in size.items():
        gap = np.max(np.abs(opt[key][live] - ref[key][live]))
        assert gap <= 1e-14 * scale, (key, gap / scale)
    chi = ref["chi"][live]
    asym = np.max(np.abs(chi - np.swapaxes(chi, -1, -2)))
    assert abs(opt["chi_asym"] - asym) <= 1e-14 * np.max(np.abs(chi))
    if name == "flrw_bundle":
        assert np.min(np.abs(ref["kscreen"][live])) > 0.1


def test_static_slices_have_no_extrinsic_curvature(schw_bundle):
    # d_t is hypersurface-orthogonal and Killing on both Schwarzschild
    # charts, so the t-slices have no second fundamental form
    chart = geometry.make_chart("schwarzschild-isotropic", mass=1.0)
    iso = nullcone.NullConeBundle(chart, chart.default_vertex(),
                                  schw_bundle.grid, s_max=0.5, ds=0.005)
    for b in (schw_bundle, iso):
        assert np.max(np.abs(b.optical()["kscreen"])) < 1e-15


def test_flrw_screen_extrinsic_curvature(flrw_bundle):
    # a = t^p gives K_ij = (p / t) h_ij, so its screen trace is 2p/t
    b = flrw_bundle
    live = b.s >= b.s_min
    k = b.optical()["kscreen"][live]
    want = 2.0 * b.chart.power / b.x[live][..., 0]
    assert np.max(np.abs(k - want)) < 1e-13


def test_flrw_vertex_slice_extrinsic_curvature(flrw_bundle):
    # the vertex slice has no screen; its k is extrapolated from slices 1-3
    # (a copy of slice 1 is 1.25e-3 off here)
    b = flrw_bundle
    k = b.optical()["kscreen"][0]
    assert np.max(np.abs(k - 2.0 * b.chart.power / b.p[0])) < 1e-6


def _trchibar_lbar_route(b):
    """tr g(nabla_b Lbar, Ytilde_c) with Lbar differentiated on the cone:
    spectrally along the spheres, by differences along the rays."""
    opt = b.optical()
    Yt = np.swapaxes(opt["Ytilde"], -1, -2)             # (..., mu, b)
    dLbar = b.grid.gradient(b.Lbar) \
        - opt["cb"][..., None, :] * b._s_derivative(b.Lbar)[..., :, None]
    gamma = geometry.christoffel(b.chart, b.x)
    nab = dLbar + np.einsum("...mab,...b,...ac->...mc", gamma, b.Lbar, Yt)
    chib = np.einsum("...mb,...m,...mc->...bc", nab, b.diagonal_nodes, Yt)
    return np.einsum("...bc,...bc->...", opt["minv"], chib)


def test_trchibar_identity_matches_lbar_route(schw_bundle, flrw_bundle):
    # trchibar = -phi (2 k + phi trchi) from Lbar = -phi (2 that + phi L).
    # At 6x12 the Lbar route is off by 9e-7 on Schwarzschild, at ds = 5e-3
    # and 2.5e-3 alike: angular aliasing of Lbar, hence the 10x20 grid
    schw = nullcone.NullConeBundle(schw_bundle.chart, schw_bundle.p,
                                   sphere.SphereGrid(10, 20), s_max=0.5,
                                   ds=0.005)
    for b, tol in ((schw, 1e-9), (flrw_bundle, 1e-12)):
        opt = b.optical()
        trchibar = -b.phi * (2.0 * opt["kscreen"] + b.phi * opt["trchi"])
        live = b.s >= b.s_min
        gap = np.abs(trchibar - _trchibar_lbar_route(b))[live]
        assert np.max(gap) < tol


def test_mass_aspect_vanishes_flat(flat_bundle):
    assert np.max(np.abs(flat_bundle.mass_aspect())) <= 1e-10


@pytest.fixture(scope="module")
def straight_cones():
    """One straight-ray cone twice: on Minkowski, set in closed form, and on
    FLRW with p = 0, whose metric is flat but whose chart is not flagged
    flat, so it runs the RK4 fan and the curved mass aspect."""
    grid = sphere.SphereGrid(8, 16)
    vertex = np.array([2.0, 0.0, 0.0, 0.0])
    return tuple(
        nullcone.NullConeBundle(chart, vertex, grid, s_max=1.0, ds=5e-3)
        for chart in (geometry.make_chart("minkowski"),
                      geometry.make_chart("flrw", power=0.0)))


def test_closed_form_fan_matches_rk4_fan(straight_cones):
    closed, rk4 = straight_cones
    assert closed.chart.flat and not rk4.chart.flat
    assert np.max(np.abs(closed.x - rk4.x)) < 1e-12
    assert np.max(np.abs(closed.L - rk4.L)) < 1e-14


def test_on_cone_mass_aspect_vanishes_on_a_flat_metric(straight_cones):
    # the curved route (div zeta, the shear terms and a Riemann pass) on a
    # flat metric; 3.5e-13 here
    _, rk4 = straight_cones
    assert np.max(np.abs(rk4.mass_aspect())) <= 1e-10


def test_mass_aspect_bounded_schwarzschild(schw_bundle):
    mu = schw_bundle.mass_aspect()
    assert np.all(np.isfinite(mu))
    assert np.max(np.abs(mu)) < 5.0


def test_mass_aspect_on_the_shortest_curved_cone(schw_bundle):
    # round(s_max / ds) = 11, the fewest slices a scenario may ask for,
    # leaves two live slices; the s-difference of div zeta needs three
    b = nullcone.NullConeBundle(schw_bundle.chart, schw_bundle.p,
                                schw_bundle.grid, s_max=0.11, ds=0.01)
    mu = b.mass_aspect()
    assert np.all(np.isfinite(mu)) and np.any(mu[b.s >= b.s_min])


def _mass_aspect_gap(bundle):
    """max |mu - exact split| over s in [0.25, 0.45], clear of the vertex
    closure and of the one-sided s-differences at the last slices."""
    gap = np.abs(bundle.mass_aspect()
                 - oracles.exact_split_mass_aspect(bundle))
    return np.max(gap[(bundle.s >= 0.25) & (bundle.s <= 0.45)])


@pytest.mark.parametrize("name", ["schwarzschild", "flrw"])
def test_mass_aspect_matches_the_exact_split(name, schw_bundle):
    # the on-cone mu against its definition off the cone, on 8x16 at ds
    # 0.02, 0.01 and 0.005.  Observed: from schw_bundle's vertex (r = 10),
    # 6.1e-7, 1.6e-7 and 4.0e-8 (order 2.0); on FLRW p = 0.5 from the
    # spatial origin, where mu = R / 3 = 0, 2.8e-4, 7.4e-5 and 1.9e-5
    # (order 1.9), the oracle's own s-differences.  The complex twin cone
    # that computed mu before missed by 4.0e-3 and 0.16 at every ds.
    chart, vertex = {
        "schwarzschild": (schw_bundle.chart, schw_bundle.p),
        "flrw": (geometry.make_chart("flrw", power=0.5),
                 np.array([2.0, 0.0, 0.0, 0.0]))}[name]
    grid = sphere.SphereGrid(8, 16)
    gaps = np.array([_mass_aspect_gap(nullcone.NullConeBundle(
        chart, vertex, grid, s_max=0.5, ds=ds)) for ds in (0.02, 0.01, 0.005)])
    assert np.all(np.log2(gaps[:-1] / gaps[1:]) > 1.7), gaps
    assert gaps[-1] < {"schwarzschild": 1e-7, "flrw": 5e-5}[name], gaps


def test_mass_aspect_matches_the_exact_split_on_schw_bundle(schw_bundle):
    # 1.2e-5 at 6x12, set by the angular resolution, which the 8x16 ladder
    # above removes; the complex twin cone missed by 3.8e-3
    assert _mass_aspect_gap(schw_bundle) < 1e-4


@pytest.mark.parametrize("power", [0.5, 1.0])
def test_flrw_mass_aspect_is_a_third_of_the_scalar_curvature(power):
    # the cone from a comoving vertex is round, so zeta = chihat = khat = 0,
    # and conformally flat, so 2 rho - Ric(L, Lbar) = R / 3: mu = 2p(2p - 1)
    # / t^2.  Without the Ricci term mu would miss by 1.5 / t^2 at p = 1
    chart = geometry.make_chart("flrw", power=power)
    b = nullcone.NullConeBundle(chart, np.array([2.0, 0.0, 0.0, 0.0]),
                                sphere.SphereGrid(6, 12), s_max=0.5,
                                ds=0.005)
    live = b.s >= b.s_min
    want = 2.0 * power * (2.0 * power - 1.0) / b.x[..., 0] ** 2
    assert np.max(np.abs(b.mass_aspect() - want)[live]) < 1e-8


def test_vertex_normalization_schwarzschild(schw_bundle):
    # the stored pairing scalar is exactly 1 at the vertex (phi(0) = 1)
    gLt0 = schw_bundle.gLt[0]
    assert np.max(np.abs(gLt0 - 1.0)) < 1e-12


def test_renormalization_drift_is_small(schw_bundle):
    assert schw_bundle.renorm_max < 1e-8


def test_flrw_area_law_conformal_closed_form():
    # a = t^p is conformally flat, so the past cone of (t0, 0) is the flat
    # cone in conformal time: its s-sphere has area 4 pi (a(t) chi(t))^2 with
    # comoving radius chi = int_t^t0 dt'/a and affine parameter
    # s = int_t^t0 a dt' / a(t0) (normalization g(L, T_p) = 1)
    p, t0 = 0.5, 2.0
    chart = geometry.make_chart("flrw", power=p)
    b = nullcone.NullConeBundle(chart, np.array([t0, 0.0, 0.0, 0.0]),
                                sphere.SphereGrid(8, 16), s_max=1.0, ds=2e-3)
    area = b.area()
    t = (t0 ** (p + 1) - (p + 1) * t0 ** p * b.s) ** (1.0 / (p + 1))
    chi = (t0 ** (1 - p) - t ** (1 - p)) / (1 - p)
    live = b.s >= b.s_min
    expected = 4.0 * np.pi * (t[live] ** p * chi[live]) ** 2
    assert np.max(np.abs(area[live] / expected - 1.0)) < 1e-10

    # Ric(L, L) != 0 at the vertex, so the deviation from the flat area law
    # is quadratic with coefficient -<Ric(L,L)>_p / 6 (= -1/24 here)
    sel = (b.s >= 0.05) & (b.s <= 0.2)
    dev = area[sel] / (4.0 * np.pi * b.s[sel] ** 2) - 1.0
    slope = np.polyfit(np.log(b.s[sel]), np.log(np.abs(dev)), 1)[0]
    assert abs(slope - 2.0) < 0.3
    ricci = geometry.riemann(chart, b.p).ricci
    ric_LL = np.einsum("mn,tpm,tpn->tp", ricci, b.L[0], b.L[0])
    target = -float(b.grid.integrate(ric_LL)) / (4.0 * np.pi) / 6.0
    # dev / s^2 = c0 + c1 s + O(s^2); c0 is the s -> 0 coefficient
    c1, c0 = np.polyfit(b.s[sel], dev / b.s[sel] ** 2, 1)
    assert abs(c0 / target - 1.0) < 0.02


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ray_leaving_the_chart_names_ray_and_s(schw_chart):
    # the vertex at r = 2.5 lies in the chart, but its ingoing rays cross
    # the horizon r = 2M before s = 2
    with pytest.raises(nullcone.ChartDomainError,
                       match=r"ray \(theta, phi\) = \(\d+, \d+\) leaves chart "
                             r"'schwarzschild' at s = 1\.\d+"):
        nullcone.NullConeBundle(schw_chart, [0.0, 2.5, np.pi / 2, 0.0],
                                sphere.SphereGrid(6, 12), s_max=2.0, ds=0.01)


class _Slab(geometry.Minkowski):
    """Minkowski space cut to t > -0.5: a flat chart with an edge."""

    def contains(self, x):
        return super().contains(x) & (np.asarray(x)[..., 0] > -0.5)


def test_closed_form_fan_names_ray_and_s():
    # the straight rays from the origin reach t = -0.5 at s = 0.5
    with pytest.raises(nullcone.ChartDomainError,
                       match=r"ray \(theta, phi\) = \(0, 0\) leaves chart "
                             r"'minkowski' at s = 0\.5"):
        nullcone.NullConeBundle(_Slab(), np.zeros(4), sphere.SphereGrid(6, 12),
                                s_max=1.0, ds=0.01)
