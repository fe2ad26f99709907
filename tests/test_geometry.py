"""Geometry oracles: symbolic Christoffel/Riemann, closed forms, frames."""

import numpy as np
import pytest
import sympy as sp

from ymcone import geometry

import oracles

POINT = np.array([0.3, 7.3, 1.1, 0.4])


def _sympy_schwarzschild():
    """Symbolic Christoffel and Riemann (fully lowered) for M = 1."""
    t, r, th, ph = sp.symbols("t r theta phi", positive=True)
    coords = (t, r, th, ph)
    f = 1 - 2 / r
    g = sp.diag(-f, 1 / f, r ** 2, r ** 2 * sp.sin(th) ** 2)
    ginv = g.inv()
    gamma = [[[sum(ginv[a, d] * (sp.diff(g[d, m], coords[n])
                                 + sp.diff(g[d, n], coords[m])
                                 - sp.diff(g[m, n], coords[d])) / 2
                   for d in range(4))
               for n in range(4)] for m in range(4)] for a in range(4)]
    riem_up = [[[[sp.diff(gamma[a][n][s], coords[m])
                  - sp.diff(gamma[a][m][s], coords[n])
                  + sum(gamma[a][m][l] * gamma[l][n][s]
                        - gamma[a][n][l] * gamma[l][m][s] for l in range(4))
                  for n in range(4)] for m in range(4)]
                for s in range(4)] for a in range(4)]
    riem = [[[[sp.simplify(sum(g[a, c] * riem_up[c][s][m][n]
                               for c in range(4)))
               for n in range(4)] for m in range(4)]
             for s in range(4)] for a in range(4)]
    subs = dict(zip(coords, POINT))
    gamma_num = np.array(
        [[[float(sp.N(gamma[a][m][n].subs(subs))) for n in range(4)]
          for m in range(4)] for a in range(4)])
    riem_num = np.array(
        [[[[float(sp.N(riem[a][s][m][n].subs(subs))) for n in range(4)]
           for m in range(4)] for s in range(4)] for a in range(4)])
    return gamma_num, riem_num


@pytest.fixture(scope="module")
def schw_symbolic():
    return _sympy_schwarzschild()


def test_christoffel_matches_symbolic_oracle(schw_chart, schw_symbolic):
    gamma, _ = schw_symbolic
    got = geometry.christoffel(schw_chart, POINT)
    assert np.max(np.abs(got - gamma)) < 1e-9


def test_riemann_matches_symbolic_oracle(schw_chart, schw_symbolic):
    _, riem = schw_symbolic
    got = geometry.riemann(schw_chart, POINT).riemann
    assert np.max(np.abs(got - riem)) < 1e-7


def test_christoffel_t_tr_closed_form(schw_chart):
    # Gamma^t_{tr} = M / (r (r - 2M)) = 0.0125 at r = 10, M = 1
    x = np.array([0.0, 10.0, np.pi / 2, 0.0])
    gamma = geometry.christoffel(schw_chart, x)
    assert abs(gamma[0, 0, 1] - 0.0125) < 1e-10


def test_kretschmann_closed_form(schw_chart):
    # 48 M^2 / r^6 = 4.8e-5 at r = 10
    x = np.array([0.0, 10.0, np.pi / 2, 0.0])
    k = oracles.kretschmann(schw_chart, x)
    assert abs(k - 4.8e-5) < 1e-11


def test_schwarzschild_is_ricci_flat(schw_chart):
    ricci = geometry.riemann(schw_chart, POINT).ricci
    assert np.max(np.abs(ricci)) < 1e-8


def test_flat_chart_curvature_vanishes(flat_chart):
    x = np.array([1.0, 2.0, -3.0, 0.5])
    assert np.max(np.abs(geometry.christoffel(flat_chart, x))) == 0.0
    assert np.max(np.abs(geometry.riemann(flat_chart, x).riemann)) == 0.0


def test_flrw_ricci_nonzero_and_symmetric():
    chart = geometry.make_chart("flrw", power=0.5)
    x = np.array([2.0, 0.3, -0.1, 0.7])
    ricci = geometry.riemann(chart, x).ricci
    assert np.max(np.abs(ricci)) > 1e-3
    assert np.max(np.abs(ricci - ricci.T)) < 1e-8


CATALOG_POINTS = [
    ("minkowski", {}, [0.0, 1.0, -2.0, 0.3]),
    ("schwarzschild", {"mass": 1.0}, [0.0, 8.0, 1.2, 0.4]),
    ("schwarzschild-isotropic", {"mass": 1.0}, [0.0, 8.0, -1.0, 2.0]),
    ("flrw", {"power": 1.0}, [1.5, 0.2, 0.4, -0.3]),
]


@pytest.mark.parametrize("name,params,x", CATALOG_POINTS)
def test_closed_forms_match_generic_route(name, params, x):
    # each catalog chart's closed-form inverse metric and Christoffel symbols
    # against the generic LAPACK formula, on a batch of points
    chart = geometry.make_chart(name, **params)
    rng = np.random.default_rng(7)
    pts = np.asarray(x) + 0.05 * rng.standard_normal((6, 4))
    ginv = geometry.inverse_metric(chart, pts)
    assert np.max(np.abs(ginv - oracles.generic_inverse_metric(chart, pts))) \
        <= 1e-14 * np.max(np.abs(ginv))
    gamma = geometry.christoffel(chart, pts)
    ref = oracles.generic_christoffel(chart, pts)
    assert np.max(np.abs(gamma - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))
    dgamma = oracles.christoffel_derivative(chart, pts)
    ref = oracles.generic_christoffel_derivative(chart, pts)
    assert np.max(np.abs(dgamma - ref)) \
        <= 1e-14 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("name,params,x", CATALOG_POINTS)
def test_christoffel_along_matches_generic_route(name, params, x):
    # Gamma^c_ab v^b in closed form against the generic symbols contracted
    # with v, three vectors per point broadcast against it
    chart = geometry.make_chart(name, **params)
    rng = np.random.default_rng(13)
    pts = np.asarray(x) + 0.05 * rng.standard_normal((6, 1, 4))
    v = rng.standard_normal((6, 3, 4))
    got = chart.christoffel_along(pts, v)
    ref = np.einsum("...cab,...b->...ca",
                    oracles.generic_christoffel(chart, pts), v)
    assert got.shape == ref.shape == (6, 3, 4, 4)
    assert got.dtype == ref.dtype == float
    assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("name,params,x", CATALOG_POINTS)
def test_diagonal_derivatives_match_differences(name, params, x):
    # each closed-form derivative against a 4th-order central difference of
    # the quantity one order below, which never reads the chart's own
    # derivative of it
    chart = geometry.make_chart(name, **params)
    rng = np.random.default_rng(11)
    pts = np.asarray(x) + 0.05 * rng.standard_normal((3, 4))
    h = 1e-3     # every catalog point has angles and radii of order 1 or more
    for fn, deriv in ((chart.diagonal, chart.ddiagonal),
                      (lambda p: geometry.christoffel(chart, p),
                       lambda p: oracles.christoffel_derivative(chart, p))):
        want = geometry._fd_derivative(fn, pts, h)
        got = deriv(pts)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) \
            <= 1e-10 * max(1.0, np.max(np.abs(want)))


def _symbolic_diagonal(name, params, coords):
    """A catalog chart's g_aa as sympy expressions in ``coords``."""
    t, x, y, z = coords
    if name == "minkowski":
        return [-1, 1, 1, 1]
    if name == "schwarzschild":
        f = 1 - 2 * sp.nsimplify(params["mass"]) / x
        return [-f, 1 / f, x ** 2, (x * sp.sin(y)) ** 2]
    if name == "schwarzschild-isotropic":
        rho = sp.sqrt(x ** 2 + y ** 2 + z ** 2)
        m = sp.nsimplify(params["mass"]) / (2 * rho)
        B = (1 + m) ** 4
        return [-((1 - m) / (1 + m)) ** 2, B, B, B]
    a2 = t ** (2 * sp.nsimplify(params["power"]))
    return [-1, a2, a2, a2]


@pytest.mark.parametrize(
    "name,params,x",
    CATALOG_POINTS + [("flrw", {"power": 0.5}, [1.5, 0.2, 0.4, -0.3])])
def test_christoffel_derivative_matches_symbolic(name, params, x):
    # the complex-step d_e Gamma^c_ab against sympy's derivative of the
    # Christoffel symbols of each chart's diagonal, Gamma^c_ab =
    # (d_a g_cc delta_bc + d_b g_cc delta_ac - d_c g_aa delta_ab) / 2 g_cc
    chart = geometry.make_chart(name, **params)
    rng = np.random.default_rng(7)
    pts = np.asarray(x) + 0.05 * rng.standard_normal((6, 4))
    coords = sp.symbols("x0:4", real=True)
    diag = _symbolic_diagonal(name, params, coords)
    gamma = [[[(int(b == c) * sp.diff(diag[c], coords[a])
                + int(a == c) * sp.diff(diag[c], coords[b])
                - int(a == b) * sp.diff(diag[a], coords[c])) / (2 * diag[c])
               for b in range(4)] for a in range(4)] for c in range(4)]
    dgamma = sp.lambdify(coords, [sp.diff(gamma[c][a][b], e) for e in coords
                                  for c in range(4) for a in range(4)
                                  for b in range(4)], "numpy")
    ref = np.stack([np.broadcast_to(np.asarray(v, dtype=float), pts.shape[:-1])
                    for v in dgamma(*np.moveaxis(pts, -1, 0))], axis=-1)
    ref = ref.reshape(pts.shape[:-1] + (4, 4, 4, 4))
    got = oracles.christoffel_derivative(chart, pts)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("name", sorted(geometry.CHART_CATALOG))
def test_ignorable_coordinates_step_to_exact_zeros(name):
    # the complex step of Gamma along each ignorable coordinate is exact
    # zeros at random in-domain points, and along every other one it is not;
    # christoffel_derivative skips the former and equals the full stepping
    _, params, x = next(c for c in CATALOG_POINTS if c[0] == name)
    chart = geometry.make_chart(name, **params)
    rng = np.random.default_rng(17)
    pts = np.asarray(x) + 0.3 * rng.standard_normal((16, 4))
    assert np.all(chart.contains(pts))
    h = geometry.COMPLEX_STEP
    full = np.stack([geometry.christoffel(chart, pts + 1j * h * e).imag / h
                     for e in np.eye(4)], axis=-4)
    for e in range(4):
        assert np.all(full[:, e] == 0.0) == (e in chart.ignorable)
    assert np.array_equal(oracles.christoffel_derivative(chart, pts), full)


@pytest.mark.parametrize("name,params,x", CATALOG_POINTS)
def test_flat_and_ricci_flat_match_the_curvature(name, params, x):
    # Chart.flat, derived from ignorable, holds exactly where Gamma is
    # identically zero, and ricci_flat exactly where the Ricci tensor
    # vanishes to roundoff of the Riemann tensor, at random in-domain points
    chart = geometry.make_chart(name, **params)
    rng = np.random.default_rng(19)
    pts = np.asarray(x) + 0.3 * rng.standard_normal((16, 4))
    assert np.all(chart.contains(pts))
    assert chart.flat == (not np.any(geometry.christoffel(chart, pts)))
    curv = geometry.riemann(chart, pts)
    scale = np.max(np.abs(curv.riemann), axis=(-4, -3, -2, -1))
    small = np.max(np.abs(curv.ricci), axis=(-2, -1)) <= 1e-12 * scale
    assert np.all(small) if chart.ricci_flat else not np.any(small)


CURVED_POINTS = CATALOG_POINTS + [("flrw", {"power": 0.5},
                                   [1.5, 0.2, 0.4, -0.3])]


@pytest.mark.parametrize("name,params,x", CURVED_POINTS)
def test_bivector_curvature_matches_connection_oracle(name, params, x):
    # the 6x6 operator from g_aa and its derivatives against the generic
    # route from Gamma and its complex-step derivative, read at the rows
    # (a, b) and (c, d) of each entry, and the tensor it scatters
    chart = geometry.make_chart(name, **params)
    pts = np.asarray(x) + 0.05 * np.random.default_rng(23) \
        .standard_normal((6, 4))
    ref, _ = oracles.connection_curvature(chart, pts)
    a, b = geometry.BIVECTORS
    rows = ref[..., a[:, None], b[:, None], a, b]
    curv = geometry.riemann(chart, pts)
    scale = 1e-13 * np.max(np.abs(ref))
    assert curv.bivector.shape == rows.shape == (6, 6, 6)
    assert np.max(np.abs(curv.bivector - rows)) <= scale
    assert np.max(np.abs(curv.riemann - ref)) <= scale


@pytest.mark.parametrize("name,params,x", CURVED_POINTS)
def test_bivector_ricci_matches_connection_oracle(name, params, x):
    chart = geometry.make_chart(name, **params)
    pts = np.asarray(x) + 0.05 * np.random.default_rng(29) \
        .standard_normal((6, 4))
    ref, ricci = oracles.connection_curvature(chart, pts)
    got = geometry.riemann(chart, pts).ricci
    assert got.shape == ricci.shape == (6, 4, 4)
    assert np.max(np.abs(got - ricci)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("name,params,x", CATALOG_POINTS)
def test_bivector_curvature_structure(name, params, x):
    # symmetric, with the complementary rows 01|23, 02|13 and 03|12 exact
    # zeros; on Minkowski every entry is an exact zero
    chart = geometry.make_chart(name, **params)
    pts = np.asarray(x) + 0.3 * np.random.default_rng(31) \
        .standard_normal((16, 4))
    op = geometry.riemann(chart, pts).bivector
    assert np.array_equal(op, np.swapaxes(op, -1, -2))
    assert np.all(op[..., [0, 1, 2], [5, 4, 3]] == 0.0)
    assert np.all(op == 0.0) == chart.flat


@pytest.mark.parametrize("name", sorted(geometry.CHART_CATALOG))
def test_diagonal_hessian_steps_only_where_the_metric_varies(name):
    # the complex step of d g_aa along each ignorable coordinate is exact
    # zeros at random in-domain points, and along every other one it is not;
    # diagonal_hessian skips the former and equals the full stepping
    _, params, x = next(c for c in CATALOG_POINTS if c[0] == name)
    chart = geometry.make_chart(name, **params)
    pts = np.asarray(x) + 0.3 * np.random.default_rng(37) \
        .standard_normal((16, 4))
    assert np.all(chart.contains(pts))
    h = geometry.COMPLEX_STEP
    full = np.stack([chart.ddiagonal(pts + 1j * h * e).imag / h
                     for e in np.eye(4)], axis=-3)
    for e in range(4):
        assert np.all(full[:, e] == 0.0) == (e in chart.ignorable)
    assert np.array_equal(geometry.diagonal_hessian(chart, pts), full)


@pytest.mark.parametrize("name,params,x", CURVED_POINTS)
def test_diagonal_hessian_matches_symbolic(name, params, x):
    chart = geometry.make_chart(name, **params)
    pts = np.asarray(x) + 0.05 * np.random.default_rng(41) \
        .standard_normal((6, 4))
    coords = sp.symbols("x0:4", real=True)
    diag = _symbolic_diagonal(name, params, coords)
    hess = sp.lambdify(coords, [sp.diff(diag[a], e, f) for e in coords
                                for f in coords for a in range(4)], "numpy")
    ref = np.stack([np.broadcast_to(np.asarray(v, dtype=float), pts.shape[:-1])
                    for v in hess(*np.moveaxis(pts, -1, 0))], axis=-1)
    ref = ref.reshape(pts.shape[:-1] + (4, 4, 4))
    got = geometry.diagonal_hessian(chart, pts)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def test_closed_forms_reject_degenerate_point(schw_chart):
    horizon = np.array([[0.0, 10.0, 1.0, 0.0], [0.0, 2.0, 1.0, 0.0]])
    with np.errstate(divide="ignore", invalid="ignore"):
        for op in (geometry.inverse_metric, geometry.christoffel,
                   oracles.christoffel_derivative, geometry.riemann):
            with pytest.raises(geometry.DegenerateMetricError):
                op(schw_chart, horizon)


def test_inverse_metric_identity(schw_chart):
    g = oracles.metric(schw_chart, POINT)
    ginv = geometry.inverse_metric(schw_chart, POINT)
    assert np.max(np.abs(g @ ginv - np.eye(4))) < 1e-12


@pytest.mark.parametrize("name,params,x", CATALOG_POINTS)
def test_orthonormal_frame_gram(name, params, x):
    # the unit normal that and a boosted timelike hint
    chart = geometry.make_chart(name, **params)
    x = np.asarray(x, dtype=float)
    that = geometry.unit_time(chart, x)
    boost = that + 0.6 * np.array([0.0, 1.0, 0.0, 0.0]) \
        / np.sqrt(chart.diagonal(x)[1])
    g = oracles.metric(chart, x)
    for hint in (that, boost):
        frame = geometry.orthonormal_frame(chart, x, time_axis_hint=hint)
        gram = np.einsum("am,bn,mn->ab", frame, frame, g)
        assert np.max(np.abs(gram - np.diag([-1.0, 1.0, 1.0, 1.0]))) < 1e-10


@pytest.mark.parametrize("name,params,x", CATALOG_POINTS)
def test_orthonormal_frame_rejects_spacelike_hint(name, params, x):
    chart = geometry.make_chart(name, **params)
    with pytest.raises(geometry.FrameError):
        geometry.orthonormal_frame(chart, np.asarray(x, dtype=float),
                                   time_axis_hint=[0.0, 1.0, 0.0, 0.0])


def test_orthonormal_frame_rejects_null_hint(flat_chart):
    # exactly null: a hint null only to roundoff can read g(h, h) = -1e-16
    # and pass
    with pytest.raises(geometry.FrameError):
        geometry.orthonormal_frame(flat_chart, np.zeros(4),
                                   time_axis_hint=[1.0, 1.0, 0.0, 0.0])


def test_static_time_is_killing_on_schwarzschild(schw_chart):
    pi = oracles.deformation_tensor(schw_chart, POINT,
                                    oracles.coordinate_time_field())
    assert np.max(np.abs(pi)) < 1e-8


def test_flrw_time_is_not_killing():
    chart = geometry.make_chart("flrw", power=1.0)
    x = np.array([2.0, 0.1, 0.2, 0.3])
    pi = oracles.deformation_tensor(chart, x,
                                    oracles.coordinate_time_field())
    assert np.max(np.abs(pi)) > 1e-3


def test_unit_time_field_normalized(schw_chart):
    that = geometry.unit_time(schw_chart, POINT)
    g = oracles.metric(schw_chart, POINT)
    assert abs(that @ g @ that + 1.0) < 1e-12


def test_unknown_chart_rejected():
    with pytest.raises(Exception):
        geometry.make_chart("not_a_chart")
