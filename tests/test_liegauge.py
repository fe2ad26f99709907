"""Lie algebra structure, gauge curvatures, residuals, Cartan frames."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ymcone import geometry, liegauge, runner

import oracles

algebra_vectors = st.lists(
    st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=3,
    max_size=3).map(np.array)


def test_su2_structure_constants_antisymmetric():
    c = liegauge.su2().c
    assert np.max(np.abs(c + np.swapaxes(c, 0, 1))) == 0.0


def test_su2_jacobi_identity():
    su2 = liegauge.su2()
    rng = np.random.default_rng(0)
    x, y, z = rng.standard_normal((3, su2.dim))
    jac = (su2.bracket(x, su2.bracket(y, z))
           + su2.bracket(y, su2.bracket(z, x))
           + su2.bracket(z, su2.bracket(x, y)))
    assert np.max(np.abs(jac)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(algebra_vectors, algebra_vectors, algebra_vectors)
def test_su2_ad_invariance(x, y, z):
    su2 = liegauge.su2()
    # the basis is orthonormal, so the invariant product is the dot product
    lhs = np.dot(su2.bracket(z, x), y) + np.dot(x, su2.bracket(z, y))
    scale = 1.0 + np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(z)
    assert abs(lhs) < 1e-10 * scale


def test_u1_brackets_vanish():
    u1 = liegauge.u1()
    assert np.max(np.abs(u1.c)) == 0.0
    assert abs(u1.bracket(np.array([2.0]), np.array([3.0]))[0]) == 0.0



@settings(max_examples=50, deadline=None)
@given(algebra_vectors, algebra_vectors, st.integers(0, 2**32 - 1))
def test_su2_cross_bracket_matches_structure_constants(x, y, seed):
    su2 = liegauge.su2()
    # batched, broadcast operands around the drawn pair
    rng = np.random.default_rng(seed)
    X = np.concatenate((x[None], rng.standard_normal((3, 3))))[:, None]
    Y = np.concatenate((y[None], rng.standard_normal((4, 3))))
    ref = np.einsum("ijk,...i,...j->...k", su2.c, X, Y)
    got = su2.bracket(X, Y)
    assert got.shape == ref.shape == (4, 5, 3)
    assert np.max(np.abs(got - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))


@pytest.mark.parametrize("name, dims", [("su2", (2, 4)), ("u1", (3,))])
def test_bracket_rejects_mismatched_last_axis(name, dims):
    basis = liegauge.make_algebra(name)
    good = np.ones(basis.dim)
    for d in dims:
        bad = np.ones((5, d))
        for X, Y in ((bad, good), (good, bad)):
            with pytest.raises(liegauge.AlgebraError):
                basis.bracket(X, Y)

def test_abelian_curl_curvature():
    # A_y = x e1 gives F_xy = 1 exactly
    u1 = liegauge.u1()

    def fn(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (4, 1))
        out[..., 2, 0] = x[..., 1]
        return out

    A = liegauge.GaugePotential(u1, fn, step=1e-3)
    F = liegauge.curvature_from_potential(A)
    val = F(np.array([0.2, 1.5, -0.4, 0.9]))
    expected = np.zeros((4, 4, 1))
    expected[1, 2, 0], expected[2, 1, 0] = 1.0, -1.0
    assert np.max(np.abs(val - expected)) < 1e-9


def test_nonabelian_constant_potential_curvature():
    # constant A: F_mn = [A_m, A_n] exactly
    su2 = liegauge.su2()
    a = np.zeros((4, su2.dim))
    a[1, 0], a[2, 1] = 0.7, -0.3

    A = liegauge.GaugePotential(su2, lambda x: np.broadcast_to(
        a, np.asarray(x).shape[:-1] + (4, su2.dim)).copy(), step=1e-3)
    F = liegauge.curvature_from_potential(A)
    val = F(np.zeros(4))
    expected = np.einsum("ijk,mi,nj->mnk", su2.c, a, a)
    assert np.max(np.abs(val - expected)) < 1e-9


def test_plane_wave_solves_field_equations(flat_chart):
    u1 = liegauge.u1()
    F = runner.plane_wave_field(u1, omega=1.3, direction=(1.0, 2.0, 0.0))
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((10, 4))
    res = liegauge.ym_residual(flat_chart, pts, F, None)
    bia = oracles.bianchi_residual(flat_chart, pts, F, None)
    assert np.max(np.abs(res)) < 1e-9
    assert np.max(np.abs(bia)) < 1e-9


@pytest.mark.parametrize("case", ["minkowski", "schwarzschild"])
def test_covariant_derivative_none_matches_all_zero_a(
        case, request):
    # on su(2) the bracket with A really runs; None must give the same bits
    # as an explicit all-zero potential
    chart = request.getfixturevalue(
        "flat_chart" if case == "minkowski" else "schw_chart")
    su2 = liegauge.su2()
    F = liegauge.curvature_from_potential(
        runner.su2_bump_potential(su2, amplitude=0.3, width=10.0))
    zero = liegauge.GaugePotential(
        su2, lambda x: np.zeros(np.shape(x)[:-1] + (4, su2.dim)))
    x = chart.default_vertex() + 0.05 * chart.coordinate_scale \
        * np.random.default_rng(4).standard_normal((6, 4))
    got = liegauge.gauge_covariant_derivative(chart, x, F, None)
    assert np.array_equal(
        got, liegauge.gauge_covariant_derivative(chart, x, F, zero))
    assert np.max(np.abs(F(x))) > 1e-3


def test_coulomb_solves_field_equations_on_schwarzschild(schw_chart):
    u1 = liegauge.u1()
    F = runner.coulomb_field(u1, charge=1.0)
    pts = np.array([[0.0, 9.0, 1.2, 0.3], [1.0, 11.0, 0.8, 2.0]])
    res = liegauge.ym_residual(schw_chart, pts, F, None)
    assert np.max(np.abs(res)) < 1e-9


def test_bianchi_refinement_order_is_four(flat_chart):
    su2 = liegauge.su2()
    A = runner.su2_bump_potential(su2, amplitude=0.3)
    F0 = liegauge.curvature_from_potential(A)
    rng = np.random.default_rng(2)
    pts = 0.5 * rng.standard_normal((8, 4))
    errs = []
    for h in (0.2, 0.1, 0.05):
        F = liegauge.FieldStrength(su2, F0.fn, step=h)
        errs.append(np.max(np.abs(
            oracles.bianchi_residual(flat_chart, pts, F, A))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 4.0) < 0.5)


@pytest.mark.parametrize("name,params,x", [
    ("schwarzschild", {"mass": 1.0}, [0.0, 9.0, 1.1, 0.2]),
    ("flrw", {"power": 0.5}, [2.0, 0.3, -0.1, 0.2]),
])
def test_static_frame_jacobian_matches_finite_differences(name, params, x):
    chart = geometry.make_chart(name, **params)
    ff = liegauge.static_diagonal_frame(chart)
    x = np.array([x, x]) + np.array([[0.0] * 4, [0.1, 0.2, 0.05, 0.3]])
    fd = geometry._fd_derivative(ff, x, 1e-4 * chart.coordinate_scale)
    assert np.max(np.abs(ff.jacobian(x) - fd)) < 1e-9


def test_cartan_connection_vanishes_on_flat_chart(flat_chart):
    ff = liegauge.static_diagonal_frame(flat_chart)
    conn = liegauge.cartan_connection(flat_chart, ff)
    val = conn(np.array([0.0, 1.0, 2.0, 3.0]))
    assert np.max(np.abs(val)) < 1e-10


def test_cartan_curvature_matches_riemann(schw_chart):
    ff = liegauge.static_diagonal_frame(schw_chart)
    x = np.array([0.0, 9.0, 1.1, 0.2])
    step = 1e-3 * schw_chart.coordinate_scale
    curv = liegauge.cartan_curvature(schw_chart, ff, step=step)(x)
    riem = geometry.riemann(schw_chart, x).riemann
    e = ff(x)
    frame_riem = np.einsum("rsmn,ar,bs->mnab", riem, e, e)
    assert np.max(np.abs(curv - frame_riem)) < 1e-7


def _rotated_static_frame(chart):
    """The static frame rotated in legs 1-2 by the angle 0.7 r, with its
    exact jacobian d_mu e_alpha^nu; not diagonal, unlike the static one."""
    static = liegauge.static_diagonal_frame(chart)

    def rotation(x):
        a = 0.7 * np.asarray(x, dtype=float)[..., 1]
        c, s = np.cos(a), np.sin(a)
        R = np.zeros(a.shape + (4, 4))
        R[..., 0, 0] = R[..., 3, 3] = 1.0
        R[..., 1, 1], R[..., 1, 2], R[..., 2, 1], R[..., 2, 2] = c, -s, s, c
        dR = np.zeros(a.shape + (4, 4, 4))     # only d_r is nonzero
        dR[..., 1, 1:3, 1:3] = 0.7 * np.stack(
            [np.stack([-s, -c], -1), np.stack([c, -s], -1)], -2)
        return R, dR

    def fn(x):
        return rotation(x)[0] @ static(x)

    def jac(x):
        R, dR = rotation(x)
        return dR @ static(x)[..., None, :, :] \
            + R[..., None, :, :] @ static.jacobian(x)

    return liegauge.FrameField(fn, jac)


def test_cartan_connection_of_a_rotated_frame(schw_chart):
    # a frame whose jacobian is not symmetric in its last two axes: the
    # connection stays antisymmetric and Ricci-flat Schwarzschild keeps the
    # Cartan Yang-Mills residual at the static frame's level
    ff = _rotated_static_frame(schw_chart)
    x = np.array([[0.0, 10.0, 1.2, 0.3], [0.1, 8.0, 1.7, 2.0]])
    fd = geometry._fd_derivative(ff, x, 1e-4)
    assert np.max(np.abs(ff.jacobian(x) - fd)) < 1e-9
    conn = liegauge.cartan_connection(schw_chart, ff)(x)
    assert np.max(np.abs(conn + np.swapaxes(conn, -1, -2))) <= 1e-12
    res = liegauge.cartan_ym_residual(schw_chart, x, ff, step=1e-2)
    assert np.max(np.abs(res)) <= 1e-9


def _einsum_cartan_curvature(chart, frame_field, step):
    """The Cartan curvature with the eta commutator written out index by
    index, the reference for ``cartan_curvature``."""
    conn = liegauge.cartan_connection(chart, frame_field)
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])

    def fn(x):
        x_ = np.asarray(x, dtype=float)
        dA = geometry._fd_derivative(conn, x_, step)   # (..., d, mu, a, b)
        curl = dA - np.einsum("...ndab->...dnab", dA)
        a = conn(x_)
        comm = (np.einsum("...mag,gd,...ndb->...mnab", a, eta, a)
                - np.einsum("...nag,gd,...mdb->...mnab", a, eta, a))
        return curl + comm

    return fn


def _einsum_cartan_ym_residual(chart, x, frame_field, step):
    """D^mu (F_{mu nu})_{ab} with -Gamma on both spacetime indices and
    +-A eta F on the frame indices written out, the reference for
    ``cartan_ym_residual``."""
    Fc = _einsum_cartan_curvature(chart, frame_field, step)
    conn = liegauge.cartan_connection(chart, frame_field)
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    x = np.asarray(x, dtype=float)
    inv = chart.inverse_diagonal(x)
    gamma = geometry.christoffel(chart, x)
    f = Fc(x)
    dF = geometry._fd_derivative(Fc, x, step)          # (..., d, m, n, a, b)
    a = conn(x)
    DF = (dF
          - np.einsum("...rdm,...rnab->...dmnab", gamma, f)
          - np.einsum("...rdn,...mrab->...dmnab", gamma, f)
          + np.einsum("...dag,gh,...mnhb->...dmnab", a, eta, f)
          - np.einsum("...mnag,gh,...dhb->...dmnab", f, eta, a))
    return np.einsum("...d,...ddnab->...nab", inv, DF)


@pytest.mark.parametrize("case", ["static", "rotated", "flrw"])
def test_cartan_operators_match_index_formulas(case):
    # the frame-algebra route against the written-out eta contractions: on
    # Ricci-flat Schwarzschild the residual is a roundoff floor, so FLRW
    # (p = 1, where it is 2 / t^2 = 0.5 at t = 2) compares a real residual
    if case == "flrw":
        chart = geometry.make_chart("flrw", power=1.0)
        ff = liegauge.static_diagonal_frame(chart)
        x, step = np.array([[2.0, 0.1, -0.2, 0.3], [2.0, 0.0, 0.4, -0.1]]), \
            1e-3
    else:
        chart = geometry.make_chart("schwarzschild", mass=1.0)
        ff = liegauge.static_diagonal_frame(chart) if case == "static" \
            else _rotated_static_frame(chart)
        x, step = np.array([[0.0, 10.0, 1.2, 0.3], [0.1, 8.0, 1.7, 2.0]]), \
            1e-2
    ref = _einsum_cartan_curvature(chart, ff, step)(x)
    got = liegauge.cartan_curvature(chart, ff, step=step)(x)
    assert got.shape == ref.shape == (2, 4, 4, 4, 4)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(got - ref)) <= 1e-15 * scale
    ref = _einsum_cartan_ym_residual(chart, x, ff, step)
    got = liegauge.cartan_ym_residual(chart, x, ff, step=step)
    assert got.shape == ref.shape == (2, 4, 4, 4)
    if case == "flrw":
        assert abs(np.max(np.abs(ref)) - 0.5) <= 1e-6
    assert np.max(np.abs(got - ref)) <= 1e-14 * scale


def test_cartan_residual_reads_the_curvature_it_is_given(schw_chart):
    # the runner's check hands over the curvature it evaluated at its sample
    # points: the residual is the same bit for bit, and it is that curvature
    # which serves as F(x)
    ff = liegauge.static_diagonal_frame(schw_chart)
    x = np.array([[0.0, 10.0, 1.2, 0.3], [0.1, 8.0, 1.7, 2.0]])
    curv = liegauge.cartan_curvature(schw_chart, ff, step=1e-2)(x)
    ref = liegauge.cartan_ym_residual(schw_chart, x, ff, step=1e-2)
    assert np.array_equal(
        liegauge.cartan_ym_residual(schw_chart, x, ff, 1e-2, curv), ref)
    assert not np.array_equal(liegauge.cartan_ym_residual(
        schw_chart, x, ff, 1e-2, np.zeros_like(curv)), ref)


def test_frame_algebra_bracket_is_the_eta_commutator():
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    X, Y = np.random.default_rng(3).standard_normal((2, 5, 4, 4))
    frame = liegauge._frame_algebra()
    got = frame.bracket(X.reshape(5, 16), Y.reshape(5, 16))
    ref = X @ eta @ Y - Y @ eta @ X
    assert np.max(np.abs(got.reshape(5, 4, 4) - ref)) \
        <= 1e-14 * np.max(np.abs(ref))
    assert frame.name not in liegauge.ALGEBRA_CATALOG


def _three_einsum_covariant_derivative(chart, x, field, A):
    """D_a F_mn = d_a F_mn + [A_a, F_mn] - Gamma^r_am F_rn - Gamma^r_an F_mr
    written out index by index, the reference for ``connect``."""
    psi = field(x)
    out = field.jacobian(x) + np.einsum("ijk,...ai,...mnj->...amnk",
                                        A.basis.c, A(x), psi)
    gamma = geometry.christoffel(chart, x)
    return out - np.einsum("...ram,...rnk->...amnk", gamma, psi) \
        - np.einsum("...ran,...mrk->...amnk", gamma, psi)


def test_gauge_covariant_derivative_matches_index_formula(schw_chart):
    su2 = liegauge.su2()
    A = runner.su2_bump_potential(su2, amplitude=0.3, width=4.0)
    F = liegauge.curvature_from_potential(A)
    rng = np.random.default_rng(5)
    x = np.array([0.2, 4.0, 1.1, 0.4]) \
        + np.array([0.3, 1.0, 0.3, 0.5]) * rng.standard_normal((3, 2, 4))
    ref = _three_einsum_covariant_derivative(schw_chart, x, F, A)
    got = liegauge.gauge_covariant_derivative(schw_chart, x, F, A)
    assert got.shape == ref.shape == (3, 2, 4, 4, 4, 3)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_wave_source_vanishes_flat_abelian(flat_chart):
    u1 = liegauge.u1()
    F = runner.plane_wave_field(u1)
    x = np.zeros((3, 4))
    src = liegauge.wave_source(flat_chart, x, F(x), u1, None)
    assert np.max(np.abs(src)) < 1e-12


def _einsum_wave_source(chart, x, F, curv):
    """``wave_source`` with the commutator as one einsum over the structure
    constants, the reference for its ``bracket`` route."""
    f = F(x)
    inv = chart.inverse_diagonal(x)
    comm = -2.0 * np.einsum("ijk,...a,...ami,...naj->...mnk",
                            F.basis.c, inv, f, f)
    if chart.flat:
        return comm
    fmixed = f * inv[..., None, :, None]
    fupup = inv[..., :, None, None] * fmixed
    return -2.0 * np.einsum("...gmna,...agi->...mni", curv.riemann, fupup) \
        - np.einsum("...mg,...ngk->...mnk", curv.ricci, fmixed) \
        + np.einsum("...ng,...mgk->...mnk", curv.ricci, fmixed) + comm


def _random_two_form(basis, seed):
    """A constant F with random antisymmetric components at every point."""
    f = np.random.default_rng(seed).standard_normal((4, 4, basis.dim))
    f = f - np.swapaxes(f, 0, 1)
    return liegauge.FieldStrength(basis, lambda x: np.broadcast_to(
        f, np.shape(x)[:-1] + f.shape).copy())


@pytest.mark.parametrize("algebra", ["su2", "u1"])
@pytest.mark.parametrize("chart_name", ["minkowski", "schwarzschild"])
def test_wave_source_matches_structure_constant_einsum(chart_name, algebra):
    # the commutator through ``bracket`` (none on u(1)), keeping F's shape
    chart = geometry.make_chart(chart_name)
    F = _random_two_form(liegauge.make_algebra(algebra), 4)
    x = chart.default_vertex() + 0.1 * np.random.default_rng(6) \
        .standard_normal((5, 3, 4))
    curv = geometry.riemann(chart, x)
    ref = _einsum_wave_source(chart, x, F, curv)
    got = liegauge.wave_source(chart, x, F(x), F.basis, curv)
    assert got.shape == ref.shape == F(x).shape
    assert np.max(np.abs(got - ref)) \
        <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_su2_oscillator_solves_field_equations(flat_chart):
    # an exact non-abelian solution: D^a F_ab = 0, and F is the curvature
    # of its potential, bracket term f^2 eps_ijk included
    A, F = oracles.su2_oscillator(0.8)
    pts = np.random.default_rng(11).standard_normal((8, 4))
    assert np.max(np.abs(liegauge.ym_residual(flat_chart, pts, F, A))) \
        <= 1e-10
    got = liegauge.curvature_from_potential(A)(pts)
    assert np.max(np.abs(got - F(pts))) <= 1e-10


def test_wave_source_is_covariant_wave_operator_on_su2_oscillator(
        flat_chart):
    # box_A F = sum_a g^aa D_a D_a F, with the outer D_b = d_b + [A_b, .]
    # applied by finite differences to the covariant derivative; on a flat
    # chart the source is the -2 [F^a_m, F_na] term alone, quadratic in F
    A, F = oracles.su2_oscillator(0.8)
    c = F.basis.c
    x = np.array([0.3, 0.1, -0.2, 0.05])

    def cov(y):
        return liegauge.gauge_covariant_derivative(flat_chart, y, F, A)

    DDF = geometry._fd_derivative(cov, x, 1e-3) \
        + np.einsum("ijk,bi,amnj->bamnk", c, A(x), cov(x))
    box = np.einsum("a,aamnk->mnk", flat_chart.inverse_diagonal(x), DDF)
    src = liegauge.wave_source(flat_chart, x, F(x), F.basis, None)
    assert np.max(np.abs(box)) > 0.5
    assert np.max(np.abs(src - box)) <= 1e-9 * np.max(np.abs(box))


@pytest.mark.parametrize("algebra", ["u1", "su2"])
def test_connect_on_a_two_form_stack_matches_index_formula(algebra):
    # a stack of seed two-forms (..., n, 4, 4, dim) under a Gamma that
    # broadcasts over the seed axis, and on su(2) an A(V) as well: the one
    # product Gamma^T f against the two index terms written out
    basis = liegauge.make_algebra(algebra)
    rng = np.random.default_rng(11)
    f = rng.standard_normal((3, 5, 6, 4, 4, basis.dim))
    f = f - np.swapaxes(f, -3, -2)
    gamma = rng.standard_normal((3, 5, 4, 4))
    a = None if basis.abelian else rng.standard_normal((3, 5, basis.dim))
    got = liegauge.connect(f, gamma, a, basis)
    ref = -(np.einsum("xyga,xysgnk->xysank", gamma, f)
            + np.einsum("xygn,xysagk->xysank", gamma, f))
    if a is not None:
        ref += np.einsum("ijk,xyi,xysabj->xysabk", basis.c, a, f)
    assert got.shape == f.shape
    assert np.array_equal(got, -np.swapaxes(got, -3, -2))
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("basis", [
    liegauge.su2(), liegauge.AlgebraBasis("scaled", 2 * liegauge.su2().c)],
    ids=["su2", "scaled"])
def test_bracket_connect_and_curvature_match_structure_constants(basis):
    # every algebra product goes through ``bracket``; with structure
    # constants 0, +-1, +-2 each route is the einsum reference bit for bit
    c, rng = basis.c, np.random.default_rng(7)
    X, Y = rng.standard_normal((4, 1, 3)), rng.standard_normal((5, 3))
    got = basis.bracket(X, Y)
    assert got.shape == (4, 5, 3)
    assert np.array_equal(got, np.einsum("ijk,...i,...j->...k", c, X, Y))
    # connect's [A(V), f] on a two-tensor with a seed axis after the nodes
    a = rng.standard_normal((2, 3, 3))
    f = rng.standard_normal((2, 3, 5, 4, 4, 3))
    got = liegauge.connect(f, None, a, basis)
    assert np.array_equal(got, np.einsum("ijk,xyi,xysabj->xysabk", c, a, f))
    # the commutator of a potential with zero derivative, at three points
    a = rng.standard_normal((3, 4, 3))
    A = liegauge.GaugePotential(basis, lambda x: a,
                                jac=lambda x: np.zeros((3, 4, 4, 3)))
    got = liegauge.curvature_from_potential(A)(np.zeros((3, 4)))
    assert np.array_equal(got, np.einsum("ijk,...mi,...nj->...mnk", c, a, a))
