"""Lattice gauge evolution: conservation, constraint, convergence order."""

import warnings

import numpy as np
import pytest
from scipy.special import ellipj

from ymcone import evolution, liegauge

import oracles


@pytest.fixture(scope="module")
def lattice():
    return evolution.Lattice2D(32, 1.0)


def test_deriv_is_fourth_order(lattice):
    errs = []
    for n in (16, 32, 64):
        lat = evolution.Lattice2D(n, 1.0)
        f = np.sin(2 * np.pi * lat.x) * np.cos(4 * np.pi * lat.y)
        exact = 2 * np.pi * np.cos(2 * np.pi * lat.x) * np.cos(4 * np.pi * lat.y)
        errs.append(np.max(np.abs(lat.deriv(f, 0) - exact)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 4.0) < 0.3)


def test_abelian_magnetic_field_closed_form(lattice):
    # A = amplitude * sin(2 pi x) * (0, 1): F_xy = 2 pi amplitude cos(2 pi x)
    u1 = liegauge.u1()
    A = np.zeros((2, lattice.n, lattice.n, 1))
    A[1, ..., 0] = 0.3 * np.sin(2 * np.pi * lattice.x)
    F = evolution.magnetic_field(lattice, u1, A)
    expected = 0.6 * np.pi * np.cos(2 * np.pi * lattice.x)
    assert np.max(np.abs(F[..., 0] - expected)) < 1e-3


def test_gradient_potential_has_no_curvature(lattice):
    u1 = liegauge.u1()
    chi = np.cos(2 * np.pi * (lattice.x + lattice.y))
    A = np.zeros((2, lattice.n, lattice.n, 1))
    A[0, ..., 0] = lattice.deriv(chi, 0)
    A[1, ..., 0] = lattice.deriv(chi, 1)
    F = evolution.magnetic_field(lattice, u1, A)
    assert np.max(np.abs(F)) < 1e-10


def test_abelian_energy_conserved(lattice):
    u1 = liegauge.u1()
    state = oracles.abelian_wave_data(lattice, u1, amplitude=0.2)
    e0 = evolution.total_energy(state)
    out = evolution.step(state, 0.1 * lattice.dx, n_steps=100)
    assert abs(evolution.total_energy(out) - e0) / e0 < 1e-9


def test_crossed_stream_constraint_small(lattice):
    su2 = liegauge.su2()
    state = evolution.crossed_stream_data(lattice, su2, amplitude=0.1)
    c0 = evolution.constraint_residual(state)
    scale = np.sqrt(2.0 * evolution.total_energy(state))
    assert c0 / scale < 1e-3          # truncation-level, not identically zero


def test_nonabelian_energy_conserved_short_run(lattice):
    su2 = liegauge.su2()
    state = evolution.crossed_stream_data(lattice, su2, amplitude=0.1)
    e0 = evolution.total_energy(state)
    out = evolution.step(state, 0.1 * lattice.dx, n_steps=200)
    assert abs(evolution.total_energy(out) - e0) / e0 < 1e-5


def test_su2_oscillator_on_the_lattice():
    # A_x = a e_0, A_y = a e_1, E = 0 stays homogeneous, with f'' = -f^3:
    # f = a cn(a t | 1/2), an exact target for the lattice's bracket terms
    a, t = 0.8, 4.0
    lat = evolution.Lattice2D(16, 1.0)
    A = np.zeros((2, 16, 16, 3))
    A[0, ..., 0] = A[1, ..., 1] = a
    state = evolution.GaugeState(lat, liegauge.su2(), A, np.zeros_like(A))
    dt = 0.05 * lat.dx
    out = evolution.step(state, dt, n_steps=int(round(t / dt)))
    sn, cn, dn, _ = ellipj(a * t, 0.5)
    want = np.zeros((2, 2, 3))                    # (A or E, x or y, algebra)
    want[0, 0, 0] = want[0, 1, 1] = a * cn
    want[1, 0, 0] = want[1, 1, 1] = -a * a * sn * dn
    got = np.stack([out.A, out.E])
    assert np.max(np.abs(got - want[:, :, None, None, :])) <= 1e-10
    assert evolution.constraint_residual(out) <= 1e-10


def test_rk4_temporal_order(lattice):
    # halving dt cuts the energy drift by at least 2^4 (the secular
    # energy error of RK4 decays at order >= 4; here it is measurably ~5)
    su2 = liegauge.su2()
    state = evolution.crossed_stream_data(lattice, su2, amplitude=0.1)
    e0 = evolution.total_energy(state)
    drifts = []
    for dtf in (0.4, 0.2):
        n = int(round(1.0 / (dtf * lattice.dx)))
        out = evolution.step(state, dtf * lattice.dx, n_steps=n)
        drifts.append(abs(evolution.total_energy(out) - e0) / e0)
    order = np.log2(drifts[0] / drifts[1])
    assert 3.5 < order < 5.8


def test_cfl_guard(lattice):
    su2 = liegauge.su2()
    state = evolution.crossed_stream_data(lattice, su2)
    with pytest.raises(evolution.EvolutionError):
        evolution.step(state, 2.0 * lattice.dx)


def test_step_refuses_dt_past_the_stable_range(lattice):
    # RK4 on the fourth-order stencil is stable only to dt / dx = 1.458 in
    # 2-D; 1.2 dx is below that but above the bound ``step`` enforces
    state = evolution.crossed_stream_data(lattice, liegauge.su2())
    with pytest.raises(evolution.EvolutionError,
                       match=rf"step bound {evolution.CFL_LIMIT} \* dx"):
        evolution.step(state, 1.2 * lattice.dx)


def test_state_shape_guard(lattice):
    u1 = liegauge.u1()
    with pytest.raises(evolution.EvolutionError):
        evolution.GaugeState(lattice, u1, np.zeros((2, 3, 3, 1)),
                             np.zeros((2, 3, 3, 1)))


def test_run_diagnostics_rows(lattice):
    u1 = liegauge.u1()
    state = oracles.abelian_wave_data(lattice, u1)
    out, rows = evolution.run_diagnostics(state, 0.2 * lattice.dx, 0.2,
                                          n_reports=5)
    assert rows.shape[1] == 3
    assert abs(rows[-1, 0] - 0.2) < 1e-12
    assert abs(out.time - 0.2) < 1e-12


def _roll_deriv(f, axis, dx):
    r = lambda k: np.roll(f, -k, axis=axis)
    return (8.0 * (r(1) - r(-1)) - (r(2) - r(-2))) / (12.0 * dx)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_matrix_deriv_matches_roll_stencil(n):
    lat = evolution.Lattice2D(n, 1.0)
    rng = np.random.default_rng(n)
    for shape in ((n, n), (n, n, 3)):
        f = rng.standard_normal(shape)
        for axis in (0, 1):
            ref = _roll_deriv(f, axis, lat.dx)
            err = np.max(np.abs(lat.deriv(f, axis) - ref))
            assert err < 1e-13 * np.max(np.abs(ref))


def test_state_guard_names_bad_E(lattice):
    u1 = liegauge.u1()
    A = np.zeros((2, lattice.n, lattice.n, 1))
    with pytest.raises(evolution.EvolutionError, match=r"E has shape \(3,\)"):
        evolution.GaugeState(lattice, u1, A, np.zeros(3))


def test_blowup_names_interval(lattice):
    su2 = liegauge.su2()
    good = evolution.crossed_stream_data(lattice, su2)
    A = good.A.copy()
    A[0, 3, 5, 1] = np.inf
    state = evolution.GaugeState(lattice, su2, A, good.E, time=1.0)
    dt = 0.1 * lattice.dx
    with warnings.catch_warnings():
        warnings.simplefilter("error")        # no RuntimeWarning flood
        with pytest.raises(evolution.EvolutionError) as exc:
            evolution.step(state, dt, n_steps=50)
    assert f"[1.0000, {1.0 + 50 * dt:.4f}]" in str(exc.value)


def _stacked_rk4(state, dt, n_steps):
    """Plain RK4 on the stacked (A, E) with roll stencils and the
    structure-constant bracket: shares no code with ``evolution.step``."""
    dx = state.lattice.dx

    def br(X, Y):
        return np.einsum("ijk,...i,...j->...k", state.basis.c, X, Y)

    def rhs(Y):
        A = Y[0]
        F = _roll_deriv(A[1], 0, dx) - _roll_deriv(A[0], 1, dx) \
            + br(A[0], A[1])
        dE = np.stack((-(_roll_deriv(F, 1, dx) + br(A[1], F)),
                       _roll_deriv(F, 0, dx) + br(A[0], F)))
        return np.stack((Y[1], dE))

    Y = np.stack((state.A, state.E))
    for _ in range(n_steps):
        k1 = rhs(Y)
        k2 = rhs(Y + 0.5 * dt * k1)
        k3 = rhs(Y + 0.5 * dt * k2)
        k4 = rhs(Y + dt * k3)
        Y = Y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return Y


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("algebra", ["su2", "u1"])
def test_step_matches_stacked_rk4_oracle(algebra, n):
    lat = evolution.Lattice2D(n, 1.0)
    basis = liegauge.make_algebra(algebra)
    if algebra == "su2":
        state = evolution.crossed_stream_data(lat, basis, amplitude=0.1)
    else:
        state = oracles.abelian_wave_data(lat, basis, amplitude=0.2,
                                          modes=(1, 2))
    A0, E0 = state.A.copy(), state.E.copy()
    dt = 0.25 * lat.dx
    out = evolution.step(state, dt, n_steps=50)
    ref = _stacked_rk4(state, dt, 50)
    for got, want in ((out.A, ref[0]), (out.E, ref[1])):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # the stage buffers work in place on copies: the input is untouched
    assert np.array_equal(state.A, A0) and np.array_equal(state.E, E0)


def test_split_steps_match_one_run():
    # the mirror planes and stage buffers live for one ``step`` call: a
    # stale mirror or an aliased buffer would make the split run differ
    lat = evolution.Lattice2D(32, 1.0)
    state = evolution.crossed_stream_data(lat, liegauge.su2())
    dt = 0.25 * lat.dx
    split = evolution.step(evolution.step(state, dt, 3), dt, 4)
    whole = evolution.step(state, dt, 7)
    assert np.array_equal(split.A, whole.A)
    assert np.array_equal(split.E, whole.E)


@pytest.mark.parametrize("n", [4, 16])
def test_mirrored_cross_matches_su2_bracket(n):
    # lattice layout: (x or y, algebra, n, n) planes against (algebra, n, n)
    rng = np.random.default_rng(n)
    X, Y = rng.standard_normal((2, 3, n, n)), rng.standard_normal((3, n, n))
    got = evolution._mirrored_cross(np.concatenate((X, X[:, :2]), axis=1),
                                    np.concatenate((Y, Y[:2])), axis=-3)
    x, y = X.transpose(1, 0, 2, 3), Y
    written = np.stack((x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2],
                        x[0] * y[1] - x[1] * y[0]), axis=1)
    last = liegauge.su2().bracket(np.moveaxis(X, 1, -1), np.moveaxis(Y, 0, -1))
    assert np.array_equal(got, np.moveaxis(last, -1, 1))
    assert np.array_equal(got, written)


def test_step_rejects_other_nonabelian_algebra(lattice):
    scaled = liegauge.AlgebraBasis("scaled", 2.0 * liegauge.su2().c)
    state = evolution.crossed_stream_data(lattice, scaled)
    A0, E0 = state.A.copy(), state.E.copy()
    with pytest.raises(evolution.EvolutionError, match="'scaled'"):
        evolution.step(state, 0.1 * lattice.dx)
    assert np.array_equal(state.A, A0) and np.array_equal(state.E, E0)
