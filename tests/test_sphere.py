"""Sphere quadrature and spectral derivative oracles (scipy harmonics)."""

import numpy as np
import pytest
from scipy.special import sph_harm_y

from ymcone import sphere

import oracles


@pytest.fixture(scope="module")
def grid():
    return sphere.SphereGrid(12, 24)


def _angles(grid):
    th = np.arccos(np.clip(np.einsum(
        "tpm,m->tp", grid.directions(), [0.0, 0.0, 1.0]), -1, 1))
    # reconstruct phi from the direction components
    d = grid.directions()
    ph = np.arctan2(d[..., 1], d[..., 0])
    return th, ph


def test_weights_integrate_unit_sphere(grid):
    assert abs(grid.integrate(np.ones((grid.n_theta, grid.n_phi)))
               - 4.0 * np.pi) < 1e-12


@pytest.mark.parametrize("l,m", [(1, 0), (2, 1), (3, -2), (5, 4)])
def test_harmonics_integrate_to_zero(grid, l, m):
    th, ph = _angles(grid)
    y = sph_harm_y(l, m, th, ph)
    assert abs(grid.integrate(y.real)) < 1e-12
    assert abs(grid.integrate(y.imag)) < 1e-12


@pytest.mark.parametrize("l,m", [(0, 0), (2, 2), (4, -1)])
def test_harmonics_are_l2_normalized(grid, l, m):
    th, ph = _angles(grid)
    y = sph_harm_y(l, m, th, ph)
    assert abs(grid.integrate(np.abs(y) ** 2) - 1.0) < 1e-12


def test_dphi_matches_analytic(grid):
    th, ph = _angles(grid)
    f = np.sin(th) ** 2 * np.cos(2 * ph)
    expected = -2.0 * np.sin(th) ** 2 * np.sin(2 * ph)
    assert np.max(np.abs(grid.dphi(f) - expected)) < 1e-10


def test_dtheta_matches_analytic(grid):
    th, ph = _angles(grid)
    f = np.cos(th) * np.sin(th) * np.cos(ph)
    expected = (np.cos(th) ** 2 - np.sin(th) ** 2) * np.cos(ph)
    assert np.max(np.abs(grid.dtheta(f) - expected)) < 1e-9


def test_derivative_of_harmonic_eigenfunction(grid):
    # check the spectral gradient against the scipy harmonic via a
    # centered finite difference in theta at interior accuracy
    th, ph = _angles(grid)
    l, m = 3, 1
    y = sph_harm_y(l, m, th, ph).real
    eps = 1e-6
    y_p = sph_harm_y(l, m, th + eps, ph).real
    y_m = sph_harm_y(l, m, th - eps, ph).real
    fd = (y_p - y_m) / (2 * eps)
    assert np.max(np.abs(grid.dtheta(y) - fd)) < 1e-7


def test_directions_are_unit(grid):
    d = grid.directions()
    assert np.max(np.abs(np.einsum("tpm,tpm->tp", d, d) - 1.0)) < 1e-13


# -- the node matrices against scipy's harmonics -------------------------

@pytest.fixture(scope="module", params=[(8, 16), (16, 32)],
                ids=["8x16", "16x32"])
def node_grid(request):
    return sphere.SphereGrid(*request.param)


def _real_harmonics(grid):
    """(l, Y, d_theta Y, d_phi Y) on the nodes for every real Y_lm with
    l <= lmax: the real and imaginary parts of scipy's complex harmonics."""
    th, ph = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    for l in range(grid.lmax + 1):
        for m in range(l + 1):
            y, dy = sph_harm_y(l, m, th, ph, diff_n=1)
            yield l, y.real, dy[..., 0].real, dy[..., 1].real
            if m:
                yield l, y.imag, dy[..., 0].imag, dy[..., 1].imag


def test_grad_matches_every_real_harmonic(node_grid):
    g = node_grid
    for l, y, dth, dph in _real_harmonics(g):
        out = (g.grad @ y.ravel()).reshape(2, g.n_theta, g.n_phi)
        assert np.max(np.abs(out[0] - dth)) <= 1e-10, l
        assert np.max(np.abs(out[1] - dph)) <= 1e-10, l


def test_div_of_harmonic_gradient_is_sphere_laplacian(node_grid):
    # (1/sin) [d_theta (sin d_theta Y) + d_phi (d_phi Y / sin)] = -l(l+1) Y.
    # sin(theta) d_theta Y has degree l + 1, so the top degree is left out.
    g = node_grid
    st = g.sin_theta[:, None]
    for l, y, dth, dph in _real_harmonics(g):
        if l == g.lmax:
            continue
        W = np.stack([st * dth, dph / st])
        lap = g.on_nodes(g.div, W[None]).reshape(g.n_theta, g.n_phi) / st
        assert np.max(np.abs(lap + l * (l + 1) * y)) <= 1e-9, l


def test_derivatives_of_a_constant_are_exactly_zero(node_grid):
    g = node_grid
    f = np.full((3, g.n_theta, g.n_phi, 2), 0.7)
    assert not np.any(g.on_nodes(g.grad, f))
    assert not np.any(oracles.angular_gradient(g, f[..., 0]))
