"""Reference routes for ``ymcone`` that only the tests read.

The full metric, and the generic Christoffel symbols by LAPACK inversion and
einsum with their complex-step derivative, valid on any chart; the
Kretschmann invariant; the deformation tensor of a vector field with a
Jacobian; the cyclic Bianchi residual; the sphere's angular gradient; the
integral over one s-sphere of a cone, the shell integration-by-parts defect
and the vertex shell limit of the parametrix; a cone's optical scalars from
its screen matrices by batched products; the mass aspect of a cone by
its definition off the cone; the stress tensor and the
direct form of the null flux density; the homogeneous SU(2) oscillator, an
exact non-abelian Yang-Mills solution; and u(1) standing-wave data for the
lattice evolution.
"""

import numpy as np
from scipy.special import ellipj

from ymcone import nullcone, parametrix
from ymcone.energy import _stress
from ymcone.evolution import EvolutionError, GaugeState
from ymcone.geometry import (COMPLEX_STEP, _embed, _require_nondegenerate,
                             _zeros, christoffel, inverse_metric, riemann)
from ymcone.liegauge import (FieldStrength, GaugePotential,
                             gauge_covariant_derivative, su2)


def _lowered_christoffel(dg):
    """t_abd = d_a g_db + d_b g_da - d_d g_ab, so Gamma^c_ab = g^cd t_abd / 2."""
    return np.einsum("...adb->...abd", dg) + np.einsum("...bda->...abd", dg) \
        - np.einsum("...dab->...abd", dg)


def metric(chart, x):
    """g_ab, shape (..., 4, 4), with the chart's diagonal on its diagonal."""
    return _embed(chart.diagonal(x))


def generic_inverse_metric(chart, x):
    """g^{ab} by batched LAPACK inversion; valid on any chart.

    Raises DegenerateMetricError where |det g| < DEGENERATE_DET.
    """
    g = metric(chart, x)
    _require_nondegenerate(np.linalg.det(g), chart.name)
    return np.linalg.inv(g)


def generic_christoffel(chart, x):
    """Gamma^c_ab from the LAPACK inverse and the full d_a g_mn; valid on
    any chart."""
    ginv = generic_inverse_metric(chart, x)
    t = _lowered_christoffel(_embed(chart.ddiagonal(x)))
    return 0.5 * np.einsum("...cd,...abd->...cab", ginv, t)


def generic_christoffel_derivative(chart, x):
    """d_e Gamma^c_ab as the complex step of ``generic_christoffel`` along
    each coordinate; valid on any chart."""
    x = np.asarray(x, dtype=float)
    h = COMPLEX_STEP
    return np.stack([generic_christoffel(chart, x + 1j * h * e).imag / h
                     for e in np.eye(4)], axis=-4)


def kretschmann(chart, x):
    """Full curvature invariant R_abcd R^abcd, raising each index by 1/g_aa."""
    R = riemann(chart, x).riemann
    inv = chart.inverse_diagonal(x)
    return np.einsum("...abcd,...a,...b,...c,...d,...abcd->...",
                     R, inv, inv, inv, inv, R)


class VectorField:
    """Vector field with value and Jacobian access.

    ``fn(x) -> (..., 4)``; ``jac(x) -> (..., 4[a], 4[mu]) = d_a V^mu``.
    """

    def __init__(self, fn, jac):
        self.fn = fn
        self._jac = jac

    def __call__(self, x):
        return np.asarray(self.fn(x), dtype=float)

    def jacobian(self, x):
        return np.asarray(self._jac(x), dtype=float)


def coordinate_time_field():
    """The coordinate vector field d/dt."""
    def fn(x):
        x = np.asarray(x, dtype=float)
        v = np.zeros(x.shape[:-1] + (4,))
        v[..., 0] = 1.0
        return v

    def jac(x):
        return _zeros(np.asarray(x, dtype=float), 4, 4)

    return VectorField(fn, jac=jac)


def deformation_tensor(chart, x, field):
    """pi^{mu nu} = (nabla^mu V^nu + nabla^nu V^mu)/2 for a vector field V,
    with nabla_a V^mu = d_a V^mu + Gamma^mu_ab V^b."""
    nab = field.jacobian(x) \
        + np.swapaxes(chart.christoffel_along(x, field(x)), -1, -2)
    up = np.einsum("...ma,...an->...mn", inverse_metric(chart, x), nab)
    return 0.5 * (up + np.swapaxes(up, -1, -2))


def bianchi_residual(chart, x, F, A):
    """Cyclic sum D_a F_{mn} + D_m F_{na} + D_n F_{am}, shape (...,4,4,4,dim)."""
    DF = gauge_covariant_derivative(chart, x, F, A)
    return (DF
            + np.einsum("...mnak->...amnk", DF)
            + np.einsum("...namk->...amnk", DF))


def angular_gradient(grid, f):
    """(d/dtheta f, d/dphi f) stacked on a new last axis."""
    return np.stack([grid.dtheta(f), grid.dphi(f)], axis=-1)


def shell_integral(bundle, f, i):
    """Integral of f over the s-sphere with index i (induced measure)."""
    return bundle.grid.integrate(np.asarray(f) * bundle.optical()["J"][i])


def shell_by_parts_residual(bundle, i, f, h, potential=None):
    """Relative defect of <Lap f, h> + <Df, Dh> integrated over sphere i."""
    conn = parametrix.connection(bundle, potential)
    df = parametrix.angular_gauge_derivative(bundle, f, conn)
    lap = parametrix.screen_laplacian(bundle, df, conn)[i]
    df = df[i]
    dh = parametrix.angular_gauge_derivative(bundle, h, conn)[i]
    hi = np.asarray(h)[i]
    mi = bundle.optical()["minv"][i]
    nth, nph = lap.shape[:2]
    lap2 = lap.reshape(nth, nph, -1)
    hi2 = hi.reshape(nth, nph, -1)
    df2 = df.reshape(nth, nph, 2, -1)
    dh2 = dh.reshape(nth, nph, 2, -1)
    term1 = shell_integral(bundle, np.einsum("tpk,tpk->tp", lap2, hi2), i)
    grad = np.einsum("tpbk,tpck->tpbc", df2, dh2)
    term2 = shell_integral(bundle, np.einsum("tpbc,tpbc->tp", grad, mi), i)
    scale = abs(term2) + abs(term1) + 1e-300
    return abs(term1 + term2) / scale


def vertex_shell_values(bundle, seed, field, potential=None, n_shells=8):
    """Shell integrals of phi^2 trchi <lambda, F(p)> near the vertex.

    Returns (s values, integrals); the s -> 0 extrapolation of the
    integrals recovers 8 pi <seed, F(p)>.
    """
    psi = parametrix.transport_weight(
        bundle, seed, parametrix.connection(bundle, potential))
    Fp_up = parametrix.raise_two_form(bundle.chart, bundle.p, field(bundle.p))
    opt = bundle.optical()
    i_first = int(np.searchsorted(bundle.s, bundle.s_min))
    idx = np.unique(np.linspace(i_first + 1, bundle.n_s,
                                n_shells).astype(int))
    vals, ss = [], []
    for i in idx:
        lam = psi[i] / bundle.s[i]
        dens = (bundle.phi[i] ** 2 * opt["trchi"][i]
                * np.einsum("tpabk,abk->tp", lam, Fp_up))
        vals.append(shell_integral(bundle, dens, i))
        ss.append(bundle.s[i])
    return np.array(ss), np.array(vals)


def vertex_limit(bundle, seed, field, potential=None, n_shells=8):
    """Extrapolated s -> 0 value of the vertex shell integral (linear fit)."""
    ss, vals = vertex_shell_values(bundle, seed, field, potential, n_shells)
    coef = np.polyfit(ss, vals, 1)
    return float(np.polyval(coef, 0.0))


def screen_algebra(bundle):
    """A cone's optical scalars at every node from its screen matrices, by
    batched 2x2 and 4x4 products: Ytilde_b = Y_b - cb_b L with g(Lbar,
    Ytilde_b) = 0, m_bc = g(Ytilde_b, Ytilde_c) and its inverse, chi_bc =
    g(nabla_b L, Ytilde_c) (not symmetrised), trchi = tr(m^-1 chi) and
    |chihat|^2 = tr(m^-1 chi m^-1 chi) - trchi^2 / 2 for the symmetric part
    of chi, k_bc = g(Gamma(Ytilde_b, that), Ytilde_c), k = tr(m^-1 k),
    khat.chihat = tr(m^-1 k m^-1 chi) - k trchi / 2, zeta_b = -phi g(that,
    nabla_b L) and J = sqrt(det m) / sin(theta).  Gamma is the full
    ``christoffel``.  No vertex closure: the vertex slice, where m = 0,
    holds NaN in minv and in what it feeds.
    """
    b = bundle
    # Y = d_b x and d_b L, each (..., 4[mu], 2[b])
    Y, dL = np.moveaxis(b.grid.gradient(np.stack([b.x, b.L], axis=3)), 3, 0)
    d, L, that = b.diagonal_nodes, b.L, b.that
    gamma = christoffel(b.chart, b.x)                   # (..., m, a, b)
    gL = np.einsum("...mab,...b->...ma", gamma, L)
    gT = np.einsum("...mab,...b->...ma", gamma, that)
    cb = -0.5 * ((d * b.Lbar)[..., None, :] @ Y)[..., 0, :]
    Yt = Y - cb[..., None, :] * L[..., :, None]
    gYt = d[..., :, None] * Yt
    m = np.swapaxes(Yt, -1, -2) @ gYt
    minv = np.full_like(m, np.nan)
    minv[1:] = np.linalg.inv(m[1:])
    nabL = dL + gL @ Y
    chi = np.swapaxes(nabL, -1, -2) @ gYt
    chis = 0.5 * (chi + np.swapaxes(chi, -1, -2))
    kt = np.swapaxes(gT @ Yt, -1, -2) @ gYt
    chi_up = minv @ chis @ minv

    def trace(a, c):
        return np.einsum("...bc,...cb->...", a, c)

    trchi, k = trace(minv, chis), trace(minv, kt)
    return {
        "m": m, "minv": minv, "chi": chi, "trchi": trchi,
        "chihat2": trace(chis, chi_up) - 0.5 * trchi ** 2,
        "kscreen": k, "khat_chihat": trace(kt, chi_up) - 0.5 * k * trchi,
        "zeta": -((d * that)[..., None, :] @ nabL)[..., 0, :]
        / b.gLt[..., None],
        "cb": cb,
        "J": np.sqrt(np.linalg.det(m)) / b.grid.sin_theta[:, None],
    }


def _timelike_geodesic(chart, p, T, h, steps=8):
    """The point and velocity at parameter h on the geodesic through p with
    velocity T, by ``steps`` RK4 steps."""
    def rhs(y):
        x, v = y
        return np.stack([v, -chart.christoffel_along(x, v) @ v])

    y, dt = np.stack([p, T]), h / steps
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def exact_split_mass_aspect(bundle, h=1e-3):
    """mu = nabla_Lbar trchi + trchi tr chibar / 2 + 2 omega trchi, omega =
    -g(nabla_Lbar Lbar, L) / 4, from L and Lbar off the cone.

    The cones from gamma(+-h) on the timelike geodesic gamma through the
    vertex, with T_p = gamma'(+-h), give X = d_d x by central differences.
    Solving Lbar = alpha X + beta L + gamma^A Y_A at each node, with Y_A =
    d_A x, gives d_Lbar = alpha d_d + beta d_s + gamma^A d_A, exact up to
    the differences in d and s and the spectral d_A.  mu is zero where the
    bundle's vertex closure holds, s < s_min.
    """
    b = bundle
    cones = [nullcone.NullConeBundle(b.chart, x, b.grid, s_max=b.s[-1],
                                     ds=b.ds, T_p=v)
             for x, v in (_timelike_geodesic(b.chart, b.p, b.T_p, step)
                          for step in (h, -h))]
    Y = b.grid.gradient(b.x)                          # (..., 4, 2)
    split = np.zeros(b.x.shape)                       # alpha, beta, gamma^A
    basis = np.stack([(cones[0].x - cones[1].x) / (2.0 * h), b.L,
                      Y[..., 0], Y[..., 1]], axis=-1)
    split[1:] = np.linalg.solve(basis[1:], b.Lbar[1:, ..., None])[..., 0]

    def d_lbar(extract):
        """d_Lbar of the per-node field ``extract(cone)``."""
        f = extract(b)
        d_d = (extract(cones[0]) - extract(cones[1])) / (2.0 * h)
        return np.einsum("stp,stp...->stp...", split[..., 0], d_d) \
            + np.einsum("stp,stp...->stp...", split[..., 1],
                        b._s_derivative(f)) \
            + np.einsum("stpa,stp...a->stp...", split[..., 2:],
                        b.grid.gradient(f))

    # trchi = q + 2/s with q = ``expansion_deficit``: d_d (2/s) = 0 and
    # d_s (2/s) = -2/s^2
    with np.errstate(divide="ignore", invalid="ignore"):
        d_trchi = d_lbar(lambda c: c.expansion_deficit) \
            - 2.0 * split[..., 1] / b.s[:, None, None] ** 2
    nab_lbar = d_lbar(lambda c: c.Lbar) + np.einsum(
        "...cab,...a,...b->...c", christoffel(b.chart, b.x), b.Lbar, b.Lbar)
    omega = -0.25 * b.dot(nab_lbar, b.L)
    opt = b.optical()
    trchi, phi = opt["trchi"], b.phi
    tr_chibar = -phi * (2.0 * opt["kscreen"] + phi * trchi)
    with np.errstate(invalid="ignore"):
        mu = d_trchi + 0.5 * trchi * tr_chibar + 2.0 * omega * trchi
    mu[b.s < b.s_min] = 0.0
    return mu


def stress_tensor(chart, x, F):
    """T_{mn} = <F_{ma}, F_n^a> - g_{mn} <F_{ab}, F^{ab}> / 4 per point."""
    x = np.asarray(x, dtype=float)
    return _stress(chart.diagonal(x), chart.inverse_diagonal(x), F(x))


def flux_density_direct(bundle, F_nodes):
    """-T_{mn} that^m L^n sqrt(-g_tt); must match the frame form."""
    d = bundle.diagonal_nodes
    tmn = _stress(d, bundle.chart.inverse_diagonal(bundle.x), F_nodes)
    return -np.einsum("...mn,...m,...n->...", tmn, bundle.that, bundle.L) \
        * np.sqrt(-d[..., 0])


def oscillator_profile(a, t):
    """f = a cn(sqrt2 a t | 1/2), which solves f'' = -2 f^3, with f' and the
    primitive int_0^t f = arcsin(sn(sqrt2 a t | 1/2) / sqrt2)."""
    sn, cn, dn, _ = ellipj(np.sqrt(2.0) * a * np.asarray(t), 0.5)
    return a * cn, -np.sqrt(2.0) * a * a * sn * dn, \
        np.arcsin(sn / np.sqrt(2.0))


def su2_oscillator(a, step=1e-3):
    """The homogeneous SU(2) oscillator on Minkowski in temporal gauge
    (Baseyan, Matinyan and Savvidy, JETP Lett. 29, 1979): A_i^k = f(t)
    delta_i^k, so F_0i^k = f' delta_i^k and F_ij^k = f^2 eps_ijk, with f
    from ``oscillator_profile``.  Returns (GaugePotential, FieldStrength),
    both differentiated by finite differences of ``step``."""
    basis = su2()
    eps = basis.c

    def potential(x):
        f, _, _ = oscillator_profile(a, np.asarray(x, dtype=float)[..., 0])
        out = np.zeros(f.shape + (4, 3))
        out[..., 1:, :] = f[..., None, None] * np.eye(3)
        return out

    def field(x):
        f, df, _ = oscillator_profile(a, np.asarray(x, dtype=float)[..., 0])
        out = np.zeros(f.shape + (4, 4, 3))
        out[..., 0, 1:, :] = df[..., None, None] * np.eye(3)
        out[..., 1:, 0, :] = -out[..., 0, 1:, :]
        out[..., 1:, 1:, :] = (f * f)[..., None, None, None] * eps
        return out

    return (GaugePotential(basis, potential, step=step),
            FieldStrength(basis, field, step=step))


def abelian_wave_data(lattice, basis, amplitude=0.1, modes=(1, 0)):
    """u(1) standing-wave data: A transverse to the mode, E = 0."""
    if basis.dim != 1:
        raise EvolutionError("abelian data needs a 1-dimensional algebra")
    kx, ky = modes
    phase = 2.0 * np.pi * (kx * lattice.x + ky * lattice.y) / lattice.length
    A = np.zeros((2, lattice.n, lattice.n, 1))
    # polarization orthogonal to the wave vector keeps d_i A_i = 0
    A[0, ..., 0] = -ky * amplitude * np.sin(phase)
    A[1, ..., 0] = kx * amplitude * np.sin(phase)
    E = np.zeros_like(A)
    return GaugeState(lattice, basis, A, E)
