"""Energy, null flux and bulk terms of the divergence identity.

The conserved current is P^mu = -T^{mu nu} V_nu with V = d/dt and T the
gauge-field stress tensor.  Integrated over the region of a constant-t slice
inside a past cone, its change between two slices is balanced by the flux
through the cone segment and a bulk term driven by the deformation tensor of
V (zero when d/dt is Killing):

    E(t1) - E(t0) + flux(t0, t1) + bulk(t0, t1) = 0,
with bulk the spacetime integral of pi^{mn} T_{mn}.

Slice and bulk regions are quadratured with a star-shaped map from the cone
crossing ring; the cone flux uses the affine measure ds dA / phi.
"""

from __future__ import annotations

import numpy as np

from . import geometry, parametrix
from .parametrix import _chunks


# ---------------------------------------------------------------------------
# stress tensor and frame densities
# ---------------------------------------------------------------------------

def stress_tensor(chart, x, F):
    """T_{mn} = <F_{ma}, F_n^a> - g_{mn} <F_{ab}, F^{ab}> / 4 per point."""
    x = np.asarray(x, dtype=float)
    return _stress(chart.metric(x), geometry.inverse_metric(chart, x), F(x))


def _stress(g, ginv, f):
    """``stress_tensor`` from g, g^-1 and F already at the same points."""
    fmix = np.einsum("...ab,...mak->...mbk", ginv, f)      # F_m{}^b
    t = np.einsum("...mak,...nbk,...ab->...mn", f, f, ginv)
    # F_a^b F_b^a = -F_{ab} F^{ab}, hence the plus sign on the trace term
    tr = np.einsum("...abk,...bak->...", fmix, fmix)
    return t + 0.25 * g * tr[..., None, None]


def frame_energy_density(chart, x, F, time_axis_hint=None):
    """T_{that that} as an explicit sum of squared frame components.

    Nonnegative by construction; equals the tensor contraction
    T_{mn} that^m that^n up to roundoff (cross-checked in tests).
    """
    x = np.asarray(x, dtype=float)
    frame = geometry.orthonormal_frame(chart, x, time_axis_hint)
    f = F(x)
    comp = np.einsum("...ia,...jb,...abk->...ijk",
                     frame.vectors, frame.vectors, f)
    dens = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            dens = dens + 0.5 * np.einsum("...k,...k->...",
                                          comp[..., i, j, :], comp[..., i, j, :])
    return dens


def slice_region_quadrature(crossing, n_radial=24):
    """Star-shaped quadrature for the slice region bounded by the ring.

    The region in the constant-t slice is parametrized by
    X(u, omega) = center + u (ring(omega) - center) in the spatial
    coordinates, u in (0, 1].  Returns (points, weights) with weights
    carrying the coordinate volume element; the metric volume factor is the
    caller's integrand business.
    """
    b = crossing.bundle
    x_ring = crossing.interpolate(b.x)
    t_val = float(np.mean(x_ring[..., 0]))
    center = b.p[1:]
    y = x_ring[..., 1:] - center                       # (nth, nph, 3)
    dy = np.stack([b.grid.dtheta(np.moveaxis(y, -1, 0)),
                   b.grid.dphi(np.moveaxis(y, -1, 0))], axis=-1)
    dy = np.moveaxis(dy, 0, -2)                        # (nth, nph, 3, 2)
    D = (y[..., 0] * (dy[..., 1, 0] * dy[..., 2, 1] - dy[..., 2, 0] * dy[..., 1, 1])
         - y[..., 1] * (dy[..., 0, 0] * dy[..., 2, 1] - dy[..., 2, 0] * dy[..., 0, 1])
         + y[..., 2] * (dy[..., 0, 0] * dy[..., 1, 1] - dy[..., 1, 0] * dy[..., 0, 1]))
    D = np.abs(D) / b.grid.sin_theta[:, None]          # smooth on the sphere
    u, wu = np.polynomial.legendre.leggauss(n_radial)
    u = 0.5 * (u + 1.0)
    wu = 0.5 * wu
    pts = np.empty((n_radial,) + y.shape[:2] + (4,))
    pts[..., 0] = t_val
    pts[..., 1:] = center + u[:, None, None, None] * y[None]
    w = wu[:, None, None] * u[:, None, None] ** 2 * D[None] * b.grid.weights[None]
    return pts, w


def slice_energy(chart, F, crossing, n_radial=24, time_axis_hint=None):
    """E(t) over the cone-interior region of the crossing's slice.

    Integrand: T_{that that} sqrt(-g_tt) with the slice metric volume.
    """
    pts, w = slice_region_quadrature(crossing, n_radial)
    g = chart.metric(pts)
    dens = frame_energy_density(chart, pts, F, time_axis_hint)
    gspat = np.linalg.det(g[..., 1:, 1:])
    lapse = np.sqrt(-g[..., 0, 0])
    return float(np.sum(w * dens * lapse * np.sqrt(gspat)))


# ---------------------------------------------------------------------------
# cone flux
# ---------------------------------------------------------------------------

def flux_density_frame(bundle, F_nodes):
    """Null-decomposed flux density at every cone node.

    (|F_{L Lbar}|^2 / (8 phi) + phi (|F_{L e1}|^2 + |F_{L e2}|^2) / 2
     + |F_{e1 e2}|^2 / (2 phi)) sqrt(-g_tt); each term nonnegative.
    """
    e = bundle.null_frames()
    L, Lb = bundle.L, bundle.Lbar
    gLt = bundle.gLt
    lapse = np.sqrt(-bundle.metric_nodes[..., 0, 0])
    F_LLb = np.einsum("...abk,...a,...b->...k", F_nodes, L, Lb)
    F_La = np.einsum("...abk,...a,...cb->...ck", F_nodes, L, e)
    F_12 = np.einsum("...abk,...a,...b->...k", F_nodes, e[..., 0, :],
                     e[..., 1, :])
    sq = lambda v: np.einsum("...k,...k->...", v, v)
    return lapse * (0.125 * gLt * sq(F_LLb)
                    + 0.5 / gLt * (sq(F_La[..., 0, :]) + sq(F_La[..., 1, :]))
                    + 0.5 * gLt * sq(F_12))


def flux_density_direct(bundle, F_nodes):
    """-T_{mn} that^m L^n sqrt(-g_tt); must match the frame form."""
    t = np.empty(F_nodes.shape[:3])
    for sl in _chunks(bundle.n_s + 1, bundle.chunk):
        g = bundle.metric_nodes[sl]
        tmn = _stress(g, geometry.inverse_metric(bundle.chart, bundle.x[sl]),
                      F_nodes[sl])
        t[sl] = -np.einsum("...mn,...m,...n->...", tmn,
                           bundle.that[sl], bundle.L[sl]) \
            * np.sqrt(-g[..., 0, 0])
    return t


def cone_flux(bundle, F, crossing_far, crossing_near):
    """Flux through the cone between two slice crossings (far: earlier t).

    Measure ds dA along the rays (the optical-function normalization cancels
    against the transverse Jacobian, leaving the bare affine measure); the
    quadrature is ``NullConeBundle.cone_integral``.
    """
    F_nodes = parametrix.sample_field(bundle, F, (4, 4, F.basis.dim))
    return bundle.cone_integral(flux_density_frame(bundle, F_nodes),
                                crossing_far, crossing_near)


# ---------------------------------------------------------------------------
# bulk term and deformation diagnostics
# ---------------------------------------------------------------------------

def bulk_term(chart, F, bundle, t0, t1, n_time=12, n_radial=16):
    """Integral of pi^{mn}(d/dt) T_{mn} over the cone interior in [t0, t1].

    Exactly zero when d/dt is Killing; evaluated by Gauss-Legendre in t over
    star-shaped slice regions.
    """
    V = geometry.coordinate_time_field()
    tq, wq = np.polynomial.legendre.leggauss(n_time)
    tq = 0.5 * (t1 - t0) * (tq + 1.0) + t0
    wq = 0.5 * (t1 - t0) * wq
    total = 0.0
    for tv, wt in zip(tq, wq):
        crossing = bundle.crossing(tv)
        pts, w = slice_region_quadrature(crossing, n_radial)
        pi = geometry.deformation_tensor(chart, pts, V)
        tmn = stress_tensor(chart, pts, F)
        dens = np.einsum("...mn,...mn->...", pi, tmn)
        g = chart.metric(pts)
        vol4 = np.sqrt(-np.linalg.det(g))
        total += wt * float(np.sum(w * dens * vol4))
    return total


def deformation_bound(chart, crossing, n_radial=12):
    """max |pi(d/dt)| frame components over the slice region (the measured
    counterpart of the integrable-deformation hypothesis)."""
    pts, _w = slice_region_quadrature(crossing, n_radial)
    V = geometry.coordinate_time_field()
    pi = geometry.deformation_tensor(chart, pts, V)     # pi^{mn}
    g = chart.metric(pts)
    frame = geometry.orthonormal_frame(chart, pts)
    low = np.einsum("...am,...bn,...mn->...ab", g, g, pi)
    comp = np.einsum("...ia,...jb,...ab->...ij", frame.vectors,
                     frame.vectors, low)
    return float(np.max(np.abs(comp)))


# ---------------------------------------------------------------------------
# first-order (gradient) energy density
# ---------------------------------------------------------------------------

def gradient_energy_density(chart, x, F, A, time_axis_hint=None):
    """(1/2) sum_alpha |D_{e_alpha} F|_h^2 over an orthonormal frame.

    h is the Riemannian companion metric of the slice foliation; every term
    is nonnegative.
    """
    from . import liegauge
    x = np.asarray(x, dtype=float)
    frame = geometry.orthonormal_frame(chart, x, time_axis_hint)
    h = geometry.h_metric(chart, x, frame.that)
    hinv = np.linalg.inv(h)
    DF = liegauge.gauge_covariant_derivative(chart, x, F, A)
    comp = np.einsum("...ie,...eabk->...iabk", frame.vectors, DF)
    dens = 0.0
    for i in range(4):
        dens = dens + 0.5 * np.einsum(
            "...abk,...cdk,...ac,...bd->...",
            comp[..., i, :, :, :], comp[..., i, :, :, :], hinv, hinv)
    return dens


# ---------------------------------------------------------------------------
# the assembled identity
# ---------------------------------------------------------------------------

def divergence_identity_report(chart, F, bundle, t0, t1, n_radial=24,
                               n_time=12):
    """Evaluate E(t1) - E(t0) + flux + bulk and report every term.

    The bulk integral is evaluated unless the chart is flag-flat, where
    d/dt is Killing and the bulk term vanishes.
    """
    cr0 = bundle.crossing(t0)
    cr1 = bundle.crossing(t1)
    E0 = slice_energy(chart, F, cr0, n_radial)
    E1 = slice_energy(chart, F, cr1, n_radial)
    flux = cone_flux(bundle, F, cr0, cr1)
    bulk = 0.0 if chart.flat else bulk_term(chart, F, bundle, t0, t1,
                                            n_time, n_radial)
    residual = E1 - E0 + flux + bulk
    return {
        "E_start": E0, "E_end": E1, "flux": flux, "bulk": bulk,
        "residual": residual,
        "relative_residual": abs(residual) / (abs(E0) + 1e-300),
    }
