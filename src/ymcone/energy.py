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

from . import parametrix


# ---------------------------------------------------------------------------
# stress tensor and frame densities
# ---------------------------------------------------------------------------

def _stress(d, inv, f):
    """T_{mn} = <F_{ma}, F_n^a> - g_{mn} <F_{ab}, F^{ab}> / 4 from g_aa,
    1/g_aa and F already at the same points."""
    fmix = f * inv[..., None, :, None]                      # F_m{}^a
    t = np.einsum("...mak,...nak->...mn", fmix, f)
    tr = np.einsum("...abk,...abk,...a->...", fmix, f, inv)  # F_{ab} F^{ab}
    i = np.arange(4)
    t[..., i, i] -= 0.25 * d * tr[..., None]
    return t


def frame_energy_density(chart, x, F):
    """T_{that that} = (1/4) sum_ab |F_ab|^2 / |g_aa g_bb|, the squared
    components of F in the static frame |g_aa|^(-1/2) d_a.

    Nonnegative by construction; equals the tensor contraction
    T_{mn} that^m that^n up to roundoff (``tests/test_energy.py``).
    """
    x = np.asarray(x, dtype=float)
    w = np.abs(chart.inverse_diagonal(x))
    f = F(x)
    return 0.25 * np.einsum("...abk,...abk,...a,...b->...", f, f, w, w)


def _volume(d):
    """sqrt|det g| = sqrt|prod_a g_aa| from the metric diagonal."""
    return np.sqrt(np.abs(np.prod(d, axis=-1)))


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
    D = np.sum(y * np.cross(dy[..., 0], dy[..., 1]), axis=-1)
    D = np.abs(D) / b.grid.sin_theta[:, None]          # smooth on the sphere
    u, wu = np.polynomial.legendre.leggauss(n_radial)
    u = 0.5 * (u + 1.0)
    wu = 0.5 * wu
    pts = np.empty((n_radial,) + y.shape[:2] + (4,))
    pts[..., 0] = t_val
    pts[..., 1:] = center + u[:, None, None, None] * y[None]
    w = wu[:, None, None] * u[:, None, None] ** 2 * D[None] * b.grid.weights[None]
    return pts, w


def slice_energy(F, crossing, n_radial=24):
    """E(t) over the cone-interior region of the crossing's slice.

    Integrand: T_{that that} sqrt(-g_tt) with the slice metric volume, i.e.
    T_{that that} sqrt|det g|.
    """
    chart = crossing.bundle.chart
    pts, w = slice_region_quadrature(crossing, n_radial)
    dens = frame_energy_density(chart, pts, F)
    return float(np.sum(w * dens * _volume(chart.diagonal(pts))))


# ---------------------------------------------------------------------------
# cone flux
# ---------------------------------------------------------------------------

def flux_density_frame(bundle, F_nodes):
    """Null-decomposed flux density at the cone nodes of the slices that
    ``F_nodes`` covers, 0 .. len(F_nodes) - 1.

    (|F_{L Lbar}|^2 / (8 phi) + phi (|F_{L e1}|^2 + |F_{L e2}|^2) / 2
     + |F_{e1 e2}|^2 / (2 phi)) sqrt(-g_tt); each term nonnegative, from
    FL_b = F_{ab} L^a and F_{ab} e1^a each contracted once more.
    """
    n = len(F_nodes)
    e, gLt = bundle.null_frames()[:n], bundle.gLt[:n]
    lapse = np.sqrt(-bundle.diagonal_nodes[:n, ..., 0])
    FL = np.einsum("...abk,...a->...bk", F_nodes, bundle.L[:n])
    F_LLb = np.einsum("...bk,...b->...k", FL, bundle.Lbar[:n])
    F_La = np.einsum("...bk,...cb->...ck", FL, e)
    F_12 = np.einsum("...bk,...b->...k", np.einsum(
        "...abk,...a->...bk", F_nodes, e[..., 0, :]), e[..., 1, :])
    sq = lambda v: np.einsum("...k,...k->...", v, v)
    return lapse * (0.125 * gLt * sq(F_LLb)
                    + 0.5 / gLt * (sq(F_La[..., 0, :]) + sq(F_La[..., 1, :]))
                    + 0.5 * gLt * sq(F_12))


def cone_flux(bundle, F, crossing_far, crossing_near):
    """Flux through the cone between two slice crossings (far: earlier t).

    Measure ds dA along the rays (the optical-function normalization cancels
    against the transverse Jacobian, leaving the bare affine measure); the
    quadrature is ``NullConeBundle.cone_integral``, which reads the slices
    up to ``crossing_far.stop`` only, so F is sampled on those alone.
    """
    F_nodes = parametrix.sample_field(bundle, F, (4, 4, F.basis.dim),
                                      stop=crossing_far.stop)
    return bundle.cone_integral(flux_density_frame(bundle, F_nodes),
                                crossing_far, crossing_near)


# ---------------------------------------------------------------------------
# bulk term and deformation diagnostics
# ---------------------------------------------------------------------------

def bulk_density(chart, x, F):
    """pi^{mn}(d/dt) T_{mn} per point.

    On a diagonal chart the deformation tensor of d/dt is diagonal,
    pi^{mn} = delta^{mn} d_t g_mm / (2 g_mm^2).
    """
    x = np.asarray(x, dtype=float)
    d, inv = chart.diagonal(x), chart.inverse_diagonal(x)
    pi = 0.5 * chart.ddiagonal(x)[..., 0, :] * inv ** 2
    return np.einsum("...m,...mm->...", pi, _stress(d, inv, F(x)))


def bulk_term(F, bundle, t0, t1, n_time=12, n_radial=24):
    """Integral of pi^{mn}(d/dt) T_{mn} over the cone interior in [t0, t1].

    Exactly 0.0, with no crossing built, where t is ``ignorable`` (d/dt is
    Killing, pi = 0); elsewhere Gauss-Legendre in t over star-shaped slices.
    """
    chart = bundle.chart
    if 0 in chart.ignorable:
        return 0.0
    tq, wq = np.polynomial.legendre.leggauss(n_time)
    tq = 0.5 * (t1 - t0) * (tq + 1.0) + t0
    wq = 0.5 * (t1 - t0) * wq
    total = 0.0
    for tv, wt in zip(tq, wq):
        pts, w = slice_region_quadrature(bundle.crossing(tv), n_radial)
        dens = bulk_density(chart, pts, F) * _volume(chart.diagonal(pts))
        total += wt * float(np.sum(w * dens))
    return total


# ---------------------------------------------------------------------------
# the assembled identity
# ---------------------------------------------------------------------------

def divergence_identity_report(F, bundle, t0, t1, n_radial=24, n_time=12):
    """Evaluate E(t1) - E(t0) + flux + bulk and report every term."""
    cr0 = bundle.crossing(t0)
    cr1 = bundle.crossing(t1)
    E0 = slice_energy(F, cr0, n_radial)
    E1 = slice_energy(F, cr1, n_radial)
    flux = cone_flux(bundle, F, cr0, cr1)
    bulk = bulk_term(F, bundle, t0, t1, n_time, n_radial)
    residual = E1 - E0 + flux + bulk
    return {
        "E_start": E0, "E_end": E1, "flux": flux, "bulk": bulk,
        "residual": residual,
        "relative_residual": abs(residual) / (abs(E0) + 1e-300),
    }
