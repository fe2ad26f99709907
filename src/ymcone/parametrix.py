"""Cone-transport weight and pointwise field reconstruction.

The reconstruction identity expresses 4π <seed, F(p)> for an algebra-valued
2-form F as (i) a cone integral of the weight against the wave operator of
F, (ii) a cone integral of angular/connection corrections applied to the
weight, and (iii) a ring integral of initial data on a spacelike slice.  The
weight lambda solves a parallel-transport equation along the cone rays with
a 1/s vertex singularity; everything here works with the regular combination
psi = s * lambda, whose vertex value is the seed itself.

All per-node arrays follow the bundle layout (n_s + 1, n_theta, n_phi, ...).
"""

from __future__ import annotations

import numpy as np

from . import geometry, liegauge


def _chunks(n, k):
    for i in range(0, n, k):
        yield slice(i, min(i + k, n))


def sample_field(bundle, field, extra_shape):
    """Evaluate an analytic field at every bundle node, chunked over s."""
    out = np.empty(bundle.x.shape[:3] + extra_shape)
    for sl in _chunks(bundle.n_s + 1, bundle.chunk):
        out[sl] = field(bundle.x[sl])
    return out


def raise_two_form(bundle, f):
    """F_{mu nu} -> F^{mu nu} = (g^-T F g^-1) per algebra component, chunked."""
    out = np.empty_like(f)
    for sl in _chunks(bundle.n_s + 1, bundle.chunk):
        ginv = geometry.inverse_metric(bundle.chart, bundle.x[sl])[..., None, :, :]
        fk = np.moveaxis(f[sl], -1, -3)                 # (..., k, a, b)
        out[sl] = np.moveaxis(np.swapaxes(ginv, -1, -2) @ fk @ ginv, -3, -1)
    return out


def pairing(bundle, f, f_up):
    """<f_{ab}, g^{ab}> per node for algebra-valued 2-tensors."""
    return np.einsum("...abk,...abk->...", f, f_up)


# ---------------------------------------------------------------------------
# transport of the weight along the rays
# ---------------------------------------------------------------------------

def transport_weight(bundle, seed, potential=None, a_nodes=None):
    """Integrate psi = s * lambda along every ray; psi(0) = seed.

    lambda solves D_L lambda + (trchi / 2) lambda = 0 gauge- and
    Levi-Civita-covariantly, so psi obeys
        dpsi/ds = Gamma(L) hits - [A_L, psi] - (trchi - 2/s)/2 psi
    which is regular at the vertex; below s_min the expansion deficit is
    closed to zero.  RK4 with midpoint coefficients averaged from the two
    bracketing s nodes.  ``a_nodes`` is the potential already sampled at
    the nodes (``sample_field``); it is sampled here when omitted.
    """
    seed = np.asarray(seed, dtype=float)
    dim = seed.shape[-1]
    n1 = bundle.n_s + 1
    nth, nph = bundle.grid.n_theta, bundle.grid.n_phi
    psi = np.empty((n1, nth, nph, 4, 4, dim))
    psi[0] = seed

    with np.errstate(invalid="ignore"):
        q = bundle.optical()["trchi"] - 2.0 / np.where(
            bundle.s > 0, bundle.s, 1.0)[:, None, None]
    q[bundle.s < bundle.s_min] = 0.0

    if bundle.chart.flat:
        G = None
    else:
        G = np.empty((n1, nth, nph, 4, 4))
        for sl in _chunks(n1, bundle.chunk):
            gamma = geometry.christoffel(bundle.chart, bundle.x[sl])
            G[sl] = np.einsum("...gma,...m->...ga", gamma, bundle.L[sl])

    basis = potential.basis if potential is not None else None
    aL = None
    if potential is not None:
        a = _sampled(bundle, potential, a_nodes)
        aL = np.einsum("...mi,...m->...i", a, bundle.L)
        if not np.any(aL):
            aL = None

    def rhs(p, qv, Gv, av):
        out = -0.5 * qv[..., None, None, None] * p
        if Gv is not None:
            out = out + np.einsum("...ga,...gbk->...abk", Gv, p) \
                      + np.einsum("...gb,...agk->...abk", Gv, p)
        if av is not None:
            out = out - np.einsum("ijk,...i,...abj->...abk", basis.c, av, p)
        return out

    h = bundle.ds
    for i in range(n1 - 1):
        q0, q1 = q[i], q[i + 1]
        qm = 0.5 * (q0 + q1)
        G0 = G[i] if G is not None else None
        G1 = G[i + 1] if G is not None else None
        Gm = 0.5 * (G0 + G1) if G is not None else None
        a0 = aL[i] if aL is not None else None
        a1 = aL[i + 1] if aL is not None else None
        am = 0.5 * (a0 + a1) if aL is not None else None
        p = psi[i]
        k1 = rhs(p, q0, G0, a0)
        k2 = rhs(p + 0.5 * h * k1, qm, Gm, am)
        k3 = rhs(p + 0.5 * h * k2, qm, Gm, am)
        k4 = rhs(p + h * k3, q1, G1, a1)
        psi[i + 1] = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return psi


# ---------------------------------------------------------------------------
# angular (sphere-intrinsic) covariant operators
# ---------------------------------------------------------------------------

def _sampled(bundle, potential, a_nodes=None):
    """The potential at every node: ``a_nodes`` if given, else sampled."""
    if potential is None or a_nodes is not None:
        return a_nodes
    return sample_field(bundle, potential, (4, potential.basis.dim))


def _sphere_tangents(bundle):
    """Coordinate tangents of the fixed-s spheres, shape (..., 2, 4)."""
    opt = bundle.optical()
    return opt["Ytilde"] + opt["cb"][..., None] * bundle.L[..., None, :]


def angular_gauge_derivative(bundle, f, rank, potential=None, a_nodes=None):
    """D_b f along the two sphere tangents; axis -2-rank-1 ... returns
    (n1, nth, nph, 2, <tensor>, dim): spectral angular derivative plus
    Levi-Civita terms on the spacetime indices and the bracket with the
    potential pulled back to the sphere tangents.  ``a_nodes`` as in
    ``transport_weight``.
    """
    f = np.asarray(f)
    df = bundle._angular(f)                     # (..., <tensor>, dim, 2)
    df = np.moveaxis(df, -1, 3)                 # (..., 2, <tensor>, dim)
    Y = _sphere_tangents(bundle)
    if not bundle.chart.flat and rank > 0:
        for sl in _chunks(bundle.n_s + 1, bundle.chunk):
            gamma = geometry.christoffel(bundle.chart, bundle.x[sl])
            gY = np.einsum("...gma,...bm->...bga", gamma, Y[sl])
            if rank == 1:
                df[sl] -= np.einsum("...bga,...gk->...bak", gY, f[sl])
            else:
                df[sl] -= np.einsum("...bga,...gnk->...bank", gY, f[sl]) \
                    + np.einsum("...bgn,...agk->...bank", gY, f[sl])
    if potential is not None:
        a = _sampled(bundle, potential, a_nodes)
        aY = np.einsum("...mi,...bm->...bi", a, Y)
        if np.any(aY):
            sub = "ijk,...bi,"
            spec = {0: sub + "...j->...bk", 1: sub + "...aj->...bak",
                    2: sub + "...anj->...bank"}[rank]
            df += np.einsum(spec, potential.basis.c, aY, f)
    return df


def screen_laplacian(bundle, f, rank=2, potential=None, a_nodes=None,
                     df=None):
    """Gauge-covariant Laplace-Beltrami operator of the fixed-s spheres.

    Divergence form with the induced metric: the sphere-index part is exact
    by construction, the spacetime/algebra indices get connection and
    bracket corrections in the outer derivative.  Slice 0 is returned as 0.
    ``df`` is ``angular_gauge_derivative(bundle, f, rank, potential)`` when
    the caller already has it; ``a_nodes`` as in ``transport_weight``.
    """
    opt = bundle.optical()
    a_nodes = _sampled(bundle, potential, a_nodes)
    if df is None:
        df = angular_gauge_derivative(bundle, f, rank, potential, a_nodes)
    extra = df.ndim - 4
    mi = opt["minv"]
    # V^b = minv^{bc} D_c f, with the sphere index moved to the end
    dfm = np.moveaxis(df, 3, -1)                 # (..., <tensor>, dim, c)
    mi = mi.reshape(mi.shape[:3] + (1,) * extra + (2, 2))
    d0, d1 = dfm[..., 0], dfm[..., 1]
    Vm = np.stack([mi[..., 0, 0] * d0 + mi[..., 0, 1] * d1,
                   mi[..., 1, 0] * d0 + mi[..., 1, 1] * d1], axis=-1)
    sqm = opt["J"] * bundle.grid.sin_theta[None, :, None]
    W = Vm * sqm.reshape(sqm.shape + (1,) * (extra + 1))
    dW = bundle._angular(np.moveaxis(W, -1, 3))  # (..., b=W-index, ..., c=deriv)
    dW = np.moveaxis(dW, (3, -1), (-2, -1))      # (..., <tensor>, dim, b, c)
    div = dW[..., 0, 0] + dW[..., 1, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = div / sqm.reshape(sqm.shape + (1,) * extra)
    out[0] = 0.0
    V = np.moveaxis(Vm, -1, 3)                  # (..., b, <tensor>, dim)
    Y = _sphere_tangents(bundle)
    if not bundle.chart.flat and rank > 0:
        for sl in _chunks(bundle.n_s + 1, bundle.chunk):
            gamma = geometry.christoffel(bundle.chart, bundle.x[sl])
            gY = np.einsum("...gma,...bm->...bga", gamma, Y[sl])
            if rank == 1:
                out[sl] -= np.einsum("...bga,...bgk->...ak", gY, V[sl])
            else:
                out[sl] -= np.einsum("...bga,...bgnk->...ank", gY, V[sl]) \
                    + np.einsum("...bgn,...bagk->...ank", gY, V[sl])
    if potential is not None:
        aY = np.einsum("...mi,...bm->...bi", a_nodes, Y)
        if np.any(aY):
            sub = "ijk,...bi,"
            spec = {0: sub + "...bj->...k", 1: sub + "...baj->...ak",
                    2: sub + "...banj->...ank"}[rank]
            out += np.einsum(spec, potential.basis.c, aY, V)
    return out


def shell_by_parts_residual(bundle, i, f, h, rank=0, potential=None):
    """Relative defect of <Lap f, h> + <Df, Dh> integrated over sphere i."""
    a_nodes = _sampled(bundle, potential)
    df = angular_gauge_derivative(bundle, f, rank, potential, a_nodes)
    lap = screen_laplacian(bundle, f, rank, potential, a_nodes, df=df)[i]
    df = df[i]
    dh = angular_gauge_derivative(bundle, h, rank, potential, a_nodes)[i]
    hi = np.asarray(h)[i]
    mi = bundle.optical()["minv"][i]
    nth, nph = lap.shape[:2]
    lap2 = lap.reshape(nth, nph, -1)
    hi2 = hi.reshape(nth, nph, -1)
    df2 = df.reshape(nth, nph, 2, -1)
    dh2 = dh.reshape(nth, nph, 2, -1)
    term1 = bundle.shell_integral(np.einsum("tpk,tpk->tp", lap2, hi2), i)
    grad = np.einsum("tpbk,tpck->tpbc", df2, dh2)
    term2 = bundle.shell_integral(np.einsum("tpbc,tpbc->tp", grad, mi), i)
    scale = abs(term2) + abs(term1) + 1e-300
    return abs(term1 + term2) / scale


# ---------------------------------------------------------------------------
# cone-region quadrature bounded by a slice crossing
# ---------------------------------------------------------------------------

def cone_region_integral(bundle, f, crossing):
    """ds x dA integral of f over the cone portion above the crossing ring.

    Trapezoid along each ray up to the last full node, plus the fractional
    end cell up to the interpolated crossing point.
    """
    f = np.asarray(f, dtype=float)
    J = bundle.optical()["J"]
    fJ = f * J
    idx = np.arange(bundle.n_s + 1)[:, None, None]
    i0 = crossing.i0
    W = np.where(idx <= i0, bundle.ds, 0.0)
    W[0] *= 0.5
    np.put_along_axis(W, i0[None], np.take_along_axis(W, i0[None], 0) * 0.5,
                      axis=0)
    inner = np.einsum("stp,stp->tp", W, fJ)
    fJ_star = crossing.interpolate(fJ)
    fJ_edge = np.take_along_axis(fJ, i0[None], axis=0)[0]
    partial = 0.5 * crossing.frac * bundle.ds * (fJ_edge + fJ_star)
    return float(np.einsum("tp,tp->", inner + partial, bundle.grid.weights))


# ---------------------------------------------------------------------------
# reconstruction assembly
# ---------------------------------------------------------------------------

def representation_target(chart, basis, p, seed, field):
    """4 pi <seed_{ab}, F^{ab}(p)>, the quantity the assembly reconstructs."""
    return _vertex_pairing(geometry.inverse_metric(chart, p), seed, field(p))


def _vertex_pairing(ginv, seed, Fp):
    up = np.einsum("am,bn,abk->mnk", ginv, ginv, np.asarray(seed, float))
    return 4.0 * np.pi * float(np.einsum("mnk,mnk->", up, Fp))


def assemble_representation(bundle, seeds, field, potential=None,
                            t_slice=None):
    """Evaluate every term of the reconstruction identity on one bundle.

    ``seeds`` is a stack of seed two-forms, shape (n, 4, 4, dim).  Returns
    one dict per seed, in seed order, with the individual terms, their sum,
    the vertex target and the relative error.  The identity is linear in
    the seed, so every term that does not involve the transported weight
    (the field and its wave operator at the nodes, the curvature coupling,
    the mass aspect, the ring data) is computed once for all seeds.  The
    field is assumed to solve the Yang-Mills system, for which its wave
    operator reduces to curvature couplings and self-interaction (zero on a
    flat abelian background).
    """
    chart, basis = bundle.chart, field.basis
    seeds = np.asarray(seeds, dtype=float)
    if seeds.ndim != 4 or seeds.shape[1:] != (4, 4, basis.dim):
        raise ValueError(f"seeds must have shape (n, 4, 4, {basis.dim}), "
                         f"got {seeds.shape}")
    if t_slice is None:
        t_slice = bundle.p[0] - 1.0
    crossing = bundle.crossing(t_slice)
    opt = bundle.optical()
    s_col = bundle.s[:, None, None]
    inv_s = np.zeros_like(s_col)
    inv_s[1:] = 1.0 / s_col[1:]
    chunks = list(_chunks(bundle.n_s + 1, bundle.chunk))

    a_nodes = _sampled(bundle, potential)
    F_nodes = sample_field(bundle, field, (4, 4, basis.dim))
    F_up = raise_two_form(bundle, F_nodes)

    # --- wave operator of the field (None: zero on a flat abelian chart) --
    box_up = None
    if not (chart.flat and basis.dim == 1):
        box_nodes = np.empty_like(F_nodes)
        for sl in chunks:
            box_nodes[sl] = liegauge.wave_source(chart, bundle.x[sl], field)
        box_up = raise_two_form(bundle, box_nodes)
        del box_nodes

    # --- seed-free factors of the cone corrections ------------------------
    with np.errstate(invalid="ignore"):
        q = opt["trchi"] - 2.0 * inv_s
    q[bundle.s < bundle.s_min] = 0.0
    mu, _omega = bundle.mass_aspect()
    mu_half = 0.5 * mu[..., None, None, None]
    F_LLbar = None
    if np.any(basis.c):
        F_LLbar = np.einsum("stpabk,stpa,stpb->stpk",
                            F_nodes, bundle.L, bundle.Lbar)
    del F_nodes                 # the seed loop needs only F_up and F_LLbar
    K = None
    if not chart.flat:
        # K^a_g = g^{ad} R_{d g L Lbar}
        K = np.empty(bundle.x.shape[:3] + (4, 4))
        for sl in chunks:
            riem = geometry.riemann(chart, bundle.x[sl]).riemann
            ginv = geometry.inverse_metric(chart, bundle.x[sl])
            K[sl] = np.einsum("...gd,...adnm,...m,...n->...ag",
                              ginv, riem, bundle.L[sl], bundle.Lbar[sl])

    # --- initial-data ring ---------------------------------------------
    x_ring = crossing.interpolate(bundle.x)
    s_star = crossing.s_star
    ginv_ring = geometry.inverse_metric(chart, x_ring)
    F_ring_up = np.einsum("...am,...bn,...abk->...mnk", ginv_ring, ginv_ring,
                          field(x_ring))
    that_ring = geometry.unit_time_field(chart)(x_ring)
    phi_ring = crossing.interpolate(bundle.phi)
    L_ring = crossing.interpolate(bundle.L)
    N_ring = phi_ring[..., None] * L_ring + that_ring
    A_for_D = potential if potential is not None \
        else liegauge.zero_potential(basis)
    DF = liegauge.gauge_covariant_derivative(chart, x_ring, field, A_for_D,
                                             rank=2)
    DF_T = np.einsum("...mabk,...m->...abk", DF, that_ring)
    DF_N = np.einsum("...mabk,...m->...abk", DF, N_ring)
    DF_T_up = np.einsum("...am,...bn,...mnk->...abk",
                        ginv_ring, ginv_ring, DF_T)
    DF_N_up = np.einsum("...am,...bn,...mnk->...abk",
                        ginv_ring, ginv_ring, DF_N)
    trchi_ring = crossing.interpolate(opt["trchi"])
    k_ring = crossing.interpolate(opt["kscreen"])
    ring_coef = 0.5 * phi_ring * trchi_ring + k_ring

    ginv_p = geometry.inverse_metric(chart, bundle.p)
    Fp = field(bundle.p)
    Fp_norm = float(np.sqrt(np.sum(Fp ** 2)))

    def one_seed(seed):
        # a function of its own, so one seed's temporaries are freed before
        # the next seed's are built
        psi = transport_weight(bundle, seed, potential, a_nodes)
        source = 0.0 if box_up is None else -cone_region_integral(
            bundle, pairing(bundle, psi, box_up) * inv_s, crossing)

        # --- angular / connection corrections on the cone --------------
        dpsi = angular_gauge_derivative(bundle, psi, 2, potential, a_nodes)
        lap = screen_laplacian(bundle, psi, 2, potential, a_nodes, df=dpsi)
        # tangential derivative along the screen: subtract the ray
        # component, using D_L psi = -(q/2) psi on the transport solution
        dpsi_screen = dpsi + 0.5 * np.einsum(
            "stpb,stp,stpank->stpbank", opt["cb"], q, psi)
        zeta_term = 2.0 * np.einsum("stpbc,stpb,stpcank->stpank",
                                    opt["minv"], opt["zeta"], dpsi_screen)
        correction = lap + zeta_term + mu_half * psi
        if F_LLbar is not None:
            correction += np.einsum("ijk,stpi,stpabj->stpabk",
                                    basis.c, F_LLbar, psi)
        if K is not None:
            for sl in chunks:
                correction[sl] -= 0.5 * (
                    np.einsum("...ag,...gbk->...abk", K[sl], psi[sl])
                    + np.einsum("...bg,...agk->...abk", K[sl], psi[sl]))
        cone_term = cone_region_integral(
            bundle, pairing(bundle, correction, F_up) * inv_s, crossing)

        # --- initial-data ring terms ------------------------------------
        lam_ring = crossing.interpolate(psi) / s_star[..., None, None, None]
        lamF = np.einsum("...abk,...abk->...", lam_ring, F_ring_up)
        ring_density = (np.einsum("...abk,...abk->...", lam_ring, DF_T_up)
                        + np.einsum("...abk,...abk->...", lam_ring, DF_N_up)
                        + ring_coef * lamF)
        ring_term = crossing.ring_integral(ring_density)

        target = _vertex_pairing(ginv_p, seed, Fp)
        total = source + cone_term + ring_term
        seed_norm = float(np.sqrt(np.sum(seed ** 2)))
        scale = 4.0 * np.pi * seed_norm * Fp_norm + 1e-30
        return {
            "source_term": source,
            "cone_correction_term": cone_term,
            "initial_data_term": ring_term,
            "reconstructed": total,
            "target": target,
            "abs_error": abs(total - target),
            "rel_error": abs(total - target) / scale,
            "crossing_s_mean": float(np.mean(s_star)),
        }

    return [one_seed(seed) for seed in seeds]


def vertex_shell_values(bundle, seed, field, potential=None, n_shells=8):
    """Shell integrals of phi^2 trchi <lambda, F(p)> near the vertex.

    Returns (s values, integrals); the s -> 0 extrapolation of the
    integrals recovers 8 pi <seed, F(p)>.
    """
    psi = transport_weight(bundle, seed, potential)
    g_p = bundle.chart.metric(bundle.p)
    ginv = geometry.inverse_metric(bundle.chart, bundle.p)
    Fp_up = np.einsum("am,bn,mnk->abk", ginv, ginv, field(bundle.p))
    opt = bundle.optical()
    i_first = int(np.searchsorted(bundle.s, bundle.s_min))
    idx = np.unique(np.linspace(i_first + 1, bundle.n_s,
                                n_shells).astype(int))
    vals, ss = [], []
    for i in idx:
        lam = psi[i] / bundle.s[i]
        dens = (bundle.phi[i] ** 2 * opt["trchi"][i]
                * np.einsum("tpabk,abk->tp", lam, Fp_up))
        vals.append(bundle.shell_integral(dens, i))
        ss.append(bundle.s[i])
    return np.array(ss), np.array(vals)


def vertex_limit(bundle, seed, field, potential=None, n_shells=8):
    """Extrapolated s -> 0 value of the vertex shell integral (linear fit)."""
    ss, vals = vertex_shell_values(bundle, seed, field, potential, n_shells)
    coef = np.polyfit(ss, vals, 1)
    return float(np.polyval(coef, 0.0))
