"""Cone-transport weight and pointwise field reconstruction.

The reconstruction identity expresses 4π <seed, F(p)> for an algebra-valued
2-form F as (i) a cone integral of the weight against the wave operator of
F, (ii) a cone integral of angular/connection corrections applied to the
weight, and (iii) a ring integral of initial data on a spacelike slice.  The
weight lambda solves a parallel-transport equation along the cone rays with
a 1/s vertex singularity; everything here works with the regular combination
psi = s * lambda, whose vertex value is the seed itself.

Every cone operator uses one connection, Levi-Civita plus gauge, pulled back
to L and the sphere tangents Y_b: ``connection`` builds its seed-free
coefficients once per call, Gamma by ``Chart.christoffel_along``, and
``liegauge.connect``, the package's one covariant action, applies them.

All per-node arrays follow the bundle layout (n_s + 1, n_theta, n_phi, ...).
The identity is linear in the seed, so a stack of n seeds goes through as one
array: its seed axis sits right after the node axes, psi has shape
(n_s + 1, n_theta, n_phi, n, 4, 4, dim), and the connection's coefficients
broadcast over it.  ``assemble_representation`` builds its seed-free node
terms on, and transports and differentiates, only the slices the identity
reads, 0 .. ``Crossing.stop`` - 1; the stack goes in s-chunks of
``NullConeBundle.chunk // n`` slices, so a chunk of it holds as many values
as one geometry chunk of a single seed.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import geometry, liegauge


def _chunks(n, k):
    for i in range(0, n, k):
        yield slice(i, min(i + k, n))


def sample_field(bundle, field, extra_shape, stop=None):
    """Evaluate an analytic field at the bundle nodes of slices 0 .. stop - 1
    (every slice when ``stop`` is None), chunked over s."""
    x = bundle.x[:stop]
    out = np.empty(x.shape[:3] + extra_shape)
    for sl in _chunks(len(x), bundle.chunk):
        out[sl] = field(x[sl])
    return out


def raise_two_form(chart, x, f):
    """F_{mu nu} -> F^{mu nu} = F_{mu nu} / (g_{mu mu} g_{nu nu}) for a batch
    of points ``x`` (..., 4) and algebra-valued ``f`` (..., 4, 4, dim)."""
    inv = chart.inverse_diagonal(x)
    out = f * inv[..., :, None, None]
    out *= inv[..., None, :, None]
    return out


def pairing(f, f_up):
    """<f_{ab}, g^{ab}> per node for algebra-valued 2-tensors."""
    return np.einsum("...abk,...abk->...", f, f_up)


# ---------------------------------------------------------------------------
# the cone connection and the operators built on it: transport along L,
# D_b and D^b D_b on the spheres
# ---------------------------------------------------------------------------

#: Seed-free coefficients of D_L and D_b = D_{Y_b}; see ``connection``.
Connection = namedtuple("Connection", "gamma_L gamma_Y a_L a_Y basis q")


def connection(bundle, potential=None):
    """The cone connection's coefficients along L and the sphere tangents Y_b.

    ``gamma_L`` (n1, nth, nph, 4[g], 4[a]) = Gamma^g_{m a} L^m, ``gamma_Y``
    (n1, nth, nph, 2[b], 4, 4) the same along Y_b, ``a_L`` (n1, nth, nph,
    dim) = A_m L^m and ``a_Y`` (n1, nth, nph, 2, dim); ``basis`` is the
    algebra whose bracket applies A.  A coefficient is None where its term
    vanishes identically: Gamma on a flat chart, A without a potential, on
    an abelian algebra or where its pullback is zero.  ``q`` is the bundle's
    ``expansion_deficit`` trchi - 2/s.  Nothing is seed-dependent or stored
    on the bundle.
    """
    opt = bundle.optical()
    L = bundle.L[..., None, :]
    V = np.concatenate([L, opt["Ytilde"] + opt["cb"][..., None] * L], axis=-2)

    def split(w):               # (L part, Y_b part), None where it vanishes
        if w is None:
            return None, None
        # data probe: Gamma == 0 on FLRW p = 0 keeps transport's 1e-10 check
        return tuple(part if np.any(part) else None
                     for part in (w[:, :, :, 0], w[:, :, :, 1:]))

    gamma = None
    if not bundle.chart.flat:
        gamma = np.empty(V.shape[:-1] + (4, 4))
        for sl in _chunks(bundle.n_s + 1, bundle.chunk):
            gamma[sl] = bundle.chart.christoffel_along(
                bundle.x[sl][..., None, :], V[sl])
    a = basis = None
    if potential is not None and not potential.basis.abelian:
        basis = potential.basis
        a = np.einsum("...mi,...vm->...vi",
                      sample_field(bundle, potential, (4, basis.dim)), V)
    return Connection(*split(gamma), *split(a), basis,
                      bundle.expansion_deficit)


def transport_weight(bundle, seed, conn, stop=None):
    """Integrate psi = s * lambda along every ray; psi(0) = seed.

    lambda solves D_L lambda + (trchi / 2) lambda = 0 with the cone
    connection ``conn`` (``connection``), so psi obeys
        dpsi/ds = Gamma(L) hits - [A_L, psi] - (q / 2) psi,  q = trchi - 2/s,
    which is regular at the vertex.  RK4 with midpoint coefficients
    averaged from the two bracketing s nodes.  ``seed`` is one seed
    two-form (4, 4, dim) or a stack (n, 4, 4, dim) marched together; psi
    has shape (stop, nth, nph) + seed.shape and covers slices 0 .. stop - 1,
    every slice when ``stop`` is None.
    """
    seed = np.asarray(seed, dtype=float)
    n1 = bundle.n_s + 1 if stop is None else stop
    psi = np.empty((n1,) + bundle.x.shape[1:3] + seed.shape)
    psi[0] = seed
    q_axes = (1,) * seed.ndim

    def rhs(p, i, j):           # coefficients averaged over slices i, j
        q, gamma, a = (v if v is None else 0.5 * (v[i] + v[j])
                       for v in (conn.q, conn.gamma_L, conn.a_L))
        return -0.5 * q.reshape(q.shape + q_axes) * p \
            - liegauge.connect(p, gamma, a, conn.basis)

    h = bundle.ds
    for i in range(n1 - 1):
        p = psi[i]
        k1 = rhs(p, i, i)
        k2 = rhs(p + 0.5 * h * k1, i, i + 1)
        k3 = rhs(p + 0.5 * h * k2, i, i + 1)
        k4 = rhs(p + h * k3, i + 1, i + 1)
        psi[i + 1] = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return psi


def _on_slices(sl, *coefs):
    """Each per-node coefficient on the slices ``sl``; None stays None."""
    return tuple(v if v is None else v[sl] for v in coefs)


def angular_gauge_derivative(bundle, f, conn, sl=slice(None)):
    """D_b f along the two sphere tangents for an algebra-valued scalar
    (n1, nth, nph, dim) or two-tensor (n1, nth, nph, 4, 4, dim), with any
    seed axes after the node axes.  ``f`` holds the bundle's slices ``sl``
    (all of them by default).  Returns (n1, nth, nph, 2, <tensor>, dim): the
    spectral angular derivative plus the cone connection ``conn``
    (``connection``) along Y_b.
    """
    f = np.asarray(f)
    df = np.moveaxis(bundle.grid.gradient(f), -1, 3)  # (..., 2, <tensor>, dim)
    df += liegauge.connect(f[:, :, :, None], *_on_slices(
        sl, conn.gamma_Y, conn.a_Y), conn.basis)
    return df


def screen_laplacian(bundle, df, conn, sl=slice(None)):
    """Gauge-covariant Laplace-Beltrami operator D^b D_b f of the fixed-s
    spheres, from ``df`` = ``angular_gauge_derivative(bundle, f, conn, sl)``.

    Divergence form with the induced metric: the sphere-index part is exact
    by construction, the spacetime/algebra indices get the cone connection
    in the outer derivative.  The vertex slice s = 0, where the screen
    degenerates, is returned as 0.
    """
    opt = bundle.optical()
    tail = df.shape[4:]
    minv = opt["minv"][sl]
    mi = minv.reshape(minv.shape[:3] + (1,) * len(tail) + (2, 2))
    # V^b = minv^{bc} D_c f, with the sphere index b on axis 1
    d0, d1 = df[:, :, :, 0], df[:, :, :, 1]
    Vm = np.stack([mi[..., 0, 0] * d0 + mi[..., 0, 1] * d1,
                   mi[..., 1, 0] * d0 + mi[..., 1, 1] * d1], axis=1)
    sqm = opt["J"][sl] * bundle.grid.sin_theta[None, :, None]
    sqm = sqm.reshape(sqm.shape + (1,) * len(tail))
    # d_b W^b as one GEMM with the grid's node matrix ``div``
    div = bundle.grid.on_nodes(bundle.grid.div, Vm * sqm[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        out = div.reshape(df.shape[:3] + tail) / sqm
    if not sl.start:                             # the vertex slice
        out[0] = 0.0
    outer = liegauge.connect(np.moveaxis(Vm, 1, 3), *_on_slices(
        sl, conn.gamma_Y, conn.a_Y), conn.basis)
    if np.ndim(outer):
        out += outer.sum(axis=3)                 # sum over the sphere index
    return out


# ---------------------------------------------------------------------------
# reconstruction assembly
# ---------------------------------------------------------------------------

def representation_target(chart, basis, p, seed, field):
    """4 pi <seed_{ab}, F^{ab}(p)>, the quantity the assembly reconstructs."""
    up = raise_two_form(chart, p, np.asarray(seed, float))
    return 4.0 * np.pi * float(np.einsum("mnk,mnk->", up, field(p)))


def assemble_representation(bundle, seeds, field, potential=None,
                            t_slice=None):
    """Evaluate every term of the reconstruction identity on one bundle.

    ``seeds`` is a stack of seed two-forms, shape (n, 4, 4, dim), n >= 1.
    Returns one dict per seed, in seed order, with the individual terms,
    their sum, the vertex target and the relative error.  The identity is
    linear in the seed, so every term that does not involve the transported
    weight (the field and its wave operator at the nodes, the curvature
    coupling, the mass aspect, the ring data) is computed once for all
    seeds, and the weight of the whole stack in one pass: one transport
    march with the seed axis after the node axes, psi (stop, nth, nph, n, 4,
    4, dim), then the sphere operators on s-chunks of ``bundle.chunk // n``
    slices, each reduced at once to per-node, per-seed pairings.  The pass
    and the seed-free node terms cover slices 0 .. stop - 1, ``stop`` =
    ``Crossing.stop``: the cone weights vanish past the ring and the ring
    interpolation reads up to slice i0 + 2.  The field is assumed to solve
    the Yang-Mills system, for which its wave operator reduces to curvature
    couplings and self-interaction (zero on a flat abelian background).
    """
    chart, basis = bundle.chart, field.basis
    seeds = np.asarray(seeds, dtype=float)
    if seeds.ndim != 4 or seeds.shape[1:] != (4, 4, basis.dim) \
            or not len(seeds):
        raise ValueError(f"seeds must have shape (n, 4, 4, {basis.dim}) "
                         f"with n >= 1, got {seeds.shape}")
    if t_slice is None:
        t_slice = bundle.p[0] - 1.0
    crossing = bundle.crossing(t_slice)
    stop = crossing.stop
    opt = bundle.optical()
    # the mass aspect's own curvature pass runs before this call's arrays
    # are allocated, which keeps it off the peak memory
    mu = bundle.mass_aspect()

    conn = connection(bundle, potential)
    # the seed-free node terms cover only the slices the identity reads
    x_read = bundle.x[:stop]
    F_nodes = sample_field(bundle, field, (4, 4, basis.dim), stop)
    F_up = raise_two_form(chart, x_read, F_nodes)

    # --- curvature terms, one Riemann evaluation per chunk ----------------
    # the field's wave operator (None: zero on a flat abelian chart) and
    # K[g, a] = g^{gg} R_{a g L Lbar} / 2 (None: zero on a flat chart)
    box_nodes = None if chart.flat and basis.abelian \
        else np.empty_like(F_nodes)
    K = None if chart.flat else np.empty(x_read.shape[:3] + (4, 4))
    for sl in _chunks(stop, bundle.chunk):
        x = x_read[sl]
        curv = None if chart.flat else geometry.riemann(chart, x)
        if box_nodes is not None:
            box_nodes[sl] = liegauge.wave_source(chart, x, F_nodes[sl],
                                                 basis, curv)
        if K is not None:
            K[sl] = 0.5 * np.einsum("...g,...agnm,...m,...n->...ga",
                                    chart.inverse_diagonal(x),
                                    curv.riemann, bundle.L[sl],
                                    bundle.Lbar[sl])
    box_up = None if box_nodes is None \
        else raise_two_form(chart, x_read, box_nodes)
    del box_nodes

    # --- seed-free factors of the cone corrections ------------------------
    F_LLbar = None
    if not basis.abelian:
        F_LLbar = np.einsum("stpabk,stpa,stpb->stpk",
                            F_nodes, bundle.L[:stop], bundle.Lbar[:stop])
    del F_nodes                 # the seed pass needs only F_up and F_LLbar

    # --- initial-data ring: D_T F + D_N F = D_{2 that + phi L} F with
    # N = that + phi L, plus (phi trchi / 2 + k) F, as one seed-free field
    x_ring = crossing.interpolate(bundle.x)
    s_star = crossing.s_star
    that_ring = geometry.unit_time(chart, x_ring)
    phi_ring = crossing.interpolate(bundle.phi)
    L_ring = crossing.interpolate(bundle.L)
    DF = liegauge.gauge_covariant_derivative(chart, x_ring, field, potential)
    ring_coef = 0.5 * phi_ring * crossing.interpolate(opt["trchi"]) \
        + crossing.interpolate(opt["kscreen"])
    ring_up = raise_two_form(chart, x_ring, np.einsum(
        "...mabk,...m->...abk", DF,
        2.0 * that_ring + phi_ring[..., None] * L_ring)
        + ring_coef[..., None, None, None] * field(x_ring))

    # --- the seed stack, on the slices the identity reads -----------------
    psi = transport_weight(bundle, seeds, conn, stop)
    # per-node factors get a size-1 seed axis, as in psi's layout
    inv_s = np.zeros((stop, 1, 1, 1))
    inv_s[1:, 0, 0, 0] = 1.0 / bundle.s[1:stop]
    mu_half = 0.5 * mu[..., None, None, None, None]
    cone_vals = np.empty(psi.shape[:4])
    source_vals = None if box_up is None else np.empty(psi.shape[:4])
    for sl in _chunks(stop, max(1, bundle.chunk // len(seeds))):
        p = psi[sl]
        if source_vals is not None:
            source_vals[sl] = pairing(p, box_up[sl, :, :, None]) \
                * inv_s[sl]

        # --- angular / connection corrections on the cone --------------
        dpsi = angular_gauge_derivative(bundle, p, conn, sl)
        correction = screen_laplacian(bundle, dpsi, conn, sl)
        # tangential derivative along the screen: subtract the ray
        # component, using D_L psi = -(q/2) psi on the transport solution
        dpsi += 0.5 * np.einsum("stpb,stp,stpjank->stpbjank",
                                opt["cb"][sl], conn.q[sl], p)
        correction += 2.0 * np.einsum("stpbc,stpb,stpcjank->stpjank",
                                      opt["minv"][sl], opt["zeta"][sl], dpsi)
        del dpsi
        correction += mu_half[sl] * p
        # R(L, Lbar) and F(L, Lbar) act on psi as connection coefficients
        correction += liegauge.connect(p, *_on_slices(sl, K, F_LLbar), basis)
        cone_vals[sl] = pairing(correction, F_up[sl, :, :, None]) \
            * inv_s[sl]

    # --- initial-data ring terms, all seeds in one contraction ------------
    lam_ring = crossing.interpolate(psi) \
        / s_star[..., None, None, None, None]
    ring_vals = np.einsum("...jabk,...abk->...j", lam_ring, ring_up)

    Fp = field(bundle.p)
    Fp_norm = float(np.sqrt(np.sum(Fp ** 2)))
    reps = []
    for j, seed in enumerate(seeds):
        source = 0.0 if source_vals is None else -bundle.cone_integral(
            source_vals[..., j], crossing)
        cone_term = bundle.cone_integral(cone_vals[..., j], crossing)
        ring_term = crossing.ring_integral(ring_vals[..., j])
        target = representation_target(chart, basis, bundle.p, seed, field)
        total = source + cone_term + ring_term
        seed_norm = float(np.sqrt(np.sum(seed ** 2)))
        scale = 4.0 * np.pi * seed_norm * Fp_norm + 1e-30
        reps.append({
            "source_term": source,
            "cone_correction_term": cone_term,
            "initial_data_term": ring_term,
            "reconstructed": total,
            "target": target,
            "abs_error": abs(total - target),
            "rel_error": abs(total - target) / scale,
            "crossing_s_mean": float(np.mean(s_star)),
        })
    return reps
