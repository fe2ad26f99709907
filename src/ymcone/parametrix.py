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
broadcast over it.  On flat abelian cones psi_j = w seed_j, so psi is one
scalar weight w (n_s + 1, n_theta, n_phi) instead.
``assemble_representation`` transports and differentiates either only on the
slices the identity reads, 0 .. ``Crossing.stop`` - 1, in one loop over
s-chunks that hold one geometry chunk of F per seed: ``bundle.chunk`` slices
of w, ``bundle.chunk // n`` slices of the stack.  Each chunk forms its own
seed-free node terms from one F and one curvature evaluation.  The terms of the
cone identity live in two functions, which any weight rank shares:
``cone_correction`` applies the cone's operators to psi and ``ring_frame``
gives the initial-data ring's seed-free data.
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
    gauge = potential is not None and not potential.basis.abelian
    if bundle.chart.flat and not gauge:         # only q acts: no V needed
        return Connection(None, None, None, None, None,
                          bundle.expansion_deficit)
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
    if gauge:
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
    two-form (4, 4, dim), a stack (n, 4, 4, dim) marched together or, if
    only q acts, a 0-d weight; psi has shape (stop, nth, nph) + seed.shape
    and covers slices 0 .. stop - 1, every slice when ``stop`` is None.
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
    (n1, nth, nph, dim) or two-form (n1, nth, nph, 4, 4, dim), with any
    seed axes after the node axes, or for a bare weight (n1, nth, nph) if
    only q acts.  ``f`` holds the bundle's slices ``sl`` (all by default).
    Returns (n1, nth, nph, 2, <tensor>, dim): the spectral angular
    derivative plus the cone connection ``conn`` (``connection``) along Y_b.
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

def cone_correction(bundle, psi, sl, conn, K, F_LLbar, basis):
    """The cone identity's corrections to ``psi`` on the slices ``sl``, at
    psi's rank: D^b D_b psi + zeta^c D_c psi + coef0 psi + ``connect(psi, K,
    F_LLbar, basis)`` with K = R(L, Lbar) and F(L, Lbar), None where zero."""
    opt = bundle.optical()
    # with D_L psi = -(q/2) psi, the zeta term 2 m^{bc} zeta_b (D_c psi
    # + cb_c q psi / 2) is zeta^c D_c psi, zeta^c = 2 m^{bc} zeta_b,
    # plus a ray part q zeta^c cb_c psi / 2 that joins mu psi / 2 in coef0
    zeta_up = 2.0 * np.einsum("stpbc,stpb->stpc", opt["minv"][sl],
                              opt["zeta"][sl])
    coef0 = 0.5 * (bundle.mass_aspect()[sl] + conn.q[sl] * np.einsum(
        "stpc,stpc->stp", zeta_up, opt["cb"][sl]))
    dpsi = angular_gauge_derivative(bundle, psi, conn, sl)
    correction = screen_laplacian(bundle, dpsi, conn, sl)
    correction += np.einsum("stpc,stpc...->stp...", zeta_up, dpsi)
    del dpsi
    correction += coef0.reshape(coef0.shape + (1,) * (psi.ndim - 3)) * psi
    correction += liegauge.connect(psi, K, F_LLbar, basis)
    return correction


def ring_frame(bundle, crossing):
    """The ring's points, N = 2 that + phi L (D_T + D_N with N = that + phi
    L) and the coefficient phi trchi / 2 + k: its seed-free data."""
    opt = bundle.optical()
    x_ring = crossing.interpolate(bundle.x)
    phi_ring = crossing.interpolate(bundle.phi)
    N = 2.0 * geometry.unit_time(bundle.chart, x_ring) \
        + phi_ring[..., None] * crossing.interpolate(bundle.L)
    return x_ring, N, 0.5 * phi_ring * crossing.interpolate(opt["trchi"]) \
        + crossing.interpolate(opt["kscreen"])


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
    weight is computed once for all seeds.  The weight psi, the seed stack
    (stop, nth, nph, n, 4, 4, dim) or on a flat abelian cone one scalar w
    with psi_j = w seed_j, goes in one transport march and one loop over
    s-chunks, ``bundle.chunk`` slices of w or ``bundle.chunk // n`` slices of
    the stack.  Each chunk evaluates F and the curvature once, forms the
    seed-free node terms from them (F^{ab}, the raised wave source, K and
    F(L, Lbar)), runs ``cone_correction`` at psi's rank and reduces it to
    per-node, per-seed pairings; ``ring_frame`` gives the seed-free ring
    data.  The loop covers slices 0 .. stop - 1, ``stop`` =
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
    # the mass aspect's own curvature pass runs before this call's arrays
    # are allocated, which keeps it off the peak memory
    bundle.mass_aspect()

    conn = connection(bundle, potential)
    # --- initial-data ring: D_N F + (phi trchi / 2 + k) F, one seed-free field
    x_ring, N, ring_coef = ring_frame(bundle, crossing)
    s_star = crossing.s_star
    DF = liegauge.gauge_covariant_derivative(chart, x_ring, field, potential)
    ring_up = raise_two_form(chart, x_ring, np.einsum(
        "...mabk,...m->...abk", DF, N)
        + ring_coef[..., None, None, None] * field(x_ring))

    # --- the weight, on the slices the identity reads ---------------------
    inv_s = np.zeros((stop, 1, 1))
    inv_s[1:, 0, 0] = 1.0 / bundle.s[1:stop]
    # only q acts on a flat abelian cone, so psi_j = w seed_j there and one
    # scalar w per node stands for the stack psi (..., n, 4, 4, dim)
    scalar = chart.flat and basis.abelian
    psi = transport_weight(bundle, np.ones(()) if scalar else seeds, conn,
                           stop)
    rank = (1,) * (psi.ndim - 3)        # psi's axes past the node axes

    def paired(v, up, inv=None):
        """<v_j, up> per node and seed, times ``inv``: the scalar weight
        is scaled first and meets <seed_j, up>, the stack after (the
        rounding order each keeps)."""
        if scalar:
            return (v if inv is None else v * inv)[..., None] \
                * np.einsum("jabk,...abk->...j", seeds, up)
        out = np.einsum("...jabk,...abk->...j", v, up)
        return out if inv is None else out * inv[..., None]

    cone_vals = np.empty((stop,) + bundle.x.shape[1:3] + seeds.shape[:1])
    source_vals = None if scalar else np.empty_like(cone_vals)
    # a chunk of psi holds as many values as one seed's weight (psi_j or w)
    # holds on a geometry chunk
    width = bundle.chunk if scalar else max(1, bundle.chunk // len(seeds))
    for sl in _chunks(stop, width):
        x, p, L, Lbar = bundle.x[sl], psi[sl], bundle.L[sl], bundle.Lbar[sl]
        # --- seed-free node terms, from one field and curvature evaluation
        f = field(x)
        F_up = raise_two_form(chart, x, f)
        curv = None if chart.flat else geometry.riemann(chart, x)
        if source_vals is not None:     # zero on a flat abelian chart
            source_vals[sl] = paired(p, raise_two_form(
                chart, x, liegauge.wave_source(chart, x, f, basis, curv)),
                inv_s[sl])
        # R(L, Lbar) and F(L, Lbar) act on psi as connection coefficients:
        # K[g, a] = g^{gg} R_{g a L Lbar} / 2, the bivector operator on
        # L ^ Lbar (None: zero on a flat chart), and F(L, Lbar) (None:
        # abelian)
        K = None if curv is None else 0.5 \
            * chart.inverse_diagonal(x)[..., :, None] * geometry.two_form(
                curv.bivector @ geometry.wedge(L, Lbar)[..., None])[..., 0]
        F_LLbar = None if basis.abelian else np.einsum(
            "stpabk,stpa,stpb->stpk", f, L, Lbar)
        cone_vals[sl] = paired(cone_correction(bundle, p, sl, conn, K,
                                               F_LLbar, basis),
                               F_up, inv_s[sl])

    # --- initial-data ring terms, all seeds in one contraction ------------
    ring_vals = paired(crossing.interpolate(psi)
                       / s_star.reshape(s_star.shape + rank), ring_up)

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
