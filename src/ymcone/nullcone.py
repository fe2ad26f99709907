"""Past null cone bundles.

A bundle is a fan of past-directed null geodesics from a vertex p, one per
node of a direction sphere grid, integrated at fixed affine step with RK4.
The affine parameter s is normalized by g(L, T_p) = 1 at the vertex.  All
transverse (angular) derivatives are spectral on the fixed-s spheres, one
GEMM of the grid's node matrix ``grad`` over every slice at once; the
optical scalars, null frames, area density and cone quadrature are derived
from them.  Only x and L are differentiated, by three identities exact in the
continuum: nabla_L L = 0 on the rays; the unit normal that = (-g_tt)^(-1/2)
d_t of the t-slices is orthogonal to the screen, so the screen part of their
extrinsic curvature is k_bc = g(Gamma(Ytilde_b, that), Ytilde_c); and
Lbar = -phi (2 that + phi L) gives tr chibar = -phi (2 tr k + phi trchi).
Derivatives transverse to the cone itself (mass aspect, frame shift)
come from one twin cone by complex-step differentiation.  Let f(d, s)
be a per-node field on the cone from the vertex p + d T_p, with that vertex
moved along the timelike geodesic through p.  The point q(s) + h Lbar is taken
to lie on the cone from p - 2h T_p at affine parameter s - h, exactly so in
flat space; then d_Lbar f = -2 d_d f - d_s f.  The twin cone from the complex
vertex p + i eps T_p gives d_d f = Im f(i eps, s) / eps with no step size and
no subtractive cancellation (Squire & Trapp, SIAM Rev. 40, 1998).  On curved
charts the twin relation is only approximate; see ``lbar_derivative``.

Array layout: per-node fields have shape (n_s + 1, n_theta, n_phi, ...) with
slice index 0 at the vertex.
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .sphere import SphereGrid


class ConeError(RuntimeError):
    pass


class CausticError(ConeError):
    """The s-sphere area density degenerated along some ray."""


class ChartDomainError(ConeError):
    """A ray left the chart: the metric diagonal at one of its nodes is not
    finite with signature (-,+,+,+)."""


def _dot(d, u, v):
    """g(u, v) = sum_a g_aa u^a v^a from the metric diagonal ``d``."""
    return np.einsum("...m,...m,...m->...", d, u, v)


def _hook(gamma, v):
    """Gamma^m_ab v^b, shape (..., 4[m], 4[a])."""
    return np.einsum("...mab,...b->...ma", gamma, v)


def _trace2(a, b):
    """sum_bc a_bc b_bc over the trailing 2x2 screen axes."""
    return (a * b).sum(axis=(-2, -1))


class NullConeBundle:
    """Fan of past null geodesics from ``vertex`` with frames and scalars.

    A complex ``vertex`` and ``T_p`` give the complex-step twin of
    ``lbar_derivative``; every array of such a bundle is complex.
    """

    #: RK4 steps between projections of L back onto the null cone
    renorm_every = 100
    #: slices s < vertex_factor * ds carry the flat-cone vertex closure
    vertex_factor = 10.0
    #: s slices per batch of the pointwise geometry
    chunk = 64
    #: imaginary vertex offset of the complex-step twin cone
    twin_eps = 1e-20

    def __init__(self, chart, vertex, grid: SphereGrid, s_max, ds,
                 T_p=None):
        self.chart = chart
        self.grid = grid
        self.p = geometry.as_points(vertex)
        self.ds = float(ds)
        self.n_s = int(round(s_max / ds))
        self.s = self.ds * np.arange(self.n_s + 1)
        self.s_min = self.vertex_factor * self.ds
        self.renorm_max = 0.0

        if T_p is None:
            T_p = geometry.unit_time_field(chart)(self.p)
        self.T_p = geometry.as_points(T_p)
        if abs(_dot(chart.diagonal(self.p), self.T_p, self.T_p) + 1.0) > 1e-10:
            raise ConeError("vertex time axis must be unit timelike")

        self._cache = {}
        self._integrate()

    # ------------------------------------------------------------------
    # geodesic fan
    # ------------------------------------------------------------------

    def _initial_null_vectors(self):
        """l_omega = -T_p + omega^i E_i: past-directed, g(l, T_p) = 1."""
        frame = geometry.orthonormal_frame(self.chart, self.p,
                                           time_axis_hint=self.T_p)
        triad = frame.spatial                     # (3, 4)
        omega = self.grid.directions()            # (nth, nph, 3)
        return -self.T_p + np.einsum("tpi,im->tpm", omega, triad)

    def _geodesic_rhs(self, x, L):
        if self.chart.flat:                       # straight rays
            return L, np.zeros_like(L)
        gamma = geometry.christoffel(self.chart, x)
        return L, -np.einsum("...mab,...a,...b->...m", gamma, L, L)

    def _renormalize(self, x, L):
        """Project L back onto the null cone of g along the local that axis."""
        d = self.chart.diagonal(x)
        that = geometry.unit_time_field(self.chart)(x)
        b = _dot(d, L, that)
        c = _dot(d, L, L)
        eps = b - np.sqrt(b * b + c)
        self.renorm_max = max(self.renorm_max, float(np.max(np.abs(eps))))
        return L + eps[..., None] * that

    def _integrate(self):
        nth, nph = self.grid.n_theta, self.grid.n_phi
        L0 = self._initial_null_vectors()
        x = np.empty((self.n_s + 1, nth, nph, 4), dtype=L0.dtype)
        L = np.empty_like(x)
        x[0] = np.broadcast_to(self.p, (nth, nph, 4))
        L[0] = L0
        h = self.ds
        xc, Lc = x[0].copy(), L[0].copy()
        for i in range(1, self.n_s + 1):
            k1x, k1L = self._geodesic_rhs(xc, Lc)
            k2x, k2L = self._geodesic_rhs(xc + 0.5 * h * k1x, Lc + 0.5 * h * k1L)
            k3x, k3L = self._geodesic_rhs(xc + 0.5 * h * k2x, Lc + 0.5 * h * k2L)
            k4x, k4L = self._geodesic_rhs(xc + h * k3x, Lc + h * k3L)
            xc = xc + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
            Lc = Lc + (h / 6.0) * (k1L + 2 * k2L + 2 * k3L + k4L)
            inside = self.chart.contains(xc)
            if not inside.all():
                th, ph = np.argwhere(~inside)[0]
                raise ChartDomainError(
                    f"ray (theta, phi) = ({th}, {ph}) leaves chart "
                    f"'{self.chart.name}' at s = {self.s[i]:.6g}")
            if i % self.renorm_every == 0:
                Lc = self._renormalize(xc, Lc)
            x[i], L[i] = xc, Lc
        self.x, self.L = x, L

    # ------------------------------------------------------------------
    # pointwise frame fields
    # ------------------------------------------------------------------

    def _field(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def diagonal_nodes(self):
        """The metric diagonal g_aa at every node, shape (..., 4)."""
        return self._field("g", lambda: self.chart.diagonal(self.x))

    def dot(self, u, v):
        """g(u, v) at every node for per-node vectors u, v."""
        return _dot(self.diagonal_nodes, u, v)

    @property
    def that(self):
        return self._field(
            "that", lambda: geometry.unit_time_field(self.chart)(self.x))

    @property
    def gLt(self):
        """g(L, that) > 0; equals 1/phi (inverse null lapse)."""
        return self._field("gLt", lambda: self.dot(self.L, self.that))

    @property
    def phi(self):
        """Null lapse, 1 at the vertex."""
        return self._field("phi", lambda: 1.0 / self.gLt)

    @property
    def Lbar(self):
        def build():
            gLt = self.gLt[..., None]
            return -(2.0 * self.that + self.L / gLt) / gLt
        return self._field("Lbar", build)

    def _s_derivative(self, f):
        """Second-order finite difference along the ray parameter (axis 0)."""
        out = np.empty_like(f)
        out[1:-1] = f[2:] - f[:-2]
        out[0] = -3.0 * f[0] + 4.0 * f[1] - f[2]
        out[-1] = 3.0 * f[-1] - 4.0 * f[-2] + f[-3]
        return np.divide(out, 2.0 * self.ds, out=out)

    def _angular(self, f):
        """Spectral (d_theta, d_phi) of per-node data, new axis at the end.

        ``f`` has shape (n_s+1, nth, nph, ...); the sphere axes must be 1, 2.
        """
        grad = self.grid.on_nodes(self.grid.grad, f)
        return np.moveaxis(grad.reshape(f.shape[:1] + (2,) + f.shape[1:]),
                           1, -1)

    # ------------------------------------------------------------------
    # optical scalars
    # ------------------------------------------------------------------

    def optical(self):
        """Compute (and cache) optical scalars at every node.

        Returns a dict with keys: trchi, chihat2, zeta, J, kscreen, minv, cb,
        Ytilde and chi_asym (the largest antisymmetric part of chi past the
        vertex closure, a scalar).  Only x and L are differentiated; the
        geodesic equation and the closed form of that give the rest.
        Slices with s < s_min carry the flat-cone closure (trchi = 2/s,
        chihat = zeta = 0, J continued as s^2 times the limit shape).
        """
        if "optical" in self._cache:
            return self._cache["optical"]

        nth, nph = self.grid.n_theta, self.grid.n_phi
        n1 = self.n_s + 1
        shape = (n1, nth, nph)

        def empty(*tail):
            return np.empty(shape + tail, dtype=self.x.dtype)

        out = {
            "trchi": empty(), "chihat2": empty(), "J": empty(),
            "kscreen": empty(), "zeta": empty(2), "cb": empty(2),
            "minv": empty(2, 2), "Ytilde": empty(2, 4), "chi_asym": 0.0,
        }
        # d_b of the positions (d_b x^mu = Y) and of L in one GEMM, each
        # (n1, nth, nph, 4, 2)
        dY, dL = np.moveaxis(
            self._angular(np.stack([self.x, self.L], axis=3)), 3, 0)
        d = self.diagonal_nodes
        Lbar, L, that = self.Lbar, self.L, self.that
        sin_th = self.grid.sin_theta[None, :, None]

        for i0 in range(0, n1, self.chunk):
            i1 = min(i0 + self.chunk, n1)
            sl = slice(i0, i1)
            gamma = geometry.christoffel(self.chart, self.x[sl])
            Y = dY[sl]                                    # (..., mu, b)
            gLbar = d[sl] * Lbar[sl]                      # g_mn Lbar^n
            cb = -0.5 * (gLbar[..., None, :] @ Y)[..., 0, :]
            Yt = Y - cb[..., None, :] * L[sl][..., :, None]   # (..., mu, b)
            gYt = d[sl][..., :, None] * Yt                # g_mn Ytilde^n_c
            mt = np.swapaxes(Yt, -1, -2) @ gYt
            det = mt[..., 0, 0] * mt[..., 1, 1] - mt[..., 0, 1] * mt[..., 1, 0]
            # nabla_L L = 0 on the rays, so nabla along Ytilde_b = Y_b - cb L
            # is nabla along Y_b
            nabL = dL[sl] + _hook(gamma, L[sl]) @ Y
            chi = np.swapaxes(nabL, -1, -2) @ gYt
            asym = np.abs(chi - np.swapaxes(chi, -1, -2))
            live_chunk = self.s[sl] >= self.s_min
            if np.any(live_chunk):
                out["chi_asym"] = max(out["chi_asym"],
                                      float(np.max(asym[live_chunk])))
            chi = 0.5 * (chi + np.swapaxes(chi, -1, -2))
            # that = (-g_tt)^(-1/2) d_t is orthogonal to the screen, so the
            # derivative of its normalisation drops out of the t-slice
            # extrinsic curvature k_bc = g(Gamma(Ytilde_b, that), Ytilde_c)
            kt = np.swapaxes(_hook(gamma, that[sl]) @ Yt, -1, -2) @ gYt
            minv = np.empty_like(mt)
            minv[..., 0, 0] = mt[..., 1, 1]
            minv[..., 1, 1] = mt[..., 0, 0]
            minv[..., 0, 1] = -mt[..., 0, 1]
            minv[..., 1, 0] = -mt[..., 1, 0]
            with np.errstate(divide="ignore", invalid="ignore"):
                minv = minv / det[..., None, None]
                trchi = _trace2(minv, chi)
                chi2 = _trace2(chi, minv @ chi @ np.swapaxes(minv, -1, -2))
                zeta = 0.5 * (gLbar[..., None, :] @ nabL)[..., 0, :]
                out["kscreen"][sl] = _trace2(minv, kt)
            out["trchi"][sl] = trchi
            out["chihat2"][sl] = chi2 - 0.5 * trchi ** 2
            out["zeta"][sl] = zeta
            out["J"][sl] = np.sqrt(np.where(det.real < 0.0, 0.0, det)) / sin_th
            out["minv"][sl] = minv
            out["cb"][sl] = cb
            out["Ytilde"][sl] = np.swapaxes(Yt, -1, -2)     # (..., b, mu)

        # vertex closure for s < s_min
        near = self.s < self.s_min
        with np.errstate(divide="ignore"):
            flat = 2.0 / self.s
        out["trchi"][near] = flat[near, None, None]
        out["chihat2"][near] = 0.0
        out["zeta"][near] = 0.0
        # J ~ s^2 continuation using the shape at the first live slice
        ilive = int(np.searchsorted(self.s, self.s_min))
        ilive = min(ilive, self.n_s)
        Jshape = out["J"][ilive] / self.s[ilive] ** 2
        out["J"][near] = self.s[near, None, None] ** 2 * Jshape[None]
        out["minv"][0] = 0.0
        out["kscreen"][0] = out["kscreen"][1]
        live = ~near
        if np.any(out["J"][live].real <= 0.0):
            bad = np.argwhere(out["J"].real <= 0.0)
            bad = bad[bad[:, 0] >= ilive]
            if bad.size:
                i, t, p_ = bad[0]
                raise CausticError(
                    f"area density vanished at s={self.s[i]:.4g}, "
                    f"node ({t},{p_})")
        self._cache["optical"] = out
        return out

    # ------------------------------------------------------------------
    # null frames on the screen
    # ------------------------------------------------------------------

    def null_frames(self):
        """Screen-orthonormal pair e_1, e_2 per node, shape (..., 2, 4).

        Built from the sphere-tangent vectors, projected exactly off L and
        Lbar, then Gram-Schmidt with g.  Cached.
        """
        def build():
            opt = self.optical()
            L, Lbar = self.L, self.Lbar
            e = np.moveaxis(opt["Ytilde"].copy(), -2, 0)    # (2, ..., mu)
            out = []
            for a in range(2):
                v = e[a]
                v = v + 0.5 * self.dot(v, Lbar)[..., None] * L \
                      + 0.5 * self.dot(v, L)[..., None] * Lbar
                for w in out:
                    v = v - self.dot(v, w)[..., None] * w
                n2 = self.dot(v, v)
                with np.errstate(divide="ignore", invalid="ignore"):
                    v = v / np.sqrt(n2)[..., None]
                v[0] = 0.0          # the screen degenerates at the vertex
                out.append(v)
            return np.stack(out, axis=-2)
        return self._field("frames", build)

    def frame_pairing_residuals(self):
        """Max deviation of every null-frame inner product from its target.

        Checks g(L,L) = 0, g(Lbar,Lbar) = 0, g(L,Lbar) = -2, g(L,e_a) = 0,
        g(Lbar,e_a) = 0 and g(e_a,e_b) = delta_ab at every node past the
        vertex slice.  Returns a dict of per-pairing maxima.
        """
        dot = self.dot
        L, Lbar = self.L, self.Lbar
        e = self.null_frames()
        sl = slice(1, None)                     # the screen is 0 at the vertex
        out = {
            "LL": np.max(np.abs(dot(L, L))),
            "LbarLbar": np.max(np.abs(dot(Lbar, Lbar)[sl])),
            "LLbar": np.max(np.abs(dot(L, Lbar)[sl] + 2.0)),
        }
        for a in range(2):
            ea = e[..., a, :]
            out[f"Le{a + 1}"] = np.max(np.abs(dot(L, ea)[sl]))
            out[f"Lbare{a + 1}"] = np.max(np.abs(dot(Lbar, ea)[sl]))
            for b in range(a, 2):
                eb = e[..., b, :]
                target = 1.0 if a == b else 0.0
                out[f"e{a + 1}e{b + 1}"] = np.max(
                    np.abs(dot(ea, eb)[sl] - target))
        return {k: float(v) for k, v in out.items()}

    # ------------------------------------------------------------------
    # quadrature
    # ------------------------------------------------------------------

    def area(self):
        """Sphere areas |S_s| for every s node."""
        J = self.optical()["J"]
        return np.einsum("stp,tp->s", J, self.grid.weights)

    def shell_integral(self, f, i):
        """Integral of f over the s-sphere with index i (induced measure)."""
        J = self.optical()["J"]
        return np.einsum("tp,tp->", np.asarray(f) * J[i], self.grid.weights)

    def cone_integral(self, f, far, near=None):
        """ds x dA integral of per-node scalar data ``f`` between two crossings.

        Along every ray the region runs from the ``near`` crossing (the vertex
        when None) to the ``far`` one.  Each whole s cell [i, i+1] in between
        gives ds/2 to both of its end nodes, and each crossing adds its
        fractional end cell up to the interpolated ring; a ray whose two
        crossings fall in one cell gets the single trapezoid between the rings.
        The directions use the grid's product quadrature.  A NaN in ``f``
        raises ``ConeError`` naming the node, and so does a ``near`` ring that
        lies past the ``far`` one, naming the first such ray.
        """
        f = np.asarray(f, dtype=float)
        if np.any(np.isnan(f)):
            idx = np.argwhere(np.isnan(f))[0]
            raise ConeError(f"NaN integrand at node (s_index, theta, phi) = "
                            f"{tuple(int(v) for v in idx)}")
        if near is not None and np.any(near.s_star > far.s_star):
            idx = np.argwhere(near.s_star > far.s_star)[0]
            raise ConeError(f"near crossing lies past the far one on ray "
                            f"(theta, phi) = {tuple(int(v) for v in idx)}")
        fJ = f * self.optical()["J"]
        ds = self.ds
        first = 0 if near is None else near.i0 + 1    # first node past near
        idx = np.arange(self.n_s + 1)[:, None, None]
        starts = (idx >= first) & (idx < far.i0)      # left ends of the cells
        ends = (idx > first) & (idx <= far.i0)        # right ends
        W = 0.5 * ds * (starts.astype(float) + ends)
        inner = np.einsum("stp,stp->tp", W, fJ)

        def at(i):
            return np.take_along_axis(fJ, i[None], axis=0)[0]

        fJ_far = far.interpolate(fJ)
        far_cell = 0.5 * far.frac * ds * (at(far.i0) + fJ_far)
        if near is None:
            total = inner + far_cell
        else:
            fJ_near = near.interpolate(fJ)
            near_cell = 0.5 * (1.0 - near.frac) * ds * (at(first) + fJ_near)
            one_cell = 0.5 * (far.frac - near.frac) * ds * (fJ_near + fJ_far)
            total = np.where(near.i0 == far.i0, one_cell,
                             inner + near_cell + far_cell)
        return float(np.einsum("tp,tp->", total, self.grid.weights))

    def transport_consistency(self):
        """Residual of dJ/ds = trchi J, skipping the vertex closure region.

        The area density here comes from the induced-metric determinant, so
        this checks it against the independent optical expansion route.
        """
        opt = self.optical()
        J, trchi = opt["J"], opt["trchi"]
        dJ = self._s_derivative(J)
        live = self.s >= self.s_min
        live[0] = False
        live[-1] = False  # one-sided endpoint difference is less accurate
        r = dJ[live] - trchi[live] * J[live]
        scale = np.max(np.abs(trchi[live] * J[live]))
        return float(np.max(np.abs(r)) / scale)

    # ------------------------------------------------------------------
    # crossing a constant-t slice
    # ------------------------------------------------------------------

    def crossing(self, t_value):
        """Per-ray interpolation data where coordinate time crosses t_value.

        Returns a ``Crossing`` with fractional indices; ``interpolate`` maps
        any per-node array to the crossing ring (cubic in s).
        """
        t = self.x[..., 0]                         # (n_s+1, nth, nph)
        below = t <= t_value
        if not np.all(np.any(below, axis=0)):
            raise ConeError("some rays never reach the requested slice")
        idx = np.argmax(below, axis=0)             # first index past the slice
        idx = np.clip(idx, 1, self.n_s)
        i0 = idx - 1
        t0 = np.take_along_axis(t, i0[None], axis=0)[0]
        t1 = np.take_along_axis(t, idx[None], axis=0)[0]
        frac = (t_value - t0) / (t1 - t0)
        return Crossing(self, i0, np.clip(frac, 0.0, 1.0))

    # ------------------------------------------------------------------
    # transverse (off-cone) derivatives via the complex-step twin cone
    # ------------------------------------------------------------------

    def _twin(self):
        """The cone from p + i eps T_p on the same grid, s range and step.

        Its velocity T_p - i eps Gamma(T_p, T_p) follows the timelike
        geodesic through p to first order in eps, which is all the complex
        step sees.
        """
        def build():
            eps = self.twin_eps
            accel = self._geodesic_rhs(self.p, self.T_p)[1]
            return NullConeBundle(self.chart, self.p + 1j * eps * self.T_p,
                                  self.grid, s_max=self.s[-1], ds=self.ds,
                                  T_p=self.T_p + 1j * eps * accel)
        return self._field("twin", build)

    def lbar_derivative(self, extract):
        """Derivative along Lbar of a per-node field, -2 d_d f - d_s f.

        ``extract(bundle) -> per-node array`` is applied to this bundle and
        to its complex twin; d_d f is the twin's imaginary part over eps and
        d_s f the central difference along the rays of this bundle.  The
        twin relation is exact in flat space; on a curved chart the vertex
        family direction it yields differs from Lbar by an L component of
        order s^2 times the curvature.
        """
        d_vertex = np.imag(extract(self._twin())) / self.twin_eps
        return -2.0 * d_vertex - self._s_derivative(extract(self))

    def mass_aspect(self):
        """Mass aspect mu and frame shift omega per node.

        mu = nabla_Lbar trchi + trchi tr chibar / 2 + 2 omega trchi;
        omega = -g(nabla_Lbar Lbar, L) / 4.  The Lbar-direction derivatives
        come from ``lbar_derivative``.  Lbar = -phi (2 that + phi L) with
        that and L orthogonal to the screen, so tr chibar = -phi (2 k +
        phi trchi) with k = ``kscreen``.  Below s_min the flat closure gives
        mu = omega = 0.
        """
        if "mass_aspect" in self._cache:
            return self._cache["mass_aspect"]
        opt = self.optical()

        def smooth_expansion(b):
            # differentiate only the regular part of trchi; the universal 2/s
            # vertex singularity would wreck the s-difference near s=0
            with np.errstate(divide="ignore", invalid="ignore"):
                q = b.optical()["trchi"] - 2.0 / b.s[:, None, None]
            q[0] = 0.0
            return q

        with np.errstate(divide="ignore"):
            d_trchi = (2.0 / self.s ** 2)[:, None, None] \
                + self.lbar_derivative(smooth_expansion)
        dLbar = self.lbar_derivative(lambda b: b.Lbar)
        gamma_corr = np.einsum("...mab,...a,...b->...m",
                               geometry.christoffel(self.chart, self.x),
                               self.Lbar, self.Lbar) if not self.chart.flat \
            else 0.0
        nab_Lbar = dLbar + gamma_corr
        omega = -0.25 * self.dot(nab_Lbar, self.L)
        trchi, phi = opt["trchi"], self.phi
        with np.errstate(invalid="ignore"):
            tr_chibar = -phi * (2.0 * opt["kscreen"] + phi * trchi)
            mu = d_trchi + 0.5 * trchi * tr_chibar + 2.0 * omega * trchi
        near = self.s < self.s_min
        mu[near] = 0.0
        omega[near] = 0.0
        self._cache["mass_aspect"] = (mu, omega)
        return mu, omega


class Crossing:
    """Interpolation helper for the ring where the cone meets a t-slice."""

    def __init__(self, bundle, i0, frac):
        self.bundle = bundle
        self.i0 = i0
        self.frac = frac

    @property
    def s_star(self):
        return (self.i0 + self.frac) * self.bundle.ds

    def interpolate(self, f):
        """Interpolate per-node data (n_s+1, nth, nph, ...) to the ring."""
        f = np.asarray(f)
        i0, frac = self.i0, self.frac
        n = f.shape[0]
        extra = f.ndim - 3
        fr = frac.reshape(frac.shape + (1,) * extra)

        def take(k):
            idx = np.clip(i0 + k, 0, n - 1)
            return np.take_along_axis(
                f, idx.reshape(idx.shape + (1,) * extra)[None], axis=0)[0]

        # cubic Lagrange on slices i0-1 .. i0+2 in the local variable fr
        fm1, f0, f1, f2 = take(-1), take(0), take(1), take(2)
        t = fr
        return (-t * (t - 1) * (t - 2) / 6.0 * fm1
                + (t * t - 1) * (t - 2) / 2.0 * f0
                - t * (t + 1) * (t - 2) / 2.0 * f1
                + t * (t * t - 1) / 6.0 * f2)

    def ring_integral(self, f_ring):
        """Integral over the ring with measure phi dA (slice-induced area)."""
        b = self.bundle
        J = self.interpolate(b.optical()["J"])
        phi = self.interpolate(b.phi)
        return float(np.einsum("tp,tp->", np.asarray(f_ring) * J * phi,
                               b.grid.weights))
