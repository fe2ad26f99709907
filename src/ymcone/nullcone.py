"""Past null cone bundles.

A bundle is a fan of past-directed null geodesics from a vertex p, one per
node of a direction sphere grid, integrated at fixed affine step with RK4
(on a flat chart the rays are straight, x = p + s L_0, set in closed form).
The affine parameter s is normalized by g(L, T_p) = 1 at the vertex.  All
transverse (angular) derivatives are spectral on the fixed-s spheres, one
GEMM of the grid's node matrix ``grad`` over a batch of slices; the
optical scalars, null frames, area density and cone quadrature are derived
from them.  Only x and L are differentiated, by three identities exact in the
continuum: nabla_L L = 0 on the rays; the unit normal that = (-g_tt)^(-1/2)
d_t of the t-slices is orthogonal to the screen, so the screen part of their
extrinsic curvature is k_bc = g(Gamma(Ytilde_b, that), Ytilde_c); and
Lbar = -phi (2 that + phi L) gives tr chibar = -phi (2 tr k + phi trchi).

The mass aspect mu = Lbar(trchi) + trchi tr chibar / 2 + 2 omega trchi,
omega = -g(nabla_Lbar Lbar, L) / 4, reads L off the cone, on the cones from
the vertices p + d T_p along the timelike geodesic through p; ``mass_aspect``
takes it from the one cone by the null structure equations (Christodoulou &
Klainerman, 1993).  With g(L, Lbar) = -2, a screen e_A normal to L and Lbar
and R(W, Z, X, Y) = g(W, [nabla_X, nabla_Y] Z) as in ``geometry.riemann``:

- L = grad u for u = d: both are affine null generators, so their ratio is
  constant on each ray, and it is 1 at the vertex, where du(T_p) = 1 =
  g(L, T_p).  So H = nabla L is symmetric, H(L, .) = 0, trchi = div L, and
  eta = zeta: nabla_Lbar L = -2 omega L + 2 zeta, zeta_A = H(Lbar, e_A) / 2.
- Differentiating trchi = (g^-1 + (L Lbar + Lbar L) / 2)^bc H_bc along Lbar
  with nabla_a H_bc = nabla_b H_ac + R_cdab L^d gives the four terms
  H(nabla_Lbar L, Lbar) = 4 |zeta|^2, sum_A (nabla_A H(Lbar, .))(e_A) =
  2 div zeta - 2 omega trchi, -sum_A H(e_A, nabla_A Lbar) = -2 |zeta|^2 -
  chi.chibar and sum_A R(e_A, L, Lbar, e_A) = 2 rho - Ric(L, Lbar), with
  rho = R(Lbar, L, Lbar, L) / 4 = W.R.W / 4, the bilinear form of the
  bivector operator ``geometry.riemann`` on W = Lbar ^ L.
- So mu = 2 div zeta + 2 |zeta|^2 - chihat.chibarhat + 2 rho - Ric(L, Lbar):
  the omega terms cancel, as mu does not change when L is rescaled off the
  cone.  chibar = -phi (2 k + phi chi), so -chihat.chibarhat = phi
  (2 khat.chihat + phi |chihat|^2).
- div zeta is taken on the sections of the cone by the t-slices, to which
  the screen is tangent: their tangents Ytilde_b = Y_b - cb L are d_b -
  cb d_s in the cone coordinates (s, theta^b), with the s-spheres' metric
  m_bc, so div zeta = (d_b W^b - cb_b d_s W^b) / sqrt(m), W^b = sqrt(m)
  m^bc zeta_c.
- zeta_b = -phi g(that, nabla_b L) leaves out the zero phi^2 g(L, nabla_b
  L) / 2 of g(Lbar, nabla_b L) / 2, whose roundoff div zeta scales by 1/s^2.

On a flat chart zeta = chihat = 0 with no curvature, so mu = 0 exactly:
Lbar(2/s) + trchi tr chibar / 2 = 2/s^2 - 2/s^2.

Array layout: per-node fields have shape (n_s + 1, n_theta, n_phi, ...) with
slice index 0 at the vertex.
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .geometry import _dot
from .sphere import SphereGrid


class ConeError(RuntimeError):
    pass


class CausticError(ConeError):
    """The s-sphere area density degenerated along some ray."""


class ChartDomainError(ConeError):
    """A ray left the chart (``Chart.rays_outside`` on a slice,
    ``Chart.contains`` at an RK4 stage point)."""


def _along(w, u):
    """sum_mu w^mu u_b^mu for w (..., 4[mu]) and u (..., 2[b], 4[mu]), as
    the pair over b."""
    return tuple(np.einsum("...m,...m->...", w, u[..., b, :]) for b in (0, 1))


def _screen(u, v):
    """sum_mu u_b^mu v_c^mu of two (..., 2[b], 4[mu]) arrays: its symmetric
    part as (00, 01, 11), and 01 - 10."""
    (t00, t01), (t10, t11) = _along(u[..., 0, :], v), _along(u[..., 1, :], v)
    return (t00, 0.5 * (t01 + t10), t11), t01 - t10


def _det2(a, b):
    """a_00 b_11 + a_11 b_00 - 2 a_01 b_01 for symmetric 2x2 tensors given
    as (00, 01, 11): 2 det a at b = a, and det m tr(m^-1 b) at a = m."""
    return a[0] * b[2] + a[2] * b[0] - 2.0 * a[1] * b[1]


class NullConeBundle:
    """Fan of past null geodesics from ``vertex`` with frames and scalars."""

    #: RK4 steps between projections of L back onto the null cone
    renorm_every = 100
    #: slices s < vertex_factor * ds carry the flat-cone vertex closure
    vertex_factor = 10.0
    #: s slices per batch of the pointwise geometry
    chunk = 64

    def __init__(self, chart, vertex, grid: SphereGrid, s_max, ds,
                 T_p=None):
        self.chart = chart
        self.grid = grid
        self.p = np.asarray(vertex, dtype=float)
        self.ds = float(ds)
        self.n_s = int(round(s_max / ds))
        self.s = self.ds * np.arange(self.n_s + 1)
        self.s_min = self.vertex_factor * self.ds
        self.renorm_max = 0.0

        if T_p is None:
            T_p = geometry.unit_time(chart, self.p)
        self.T_p = np.asarray(T_p, dtype=float)
        if abs(_dot(chart.diagonal(self.p), self.T_p, self.T_p) + 1.0) > 1e-10:
            raise ConeError("vertex time axis must be unit timelike")

        self._cache = {}
        self._integrate()
        # node fields, set once after the fan: the metric diagonal g_aa
        # (..., 4), the unit normal that of the t-slices, g(L, that) = 1/phi
        # (the inverse null lapse) and Lbar = -phi (2 that + phi L)
        self.diagonal_nodes = chart.diagonal(self.x)
        self.that = geometry.unit_time(chart, self.x)
        self.gLt = self.dot(self.L, self.that)
        gLt = self.gLt[..., None]
        self.Lbar = -(2.0 * self.that + self.L / gLt) / gLt

    # ------------------------------------------------------------------
    # geodesic fan
    # ------------------------------------------------------------------

    def _initial_null_vectors(self):
        """l_omega = -T_p + omega^i E_i: past-directed, g(l, T_p) = 1."""
        triad = geometry.orthonormal_frame(self.chart, self.p,
                                           time_axis_hint=self.T_p)[1:]
        omega = self.grid.directions()            # (nth, nph, 3)
        return -self.T_p + np.einsum("tpi,im->tpm", omega, triad)

    def _geodesic_rhs(self, x, L):
        return L, -(self.chart.christoffel_along(x, L) @ L[..., None])[..., 0]

    def _renormalize(self, x, L):
        """Project L back onto the null cone of g along the local that axis."""
        d = self.chart.diagonal(x)
        that = geometry.unit_time(self.chart, x)
        b = _dot(d, L, that)
        c = _dot(d, L, L)
        eps = b - np.sqrt(b * b + c)
        self.renorm_max = max(self.renorm_max, float(np.max(np.abs(eps))))
        return L + eps[..., None] * that

    def _integrate(self):
        nth, nph = self.grid.n_theta, self.grid.n_phi
        L0 = self._initial_null_vectors()
        if self.chart.flat:
            # straight rays in closed form: L = L0 and x = p + s L0
            L = np.repeat(L0[None], self.n_s + 1, axis=0)
            x = self.p + self.s[:, None, None, None] * L
            outside = self.chart.rays_outside(x)
            if outside.any():
                raise self._domain_error(*np.argwhere(outside)[0])
            self.x, self.L = x, L
            return
        x = np.empty((self.n_s + 1, nth, nph, 4))
        L = np.empty_like(x)
        x[0] = np.broadcast_to(self.p, (nth, nph, 4))
        L[0] = L0
        h = self.ds
        xc, Lc = x[0].copy(), L[0].copy()

        def stage(i, k, xs, Ls):
            """The right-hand side at stage k of the step to slice i, once
            its points are known to lie in the chart."""
            inside = self.chart.contains(xs)
            if not inside.all():
                raise self._domain_error(i, *np.argwhere(~inside)[0], stage=k)
            return self._geodesic_rhs(xs, Ls)

        for i in range(1, self.n_s + 1):
            k1x, k1L = self._geodesic_rhs(xc, Lc)
            k2x, k2L = stage(i, 2, xc + 0.5 * h * k1x, Lc + 0.5 * h * k1L)
            k3x, k3L = stage(i, 3, xc + 0.5 * h * k2x, Lc + 0.5 * h * k2L)
            k4x, k4L = stage(i, 4, xc + h * k3x, Lc + h * k3L)
            xc = xc + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
            Lc = Lc + (h / 6.0) * (k1L + 2 * k2L + 2 * k3L + k4L)
            outside = self.chart.rays_outside(xc)
            if outside.any():
                raise self._domain_error(i, *np.argwhere(outside)[0])
            if i % self.renorm_every == 0:
                Lc = self._renormalize(xc, Lc)
            x[i], L[i] = xc, Lc
        self.x, self.L = x, L

    def _domain_error(self, i, th, ph, stage=None):
        """The error for ray (th, ph) outside the chart on slice i, or at
        RK4 stage ``stage`` of the step to slice i."""
        where = "" if stage is None else \
            f" (RK4 stage {stage} of the step to that s)"
        return ChartDomainError(
            f"ray (theta, phi) = ({th}, {ph}) leaves chart "
            f"'{self.chart.name}' at s = {self.s[i]:.6g}{where}")

    # ------------------------------------------------------------------
    # pointwise frame fields
    # ------------------------------------------------------------------

    def dot(self, u, v):
        """g(u, v) at every node for per-node vectors u, v."""
        return _dot(self.diagonal_nodes, u, v)

    @property
    def phi(self):
        """Null lapse 1/gLt, 1 at the vertex; computed per read."""
        return 1.0 / self.gLt

    @property
    def expansion_deficit(self):
        """q = trchi - 2/s, 0 below s_min (where trchi = 2/s); not cached."""
        q = self.optical()["trchi"] \
            - 2.0 / np.where(self.s > 0, self.s, 1.0)[:, None, None]
        q[self.s < self.s_min] = 0.0
        return q

    def _s_derivative(self, f):
        """Second-order finite difference along the ray parameter (axis 0)."""
        out = np.empty_like(f)
        out[1:-1] = f[2:] - f[:-2]
        out[0] = -3.0 * f[0] + 4.0 * f[1] - f[2]
        out[-1] = 3.0 * f[-1] - 4.0 * f[-2] + f[-3]
        return np.divide(out, 2.0 * self.ds, out=out)

    # ------------------------------------------------------------------
    # optical scalars
    # ------------------------------------------------------------------

    def optical(self):
        """Compute (and cache) optical scalars at every node.

        Returns a dict with keys: trchi, chihat2, khat_chihat (khat.chihat),
        zeta, J, kscreen, minv, cb, Ytilde and chi_asym (the largest
        antisymmetric part of chi past the vertex closure, a scalar).  Only
        x and L are differentiated; the geodesic equation and the closed
        form of that give the rest, per s-chunk from the three components
        of each symmetric 2x2 m, chi and k (``_det2``).  A flat chart has no
        Gamma, so k = khat.chihat = 0 there.
        Slices with s < s_min carry the flat-cone closure (trchi = 2/s,
        chihat = zeta = 0, J continued as s^2 times the limit shape).
        """
        if "optical" in self._cache:
            return self._cache["optical"]

        shape = self.x.shape[:3]

        def empty(*tail):
            return np.empty(shape + tail)

        out = {
            "trchi": empty(), "chihat2": empty(), "J": empty(),
            "khat_chihat": np.zeros(shape), "kscreen": np.zeros(shape),
            "zeta": empty(2), "cb": empty(2), "minv": empty(2, 2),
            "Ytilde": empty(2, 4), "chi_asym": 0.0,
        }
        d, L, that = self.diagonal_nodes, self.L, self.that
        sin_th = self.grid.sin_theta[None, :, None]

        for i0 in range(0, self.n_s + 1, self.chunk):
            sl = slice(i0, i0 + self.chunk)
            # d_b of the positions (d_b x^mu = Y_b) and of L in one GEMM, each
            # (..., 2[b], 4[mu])
            Y, dL = np.moveaxis(np.swapaxes(self.grid.gradient(
                np.stack([self.x[sl], L[sl]], axis=3)), -1, -2), 3, 0)
            Yt = out["Ytilde"][sl]
            # g(Lbar, Y_b) = -2 cb_b, so that g(Lbar, Ytilde_b) = 0
            cb = out["cb"][sl] = -0.5 * np.stack(
                _along(d[sl] * self.Lbar[sl], Y), axis=-1)
            np.subtract(Y, cb[..., None] * L[sl][..., None, :], out=Yt)
            gYt = d[sl][..., None, :] * Yt                 # g_mn Ytilde^n_b
            m, _ = _screen(Yt, gYt)
            det = 0.5 * _det2(m, m)
            # nabla_L L = 0 on the rays, so nabla along Ytilde_b = Y_b - cb L
            # is nabla along Y_b
            nabL = dL
            if not self.chart.flat:
                # Gamma(L) and Gamma(that), each (..., 4[m], 4[a])
                gL, gT = np.moveaxis(self.chart.christoffel_along(
                    self.x[sl][..., None, :],
                    np.stack([L[sl], that[sl]], axis=-2)), -3, 0)
                nabL = nabL + np.einsum("...ma,...ba->...bm", gL, Y)
            chi, asym = _screen(nabL, gYt)
            out["chi_asym"] = max(out["chi_asym"], float(np.max(np.abs(
                asym[self.s[sl] >= self.s_min]), initial=0.0)))
            with np.errstate(divide="ignore", invalid="ignore"):
                mi = out["minv"][sl]                  # adj m / det m
                mi[..., 0, 0], mi[..., 1, 1] = m[2] / det, m[0] / det
                mi[..., 0, 1] = mi[..., 1, 0] = -m[1] / det
                trchi = out["trchi"][sl] = _det2(m, chi) / det
                out["chihat2"][sl] = 0.5 * trchi ** 2 - _det2(chi, chi) / det
                if not self.chart.flat:
                    # that = (-g_tt)^(-1/2) d_t is orthogonal to the screen,
                    # so the derivative of its normalisation drops out of the
                    # t-slice extrinsic curvature k_bc = g(Gamma(Ytilde_b,
                    # that), Ytilde_c)
                    kt, _ = _screen(
                        np.einsum("...ma,...ba->...bm", gT, Yt), gYt)
                    k = out["kscreen"][sl] = _det2(m, kt) / det
                    out["khat_chihat"][sl] = 0.5 * k * trchi \
                        - _det2(kt, chi) / det
            # zeta = -phi g(that, nabla_b L): see the module docstring
            out["zeta"][sl] = -np.stack(_along(d[sl] * that[sl], nabL),
                                        axis=-1) / self.gLt[sl][..., None]
            out["J"][sl] = np.sqrt(np.where(det < 0.0, 0.0, det)) / sin_th

        # vertex closure for s < s_min
        near = self.s < self.s_min
        with np.errstate(divide="ignore"):
            out["trchi"][near] = 2.0 / self.s[near, None, None]
        for key in ("chihat2", "khat_chihat", "zeta"):
            out[key][near] = 0.0
        # J ~ s^2 continuation using the shape at the first live slice
        ilive = min(int(np.searchsorted(self.s, self.s_min)), self.n_s)
        Jshape = out["J"][ilive] / self.s[ilive] ** 2
        out["J"][near] = self.s[near, None, None] ** 2 * Jshape[None]
        out["minv"][0] = 0.0
        # kt is 0/0 at the vertex: extrapolate k quadratically from slices 1-3
        k = out["kscreen"]
        k[0] = 3.0 * k[1] - 3.0 * k[2] + k[3] if self.n_s >= 3 else k[1]
        bad = np.argwhere(out["J"][~near] <= 0.0)
        if bad.size:
            i, t, p_ = bad[0]
            raise CausticError(f"area density vanished at "
                               f"s={self.s[~near][i]:.4g}, node ({t},{p_})")
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
        if "frames" in self._cache:
            return self._cache["frames"]
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
        frames = np.stack(out, axis=-2)
        self._cache["frames"] = frames
        return frames

    def frame_pairing_residuals(self):
        """Max deviation of every null-frame inner product from its target.

        The Gram matrix of (L, Lbar, e_1, e_2) at every node less its target
        [[0, -2], [-2, 0]] + I, one upper-triangle entry at a time (a
        (..., 4, 4) Gram array raises peak memory); past the vertex slice,
        where the screen is 0, but for g(L, L).  Returns the per-pairing
        maxima, "LL" to "e2e2".
        """
        legs = (self.L, self.Lbar, *np.moveaxis(self.null_frames(), -2, 0))
        target = np.eye(4)
        target[:2, :2] = [[0.0, -2.0], [-2.0, 0.0]]
        names = ("L", "Lbar", "e1", "e2")
        out = {}
        for a in range(4):
            for b in range(a, 4):
                sl = slice(1 if a + b else 0, None)
                gram = _dot(self.diagonal_nodes[sl], legs[a][sl], legs[b][sl])
                out[names[a] + names[b]] = float(
                    np.max(np.abs(gram - target[a, b])))
        return out

    # ------------------------------------------------------------------
    # quadrature
    # ------------------------------------------------------------------

    def area(self):
        """Sphere areas |S_s| for every s node."""
        return self.grid.integrate(self.optical()["J"])

    def cone_integral(self, f, far, near=None):
        """ds x dA integral of per-node scalar data ``f`` between two crossings.

        Along every ray the region runs from the ``near`` crossing (the vertex
        when None) to the ``far`` one.  Each whole s cell [i, i+1] in between
        gives ds/2 to both of its end nodes, and each crossing adds its
        fractional end cell up to the interpolated ring; a ray whose two
        crossings fall in one cell gets the single trapezoid between the rings.
        The directions use the grid's product quadrature.  ``f`` covers the
        slices 0 .. n - 1 for any n from ``far.stop``, the slices the
        integral reads, up to all of them.  A NaN in ``f`` raises
        ``ConeError`` naming the node, and so does a ``near`` ring that lies
        past the ``far`` one, naming the first such ray.
        """
        f = np.asarray(f, dtype=float)
        n = f.shape[0]
        if n < far.stop:
            raise ValueError(f"integrand covers {n} slices; the crossing "
                             f"reads {far.stop}")
        if np.any(np.isnan(f)):
            idx = np.argwhere(np.isnan(f))[0]
            raise ConeError(f"NaN integrand at node (s_index, theta, phi) = "
                            f"{tuple(int(v) for v in idx)}")
        if near is not None and np.any(near.s_star > far.s_star):
            idx = np.argwhere(near.s_star > far.s_star)[0]
            raise ConeError(f"near crossing lies past the far one on ray "
                            f"(theta, phi) = {tuple(int(v) for v in idx)}")
        fJ = f * self.optical()["J"][:n]
        ds = self.ds
        first = 0 if near is None else near.i0 + 1    # first node past near
        idx = np.arange(n)[:, None, None]
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
        return float(self.grid.integrate(total))

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
        any per-node array to the crossing ring (cubic in s).  A slice at or
        above the vertex time, or one that some ray never reaches, raises
        ``ConeError``.
        """
        if t_value >= self.p[0]:
            raise ConeError(f"the slice t = {t_value:.6g} does not lie below "
                            f"the vertex time {self.p[0]:.6g}: the past cone "
                            f"meets no ring there")
        t = self.x[..., 0]                         # (n_s+1, nth, nph)
        below = t <= t_value
        if not np.all(np.any(below, axis=0)):
            th, ph = np.argwhere(~np.any(below, axis=0))[0]
            raise ConeError(f"some rays never reach the slice t = "
                            f"{t_value:.6g}, first the ray (theta, phi) = "
                            f"({th}, {ph}); the cone ends at s = "
                            f"{self.s[-1]:.6g}")
        idx = np.argmax(below, axis=0)             # first index past the slice
        idx = np.clip(idx, 1, self.n_s)
        i0 = idx - 1
        t0 = np.take_along_axis(t, i0[None], axis=0)[0]
        t1 = np.take_along_axis(t, idx[None], axis=0)[0]
        frac = (t_value - t0) / (t1 - t0)
        return Crossing(self, i0, np.clip(frac, 0.0, 1.0))

    # ------------------------------------------------------------------
    # mass aspect
    # ------------------------------------------------------------------

    def mass_aspect(self):
        """Mass aspect mu = 2 div zeta + 2 |zeta|^2 + phi (2 khat.chihat +
        phi |chihat|^2) + 2 rho - Ric(L, Lbar) per node (module docstring),
        with the bivector curvature ``geometry.riemann`` in windows of
        chunk // 6 slices, the width of a six-seed reconstruction's chunk.
        Zero below s_min, the flat closure, and exact zeros with no curvature
        pass on a flat chart.  Cached.
        """
        if "mass_aspect" in self._cache:
            return self._cache["mass_aspect"]
        mu = np.zeros(self.gLt.shape)
        if not self.chart.flat:
            opt = self.optical()
            # the live slices, and at least the three an s-difference needs
            live = slice(min(int(np.searchsorted(self.s, self.s_min)),
                             self.n_s - 2), None)
            zeta, minv = opt["zeta"][live], opt["minv"][live]
            sqm = opt["J"][live] * self.grid.sin_theta[None, :, None]
            W = np.einsum("stp,stpbc,stpc->stpb", sqm, minv, zeta)
            div = self.grid.on_nodes(self.grid.div, np.moveaxis(W, -1, 1))
            div = div.reshape(sqm.shape) - np.einsum(
                "stpb,stpb->stp", opt["cb"][live], self._s_derivative(W))
            phi = self.phi[live]
            mu[live] = 2.0 * div / sqm \
                + 2.0 * np.einsum("stpb,stpbc,stpc->stp", zeta, minv, zeta) \
                + phi * (2.0 * opt["khat_chihat"][live]
                         + phi * opt["chihat2"][live])
            window = max(1, self.chunk // 6)
            for i0 in range(live.start, self.n_s + 1, window):
                sl = slice(i0, i0 + window)
                curv = geometry.riemann(self.chart, self.x[sl])
                L, Lbar = self.L[sl], self.Lbar[sl]
                # R(Lbar, L, Lbar, L) = W R W for the bivector W = Lbar ^ L
                W = geometry.wedge(Lbar, L)[..., None, :]
                rho4 = W @ curv.bivector @ np.swapaxes(W, -1, -2)
                mu[sl] += 0.5 * rho4[..., 0, 0] \
                    - np.einsum("...ab,...a,...b->...", curv.ricci, L, Lbar)
            mu[self.s < self.s_min] = 0.0
        self._cache["mass_aspect"] = mu
        return mu


class Crossing:
    """Interpolation helper for the ring where the cone meets a t-slice."""

    def __init__(self, bundle, i0, frac):
        self.bundle = bundle
        self.i0 = i0
        self.frac = frac
        self.s_star = (i0 + frac) * bundle.ds
        #: one past the last slice ``interpolate`` reads on any ray
        self.stop = min(int(np.max(i0)) + 3, bundle.n_s + 1)

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
        return float(b.grid.integrate(np.asarray(f_ring) * J * phi))
