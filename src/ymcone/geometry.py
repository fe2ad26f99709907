"""Lorentzian chart catalog and pointwise geometric operators.

Charts carry an analytic metric with analytic first and second derivatives,
vectorized over trailing point axes: every operator accepts ``x`` of shape
``(..., 4)`` and returns arrays with matching leading axes.  Signature is
(-,+,+,+) and units have c = 1.
"""

from __future__ import annotations

import numpy as np

DEGENERATE_DET = 1e-12


class GeometryError(ValueError):
    """Base class for geometric failures."""


class DegenerateMetricError(GeometryError):
    """Metric determinant below the degeneracy threshold."""


class FrameError(GeometryError):
    """Orthonormal frame construction failed (e.g. spacelike time hint)."""


def as_points(x):
    """``x`` as a float array, or as a complex one when it is complex.

    Complex points carry the complex-step twin cone of ``nullcone``; the
    metric, its first derivatives, the inverse metric, the Christoffel
    symbols and ``orthonormal_frame`` keep them complex.
    """
    x = np.asarray(x)
    return x if np.iscomplexobj(x) else x.astype(float, copy=False)


# ---------------------------------------------------------------------------
# Charts
# ---------------------------------------------------------------------------

class Chart:
    """Analytic metric on a coordinate patch.

    Subclasses implement ``metric``; they may override ``dmetric`` and
    ``d2metric`` with closed forms (the catalog charts do).  The base class
    falls back to 4th-order central differences with step
    ``1e-4 * coordinate_scale`` (truncation O(h^4)).
    """

    name = "chart"
    coordinate_scale = 1.0
    #: True when the curvature vanishes identically (lets hot loops skip work).
    flat = False

    def metric(self, x):
        raise NotImplementedError

    # dmetric[..., a, m, n] = d_a g_mn
    def dmetric(self, x):
        return _fd_derivative(self.metric, x, self.fd_step())

    # d2metric[..., a, b, m, n] = d_a d_b g_mn
    def d2metric(self, x):
        return _fd_derivative(self.dmetric, x, self.fd_step())

    def fd_step(self):
        return 1e-4 * self.coordinate_scale

    def inverse_metric(self, x):
        """g^{ab}, shape (..., 4, 4); see ``generic_inverse_metric``."""
        return generic_inverse_metric(self, x)

    def christoffel(self, x):
        """Gamma^c_ab, shape (..., 4, 4, 4); see ``generic_christoffel``."""
        return generic_christoffel(self, x)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"


class DiagonalChart(Chart):
    """Chart whose metric is diagonal in its coordinates (every catalog chart).

    The inverse metric is 1/g_aa and
    Gamma^c_ab = (d_a g_cb + d_b g_ca - d_c g_ab) / (2 g_cc), both in closed
    form, with the same degeneracy check as the generic route.
    """

    def _metric_diagonal(self, x):
        d = np.diagonal(self.metric(x), axis1=-2, axis2=-1)
        _require_nondegenerate(np.prod(d, axis=-1), self.name)
        return d

    def inverse_metric(self, x):
        d = self._metric_diagonal(x)
        ginv = np.zeros(d.shape + (4,), dtype=d.dtype)
        i = np.arange(4)
        ginv[..., i, i] = 1.0 / d
        return ginv

    def christoffel(self, x):
        inv_d = 1.0 / self._metric_diagonal(x)
        t = _lowered_christoffel(self.dmetric(x))         # (..., a, b, c)
        return 0.5 * (inv_d[..., :, None, None] * np.moveaxis(t, -1, -3))


def _fd_derivative(fn, x, h):
    """4th-order central difference of ``fn`` along each coordinate axis.

    Returns an array with one extra axis right after the point axes:
    ``out[..., a, <shape of fn>] = d_a fn``.
    """
    x = np.asarray(x, dtype=float)
    outs = []
    for a in range(4):
        e = np.zeros(4)
        e[a] = h
        f2p = np.asarray(fn(x + 2 * e))
        f1p = np.asarray(fn(x + e))
        f1m = np.asarray(fn(x - e))
        f2m = np.asarray(fn(x - 2 * e))
        outs.append((-f2p + 8 * f1p - 8 * f1m + f2m) / (12 * h))
    return np.stack(outs, axis=x.ndim - 1)


class Minkowski(DiagonalChart):
    name = "minkowski"
    flat = True

    def metric(self, x):
        x = as_points(x)
        g = np.zeros(x.shape[:-1] + (4, 4), dtype=x.dtype)
        g[..., 0, 0] = -1.0
        for i in (1, 2, 3):
            g[..., i, i] = 1.0
        return g

    def inverse_metric(self, x):
        return self.metric(x)           # eta is its own inverse

    def christoffel(self, x):
        x = as_points(x)
        return np.zeros(x.shape[:-1] + (4, 4, 4), dtype=x.dtype)

    def dmetric(self, x):
        x = as_points(x)
        return np.zeros(x.shape[:-1] + (4, 4, 4), dtype=x.dtype)

    def d2metric(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (4, 4, 4, 4))


class Schwarzschild(DiagonalChart):
    """Schwarzschild metric in Schwarzschild coordinates (t, r, theta, phi).

    Valid for r > 2M away from the axis; the horizon is excluded by the
    determinant threshold.
    """

    name = "schwarzschild"

    def __init__(self, mass=1.0):
        self.mass = float(mass)
        self.coordinate_scale = max(1.0, 10.0 * self.mass)

    def metric(self, x):
        x = as_points(x)
        r, th = x[..., 1], x[..., 2]
        f = 1.0 - 2.0 * self.mass / r
        g = np.zeros(x.shape[:-1] + (4, 4), dtype=x.dtype)
        g[..., 0, 0] = -f
        g[..., 1, 1] = 1.0 / f
        g[..., 2, 2] = r ** 2
        g[..., 3, 3] = (r * np.sin(th)) ** 2
        return g

    def dmetric(self, x):
        x = as_points(x)
        r, th = x[..., 1], x[..., 2]
        M = self.mass
        f = 1.0 - 2.0 * M / r
        dg = np.zeros(x.shape[:-1] + (4, 4, 4), dtype=x.dtype)
        # d/dr
        dg[..., 1, 0, 0] = -2.0 * M / r ** 2
        dg[..., 1, 1, 1] = -(2.0 * M / r ** 2) / f ** 2
        dg[..., 1, 2, 2] = 2.0 * r
        dg[..., 1, 3, 3] = 2.0 * r * np.sin(th) ** 2
        # d/dtheta
        dg[..., 2, 3, 3] = 2.0 * r ** 2 * np.sin(th) * np.cos(th)
        return dg

    def d2metric(self, x):
        x = np.asarray(x, dtype=float)
        r, th = x[..., 1], x[..., 2]
        M = self.mass
        f = 1.0 - 2.0 * M / r
        s, c = np.sin(th), np.cos(th)
        d2 = np.zeros(x.shape[:-1] + (4, 4, 4, 4))
        # rr
        d2[..., 1, 1, 0, 0] = 4.0 * M / r ** 3
        # d/dr of -(2M/r^2) f^-2: (4M/r^3) f^-2 - (2M/r^2)(2)(2M/r^2) f^-3
        d2[..., 1, 1, 1, 1] = (4.0 * M / r ** 3) / f ** 2 \
            - 2.0 * (2.0 * M / r ** 2) ** 2 / f ** 3
        d2[..., 1, 1, 2, 2] = 2.0
        d2[..., 1, 1, 3, 3] = 2.0 * s ** 2
        # r theta (symmetrized)
        d2[..., 1, 2, 3, 3] = 4.0 * r * s * c
        d2[..., 2, 1, 3, 3] = 4.0 * r * s * c
        # theta theta
        d2[..., 2, 2, 3, 3] = 2.0 * r ** 2 * (c ** 2 - s ** 2)
        return d2


class SchwarzschildIsotropic(DiagonalChart):
    """Schwarzschild metric in isotropic Cartesian coordinates (t, x, y, z).

    g = -((1-m)/(1+m))^2 dt^2 + (1+m)^4 (dx^2+dy^2+dz^2), m = M/(2 rho).
    No polar-axis singularity, which makes it the chart of choice for null
    cone fans.
    """

    name = "schwarzschild-isotropic"

    def __init__(self, mass=1.0):
        self.mass = float(mass)
        self.coordinate_scale = max(1.0, 10.0 * self.mass)

    # scalar profiles and their radial derivatives ------------------------
    def _rho(self, x):
        return np.sqrt(np.sum(x[..., 1:] ** 2, axis=-1))

    def _profiles(self, rho):
        m = self.mass / (2.0 * rho)
        dm = -self.mass / (2.0 * rho ** 2)
        d2m = self.mass / rho ** 3
        q = (1.0 - m) / (1.0 + m)
        # dq/dm = -2/(1+m)^2
        N = -q ** 2                           # g_tt
        dN_dm = -2.0 * q * (-2.0 / (1.0 + m) ** 2)
        d2N_dm = -2.0 * (-2.0 / (1.0 + m) ** 2) ** 2 \
            + (-2.0 * q) * (4.0 / (1.0 + m) ** 3)
        B = (1.0 + m) ** 4                    # spatial conformal factor
        dB_dm = 4.0 * (1.0 + m) ** 3
        d2B_dm = 12.0 * (1.0 + m) ** 2
        # chain rule to rho
        dN = dN_dm * dm
        d2N = d2N_dm * dm ** 2 + dN_dm * d2m
        dB = dB_dm * dm
        d2B = d2B_dm * dm ** 2 + dB_dm * d2m
        return N, dN, d2N, B, dB, d2B

    def metric(self, x):
        x = as_points(x)
        rho = self._rho(x)
        N, _, _, B, _, _ = self._profiles(rho)
        g = np.zeros(x.shape[:-1] + (4, 4), dtype=x.dtype)
        g[..., 0, 0] = N
        for i in (1, 2, 3):
            g[..., i, i] = B
        return g

    def dmetric(self, x):
        x = as_points(x)
        rho = self._rho(x)
        N, dN, _, B, dB, _ = self._profiles(rho)
        n = x[..., 1:] / rho[..., None]       # d_i rho
        dg = np.zeros(x.shape[:-1] + (4, 4, 4), dtype=x.dtype)
        for a in (1, 2, 3):
            dg[..., a, 0, 0] = dN * n[..., a - 1]
            for i in (1, 2, 3):
                dg[..., a, i, i] = dB * n[..., a - 1]
        return dg

    def d2metric(self, x):
        x = np.asarray(x, dtype=float)
        rho = self._rho(x)
        N, dN, d2N, B, dB, d2B = self._profiles(rho)
        n = x[..., 1:] / rho[..., None]
        # d_a d_b rho = (delta_ab - n_a n_b)/rho
        eye = np.eye(3)
        hess_rho = (eye - n[..., :, None] * n[..., None, :]) / rho[..., None, None]
        nn = n[..., :, None] * n[..., None, :]
        d2 = np.zeros(x.shape[:-1] + (4, 4, 4, 4))
        hN = d2N[..., None, None] * nn + dN[..., None, None] * hess_rho
        hB = d2B[..., None, None] * nn + dB[..., None, None] * hess_rho
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                d2[..., a, b, 0, 0] = hN[..., a - 1, b - 1]
                for i in (1, 2, 3):
                    d2[..., a, b, i, i] = hB[..., a - 1, b - 1]
        return d2


class FLRW(DiagonalChart):
    """Spatially flat power-law FLRW: g = -dt^2 + t^(2p) (dx^2+dy^2+dz^2)."""

    name = "flrw"

    def __init__(self, power=1.0):
        self.power = float(power)

    def metric(self, x):
        x = as_points(x)
        a2 = x[..., 0] ** (2.0 * self.power)
        g = np.zeros(x.shape[:-1] + (4, 4), dtype=x.dtype)
        g[..., 0, 0] = -1.0
        for i in (1, 2, 3):
            g[..., i, i] = a2
        return g

    def dmetric(self, x):
        x = as_points(x)
        p = self.power
        da2 = 2.0 * p * x[..., 0] ** (2.0 * p - 1.0)
        dg = np.zeros(x.shape[:-1] + (4, 4, 4), dtype=x.dtype)
        for i in (1, 2, 3):
            dg[..., 0, i, i] = da2
        return dg

    def d2metric(self, x):
        x = np.asarray(x, dtype=float)
        p = self.power
        d2a2 = 2.0 * p * (2.0 * p - 1.0) * x[..., 0] ** (2.0 * p - 2.0)
        d2 = np.zeros(x.shape[:-1] + (4, 4, 4, 4))
        for i in (1, 2, 3):
            d2[..., 0, 0, i, i] = d2a2
        return d2


#: chart factory map used by the runner config layer
CHART_CATALOG = {
    "minkowski": Minkowski,
    "schwarzschild": Schwarzschild,
    "schwarzschild-isotropic": SchwarzschildIsotropic,
    "flrw": FLRW,
}


def make_chart(name, **params):
    try:
        cls = CHART_CATALOG[name]
    except KeyError:
        raise GeometryError(
            f"unknown chart {name!r}; catalog: {sorted(CHART_CATALOG)}"
        ) from None
    return cls(**params)


# ---------------------------------------------------------------------------
# Pointwise operators
# ---------------------------------------------------------------------------

def _require_nondegenerate(det, name):
    # NaN counts as degenerate: a diagonal metric at a coordinate singularity
    # (g_tt = 0, g_rr = inf at the Schwarzschild horizon) has det 0 * inf
    if not np.all(np.abs(det) >= DEGENERATE_DET):
        raise DegenerateMetricError(
            f"|det g| < {DEGENERATE_DET} on chart {name!r}"
        )


def _lowered_christoffel(dg):
    """t_abd = d_a g_db + d_b g_da - d_d g_ab, so Gamma^c_ab = g^cd t_abd / 2."""
    return np.einsum("...adb->...abd", dg) + np.einsum("...bda->...abd", dg) \
        - np.einsum("...dab->...abd", dg)


def generic_inverse_metric(chart, x):
    """g^{ab} by batched LAPACK inversion; valid on any chart.

    Raises DegenerateMetricError where |det g| < DEGENERATE_DET.
    """
    g = chart.metric(x)
    _require_nondegenerate(np.linalg.det(g), chart.name)
    return np.linalg.inv(g)


def generic_christoffel(chart, x):
    """Gamma^c_ab from the LAPACK inverse and ``dmetric``; valid on any chart."""
    ginv = generic_inverse_metric(chart, x)
    t = _lowered_christoffel(chart.dmetric(x))
    return 0.5 * np.einsum("...cd,...abd->...cab", ginv, t)


def inverse_metric(chart, x):
    """g^{ab}, shape (..., 4, 4), by the chart's own (closed-form) route."""
    return chart.inverse_metric(x)


def christoffel(chart, x):
    """Levi-Civita connection coefficients Gamma^c_ab, shape (..., 4, 4, 4)."""
    return chart.christoffel(x)


def christoffel_derivative(chart, x):
    """d_e Gamma^c_ab, shape (..., 4[e], 4[c], 4[a], 4[b]).

    Uses analytic d2metric; exact up to floating point for catalog charts.
    """
    ginv = chart.inverse_metric(x)
    dg = chart.dmetric(x)
    d2g = chart.d2metric(x)
    t = _lowered_christoffel(dg)
    # d_e t_abd
    dt = np.einsum("...eadb->...eabd", d2g) + np.einsum("...ebda->...eabd", d2g) \
        - np.einsum("...edab->...eabd", d2g)
    # d_e g^cd = - g^cm (d_e g_mn) g^nd
    dginv = -np.einsum("...cm,...emn,...nd->...ecd", ginv, dg, ginv)
    return 0.5 * (np.einsum("...ecd,...abd->...ecab", dginv, t)
                  + np.einsum("...cd,...eabd->...ecab", ginv, dt))


class CurvatureTensors:
    """Lowered Riemann tensor R_abcd and Ricci tensor R_ab at a point batch."""

    __slots__ = ("riemann", "ricci")

    def __init__(self, riemann, ricci):
        self.riemann = riemann
        self.ricci = ricci


def riemann(chart, x):
    """Curvature tensors from the analytic connection.

    Convention: R^r_smn = d_m Gamma^r_ns - d_n Gamma^r_ms
    + Gamma^r_ml Gamma^l_ns - Gamma^r_nl Gamma^l_ms, lowered on the first
    index; Ricci is the contraction R_mn = R^c_mcn.
    """
    if chart.flat:
        x = np.asarray(x, dtype=float)
        z4 = np.zeros(x.shape[:-1] + (4,) * 4)
        z2 = np.zeros(x.shape[:-1] + (4, 4))
        return CurvatureTensors(z4, z2)
    gamma = christoffel(chart, x)
    dgamma = christoffel_derivative(chart, x)
    up = (np.einsum("...mrns->...rsmn", dgamma)
          - np.einsum("...nrms->...rsmn", dgamma)
          + np.einsum("...rml,...lns->...rsmn", gamma, gamma)
          - np.einsum("...rnl,...lms->...rsmn", gamma, gamma))
    ricci = np.einsum("...cmcn->...mn", up)
    g = chart.metric(x)
    low = np.einsum("...ar,...rsmn->...asmn", g, up)
    return CurvatureTensors(low, ricci)


def kretschmann(chart, x):
    """Full curvature invariant R_abcd R^abcd."""
    R = riemann(chart, x).riemann
    ginv = inverse_metric(chart, x)
    Rup = np.einsum("...ae,...bf,...cg,...dh,...efgh->...abcd",
                    ginv, ginv, ginv, ginv, R)
    return np.einsum("...abcd,...abcd->...", R, Rup)


# ---------------------------------------------------------------------------
# Vector fields, frames, deformation tensor, Riemannian companion metric
# ---------------------------------------------------------------------------

class VectorField:
    """Vector field with value and Jacobian access.

    ``fn(x) -> (..., 4)``; ``jac(x) -> (..., 4[a], 4[mu]) = d_a V^mu`` may be
    given analytically, else a 4th-order central difference is used.
    """

    def __init__(self, fn, jac=None, step=1e-5):
        self.fn = fn
        self._jac = jac
        self.step = step

    def __call__(self, x):
        return np.asarray(self.fn(x), dtype=float)

    def jacobian(self, x):
        if self._jac is not None:
            return np.asarray(self._jac(x), dtype=float)
        return _fd_derivative(self.fn, np.asarray(x, dtype=float), self.step)


def coordinate_time_field():
    """The coordinate vector field d/dt."""
    def fn(x):
        x = np.asarray(x, dtype=float)
        v = np.zeros(x.shape[:-1] + (4,))
        v[..., 0] = 1.0
        return v

    def jac(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (4, 4))

    return VectorField(fn, jac=jac)


def unit_time_field(chart):
    """Future unit timelike field aligned with d/dt: that = (-g_tt)^(-1/2) d/dt."""
    def fn(x):
        g = chart.metric(x)
        v = np.zeros(np.shape(x)[:-1] + (4,))
        v[..., 0] = (-g[..., 0, 0]) ** -0.5
        return v

    return VectorField(fn, step=1e-5 * chart.coordinate_scale)


def covariant_jacobian(chart, x, field):
    """nabla_a V^mu = d_a V^mu + Gamma^mu_ab V^b, shape (..., 4[a], 4[mu])."""
    gamma = christoffel(chart, x)
    v = field(x)
    dv = field.jacobian(x)
    return dv + np.einsum("...mab,...b->...am", gamma, v)


def deformation_tensor(chart, x, field):
    """pi^{mu nu} = (nabla^mu V^nu + nabla^nu V^mu)/2 for a vector field V."""
    ginv = inverse_metric(chart, x)
    nab = covariant_jacobian(chart, x, field)      # (..., a, mu)
    up = np.einsum("...ma,...an->...mn", ginv, nab)
    return 0.5 * (up + np.swapaxes(up, -1, -2))


class Frame:
    """Orthonormal frame rows [that, n, e_a, e_b] with g(that,that) = -1."""

    __slots__ = ("vectors",)

    def __init__(self, vectors):
        self.vectors = as_points(vectors)

    @property
    def that(self):
        return self.vectors[..., 0, :]

    @property
    def spatial(self):
        return self.vectors[..., 1:, :]


def orthonormal_frame(chart, x, time_axis_hint=None):
    """Gram-Schmidt orthonormal frame with timelike leg along the hint.

    Batched over leading axes of ``x``.  Raises FrameError when the hint is
    not timelike at some point.
    """
    x = as_points(x)
    g = chart.metric(x)
    if time_axis_hint is None:
        hint = np.zeros(x.shape[:-1] + (4,), dtype=x.dtype)
        hint[..., 0] = 1.0
    else:
        hint = np.broadcast_to(as_points(time_axis_hint),
                               x.shape[:-1] + (4,)).copy()
    norm2 = np.einsum("...m,...mn,...n->...", hint, g, hint)
    if np.any(norm2.real >= 0):
        raise FrameError("time axis hint is not timelike")
    that = hint / np.sqrt(-norm2)[..., None]
    vecs = [that]
    for axis in (1, 2, 3, 0):
        cand = np.zeros(x.shape[:-1] + (4,), dtype=that.dtype)
        cand[..., axis] = 1.0
        for sign, v in zip((-1.0, 1.0, 1.0, 1.0), vecs):
            # minus sign: projector onto timelike leg flips with g(v,v) = -1
            proj = np.einsum("...m,...mn,...n->...", cand, g, v)
            cand = cand - sign * proj[..., None] * v
        n2 = np.einsum("...m,...mn,...n->...", cand, g, cand)
        if np.all(n2.real > 1e-20):
            vecs.append(cand / np.sqrt(n2)[..., None])
        if len(vecs) == 4:
            break
    if len(vecs) < 4:
        raise FrameError("could not complete orthonormal frame")
    return Frame(np.stack(vecs, axis=-2))


def h_metric(chart, x, that):
    """Riemannian companion metric h_ab = g_ab + 2 that_a that_b.

    ``that`` must be unit timelike; then h is positive definite and
    h(that, that) = +1.
    """
    g = chart.metric(x)
    that = np.asarray(that, dtype=float)
    tt = np.einsum("...m,...mn,...n->...", that, g, that)
    if np.any(np.abs(tt + 1.0) > 1e-8):
        raise FrameError("h_metric needs a unit timelike vector")
    tlow = np.einsum("...mn,...n->...m", g, that)
    return g + 2.0 * tlow[..., :, None] * tlow[..., None, :]
