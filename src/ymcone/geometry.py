"""Lorentzian chart catalog and pointwise geometric operators.

Charts carry an analytic diagonal metric with analytic first and second
derivatives, vectorized over trailing point axes: every operator accepts
``x`` of shape ``(..., 4)`` and returns arrays with matching leading axes.
Signature is (-,+,+,+) and units have c = 1.
"""

from __future__ import annotations

from collections import namedtuple

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
    symbols, ``unit_time_field`` and ``orthonormal_frame`` keep them complex.
    """
    x = np.asarray(x)
    return x if np.iscomplexobj(x) else x.astype(float, copy=False)


# ---------------------------------------------------------------------------
# Charts
# ---------------------------------------------------------------------------

class Chart:
    """Analytic metric, diagonal in its coordinates, on a coordinate patch.

    Every catalog chart is diagonal.  Subclasses implement its diagonal g_aa
    and the first and second derivatives of the diagonal in closed form; the
    reciprocal 1/g_aa (``inverse_diagonal``), the full metric and its
    derivatives, the inverse metric and the Christoffel symbols with their
    derivative follow here.  The only nonzero symbols are Gamma^c_ac =
    Gamma^c_ca = d_a g_cc / 2 g_cc and Gamma^c_aa = -d_c g_aa / 2 g_cc.
    Code outside this module reads the diagonal; the (..., 4, 4) forms serve
    ``orthonormal_frame`` and the generic oracles.
    """

    name = "chart"
    coordinate_scale = 1.0
    #: True when Gamma, hence the curvature, vanishes identically in these
    #: coordinates (lets hot loops skip work).
    flat = False
    #: True when the Ricci tensor vanishes identically (a vacuum metric)
    ricci_flat = False

    # diagonal[..., a] = g_aa
    def diagonal(self, x):
        raise NotImplementedError

    # ddiagonal[..., e, a] = d_e g_aa
    def ddiagonal(self, x):
        raise NotImplementedError

    # d2diagonal[..., e, f, a] = d_e d_f g_aa
    def d2diagonal(self, x):
        raise NotImplementedError

    def default_vertex(self):
        """The cone vertex of a scenario that names none; inside the chart."""
        return np.zeros(4)

    def contains(self, x):
        """True where x lies in the chart: the metric diagonal there is
        finite with signature (-,+,+,+)."""
        with np.errstate(all="ignore"):
            d = self.diagonal(x)
        return np.isfinite(d).all(axis=-1) & (d.real[..., 0] < 0) \
            & (d.real[..., 1:] > 0).all(axis=-1)

    def metric(self, x):
        return _embed(self.diagonal(x))

    # dmetric[..., a, m, n] = d_a g_mn
    def dmetric(self, x):
        return _embed(self.ddiagonal(x))

    # d2metric[..., a, b, m, n] = d_a d_b g_mn
    def d2metric(self, x):
        return _embed(self.d2diagonal(x))

    def inverse_diagonal(self, x):
        """1/g_aa, shape (..., 4); raises DegenerateMetricError where
        |det g| < DEGENERATE_DET."""
        d = self.diagonal(x)
        _require_nondegenerate(np.prod(d, axis=-1), self.name)
        return 1.0 / d

    def inverse_metric(self, x):
        """g^{ab} = 1/g_aa on the diagonal, shape (..., 4, 4)."""
        return _embed(self.inverse_diagonal(x))

    def christoffel(self, x):
        """Gamma^c_ab, shape (..., 4, 4, 4)."""
        return _scatter_christoffel(self.ddiagonal(x),
                                    0.5 * self.inverse_diagonal(x))

    def christoffel_derivative(self, x):
        """d_e Gamma^c_ab, shape (..., 4[e], 4[c], 4[a], 4[b]).

        With h_c = 1/2g_cc: d_e Gamma^c_ab = h_c d_e(2 g_cc Gamma^c_ab)
        - Gamma^c_ab d_e g_cc / g_cc.
        """
        h = 0.5 * self.inverse_diagonal(x)
        dd = self.ddiagonal(x)
        rate = 2.0 * h[..., None, :] * dd       # [e, c] = d_e g_cc / g_cc
        return _scatter_christoffel(self.d2diagonal(x), h[..., None, :]) \
            - _scatter_christoffel(dd, h)[..., None, :, :, :] \
            * rate[..., :, :, None, None]

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"


def _embed(d):
    """The diagonal matrices with diagonal ``d[..., a]``, shape (..., 4, 4)."""
    out = np.zeros(d.shape + (4,), dtype=d.dtype)
    i = np.arange(4)
    out[..., i, i] = d
    return out


def _scatter_christoffel(dd, h):
    """Gamma-shaped (..., 4[c], 4[a], 4[b]) from dd[..., a, c] = d_a g_cc.

    Sets Gamma^c_aa = -h_c d_c g_aa, then Gamma^c_ac = Gamma^c_ca =
    h_c d_a g_cc (which wins at a = c); every other entry is zero.
    """
    out = np.zeros(dd.shape[:-2] + (4, 4, 4), dtype=np.result_type(dd, h))
    i = np.arange(4)
    out[..., :, i, i] = -(h[..., :, None] * dd)
    mixed = h[..., None, :] * dd                        # [a, c]
    np.swapaxes(out, -3, -2)[..., :, i, i] = mixed
    out[..., i, i, :] = np.swapaxes(mixed, -1, -2)
    return out


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


def _zeros(x, *tail):
    return np.zeros(x.shape[:-1] + tail, dtype=x.dtype)


class Minkowski(Chart):
    name = "minkowski"
    flat = True
    ricci_flat = True

    def diagonal(self, x):
        d = _zeros(as_points(x), 4) + 1.0
        d[..., 0] = -1.0
        return d

    def ddiagonal(self, x):
        return _zeros(as_points(x), 4, 4)

    def d2diagonal(self, x):
        return _zeros(as_points(x), 4, 4, 4)

    def christoffel(self, x):
        return _zeros(as_points(x), 4, 4, 4)


class Schwarzschild(Chart):
    """Schwarzschild metric in Schwarzschild coordinates (t, r, theta, phi).

    Valid for r > 2M away from the axis; the horizon is excluded by the
    determinant threshold.
    """

    name = "schwarzschild"
    ricci_flat = True

    def __init__(self, mass=1.0):
        self.mass = float(mass)
        self.coordinate_scale = max(1.0, 10.0 * self.mass)

    def default_vertex(self):
        return np.array([0.0, self.coordinate_scale, np.pi / 2, 0.0])

    def _polar(self, x):
        """The points, r, theta and f = 1 - 2M/r."""
        x = as_points(x)
        return x, x[..., 1], x[..., 2], 1.0 - 2.0 * self.mass / x[..., 1]

    def diagonal(self, x):
        _, r, th, f = self._polar(x)
        return np.stack([-f, 1.0 / f, r ** 2, (r * np.sin(th)) ** 2], axis=-1)

    def ddiagonal(self, x):
        x, r, th, f = self._polar(x)
        M = self.mass
        dd = _zeros(x, 4, 4)
        dd[..., 1, 0] = -2.0 * M / r ** 2
        dd[..., 1, 1] = -(2.0 * M / r ** 2) / f ** 2
        dd[..., 1, 2] = 2.0 * r
        dd[..., 1, 3] = 2.0 * r * np.sin(th) ** 2
        dd[..., 2, 3] = 2.0 * r ** 2 * np.sin(th) * np.cos(th)
        return dd

    def d2diagonal(self, x):
        x, r, th, f = self._polar(x)
        M = self.mass
        s, c = np.sin(th), np.cos(th)
        d2 = _zeros(x, 4, 4, 4)
        d2[..., 1, 1, 0] = 4.0 * M / r ** 3
        # d/dr of -(2M/r^2) f^-2: (4M/r^3) f^-2 + (2M/r^2)(2)(2M/r^2) f^-3
        d2[..., 1, 1, 1] = (4.0 * M / r ** 3) / f ** 2 \
            + 2.0 * (2.0 * M / r ** 2) ** 2 / f ** 3
        d2[..., 1, 1, 2] = 2.0
        d2[..., 1, 1, 3] = 2.0 * s ** 2
        d2[..., 1, 2, 3] = 4.0 * r * s * c
        d2[..., 2, 1, 3] = 4.0 * r * s * c
        d2[..., 2, 2, 3] = 2.0 * r ** 2 * (c ** 2 - s ** 2)
        return d2


class SchwarzschildIsotropic(Chart):
    """Schwarzschild metric in isotropic Cartesian coordinates (t, x, y, z).

    g = -((1-m)/(1+m))^2 dt^2 + (1+m)^4 (dx^2+dy^2+dz^2), m = M/(2 rho).
    No polar-axis singularity, which makes it the chart of choice for null
    cone fans.
    """

    name = "schwarzschild-isotropic"
    ricci_flat = True

    def __init__(self, mass=1.0):
        self.mass = float(mass)
        self.coordinate_scale = max(1.0, 10.0 * self.mass)

    def default_vertex(self):
        return np.array([0.0, self.coordinate_scale, 0.0, 0.0])

    def _profiles(self, x):
        """rho, the unit radial n = grad rho, and g_tt = N, g_ii = B with
        their first and second rho derivatives."""
        rho = np.sqrt(np.sum(x[..., 1:] ** 2, axis=-1))
        m = self.mass / (2.0 * rho)
        dm = -self.mass / (2.0 * rho ** 2)
        d2m = self.mass / rho ** 3
        q = (1.0 - m) / (1.0 + m)
        # dq/dm = -2/(1+m)^2
        N = -q ** 2
        dN_dm = -2.0 * q * (-2.0 / (1.0 + m) ** 2)
        d2N_dm = -2.0 * (-2.0 / (1.0 + m) ** 2) ** 2 \
            + (-2.0 * q) * (4.0 / (1.0 + m) ** 3)
        B = (1.0 + m) ** 4
        dB_dm = 4.0 * (1.0 + m) ** 3
        d2B_dm = 12.0 * (1.0 + m) ** 2
        # chain rule to rho
        dN = dN_dm * dm
        d2N = d2N_dm * dm ** 2 + dN_dm * d2m
        dB = dB_dm * dm
        d2B = d2B_dm * dm ** 2 + dB_dm * d2m
        n = x[..., 1:] / rho[..., None]
        return rho, n, (N, dN, d2N), (B, dB, d2B)

    def diagonal(self, x):
        _, _, (N, _, _), (B, _, _) = self._profiles(as_points(x))
        return np.stack([N, B, B, B], axis=-1)

    def ddiagonal(self, x):
        x = as_points(x)
        _, n, (_, dN, _), (_, dB, _) = self._profiles(x)
        dd = _zeros(x, 4, 4)
        dd[..., 1:, 0] = dN[..., None] * n
        dd[..., 1:, 1:] = (dB[..., None] * n)[..., None]
        return dd

    def d2diagonal(self, x):
        x = as_points(x)
        rho, n, (_, dN, d2N), (_, dB, d2B) = self._profiles(x)
        # d_a d_b rho = (delta_ab - n_a n_b)/rho
        nn = n[..., :, None] * n[..., None, :]
        hess_rho = (np.eye(3) - nn) / rho[..., None, None]
        d2 = _zeros(x, 4, 4, 4)
        d2[..., 1:, 1:, 0] = d2N[..., None, None] * nn \
            + dN[..., None, None] * hess_rho
        d2[..., 1:, 1:, 1:] = (d2B[..., None, None] * nn
                               + dB[..., None, None] * hess_rho)[..., None]
        return d2


class FLRW(Chart):
    """Spatially flat power-law FLRW: g = -dt^2 + t^(2p) (dx^2+dy^2+dz^2)."""

    name = "flrw"

    def __init__(self, power=1.0):
        self.power = float(power)

    def default_vertex(self):
        """t = 2(1 + p): its past light rays reach a = 0 at s = 2."""
        return np.array([2.0 * (1.0 + self.power), 0.0, 0.0, 0.0])

    def diagonal(self, x):
        x = as_points(x)
        a2 = x[..., 0] ** (2.0 * self.power)
        return np.stack([-np.ones_like(a2), a2, a2, a2], axis=-1)

    def ddiagonal(self, x):
        x = as_points(x)
        p = self.power
        dd = _zeros(x, 4, 4)
        dd[..., 0, 1:] = (2.0 * p * x[..., 0] ** (2.0 * p - 1.0))[..., None]
        return dd

    def d2diagonal(self, x):
        x = as_points(x)
        p = self.power
        d2 = _zeros(x, 4, 4, 4)
        d2[..., 0, 0, 1:] = (2.0 * p * (2.0 * p - 1.0)
                             * x[..., 0] ** (2.0 * p - 2.0))[..., None]
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
    """d_e Gamma^c_ab, shape (..., 4[e], 4[c], 4[a], 4[b]), in closed form."""
    return chart.christoffel_derivative(x)


def generic_christoffel_derivative(chart, x):
    """d_e Gamma^c_ab from the LAPACK inverse, ``dmetric`` and ``d2metric``;
    valid on any chart."""
    ginv = generic_inverse_metric(chart, x)
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


#: lowered Riemann tensor R_abcd and Ricci tensor R_ab at a point batch
CurvatureTensors = namedtuple("CurvatureTensors", "riemann ricci")


def riemann(chart, x):
    """Curvature tensors from the analytic connection.

    Convention: R^r_smn = d_m Gamma^r_ns - d_n Gamma^r_ms
    + Gamma^r_ml Gamma^l_ns - Gamma^r_nl Gamma^l_ms, lowered on the first
    index; Ricci is the contraction R_mn = R^c_mcn.
    """
    if chart.flat:
        x = np.asarray(x, dtype=float)
        return CurvatureTensors(_zeros(x, 4, 4, 4, 4), _zeros(x, 4, 4))
    gamma = christoffel(chart, x)
    # half[r, s, m, n] = d_m Gamma^r_ns + Gamma^r_ml Gamma^l_ns
    half = np.einsum("...mrns->...rsmn", christoffel_derivative(chart, x)) \
        + np.einsum("...rml,...lns->...rsmn", gamma, gamma)
    up = half - np.swapaxes(half, -1, -2)
    ricci = np.einsum("...cmcn->...mn", up)
    low = chart.diagonal(x)[..., :, None, None, None] * up
    return CurvatureTensors(low, ricci)


def kretschmann(chart, x):
    """Full curvature invariant R_abcd R^abcd, raising each index by 1/g_aa."""
    R = riemann(chart, x).riemann
    inv = chart.inverse_diagonal(x)
    return np.einsum("...abcd,...a,...b,...c,...d,...abcd->...",
                     R, inv, inv, inv, inv, R)


# ---------------------------------------------------------------------------
# Vector fields, frames, deformation tensor
# ---------------------------------------------------------------------------

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


def unit_time_field(chart):
    """Future unit timelike field aligned with d/dt: that = (-g_tt)^(-1/2) d/dt.

    Returns the map x -> that(x), shape (..., 4).
    """
    def fn(x):
        x = as_points(x)
        v = _zeros(x, 4)
        v[..., 0] = (-chart.diagonal(x)[..., 0]) ** -0.5
        return v

    return fn


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
