"""Lorentzian chart catalog and pointwise geometric operators.

Charts carry an analytic diagonal metric and its analytic first
derivatives, vectorized over trailing point axes: every operator accepts
``x`` of shape ``(..., 4)`` and returns arrays with matching leading axes.
Signature is (-,+,+,+) and units have c = 1.  Curvature is an operator on
the bivectors ``BIVECTORS``, from g_aa and its derivatives alone.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

DEGENERATE_DET = 1e-12
#: imaginary step of the complex-step derivative ``diagonal_hessian``
COMPLEX_STEP = 1e-20

#: the rows e_a ^ e_b, a < b, of a bivector: 01, 02, 03, 12, 13, 23
BIVECTORS = (np.array([0, 0, 0, 1, 1, 2]), np.array([1, 2, 3, 2, 3, 3]))
# e_a ^ e_b is _SIGN[a, b] (0.0 for a = b) times the row _ROW[a, b]
_ROW = np.zeros((4, 4), dtype=int)
_ROW[BIVECTORS] = _ROW[BIVECTORS[::-1]] = np.arange(6)
_SIGN = np.sign(np.arange(4) - np.arange(4)[:, None]).astype(float)


class GeometryError(ValueError):
    """Base class for geometric failures."""


class DegenerateMetricError(GeometryError):
    """Metric determinant below the degeneracy threshold."""


class FrameError(GeometryError):
    """The time axis hint of an orthonormal frame is not timelike."""


def as_points(x):
    """``x`` as a float array, or as a complex one when it is complex.

    Complex points carry the complex step of ``diagonal_hessian`` through
    ``Chart.ddiagonal`` (and the test oracles' step of Gamma through the
    diagonal, its reciprocal and ``christoffel``); every other operator
    takes real points.
    """
    x = np.asarray(x)
    return x if np.iscomplexobj(x) else x.astype(float, copy=False)


# ---------------------------------------------------------------------------
# Charts
# ---------------------------------------------------------------------------

class Chart:
    """Analytic metric, diagonal in its coordinates, on a coordinate patch.

    Every catalog chart is diagonal.  Subclasses implement its diagonal g_aa
    and the diagonal's first derivatives in closed form, and declare the
    coordinates it does not depend on (``ignorable``), its one symmetry.
    The reciprocal 1/g_aa (``inverse_diagonal``) follows here; the module
    functions ``inverse_metric`` and ``christoffel`` build the full forms
    from these, ``diagonal_hessian`` takes d_e d_f g_aa as the complex step
    of ``ddiagonal``, and ``riemann`` builds the curvature from the three.
    The only nonzero symbols are Gamma^c_ac = Gamma^c_ca = d_a g_cc / 2 g_cc
    and Gamma^c_aa = -d_c g_aa / 2 g_cc.  Code outside this module reads the
    diagonal and contracts Gamma with a vector by ``christoffel_along``; the
    full Gamma serves ``liegauge.gauge_covariant_derivative`` and the test
    oracles.
    """

    name = "chart"
    coordinate_scale = 1.0
    #: True when the Ricci tensor vanishes identically (a vacuum metric)
    ricci_flat = False
    #: coordinates the metric does not depend on: d_e g = 0, so the complex
    #: step of ``diagonal_hessian`` along them is skipped; t among them
    #: makes d/dt Killing, and ``energy.bulk_term`` 0
    ignorable = ()
    #: where ``contains`` holds, for error messages
    domain = ("the metric diagonal is finite with signature (-,+,+,+) and "
              "|det g| >= DEGENERATE_DET")

    # diagonal[..., a] = g_aa
    def diagonal(self, x):
        raise NotImplementedError

    # ddiagonal[..., e, a] = d_e g_aa
    def ddiagonal(self, x):
        raise NotImplementedError

    @property
    def flat(self):
        """``ignorable`` holds all four coordinates: Gamma == 0 identically."""
        return len(self.ignorable) == 4

    def default_vertex(self):
        """The cone vertex of a scenario that names none; inside the chart."""
        return np.zeros(4)

    def contains(self, x):
        """True where x lies in the chart, as ``domain`` says: where
        ``inverse_diagonal`` holds too."""
        with np.errstate(all="ignore"):
            d = self.diagonal(x)
            det = np.abs(np.prod(d, axis=-1))
        return np.isfinite(d).all(axis=-1) & (d[..., 0] < 0) \
            & (d[..., 1:] > 0).all(axis=-1) & np.isfinite(det) \
            & (det >= DEGENERATE_DET)

    def rays_outside(self, x):
        """Mask of the rays of one cone slice ``x`` that left the chart."""
        return ~self.contains(x)

    def inverse_diagonal(self, x):
        """1/g_aa, shape (..., 4); raises DegenerateMetricError where
        |det g| < DEGENERATE_DET."""
        d = self.diagonal(x)
        _require_nondegenerate(np.prod(d, axis=-1), self.name)
        return 1.0 / d

    def christoffel_along(self, x, v):
        """Gamma^c_ab v^b, shape (..., 4[c], 4[a]), for ``v`` (..., 4)
        broadcasting against ``x``: with h_c = 1/2g_cc, h_c (v^c d_a g_cc -
        v^a d_c g_aa) off the diagonal and h_c (v . d) g_cc on it."""
        dd = self.ddiagonal(x)                  # [a, c] = d_a g_cc
        h = 0.5 * self.inverse_diagonal(x)
        v = np.asarray(v)
        out = np.swapaxes(dd, -1, -2) * v[..., :, None] \
            - dd * v[..., None, :]
        i = np.arange(4)
        out[..., i, i] = (v[..., None, :] @ dd)[..., 0, :]
        out *= h[..., :, None]
        return out

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


def _dot(d, u, v):
    """g(u, v) = sum_a g_aa u^a v^a from the metric diagonal ``d``."""
    return np.einsum("...m,...m,...m->...", d, u, v)


class Minkowski(Chart):
    name = "minkowski"
    ricci_flat = True
    ignorable = (0, 1, 2, 3)

    def diagonal(self, x):
        d = _zeros(as_points(x), 4) + 1.0
        d[..., 0] = -1.0
        return d

    def ddiagonal(self, x):
        return _zeros(as_points(x), 4, 4)

    def christoffel_along(self, x, v):
        return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(v)) + (4,))


class Schwarzschild(Chart):
    """Schwarzschild metric in Schwarzschild coordinates (t, r, theta, phi).

    Valid for r > 2M away from the axis; the horizon is excluded by the
    determinant threshold.
    """

    name = "schwarzschild"
    ricci_flat = True
    ignorable = (0, 3)
    domain = Chart.domain + " and 0 < theta < pi"

    def __init__(self, mass=1.0):
        self.mass = float(mass)
        self.coordinate_scale = max(1.0, 10.0 * self.mass)

    def default_vertex(self):
        return np.array([0.0, self.coordinate_scale, np.pi / 2, 0.0])

    def contains(self, x):
        th = np.asarray(x, dtype=float)[..., 2]
        return super().contains(x) & (th > 0.0) & (th < np.pi)

    def rays_outside(self, x):
        """Also the ray nearest the polar axis once the slice's azimuths
        leave no gap of pi or more: the axis then pierces the hull of its
        points, so rays between them cross it."""
        out = super().rays_outside(x)
        phi = np.sort(np.mod(x[..., 3], 2.0 * np.pi), axis=None)
        if np.max(np.diff(phi, append=phi[0] + 2.0 * np.pi)) < np.pi:
            near = np.argmin(np.abs(np.sin(x[..., 2])))
            out[np.unravel_index(near, out.shape)] = True
        return out

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


class SchwarzschildIsotropic(Chart):
    """Schwarzschild metric in isotropic Cartesian coordinates (t, x, y, z).

    g = -((1-m)/(1+m))^2 dt^2 + (1+m)^4 (dx^2+dy^2+dz^2), m = M/(2 rho).
    No polar-axis singularity, which makes it the chart of choice for null
    cone fans.
    """

    name = "schwarzschild-isotropic"
    ricci_flat = True
    ignorable = (0,)

    def __init__(self, mass=1.0):
        self.mass = float(mass)
        self.coordinate_scale = max(1.0, 10.0 * self.mass)

    def default_vertex(self):
        return np.array([0.0, self.coordinate_scale, 0.0, 0.0])

    def _profiles(self, x):
        """The unit radial n = grad rho, and g_tt = N, g_ii = B with their
        rho derivatives."""
        rho = np.sqrt(np.sum(x[..., 1:] ** 2, axis=-1))
        m = self.mass / (2.0 * rho)
        dm = -self.mass / (2.0 * rho ** 2)
        q = (1.0 - m) / (1.0 + m)
        # dq/dm = -2/(1+m)^2
        N = -q ** 2
        dN_dm = -2.0 * q * (-2.0 / (1.0 + m) ** 2)
        B = (1.0 + m) ** 4
        dB_dm = 4.0 * (1.0 + m) ** 3
        n = x[..., 1:] / rho[..., None]
        # chain rule to rho
        return n, (N, dN_dm * dm), (B, dB_dm * dm)

    def diagonal(self, x):
        _, (N, _), (B, _) = self._profiles(as_points(x))
        return np.stack([N, B, B, B], axis=-1)

    def ddiagonal(self, x):
        x = as_points(x)
        n, (_, dN), (_, dB) = self._profiles(x)
        dd = _zeros(x, 4, 4)
        dd[..., 1:, 0] = dN[..., None] * n
        dd[..., 1:, 1:] = (dB[..., None] * n)[..., None]
        return dd


class FLRW(Chart):
    """Spatially flat power-law FLRW: g = -dt^2 + t^(2p) (dx^2+dy^2+dz^2)."""

    name = "flrw"
    ignorable = (1, 2, 3)

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


def inverse_metric(chart, x):
    """g^{ab} = 1/g_aa on the diagonal, shape (..., 4, 4)."""
    return _embed(chart.inverse_diagonal(x))


def christoffel(chart, x):
    """Levi-Civita connection coefficients Gamma^c_ab, shape (..., 4, 4, 4)."""
    return _scatter_christoffel(chart.ddiagonal(x),
                                0.5 * chart.inverse_diagonal(x))


def diagonal_hessian(chart, x):
    """d_e d_f g_aa, shape (..., 4[e], 4[f], 4[a]): for each e the complex
    step Im ddiagonal(x + i h e_e) / h, h = COMPLEX_STEP, which is exact to
    roundoff.  Along the chart's ``ignorable`` coordinates it is exact zeros
    and no step is taken."""
    x = np.asarray(x, dtype=float)
    out = _zeros(x, 4, 4, 4)
    z = x.astype(complex)
    for e in range(4):
        if e in chart.ignorable:
            continue
        z[..., e] += 1j * COMPLEX_STEP
        out[..., e, :, :] = chart.ddiagonal(z).imag / COMPLEX_STEP
        z[..., e] = x[..., e]
    return out


class Curvature(namedtuple("Curvature", "bivector ricci")):
    """bivector[..., J, K] = R_abcd for the rows J = (a, b), K = (c, d) of
    ``BIVECTORS``, (..., 6, 6), and the Ricci tensor, (..., 4, 4)."""

    @property
    def riemann(self):
        """R_abcd, (..., 4, 4, 4, 4), for the Cartan check and the tests."""
        return self.bivector[..., _ROW[:, :, None, None], _ROW] \
            * (_SIGN[:, :, None, None] * _SIGN)


# (b, c, a) of T_bca for the entries R_abac, b < c, then T_bba and T_aab for
# the diagonal rows (a, b)
_TERMS = np.hstack([np.array([(b, c, a) for a in range(4)
                              for b, c in zip(*BIVECTORS)
                              if a not in (b, c)]).T,
                    np.array(BIVECTORS)[[1, 1, 0]],
                    np.array(BIVECTORS)[[0, 0, 1]]])


def riemann(chart, x):
    """Curvature of the chart's diagonal metric, a ``Curvature``.

    Convention: R^r_smn = d_m Gamma^r_ns - d_n Gamma^r_ms
    + Gamma^r_ml Gamma^l_ns - Gamma^r_nl Gamma^l_ms, lowered on the first
    index; Ricci is R_mn = R^c_mcn = sum_c R_cmcn / g_cc.  With G_ea =
    d_e g_aa, h_a = 1/g_aa and no sums, R_abcd = 0 for distinct a, b, c, d,
    and T_bca = -d_b d_c g_aa / 2 + (G_ba (G_ca h_a + G_cb h_b) + G_ca G_bc
    h_c) / 4 gives R_abac = T_bca (a, b, c distinct) and R_abab = T_bba +
    T_aab - sum_e G_ea G_eb h_e / 4, so at most 18 of the 21 entries are
    nonzero.  Raises DegenerateMetricError where |det g| < DEGENERATE_DET.
    """
    x = np.asarray(x, dtype=float)
    h = chart.inverse_diagonal(x)
    G = chart.ddiagonal(x)                      # [e, a] = d_e g_aa
    Gh = G * h[..., None, :]
    b, c, a = _TERMS
    T = 0.25 * (G[..., b, a] * (Gh[..., c, a] + Gh[..., c, b])
                + G[..., c, a] * Gh[..., b, c]) \
        - 0.5 * diagonal_hessian(chart, x)[..., b, c, a]
    out = np.zeros(x.shape[:-1] + (6, 6))
    b, c, a = _TERMS[:, :12]
    out[..., _ROW[a, b], _ROW[a, c]] = out[..., _ROW[a, c], _ROW[a, b]] = \
        _SIGN[a, b] * _SIGN[a, c] * T[..., :12]
    a, b = BIVECTORS
    out[..., range(6), range(6)] = T[..., 12:18] + T[..., 18:] - 0.25 * (
        np.swapaxes(G, -1, -2) @ (h[..., :, None] * G))[..., a, b]
    cmcn = out[..., _ROW[:, :, None], _ROW[:, None, :]]     # R_cmcn, unsigned
    return Curvature(out, np.einsum("...c,cmn,...cmn->...mn", h,
                                    _SIGN[:, :, None] * _SIGN[:, None, :],
                                    cmcn))


def wedge(u, v):
    """The bivector u ^ v in the rows of ``BIVECTORS``, shape (..., 6):
    u^a v^b - u^b v^a for each row (a, b)."""
    a, b = BIVECTORS
    return u[..., a] * v[..., b] - u[..., b] * v[..., a]


def two_form(w):
    """The antisymmetric (..., 4, 4, k) form w_ab whose bivector rows are
    ``w`` (..., 6, k): w_ab = w[row (a, b)] for a < b."""
    return np.take(w, _ROW, axis=-2) * _SIGN[:, :, None]


# ---------------------------------------------------------------------------
# Time normal and frames
# ---------------------------------------------------------------------------

def unit_time(chart, x):
    """Future unit timelike vector along d/dt, (-g_tt)^(-1/2) d/dt, shape
    (..., 4)."""
    x = np.asarray(x, dtype=float)
    v = np.zeros(x.shape)
    v[..., 0] = (-chart.diagonal(x)[..., 0]) ** -0.5
    return v


def orthonormal_frame(chart, x, time_axis_hint):
    """Orthonormal rows [that, e_1, e_2, e_3], shape (..., 4, 4), with
    g(that, that) = -1: Gram-Schmidt on the unit ``time_axis_hint`` (the
    cone's T_p), then on d_1, d_2 and d_3, with g(u, v) = sum_a g_aa u^a v^a.

    No step degenerates: d_i projected off that has norm g_ii + g(d_i, that)^2
    > 0, and the three projections are independent because that has a
    nonzero t component.  Batched over leading axes of ``x``.  Raises
    FrameError when the hint is not timelike at some point.
    """
    x = np.asarray(x, dtype=float)
    d = chart.diagonal(x)
    hint = np.broadcast_to(np.asarray(time_axis_hint, dtype=float), x.shape)
    norm2 = _dot(d, hint, hint)
    if np.any(norm2 >= 0):
        raise FrameError("time axis hint is not timelike")
    vecs = [hint / np.sqrt(-norm2)[..., None]]
    for axis in (1, 2, 3):
        cand = np.zeros(x.shape)
        cand[..., axis] = 1.0
        for sign, v in zip((-1.0, 1.0, 1.0), vecs):
            # minus sign: projector onto timelike leg flips with g(v,v) = -1
            cand = cand - sign * _dot(d, cand, v)[..., None] * v
        vecs.append(cand / np.sqrt(_dot(d, cand, cand))[..., None])
    return np.stack(vecs, axis=-2)
