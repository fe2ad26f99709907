"""Compact Lie algebra arithmetic and gauge-field operators.

Algebra elements are coefficient arrays of shape (..., dim) in a fixed
orthonormal basis (the Gram matrix of the Ad-invariant product is the
identity).  Gauge potentials and curvatures are analytic callables evaluated
at spacetime points; derivative-based residuals use 4th-order central
differences with a caller-controlled step.

The Cartan check runs them on a private frame algebra, outside the catalog:
4x4 matrices flattened (alpha, beta) -> 4 alpha + beta, with [X, Y] =
X eta Y - Y eta X, eta = diag(-1, 1, 1, 1).  Its basis is not orthonormal,
so only ``bracket`` uses it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

import numpy as np

from . import geometry


class AlgebraError(ValueError):
    pass


class AlgebraBasis:
    """Structure constants c[i, j, k] for [e_i, e_j] = c_ijk e_k."""

    def __init__(self, name, structure_constants):
        self.name = name
        self.c = np.asarray(structure_constants, dtype=float)
        self.dim = self.c.shape[0]

    @property
    def abelian(self):
        """True when every bracket vanishes: all structure constants zero."""
        return not np.any(self.c)

    def bracket(self, X, Y):
        """[X, Y] of coefficient ndarrays whose last axis is the algebra
        axis, broadcast over the other axes: one (..., dim^2) x (dim^2, dim)
        product over the pairs (i, j).  Inputs are used as given (no
        conversion); the per-call check is on the length of the last axis."""
        if X.shape[-1] != self.dim or Y.shape[-1] != self.dim:
            raise AlgebraError("element dimension does not match basis")
        outer = X[..., :, None] * Y[..., None, :]
        return outer.reshape(outer.shape[:-2] + (-1,)) \
            @ self.c.reshape(-1, self.dim)


def u1():
    return AlgebraBasis("u1", np.zeros((1, 1, 1)))


def _levi_civita():
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    return eps


def su2():
    """su(2) with <X,Y> = -2 tr(XY) normalization: orthonormal basis with
    [e_i, e_j] = eps_ijk e_k."""
    return AlgebraBasis("su2", _levi_civita())


ALGEBRA_CATALOG = {"u1": u1, "su2": su2}


@cache
def _frame_algebra():
    """[E_i, E_j] = E_i eta E_j - E_j eta E_i on the unit 4x4 matrices E_i,
    i = 4 alpha + beta."""
    E = np.eye(16).reshape(16, 4, 4)
    prod = (E * np.array([-1.0, 1.0, 1.0, 1.0]))[:, None] @ E
    return AlgebraBasis("frame", (prod - np.swapaxes(prod, 0, 1)).reshape(
        16, 16, 16))


def make_algebra(name):
    try:
        return ALGEBRA_CATALOG[name]()
    except KeyError:
        raise AlgebraError(
            f"unknown algebra {name!r}; catalog: {sorted(ALGEBRA_CATALOG)}"
        ) from None


# ---------------------------------------------------------------------------
# Analytic field containers
# ---------------------------------------------------------------------------

class _AnalyticField:
    """Algebra-valued tensor field ``fn(x)`` as a callable; ``jacobian(x)``
    puts d_a on a new axis right after the point axes, from the analytic
    ``jac`` when given, else by 4th-order central differences of ``step``.
    """

    def __init__(self, basis, fn, jac=None, step=1e-4):
        self.basis = basis
        self.fn = fn
        self._jac = jac
        self.step = step

    def __call__(self, x):
        return np.asarray(self.fn(x), dtype=float)

    def jacobian(self, x):
        if self._jac is not None:
            return np.asarray(self._jac(x), dtype=float)
        return geometry._fd_derivative(self.fn, np.asarray(x, float), self.step)


class GaugePotential(_AnalyticField):
    """Algebra-valued 1-form A_mu(x): ``fn(x) -> (..., 4, dim)``, jacobian
    d_a A_mu of shape (..., 4[a], 4[mu], dim)."""


class FieldStrength(_AnalyticField):
    """Algebra-valued 2-form F_{mu nu}(x), antisymmetric in the two slots:
    ``fn(x) -> (..., 4, 4, dim)``, jacobian d_a F_{mu nu} of shape
    (..., 4[a], 4, 4, dim)."""


# ---------------------------------------------------------------------------
# Gauge operators
# ---------------------------------------------------------------------------

def curvature_from_potential(A):
    """F_{mn} = d_m A_n - d_n A_m + [A_m, A_n] as a FieldStrength.

    The Levi-Civita terms cancel in the antisymmetrization, so no chart is
    needed; the abelian case reduces to the plain curl.
    """
    basis = A.basis

    def fn(x):
        dA = A.jacobian(x)                     # (..., a, mu, k)
        curl = dA - np.swapaxes(dA, -3, -2)
        a = A(x)
        return curl + basis.bracket(a[..., :, None, :], a[..., None, :, :])

    return FieldStrength(basis, fn, step=A.step)


def connect(f, gamma, a, basis):
    """-Gamma(V) on each spacetime index of ``f`` plus [A(V), f], for
    ``gamma`` = Gamma^g_ab V^b (..., 4[g], 4[a]) and ``a`` = A(V) (..., dim),
    None where they vanish, and the algebra ``basis`` whose bracket applies
    A(V).  ``f`` is an algebra-valued scalar (..., dim) or two-form (..., 4,
    4, dim), antisymmetric in its spacetime slots, so Gamma^g_n f_ag =
    -(Gamma^T f)_na and one product left = Gamma^T f gives swap(left) - left.
    Its leading axes broadcast against theirs, and axes past theirs (a seed
    axis) against size-1 axes.  Returns 0.0 when both are None.
    """
    out = 0.0
    if gamma is not None and f.ndim > gamma.ndim:      # a two-form
        gamma = gamma.reshape(gamma.shape[:-2]
                              + (1,) * (f.ndim - gamma.ndim - 1)
                              + gamma.shape[-2:])
        # left_an = Gamma^g_a f_gn as batched 4x4 products
        left = np.swapaxes(gamma, -1, -2) @ f.reshape(f.shape[:-2] + (-1,))
        left = left.reshape(left.shape[:-1] + f.shape[-2:])
        out = np.swapaxes(left, -3, -2) - left
    if a is not None:
        a = a.reshape(a.shape[:-1] + (1,) * (f.ndim - a.ndim) + a.shape[-1:])
        out = out + basis.bracket(a, f)
    return out


def gauge_covariant_derivative(chart, x, field, A):
    """D_a F_{mn} = d_a F_{mn} + ``connect`` along each coordinate vector
    d_a, whose Gamma(d_a)^g_m = Gamma^g_am.

    Returns (..., 4[a], 4[m], 4[n], dim).  ``field`` must expose
    ``__call__``, ``jacobian`` and ``basis`` like FieldStrength.  ``A`` is a
    GaugePotential, or None for no potential: then no bracket is formed and
    D is the Levi-Civita derivative.
    """
    x = np.asarray(x, dtype=float)
    gamma = np.swapaxes(geometry.christoffel(chart, x), -3, -2)
    return field.jacobian(x) + connect(field(x)[..., None, :, :, :], gamma,
                                       None if A is None else A(x),
                                       field.basis)


def ym_residual(chart, x, F, A):
    """Covariant divergence D^a F_{a b}; zero exactly on Yang-Mills solutions.

    ``A`` is a GaugePotential or None, as in
    ``gauge_covariant_derivative``.  Returns (..., 4[b], dim).
    """
    inv = chart.inverse_diagonal(x)
    DF = gauge_covariant_derivative(chart, x, F, A)  # (...,a,m,n,k)
    return np.einsum("...a,...aabk->...bk", inv, DF)


def wave_source(chart, x, f, basis, curv):
    """Right-hand side of the tensorial wave equation satisfied by F.

    S_{mn} = -2 R_{gmna} F^{ag} - R_{mg} F_n^g - R_{ng} F^g_m
             - 2 [F^a_m, F_{na}],
    antisymmetric in (m, n); vanishes for an abelian field on a flat chart.
    ``f`` holds the values F(x), (..., 4, 4, dim), in the algebra ``basis``.
    ``curv`` is ``geometry.riemann(chart, x)``, unused (may be None) on a
    flat chart.
    """
    inv = chart.inverse_diagonal(x)
    out = np.zeros_like(f)
    if not chart.flat:
        R, Ric = curv.riemann, curv.ricci
        fmixed = f * inv[..., None, :, None]                # F_n^g
        fupup = inv[..., :, None, None] * fmixed            # F^{ag}
        out = -2.0 * np.einsum("...gmna,...agi->...mni", R, fupup) \
            - np.einsum("...mg,...ngk->...mnk", Ric, fmixed) \
            + np.einsum("...ng,...mgk->...mnk", Ric, fmixed)  # -R_ng F^g_m
    if not basis.abelian:             # [F^a_m, F_na] per a
        comm = basis.bracket((inv[..., :, None, None] * f)[..., None, :],
                             np.swapaxes(f, -3, -2)[..., None, :, :])
        out = out - 2.0 * comm.sum(axis=-4)
    return out


# ---------------------------------------------------------------------------
# Cartan connection: frame geometry as a matrix-valued gauge field
# ---------------------------------------------------------------------------

class FrameField(namedtuple("FrameField", "fn jacobian")):
    """Smooth orthonormal frame field e_alpha^mu = fn(x), shape (..., 4, 4),
    with its derivative jacobian(x) = d_mu e_alpha^nu, (..., 4[mu], 4, 4).

    Rows are the frame legs; row 0 is the unit timelike leg.
    """

    def __call__(self, x):
        return self.fn(x)


def static_diagonal_frame(chart):
    """Frame field e_alpha = |g_{alpha alpha}|^{-1/2} d_alpha for diagonal
    metrics, differentiated in closed form from ``chart.ddiagonal``."""
    sign = np.array([-1.0, 1.0, 1.0, 1.0])

    def fn(x):
        d = chart.diagonal(x) * sign
        return np.einsum("...a,ab->...ab", d ** -0.5, np.eye(4))

    def jac(x):                 # d_mu e_a = -e_a^3 d_mu |g_aa| / 2
        return -0.5 * fn(x)[..., None, :, :] ** 3 \
            * (chart.ddiagonal(x) * sign)[..., :, :, None]

    return FrameField(fn, jac)


def cartan_connection(chart, frame_field):
    """Connection matrices (A_mu)_{alpha beta} = g(nabla_mu e_beta, e_alpha).

    Returns a callable x -> (..., 4[mu], 4[alpha], 4[beta]); each matrix is
    antisymmetric after raising/lowering frame indices with eta, i.e.
    A_{alpha beta} = -A_{beta alpha} where indices are moved with the frame
    metric diag(-1,1,1,1).
    """
    def fn(x):
        x_ = np.asarray(x, dtype=float)
        e = frame_field(x_)                    # (..., beta, mu)
        # nabla_mu e_beta^nu = d_mu e_beta^nu + Gamma^nu_{mu r} e_beta^r in
        # the jacobian's layout (..., mu, beta, nu)
        nab = frame_field.jacobian(x_) + np.moveaxis(
            chart.christoffel_along(x_[..., None, :], e), -1, -3)
        g = chart.diagonal(x_)
        return np.einsum("...r,...ar,...mbr->...mab", g, e, nab)

    return fn


def _cartan_potential(chart, frame_field, step):
    """``cartan_connection`` as a potential in the frame algebra."""
    conn = cartan_connection(chart, frame_field)
    return GaugePotential(_frame_algebra(), lambda x: conn(x).reshape(
        np.shape(x)[:-1] + (4, 16)), step=step)


def cartan_curvature(chart, frame_field, step=1e-4):
    """Curvature of the Cartan connection, ``curvature_from_potential`` in
    the frame algebra: (F_{mu nu})_{alpha beta}, a callable x -> (..., 4[mu],
    4[nu], 4[alpha], 4[beta])."""
    F = curvature_from_potential(_cartan_potential(chart, frame_field, step))
    return lambda x: F(x).reshape(np.shape(x)[:-1] + (4, 4, 4, 4))


def cartan_ym_residual(chart, x, frame_field, step=1e-4, curvature=None):
    """Covariant divergence of the Cartan curvature, D^mu (F_{mu nu})_{ab},
    as ``ym_residual`` in the frame algebra; F(x) is ``curvature`` if given.

    Vanishes for Ricci-flat charts.  Returns (..., 4[nu], 4, 4).
    """
    A = _cartan_potential(chart, frame_field, step)
    F = curvature_from_potential(A)
    if curvature is not None:
        f = curvature.reshape(np.shape(x)[:-1] + (4, 4, 16))
        F = FieldStrength(F.basis, lambda _: f, jac=F.jacobian)
    return ym_residual(chart, x, F, A).reshape(np.shape(x)[:-1] + (4, 4, 4))
