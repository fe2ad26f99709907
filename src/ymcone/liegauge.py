"""Compact Lie algebra arithmetic and gauge-field operators.

Algebra elements are coefficient arrays of shape (..., dim) in a fixed
orthonormal basis (the Gram matrix of the Ad-invariant product is the
identity).  Gauge potentials and curvatures are analytic callables evaluated
at spacetime points; derivative-based residuals use 4th-order central
differences with a caller-controlled step.
"""

from __future__ import annotations

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
        self.gram = np.eye(self.dim)

    def bracket(self, X, Y):
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if X.shape[-1] != self.dim or Y.shape[-1] != self.dim:
            raise AlgebraError("element dimension does not match basis")
        # one (..., dim^2) x (dim^2, dim) product over the pairs (i, j)
        outer = X[..., :, None] * Y[..., None, :]
        return outer.reshape(outer.shape[:-2] + (-1,)) \
            @ self.c.reshape(-1, self.dim)

    def inner(self, X, Y):
        return np.einsum("...i,...i->...", X, Y)

    def norm(self, X):
        return np.sqrt(np.maximum(self.inner(X, X), 0.0))


def u1():
    return AlgebraBasis("u1", np.zeros((1, 1, 1)))


def su2():
    """su(2) with <X,Y> = -2 tr(XY) normalization: orthonormal basis with
    [e_i, e_j] = eps_ijk e_k."""
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    return AlgebraBasis("su2", eps)


ALGEBRA_CATALOG = {"u1": u1, "su2": su2}


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

class GaugePotential:
    """Algebra-valued 1-form A_mu(x) as an analytic callable.

    ``fn(x) -> (..., 4, dim)``; optional analytic jacobian
    ``jac(x) -> (..., 4[a], 4[mu], dim) = d_a A_mu``.
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


def zero_potential(basis):
    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (4, basis.dim))

    def jac(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (4, 4, basis.dim))

    return GaugePotential(basis, fn, jac=jac)


class FieldStrength:
    """Algebra-valued antisymmetric 2-form F_{mu nu}(x) as a callable.

    ``fn(x) -> (..., 4, 4, dim)``, antisymmetric in the two slots.
    """

    def __init__(self, basis, fn, jac=None, step=1e-4):
        self.basis = basis
        self.fn = fn
        self._jac = jac
        self.step = step

    def __call__(self, x):
        return np.asarray(self.fn(x), dtype=float)

    def jacobian(self, x):
        """d_a F_{mu nu}, shape (..., 4[a], 4, 4, dim)."""
        if self._jac is not None:
            return np.asarray(self._jac(x), dtype=float)
        return geometry._fd_derivative(self.fn, np.asarray(x, float), self.step)


# ---------------------------------------------------------------------------
# Gauge operators
# ---------------------------------------------------------------------------

def curvature_from_potential(A, step=None):
    """F_{mn} = d_m A_n - d_n A_m + [A_m, A_n] as a FieldStrength.

    The Levi-Civita terms cancel in the antisymmetrization, so no chart is
    needed; the abelian case reduces to the plain curl.
    """
    basis = A.basis
    if step is not None:
        A = GaugePotential(basis, A.fn, jac=A._jac, step=step)

    def fn(x):
        dA = A.jacobian(x)                     # (..., a, mu, k)
        curl = dA - np.swapaxes(dA, -3, -2)
        a = A(x)
        comm = np.einsum("ijk,...mi,...nj->...mnk", basis.c, a, a)
        return curl + comm

    return FieldStrength(basis, fn, step=A.step)


def gauge_covariant_derivative(chart, x, field, A, rank):
    """D_a Psi for an algebra-valued tensor field of spacetime rank 0..2.

    Returns (..., 4[a], <tensor indices>, dim).  ``field`` must expose
    ``__call__`` and ``jacobian`` like FieldStrength/GaugePotential; rank
    declares how many lowered spacetime indices its values carry.
    """
    x = np.asarray(x, dtype=float)
    dpsi = field.jacobian(x)
    psi = field(x)
    a = A(x)
    out = dpsi + np.einsum("ijk,...ai,...j->...ak" if rank == 0 else
                           ("ijk,...ai,...mj->...amk" if rank == 1 else
                            "ijk,...ai,...mnj->...amnk"),
                           A.basis.c, a, psi)
    if rank == 0:
        return out
    gamma = geometry.christoffel(chart, x)
    if rank == 1:
        out = out - np.einsum("...ram,...rk->...amk", gamma, psi)
    else:
        out = out - np.einsum("...ram,...rnk->...amnk", gamma, psi) \
                  - np.einsum("...ran,...mrk->...amnk", gamma, psi)
    return out


def ym_residual(chart, x, F, A):
    """Covariant divergence D^a F_{a b}; zero exactly on Yang-Mills solutions.

    Returns (..., 4[b], dim).
    """
    ginv = geometry.inverse_metric(chart, x)
    DF = gauge_covariant_derivative(chart, x, F, A, rank=2)  # (...,a,m,n,k)
    return np.einsum("...am,...ambk->...bk", ginv, DF)


def bianchi_residual(chart, x, F, A):
    """Cyclic sum D_a F_{mn} + D_m F_{na} + D_n F_{am}, shape (...,4,4,4,dim)."""
    DF = gauge_covariant_derivative(chart, x, F, A, rank=2)
    return (DF
            + np.einsum("...mnak->...amnk", DF)
            + np.einsum("...namk->...amnk", DF))


def wave_source(chart, x, F):
    """Right-hand side of the tensorial wave equation satisfied by F.

    S_{mn} = -2 R_{gmna} F^{ag} - R_{mg} F_n^g - R_{ng} F^g_m
             - 2 [F^a_m, F_{na}],
    antisymmetric in (m, n); vanishes for an abelian field on a flat chart.
    """
    x = np.asarray(x, dtype=float)
    f = F(x)
    ginv = geometry.inverse_metric(chart, x)
    basis = F.basis
    comm = -2.0 * np.einsum("ijk,...ab,...ami,...nbj->...mnk",
                            basis.c, ginv, f, f)
    if chart.flat:
        return comm
    curv = geometry.riemann(chart, x)
    R, Ric = curv.riemann, curv.ricci
    fupup = np.einsum("...am,...gn,...mni->...agi", ginv, ginv, f)
    t1 = -2.0 * np.einsum("...gmna,...agi->...mni", R, fupup)
    fmixed = np.einsum("...gb,...nbk->...ngk", ginv, f)     # F_n^g
    t2 = -np.einsum("...mg,...ngk->...mnk", Ric, fmixed)
    t3 = +np.einsum("...ng,...mgk->...mnk", Ric, fmixed)    # -R_ng F^g_m
    return t1 + t2 + t3 + comm


# ---------------------------------------------------------------------------
# Cartan connection: frame geometry as a matrix-valued gauge field
# ---------------------------------------------------------------------------

class FrameField:
    """Smooth orthonormal frame field e_alpha^mu(x), shape (..., 4, 4).

    Rows are the frame legs; row 0 is the unit timelike leg.
    """

    def __init__(self, fn, step=1e-4):
        self.fn = fn
        self.step = step

    def __call__(self, x):
        return np.asarray(self.fn(x), dtype=float)

    def jacobian(self, x):
        return geometry._fd_derivative(self.fn, np.asarray(x, float), self.step)


def static_diagonal_frame(chart):
    """Frame field e_alpha = g_{alpha alpha}^{-1/2} d_alpha for diagonal metrics."""
    def fn(x):
        g = chart.metric(x)
        d = np.einsum("...ii->...i", g).copy()
        d[..., 0] = -d[..., 0]
        return np.einsum("...a,ab->...ab", d ** -0.5, np.eye(4))

    return FrameField(fn, step=1e-4 * chart.coordinate_scale)


def cartan_connection(chart, frame_field):
    """Connection matrices (A_mu)_{alpha beta} = g(nabla_mu e_beta, e_alpha).

    Returns a callable x -> (..., 4[mu], 4[alpha], 4[beta]); each matrix is
    antisymmetric after raising/lowering frame indices with eta, i.e.
    A_{alpha beta} = -A_{beta alpha} where indices are moved with the frame
    metric diag(-1,1,1,1).
    """
    def fn(x):
        x_ = np.asarray(x, dtype=float)
        g = chart.metric(x_)
        gamma = geometry.christoffel(chart, x_)
        e = frame_field(x_)                    # (..., beta, mu)
        de = frame_field.jacobian(x_)          # (..., mu[deriv], beta, nu)
        nab = de + np.einsum("...smr,...br->...msb", gamma, e)
        return np.einsum("...rs,...ar,...msb->...mab", g, e, nab)

    return fn


def cartan_curvature(chart, frame_field, step=1e-4):
    """Curvature of the Cartan connection via the matrix commutator.

    (F_{mu nu})_{alpha beta} = d_mu A_nu - d_nu A_mu + [A_mu, A_nu],
    where the commutator contracts frame indices with the frame metric
    eta = diag(-1,1,1,1):  ([A,B])_ab = A_ag eta^gd B_db - B_ag eta^gd A_db.
    Returns a callable x -> (..., 4[mu], 4[nu], 4[alpha], 4[beta]).
    """
    conn = cartan_connection(chart, frame_field)
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])

    def fn(x):
        x_ = np.asarray(x, dtype=float)
        dA = geometry._fd_derivative(conn, x_, step)   # (..., d, mu, a, b)
        curl = dA - np.einsum("...ndab->...dnab", dA)
        a = conn(x_)
        comm = (np.einsum("...mag,gd,...ndb->...mnab", a, eta, a)
                - np.einsum("...nag,gd,...mdb->...mnab", a, eta, a))
        return curl + comm

    return fn


def cartan_ym_residual(chart, x, frame_field, step=1e-4):
    """Covariant divergence of the Cartan curvature, D^mu (F_{mu nu})_{ab}.

    Vanishes for Ricci-flat charts.  Returns (..., 4[nu], 4, 4).
    """
    Fc = cartan_curvature(chart, frame_field, step=step)
    conn = cartan_connection(chart, frame_field)
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    x = np.asarray(x, dtype=float)
    ginv = geometry.inverse_metric(chart, x)
    gamma = geometry.christoffel(chart, x)
    f = Fc(x)
    dF = geometry._fd_derivative(Fc, x, step)          # (..., d, m, n, a, b)
    a = conn(x)
    DF = (dF
          - np.einsum("...rdm,...rnab->...dmnab", gamma, f)
          - np.einsum("...rdn,...mrab->...dmnab", gamma, f)
          + np.einsum("...dag,gh,...mnhb->...dmnab", a, eta, f)
          - np.einsum("...mnag,gh,...dhb->...dmnab", f, eta, a))
    return np.einsum("...dm,...dmnab->...nab", ginv, DF)
