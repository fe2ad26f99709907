"""Reference routes for ``ymcone.geometry`` that only the tests read.

The generic Christoffel symbols and their derivative by LAPACK inversion
and einsum, valid on any chart; the Kretschmann invariant; and the
deformation tensor of a vector field with a Jacobian.
"""

import numpy as np

from ymcone.geometry import (_embed, _require_nondegenerate, _zeros,
                             inverse_metric, riemann)


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
    """Gamma^c_ab from the LAPACK inverse and the full d_a g_mn; valid on
    any chart."""
    ginv = generic_inverse_metric(chart, x)
    t = _lowered_christoffel(_embed(chart.ddiagonal(x)))
    return 0.5 * np.einsum("...cd,...abd->...cab", ginv, t)


def generic_christoffel_derivative(chart, x):
    """d_e Gamma^c_ab from the LAPACK inverse and the full d_a g_mn and
    d_a d_b g_mn; valid on any chart."""
    ginv = generic_inverse_metric(chart, x)
    dg = _embed(chart.ddiagonal(x))
    d2g = _embed(chart.d2diagonal(x))
    t = _lowered_christoffel(dg)
    # d_e t_abd
    dt = np.einsum("...eadb->...eabd", d2g) + np.einsum("...ebda->...eabd", d2g) \
        - np.einsum("...edab->...eabd", d2g)
    # d_e g^cd = - g^cm (d_e g_mn) g^nd
    dginv = -np.einsum("...cm,...emn,...nd->...ecd", ginv, dg, ginv)
    return 0.5 * (np.einsum("...ecd,...abd->...ecab", dginv, t)
                  + np.einsum("...cd,...eabd->...ecab", ginv, dt))


def kretschmann(chart, x):
    """Full curvature invariant R_abcd R^abcd, raising each index by 1/g_aa."""
    R = riemann(chart, x).riemann
    inv = chart.inverse_diagonal(x)
    return np.einsum("...abcd,...a,...b,...c,...d,...abcd->...",
                     R, inv, inv, inv, inv, R)


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


def deformation_tensor(chart, x, field):
    """pi^{mu nu} = (nabla^mu V^nu + nabla^nu V^mu)/2 for a vector field V,
    with nabla_a V^mu = d_a V^mu + Gamma^mu_ab V^b."""
    nab = field.jacobian(x) \
        + np.swapaxes(chart.christoffel_along(x, field(x)), -1, -2)
    up = np.einsum("...ma,...an->...mn", inverse_metric(chart, x), nab)
    return 0.5 * (up + np.swapaxes(up, -1, -2))
