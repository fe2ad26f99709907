"""Spectral machinery on the direction sphere.

A ``SphereGrid`` is the product of Gauss-Legendre nodes in cos(theta) and a
uniform periodic grid in phi.  Scalar fields sampled on it admit exact
quadrature and spectrally accurate tangential derivatives, as real matrices on
the N = n_theta * n_phi nodes built once in closed form: ``grad`` (2N x N)
stacks d/dtheta (associated-Legendre transform per order m, exact up to degree
``n_theta - 1``) over d/dphi (circulant in phi); ``div`` = [d/dtheta d/dphi].

Fields are arrays of shape (..., n_theta, n_phi); all routines broadcast over
the leading axes, and ``on_nodes`` over the first axis of the cone layout.
"""

from __future__ import annotations

import numpy as np


def _legendre_table(lmax, x):
    """Normalized associated Legendre functions Pbar_l^m(x).

    Normalization: integral of Pbar_l^m(x)^2 dx over [-1, 1] equals 1 (so
    Y_lm = Pbar_l^m(cos th) e^(i m phi) / sqrt(2 pi) is L2-normalized on the
    sphere).  Returns ``P[m][l - m]`` as arrays over x; Condon-Shortley phase
    included.
    """
    x = np.asarray(x, dtype=float)
    sx = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    tables = []
    pmm = np.full_like(x, np.sqrt(0.5))
    for m in range(lmax + 1):
        rows = [pmm]
        if m + 1 <= lmax:
            rows.append(np.sqrt(2.0 * m + 3.0) * x * pmm)
        for l in range(m + 2, lmax + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt((2.0 * l + 1.0) / (2.0 * l - 3.0)
                        * ((l - 1.0) ** 2 - m * m) / (l * l - m * m))
            rows.append(a * x * rows[-1] - b * rows[-2])
        tables.append(np.stack(rows, axis=0))
        # seed for next m: Pbar_{m+1}^{m+1} = -sqrt((2m+3)/(2m+2)) sx Pbar_m^m
        pmm = -np.sqrt((2.0 * m + 3.0) / (2.0 * m + 2.0)) * sx * pmm
    return tables


class SphereGrid:
    """Gauss-Legendre x uniform-phi product grid with spectral derivatives."""

    def __init__(self, n_theta, n_phi):
        if n_phi % 2:
            raise ValueError("n_phi must be even")
        self.n_theta = int(n_theta)
        self.n_phi = int(n_phi)
        nodes, weights = np.polynomial.legendre.leggauss(self.n_theta)
        order = np.argsort(-nodes)          # theta increasing
        self.cos_theta = nodes[order]
        self.gl_weights = weights[order]
        self.theta = np.arccos(self.cos_theta)
        self.sin_theta = np.sin(self.theta)
        self.phi = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        # solid-angle quadrature weights, shape (n_theta, n_phi); sum = 4 pi
        self.weights = (self.gl_weights[:, None]
                        * np.full(self.n_phi, 2.0 * np.pi / self.n_phi))
        self.lmax = self.n_theta - 1
        # Legendre orders the d/dtheta transform keeps: 0..min(lmax, n_phi/2)
        self.m_count = min(self.lmax, self.n_phi // 2) + 1
        self.n_nodes = self.n_theta * self.n_phi
        self.grad = self._gradient_matrix()
        # d_theta W_theta + d_phi W_phi: the two blocks of grad side by side
        self.div = np.hstack(np.split(self.grad, 2))

    def _gradient_matrix(self):
        """The spectral (d/dtheta; d/dphi) as one real (2N, N) node matrix.

        d/dtheta is sum_m D_m (x) (c_m / n_phi) cos(m (phi_q - phi_p)) with
        c_m = 2 (1 at m = 0 and Nyquist), D_m the order-m Legendre analysis
        followed by synthesis with d/dtheta Pbar_l^m = (l x Pbar_l^m - c_lm
        Pbar_{l-1}^m) / sin.  d/dphi is the circulant -(2 / n_phi) sum_k k
        sin(k (phi_q - phi_p)) without the unmatched Nyquist mode.
        """
        nth, nph, x = self.n_theta, self.n_phi, self.cos_theta
        table = _legendre_table(self.lmax, x)
        D = []
        for m in range(self.m_count):
            P = table[m]
            prev = np.concatenate([np.zeros_like(P[:1]), P[:-1]])
            l = np.arange(m, self.lmax + 1)[:, None]
            c = np.sqrt((2.0 * l + 1.0) * (l - m) * (l + m) / (2.0 * l - 1.0))
            D.append((P * self.gl_weights).T
                     @ ((l * x * P - c * prev) / self.sin_theta))
        m = np.arange(self.m_count)
        c_m = np.where((m == 0) | (2 * m == nph), 1.0, 2.0) / nph
        dphi = self.phi[:, None] - self.phi[None, :]        # phi_q - phi_p
        cos_m = c_m[:, None, None] * np.cos(m[:, None, None] * dphi)
        d_theta = np.einsum("mts,mqp->sqtp", np.stack(D), cos_m)
        k = np.arange(1, nph // 2)
        circ = -(2.0 / nph) * np.einsum(
            "k,kqp->qp", k, np.sin(k[:, None, None] * dphi))
        return np.concatenate([d_theta.reshape(self.n_nodes, -1),
                               np.kron(np.eye(nth), circ)])

    def directions(self):
        """Unit direction triples omega-hat, shape (n_theta, n_phi, 3)."""
        st, ct = self.sin_theta, self.cos_theta
        cp, sp = np.cos(self.phi), np.sin(self.phi)
        out = np.empty((self.n_theta, self.n_phi, 3))
        out[..., 0] = st[:, None] * cp[None, :]
        out[..., 1] = st[:, None] * sp[None, :]
        out[..., 2] = ct[:, None] * np.ones(self.n_phi)[None, :]
        return out

    def integrate(self, f):
        """Solid-angle integral of f(..., n_theta, n_phi)."""
        return np.einsum("...tp,tp->...", np.asarray(f), self.weights)

    def gradient(self, f):
        """Spectral (d_theta, d_phi) of f (n, nth, nph, ...), new last axis."""
        grad = self.on_nodes(self.grad, f)
        return np.moveaxis(grad.reshape(f.shape[:1] + (2,) + f.shape[1:]),
                           1, -1)

    def dtheta(self, f):
        """Spectral d/dtheta of a field on the grid."""
        return self._product(self.grad[:self.n_nodes], f)

    def dphi(self, f):
        """Spectral d/dphi of a field on the grid."""
        return self._product(self.grad[self.n_nodes:], f)

    def _product(self, block, f):
        """A block of n_nodes rows of ``grad`` on a field (..., nth, nph)."""
        f = np.asarray(f)
        out = self.on_nodes(block, f.reshape(-1, self.n_nodes).T[None])
        return out[0].T.reshape(f.shape)

    def on_nodes(self, op, f):
        """``op`` (rows of ``grad``, or ``div``) over the node axes of f as
        one GEMM.  f is (n, <op.shape[1] node values>, *tail): (n, n_theta,
        n_phi, ...) for ``grad``, (n, 2, n_theta, n_phi, ...) for ``div``.
        Returns (n, op.shape[0], prod(tail)).
        """
        f = np.asarray(f, dtype=float)
        n, k = f.shape[0], op.shape[1]
        blocks = f.reshape(n, k // self.n_nodes, self.n_nodes, -1).transpose(
            1, 2, 0, 3)
        # op annihilates constant blocks; differencing each block against its
        # first node keeps that exact, where 1/s^2 would amplify roundoff
        x = np.empty(blocks.shape)
        np.subtract(blocks, blocks[:, :1], out=x)
        out = op @ x.reshape(k, -1)
        return out.reshape(op.shape[0], n, -1).transpose(1, 0, 2)
