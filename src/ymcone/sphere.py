"""Spectral machinery on the direction sphere.

A ``SphereGrid`` is the product of Gauss-Legendre nodes in cos(theta) and a
uniform periodic grid in phi.  Scalar fields sampled on it admit exact
quadrature and spectrally accurate tangential derivatives through a normalized
associated-Legendre transform (hand-rolled stable recurrences; the transform
is exact for band-limited data up to degree ``n_theta - 1``).

Fields are arrays of shape (..., n_theta, n_phi); all routines broadcast over
the leading axes.
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


def _legendre_theta_derivative_table(lmax, x, tables):
    """d/dtheta Pbar_l^m(cos theta) from the same-m downward recurrence.

    Uses (1-x^2) d/dx Pbar_l^m = c_lm Pbar_{l-1}^m - l x Pbar_l^m with
    c_lm = sqrt((2l+1)(l-m)(l+m)/(2l-1)), and d/dtheta = -sin(theta) d/dx.
    """
    x = np.asarray(x, dtype=float)
    sx = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    out = []
    for m in range(lmax + 1):
        P = tables[m]
        rows = []
        for i, l in enumerate(range(m, lmax + 1)):
            if l == 0:
                rows.append(np.zeros_like(x))
                continue
            c = np.sqrt((2.0 * l + 1.0) * (l - m) * (l + m) / (2.0 * l - 1.0))
            prev = P[i - 1] if i >= 1 else np.zeros_like(x)
            rows.append((l * x * P[i] - c * prev) / sx)
        out.append(np.stack(rows, axis=0))
    return out


class SphereGrid:
    """Gauss-Legendre x uniform-phi product grid with spectral transforms."""

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
        self._P = _legendre_table(self.lmax, self.cos_theta)
        self._dP = _legendre_theta_derivative_table(
            self.lmax, self.cos_theta, self._P)
        # FFT m-order used below: 0..n_phi/2 (rfft)
        self.m_count = min(self.lmax, self.n_phi // 2) + 1
        # d/dtheta of the order-m Fourier coefficient as one matrix per m:
        # analysis (Pbar_m weighted by w) followed by synthesis with dPbar_m
        self._dtheta_mats = [(self._P[m] * self.gl_weights).T @ self._dP[m]
                             for m in range(self.m_count)]

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

    # -- spectral analysis -------------------------------------------------

    def analyze(self, f):
        """Per-m Legendre coefficients of a real or complex field.

        Returns a list indexed by m of coefficient arrays with a trailing
        l-axis of length lmax + 1 - m.
        """
        f = np.asarray(f)
        fm = np.fft.fft(f, axis=-1) / self.n_phi   # (..., n_theta, n_phi)
        coeffs = []
        for m in range(self.m_count):
            # a_lm = sum_i w_i Pbar_l^m(x_i) f_m(x_i)
            coeffs.append(np.einsum("lt,t,...t->...l",
                                    self._P[m], self.gl_weights, fm[..., :, m]))
        return coeffs

    def dtheta(self, f):
        """Spectral d/dtheta of a field on the grid."""
        return self._derivatives(f, self._dtheta_modes)

    def dphi(self, f):
        """Spectral d/dphi of a field on the grid (periodic FFT)."""
        return self._derivatives(f, self._dphi_modes)

    def angular_gradient(self, f):
        """(d/dtheta f, d/dphi f) stacked on a new last axis.

        One real FFT along phi feeds both derivatives.
        """
        return self._derivatives(f, self._dtheta_modes, self._dphi_modes)

    def _derivatives(self, f, *modes):
        """Apply each rfft-coefficient map in ``modes`` to one rfft of f.

        One map returns its derivative, several are stacked on a new last
        axis.
        """
        f = np.asarray(f)
        if np.iscomplexobj(f):          # the operators are real and linear
            return self._derivatives(f.real, *modes) \
                + 1j * self._derivatives(f.imag, *modes)
        fm = np.fft.rfft(f, axis=-1)
        out = [np.fft.irfft(op(fm), n=self.n_phi, axis=-1) for op in modes]
        return out[0] if len(out) == 1 else np.stack(out, axis=-1)

    def _dtheta_modes(self, fm):
        out_m = np.zeros_like(fm)
        for m, D in enumerate(self._dtheta_mats):
            out_m[..., m] = fm[..., m] @ D
        return out_m

    def _dphi_modes(self, fm):
        k = np.arange(self.n_phi // 2 + 1)
        # zero the unmatched Nyquist mode for a real-valued derivative
        k[-1] = 0
        return fm * (1j * k)

    def high_mode_fraction(self, f):
        """Energy fraction in the top third of the Legendre spectrum.

        Aliasing diagnostic: values above ~1e-3 mean the grid under-resolves
        the field.
        """
        coeffs = self.analyze(np.asarray(f, dtype=float))
        total = 0.0
        high = 0.0
        cut = int(np.ceil(2 * self.lmax / 3))
        for m, a in enumerate(coeffs):
            p = np.abs(a) ** 2
            ls = np.arange(m, self.lmax + 1)
            mult = 1.0 if m == 0 else 2.0
            total += mult * np.sum(p, axis=-1)
            high += mult * np.sum(p[..., ls >= cut], axis=-1)
        return high / np.maximum(total, 1e-300)
