"""Quadratic comparison envelopes with blow-up detection.

The Pachpatte envelope is the equality solution of
b(t) = c + p * int b^2 + q * int int b^2, that is of the ODE system
b' = p b^2 + q B, B' = b^2.

It is integrated in the reciprocal variable u = 1/b, which stays smooth
through a blow-up: u' = -p - q B u^2.  A blow-up inside the interval is
reported as the linearly interpolated zero crossing of u, never raised as
an exception.  An independent Picard fixed-point iteration of the integral
equation serves as a cross-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

_HUGE = 1e300
#: the Picard oracle stops once its sup-norm update falls below PICARD_TOL
#: relative to max(1, sup b), and gives up after PICARD_MAX_ITER iterates
PICARD_TOL = 1e-13
PICARD_MAX_ITER = 500


class BoundsError(ValueError):
    """An envelope that cannot be formed on its interval."""


@dataclass
class BoundSpec:
    """Parameters of the quadratic inequality b' = p b^2 + q int b^2 on a
    time interval.

    c: initial value b(t0), must be nonnegative.
    single_coef / double_coef: the multipliers p and q of the single- and
    double-integral terms (absorbed constants made explicit).
    """

    c: float
    t0: float = 0.0
    t1: float = 1.0
    dt: float = 1e-3
    single_coef: float = 1.0
    double_coef: float = 1.0

    def __post_init__(self):
        problems = []
        if not self.c >= 0.0:
            problems.append("c must be nonnegative")
        if not self.t1 > self.t0:
            problems.append("t1 must exceed t0")
        if not self.dt > 0.0:
            problems.append("dt must be positive")
        if self.single_coef < 0.0 or self.double_coef < 0.0:
            problems.append("quadratic coefficients must be nonnegative")
        if problems:
            raise ValueError("invalid BoundSpec: " + "; ".join(problems))

    def grid(self):
        n = max(2, int(round((self.t1 - self.t0) / self.dt)) + 1)
        return np.linspace(self.t0, self.t1, n)


@dataclass
class Envelope:
    """Grid-sampled bounding function with optional blow-up time."""

    t: np.ndarray
    b: np.ndarray
    t_blowup: Optional[float] = None


def _quadratic_rhs(u, B, p, q):
    usafe = max(abs(u), 1e-150)
    return -p - q * B * u * u, 1.0 / (usafe * usafe)


def pachpatte_envelope(spec):
    """Equality solution of b = c + p int b^2 + q int int b^2.

    RK4 on the reciprocal system (u = 1/b, B = int b^2).  If u reaches zero
    inside the interval, the envelope blows up; the crossing time is
    interpolated and later samples are reported as +inf.
    """
    t = spec.grid()
    b = np.zeros_like(t)
    if spec.c == 0.0:
        return Envelope(t, b)
    p, q = spec.single_coef, spec.double_coef
    u, B = 1.0 / spec.c, 0.0
    b[0] = spec.c
    for i in range(t.size - 1):
        h = t[i + 1] - t[i]
        du1, dB1 = _quadratic_rhs(u, B, p, q)
        du2, dB2 = _quadratic_rhs(u + 0.5 * h * du1, B + 0.5 * h * dB1, p, q)
        du3, dB3 = _quadratic_rhs(u + 0.5 * h * du2, B + 0.5 * h * dB2, p, q)
        du4, dB4 = _quadratic_rhs(u + h * du3, B + h * dB3, p, q)
        u_new = u + (h / 6.0) * (du1 + 2.0 * du2 + 2.0 * du3 + du4)
        B_new = B + (h / 6.0) * (dB1 + 2.0 * dB2 + 2.0 * dB3 + dB4)
        if u_new <= 0.0 or not np.isfinite(u_new):
            t_star = t[i] + h * u / (u - u_new) if np.isfinite(u_new) else t[i]
            b[i + 1 :] = np.inf
            return Envelope(t, b, t_blowup=t_star)
        u, B = u_new, B_new
        b[i + 1] = 1.0 / u
    return Envelope(t, b)


def _simpson_cells(y, h):
    """Integrals over the cells [x_i, x_i+1], i < n - 2, of the parabola
    through (x_i, x_i+1, x_i+2), from cell widths ``h`` (Cartwright's
    unequal-interval formula)."""
    x21, x32 = h[:-1], h[1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y[:-2]
                      + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                      - x21x21_x31x32 * y[2:])


def _cumulative_simpson(y, x):
    """int_{x_0}^{x_i} y for each i, with a leading 0: composite Simpson on
    a strictly increasing grid of n >= 2 points, the trapezoid for n = 2.

    Each cell takes the parabola through it and its right neighbour, read
    forward for even cells and backward (on the flipped arrays) for odd
    cells and the last one; the cells are then summed in order.  These are
    the operations of SciPy's ``cumulative_simpson(y, x=x, initial=0.0)``
    in the same order, so the two agree bitwise (``tests/test_bounds.py``).
    """
    h = np.diff(x)
    if y.size < 3:
        cells = h * (y[1:] + y[:-1]) / 2.0
    else:
        ahead = _simpson_cells(y, h)
        behind = _simpson_cells(y[::-1], h[::-1])[::-1]
        cells = np.empty(h.size)
        cells[:-1:2] = ahead[::2]
        cells[1::2] = behind[::2]
        cells[-1] = behind[-1]
    return np.concatenate(([0.0], np.cumsum(cells)))


def picard_envelope(spec):
    """Independent fixed-point solution of the quadratic integral equation.

    Iterates b <- c + p int b^2 + q int int b^2 with cumulative Simpson
    quadrature (``_cumulative_simpson``, numpy only) until the sup-norm
    update falls below PICARD_TOL.  Diverging iterates indicate blow-up
    inside the interval and raise BoundsError, and nothing else: their
    overflow and the inf - inf that follows are not warned about.
    """
    t = spec.grid()
    p, q = spec.single_coef, spec.double_coef
    b = np.full_like(t, spec.c)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(PICARD_MAX_ITER):
            sq = b * b
            single = _cumulative_simpson(sq, t)
            double = _cumulative_simpson(single, t)
            b_new = spec.c + p * single + q * double
            if not np.all(np.isfinite(b_new)) or np.max(b_new) > _HUGE:
                raise BoundsError("Picard iteration diverges: blow-up in "
                                  "interval")
            delta = np.max(np.abs(b_new - b))
            b = b_new
            if delta < PICARD_TOL * max(1.0, np.max(np.abs(b))):
                return Envelope(t, b)
    raise BoundsError("Picard iteration did not converge")
