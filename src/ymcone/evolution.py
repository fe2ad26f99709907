"""Temporal-gauge gauge-field evolution on a flat periodic 2D lattice.

State: algebra-valued potentials A_i and electric fields E_i (i = x, y) on an
N x N periodic grid, with A_0 = 0, so

    dA_i/dt = E_i,
    dE_i/dt = sum_j D_j F_{ji},   F_{ij} = d_i A_j - d_j A_i + [A_i, A_j],

integrated with classical RK4 over fourth-order central differences.  dE/dt
depends on A alone, so RK4 is taken in its Runge-Kutta-Nystrom form for
A'' = f(A): only the stage E-rates k_i = f(A_i) are evaluated, at
A_2 = A + dt/2 E, A_3 = A_2 + dt^2/4 k_1 and A_4 = A + dt E + dt^2/2 k_2.
``step`` works on copies of the fields as contiguous (2, dim, n, n) planes;
the periodic stencil is one n x n circulant matrix D, so d_x f = D @ f and
d_y f = f @ D^T are one GEMM each.  ``GaugeState`` keeps the grid-first
(2, n, n, dim) layout.

The algebra is abelian or su(2), whose product is the cyclic cross product
(X x Y)_k = x_{k+1} y_{k+2} - x_{k+2} y_{k+1}.  For su(2) the potential
and F are held with two mirror planes, (..., 5, n, n) with planes 3, 4
repeating planes 0, 1, so X x Y is X[1:4] Y[2:5] - X[2:5] Y[1:4]: two
products and a difference of shifted views, written into buffers
allocated once per ``step``.  Each element is the same two products and
difference, in the same order, as the written-out cross product, so the
layout changes no bit of the result.  An abelian algebra has no mirror
planes and no product; any other algebra is refused.

The stencil is skew-adjoint on the periodic grid and the algebra product
is ad-invariant, so the semi-discrete flow conserves the lattice energy
exactly; neither the layout nor the Nystrom form touches that flow, so any
measured drift is still the same RK4's time-integration error.  The Gauss
constraint D_i E_i = 0 is preserved up to the same truncation.
"""

from __future__ import annotations

import numpy as np

from .liegauge import su2


#: largest dt / dx that ``step`` and ``runner.parse_config`` accept; RK4
#: (stable to 2 sqrt 2 on the imaginary axis) on this stencil (largest 2-D
#: frequency 1.940 / dx) is stable to dt / dx = 1.458
CFL_LIMIT = 1.0
#: ``run_diagnostics`` reports a row every 1 / N_REPORTS of its steps,
#: rounded down (at least every step)
N_REPORTS = 20


class EvolutionError(RuntimeError):
    pass


class Lattice2D:
    """Periodic square grid of side ``length`` with n x n points."""

    def __init__(self, n, length=1.0):
        self.n = int(n)
        self.length = float(length)
        self.dx = self.length / self.n
        axis = self.dx * np.arange(self.n)
        self.x, self.y = np.meshgrid(axis, axis, indexing="ij")
        # (D f)_i = (8 (f_{i+1} - f_{i-1}) - (f_{i+2} - f_{i-2})) / (12 dx)
        rows = np.arange(self.n)
        self.D = np.zeros((self.n, self.n))
        for offset, weight in ((1, 8.0), (-1, -8.0), (2, -1.0), (-2, 1.0)):
            self.D[rows, (rows + offset) % self.n] += weight
        self.D /= 12.0 * self.dx

    def deriv(self, f, axis):
        """Fourth-order central difference along grid axis 0 (x) or 1 (y)
        of an array whose two leading axes are the grid."""
        n = self.n
        if axis == 0:
            return (self.D @ f.reshape(n, -1)).reshape(f.shape)
        return (self.D @ f.reshape(n, n, -1)).reshape(f.shape)


class GaugeState:
    """A, E snapshots: arrays of shape (2, n, n, dim)."""

    __slots__ = ("lattice", "basis", "A", "E", "time")

    def __init__(self, lattice, basis, A, E, time=0.0):
        self.lattice = lattice
        self.basis = basis
        self.A = np.asarray(A, dtype=float)
        self.E = np.asarray(E, dtype=float)
        shape = (2, lattice.n, lattice.n, basis.dim)
        for name, field in (("A", self.A), ("E", self.E)):
            if field.shape != shape:
                raise EvolutionError(
                    f"{name} has shape {field.shape}, expected {shape}")
        self.time = float(time)


def _mirrors(basis):
    """Mirror planes the algebra takes: 0 for an abelian one, 2 for su(2)."""
    if basis.abelian:
        return 0
    if np.array_equal(basis.c, su2().c):
        return 2
    raise EvolutionError(f"lattice evolution takes an abelian algebra or "
                         f"su2, not the algebra {basis.name!r}")


def _mirrored_cross(X, Y, axis=-1, out=None, scratch=None):
    """X x Y of su(2) coefficient arrays whose algebra axis ``axis``
    (negative) holds five entries: the three components, then the first
    two again.  Component k is x_{k+1} y_{k+2} - x_{k+2} y_{k+1}, so the
    whole product is the two shifted views X[1:4] Y[2:5] - X[2:5] Y[1:4].
    The result has three entries along ``axis``; it is written into
    ``out`` when given, and ``scratch`` (same shape) takes the second
    product."""
    tail = (slice(None),) * (-1 - axis)
    lo, hi = (Ellipsis, slice(1, 4)) + tail, (Ellipsis, slice(2, 5)) + tail
    out = np.multiply(X[lo], Y[hi], out=out)
    return np.subtract(out, np.multiply(X[hi], Y[lo], out=scratch), out=out)


def _planes(field, mirrors=0):
    """A copy of a (2, n, n, dim) grid-first field as contiguous
    (2, dim + mirrors, n, n) planes; ``_curvature`` fills the mirrors."""
    _, n, _, dim = field.shape
    planes = np.empty((2, dim + mirrors, n, n))
    planes[:, :dim] = field.transpose(0, 3, 1, 2)
    return planes


def _curvature(lattice, A, F, work):
    """F_xy of potential planes A (2, dim + m, n, n), written with its m
    mirror planes into F (dim + m, n, n); ``work`` is (2, 2, dim, n, n)
    scratch.  d_x f = D @ f and d_y f = f @ D^T = -f @ D (the stencil is
    skew), one GEMM each.  For su(2) (m = 2) the mirror planes of A are
    refreshed and [A_x, A_y] added; an abelian algebra (m = 0) has no
    product."""
    n, dim = lattice.n, work.shape[2]
    tmp = work[0, 0]
    np.matmul(lattice.D, A[1, :dim], out=F[:dim])
    np.matmul(A[0, :dim].reshape(-1, n), lattice.D, out=tmp.reshape(-1, n))
    F[:dim] += tmp
    if len(F) > dim:
        A[:, dim:] = A[:, :2]
        F[:dim] += _mirrored_cross(A[0], A[1], -3, tmp, work[1, 0])
        F[dim:] = F[:2]


def magnetic_field(lattice, basis, A):
    """F_{xy} on the grid (the only independent magnetic component in 2D)."""
    A = _planes(A, _mirrors(basis))
    F = np.empty(A.shape[1:])
    _curvature(lattice, A, F, np.empty((2, 2, basis.dim) + F.shape[1:]))
    return F[:basis.dim].transpose(1, 2, 0)


def _accel(lattice, A, F, work, out):
    """dE/dt of potential planes A, written into the planes ``out``:
    dE_x/dt = D_y F_{yx} = -(d_y F + [A_y, F]),
    dE_y/dt = D_x F_{xy} =   d_x F + [A_x, F].
    F and ``work`` are the scratch of ``_curvature``."""
    n, dim = lattice.n, out.shape[1]
    _curvature(lattice, A, F, work)
    np.matmul(F[:dim].reshape(-1, n), lattice.D, out=out[0].reshape(-1, n))
    np.matmul(lattice.D, F[:dim], out=out[1])
    if len(F) > dim:
        ad = _mirrored_cross(A[::-1], F, -3, work[0], work[1])
        out[0] -= ad[0]
        out[1] += ad[1]


def step(state, dt, n_steps=1):
    """Advance the state by n_steps RK4 steps of size dt (returns a copy;
    the input state is left as it is)."""
    lat, basis = state.lattice, state.basis
    mirrors = _mirrors(basis)
    if dt > CFL_LIMIT * lat.dx:
        raise EvolutionError(
            f"dt = {dt:.3e} violates the step bound {CFL_LIMIT} * dx")
    A, E = _planes(state.A, mirrors), _planes(state.E)
    Ai = np.empty_like(A)                         # stage potential
    a, ai = A[:, :basis.dim], Ai[:, :basis.dim]   # their algebra components
    k1, k2, k3, k4 = np.empty((4,) + E.shape)     # stage E-rates f(A_i)
    F, work = np.empty(A.shape[1:]), np.empty((2,) + E.shape)
    # overflow and NaN are reported once, by the finiteness test below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            _accel(lat, A, F, work, k1)
            np.add(a, 0.5 * dt * E, out=ai)
            _accel(lat, Ai, F, work, k2)
            ai += 0.25 * dt * dt * k1
            _accel(lat, Ai, F, work, k3)
            np.add(a, dt * E, out=ai)
            ai += 0.5 * dt * dt * k2
            _accel(lat, Ai, F, work, k4)
            a += dt * E + dt * dt / 6.0 * (k1 + k2 + k3)
            E += dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    t1 = state.time + n_steps * dt
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(E))):
        raise EvolutionError(
            f"state blew up in t = [{state.time:.4f}, {t1:.4f}]")
    return GaugeState(lat, basis, a.transpose(0, 2, 3, 1).copy(),
                      E.transpose(0, 2, 3, 1).copy(), t1)


def total_energy(state):
    """Lattice energy sum (|E|^2 + |F_xy|^2) / 2 * dx^2."""
    lat = state.lattice
    F = magnetic_field(lat, state.basis, state.A)
    dens = 0.5 * (np.sum(state.E ** 2, axis=(0, -1)) + np.sum(F ** 2, axis=-1))
    return float(np.sum(dens)) * lat.dx ** 2


def constraint_residual(state):
    """L2 norm of the Gauss constraint D_i E_i over the grid."""
    lat, basis = state.lattice, state.basis
    g = lat.deriv(state.E[0], 0) + lat.deriv(state.E[1], 1) \
        + basis.bracket(state.A, state.E).sum(axis=0)
    return float(np.sqrt(np.sum(g ** 2) * lat.dx ** 2))


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def crossed_stream_data(lattice, basis, amplitude=0.1):
    """Nonabelian data from two transverse scalar streams.

    E_i = eps_ij d_j psi  on the first algebra axis with psi = psi(x + 2y);
    A_i = eps_ij d_j xi   on the second axis with xi = xi(2x - y).
    Both divergence pieces of the Gauss constraint vanish identically and
    the bracket piece is proportional to grad psi . grad xi = 0, so the
    constraint holds analytically; the discrete residual starts at
    truncation level, giving a meaningful growth baseline.
    """
    if basis.dim < 2:
        raise EvolutionError("crossed-stream data needs dim >= 2")
    L = lattice.length
    k = 2.0 * np.pi / L
    u = k * (lattice.x + 2 * lattice.y)
    v = k * (2 * lattice.x - lattice.y)
    # two harmonics per stream: a single mode pair would satisfy the
    # discrete constraint exactly (odd modified wavenumbers cancel), hiding
    # the truncation baseline the growth diagnostic is measured against
    psi = amplitude / k * (np.sin(u) + 0.4 * np.sin(2 * u))
    xi = amplitude / k * (np.cos(v) + 0.4 * np.cos(2 * v))
    A = np.zeros((2, lattice.n, lattice.n, basis.dim))
    E = np.zeros_like(A)
    E[0, ..., 0] = lattice.deriv(psi, 1)
    E[1, ..., 0] = -lattice.deriv(psi, 0)
    A[0, ..., 1] = lattice.deriv(xi, 1)
    A[1, ..., 1] = -lattice.deriv(xi, 0)
    return GaugeState(lattice, basis, A, E)


def run_diagnostics(state, dt, t_final):
    """Evolve to t_final collecting (t, energy, constraint) rows: the
    initial one and one every n_total // N_REPORTS steps."""
    n_total = int(round(t_final / dt))
    stride = max(1, n_total // N_REPORTS)
    rows = [(state.time, total_energy(state), constraint_residual(state))]
    done = 0
    while done < n_total:
        k = min(stride, n_total - done)
        state = step(state, dt, n_steps=k)
        done += k
        rows.append((state.time, total_energy(state),
                     constraint_residual(state)))
    return state, np.array(rows)
