"""Temporal-gauge gauge-field evolution on a flat periodic 2D lattice.

State: algebra-valued potentials A_i and electric fields E_i (i = x, y) on an
N x N periodic grid, with A_0 = 0, so

    dA_i/dt = E_i,
    dE_i/dt = sum_j D_j F_{ji},   F_{ij} = d_i A_j - d_j A_i + [A_i, A_j],

integrated with RK4 over fourth-order central differences.  The spatial
stencil is skew-adjoint on the periodic grid and the algebra product is
ad-invariant, so the semi-discrete flow conserves the lattice energy exactly;
any measured drift is pure time-integration error.  The Gauss constraint
D_i E_i = 0 is preserved up to the same truncation.
"""

from __future__ import annotations

import numpy as np


#: largest dt / dx that ``step`` accepts
CFL_LIMIT = 1.5


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

    def deriv(self, f, axis):
        """Fourth-order central difference along a grid axis (0 or 1)."""
        r = lambda k: np.roll(f, -k, axis=axis)
        return (8.0 * (r(1) - r(-1)) - (r(2) - r(-2))) / (12.0 * self.dx)


class GaugeState:
    """A, E snapshots: arrays of shape (2, n, n, dim)."""

    __slots__ = ("lattice", "basis", "A", "E", "time")

    def __init__(self, lattice, basis, A, E, time=0.0):
        self.lattice = lattice
        self.basis = basis
        self.A = np.asarray(A, dtype=float)
        self.E = np.asarray(E, dtype=float)
        if self.A.shape != (2, lattice.n, lattice.n, basis.dim):
            raise EvolutionError(f"bad state shape {self.A.shape}")
        self.time = float(time)

    def copy(self):
        return GaugeState(self.lattice, self.basis, self.A.copy(),
                          self.E.copy(), self.time)


def magnetic_field(lattice, basis, A):
    """F_{xy} on the grid (the only independent magnetic component in 2D)."""
    curl = lattice.deriv(A[1], 0) - lattice.deriv(A[0], 1)
    return curl + basis.bracket(A[0], A[1])


def _rhs(lattice, basis, A, E):
    F = magnetic_field(lattice, basis, A)              # F_{xy}
    # dE_x/dt = D_y F_{yx} = -(d_y F_xy + [A_y, F_xy])
    dE = np.empty_like(E)
    dE[0] = -(lattice.deriv(F, 1) + basis.bracket(A[1], F))
    dE[1] = lattice.deriv(F, 0) + basis.bracket(A[0], F)
    return E, dE


def step(state, dt, n_steps=1):
    """Advance the state by n_steps RK4 steps of size dt (returns a copy)."""
    lat, basis = state.lattice, state.basis
    if dt > CFL_LIMIT * lat.dx:
        raise EvolutionError(
            f"dt = {dt:.3e} violates the step bound {CFL_LIMIT} * dx")
    A, E = state.A.copy(), state.E.copy()
    for _ in range(n_steps):
        k1a, k1e = _rhs(lat, basis, A, E)
        k2a, k2e = _rhs(lat, basis, A + 0.5 * dt * k1a, E + 0.5 * dt * k1e)
        k3a, k3e = _rhs(lat, basis, A + 0.5 * dt * k2a, E + 0.5 * dt * k2e)
        k4a, k4e = _rhs(lat, basis, A + dt * k3a, E + dt * k3e)
        A += (dt / 6.0) * (k1a + 2 * k2a + 2 * k3a + k4a)
        E += (dt / 6.0) * (k1e + 2 * k2e + 2 * k3e + k4e)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(E))):
        raise EvolutionError(f"state blew up near t = {state.time:.4f}")
    return GaugeState(lat, basis, A, E, state.time + n_steps * dt)


def total_energy(state):
    """Lattice energy sum (|E|^2 + |F_xy|^2) / 2 * dx^2."""
    lat = state.lattice
    F = magnetic_field(lat, state.basis, state.A)
    dens = 0.5 * (np.sum(state.E ** 2, axis=(0, -1)) + np.sum(F ** 2, axis=-1))
    return float(np.sum(dens)) * lat.dx ** 2


def constraint_residual(state):
    """L2 norm of the Gauss constraint D_i E_i over the grid."""
    lat, basis = state.lattice, state.basis
    g = lat.deriv(state.E[0], 0) + lat.deriv(state.E[1], 1)
    g = g + basis.bracket(state.A[0], state.E[0]) \
          + basis.bracket(state.A[1], state.E[1])
    return float(np.sqrt(np.sum(g ** 2) * lat.dx ** 2))


def sample_field_strength(state):
    """Spacetime F_{mu nu} samples on the grid: F_{0i} = E_i, F_{xy} = B.

    Returned as (n, n, 4, 4, dim) with the t, x, y slots filled and the
    z row zero (the configuration is z-independent).
    """
    lat, basis = state.lattice, state.basis
    n, dim = lat.n, basis.dim
    F = np.zeros((n, n, 4, 4, dim))
    B = magnetic_field(lat, basis, state.A)
    for i in range(2):
        F[..., 0, 1 + i, :] = state.E[i]
        F[..., 1 + i, 0, :] = -state.E[i]
    F[..., 1, 2, :] = B
    F[..., 2, 1, :] = -B
    return F


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def abelian_wave_data(lattice, basis, amplitude=0.1, modes=(1, 0)):
    """u(1) standing-wave data: A transverse to the mode, E = 0."""
    if basis.dim != 1:
        raise EvolutionError("abelian data needs a 1-dimensional algebra")
    kx, ky = modes
    phase = 2.0 * np.pi * (kx * lattice.x + ky * lattice.y) / lattice.length
    A = np.zeros((2, lattice.n, lattice.n, 1))
    # polarization orthogonal to the wave vector keeps d_i A_i = 0
    A[0, ..., 0] = -ky * amplitude * np.sin(phase)
    A[1, ..., 0] = kx * amplitude * np.sin(phase)
    E = np.zeros_like(A)
    return GaugeState(lattice, basis, A, E)


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


def run_diagnostics(state, dt, t_final, n_reports=20):
    """Evolve to t_final collecting (t, energy, constraint) rows."""
    n_total = int(round(t_final / dt))
    stride = max(1, n_total // n_reports)
    rows = [(state.time, total_energy(state), constraint_residual(state))]
    done = 0
    while done < n_total:
        k = min(stride, n_total - done)
        state = step(state, dt, n_steps=k)
        done += k
        rows.append((state.time, total_energy(state),
                     constraint_residual(state)))
    return state, np.array(rows)
