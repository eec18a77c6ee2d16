"""Tight-binding chains and their free Green functions on a frequency grid.

Single-particle Hamiltonians live here as plain hermitian matrices wrapped in
a small dataclass, together with the uniform frequency grid used by every
frequency-domain solver in the package and the ideal (bath-free) retarded and
Keldysh components built from the eigendecomposition; advanced ones are derived.

Units: energies in units of the chain hopping unless stated otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

HERM_TOL = 1e-12

__all__ = [
    "FreqGrid",
    "FreqGreens",
    "HoppingHamiltonian",
    "EigenDecomposition",
    "build_chain",
    "diagonalize",
    "fermi_occupation",
    "thermal_factor",
    "ideal_greens",
]


@dataclass(frozen=True)
class FreqGrid:
    """Uniform frequency grid with a fixed positive broadening eta.

    eta defaults to four grid spacings and must stay at or above two; below
    that the Lorentzian broadening is unresolvable and every downstream
    quadrature (sum rules, convolutions) silently degrades.
    """

    omega_min: float
    omega_max: float
    n_points: int
    eta: float = None

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError("n_points must be at least 2")
        if not self.omega_max > self.omega_min:
            raise ValueError("omega_max must exceed omega_min")
        if self.eta is None:
            object.__setattr__(self, "eta", 4.0 * self.spacing)
        if self.eta < 2.0 * self.spacing * (1.0 - 1e-12):
            raise ValueError(
                f"eta = {self.eta:.3g} below twice the grid spacing "
                f"{self.spacing:.3g}; refine the grid or raise eta"
            )

    @property
    def spacing(self):
        return (self.omega_max - self.omega_min) / (self.n_points - 1)

    @cached_property
    def omegas(self):
        return np.linspace(self.omega_min, self.omega_max, self.n_points)


@dataclass
class FreqGreens:
    """Retarded and Keldysh components, arrays (n_points, n, n) on a FreqGrid.

    Keldysh is anti-hermitian by construction (the dataclass checks shapes
    only); advanced is the retarded hermitian conjugate, derived on access.
    """

    grid: FreqGrid
    retarded: np.ndarray
    keldysh: np.ndarray

    def __post_init__(self):
        self.retarded = np.asarray(self.retarded, dtype=complex)
        self.keldysh = np.asarray(self.keldysh, dtype=complex)
        shape = self.retarded.shape
        if len(shape) != 3 or shape[1] != shape[2]:
            raise ValueError("expected arrays of shape (n_points, n, n)")
        if shape[0] != self.grid.n_points:
            raise ValueError("array length does not match grid.n_points")
        if self.keldysh.shape != shape:
            raise ValueError("component shapes disagree")

    @property
    def advanced(self):
        return np.conj(np.swapaxes(self.retarded, 1, 2))

    @property
    def n_sites(self):
        return self.retarded.shape[1]


@dataclass
class HoppingHamiltonian:
    """Hermitian single-particle Hamiltonian of an n_sites chain."""

    n_sites: int
    matrix: np.ndarray
    boundary: str = "periodic"

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix)
        if self.matrix.shape != (self.n_sites, self.n_sites):
            raise ValueError("matrix shape does not match n_sites")
        if self.boundary not in ("periodic", "open"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if np.max(np.abs(self.matrix - self.matrix.conj().T)) > HERM_TOL:
            raise ValueError("matrix is not hermitian")


@dataclass
class EigenDecomposition:
    """Ascending eigenvalues and the unitary that diagonalizes the chain.

    transform columns are eigenvectors: matrix = U diag(energies) U^dag.
    """

    energies: np.ndarray
    transform: np.ndarray

    def reconstruct(self):
        u = self.transform
        return (u * self.energies) @ u.conj().T


def build_chain(n_sites, onsite, hopping, boundary="periodic"):
    """Uniform chain with onsite energy and nearest-neighbor hopping.

    The hopping matrix element is hopping/2 so a periodic chain disperses as
    onsite + hopping*cos(k). Periodic wrap on two sites doubles the single
    bond; on one site it folds onto the diagonal. Both follow from summing
    the two wrap directions and keep the cosine dispersion exact at any size.
    """

    if n_sites < 1:
        raise ValueError("n_sites must be positive")
    if boundary not in ("periodic", "open"):
        raise ValueError(f"unknown boundary {boundary!r}")
    m = np.zeros((n_sites, n_sites))
    np.fill_diagonal(m, onsite)
    t = 0.5 * hopping
    for i in range(n_sites - 1):
        m[i, i + 1] += t
        m[i + 1, i] += t
    if boundary == "periodic":
        m[n_sites - 1, 0] += t
        m[0, n_sites - 1] += t
    return HoppingHamiltonian(n_sites, m, boundary)


def diagonalize(h):
    """Eigendecomposition with a deterministic gauge.

    Each eigenvector is rescaled so its largest-magnitude component is real
    and positive (first such component on ties), which pins the phase freedom
    and keeps repeated runs bit-identical.
    """

    energies, u = np.linalg.eigh(h.matrix)
    u = np.asarray(u, dtype=complex)
    for k in range(u.shape[1]):
        idx = int(np.argmax(np.abs(u[:, k])))
        pivot = u[idx, k]
        u[:, k] *= np.conj(pivot) / abs(pivot)
    return EigenDecomposition(energies=energies, transform=u)


def fermi_occupation(omega, beta):
    """Fermi function at inverse temperature beta; beta=inf gives the step."""

    omega = np.asarray(omega, dtype=float)
    return 0.5 * (1.0 - thermal_factor(omega, beta))


def thermal_factor(omega, beta):
    """1 - 2 f(omega) = tanh(beta*omega/2), sign(omega) at beta=inf."""

    omega = np.asarray(omega, dtype=float)
    if not (beta > 0):
        raise ValueError("beta must be positive (np.inf allowed)")
    if np.isinf(beta):
        return np.sign(omega)
    return np.tanh(0.5 * beta * omega)


def ideal_greens(h, beta, grid):
    """Bath-free Green functions of the chain at inverse temperature beta.

    The retarded resolvent carries the grid's eta broadening; the Keldysh
    component is the equilibrium combination (G+ - G-)*tanh(beta*omega/2).
    """

    eig = diagonalize(h)
    w = grid.omegas
    denom = 1.0 / (w[:, None] + 1j * grid.eta - eig.energies[None, :])
    u = eig.transform
    gr = np.einsum("ik,wk,jk->wij", u, denom, u.conj(), optimize=True)
    gk = (gr - np.conj(np.swapaxes(gr, 1, 2))) * thermal_factor(w, beta)[:, None, None]
    return FreqGreens(grid=grid, retarded=gr, keldysh=gk)
