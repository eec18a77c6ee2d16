"""Tight-binding chains and their free Green functions on a frequency grid.

Single-particle Hamiltonians live here as hermitian matrices in a small
dataclass, with the uniform frequency grid every frequency-domain solver uses
and the retarded and Keldysh components under a site-uniform self-energy (ideal
at zero) from the eigendecomposition; advanced ones are derived.

Units: energies in units of the chain hopping unless stated otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import SingularFrequencyError

HERM_TOL = 1e-12
FREQ_BLOCK = 512  # frequencies per block of a solve on the grid

__all__ = [
    "FreqGrid",
    "FreqGreens",
    "HoppingHamiltonian",
    "EigenDecomposition",
    "build_chain",
    "diagonalize",
    "ring_orbit",
    "fermi_occupation",
    "thermal_factor",
    "ideal_greens",
    "uniform_greens",
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


@dataclass
class HoppingHamiltonian:
    """Hermitian single-particle Hamiltonian of an n_sites chain."""

    n_sites: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix)
        if self.matrix.shape != (self.n_sites, self.n_sites):
            raise ValueError("matrix shape does not match n_sites")
        if np.max(np.abs(self.matrix - self.matrix.conj().T)) > HERM_TOL:
            raise ValueError("matrix is not hermitian")


@dataclass
class EigenDecomposition:
    """Ascending eigenvalues and the unitary that diagonalizes the chain.

    transform columns are eigenvectors: matrix = U diag(energies) U^dag.
    """

    energies: np.ndarray
    transform: np.ndarray


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
    return HoppingHamiltonian(n_sites, m)


def diagonalize(h):
    """Eigendecomposition with a deterministic gauge.

    Each eigenvector is rescaled so its largest-magnitude component is real
    and positive (first such component on ties), which pins the phase freedom
    and keeps repeated runs bit-identical.
    """

    energies, u = np.linalg.eigh(h.matrix)
    u = np.asarray(u, dtype=complex)
    pivot = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    u *= np.conj(pivot) / np.abs(pivot)
    return EigenDecomposition(energies=energies, transform=u)


def ring_orbit(h, baths=None):
    """Whether the sites form one translation orbit: h is circulant (np.roll(h.matrix, 1,
    axis=(0, 1)) equals h.matrix) and, if baths are given, every site has the same bath."""

    return (np.array_equal(np.roll(h.matrix, 1, axis=(0, 1)), h.matrix)
            and (baths is None or None not in baths and len(set(baths)) == 1))


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


def ideal_greens(h, beta, grid, sites=None):
    """Bath-free Green functions of the chain at inverse temperature beta.

    The retarded resolvent carries the grid's eta broadening; the Keldysh
    component is the equilibrium combination (G+ - G-)*tanh(beta*omega/2).
    Only the entries between `sites` (default: every site) are built, as
    (n_points, s, s) arrays indexed by position in `sites` (uniform_greens).
    """

    return uniform_greens(h, beta, grid, sites)


def uniform_greens(h, beta, grid, sites=None, sigma_r=0.0, sigma_k=0.0):
    """Green functions of the chain under a site-uniform self-energy.

    sigma_r and sigma_k ((n_points,) or scalars) sit on every site and commute
    with h = U diag(E) U^dag: G^+ = U D U^dag with
    D = (omega + i*eta - sigma_r - E)^-1, and G^K = (sigma_k - 2i*eta*F)
    U |D|^2 U^dag, F = tanh(beta*omega/2) as in keldysh.dyson_solve. Built
    from the weights u_ik conj(u_jk), FREQ_BLOCK frequencies at a time; a
    singular D raises SingularFrequencyError at its first frequency.
    """

    eig = diagonalize(h)
    u = eig.transform if sites is None else eig.transform[list(sites)]
    s = u.shape[0]
    weights = (u.conj()[None, :, :] * u[:, None, :]).reshape(s * s, -1)
    w = grid.omegas
    z = w + 1j * grid.eta - sigma_r
    kern = sigma_k - 2j * grid.eta * thermal_factor(w, beta)
    gr = np.empty((grid.n_points, s, s), dtype=complex)
    gk = np.empty_like(gr)
    for start in range(0, grid.n_points, FREQ_BLOCK):
        blk = slice(start, start + FREQ_BLOCK)
        with np.errstate(all="ignore"):
            d = 1.0 / (z[blk, None] - eig.energies)
        bad = ~np.isfinite(d).all(axis=1)
        if np.any(bad):
            raise SingularFrequencyError(w[blk][int(np.argmax(bad))])
        gr[blk] = np.dot(weights, d.T).T.reshape(-1, s, s)
        d = d.real**2 + d.imag**2  # |D|^2, real, so diagonal G^K stays imaginary
        gk[blk] = kern[blk, None, None] * np.dot(weights, d.T).T.reshape(-1, s, s)
    return FreqGreens(grid=grid, retarded=gr, keldysh=gk)
