"""Tight-binding chains and their free Green functions on a frequency grid.

Single-particle Hamiltonians live here as read-only hermitian matrices that
own their eigensystem, with the uniform frequency grid every frequency-domain
solver uses and the Green functions under a site-uniform self-energy: G^R from
the eigenbasis resolvent, G^K = F_eff (G^R - G^A); advanced ones are derived.

Units: energies in units of the chain hopping unless stated otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "ring_orbit",
    "fermi_occupation",
    "thermal_factor",
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
class EigenDecomposition:
    """Ascending eigenvalues and the unitary that diagonalizes the chain.

    transform columns are eigenvectors: matrix = U diag(energies) U^dag.
    """

    energies: np.ndarray
    transform: np.ndarray


@dataclass(frozen=True)
class HoppingHamiltonian:
    """Hermitian single-particle Hamiltonian of an n_sites chain.

    matrix is a read-only copy of the one given, so the eigensystem `eig`,
    computed on its first read, stays the chain's for the object's life.
    """

    n_sites: int
    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.array(self.matrix)
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        if matrix.shape != (self.n_sites, self.n_sites):
            raise ValueError("matrix shape does not match n_sites")
        if np.max(np.abs(matrix - matrix.conj().T)) > HERM_TOL:
            raise ValueError("matrix is not hermitian")

    @cached_property
    def eig(self):
        """Eigendecomposition with a deterministic gauge, read-only.

        Each eigenvector is rescaled so its largest-magnitude component is
        real and positive (first such component on ties), which pins the
        phase freedom and keeps repeated runs bit-identical.
        """

        energies, u = np.linalg.eigh(self.matrix)
        u = np.asarray(u, dtype=complex)
        pivot = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
        u *= np.conj(pivot) / np.abs(pivot)
        energies.flags.writeable = u.flags.writeable = False
        return EigenDecomposition(energies=energies, transform=u)


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


def uniform_greens(h, grid, sites, sigma_r, f_eff):
    """Green functions of the chain under a site-uniform self-energy.

    sigma_r sits on every site and commutes with h = U diag(E) U^dag:
    G^+ = U D U^dag, D = (omega + i*eta - sigma_r - E)^-1, from the weights
    u_ik conj(u_jk) of `sites` (None: all), FREQ_BLOCK frequencies at a time;
    one distribution function f_eff fixes G^K = f_eff (G^+ - G^-) (Kamenev &
    Levchenko, Adv. Phys. 58, 197 (2009)). sigma_r and f_eff are (n_points,)
    or scalars. A singular D or a non-finite f_eff raises
    SingularFrequencyError at its first frequency.
    """

    eig = h.eig
    u = eig.transform if sites is None else eig.transform[list(sites)]
    s = u.shape[0]
    weights = (u.conj()[None, :, :] * u[:, None, :]).reshape(s * s, -1)
    w = grid.omegas
    z = w + 1j * grid.eta - sigma_r
    f_eff = np.broadcast_to(f_eff, w.shape)
    gr = np.empty((grid.n_points, s, s), dtype=complex)
    gk = np.empty_like(gr)
    table = np.empty((min(FREQ_BLOCK, grid.n_points), eig.energies.size), dtype=complex)
    for start in range(0, grid.n_points, FREQ_BLOCK):
        blk = slice(start, start + FREQ_BLOCK)
        d = table[: w[blk].size]  # the one resolvent table, D of this block
        with np.errstate(all="ignore"):
            np.divide(1.0, np.subtract(z[blk, None], eig.energies, out=d), out=d)
        bad = ~(np.isfinite(d).all(axis=1) & np.isfinite(f_eff[blk]))
        if np.any(bad):
            raise SingularFrequencyError(w[blk][int(np.argmax(bad))])
        g = gr[blk] = np.dot(weights, d.T).T.reshape(-1, s, s)
        gk[blk] = f_eff[blk, None, None] * (g - np.conj(np.swapaxes(g, 1, 2)))
    return FreqGreens(grid=grid, retarded=gr, keldysh=gk)
