"""Register master equations by brute force, as test oracles.

noisychain.qme computes the chain's Lindblad spectra and occupations on
N x N matrices, and builds the Bloch-Redfield generator and its spectra per
particle-number sector; these helpers (dense through N = 5) reach the same
numbers by time stepping, by one linear solve per frequency, and by
building the whole 4^N generator in one global eigenbasis, to check that it
does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import warnings

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from noisychain.baths import noise_power
from noisychain.lattice import FreqGreens
from noisychain.qme import (
    _SM,
    _SZ,
    _check_density_matrix,
    _half_transform,
    _propagate,
    _register_guard,
    _site_pauli,
    jw_fermion,
    spin_hamiltonian,
)


@dataclass
class LindbladGenerator:
    """Dephasing-plus-decay Lindblad generator on the spin register.

    Dissipators: rate gamma1 on sigma^- (decay) and gamma2star/2 on sigma^z
    (pure dephasing) per site; with this normalization a single-site
    coherence decays at exactly gamma2star and an excited population at
    gamma1.
    """

    n_sites: int
    hamiltonian: np.ndarray
    gamma1: np.ndarray
    gamma2star: np.ndarray
    _superop: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.hamiltonian = np.asarray(self.hamiltonian, dtype=complex)
        dim = 2**self.n_sites
        if self.hamiltonian.shape != (dim, dim):
            raise ValueError("hamiltonian dimension does not match n_sites")
        self.gamma1 = np.broadcast_to(
            np.asarray(self.gamma1, dtype=float), (self.n_sites,)
        ).copy()
        self.gamma2star = np.broadcast_to(
            np.asarray(self.gamma2star, dtype=float), (self.n_sites,)
        ).copy()
        if np.any(self.gamma1 < 0) or np.any(self.gamma2star < 0):
            raise ValueError("rates must be nonnegative")

    def superoperator(self):
        if self._superop is not None:
            return self._superop
        _register_guard(self.n_sites)
        n = self.n_sites
        dim = 2**n
        hs = sp.csr_matrix(self.hamiltonian)
        ident = sp.identity(dim, format="csr")
        lv = -1j * (sp.kron(hs, ident) - sp.kron(ident, hs.T))
        for i in range(n):
            if self.gamma1[i] > 0:
                sm = _jw_sparse_pauli(_SM, i, n)
                num = (sm.conj().T @ sm).tocsr()
                lv = lv + self.gamma1[i] * (
                    sp.kron(sm, sm.conj())
                    - 0.5 * sp.kron(num, ident)
                    - 0.5 * sp.kron(ident, num.T)
                )
            if self.gamma2star[i] > 0:
                sz = _jw_sparse_pauli(_SZ, i, n)
                lv = lv + 0.5 * self.gamma2star[i] * (
                    sp.kron(sz, sz.conj()) - sp.kron(ident, ident)
                )
        self._superop = np.asarray(lv.todense())
        return self._superop


def _jw_sparse_pauli(op, site, n_sites):
    # bare single-site embedding: the model is defined on the spin register,
    # so the decay jump is sigma^-, not the string-dressed fermion; site
    # occupations obey identical closed equations either way
    return _site_pauli(op, site, n_sites)


def null_steady_state(gen):
    """Steady state from the generator's null space."""

    lv = gen.superoperator()
    vals, vecs = np.linalg.eig(lv)
    idx = int(np.argmin(np.abs(vals)))
    dim = int(round(np.sqrt(lv.shape[0])))
    rho = vecs[:, idx].reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-12:
        raise ValueError("null vector has zero trace; not a state")
    rho = rho / tr
    if np.min(np.linalg.eigvalsh(rho)) < -1e-8:
        raise ValueError("null vector is not a positive state")
    return rho, vals[idx]


def steady_state(gen, rho0, warmup_time, residual_tol=1e-7):
    """Steady state by straight time evolution, with a residual warning."""

    dim = gen.hamiltonian.shape[0]
    rho0 = _check_density_matrix(rho0, dim)
    lv = gen.superoperator()
    v = sla.expm(lv * float(warmup_time)) @ rho0.reshape(-1)
    residual = float(np.max(np.abs(lv @ v)))
    if residual > residual_tol:
        warnings.warn(
            f"steady-state residual {residual:.2e} above {residual_tol:.0e}; "
            "increase warmup_time",
            stacklevel=2,
        )
    rho = v.reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def regression_correlator(gen, rho_ss, a, b, tau_grid):
    """Two-time correlators by quantum regression from a stationary state.

    Returns (forward, reverse): forward[k] = <A(tau_k) B(0)> and
    reverse[k] = <A(0) B(tau_k)>, both propagated with the same generator.
    """

    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if np.asarray(tau_grid)[0] != 0.0:
        raise ValueError("tau_grid must start at 0")
    cols = np.stack([(b @ rho_ss).reshape(-1), (rho_ss @ a).reshape(-1)], axis=1)
    cols = _propagate(gen.superoperator(), cols, tau_grid)
    return cols[:, :, 0] @ a.T.reshape(-1), cols[:, :, 1] @ b.T.reshape(-1)


def resolvent_greens(gen, rho_ss, sites, grid):
    """Retarded and Keldysh components among sites, with no eigendecomposition.

    At each z = omega + i eta one np.linalg.solve of (L + i z) x = -col gives
    the one-sided transform of exp(L tau) col, for the columns c_p^dag rho
    and rho c_p^dag of every site p; Tr(c_q x) reads them out. Entries are
    indexed by position in sites.
    """

    n = gen.n_sites
    dim = 2**n
    cs = np.stack([jw_fermion(s, n) for s in sites])
    cols = np.stack(
        [x.reshape(-1) for c in cs for x in (c.conj().T @ rho_ss, rho_ss @ c.conj().T)], axis=1
    )
    lv = gen.superoperator()
    eye = np.eye(dim * dim)
    ret = np.empty((grid.n_points, len(sites), len(sites)), dtype=complex)
    half = np.empty_like(ret)
    for k, z in enumerate(grid.omegas + 1j * grid.eta):
        x = np.linalg.solve(lv + 1j * z * eye, -cols).reshape(dim, dim, len(sites), 2)
        vals = np.einsum("qab,bapc->qpc", cs, x)  # Tr(c_q x_pc)
        ret[k] = -1j * (vals[..., 0] + vals[..., 1])  # G^> - G^<
        half[k] = -1j * (vals[..., 0] - vals[..., 1])  # G^> + G^<
    return FreqGreens(grid, ret, half - np.conj(np.swapaxes(half, 1, 2)))


def global_redfield_superoperator(h, baths, secular=False, lamb_shift=True):
    """The 4^N Bloch-Redfield generator built in one global eigenbasis.

    One eigh of the whole spin Hamiltonian, one gap table per distinct bath
    on all 4^N gaps, the kron sum of every coupling term, the secular mask
    on all gaps, and the rotation back to the register.
    """

    n = h.n_sites
    _register_guard(n)
    if not isinstance(baths, list):
        baths = [baths] * n
    energies, v = np.linalg.eigh(spin_hamiltonian(h))
    gaps = energies[:, None] - energies[None, :]
    dim = 2**n
    ident = np.eye(dim)
    h_eig = np.diag(energies)
    lv = -1j * (np.kron(h_eig, ident) - np.kron(ident, h_eig.T))
    thetas = {}
    for i, bath in enumerate(baths):
        if bath is None:
            continue
        if bath not in thetas:
            thetas[bath] = (_half_transform(bath, gaps) if lamb_shift
                            else 0.5 * noise_power(bath, gaps))
        a_site = 0.5 * np.asarray(_site_pauli(_SZ, i, n).todense(), dtype=complex)
        a_op = v.conj().T @ a_site @ v
        lam = a_op * thetas[bath]
        lv = lv + np.kron(lam, a_op.T)
        lv = lv + np.kron(a_op, np.conj(lam))
        lv = lv - np.kron(a_op @ lam, ident)
        lv = lv - np.kron(ident, (lam.conj().T @ a_op).T)
    if secular:
        flat = gaps.reshape(-1)
        tol = 1e-8 * max(1.0, float(np.max(np.abs(energies))))
        lv = lv * (np.abs(flat[:, None] - flat[None, :]) <= tol)
    rot = np.kron(v, np.conj(v))
    return rot @ lv @ rot.conj().T
