"""Master equations and exact small-system references.

The chain's Lindblad equation (sigma^z dephasing at gamma2star, sigma^- decay
at gamma1 per site) keeps the two-point correlators closed (Znidaric,
J. Stat. Mech. (2010) L05002): its spectra and single-excitation occupations
are computed on N x N matrices at any chain length. The Bloch-Redfield
equation has no such closure and runs densely on the 2^N Jordan-Wigner spin
register, through N = 5. The chain Hamiltonian and the density coupling
conserve particle number, so its generator maps each (n_bra, n_ket) sector
of the density matrix into itself (a weak symmetry: Buca & Prosen, New J.
Phys. 14, 073007 (2012)); it is built sector by sector, with each sector's
own eigenbasis and gap table. Its spectra come from one eigendecomposition
of each of the 2N + 1 sector blocks that quantum regression reaches
(Minganti et al., PRA 98, 042118 (2018)), so each block must be
diagonalizable, guarded by its own cond(V), and no 4^N matrix is built; its
trajectories step the full propagator, assembled from all the blocks. Site
densities map onto (sigma^z + 1)/2 there, so a density-coupled bath acts
through sigma^z/2 (the identity part commutes out of every dissipator) and
linewidths line up with the frequency-domain solver without any rescaling.

Both master equations give their regression correlators (Breuer &
Petruccione, The Theory of Open Quantum Systems) in closed form, so their
spectra are exact resolvents at z = omega + i eta: the lines carry the
grid's eta Lorentzian, the same instrument function as the Keldysh solver's,
and no time window.

Superoperators use row-major vec: vec(A rho B) = kron(A, B.T) vec(rho).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.integrate import quad

from .baths import FlatNoise, OhmicBath, TlsBath, noise_power, support_halfwidth
from .errors import CapacityError
from .lattice import FreqGreens, ideal_greens

__all__ = [
    "JW_MAX_SITES",
    "DENSE_MAX_SITES",
    "jw_fermion",
    "spin_hamiltonian",
    "BlochRedfieldGenerator",
    "bloch_redfield_generator",
    "lindblad_evolve",
    "qme_greens",
    "lindblad_greens",
    "lindblad_occupations",
    "TlsTrajectory",
    "exact_tls_evolve",
]

JW_MAX_SITES = 12
DENSE_MAX_SITES = 5
COND_MAX = 1e8

_SZ = sp.csr_matrix(np.diag([1.0, -1.0]))
_SM = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))  # lowers |1> -> |0>
_ID = sp.identity(2, format="csr")


def _kron_chain(factors):
    out = factors[0]
    for f in factors[1:]:
        out = sp.kron(out, f, format="csr")
    return out


def _jw_sparse(site, n_sites):
    factors = [_SZ] * site + [_SM] + [_ID] * (n_sites - site - 1)
    return _kron_chain(factors)


def _site_pauli(op, site, n_sites):
    factors = [_ID] * n_sites
    factors[site] = op
    return _kron_chain(factors)


def jw_fermion(site, n_sites):
    """Dense annihilation operator of one site in the 2^N spin register.

    Jordan-Wigner string of sigma^z on the sites to the left; basis bit 1
    means occupied. Hard-capped at 12 sites; the dense matrix alone is a
    quarter gigabyte there.
    """

    if n_sites < 1:
        raise ValueError("n_sites must be positive")
    if n_sites > JW_MAX_SITES:
        raise CapacityError(f"jw_fermion supports at most {JW_MAX_SITES} sites")
    if not 0 <= site < n_sites:
        raise ValueError(f"site {site} outside register of {n_sites}")
    return np.asarray(_jw_sparse(site, n_sites).todense(), dtype=complex)


def spin_hamiltonian(h):
    """Spin-register image of a quadratic chain Hamiltonian.

    sum_ij t_ij c_i^dag c_j with the Jordan-Wigner fermions; equals the
    direct Pauli construction identically because the string operators
    cancel on nearest products.
    """

    n = h.n_sites
    if n > JW_MAX_SITES:
        raise CapacityError(f"spin_hamiltonian supports at most {JW_MAX_SITES} sites")
    cs = [_jw_sparse(i, n) for i in range(n)]
    dim = 2**n
    out = sp.csr_matrix((dim, dim), dtype=complex)
    rows, cols = np.nonzero(h.matrix)
    for i, j in zip(rows, cols):
        out = out + h.matrix[i, j] * (cs[i].conj().T @ cs[j])
    return np.asarray(out.todense(), dtype=complex)


def _register_guard(n_sites):
    if n_sites > DENSE_MAX_SITES:
        raise CapacityError(f"register of {n_sites} sites exceeds the supported {DENSE_MAX_SITES}")


def _sector_bases(n_sites):
    """Register indices of each particle number 0..N (basis bit 1 is occupied)."""

    counts = np.array([bin(i).count("1") for i in range(2**n_sites)])
    return [np.flatnonzero(counts == k) for k in range(n_sites + 1)]


@dataclass
class BlochRedfieldGenerator:
    """Nonsecular Redfield generator with optional Lamb shifts, per particle-number sector.

    The spin Hamiltonian and the sigma^z couplings conserve particle number,
    so the generator maps each (n_bra, n_ket) sector of the density matrix
    into itself. Stored per sector k: the register indices bases[k], the
    sector's energies and eigenvectors, and for every coupled site the
    coupling operator A_n and its half-transformed partner Lambda_n in the
    sector eigenbasis (coupling_ops[site][k], lambda_ops[site][k]).
    """

    n_sites: int
    hamiltonian: np.ndarray
    bases: list
    energies: list
    transforms: list
    coupling_ops: list
    lambda_ops: list
    secular: bool = False
    _superop: object = field(default=None, repr=False, compare=False)

    def block(self, n_bra, n_ket):
        """The generator on the (n_bra, n_ket) sector, in the register basis.

        Acts on the row-major vec of rho[bases[n_bra]][:, bases[n_ket]].
        """

        e_bra, e_ket = self.energies[n_bra], self.energies[n_ket]
        id_bra, id_ket = np.eye(e_bra.size), np.eye(e_ket.size)
        lv = -1j * (np.kron(np.diag(e_bra), id_ket) - np.kron(id_bra, np.diag(e_ket)))
        for a_ops, lam_ops in zip(self.coupling_ops, self.lambda_ops):
            a_bra, a_ket = a_ops[n_bra], a_ops[n_ket]
            lam_bra, lam_ket = lam_ops[n_bra], lam_ops[n_ket]
            lv = lv + np.kron(lam_bra, a_ket.T)
            lv = lv + np.kron(a_bra, np.conj(lam_ket))
            lv = lv - np.kron(a_bra @ lam_bra, id_ket)
            lv = lv - np.kron(id_bra, (lam_ket.conj().T @ a_ket).T)
        if self.secular:
            flat = (e_bra[:, None] - e_ket[None, :]).reshape(-1)
            top = max(float(np.max(np.abs(e))) for e in self.energies)
            lv = lv * (np.abs(flat[:, None] - flat[None, :]) <= 1e-8 * max(1.0, top))
        rot = np.kron(self.transforms[n_bra], np.conj(self.transforms[n_ket]))
        return rot @ lv @ rot.conj().T

    def superoperator(self):
        """The full 4^N generator, assembled from all (N + 1)^2 sector blocks."""

        if self._superop is not None:
            return self._superop
        _register_guard(self.n_sites)
        dim = 2**self.n_sites
        lv = np.zeros((dim * dim, dim * dim), dtype=complex)
        for n_bra, bra in enumerate(self.bases):
            for n_ket, ket in enumerate(self.bases):
                idx = (bra[:, None] * dim + ket[None, :]).reshape(-1)
                lv[np.ix_(idx, idx)] = self.block(n_bra, n_ket)
        self._superop = lv
        return self._superop


def _half_transform(bath, gaps):
    """C(gap)/2 - (i/2pi) P int C(nu)/(gap - nu) d nu at every gap, rounded to 1e-12."""

    half = support_halfwidth(bath)
    table = {}
    for key in dict.fromkeys(round(float(g), 12) for g in gaps.ravel()):
        c_here = float(noise_power(bath, np.asarray(key)))
        if abs(key) < half:
            def regular(nu):
                d = key - nu
                if d == 0.0:
                    return 0.0
                return (float(noise_power(bath, np.asarray(nu))) - c_here) / d

            pv, _ = quad(regular, -half, half, points=[key], limit=400)
            pv += c_here * np.log(abs((key + half) / (half - key)))
        else:
            def plain(nu):
                return float(noise_power(bath, np.asarray(nu))) / (key - nu)

            pv, _ = quad(plain, -half, half, limit=400)
        table[key] = 0.5 * c_here - 1j * pv / (2.0 * np.pi)
    return np.array([table[round(float(g), 12)] for g in gaps.ravel()]).reshape(gaps.shape)


def bloch_redfield_generator(h, baths, secular=False, lamb_shift=True):
    """Redfield generator of density-coupled baths on the spin register, per sector.

    The spin Hamiltonian is diagonalized once per particle-number sector.
    Coupling operators are sigma^z_i/2 (the site density minus its identity
    part); they are diagonal in the register basis, so each sector keeps its
    own block of them. Each eigenbasis element picks up the half Fourier
    transform of the bath correlation at its own gap: C(gap)/2 plus, when
    lamb_shift is on, -i/(2 pi) times the principal-value integral of C
    across the bath support. The gap table is built once per distinct bath
    and only on gaps within a sector: coupling elements between sectors
    vanish, so their gaps are never used. The principal values are what
    moves peak positions; dropping them leaves pure linewidths.
    """

    n = h.n_sites
    _register_guard(n)
    if isinstance(baths, (OhmicBath, FlatNoise)) or baths is None:
        baths = [baths] * n
    baths = list(baths)
    if len(baths) != n:
        raise ValueError("need one bath entry per site (or a single bath)")
    hs = spin_hamiltonian(h)
    bases = _sector_bases(n)
    energies, transforms = [], []
    for basis in bases:
        e, v = np.linalg.eigh(hs[np.ix_(basis, basis)])
        energies.append(e)
        transforms.append(np.asarray(v, dtype=complex))
    gaps = np.concatenate([(e[:, None] - e[None, :]).reshape(-1) for e in energies])
    splits = np.cumsum([e.size**2 for e in energies])[:-1]
    coupling_ops = []
    lambda_ops = []
    thetas = {}  # one gap table per distinct (frozen, hashable) bath
    for i, bath in enumerate(baths):
        if bath is None:
            continue
        if not isinstance(bath, (OhmicBath, FlatNoise)):
            raise TypeError(f"unsupported bath type {type(bath).__name__}")
        if bath not in thetas:
            table = (_half_transform(bath, gaps) if lamb_shift
                     else 0.5 * noise_power(bath, gaps))
            thetas[bath] = [t.reshape(e.size, e.size)
                            for t, e in zip(np.split(table, splits), energies)]
        a_site = 0.5 * _site_pauli(_SZ, i, n).diagonal()
        a_eig = [v.conj().T @ (a_site[basis, None] * v) for basis, v in zip(bases, transforms)]
        coupling_ops.append(a_eig)
        lambda_ops.append([a * t for a, t in zip(a_eig, thetas[bath])])
    return BlochRedfieldGenerator(
        n_sites=n,
        hamiltonian=hs,
        bases=bases,
        energies=energies,
        transforms=transforms,
        coupling_ops=coupling_ops,
        lambda_ops=lambda_ops,
        secular=secular,
    )


def _check_density_matrix(rho, dim):
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError("density matrix dimension mismatch")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValueError("density matrix must be hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise ValueError("density matrix must have unit trace")
    if np.min(np.linalg.eigvalsh(rho)) < -1e-8:
        raise ValueError("density matrix must be positive semidefinite")
    return rho


def _propagate(lv, v, t_grid):
    """v carried by dv/dt = lv v to every point of a uniform t_grid."""

    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a 1d array")
    steps = np.diff(t_grid)
    if np.any(steps <= 0):
        raise ValueError("t_grid must be strictly increasing")
    if steps.size and np.max(np.abs(steps - steps[0])) > 1e-9 * max(steps[0], 1e-30):
        raise ValueError("t_grid must be uniform for propagator stepping")
    if t_grid[0] > 0:
        v = sla.expm(lv * t_grid[0]) @ v
    out = np.empty((t_grid.size,) + v.shape, dtype=complex)
    out[0] = v
    if t_grid.size > 1:
        prop = sla.expm(lv * steps[0])
        for k in range(1, t_grid.size):
            out[k] = prop @ out[k - 1]
    return out


def lindblad_evolve(gen, rho0, t_grid):
    """Density matrices along a uniform time grid under gen's generator."""

    dim = gen.hamiltonian.shape[0]
    rho0 = _check_density_matrix(rho0, dim)
    return _propagate(gen.superoperator(), rho0.reshape(-1), t_grid).reshape(-1, dim, dim)


def _distinct_sites(sites, n_sites):
    """The distinct sites in order of first appearance, each inside the register."""

    sites = list(dict.fromkeys(sites))
    for s in sites:
        if not 0 <= s < n_sites:
            raise ValueError(f"site {s} outside register of {n_sites}")
    return sites


def _block_eig(lv, sector):
    """L = V diag(lam) V^-1 of one sector block, refused above COND_MAX in 1-norm cond(V)."""

    lam, vecs = np.linalg.eig(lv)
    vinv = np.linalg.inv(vecs)
    cond = np.linalg.norm(vecs, 1) * np.linalg.norm(vinv, 1)
    if not cond <= COND_MAX:
        raise np.linalg.LinAlgError(f"generator block {sector} not safely diagonalizable: "
                                    f"cond(V) = {cond:.3g} exceeds {COND_MAX:.0e}")
    return lam, vecs, vinv


def qme_greens(gen, sites, warmup_time, grid):
    """Steady-state Green functions among sites from quantum regression on the register.

    gen conserves particle number, so only 2N + 1 of its (n_bra, n_ket)
    sector blocks are reached, each taken from gen.block and diagonalized
    once, L = V diag(lam) V^-1. The domain is generators whose blocks are
    diagonalizable: a 1-norm cond(V) above COND_MAX in any block raises
    LinAlgError. The identity state lives on the (k, k) blocks and relaxes
    there to V exp(lam warmup_time) V^-1 rho0, exactly exp(L warmup_time)
    rho0, with a warning when max|L rho| exceeds 1e-7. The columns
    c_p^dag rho and rho c_p^dag both land in the (k + 1, k) blocks, where the
    correlators <c_n(tau) c_m^dag> and <c_m^dag c_n(tau)> are exponential
    sums sum_m w_m exp(lam_m tau), whose one-sided transform at
    z = omega + i eta is exactly sum_m w_m (-1 / (lam_m + i z)): the lines
    carry the grid's eta Lorentzian, as the Dyson solve's do. No Re lam
    exceeds 0 beyond roundoff and FreqGrid keeps eta at two spacings or more,
    so no mode, the zero modes included, needs special handling. No 4^N
    matrix is built. Entries are (n_points, s, s) arrays indexed by position
    among the distinct sites.
    """

    sites = _distinct_sites(sites, gen.n_sites)
    dim = 2**gen.n_sites
    bases = _sector_bases(gen.n_sites)
    rho = np.zeros((dim, dim), dtype=complex)
    residual = 0.0
    for k, basis in enumerate(bases):
        lv = gen.block(k, k)
        lam, vecs, vinv = _block_eig(lv, (k, k))
        v = vecs @ (np.exp(lam * float(warmup_time))
                    * (vinv @ np.eye(basis.size).reshape(-1) / dim))
        residual = max(residual, float(np.max(np.abs(lv @ v))))
        rho[np.ix_(basis, basis)] = v.reshape(basis.size, basis.size)
    if residual > 1e-7:
        warnings.warn(
            f"steady-state residual {residual:.2e} above 1e-07; increase warmup_time",
            stacklevel=2,
        )
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real

    cs = [jw_fermion(s, gen.n_sites) for s in sites]
    # G^> = -i <c_q(tau) c_p^dag> and G^< = i <c_p^dag c_q(tau)>, so G^R's
    # G^> - G^< and the Keldysh half G^> + G^< are the meter c_q read off the
    # evolved columns -i (c_p^dag rho +- rho c_p^dag)
    cols = np.stack([(-1j * (c.conj().T @ rho + sign * rho @ c.conj().T)).reshape(-1)
                     for c in cs for sign in (1, -1)], axis=1)
    meters = np.stack([c.T.reshape(-1) for c in cs])
    lams, weights = [], []
    for k in range(gen.n_sites):
        idx = (bases[k + 1][:, None] * dim + bases[k][None, :]).reshape(-1)
        lam, vecs, vinv = _block_eig(gen.block(k + 1, k), (k + 1, k))
        # weights[m, q * 2s + col] = (meter_q V)_m (V^-1 col)_m
        weights.append(((meters[:, idx] @ vecs).T[:, :, None]
                        * (vinv @ cols[idx])[:, None, :]).reshape(lam.size, -1))
        lams.append(lam)
    lam = np.concatenate(lams)
    weights = np.concatenate(weights)
    z = grid.omegas + 1j * grid.eta
    out = np.empty((z.size, weights.shape[1]), dtype=complex)
    for start in range(0, z.size, 512):  # blocks bound the resolvent table
        out[start:start + 512] = (-1.0 / (lam + 1j * z[start:start + 512, None])) @ weights
    out = out.reshape(z.size, len(sites), len(sites), 2)
    half = out[..., 1]
    return FreqGreens(grid, out[..., 0], half - np.conj(np.swapaxes(half, 1, 2)))


def _check_rates(gamma1, gamma2star):
    if gamma1 < 0 or gamma2star < 0:
        raise ValueError("rates must be nonnegative")


def lindblad_greens(h, gamma1, gamma2star, sites, grid):
    """Steady-state Green functions among sites under the chain's Lindblad equation.

    Quantum regression closes on single-particle operators:
    <c_q(tau) c_p^dag> = (1 - n) U_qp(tau) and <c_p^dag c_q(tau)> = n U_qp(tau)
    with U = exp(-i (h - i Gamma) tau) and Gamma = gamma2star + gamma1/2.
    n = 0 is the vacuum, the steady state when gamma1 > 0; n = 1/2 is the
    identity state, stationary when gamma1 = 0. The one-sided transform at
    z = omega + i eta is exactly G^R = (z - h + i Gamma)^-1, the bare
    resolvent on the grid broadened by Gamma, and G^K = (1 - 2n)(G^R - G^A).
    Entries are (n_points, s, s) arrays indexed by position among the
    distinct sites.
    """

    _check_rates(gamma1, gamma2star)
    sites = _distinct_sites(sites, h.n_sites)
    damped = replace(grid, eta=grid.eta + gamma2star + 0.5 * gamma1)
    gr = ideal_greens(h, np.inf, damped, sites).retarded
    filling = 0.0 if gamma1 > 0 else 0.5
    return FreqGreens(grid, gr, (1.0 - 2.0 * filling) * (gr - np.conj(np.swapaxes(gr, 1, 2))))


def lindblad_occupations(h, gamma1, gamma2star, site, t_grid):
    """(n_t, N) site occupations under the chain's Lindblad equation, one excitation at site.

    In the single-excitation sector M_ij = <c_j^dag c_i> obeys
    dM/dt = -i[h, M] - gamma1 M - 2 gamma2star offdiag(M).
    """

    _check_rates(gamma1, gamma2star)
    n = h.n_sites
    if not 0 <= site < n:
        raise ValueError(f"site {site} outside chain of {n}")
    ident = np.eye(n)
    decay = gamma1 + 2.0 * gamma2star * (1.0 - ident)
    lv = -1j * (np.kron(h.matrix, ident) - np.kron(ident, h.matrix.T)) - np.diag(decay.ravel())
    m0 = np.zeros(n * n, dtype=complex)
    m0[site * (n + 1)] = 1.0  # row-major vec(M): M_ii sits at i * (n + 1)
    return _propagate(lv, m0, t_grid)[:, :: n + 1].real


@dataclass
class TlsTrajectory:
    """Occupations from the exact single-excitation evolution."""

    t_grid: np.ndarray
    qubit_occupations: np.ndarray
    tls_occupations: np.ndarray
    site: int

    @property
    def total(self):
        return self.qubit_occupations.sum(axis=1) + self.tls_occupations.sum(axis=1)


def _excited_site(ini, n_sites):
    if isinstance(ini, (int, np.integer)):
        site = int(ini)
        if not 0 <= site < n_sites:
            raise ValueError(f"site {site} outside chain of {n_sites}")
        return site
    occ = ini.occupation_matrix()
    diag = np.diag(occ).real
    site = int(np.argmax(diag))
    target = np.zeros_like(occ)
    target[site, site] = 1.0
    if np.max(np.abs(occ - target)) > 1e-8:
        raise ValueError(
            "initial state outside the single-excitation sector: need exactly "
            "one fully occupied site"
        )
    return site


def exact_tls_evolve(h, baths, ini, t_grid):
    """Exact unitary dynamics of the chain plus its TLS environments.

    Valid for one excitation above the vacuum: the string-dressed spin model
    and the quadratic tunneling model coincide in that sector, so the
    evolution is an eigensolve in the (N + total levels)-dimensional space.
    ini is a site index or an initial-state descriptor occupying exactly one
    site; the TLS levels start empty.
    """

    from .kbe import InitialState  # local import, kbe pulls no qme symbols

    n = h.n_sites
    baths = list(baths)
    if len(baths) != n:
        raise ValueError("need one baths entry per site")
    for b in baths:
        if b is not None and not isinstance(b, TlsBath):
            raise TypeError("exact_tls_evolve supports TlsBath entries only")
    n_levels = sum(len(b.levels) for b in baths if b is not None)
    if not isinstance(ini, (int, np.integer, InitialState)):
        raise ValueError("ini must be a site index or InitialState")
    site = _excited_site(ini, n)

    dim = n + n_levels
    hs = np.zeros((dim, dim))
    hs[:n, :n] = h.matrix.real
    col = n
    for i, bath in enumerate(baths):
        if bath is None:
            continue
        for eps, g in bath.levels:
            hs[col, col] = eps
            hs[i, col] = g
            hs[col, i] = g
            col += 1
    energies, u = np.linalg.eigh(hs)
    t_grid = np.asarray(t_grid, dtype=float)
    amp0 = u[site, :].conj()  # initial amplitudes in the eigenbasis
    phases = np.exp(-1j * np.outer(t_grid, energies))
    psi = (phases * amp0[None, :]) @ u.T
    occ = np.abs(psi) ** 2
    return TlsTrajectory(
        t_grid=t_grid,
        qubit_occupations=occ[:, :n],
        tls_occupations=occ[:, n:],
        site=site,
    )
