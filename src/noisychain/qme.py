"""Master equations and exact small-system references.

The chain's Lindblad equation (sigma^z dephasing at gamma2star, sigma^- decay
at gamma1 per site) keeps the two-point correlators closed (Znidaric,
J. Stat. Mech. (2010) L05002): its spectra and single-excitation occupations
are computed on N x N matrices at any chain length. The Bloch-Redfield
equation has no such closure and runs on the 2^N Jordan-Wigner register
(site s is bit N - 1 - s, through N = 5), but never builds it whole: the
chain Hamiltonian and the density coupling conserve particle number, so the
generator maps each (n_bra, n_ket) sector of the density matrix into itself
(a weak symmetry: Buca & Prosen, New J. Phys. 14, 073007 (2012)). H is
quadratic, so the generator is built per sector in eigenbases of Slater
determinants; on a ring with one bath on every site it also conserves each
coherence's momentum transfer, so every block splits into N groups. Spectra
come from one eigendecomposition of each group of the 2N + 1 sector blocks
that quantum regression reaches (Minganti et al., PRA 98, 042118 (2018)),
each guarded by its own cond(V), and the steady state is the identity's
projection onto their zero modes; single-excitation trajectories step the
N^2-dimensional (1, 1) block alone. No 4^N matrix is built. Site densities
map onto (1 - sigma^z)/2 on the register, so a
density-coupled bath acts through sigma^z/2 = 1/2 - n (the identity part
commutes out of every dissipator) and linewidths line up with the
frequency-domain solver without any rescaling.

Both master equations give their regression correlators (Breuer &
Petruccione, The Theory of Open Quantum Systems) in closed form, so their
spectra are exact resolvents at z = omega + i eta: the lines carry the
grid's eta Lorentzian, the same instrument function as the Keldysh solver's,
and no time window.

Superoperators use row-major vec: vec(A rho B) = kron(A, B.T) vec(rho).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .baths import TlsBath, check_site_baths, half_transform, noise_power
from .errors import CapacityError
from .lattice import FreqGreens, diagonalize, ideal_greens, ring_orbit

__all__ = [
    "DENSE_MAX_SITES",
    "BlochRedfieldGenerator",
    "bloch_redfield_generator",
    "qme_greens",
    "redfield_occupations",
    "lindblad_greens",
    "lindblad_occupations",
    "exact_tls_evolve",
]

DENSE_MAX_SITES = 5
COND_MAX = 1e8
# eig moves an exact zero of L by about cond(V) eps ||L||_1 (Bauer-Fike), at
# most 2.2e-8 ||L||_1 on a block that COND_MAX admits, so an eigenvalue with
# |lam| <= ZERO_MODE ||L||_1 is a zero mode, ||L||_1 over all (k, k) blocks (a
# 1 x 1 one holds only roundoff). On fig2-upper the zero modes lie within
# 3.3e-16 and the slowest decay rate is 8.25e-5, with ||L||_1 <= 4.
ZERO_MODE = 1e-7


def _register_guard(n_sites):
    if n_sites > DENSE_MAX_SITES:
        raise CapacityError(f"register of {n_sites} sites exceeds the supported {DENSE_MAX_SITES}")


def _occupations(basis, n_sites):
    """(len(basis), N) site occupations 0/1 of register indices."""

    return (basis[:, None] >> np.arange(n_sites - 1, -1, -1)) & 1


def _slater_sectors(h, labelled):
    """Register indices, energies, eigenvectors and momentum labels of each sector.

    Sector k's register states x (occupied sites) and eigenstates K (occupied
    orbitals U of h, plane waves e^(2 pi i q s / N) / sqrt(N) on a ring) are
    both the k-subsets of range(N), whose register indices descend in
    lexicographic order. <x|K> = det U[sites(x), K], both ascending as in
    _annihilator; K's energy is its orbitals' sum and its label sum q mod N
    when labelled (one bath on every site of a ring), else 0.
    """

    n = h.n_sites
    if ring_orbit(h):
        u = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
        orbital_energies = np.einsum("sq,st,tq->q", u.conj(), h.matrix, u).real
    else:
        eig = diagonalize(h)
        u, orbital_energies = eig.transform, eig.energies
    subsets = [np.array(list(itertools.combinations(range(n), k)), dtype=int)
               .reshape(math.comb(n, k), k) for k in range(n + 1)]
    return ([(1 << (n - 1 - x[::-1])).sum(axis=1) for x in subsets],
            [orbital_energies[x].sum(axis=1) for x in subsets],
            [np.linalg.det(u[x[::-1, None, :, None], x[None, :, None, :]]) for x in subsets],
            [x.sum(axis=1) % n * labelled for x in subsets])


def _annihilator(site, n_sites):
    """Dense c_site on the 2^N register, sign (-1)^(occupied sites left of site)."""

    occ = _occupations(np.arange(2**n_sites), n_sites)
    ket = np.flatnonzero(occ[:, site])
    out = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
    out[ket - (1 << (n_sites - 1 - site)), ket] = 1 - 2 * (occ[ket, :site].sum(axis=1) % 2)
    return out


@dataclass
class BlochRedfieldGenerator:
    """Nonsecular Redfield generator with optional Lamb shifts, per particle-number sector.

    The chain Hamiltonian and the sigma^z couplings conserve particle number,
    so the generator maps each (n_bra, n_ket) sector of the density matrix
    into itself, and only sectors are ever stored or built. Stored per
    sector k: the register indices bases[k] (site s is bit N - 1 - s), the
    sector's energies, eigenvectors and labels (_slater_sectors), and each
    coupled site's coupling operator A_n and half-transformed partner
    Lambda_n in the sector eigenbasis (coupling_ops[site][k], lambda_ops[site][k]).
    """

    n_sites: int
    bases: list
    energies: list
    transforms: list
    labels: list
    coupling_ops: list
    lambda_ops: list
    secular: bool = False

    def eigen_block(self, n_bra, n_ket):
        """The (n_bra, n_ket) block in the sector eigenbases V = transforms: it acts on
        the row-major vec of V_bra^dag rho[bases[n_bra]][:, bases[n_ket]] V_ket."""

        e_bra, e_ket = self.energies[n_bra], self.energies[n_ket]
        a_bra, lam_bra, a_ket, lam_ket = (
            np.array([op[k] for op in ops]).reshape(-1, e.size, e.size)
            for k, e in ((n_bra, e_bra), (n_ket, e_ket))
            for ops in (self.coupling_ops, self.lambda_ops))
        # sum_n kron(Lambda_n, A_n^T) + kron(A_n, conj(Lambda_n)), one product over the sites
        lv = np.tensordot(np.concatenate([lam_bra, a_bra]),
                          np.concatenate([a_ket.transpose(0, 2, 1), lam_ket.conj()]), axes=(0, 0))
        lv = lv.transpose(0, 2, 1, 3).reshape(e_bra.size * e_ket.size, -1)
        left = (a_bra @ lam_bra).sum(axis=0) + 1j * np.diag(e_bra)
        right = (lam_ket.conj().transpose(0, 2, 1) @ a_ket).sum(axis=0) - 1j * np.diag(e_ket)
        lv -= np.kron(left, np.eye(e_ket.size)) + np.kron(np.eye(e_bra.size), right.T)
        if self.secular:
            flat = (e_bra[:, None] - e_ket[None, :]).reshape(-1)
            top = max(float(np.max(np.abs(e))) for e in self.energies)
            lv = lv * (np.abs(flat[:, None] - flat[None, :]) <= 1e-8 * max(1.0, top))
        return lv

    def block(self, n_bra, n_ket):
        """The generator on the row-major vec of rho[bases[n_bra]][:, bases[n_ket]]."""

        rot = np.kron(self.transforms[n_bra], np.conj(self.transforms[n_ket]))
        return rot @ self.eigen_block(n_bra, n_ket) @ rot.conj().T


def bloch_redfield_generator(h, baths, secular=False, lamb_shift=True):
    """Redfield generator of density-coupled baths on the register, per sector.

    Sector eigenbases are Slater determinants (_slater_sectors). Coupling
    operators are sigma^z_i/2 = 1/2 - n_i (the site density, up to sign and
    its identity part), diagonal in the register, so each sector keeps its
    own block. Each eigenbasis element picks up the half Fourier transform of
    the bath correlation at its own gap: C(gap)/2 plus, when lamb_shift is
    on, -i/(2 pi) times the principal-value integral of C across the bath
    support, which moves peak positions (without it, pure linewidths). One
    gap table per distinct bath covers the gaps within sectors only: coupling
    elements between sectors vanish. baths holds one entry per site: None,
    or a hashable bath with parts and support, such as an OhmicBath.
    """

    n = h.n_sites
    _register_guard(n)
    baths = check_site_baths(baths, lambda b: hasattr(b, "parts"), n)
    bases, energies, transforms, labels = _slater_sectors(h, ring_orbit(h, baths))
    gaps = np.concatenate([(e[:, None] - e[None, :]).reshape(-1) for e in energies])
    splits = np.cumsum([e.size**2 for e in energies])[:-1]
    occs = [_occupations(basis, n) for basis in bases]
    coupling_ops, lambda_ops = [], []
    thetas = {}  # one gap table per distinct (frozen, hashable) bath
    for i, bath in enumerate(baths):
        if bath is None:
            continue
        if bath not in thetas:
            table = half_transform(bath, gaps) if lamb_shift else 0.5 * noise_power(bath, gaps)
            thetas[bath] = [t.reshape(e.size, e.size)
                            for t, e in zip(np.split(table, splits), energies)]
        a_eig = [v.conj().T @ ((0.5 - occ[:, i, None]) * v) for occ, v in zip(occs, transforms)]
        coupling_ops.append(a_eig)
        lambda_ops.append([a * t for a, t in zip(a_eig, thetas[bath])])
    return BlochRedfieldGenerator(n, bases, energies, transforms, labels, coupling_ops,
                                  lambda_ops, secular)


# Higham's theta_m: the 1-norm up to which the degree-m Pade approximant of
# exp meets unit roundoff (SIAM J. Matrix Anal. Appl. 26, 1179 (2005))
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068e0, 13: 5.371920351148152e0}


def _poly(coeffs, powers):
    """coeffs[0] I + sum_k coeffs[k] powers[k - 1], summed into one matrix."""

    out = coeffs[1] * powers[0]
    for c, p in zip(coeffs[2:], powers[1:]):
        out += c * p
    out.flat[:: out.shape[0] + 1] += coeffs[0]
    return out


def _expm(a):
    """exp(a) by Pade scaling and squaring (Higham 2005).

    The lowest degree whose theta_m bounds the 1-norm is used unscaled;
    beyond theta_13, a is halved s times, the degree-13 approximant taken
    and squared s times. The even powers are dropped before the solve.
    Stepping by an eigendecomposition is no substitute: at an exceptional
    point the eigenvectors are singular.
    """

    norm = np.linalg.norm(a, 1)
    degree = next((m for m in (3, 5, 7, 9) if norm <= _THETA[m]), 13)
    # the approximant's coefficients b_j = (2m - j)! / (j! (m - j)!), exact integers
    b = [float(math.factorial(2 * degree - j) // (math.factorial(j) * math.factorial(degree - j)))
         for j in range(degree + 1)]
    s = max(0, int(np.ceil(np.log2(norm / _THETA[13])))) if degree == 13 else 0
    a = a / 2**s if s else a
    powers = [a @ a]
    while len(powers) < (degree // 2 if degree < 13 else 3):
        powers.append(powers[-1] @ powers[0])
    if degree < 13:
        u = a @ _poly(b[1::2], powers)
        v = _poly(b[::2], powers)
    else:
        u = powers[2] @ _poly([0.0] + b[9::2], powers)
        u = a @ (u + _poly(b[1:9:2], powers))
        v = powers[2] @ _poly([0.0] + b[8::2], powers)
        v += _poly(b[:8:2], powers)
    del powers
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _propagate(lv, v, t_grid, keep=slice(None)):
    """v[keep] at every point of a uniform t_grid, v carried by dv/dt = lv v.

    One exp(lv dt) from _expm carries each point to the next; a grid that
    starts after t = 0 takes one more exponential to reach its first point.
    Only the kept entries are stored, so a caller that reads a few of them
    holds (n_t, few) values, not the whole state at every point.
    """

    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a 1d array")
    steps = np.diff(t_grid)
    if np.any(steps <= 0):
        raise ValueError("t_grid must be strictly increasing")
    if steps.size and np.max(np.abs(steps - steps[0])) > 1e-9 * max(steps[0], 1e-30):
        raise ValueError("t_grid must be uniform for propagator stepping")
    if t_grid[0] > 0:
        v = _expm(lv * t_grid[0]) @ v
    out = np.empty((t_grid.size,) + v[keep].shape, dtype=complex)
    out[0] = v[keep]
    if t_grid.size > 1:
        prop = _expm(lv * steps[0])
        for k in range(1, t_grid.size):
            v = prop @ v
            out[k] = v[keep]
    return out


def _distinct_sites(sites, n_sites):
    """The distinct sites in order of first appearance, each inside the register."""

    sites = list(dict.fromkeys(sites))
    for s in sites:
        if not 0 <= s < n_sites:
            raise ValueError(f"site {s} outside register of {n_sites}")
    return sites


def _block_eig(lv, sector):
    """L = V diag(lam) V^-1 of one block group, refused above COND_MAX in 1-norm cond(V)."""

    lam, vecs = np.linalg.eig(lv)
    vinv = np.linalg.inv(vecs)
    cond = np.linalg.norm(vecs, 1) * np.linalg.norm(vinv, 1)
    if not cond <= COND_MAX:
        raise np.linalg.LinAlgError(f"generator block {sector} not safely diagonalizable: "
                                    f"cond(V) = {cond:.3g} exceeds {COND_MAX:.0e}")
    return lam, vecs, vinv


def _transfer_groups(gen, n_bra, n_ket):
    """Positions of |a><b| in the (n_bra, n_ket) eigenbasis block, grouped by (Q_a - Q_b) mod N."""

    transfer = ((gen.labels[n_bra][:, None] - gen.labels[n_ket][None, :]) % gen.n_sites).ravel()
    return [np.flatnonzero(transfer == q) for q in np.unique(transfer)]


def _stationary_state(gen):
    """The t -> infinity limit of the identity state under gen: one (k, k) block per sector.

    Each block, in its sector's eigenbasis, is the identity projected onto
    the zero modes of the (k, k) block's transfer-0 group (which holds every
    |a><a|), V[:, zero] V^-1[zero] rho0: every other mode decays, so this is
    exactly lim exp(L t) rho0, with the identity's part in every zero mode.
    """

    blocks = [gen.eigen_block(k, k) for k in range(gen.n_sites + 1)]
    scale = ZERO_MODE * max(np.linalg.norm(lv, 1) for lv in blocks)
    rho = []
    for k, lv in enumerate(blocks):
        d, idx = gen.bases[k].size, _transfer_groups(gen, k, k)[0]
        lam, vecs, vinv = _block_eig(lv[np.ix_(idx, idx)], (k, k))
        zero = np.abs(lam) <= scale
        block = np.zeros((d, d), dtype=complex)
        block.flat[idx] = vecs[:, zero] @ (vinv[zero] @ np.eye(d).flat[idx] / 2**gen.n_sites)
        rho.append(0.5 * (block + block.conj().T))
    trace = sum(np.trace(block).real for block in rho)
    return [block / trace for block in rho]


def qme_greens(gen, sites, grid):
    """Steady-state Green functions among sites from quantum regression on the register.

    gen conserves particle number, so only 2N + 1 of its sector blocks are
    reached, each built once (gen.eigen_block), and each momentum-transfer
    group of a block (_transfer_groups) is diagonalized once,
    L = V diag(lam) V^-1; a 1-norm cond(V) above COND_MAX raises LinAlgError
    naming the block. The steady state lives on the (k, k) blocks; the
    columns c_p^dag rho and rho c_p^dag land in the (k + 1, k) blocks, where
    <c_n(tau) c_m^dag> and <c_m^dag c_n(tau)> are sums sum_m w_m exp(lam_m tau)
    whose one-sided transforms at z = omega + i eta are exactly
    sum_m w_m (-1 / (lam_m + i z)): the lines carry the grid's eta
    Lorentzian, as the Dyson solve's do. No Re lam exceeds 0 beyond roundoff
    and FreqGrid keeps eta at two or more spacings, so no mode needs special
    handling. Entries are (n_points, s, s) arrays indexed by position among
    the distinct sites.
    """

    sites = _distinct_sites(sites, gen.n_sites)
    rho = _stationary_state(gen)
    register = [_annihilator(s, gen.n_sites) for s in sites]
    lams, weights = [], []
    for k in range(gen.n_sites):
        cs = [gen.transforms[k].conj().T @ c[np.ix_(gen.bases[k], gen.bases[k + 1])]
              @ gen.transforms[k + 1] for c in register]  # c_p from sector k + 1 to k
        # G^> = -i <c_q(tau) c_p^dag> and G^< = i <c_p^dag c_q(tau)>, so G^R's
        # G^> - G^< and the Keldysh half G^> + G^< are the meter c_q read off
        # the evolved columns -i (c_p^dag rho +- rho c_p^dag)
        cols = np.stack([(-1j * (c.conj().T @ rho[k] + sign * rho[k + 1] @ c.conj().T)).ravel()
                         for c in cs for sign in (1, -1)], axis=1)
        meters = np.stack([c.T.ravel() for c in cs])
        lv = gen.eigen_block(k + 1, k)
        for idx in _transfer_groups(gen, k + 1, k):
            lam, vecs, vinv = _block_eig(lv[np.ix_(idx, idx)], (k + 1, k))
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


def redfield_occupations(gen, site, t_grid):
    """(n_t, N) site occupations under gen, one excitation at site.

    gen conserves particle number, so c_site^dag|0><0|c_site and everything
    the generator makes of it stay in the (1, 1) sector block: an
    N^2-dimensional generator, stepped like lindblad_occupations. Its basis
    holds site s at position N - 1 - s, so the occupations are the block's
    diagonal read backwards.
    """

    n = gen.n_sites
    if not 0 <= site < n:
        raise ValueError(f"site {site} outside chain of {n}")
    v0 = np.zeros(n * n, dtype=complex)
    v0[(n - 1 - site) * (n + 1)] = 1.0
    return _propagate(gen.block(1, 1), v0, t_grid, slice(None, None, -(n + 1))).real.copy()


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
    return _propagate(lv, m0, t_grid, slice(None, None, n + 1)).real.copy()


def exact_tls_evolve(h, baths, site, t_grid):
    """(n_t, N + levels) occupations of the chain's sites, then its TLS levels.

    Exact unitary dynamics of the chain plus its TLS environments, valid for
    one excitation above the vacuum: the string-dressed spin model and the
    quadratic tunneling model coincide in that sector, so the evolution is an
    eigensolve in the (N + total levels)-dimensional space.
    The excitation starts on chain site `site`; the TLS levels start empty.
    baths holds one TlsBath or None per site.
    """

    n = h.n_sites
    baths = check_site_baths(baths, lambda b: isinstance(b, TlsBath), n)
    if not 0 <= site < n:
        raise ValueError(f"site {site} outside chain of {n}")
    n_levels = sum(len(b.levels) for b in baths if b is not None)

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
    return np.abs(psi) ** 2
