"""Master equations and exact small-system references.

The chain's Lindblad equation (sigma^z dephasing at gamma2star, sigma^- decay
at gamma1 per site) keeps the two-point correlators closed (Znidaric,
J. Stat. Mech. (2010) L05002): its spectra and single-excitation occupations
are computed on N x N matrices at any chain length. The Bloch-Redfield
equation has no such closure and runs densely on the 2^N Jordan-Wigner spin
register, through N = 5. Its spectra come from one eigendecomposition of the
fixed generator (Minganti et al., PRA 98, 042118 (2018)), so they need a
diagonalizable generator, guarded by cond(V); its trajectories step the
propagator. Site densities map onto (sigma^z + 1)/2 there, so a
density-coupled bath acts through sigma^z/2 (the identity part commutes out
of every dissipator) and linewidths line up with the frequency-domain solver
without any rescaling.

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
EXACT_MAX_SPINS = 16
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


@dataclass
class BlochRedfieldGenerator:
    """Nonsecular Redfield generator with optional Lamb shifts.

    Stored in the energy eigenbasis: coupling operators A_n and their
    half-transformed partners Lambda_n, plus the unitary that rotates back
    to the site register.
    """

    n_sites: int
    hamiltonian: np.ndarray
    energies: np.ndarray
    transform: np.ndarray
    coupling_ops: list
    lambda_ops: list
    secular: bool = False
    _superop: object = field(default=None, repr=False, compare=False)

    def superoperator(self):
        if self._superop is not None:
            return self._superop
        _register_guard(self.n_sites)
        dim = 2**self.n_sites
        ident = np.eye(dim)
        h_eig = np.diag(self.energies)
        lv = -1j * (np.kron(h_eig, ident) - np.kron(ident, h_eig.T))
        for a_op, lam in zip(self.coupling_ops, self.lambda_ops):
            lv = lv + np.kron(lam, a_op.T)
            lv = lv + np.kron(a_op, np.conj(lam))
            lv = lv - np.kron(a_op @ lam, ident)
            lv = lv - np.kron(ident, (lam.conj().T @ a_op).T)
        if self.secular:
            gaps = self.energies[:, None] - self.energies[None, :]
            flat = gaps.reshape(-1)
            tol = 1e-8 * max(1.0, float(np.max(np.abs(self.energies))))
            mask = np.abs(flat[:, None] - flat[None, :]) <= tol
            lv = lv * mask
        rot = np.kron(self.transform, np.conj(self.transform))
        self._superop = rot @ lv @ rot.conj().T
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
    """Redfield generator of density-coupled baths on the spin register.

    Coupling operators are sigma^z_i/2 (the site density minus its identity
    part). Each eigenbasis element picks up the half Fourier transform of
    the bath correlation at its own gap: C(gap)/2 plus, when lamb_shift is
    on, -i/(2 pi) times the principal-value integral of C across the bath
    support, tabulated once per distinct bath. The principal values are
    what moves peak positions; dropping them leaves pure linewidths.
    """

    n = h.n_sites
    _register_guard(n)
    if isinstance(baths, (OhmicBath, FlatNoise)) or baths is None:
        baths = [baths] * n
    baths = list(baths)
    if len(baths) != n:
        raise ValueError("need one bath entry per site (or a single bath)")
    hs = spin_hamiltonian(h)
    energies, v = np.linalg.eigh(hs)
    gaps = energies[:, None] - energies[None, :]
    coupling_ops = []
    lambda_ops = []
    thetas = {}  # one gap table per distinct (frozen, hashable) bath
    for i, bath in enumerate(baths):
        if bath is None:
            continue
        if not isinstance(bath, (OhmicBath, FlatNoise)):
            raise TypeError(f"unsupported bath type {type(bath).__name__}")
        if bath not in thetas:
            thetas[bath] = (_half_transform(bath, gaps) if lamb_shift
                            else 0.5 * noise_power(bath, gaps))
        a_site = 0.5 * np.asarray(_site_pauli(_SZ, i, n).todense(), dtype=complex)
        a_eig = v.conj().T @ a_site @ v
        coupling_ops.append(a_eig)
        lambda_ops.append(a_eig * thetas[bath])
    return BlochRedfieldGenerator(
        n_sites=n,
        hamiltonian=hs,
        energies=energies,
        transform=np.asarray(v, dtype=complex),
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


def qme_greens(gen, sites, warmup_time, grid):
    """Steady-state Green functions among sites from quantum regression on the register.

    The generator is diagonalized once, L = V diag(lam) V^-1, so its domain
    is diagonalizable generators: a 1-norm cond(V) above COND_MAX raises
    LinAlgError. The identity state relaxes to V exp(lam warmup_time) V^-1
    rho0, exactly exp(L warmup_time) rho0, with a warning when max|L rho|
    exceeds 1e-7. The correlators <c_n(tau) c_m^dag> and <c_m^dag c_n(tau)>
    are exponential sums sum_m w_m exp(lam_m tau), whose one-sided transform
    at z = omega + i eta is exactly sum_m w_m (-1 / (lam_m + i z)): the
    lines carry the grid's eta Lorentzian, as the Dyson solve's do. No Re lam
    exceeds 0 beyond roundoff and FreqGrid keeps eta at two spacings or more,
    so no mode, the zero modes included, needs special handling. Entries are
    (n_points, s, s) arrays indexed by position among the distinct sites.
    """

    sites = _distinct_sites(sites, gen.n_sites)
    dim = 2**gen.n_sites
    lv = gen.superoperator()
    lam, vecs = np.linalg.eig(lv)
    vinv = np.linalg.inv(vecs)
    cond = np.linalg.norm(vecs, 1) * np.linalg.norm(vinv, 1)
    if not cond <= COND_MAX:
        raise np.linalg.LinAlgError(f"generator not safely diagonalizable: cond(V) = "
                                    f"{cond:.3g} exceeds {COND_MAX:.0e}")
    v = vecs @ (np.exp(lam * float(warmup_time)) * (vinv @ np.eye(dim).reshape(-1) / dim))
    residual = float(np.max(np.abs(lv @ v)))
    if residual > 1e-7:
        warnings.warn(
            f"steady-state residual {residual:.2e} above 1e-07; increase warmup_time",
            stacklevel=2,
        )
    rho = v.reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real

    cs = [jw_fermion(s, gen.n_sites) for s in sites]
    # G^> = -i <c_q(tau) c_p^dag> and G^< = i <c_p^dag c_q(tau)>, so G^R's
    # G^> - G^< and the Keldysh half G^> + G^< are the meter c_q read off the
    # evolved columns -i (c_p^dag rho +- rho c_p^dag)
    cols = np.stack([(-1j * (c.conj().T @ rho + sign * rho @ c.conj().T)).reshape(-1)
                     for c in cs for sign in (1, -1)], axis=1)
    meters = np.stack([c.T.reshape(-1) for c in cs])
    # weights[m, q * 2s + col] = (meter_q V)_m (V^-1 col)_m
    weights = ((meters @ vecs).T[:, :, None] * (vinv @ cols)[:, None, :]).reshape(lam.size, -1)
    del vecs, vinv  # the decomposition is not held through the transform
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
    if n + n_levels > EXACT_MAX_SPINS:
        raise CapacityError(
            f"{n + n_levels} total spins exceed the supported {EXACT_MAX_SPINS}"
        )
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
