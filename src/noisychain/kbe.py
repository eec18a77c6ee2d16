"""Two-time transient dynamics on the double time grid.

The integrator advances the retarded and Keldysh components row by row in
the first time argument, starting from an uncorrelated initial occupation at
t = 0. Two bath closures are supported: an instantaneous decay approximation
(site decay rates, no memory) and the full memory kernel of tunneling
two-level environments. Both use second-order stepping so halving dt cuts
the error by four; that convergence ratio is pinned by a test and must not
be traded away for exactness tricks.

Storage grows as (t_max/dt)^2, so the integrator refuses jobs whose work
arrays would exceed a few gigabytes rather than start swapping.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from dataclasses import dataclass

from .baths import TlsBath
from .errors import CapacityError
from .lattice import FreqGreens, fermi_occupation

__all__ = [
    "STABILITY_LIMIT",
    "MEMORY_CAP_BYTES",
    "InitialState",
    "TwoTimeGreens",
    "MarkovSelfEnergy",
    "MemorySelfEnergy",
    "markov_self_energy",
    "tls_memory_self_energy",
    "kbe_integrate",
    "analytic_gk",
    "occupations",
    "late_time_spectrum",
]

STABILITY_LIMIT = 0.05  # max allowed (fastest scale) * dt
MEMORY_CAP_BYTES = 3_000_000_000


@dataclass
class InitialState:
    """Initial single-particle occupation, thermal in a preparation Hamiltonian.

    The occupation matrix is f(ini_matrix) at inverse temperature beta_ini;
    beta_ini may be inf for a sharp Fermi sea. The preparation Hamiltonian
    need not be the one that drives the dynamics, which is how quenches are
    set up.
    """

    ini_matrix: np.ndarray
    beta_ini: float = np.inf

    def __post_init__(self):
        self.ini_matrix = np.asarray(self.ini_matrix, dtype=complex)
        if self.ini_matrix.ndim != 2 or self.ini_matrix.shape[0] != self.ini_matrix.shape[1]:
            raise ValueError("preparation hamiltonian must be square")
        if np.max(np.abs(self.ini_matrix - self.ini_matrix.conj().T)) > 1e-12:
            raise ValueError("preparation hamiltonian must be hermitian")
        if not self.beta_ini > 0:
            raise ValueError("beta_ini must be positive (inf allowed)")

    @property
    def n_sites(self):
        return self.ini_matrix.shape[0]

    def occupation_matrix(self):
        energies, u = np.linalg.eigh(self.ini_matrix)
        occ = fermi_occupation(energies, self.beta_ini)
        return (u * occ[None, :]) @ u.conj().T

    @classmethod
    def single_site(cls, n_sites, site):
        """One particle sitting on one site, everything else empty."""

        if not 0 <= site < n_sites:
            raise ValueError(f"site {site} outside chain of {n_sites}")
        diag = np.ones(n_sites)
        diag[site] = -1.0
        return cls(ini_matrix=np.diag(diag), beta_ini=np.inf)


@dataclass
class TwoTimeGreens:
    """Retarded and Keldysh components on a square time grid.

    Only the lower triangle (first time >= second) is stored; the upper
    entries are zero in the arrays. Use the accessors for the physical
    values: the retarded component genuinely vanishes there, the Keldysh
    component follows from conjugation.
    """

    t_grid: np.ndarray
    retarded: np.ndarray
    keldysh: np.ndarray

    def __post_init__(self):
        self.t_grid = np.asarray(self.t_grid, dtype=float)
        m = self.t_grid.size
        if self.retarded.ndim != 4 or self.retarded.shape[:2] != (m, m):
            raise ValueError("retarded must have shape (n_times, n_times, n, n)")
        if self.keldysh.shape != self.retarded.shape:
            raise ValueError("keldysh and retarded shapes differ")

    @property
    def n_times(self):
        return self.t_grid.size

    @property
    def n_sites(self):
        return self.retarded.shape[-1]

    @property
    def dt(self):
        return float(self.t_grid[1] - self.t_grid[0]) if self.t_grid.size > 1 else 0.0

    def retarded_at(self, i, j):
        if i >= j:
            return self.retarded[i, j]
        return np.zeros_like(self.retarded[0, 0])

    def keldysh_at(self, i, j):
        if i >= j:
            return self.keldysh[i, j]
        return -self.keldysh[j, i].conj().T


@dataclass
class MarkovSelfEnergy:
    """Instantaneous decay closure: one empty-band rate per site."""

    rates: np.ndarray

    def __post_init__(self):
        self.rates = np.asarray(self.rates, dtype=float)
        if self.rates.ndim != 1:
            raise ValueError("rates must be a 1d array")
        if np.any(self.rates < 0):
            raise ValueError("rates must be nonnegative")

    @property
    def n_sites(self):
        return self.rates.size


@dataclass
class MemorySelfEnergy:
    """Memory kernels of tunneling two-level environments, one per site."""

    baths: tuple

    def __post_init__(self):
        self.baths = tuple(self.baths)
        for b in self.baths:
            if b is not None and not isinstance(b, TlsBath):
                raise TypeError("memory kernels support TlsBath entries only")

    @property
    def n_sites(self):
        return len(self.baths)

    def kernels(self, dt, n_lags):
        """Site-diagonal kernels on the lag grid: (retarded, keldysh)."""

        n = self.n_sites
        sr = np.zeros((n_lags, n), dtype=complex)
        sk = np.zeros((n_lags, n), dtype=complex)
        lags = np.arange(n_lags) * dt
        for site, bath in enumerate(self.baths):
            if bath is None:
                continue
            gsq = bath.couplings**2
            beta_b = np.inf if bath.temperature == 0 else 1.0 / bath.temperature
            hole = 1.0 - 2.0 * fermi_occupation(bath.energies, beta_b)
            phases = np.exp(-1j * np.outer(lags, bath.energies))
            sr[:, site] = -1j * (phases @ gsq)
            sk[:, site] = -1j * (phases @ (gsq * hole))
        return sr, sk


def markov_self_energy(rates):
    return MarkovSelfEnergy(rates=np.asarray(rates, dtype=float))


def tls_memory_self_energy(baths):
    return MemorySelfEnergy(baths=tuple(baths))


def _fastest_scale(h, sigma):
    scale = float(np.linalg.norm(h.matrix, 2))
    if isinstance(sigma, MarkovSelfEnergy):
        if sigma.rates.size:
            scale = max(scale, float(np.max(sigma.rates)))
    else:
        for bath in sigma.baths:
            if bath is None or not bath.levels:
                continue
            scale = max(scale, float(np.max(np.abs(bath.energies))))
            scale = max(scale, float(np.sqrt(np.sum(bath.couplings**2))))
    return scale


def _time_grid(t_max, dt):
    if dt <= 0 or t_max <= 0:
        raise ValueError("t_max and dt must be positive")
    steps = t_max / dt
    m = int(round(steps)) + 1
    if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
        raise ValueError("t_max must be an integer multiple of dt")
    return np.arange(m) * dt


def kbe_integrate(h, sigma, ini, t_max, dt):
    """Integrate the two-time equations of motion from an uncorrelated start.

    h drives the dynamics, sigma closes the bath coupling (decay rates or
    memory kernels), ini fixes the occupation at t = 0. Returns the full
    lower-triangle two-time functions on the uniform grid arange(0, t_max,
    dt) inclusive. Raises if the step is too coarse for the fastest scale in
    the problem or if the work arrays would not fit in memory.
    """

    n = h.n_sites
    if sigma.n_sites != n:
        raise ValueError("self-energy site count does not match the chain")
    if ini.n_sites != n:
        raise ValueError("initial state site count does not match the chain")
    t_grid = _time_grid(t_max, dt)
    m = t_grid.size
    scale = _fastest_scale(h, sigma)
    if scale * dt > STABILITY_LIMIT * (1 + 1e-9):
        raise ValueError(
            f"dt = {dt:g} too coarse for the fastest scale {scale:g}; "
            f"need dt <= {STABILITY_LIMIT / scale:g}"
        )
    arrays = 2 if isinstance(sigma, MarkovSelfEnergy) else 3
    need = arrays * (m * m * n * n) * 16
    if need > MEMORY_CAP_BYTES:
        raise CapacityError(
            f"two-time arrays need about {need / 1e9:.1f} GB "
            f"(cap {MEMORY_CAP_BYTES / 1e9:.0f} GB); increase dt or shorten t_max"
        )
    f0 = ini.occupation_matrix()
    if isinstance(sigma, MarkovSelfEnergy):
        ret, kel = _integrate_markov(h.matrix, sigma.rates, f0, m, dt)
    else:
        ret, kel = _integrate_memory(h.matrix, sigma, f0, m, dt)
    return TwoTimeGreens(t_grid=t_grid, retarded=ret, keldysh=kel)


def _integrate_markov(hm, rates, f0, m, dt):
    n = hm.shape[0]
    eye = np.eye(n, dtype=complex)
    gd = np.diag(rates).astype(complex)
    a_mat = -1j * hm - 0.5 * gd
    da = dt * a_mat
    p2 = eye + da + 0.5 * (da @ da)  # quadratic propagator, one order per factor
    ret = np.zeros((m, m, n, n), dtype=complex)
    kel = np.zeros((m, m, n, n), dtype=complex)
    ret[0, 0] = -1j * eye
    kel[0, 0] = -1j * (eye - 2.0 * f0)

    def diag_rhs(k):
        return a_mat @ k + k @ a_mat.conj().T - 1j * gd

    for i in range(1, m):
        ret[i, :i] = np.matmul(p2, ret[i - 1, :i])
        ret[i, i] = -1j * eye
        kel[i, :i] = np.matmul(p2, kel[i - 1, :i])
        kd = kel[i - 1, i - 1]
        f1 = diag_rhs(kd)
        f2 = diag_rhs(kd + dt * f1)
        kel[i, i] = kd + 0.5 * dt * (f1 + f2)
    return ret, kel


def _integrate_memory(hm, sigma, f0, m, dt):
    n = hm.shape[0]
    eye = np.eye(n, dtype=complex)
    srf, skf = sigma.kernels(dt, m)
    t_grid = np.arange(m) * dt

    # The kernels are exact exponential sums over bath levels, so each
    # trapezoid memory sum obeys a one-step recurrence in the top time and
    # the history is never rescanned: O(m^2) work instead of O(m^3).
    eps, wr, wk = [], [], []
    for bath in sigma.baths:
        if bath is None or not bath.energies.size:
            eps.append(np.zeros(0))
            wr.append(np.zeros(0, dtype=complex))
            wk.append(np.zeros(0, dtype=complex))
            continue
        gsq = bath.couplings**2
        beta_b = np.inf if bath.temperature == 0 else 1.0 / bath.temperature
        hole = 1.0 - 2.0 * fermi_occupation(bath.energies, beta_b)
        eps.append(bath.energies)
        wr.append(-1j * gsq)
        wk.append(-1j * gsq * hole)
    dphase = [np.exp(-1j * e * dt) for e in eps]
    tphase = [np.exp(1j * np.outer(t_grid, e)) for e in eps]  # (m, levels)

    # per-site row stores, lower triangle only: arr[a, u, j*n + b] holds
    # X(t_u, t_j)[a, b] for j <= u
    r2 = np.zeros((n, m, m * n), dtype=complex)
    k2 = np.zeros((n, m, m * n), dtype=complex)

    def put_row(arr, r, rows):
        for a in range(n):
            arr[a, r, : (r + 1) * n] = rows[:, a, :].reshape(-1)

    def get_row(arr, r):
        out = np.empty((r + 1, n, n), dtype=complex)
        for a in range(n):
            out[:, a, :] = arr[a, r, : (r + 1) * n].reshape(r + 1, n)
        return out

    # accumulators, per site a, shape (levels, m, n):
    #   p1[a][s, j] = sum_{u=j..r} e^{-i eps_s (t_r - t_u)} R(t_u, t_j)[a, :]
    #   qk[a][s, j] = sum_{u=0..r} e^{+i eps_s t_u}        K(t_u, t_j)[a, :]
    #   g3[a][s, j] = sum_{u=0..j} e^{+i eps_s t_u} R(t_j, t_u)^dag [a, :]
    # p1 and qk track the top row r and are double-buffered so the corrector
    # can rebuild from the committed state; g3 freezes once column j is born.
    def blank():
        return [np.zeros((eps[a].size, m, n), dtype=complex) for a in range(n)]

    acc_c = (blank(), blank())  # committed at the current top time
    acc_s = (blank(), blank())  # scratch for the tentative next row
    g3 = blank()

    def advance(src, dst, rows_r, rows_k, r1):
        # move the committed sums at row r1 - 1 up to row r1 using the new
        # rows, and (re)build the sums of the column born at r1 from the
        # conjugation mirrors GA[u, r1] = R(t_r1, t_u)^dag and
        # K[u, r1] = -K(t_r1, t_u)^dag
        p1s, qks = src
        p1d, qkd = dst
        gcol = np.conj(np.swapaxes(rows_r, 1, 2))
        kcol = -np.conj(np.swapaxes(rows_k[:r1], 1, 2))
        for a in range(n):
            if not eps[a].size:
                continue
            ph_new = tphase[a][r1]
            p1d[a][:, :r1] = (
                dphase[a][:, None, None] * p1s[a][:, :r1] + rows_r[None, :r1, a, :]
            )
            p1d[a][:, r1] = -1j * eye[None, a, :]
            qkd[a][:, : r1 + 1] = (
                qks[a][:, : r1 + 1] + ph_new[:, None, None] * rows_k[None, :, a, :]
            )
            qkd[a][:, r1] = (
                tphase[a][:r1].T @ kcol[:, a, :] + ph_new[:, None] * rows_k[r1, a, :]
            )
            g3[a][:, r1] = tphase[a][: r1 + 1].T @ gcol[:, a, :]

    def deriv(r, acc):
        p1, qk = acc
        rrow = get_row(r2, r)
        krow = get_row(k2, r)
        srd = srf[r::-1]  # srd[u] = kernel at lag r - u
        skd = skf[r::-1]
        t1 = np.zeros((r + 1, n, n), dtype=complex)
        t2 = np.zeros_like(t1)
        t3 = np.zeros_like(t1)
        for a in range(n):
            if not eps[a].size:
                continue
            cph = np.conj(tphase[a][r])
            t1[:, a, :] = np.tensordot(wr[a], p1[a][:, : r + 1], axes=(0, 0))
            t2[:, a, :] = np.tensordot(wr[a] * cph, qk[a][:, : r + 1], axes=(0, 0))
            t3[:, a, :] = np.tensordot(wk[a] * cph, g3[a][:, : r + 1], axes=(0, 0))
        t1 *= dt
        t2 *= dt
        t3 *= dt
        # the uniform-weight sums above need trapezoid edge fixes: half the
        # u = j term of t1 (R diagonal is -i) and half its u = r term; both
        # edges of t2; the u = 0 and u = j (GA diagonal +i) edges of t3
        d1 = t1.reshape(r + 1, n * n)[:, :: n + 1]
        d1 += 0.5j * dt * srd
        t1 -= 0.5 * dt * srf[0][None, :, None] * rrow
        k0row = -np.conj(np.swapaxes(np.swapaxes(k2[:, : r + 1, :n], 0, 1), 1, 2))
        ga0row = np.conj(np.swapaxes(np.swapaxes(r2[:, : r + 1, :n], 0, 1), 1, 2))
        t2 -= 0.5 * dt * srf[r][None, :, None] * k0row
        t2 -= 0.5 * dt * srf[0][None, :, None] * krow
        t3 -= 0.5 * dt * skf[r][None, :, None] * ga0row
        d3 = t3.reshape(r + 1, n * n)[:, :: n + 1]
        d3 -= 0.5j * dt * skd
        dr = -1j * (np.matmul(hm, rrow) + t1)
        dk = -1j * (np.matmul(hm, krow) + t2 + t3)
        return dr, dk, rrow, krow

    # t = 0 seeds
    put_row(r2, 0, (-1j * eye)[None])
    put_row(k2, 0, (-1j * (eye - 2.0 * f0))[None])
    for a in range(n):
        if eps[a].size:
            acc_c[0][a][:, 0] = -1j * eye[None, a, :]
            acc_c[1][a][:, 0] = k2[a, 0, :n][None, :]
            g3[a][:, 0] = 1j * eye[None, a, :]

    for i in range(m - 1):
        dr1, dk1, rrow, krow = deriv(i, acc_c)
        fd1 = dk1[i] - dk1[i].conj().T
        # predictor rows at t_{i+1}
        rp = np.empty((i + 2, n, n), dtype=complex)
        rp[: i + 1] = rrow + dt * dr1
        rp[i + 1] = -1j * eye
        kp = np.empty_like(rp)
        kp[: i + 1] = krow + dt * dk1
        kp[i + 1] = krow[i] + dt * fd1
        put_row(r2, i + 1, rp)
        put_row(k2, i + 1, kp)
        advance(acc_c, acc_s, rp, kp, i + 1)
        # corrector re-evaluates the slope on the predicted top row
        dr2, dk2, _, _ = deriv(i + 1, acc_s)
        fd2 = dk2[i + 1] - dk2[i + 1].conj().T
        rc = np.empty_like(rp)
        rc[: i + 1] = rrow + 0.5 * dt * (dr1 + dr2[: i + 1])
        rc[i + 1] = -1j * eye
        kc = np.empty_like(rp)
        kc[: i + 1] = krow + 0.5 * dt * (dk1 + dk2[: i + 1])
        kc[i + 1] = krow[i] + 0.5 * dt * (fd1 + fd2)
        put_row(r2, i + 1, rc)
        put_row(k2, i + 1, kc)
        advance(acc_c, acc_s, rc, kc, i + 1)
        acc_c, acc_s = acc_s, acc_c

    ret = np.ascontiguousarray(r2.reshape(n, m, m, n).transpose(1, 2, 0, 3))
    del r2
    kel = np.ascontiguousarray(k2.reshape(n, m, m, n).transpose(1, 2, 0, 3))
    del k2
    iu = np.triu_indices(m, k=1)
    kel[iu] = 0.0  # storage contract: upper triangle zero
    return ret, kel


def analytic_gk(h, rates, ini, t, t_prime):
    """Closed-form Keldysh component for site decay commuting with the chain.

    Valid whenever the rate matrix commutes with the Hamiltonian (uniform
    rates, or rates sharing the chain's eigenbasis). The initial occupation
    is arbitrary. Used as the convergence reference for the integrator.
    """

    hm = h.matrix
    gd = np.diag(np.asarray(rates, dtype=float)).astype(complex)
    comm = hm @ gd - gd @ hm
    bound = max(1.0, float(np.max(np.abs(hm))) * float(np.max(np.abs(gd))))
    if np.max(np.abs(comm)) > 1e-10 * bound:
        raise ValueError("rates must commute with the hamiltonian for the closed form")
    if t < t_prime:
        return -analytic_gk(h, rates, ini, t_prime, t).conj().T
    a_mat = -1j * hm - 0.5 * gd
    f0 = ini.occupation_matrix()
    eye = np.eye(hm.shape[0], dtype=complex)
    prop_diff = sla.expm(a_mat * (t - t_prime))
    return -1j * prop_diff + 2j * sla.expm(a_mat * t) @ f0 @ sla.expm(a_mat.conj().T * t_prime)


def occupations(greens):
    """Per-site occupations n_i(t) = (1 + Im K_ii(t,t)) / 2, plus their sum.

    Returns (n, n_tot) with n of shape (n_times, n_sites).
    """

    idx = np.arange(greens.n_times)
    diag = np.diagonal(greens.keldysh[idx, idx], axis1=1, axis2=2)
    n = 0.5 * (1.0 + diag.imag)
    return n, n.sum(axis=1)


def late_time_spectrum(greens, grid):
    """Frequency-domain functions from the final-time slice of a two-time run.

    Lags run backward from the last time; a cos^2 taper over the available
    span suppresses truncation ringing. Useful once the transient has
    relaxed: the result then matches the stationary frequency-domain
    treatment of the same problem.
    """

    m = greens.n_times
    if m < 8:
        raise ValueError("need at least 8 time points for a spectrum")
    n = greens.n_sites
    dt = greens.dt
    taus = np.arange(m) * dt
    window = np.cos(0.5 * np.pi * taus / taus[-1]) ** 2
    wts = np.full(m, dt)
    wts[0] = 0.5 * dt
    wts[-1] = 0.5 * dt
    last = m - 1
    series_r = np.empty((m, n, n), dtype=complex)
    series_k = np.empty((m, n, n), dtype=complex)
    for k in range(m):
        series_r[k] = greens.retarded[last, last - k]
        series_k[k] = greens.keldysh[last, last - k]
    ww = (window * wts)[:, None]
    omegas = grid.omegas
    ret = np.empty((omegas.size, n, n), dtype=complex)
    half_k = np.empty_like(ret)
    chunk = 512
    flat_r = series_r.reshape(m, -1) * ww
    flat_k = series_k.reshape(m, -1) * ww
    for start in range(0, omegas.size, chunk):
        stop = min(start + chunk, omegas.size)
        phase = np.exp(1j * np.outer(omegas[start:stop], taus))
        ret[start:stop] = (phase @ flat_r).reshape(stop - start, n, n)
        half_k[start:stop] = (phase @ flat_k).reshape(stop - start, n, n)
    kel = half_k - np.conj(np.swapaxes(half_k, 1, 2))
    return FreqGreens(grid=grid, retarded=ret, keldysh=kel)
