"""Two-time transient dynamics from one excited site.

The chain starts with one particle on one site, every other site empty and
no correlation with the baths at t = 0; the integrator returns what an
occupation trajectory reads, the equal-time Keldysh diagonal K_ii(t, t).
Two bath closures are supported: an instantaneous decay approximation (site
decay rates, no memory) and the full memory kernel of tunneling two-level
environments. Both use second-order stepping so halving dt cuts the error
by four; that convergence ratio is pinned by a test and must not be traded
away for exactness tricks.

Without memory the equal-time function obeys its own closed equation,
dK/dt = A K + K A^dag - i Gamma with A = -i h - Gamma/2, so K(t, t) is
stepped alone: O(n^3) work per step and an (n_times, n) output. With memory
its slope reads the whole two-time history, so the retarded and Keldysh
rows X(t_i, t_j), j <= i, are streamed, keeping only what the next step
reads: the top row, column 0 and the exponential-sum accumulators. Working
memory then grows as (t_max/dt) * n * (n + bath levels), not as
(t_max/dt)^2. Jobs whose working set (`stream_bytes`) would exceed a few
gigabytes are refused before any step rather than left to swap.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .baths import TlsBath, inverse_temperature
from .errors import CapacityError
from .lattice import fermi_occupation

__all__ = [
    "STABILITY_LIMIT",
    "MEMORY_CAP_BYTES",
    "MarkovSelfEnergy",
    "MemorySelfEnergy",
    "markov_self_energy",
    "tls_memory_self_energy",
    "stream_bytes",
    "check_step",
    "equal_time_keldysh",
]

STABILITY_LIMIT = 0.05  # max allowed (fastest scale) * dt
MEMORY_CAP_BYTES = 3_000_000_000


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
            beta_b = inverse_temperature(bath.temperature)
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


def _n_times(t_max, dt):
    if dt <= 0 or t_max <= 0:
        raise ValueError("t_max and dt must be positive")
    steps = t_max / dt
    if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
        raise ValueError("t_max must be an integer multiple of dt")
    return int(round(steps)) + 1


def stream_bytes(n_sites, n_times, n_levels=None):
    """Working-set estimate of `equal_time_keldysh` in bytes.

    n_levels is the total bath level count of a memory closure, None for the
    Markov closure. The Markov closure holds the complex (n_times, n) output
    and about 11 complex (n, n) scratch matrices (K, the two slopes and the
    matmul temporaries). The memory core streams two-time rows: about 18
    complex (n_times, n, n) planes (column 0, the top row, its slopes,
    predictor, corrector and memory sums) plus 5 + 3/n complex
    (n_times, n, levels) tables (the three accumulators, two of them
    double-buffered, the per-site temporaries and the phase table).
    Measured with tracemalloc: the output plus 10.5 to 11.8 scratch
    matrices at n = 10 to 80 with 101 and 2001 times (a few kB of fixed
    overhead at smaller n); 22.1 planes at n = 20 and 40 with one level per
    site; 8.1, 6.5 and 5.8 tables at n = 1, 2 and 5 with 100 to 400 levels
    per site.
    """

    if n_levels is None:
        return 16 * (n_times * n_sites + 11 * n_sites**2)
    return 16 * n_times * (20 * n_sites**2 + 9 * n_levels * n_sites)


def check_step(h, sigma, dt):
    """Raise ValueError unless dt resolves the fastest scale of h and sigma:
    (fastest scale) * dt may not exceed STABILITY_LIMIT."""

    scale = _fastest_scale(h, sigma)
    if scale * dt > STABILITY_LIMIT * (1 + 1e-9):
        raise ValueError(
            f"dt = {dt:g} too coarse for the fastest scale {scale:g}; "
            f"need dt <= {STABILITY_LIMIT / scale:g}"
        )


def _start(h, sigma, site, t_max, dt):
    """Check the job before any step; return the time count m and the
    occupation matrix f0 at t = 0 (one particle on `site`)."""

    n = h.n_sites
    if sigma.n_sites != n:
        raise ValueError("self-energy site count does not match the chain")
    if not 0 <= site < n:
        raise ValueError(f"site {site} outside chain of {n}")
    m = _n_times(t_max, dt)
    check_step(h, sigma, dt)
    markov = isinstance(sigma, MarkovSelfEnergy)
    levels = None if markov else sum(b.energies.size for b in sigma.baths if b is not None)
    need = stream_bytes(n, m, levels)
    if need > MEMORY_CAP_BYTES:
        raise CapacityError(
            f"the integrator needs about {need / 1e9:.1f} GB "
            f"(cap {MEMORY_CAP_BYTES / 1e9:.0f} GB); increase dt or shorten t_max"
        )
    f0 = np.zeros((n, n))
    f0[site, site] = 1.0
    return m, f0


def equal_time_keldysh(h, sigma, site, t_max, dt):
    """Equal-time Keldysh diagonal K_ii(t, t) after exciting `site` at t = 0.

    h drives the dynamics and sigma closes the bath coupling (decay rates or
    memory kernels). Checks the site counts, the time grid, the step against
    the fastest scale in the problem and the working set against the memory
    cap before any step. Returns a complex (n_times, n) array on the uniform
    grid arange(0, t_max, dt) inclusive; site occupations follow as
    n_i(t) = (1 + Im K_ii(t, t)) / 2.
    """

    m, f0 = _start(h, sigma, site, t_max, dt)
    if isinstance(sigma, MarkovSelfEnergy):
        return _markov_diagonal(h.matrix, sigma.rates, f0, m, dt)
    out = np.empty((m, h.n_sites), dtype=complex)
    for i, (_, kel) in enumerate(_memory_rows(h.matrix, sigma, f0, m, dt)):
        out[i] = kel[i].diagonal()
    return out


def _markov_diagonal(hm, rates, f0, m, dt):
    n = hm.shape[0]
    gd = np.diag(rates).astype(complex)
    a_mat = -1j * hm - 0.5 * gd
    a_dag = a_mat.conj().T

    def rhs(k):
        return a_mat @ k + k @ a_dag - 1j * gd

    k = -1j * (np.eye(n, dtype=complex) - 2.0 * f0)
    out = np.empty((m, n), dtype=complex)
    out[0] = k.diagonal()
    for i in range(1, m):
        f1 = rhs(k)
        f2 = rhs(k + dt * f1)
        k = k + 0.5 * dt * (f1 + f2)
        out[i] = k.diagonal()
    return out


def _memory_rows(hm, sigma, f0, m, dt):
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
        beta_b = inverse_temperature(bath.temperature)
        hole = 1.0 - 2.0 * fermi_occupation(bath.energies, beta_b)
        eps.append(bath.energies)
        wr.append(-1j * gsq)
        wk.append(-1j * gsq * hole)
    dphase = [np.exp(-1j * e * dt) for e in eps]
    tphase = [np.exp(1j * np.outer(t_grid, e)) for e in eps]  # (m, levels)

    # column 0, the only history the trapezoid edge terms read:
    # col_r[u] = R(t_u, 0), col_k[u] = K(t_u, 0)
    col_r = np.zeros((m, n, n), dtype=complex)
    col_k = np.zeros((m, n, n), dtype=complex)

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

    def deriv(r, acc, rrow, krow):
        p1, qk = acc
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
        k0row = -np.conj(np.swapaxes(col_k[: r + 1], 1, 2))
        ga0row = np.conj(np.swapaxes(col_r[: r + 1], 1, 2))
        t2 -= 0.5 * dt * srf[r][None, :, None] * k0row
        t2 -= 0.5 * dt * srf[0][None, :, None] * krow
        t3 -= 0.5 * dt * skf[r][None, :, None] * ga0row
        d3 = t3.reshape(r + 1, n * n)[:, :: n + 1]
        d3 -= 0.5j * dt * skd
        dr = -1j * (np.matmul(hm, rrow) + t1)
        dk = -1j * (np.matmul(hm, krow) + t2 + t3)
        return dr, dk

    # t = 0 seeds
    rrow = (-1j * eye)[None]
    krow = (-1j * (eye - 2.0 * f0))[None]
    col_r[0] = rrow[0]
    col_k[0] = krow[0]
    for a in range(n):
        if eps[a].size:
            acc_c[0][a][:, 0] = -1j * eye[None, a, :]
            acc_c[1][a][:, 0] = krow[0, a][None, :]
            g3[a][:, 0] = 1j * eye[None, a, :]
    yield rrow, krow

    for i in range(m - 1):
        dr1, dk1 = deriv(i, acc_c, rrow, krow)
        fd1 = dk1[i] - dk1[i].conj().T
        # predictor rows at t_{i+1}
        rp = np.empty((i + 2, n, n), dtype=complex)
        rp[: i + 1] = rrow + dt * dr1
        rp[i + 1] = -1j * eye
        kp = np.empty_like(rp)
        kp[: i + 1] = krow + dt * dk1
        kp[i + 1] = krow[i] + dt * fd1
        col_r[i + 1] = rp[0]
        col_k[i + 1] = kp[0]
        advance(acc_c, acc_s, rp, kp, i + 1)
        # corrector re-evaluates the slope on the predicted top row
        dr2, dk2 = deriv(i + 1, acc_s, rp, kp)
        fd2 = dk2[i + 1] - dk2[i + 1].conj().T
        rc = np.empty_like(rp)
        rc[: i + 1] = rrow + 0.5 * dt * (dr1 + dr2[: i + 1])
        rc[i + 1] = -1j * eye
        kc = np.empty_like(rp)
        kc[: i + 1] = krow + 0.5 * dt * (dk1 + dk2[: i + 1])
        kc[i + 1] = krow[i] + 0.5 * dt * (fd1 + fd2)
        col_r[i + 1] = rc[0]
        col_k[i + 1] = kc[0]
        advance(acc_c, acc_s, rc, kc, i + 1)
        acc_c, acc_s = acc_s, acc_c
        rrow, krow = rc, kc
        yield rrow, krow
