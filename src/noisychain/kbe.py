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
its slope reads the whole two-time history. The retarded function never
reads the initial state and h and the kernels are time-independent, so
R(t, t') = R(t - t') is stepped as one lag series. The Keldysh rows
K(t_i, t_j), j <= i, carry the initial state and are streamed, keeping
only what the next step reads: the top row, row 0 of its conjugation
mirrors and the exponential-sum accumulators, all in one (site, time,
column) layout with the sites stacked. Working memory then grows as
(t_max/dt) * n^2 * (1 + levels per site), not as (t_max/dt)^2. Jobs whose
working set (`stream_bytes`) would exceed a few gigabytes are refused
before any step rather than left to swap.
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

    @property
    def levels(self):
        """Level axis of the stacked memory core: the largest per-site level
        count, at least one (sites with fewer get zero-weight levels)."""
        return max([1] + [b.energies.size for b in self.baths if b is not None])

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

    n_levels is n times the padded level axis (`MemorySelfEnergy.levels`)
    of a memory closure, None for the Markov closure. The Markov closure
    holds the complex (n_times, n) output, about 11 complex (n, n) scratch
    matrices (K, the two slopes and the matmul temporaries) and 16 * 512
    bytes that do not grow with the time count. The memory core holds about
    12 complex (n_times, n, n) planes (the lag tables, row 0 of the mirrors,
    the Keldysh row, its slopes, predictor, corrector and memory sums) plus
    3 + 1/n complex (n_times, n, n_levels) tables (the Keldysh accumulators,
    one double-buffered, and the phase table), plus 16 (8 n n_levels + 2048)
    bytes that do not grow with the time count (fixed overhead and per-step
    (n, levels, n) temporaries). Measured with tracemalloc: the output plus
    10.5 to 11.8 scratch matrices at n = 10 to 80 with 101 and 2001 times,
    and up to 6.2 kB more at n = 1 to 10: 0.56 to 0.99 of the rule at n = 1
    to 40 over 51 to 2001 times, 0.79 for one site over 51 times in a fresh
    process. Over 201 times, 15.1 to 15.6 planes and tables at n = 10, 20
    and 40 with one level per site, 4.4 to 5.4, 3.6 to 4.0 and 3.3 to 3.4
    tables at n = 1, 2 and 5 with 100 to 400 levels per site: 0.46 to 0.74
    of the rule, 0.63 on fig4-top; one site over 3 to 201 times: 0.44 to
    0.70 with one level, 0.95 with 100 levels.
    """

    if n_levels is None:
        return 16 * (n_times * n_sites + 11 * n_sites**2 + 512)
    return 16 * (n_times * (16 * n_sites**2 + 7 * n_levels * n_sites)
                 + 8 * n_levels * n_sites + 2048)


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
    levels = None if markov else n * sigma.levels
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
    # the history is never rescanned: O(m^2) work instead of O(m^3). Sites
    # are stacked, each padded to the level axis with zero-weight levels.
    lv = sigma.levels
    eps = np.zeros((n, lv))
    wr = np.zeros((n, lv), dtype=complex)
    wk = np.zeros((n, lv), dtype=complex)
    for a, bath in enumerate(sigma.baths):
        if bath is None:
            continue
        k = bath.energies.size
        gsq = bath.couplings**2
        beta_b = inverse_temperature(bath.temperature)
        hole = 1.0 - 2.0 * fermi_occupation(bath.energies, beta_b)
        eps[a, :k] = bath.energies
        wr[a, :k] = -1j * gsq
        wk[a, :k] = -1j * gsq * hole
    dphase = np.exp(-1j * eps * dt)[:, :, None]
    tphase = np.exp(1j * (t_grid[None, :, None] * eps[:, None, :]))  # (n, m, levels)

    # The retarded function depends on the lag only: h and the kernels are
    # time-independent, it never reads the initial state, and every step of
    # the scheme keeps that. So R(t_r, t_j) = L[r - j], L[q] = R(t_q, 0), is
    # stepped as one lag series, the newest lag only:
    #   lags[q], plags[q] = L[q] corrected and predicted; the predicted row
    #                       at t_r is plags[r::-1];
    #   front[a, s] = sum_{k=0..q} e^{-i eps_s (q - k) dt} L[k][a, :], the
    #                 retarded memory sum of the newest lag q.
    # Keldysh rows carry the initial state and are streamed as
    # X[a, j, c] = K(t_r, t_j)[a, c], their accumulators behind a level axis:
    #   qk[a, s, j] = sum_{u=0..r} e^{+i eps_s t_u}        K(t_u, t_j)[a, :]
    #   g3[a, s, j] = sum_{u=0..j} e^{+i eps_s t_u} R(t_j, t_u)^dag [a, :]
    # qk tracks the top row r and is double-buffered (qk_c committed, qk_s
    # scratch) so the corrector can rebuild from the committed state; g3
    # freezes once column j is born.
    # Row 0 of the conjugation mirrors, the only history the edge terms read:
    #   k0[a, u] = K(t_0, t_u)[a, :] = -K(t_u, 0)^dag[a, :]
    #   ga0[a, u] = GA(t_0, t_u)[a, :] = L[u]^dag[a, :]
    lags, plags = np.zeros((2, m, n, n), dtype=complex)
    front = np.zeros((n, lv, n), dtype=complex)
    qk_c, qk_s, g3 = np.zeros((3, n, lv, m, n), dtype=complex)
    k0, ga0 = np.zeros((2, n, m, n), dtype=complex)
    diag = np.arange(n)

    def advance(src, dst, krows, rrow, r1):
        # move the committed Keldysh sums at row r1 - 1 up to row r1 using
        # the new rows, and (re)build the sums of the column born at r1 from
        # the conjugation mirrors GA[u, r1] = R(t_r1, t_u)^dag and
        # K[u, r1] = -K(t_r1, t_u)^dag; rrow[u] = R(t_r1, t_u)
        gcol = np.conj(rrow.transpose(2, 0, 1))
        kcol = -np.conj(krows[:, :r1].transpose(2, 1, 0))
        ph_new = tphase[:, r1]
        # products land in the destination, so no table-sized temporary
        np.multiply(ph_new[:, :, None, None], krows[:, None], out=dst[:, :, : r1 + 1])
        dst[:, :, : r1 + 1] += src[:, :, : r1 + 1]
        dst[:, :, r1] = (
            tphase[:, :r1].swapaxes(1, 2) @ kcol + ph_new[:, :, None] * krows[:, r1, None, :]
        )
        g3[:, :, r1] = tphase[:, : r1 + 1].swapaxes(1, 2) @ gcol

    def contract(w, acc, r):
        return (w[:, None, :] @ acc[:, :, : r + 1].reshape(n, lv, -1)).reshape(n, r + 1, n)

    def rslope(q, lag, acc):
        # retarded slope of lag q from its memory sum acc. The uniform-weight
        # sum needs trapezoid edge fixes: half its k = 0 term (L[0] = -i,
        # kernel at lag q) and half its k = q term (kernel at lag 0)
        t1 = (wr[:, None, :] @ acc)[:, 0] * dt
        t1[diag, diag] += 0.5j * dt * srf[q]
        t1 -= 0.5 * dt * srf[0][:, None] * lag
        return -1j * (hm @ lag + t1)

    def kslope(r, qk, krow):
        cph = np.conj(tphase[:, r])
        t2 = contract(wr * cph, qk, r) * dt
        t3 = contract(wk * cph, g3, r) * dt
        # edge fixes: both edges of t2; the u = 0 and u = j (GA diagonal +i)
        # edges of t3, the diagonal ones t3[a, j, a] at lag r - j
        t2 -= 0.5 * dt * srf[r][:, None, None] * k0[:, : r + 1]
        t2 -= 0.5 * dt * srf[0][:, None, None] * krow
        t3 -= 0.5 * dt * skf[r][:, None, None] * ga0[:, : r + 1]
        t3[diag, :, diag] -= (0.5j * dt * skf[r::-1]).T
        return -1j * ((hm @ krow.reshape(n, -1)).reshape(krow.shape) + t2 + t3)

    # t = 0 seeds
    lags[0] = plags[0] = -1j * eye
    krow = (-1j * (eye - 2.0 * f0))[:, None]
    k0[:, 0] = -np.conj(krow[:, 0].T)
    ga0[:, 0] = np.conj(lags[0].T)
    front[:] = lags[0][:, None, :]
    qk_c[:, :, 0] = krow
    g3[:, :, 0] = 1j * eye[:, None, :]
    yield lags[0::-1], krow.swapaxes(0, 1)

    for i in range(m - 1):
        dr1 = rslope(i, lags[i], front)
        dk1 = kslope(i, qk_c, krow)
        fd1 = dk1[:, i] - dk1[:, i].conj().T
        # predictor at t_{i+1}: the newest lag and the Keldysh row
        plags[i + 1] = lags[i] + dt * dr1
        kp = np.empty((n, i + 2, n), dtype=complex)
        kp[:, : i + 1] = krow + dt * dk1
        kp[:, i + 1] = krow[:, i] + dt * fd1
        k0[:, i + 1] = -np.conj(kp[:, 0].T)
        ga0[:, i + 1] = np.conj(plags[i + 1].T)
        advance(qk_c, qk_s, kp, plags[i + 1 :: -1], i + 1)
        # corrector re-evaluates the slopes on the predicted lag and row
        dr2 = rslope(i + 1, plags[i + 1], dphase * front + plags[i + 1][:, None, :])
        dk2 = kslope(i + 1, qk_s, kp)
        fd2 = dk2[:, i + 1] - dk2[:, i + 1].conj().T
        lags[i + 1] = lags[i] + 0.5 * dt * (dr1 + dr2)
        kc = np.empty_like(kp)
        kc[:, : i + 1] = krow + 0.5 * dt * (dk1 + dk2[:, : i + 1])
        kc[:, i + 1] = krow[:, i] + 0.5 * dt * (fd1 + fd2)
        k0[:, i + 1] = -np.conj(kc[:, 0].T)
        ga0[:, i + 1] = np.conj(lags[i + 1].T)
        advance(qk_c, qk_s, kc, lags[i + 1 :: -1], i + 1)
        # dphase on the left: swapping the factors of a complex product can
        # change its last bit, and the whole-row oracle multiplies this way
        np.multiply(dphase, front, out=front)
        front += lags[i + 1][:, None, :]
        qk_c, qk_s = qk_s, qk_c
        krow = kc
        yield lags[i + 1 :: -1], krow.swapaxes(0, 1)
