"""Two-time transient dynamics from one excited site.

The chain starts with one particle on one site, every other site empty and
no correlation with the baths at t = 0; the integrator returns what an
occupation trajectory reads, the equal-time Keldysh diagonal
K_ii(t, t) = -i (1 - 2 n_i(t)). Two bath closures are supported: an
instantaneous decay approximation (site decay rates, no memory) and the
full memory kernel of tunneling two-level environments. Both use
second-order stepping so halving dt cuts the error by four; tests pin that
convergence ratio for both closures, and it must not be traded away for
exactness tricks.

Without memory the equal-time function obeys its own closed equation,
dK/dt = A K + K A^dag - i Gamma with A = -i h - Gamma/2, so K(t, t) is
stepped alone: O(n^3) work per step and an (n_times, n) output. With memory
the retarded function never reads the initial state and h and the kernels
are time-independent, so R(t, t') = R(t - t') is stepped as one lag series
(Heun steps, the memory sum as a one-step recurrence over the bath levels).
The baths start uncorrelated with the chain and their kernels are
stationary, so the Langreth rule gives the equal-time lesser function from
R alone: with U = iR,
    G^<(t, t) = U(t) G^<(0, 0) U(t)^dag
                + int int G^R(t, s) Sigma^<(s - s') G^A(s', t) ds ds',
and Sigma^< is a sum of exponentials over the levels, so the double
integral factorizes:
    n_i(t) = |U_{i,site}(t)|^2 + sum_{a,l} g_{a,l}^2 f_{a,l} |v_{a,l,i}(t)|^2,
    v_{a,l}(t) = int_0^t U(tau)[:, a] e^{i eps_l tau} dtau,
a running trapezoid sum over level l of site a's bath (coupling g, energy
eps, occupation f). Occupations are sums of squares with nonnegative
weights, and K follows from G^> - G^< = -i at equal times. Work grows as
(t_max/dt) * n^2 * levels per site; memory as (t_max/dt) * (n + levels per
site) for the kernel table plus n^2 * levels per site for the sums. Jobs
whose working set (`stream_bytes`) would exceed a few gigabytes are refused
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
        """Site-diagonal retarded kernels on the lag grid, (n_lags, n_sites)."""

        sr = np.zeros((n_lags, self.n_sites), dtype=complex)
        lags = np.arange(n_lags) * dt
        for site, bath in enumerate(self.baths):
            if bath is not None:
                phases = -1j * np.outer(lags, bath.energies)
                sr[:, site] = -1j * (np.exp(phases, out=phases) @ bath.couplings**2)
                del phases
        return sr


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


def stream_bytes(n_sites, n_times, levels=None):
    """Working-set estimate of `equal_time_keldysh` in bytes.

    levels is the padded level axis (`MemorySelfEnergy.levels`) of a memory
    closure, None for the Markov closure. The Markov closure holds the
    complex (n_times, n) output, about 11 complex (n, n) scratch matrices
    (K, the two slopes and the matmul temporaries) and 16 * 512 bytes that
    do not grow with the time count. Measured with tracemalloc: the output
    plus 10.5 to 11.8 scratch matrices at n = 10 to 80 with 101 and 2001
    times, and up to 6.2 kB more at n = 1 to 10: 0.56 to 0.99 of the rule
    at n = 1 to 40 over 51 to 2001 times, 0.79 for one site over 51 times
    in a fresh process. The memory closure holds the complex (n_times, n)
    retarded kernel and the (n_times, n) occupations, which end as the
    complex output; building one site's complex (n_times, levels) phase
    table takes its real lag-energy product too, 1.5 complex columns per
    level, counted as 2. Its steps add about 5 complex (n, levels, n)
    memory sums and temporaries, 3 complex (n, levels) level tables and 12
    complex (n, n) matrices, and 16 * 8192 bytes (numpy's ufunc buffers) do
    not grow with anything. Measured: 0.06 to 0.79 of the rule at n = 1 to
    40 and 1 to 4000 levels over 51 to 2001 times, 0.70 to 0.75 on one
    site with 1000 to 4000 levels, 0.51 on fig4-top.
    """

    if levels is None:
        return 16 * (n_times * n_sites + 11 * n_sites**2 + 512)
    return 16 * (n_times * (2 * n_sites + 2 * levels + 4)
                 + n_sites * levels * (5 * n_sites + 3) + 12 * n_sites**2 + 8192)


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
    need = stream_bytes(n, m, None if markov else sigma.levels)
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
    return 1j * (2.0 * _memory_occupations(h.matrix, sigma, site, m, dt) - 1.0)


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


def _memory_occupations(hm, sigma, site, m, dt):
    """(m, n) occupations n_i(t) by the Langreth rule from the retarded lag
    series L[q] = R(t_q, 0) = -i U(t_q)."""

    n = hm.shape[0]
    srf = sigma.kernels(dt, m)

    # Sites are stacked, each padded to the level axis with zero-weight
    # levels: eps the level energies, wr the retarded kernel weights -i g^2,
    # wf the lesser ones g^2 f
    lv = sigma.levels
    eps = np.zeros((n, lv))
    wr = np.zeros((n, lv), dtype=complex)
    wf = np.zeros((n, lv))
    for a, bath in enumerate(sigma.baths):
        if bath is None:
            continue
        k = bath.energies.size
        gsq = bath.couplings**2
        eps[a, :k] = bath.energies
        wr[a, :k] = -1j * gsq
        wf[a, :k] = gsq * fermi_occupation(bath.energies, inverse_temperature(bath.temperature))
    dphase = np.exp(-1j * eps * dt)[:, :, None]
    diag = np.arange(n)

    # The kernels are exact exponential sums over bath levels, so both
    # trapezoid sums over the history obey one-step recurrences and only
    # the newest lag is kept:
    #   front[a, s] = sum_{k=0..q} e^{-i eps_s (q - k) dt} L[k][a, :], the
    #                 retarded memory sum of lag q (uniform weights);
    #   vel[a, s]   = e^{-i eps_s t_q} int_0^{t_q} e^{i eps_s tau} L(tau)[:, a]
    #                 dtau, the trapezoid rule; |vel| = |v| since |L| = |U|
    def rslope(q, lag, acc):
        # retarded slope of lag q from its memory sum acc. The uniform-weight
        # sum needs trapezoid edge fixes: half its k = 0 term (L[0] = -i,
        # kernel at lag q) and half its k = q term (kernel at lag 0)
        t1 = (wr[:, None, :] @ acc)[:, 0] * dt
        t1[diag, diag] += 0.5j * dt * srf[q]
        t1 -= 0.5 * dt * srf[0][:, None] * lag
        return -1j * (hm @ lag + t1)

    lag = -1j * np.eye(n, dtype=complex)
    front = np.repeat(lag[:, None, :], lv, axis=1)
    vel = np.zeros((n, lv, n), dtype=complex)
    occ = np.zeros((m, n))
    occ[0, site] = 1.0
    for i in range(m - 1):
        # Heun step of the newest lag: predictor, then the corrector on it
        dr1 = rslope(i, lag, front)
        plag = lag + dt * dr1
        dr2 = rslope(i + 1, plag, dphase * front + plag[:, None, :])
        new = lag + 0.5 * dt * (dr1 + dr2)
        # dphase on the left, the operand order the quoted measurements
        # used: swapping the factors of a complex product can change its
        # last bit
        np.multiply(dphase, front, out=front)
        front += new[:, None, :]
        vel += 0.5 * dt * lag.T[:, None, :]
        vel *= dphase
        vel += 0.5 * dt * new.T[:, None, :]
        lag = new
        occ[i + 1] = np.abs(lag[:, site]) ** 2 + wf.ravel() @ (np.abs(vel.reshape(-1, n)) ** 2)
    return occ
