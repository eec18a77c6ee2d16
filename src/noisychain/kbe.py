"""Two-time transient dynamics from one excited site.

The chain starts with one particle on one site, every other site empty and
no correlation with the baths at t = 0; the integrator returns what an
occupation trajectory reads, the site occupations n_i(t), from which the
equal-time Keldysh diagonal is K_ii(t, t) = -i (1 - 2 n_i(t)). Each site
couples to nothing, to a wide band (a constant decay rate Gamma, no memory)
or to tunneling two-level environments (a memory kernel). The wide band is
the flat-band limit of the kernel: Sigma^R(t) = -i (Gamma/2) delta(t) on an
empty band, a local -i Gamma/2 in the retarded slope with no levels and no
lesser term, so one stepper serves both. Second-order stepping: halving dt
cuts the error by four; tests pin that convergence ratio, and it must not
be traded away for exactness tricks.

h and the kernels are time-independent and the retarded function never
reads the initial state, so R(t, t') = R(t - t') is stepped as one lag
series (Heun steps, the memory sum as a one-step recurrence over the bath
levels). The self-energy is site-diagonal, so the columns of R decouple and
only those the occupations read are stepped. The baths start uncorrelated
with the chain and their kernels are stationary, so the Langreth rule gives
the equal-time lesser function from R alone: with U = iR,
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

from .baths import TlsBath, WideBandBath, check_site_baths, inverse_temperature
from .errors import CapacityError
from .lattice import fermi_occupation

__all__ = [
    "STABILITY_LIMIT",
    "MEMORY_CAP_BYTES",
    "MemorySelfEnergy",
    "stream_bytes",
    "check_step",
    "equal_time_occupations",
]

STABILITY_LIMIT = 0.05  # max allowed (fastest scale) * dt
MEMORY_CAP_BYTES = 3_000_000_000


@dataclass
class MemorySelfEnergy:
    """Site-diagonal bath closure, one entry per site: a TlsBath (memory
    kernel), a WideBandBath (memoryless decay) or None."""

    baths: tuple

    def __post_init__(self):
        self.baths = check_site_baths(self.baths, lambda b: isinstance(b, (TlsBath, WideBandBath)))

    @property
    def n_sites(self):
        return len(self.baths)

    @property
    def levels(self):
        """Level axis of the stacked memory core: the largest per-site level
        count (0 without two-level baths); sites with fewer get zero weights."""
        return max((b.energies.size for b in self.baths if isinstance(b, TlsBath)), default=0)

    @property
    def rates(self):
        """Wide-band decay rate per site, 0 on every other site."""
        return np.array([b.rate if isinstance(b, WideBandBath) else 0.0 for b in self.baths])

    def kernels(self, dt, n_lags, sites=None):
        """Site-diagonal retarded kernels on the lag grid, (n_lags, len(sites))
        for the given sites (all by default); a wide band has none."""

        sites = range(self.n_sites) if sites is None else sites
        sr = np.zeros((n_lags, len(sites)), dtype=complex)
        lags = np.arange(n_lags) * dt
        for k, site in enumerate(sites):
            bath = self.baths[site]
            if isinstance(bath, TlsBath):
                phases = -1j * np.outer(lags, bath.energies)
                sr[:, k] = -1j * (np.exp(phases, out=phases) @ bath.couplings**2)
                del phases
        return sr


def _fastest_scale(h, sigma):
    scale = max(float(np.linalg.norm(h.matrix, 2)), float(np.max(sigma.rates, initial=0.0)))
    for bath in sigma.baths:
        if isinstance(bath, TlsBath) and bath.levels:
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


def stream_bytes(n_sites, n_times, levels):
    """Working-set estimate in bytes of `equal_time_occupations` plus the
    complex Keldysh diagonal i (2 n - 1) made from its output.

    levels is the padded level axis (`MemorySelfEnergy.levels`, 0 without
    two-level environments). The integrator holds the complex
    (n_times, columns) retarded kernel table of the stepped columns and the
    (n_times, n) occupations, which end as the complex output; building one
    site's complex (n_times, levels) phase table takes its real lag-energy
    product too, 1.5 complex columns per level, counted as 2. Its steps add
    about 5 complex (n, levels, n) memory sums and temporaries, 3 complex
    (n, levels) level tables and 12 complex (n, n) matrices, and 16 * 8192
    bytes (numpy's ufunc buffers) do not grow with anything. Measured with
    tracemalloc: 0.07 to 0.76 of the rule at n = 1 to 40 and 1 to 4000
    levels over 51 to 2001 times, with occupied levels on every site or on
    none; 0.08 to 0.67 on wide bands alone (no level axis); 0.52 on fig4-top.
    """

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
    need = stream_bytes(n, m, sigma.levels)
    if need > MEMORY_CAP_BYTES:
        raise CapacityError(
            f"the integrator needs about {need / 1e9:.1f} GB "
            f"(cap {MEMORY_CAP_BYTES / 1e9:.0f} GB); increase dt or shorten t_max"
        )
    f0 = np.zeros((n, n))
    f0[site, site] = 1.0
    return m, f0


def equal_time_occupations(h, sigma, site, t_max, dt):
    """Site occupations n_i(t) after exciting `site` at t = 0.

    h drives the dynamics and sigma closes the bath coupling (decay rates,
    memory kernels or both). Checks the site counts, the time grid, the step
    against the fastest scale in the problem and the working set against the
    memory cap before any step. Returns a real (n_times, n) array on the
    uniform grid arange(0, t_max, dt) inclusive, as the stepper sums it:
    an occupation far below 1 keeps its digits, which (1 + Im K) / 2 loses.
    """

    m, _ = _start(h, sigma, site, t_max, dt)
    return _memory_occupations(h.matrix, sigma, site, m, dt)


def _memory_occupations(hm, sigma, site, m, dt):
    """(m, n) occupations n_i(t) by the Langreth rule from the retarded lag
    series L[q] = R(t_q, 0) = -i U(t_q), stepped on the columns it reads."""

    n = hm.shape[0]

    # Sites are stacked, each padded to the level axis with zero-weight
    # levels: eps the level energies, wr the retarded kernel weights -i g^2,
    # wf the lesser ones g^2 f
    lv = sigma.levels
    eps = np.zeros((n, lv))
    wr = np.zeros((n, lv), dtype=complex)
    wf = np.zeros((n, lv))
    for a, bath in enumerate(sigma.baths):
        if not isinstance(bath, TlsBath):
            continue
        k = bath.energies.size
        gsq = bath.couplings**2
        eps[a, :k] = bath.energies
        wr[a, :k] = -1j * gsq
        wf[a, :k] = gsq * fermi_occupation(bath.energies, inverse_temperature(bath.temperature))
    dphase = np.exp(-1j * eps * dt)[:, :, None]

    # The occupations read column `site` of U and, through v, the column of
    # every site whose bath holds an occupied level; no other column is
    # stepped. warm indexes those sites among the stepped columns
    stepped = wf.any(axis=1)
    hot = np.flatnonzero(stepped)
    stepped[site] = True
    cols = np.flatnonzero(stepped)
    warm = np.searchsorted(cols, hot)
    here = int(np.searchsorted(cols, site))
    srf = sigma.kernels(dt, m, cols)
    # local terms of the retarded slope in one matrix: h, the wide bands'
    # -i Gamma/2 and the trapezoid's half weight on the memory sum's newest
    # lag (kernel at lag 0); edge * srf[q] is the other half-weight edge,
    # L[0] = -i on the stepped columns' own sites (kernel at lag q)
    loc = -1j * (hm - np.diag(0.5j * sigma.rates + 0.5 * dt * sigma.kernels(dt, 1)[0]))
    edge = 0.5j * np.eye(n)[:, cols]

    # The kernels are exact exponential sums over bath levels, so both
    # trapezoid sums over the history obey one-step recurrences and only
    # the newest lag is kept:
    #   front[a, s] = sum_{k=0..q} e^{-i eps_s (q - k) dt} L[k][a, :], the
    #                 retarded memory sum of lag q (uniform weights);
    #   vel[b, s]   = e^{-i eps_s t_q} int_0^{t_q} e^{i eps_s tau} L(tau)[:, a]
    #                 dtau for warm site a = hot[b], the trapezoid rule;
    #                 |vel| = |v| since |L| = |U|
    def rslope(q, lag, acc):
        return loc @ lag - 1j * dt * ((wr[:, None, :] @ acc)[:, 0] + edge * srf[q])

    lag = -1j * np.eye(n, dtype=complex)[:, cols]
    front = np.repeat(lag[:, None, :], lv, axis=1)
    vel = np.zeros((hot.size, lv, n), dtype=complex)
    vphase = dphase[hot]
    wfv = wf[hot].ravel()
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
        occ[i + 1] = np.abs(new[:, here]) ** 2
        if hot.size:
            vel += 0.5 * dt * lag[:, warm].T[:, None, :]
            vel *= vphase
            vel += 0.5 * dt * new[:, warm].T[:, None, :]
            occ[i + 1] += wfv @ (np.abs(vel.reshape(-1, n)) ** 2)
        lag = new
    return occ
