"""Two-time planes, closed forms and transforms that only tests need.

noisychain.kbe streams the two-time equations row by row; kbe_integrate
collects that stream into the full lower-triangle planes of TwoTimeGreens,
so tests can check any point of them. analytic_gk is the closed form the
integrator converges to when the decay rates commute with the chain, and
late_time_spectrum turns the final-time slice of a run into
frequency-domain functions through a tapered Fourier sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from noisychain.kbe import kbe_rows
from noisychain.lattice import FreqGreens


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


def kbe_integrate(h, sigma, ini, t_max, dt):
    """The streamed rows of noisychain.kbe.kbe_rows, collected into full planes."""

    rows = kbe_rows(h, sigma, ini, t_max, dt)
    m, n = int(round(t_max / dt)) + 1, h.n_sites
    ret = np.zeros((m, m, n, n), dtype=complex)
    kel = np.zeros((m, m, n, n), dtype=complex)
    for i, (r_row, k_row) in enumerate(rows):
        ret[i, : i + 1] = r_row
        kel[i, : i + 1] = k_row
    return TwoTimeGreens(t_grid=np.arange(m) * dt, retarded=ret, keldysh=kel)


def occupations(greens):
    """Per-site occupations n_i(t) = (1 + Im K_ii(t,t)) / 2, plus their sum.

    Returns (n, n_tot) with n of shape (n_times, n_sites).
    """

    idx = np.arange(greens.n_times)
    diag = np.diagonal(greens.keldysh[idx, idx], axis1=1, axis2=2)
    n = 0.5 * (1.0 + diag.imag)
    return n, n.sum(axis=1)


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
    prop_diff = sla.expm(a_mat * (t - t_prime))
    return -1j * prop_diff + 2j * sla.expm(a_mat * t) @ f0 @ sla.expm(a_mat.conj().T * t_prime)


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
