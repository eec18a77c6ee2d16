"""Two-time planes, closed forms and transforms that only tests need.

noisychain.kbe returns only the equal-time Keldysh diagonal. kbe_integrate
runs the full two-time equations of motion instead and collects them into
the lower-triangle planes of TwoTimeGreens, so tests can check any point of
them: the Markov rows by the brute-force row stepper below, the memory rows
by the integrator's own streamed core. analytic_gk is the closed form the
integrator converges to when the decay rates commute with the chain, and
late_time_spectrum turns the final-time slice of a run into
frequency-domain functions through a tapered Fourier sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from noisychain.kbe import MarkovSelfEnergy, _memory_rows, _start
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


def kbe_integrate(h, sigma, site, t_max, dt):
    """Full two-time planes after exciting `site` at t = 0, with the checks
    of noisychain.kbe.equal_time_keldysh run first."""

    m, f0 = _start(h, sigma, site, t_max, dt)
    if isinstance(sigma, MarkovSelfEnergy):
        rows = _markov_rows(h.matrix, sigma.rates, f0, m, dt)
    else:
        rows = _memory_rows(h.matrix, sigma, f0, m, dt)
    n = h.n_sites
    ret = np.zeros((m, m, n, n), dtype=complex)
    kel = np.zeros((m, m, n, n), dtype=complex)
    for i, (r_row, k_row) in enumerate(rows):
        ret[i, : i + 1] = r_row
        kel[i, : i + 1] = k_row
    return TwoTimeGreens(t_grid=np.arange(m) * dt, retarded=ret, keldysh=kel)


def _markov_rows(hm, rates, f0, m, dt):
    """Rows (ret, kel) of shape (i + 1, n, n), X(t_i, t_j) for j <= i, under
    instantaneous decay: off the diagonal each row is the previous one times
    the quadratic one-step propagator, on it the equal-time equation."""

    n = hm.shape[0]
    eye = np.eye(n, dtype=complex)
    gd = np.diag(rates).astype(complex)
    a_mat = -1j * hm - 0.5 * gd
    da = dt * a_mat
    p2 = eye + da + 0.5 * (da @ da)  # quadratic propagator, one order per factor
    ret = (-1j * eye)[None]
    kel = (-1j * (eye - 2.0 * f0))[None]
    yield ret, kel

    def diag_rhs(k):
        return a_mat @ k + k @ a_mat.conj().T - 1j * gd

    for i in range(1, m):
        new_r = np.empty((i + 1, n, n), dtype=complex)
        new_r[:i] = np.matmul(p2, ret)
        new_r[i] = -1j * eye
        new_k = np.empty_like(new_r)
        new_k[:i] = np.matmul(p2, kel)
        kd = kel[i - 1]
        f1 = diag_rhs(kd)
        f2 = diag_rhs(kd + dt * f1)
        new_k[i] = kd + 0.5 * dt * (f1 + f2)
        ret, kel = new_r, new_k
        yield ret, kel


def occupations(greens):
    """Per-site occupations n_i(t) = (1 + Im K_ii(t,t)) / 2, plus their sum.

    Returns (n, n_tot) with n of shape (n_times, n_sites).
    """

    idx = np.arange(greens.n_times)
    diag = np.diagonal(greens.keldysh[idx, idx], axis1=1, axis2=2)
    n = 0.5 * (1.0 + diag.imag)
    return n, n.sum(axis=1)


def analytic_gk(h, rates, site, t, t_prime):
    """Closed-form Keldysh component for site decay commuting with the chain.

    Valid whenever the rate matrix commutes with the Hamiltonian (uniform
    rates, or rates sharing the chain's eigenbasis), starting from one
    particle on `site`. Used as the convergence reference for the integrator.
    """

    hm = h.matrix
    gd = np.diag(np.asarray(rates, dtype=float)).astype(complex)
    comm = hm @ gd - gd @ hm
    bound = max(1.0, float(np.max(np.abs(hm))) * float(np.max(np.abs(gd))))
    if np.max(np.abs(comm)) > 1e-10 * bound:
        raise ValueError("rates must commute with the hamiltonian for the closed form")
    if t < t_prime:
        return -analytic_gk(h, rates, site, t_prime, t).conj().T
    a_mat = -1j * hm - 0.5 * gd
    f0 = np.zeros_like(hm, dtype=float)
    f0[site, site] = 1.0
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
