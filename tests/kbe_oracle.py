"""Two-time closed forms and transforms that only tests need.

noisychain.kbe integrates the two-time equations; analytic_gk is the closed
form the integrator converges to when the decay rates commute with the
chain, and late_time_spectrum turns the final-time slice of a run into
frequency-domain functions through a tapered Fourier sum.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from noisychain.lattice import FreqGreens


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
