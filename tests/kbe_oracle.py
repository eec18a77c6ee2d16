"""Two-time planes, closed forms and transforms that only tests need.

noisychain.kbe returns only the equal-time occupations, which it reads
off the retarded lag series by the Langreth rule. kbe_integrate runs the
full two-time equations of motion instead and collects them into the
lower-triangle planes of TwoTimeGreens, so tests can check any point of
them: wide-band rows by the brute-force row stepper below, memory rows by
per_site_memory_rows, which steps whole retarded rows and the Keldysh rows
K(t_i, t_j), j <= i, with per-site exponential-sum accumulators. It
discretizes the Keldysh side independently of the Langreth route, so the
two agree to their O(dt^2) gap and both converge to the exact solve.
analytic_gk is the closed form the integrator converges to when the decay
rates commute with the chain, and late_time_spectrum turns the final-time
slice of a run into frequency-domain functions through a tapered Fourier
sum. wide_bands builds the memoryless closure from a list of rates, and
excited the occupation matrix of one particle on one site.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from noisychain.baths import WideBandBath, inverse_temperature
from noisychain.kbe import MemorySelfEnergy, _start
from noisychain.lattice import FreqGreens, fermi_occupation


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


def wide_bands(rates):
    """The memoryless closure: one WideBandBath of each rate, one per site."""

    return MemorySelfEnergy([WideBandBath(float(r)) for r in rates])


def excited(n_sites, site):
    """(n, n) occupation matrix f0 at t = 0: one particle on `site`."""

    f0 = np.zeros((n_sites, n_sites))
    f0[site, site] = 1.0
    return f0


def kbe_integrate(h, sigma, site, t_max, dt):
    """Full two-time planes after exciting `site` at t = 0, with the checks
    of noisychain.kbe.equal_time_occupations run first. The closure's baths are
    all wide bands or all two-level environments (or None)."""

    m = _start(h, sigma, site, t_max, dt)
    f0 = excited(h.n_sites, site)
    wide = [isinstance(b, WideBandBath) for b in sigma.baths]
    if all(wide):
        rows = _markov_rows(h.matrix, sigma.rates, f0, m, dt)
    elif any(wide):
        raise ValueError("the oracle steps wide bands or two-level baths, not both")
    else:
        rows = per_site_memory_rows(h.matrix, sigma, f0, m, dt)
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


def keldysh_kernels(sigma, dt, n_lags):
    """Site-diagonal Keldysh kernels of a memory closure on the lag grid,
    (n_lags, n_sites): -i sum_l g_l^2 (1 - 2 f_l) e^{-i eps_l t} per site,
    the companion of MemorySelfEnergy.kernels that only this stepper reads."""

    sk = np.zeros((n_lags, sigma.n_sites), dtype=complex)
    lags = np.arange(n_lags) * dt
    for site, bath in enumerate(sigma.baths):
        if bath is None:
            continue
        hole = 1.0 - 2.0 * fermi_occupation(bath.energies, inverse_temperature(bath.temperature))
        phases = np.exp(-1j * np.outer(lags, bath.energies))
        sk[:, site] = -1j * (phases @ (bath.couplings**2 * hole))
    return sk


def per_site_memory_rows(hm, sigma, f0, m, dt):
    """Memory rows (ret, kel) of shape (i + 1, n, n), X(t_i, t_j) for j <= i,
    by second-order stepping of both two-time equations: per-site
    accumulators of shape (levels, m, n), one tensordot per site and memory
    term, column 0 kept as full matrices and mirrored on every slope."""

    n = hm.shape[0]
    eye = np.eye(n, dtype=complex)
    srf = sigma.kernels(dt, m)
    skf = keldysh_kernels(sigma, dt, m)
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
