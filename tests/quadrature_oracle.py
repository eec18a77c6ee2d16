"""On-grid quadratures by direct summation, as test oracles.

noisychain.baths.principal_value_transform and the noise convolutions of
noisychain.keldysh.dephasing_self_energy evaluate Toeplitz sums on the
frequency grid by FFT convolution; these helpers reach the same numbers by
summing every term (O(n^2) per profile), to check that they do. The tail
sum of dephasing_self_energy samples the bath once per point for both signs
of nu - w; dephasing_tail_direct samples it at each sign on its own.
dephasing_self_energy computes one column per symmetry orbit;
dephasing_site_by_site is the column-per-site route every other bath group
takes, applied to every group.
"""

from __future__ import annotations

import numpy as np

from noisychain import keldysh
from noisychain.baths import fft_convolve, noise_power
from noisychain.keldysh import _site_spectral_diag
from noisychain.lattice import fermi_occupation


def principal_value_direct(values, omegas):
    """principal_value_transform of one profile (n,), term by term."""

    f = np.asarray(values)
    omegas = np.asarray(omegas, dtype=float)
    n = omegas.size
    if f.shape != omegas.shape:
        raise ValueError("values and omegas must have the same shape")
    h = omegas[1] - omegas[0]
    df = np.gradient(f, h)
    lo = omegas - omegas[0]
    hi = omegas[-1] - omegas
    lo[0] = hi[-1] = 0.5 * h
    log_term = np.log(lo / hi)

    weights = np.ones(n)
    weights[0] = weights[-1] = 0.5
    out = np.empty(n, dtype=f.dtype)
    block = 512
    for start in range(0, n, block):
        stop = min(start + block, n)
        wi = omegas[start:stop, None]
        kernel = wi - omegas[None, :]
        idx = np.arange(start, stop)
        kernel[idx - start, idx] = 1.0  # pole cell patched below
        integrand = (f[None, :] - f[start:stop, None]) / kernel
        integrand[idx - start, idx] = -df[start:stop]
        out[start:stop] = integrand @ weights
    return out * h + f * log_term


def dephasing_convolutions_direct(h, bath, beta_sys, grid):
    """On-grid rate gamma and Keldysh diagonal of dephasing_self_energy.

    Every site carries `bath`; each site's two noise convolutions are one
    np.convolve per column. Returns (gamma, keldysh), each (n_points, n_sites).
    """

    a0, _ = _site_spectral_diag(h, grid)
    n_pts = grid.n_points
    f = fermi_occupation(grid.omegas, beta_sys)
    edge = np.ones(n_pts)
    edge[0] = edge[-1] = 0.5
    c_diff = noise_power(bath, np.arange(-(n_pts - 1), n_pts) * grid.spacing)
    on_grid = slice(n_pts - 1, 2 * n_pts - 1)
    scale = grid.spacing / (2.0 * np.pi)
    empty = a0 * (1.0 - f)[:, None] * edge[:, None]
    occ = a0 * f[:, None] * edge[:, None]
    conv_e = np.stack([np.convolve(col, c_diff)[on_grid] for col in empty.T], axis=1)
    conv_o = np.stack([np.convolve(col, c_diff[::-1])[on_grid] for col in occ.T], axis=1)
    return scale * (conv_e + conv_o), -1j * scale * (conv_e - conv_o)


def dephasing_tail_direct(bath, tail_nu, w, empty, occ):
    """keldysh._tail_rates with the noise power sampled twice per block,
    at nu - w and at w - nu, in the same 64-row blocks."""

    out = np.empty((tail_nu.size, empty.shape[1]))
    for start in range(0, tail_nu.size, 64):
        nu = tail_nu[start : start + 64, None]
        out[start : start + 64] = (noise_power(bath, nu - w[None, :]) @ empty) + (
            noise_power(bath, w[None, :] - nu) @ occ
        )
    return out


def dephasing_site_by_site(h, baths, beta_sys, grid):
    """(retarded, keldysh) diagonals of dephasing_self_energy with every bath
    group computed one column per site, orbit or not."""

    a0, _ = _site_spectral_diag(h, grid)
    w, n_pts = grid.omegas, grid.n_points
    f = fermi_occupation(w, beta_sys)
    edge = np.ones(n_pts)
    edge[0] = edge[-1] = 0.5
    tail_nu, tail_wts = keldysh._tail_points(grid, baths)
    m = np.arange(-(n_pts - 1), n_pts) * grid.spacing
    on_grid = slice(n_pts - 1, 2 * n_pts - 1)
    scale = grid.spacing / (2.0 * np.pi)
    retarded = np.zeros((n_pts, h.n_sites), dtype=complex)
    kel = np.zeros((n_pts, h.n_sites), dtype=complex)
    for bath, sites in keldysh._bath_groups(baths).items():
        c_diff = noise_power(bath, m)
        empty = a0[:, sites] * (1.0 - f)[:, None] * edge[:, None]
        occ = a0[:, sites] * f[:, None] * edge[:, None]
        conv_e = fft_convolve(empty, c_diff[:, None])[on_grid]
        conv_o = fft_convolve(occ, c_diff[::-1, None])[on_grid]
        g_main = scale * (conv_e + conv_o)
        g_tail = scale * keldysh._tail_rates(bath, tail_nu, w, empty, occ)
        shift = keldysh._shift_from_gamma(grid, g_main, tail_nu, tail_wts, g_tail)
        retarded[:, sites] = shift - 0.5j * g_main
        kel[:, sites] = -1j * scale * (conv_e - conv_o)
    return retarded, kel
