"""Quadratures by direct summation, as test oracles.

The grid principal-value sum of noisychain.baths.noise_power_transform and
the four convolutions of noisychain.keldysh.dephasing_self_energy (the rate
and the shift, each with an empty and an occupied term) evaluate Toeplitz
sums on the frequency grid by FFT convolution; these helpers reach the same
numbers by summing every term (O(n^2) per profile), to check that they do.
principal_value_direct is the whole on-grid transform of one profile: that
sum plus the log term of the subtracted constant over the grid, whose
endpoints take a half-cell-extended interval to keep the log finite.
dephasing_self_energy computes one column per symmetry orbit;
dephasing_site_by_site is the column-per-site route every other bath group
takes, applied to every group.
born_sigma_direct is the exact first-order self-energy of one bare level,
by adaptive quadrature over the whole bath support, which the grid route
approximates.
"""

from __future__ import annotations

import numpy as np

from noisychain import keldysh
from noisychain.baths import fft_convolve, gauss_panels, noise_power, noise_power_transform
from noisychain.keldysh import _site_spectral_diag
from noisychain.lattice import fermi_occupation


def principal_value_direct(values, omegas):
    """P int values(nu)/(omega - nu) d nu over the grid, at every omega of the
    grid, for one profile (n,), term by term: the trapezoid sum of
    (f(nu) - f(omega))/(omega - nu) with -f'(omega) on the pole cell, plus
    f(omega) log((omega - omega_0)/(omega_last - omega)) with each endpoint's
    zero distance taken as half a cell."""

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
    """On-grid rate gamma, shift and Keldysh diagonal of dephasing_self_energy.

    Every site carries `bath`; each site's four convolutions, two of the
    noise power C and two of its transform H, are one np.convolve per
    column. Returns (gamma, shift, keldysh), each (n_points, n_sites).
    """

    a0, _ = _site_spectral_diag(h, grid)
    n_pts = grid.n_points
    f = fermi_occupation(grid.omegas, beta_sys)
    edge = np.ones(n_pts)
    edge[0] = edge[-1] = 0.5
    c_diff, h_diff = noise_power_transform(bath, np.arange(-(n_pts - 1), n_pts) * grid.spacing)
    on_grid = slice(n_pts - 1, 2 * n_pts - 1)
    scale = grid.spacing / (2.0 * np.pi)
    empty = a0 * (1.0 - f)[:, None] * edge[:, None]
    occ = a0 * f[:, None] * edge[:, None]

    def convolve(cols, kernel):
        return np.stack([np.convolve(col, kernel)[on_grid] for col in cols.T], axis=1)

    conv_e, conv_o = convolve(empty, c_diff), convolve(occ, c_diff[::-1])
    shift = convolve(empty, h_diff) - convolve(occ, h_diff[::-1])
    return scale * (conv_e + conv_o), scale / (2.0 * np.pi) * shift, -1j * scale * (conv_e - conv_o)


def dephasing_site_by_site(h, baths, beta_sys, grid):
    """(retarded, keldysh) diagonals of dephasing_self_energy with every bath
    group computed one column per site, orbit or not."""

    a0, _ = _site_spectral_diag(h, grid)
    n_pts = grid.n_points
    f = fermi_occupation(grid.omegas, beta_sys)
    edge = np.ones(n_pts)
    edge[0] = edge[-1] = 0.5
    m = np.arange(-(n_pts - 1), n_pts) * grid.spacing
    on_grid = slice(n_pts - 1, 2 * n_pts - 1)
    scale = grid.spacing / (2.0 * np.pi)
    retarded = np.zeros((n_pts, h.n_sites), dtype=complex)
    kel = np.zeros((n_pts, h.n_sites), dtype=complex)
    for bath, sites in keldysh._bath_groups(baths).items():
        c_diff, h_diff = noise_power_transform(bath, m)
        empty = a0[:, sites] * (1.0 - f)[:, None] * edge[:, None]
        occ = a0[:, sites] * f[:, None] * edge[:, None]
        conv_e = fft_convolve(empty, c_diff[:, None])[on_grid]
        conv_o = fft_convolve(occ, c_diff[::-1, None])[on_grid]
        shift_e = fft_convolve(empty, h_diff[:, None])[on_grid]
        shift_o = fft_convolve(occ, h_diff[::-1, None])[on_grid]
        retarded.real[:, sites] = scale / (2.0 * np.pi) * (shift_e - shift_o)
        retarded.imag[:, sites] = -0.5 * (scale * (conv_e + conv_o))
        kel[:, sites] = -1j * scale * (conv_e - conv_o)
    return retarded, kel


def born_sigma_direct(bath, eps, eta, omegas):
    """Exact first-order self-energy of an empty level at eps under `bath`,
    (1/2pi) int C(nu)/(z - nu) d nu with z = omega - eps + i*eta, over the
    bath support [-L, L].

    The constant C(omega - eps) is subtracted and integrated in closed form,
    log((z + L)/(z - L)); the rest runs on 16-node Gauss-Legendre panels
    halved 40 times toward nu = 0 (the kink of C, and the Bose poles at
    2 pi i T k) and toward nu = omega - eps (the pole at z), from +-L.
    """

    half = bath.support
    x = np.asarray(omegas, dtype=float) - eps
    z = x + 1j * eta
    grade = half * 0.5 ** np.arange(40)
    steps = np.concatenate([-grade, [0.0], grade[::-1]])
    edges = np.column_stack([np.tile(steps, (x.size, 1)),
                             np.clip(x[:, None] + steps, -half, half)])
    nu, w = gauss_panels(np.sort(edges, axis=1), 16)
    c = noise_power(bath, np.column_stack([x, nu]))  # C(x), then C on the nodes
    regular = np.sum(w * (c[:, 1:] - c[:, :1]) / (z[:, None] - nu), axis=1)
    return (regular + c[:, 0] * (np.log(z + half) - np.log(z - half))) / (2.0 * np.pi)
