"""Reference Dyson solves that only tests need.

lu_dyson_solve is the general route that noisychain.keldysh.dyson_solve
replaced: LU with partial pivoting on omega + i*eta - h^T - Sigma^+ for any
hermitian h, here followed by one step of iterative refinement. Partial
pivoting shows exponential element growth on long periodic rings (Wright,
SIAM J. Sci. Comput. 14, 231 (1993)); the refinement step takes the residual
back to roundoff. ring_site_greens is the closed form of the diagonal of G^+
on a uniform ring under a site-uniform self-energy. eigenbasis_greens is the
eigenbasis route that lattice.uniform_greens replaced, G^K from |D|^2, and
ideal_greens the bath-free case of the new one.
"""

from __future__ import annotations

import numpy as np

from noisychain.lattice import FreqGreens, thermal_factor, uniform_greens


def lu_dyson_solve(h, beta_sys, sigma, sites=None):
    """Dressed G^+ and G^K between `sites` by refined LU, any hermitian h.

    Same contract as noisychain.keldysh.dyson_solve: the rows of G^+ solve
    (omega + i*eta - h^T - Sigma^+) y = e_i, and
    G^K = G^+ (Sigma^K - 2i*eta*F_sys) G^-.
    """

    grid = sigma.grid
    n = h.n_sites
    sites = list(range(n)) if sites is None else list(sites)
    s = len(sites)
    w = grid.omegas
    unit = np.zeros((grid.n_points, n, s))
    unit[:, sites, np.arange(s)] = 1.0
    lhs_t = (w + 1j * grid.eta)[:, None, None] * np.eye(n) - h.matrix.T
    np.einsum("wii->wi", lhs_t)[...] -= sigma.retarded
    y = np.linalg.solve(lhs_t, unit)
    y += np.linalg.solve(lhs_t, unit - lhs_t @ y)
    rows = np.swapaxes(y, 1, 2)  # rows[:, a, :] is the row G^+_{sites[a], .}
    kern = sigma.keldysh - (2j * grid.eta * thermal_factor(w, beta_sys))[:, None]
    return FreqGreens(
        grid=grid, retarded=rows[:, :, sites], keldysh=(rows * kern[:, None, :]) @ np.conj(y)
    )


def ring_site_greens(n_sites, onsite, hopping, sigma_r, grid):
    """G^+_00 of a build_chain ring under a site-uniform Sigma^+ (n_points,).

    The ring is diagonal in momentum, so G^+_00 = (1/N) sum_k
    (z - eps_k - Sigma^+)^-1 with eps_k = onsite + hopping*cos(2 pi k/N).
    """

    eps = onsite + hopping * np.cos(2.0 * np.pi * np.arange(n_sites) / n_sites)
    z = grid.omegas + 1j * grid.eta - np.asarray(sigma_r)
    return np.mean(1.0 / (z[:, None] - eps[None, :]), axis=1)


def ideal_greens(h, beta, grid, sites=None):
    """Bath-free Green functions of the chain at inverse temperature beta.

    The retarded resolvent carries the grid's eta broadening; the Keldysh
    component is the equilibrium combination (G+ - G-)*tanh(beta*omega/2).
    Only the entries between `sites` (default: every site) are built, as
    (n_points, s, s) arrays indexed by position in `sites`.
    """

    return uniform_greens(h, grid, sites, 0.0, thermal_factor(grid.omegas, beta))


def eigenbasis_greens(h, beta_sys, grid, sites, sigma_r, sigma_k):
    """G^+ and G^K between `sites` under a site-uniform self-energy, by |D|^2.

    sigma_r and sigma_k ((n_points,) or scalars) commute with
    h = U diag(E) U^dag: G^+ = U D U^dag with
    D = (omega + i*eta - sigma_r - E)^-1, and
    G^K = (sigma_k - 2i*eta*F) U |D|^2 U^dag, F = tanh(beta_sys*omega/2),
    from the weights u_ik conj(u_jk), on the whole grid at once.
    """

    eig = h.eig
    u = eig.transform if sites is None else eig.transform[list(sites)]
    s = u.shape[0]
    weights = (u.conj()[None, :, :] * u[:, None, :]).reshape(s * s, -1)
    w = grid.omegas
    d = 1.0 / ((w + 1j * grid.eta - sigma_r)[:, None] - eig.energies)
    kern = sigma_k - 2j * grid.eta * thermal_factor(w, beta_sys)
    gr = np.dot(weights, d.T).T.reshape(-1, s, s)
    gk = kern[:, None, None] * np.dot(weights, (d.real**2 + d.imag**2).T).T.reshape(-1, s, s)
    return FreqGreens(grid=grid, retarded=gr, keldysh=gk)
