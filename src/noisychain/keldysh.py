"""Steady-state Keldysh solver on the frequency grid.

Each site couples to its own bath, so every self-energy here is
site-diagonal and is stored as its diagonal only: retarded and Keldysh
components of shape (n_points, n_sites), with the textbook sign layout
retarded = shift - i*gamma/2 (gamma >= 0) and an imaginary Keldysh part.
A site-uniform one, sigma(omega)*1, is one (n_points, 1) column read on
every site. Advanced components are never stored; they are hermitian
conjugates of the retarded ones. The dephasing rate is the free spectral
function convolved with the bath's noise power C, and its level shift the
same function convolved with C's Hilbert transform: Toeplitz products,
evaluated by FFT once per symmetry orbit: one dephasing bath on every site
of a ring (lattice.ring_orbit) is computed at site 0, as one column. The
dressed Green functions come from a direct Dyson solve,
G^+ = (omega + i*eta - h - Sigma^+)^-1, for the requested sites only, 512
frequencies at a time: in the chain's eigenbasis for a uniform
self-energy, else on its band structure. The Keldysh component carries an
explicit 2*eta boundary term at the system temperature so the bare limit
is recovered exactly when the self-energy vanishes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .baths import (
    OhmicBath,
    TlsBath,
    WideBandBath,
    check_site_baths,
    fft_convolve,
    inverse_temperature,
    noise_power_transform,
)
from .errors import SingularFrequencyError
from .lattice import FREQ_BLOCK as _DYSON_BLOCK
from .lattice import (
    FreqGreens,
    FreqGrid,
    diagonalize,
    fermi_occupation,
    ring_orbit,
    thermal_factor,
    uniform_greens,
)

__all__ = [
    "SelfEnergy",
    "RateFunction",
    "extract_rates",
    "dephasing_self_energy",
    "tls_embedding_self_energy",
    "dyson_solve",
    "steady_state_greens",
]

RATE_FLOOR = -1e-10


def _site_diagonals(grid, parts, dtype, n_sites):
    """(parts read as (n_points, n_sites), n_sites); a lone column reads on every site."""

    parts = [np.asarray(p, dtype=dtype) for p in parts]
    shape = parts[0].shape
    if len(shape) != 2:
        raise ValueError("expected site diagonals of shape (n_points, n_sites)")
    if shape[0] != grid.n_points:
        raise ValueError("array length does not match grid.n_points")
    if any(p.shape != shape for p in parts):
        raise ValueError("component shapes disagree")
    n_sites = shape[1] if n_sites is None else n_sites
    if shape[1] not in (1, n_sites):
        raise ValueError(f"expected one column or one per site of {n_sites}")
    return [np.broadcast_to(p, (shape[0], n_sites)) for p in parts], n_sites


@dataclass
class SelfEnergy:
    """Site-diagonal self-energy sampled on a FreqGrid.

    retarded and keldysh are the per-site diagonals, read-only complex arrays
    of shape (n_points, n_sites); off-diagonal entries cannot be represented.
    A site-uniform sigma(omega)*1 is given and stored (`columns`) as one
    (n_points, 1) column each, with n_sites.
    """

    grid: FreqGrid
    retarded: np.ndarray
    keldysh: np.ndarray
    n_sites: int = None

    def __post_init__(self):
        (self.retarded, self.keldysh), self.n_sites = _site_diagonals(
            self.grid, (self.retarded, self.keldysh), complex, self.n_sites)

    @property
    def columns(self):
        return tuple(p[:, :1] if p.strides[1] == 0 else p for p in (self.retarded, self.keldysh))


@dataclass
class RateFunction:
    """Frequency-resolved decay rate and level shift per site.

    gamma and shift are real (n_points, n_sites) arrays, one column each when
    site-uniform (see SelfEnergy); gamma must stay above -1e-10 (tiny negative
    excursions are quadrature noise, more negative values indicate a
    sign-convention error upstream).
    """

    grid: FreqGrid
    gamma: np.ndarray
    shift: np.ndarray
    n_sites: int = None

    def __post_init__(self):
        (self.gamma, self.shift), self.n_sites = _site_diagonals(
            self.grid, (self.gamma, self.shift), float, self.n_sites)
        if np.min(self.gamma) < RATE_FLOOR:
            raise ValueError(
                f"negative rate {np.min(self.gamma):.3e} below the {RATE_FLOOR} floor"
            )


def extract_rates(sigma):
    """Decay rate and shift from a retarded self-energy.

    gamma = -2 Im Sigma^+ (positive for decay), shift = Re Sigma^+.
    """

    sr = sigma.columns[0]
    return RateFunction(sigma.grid, -2.0 * sr.imag, sr.real.copy(), sigma.n_sites)


def _site_spectral_diag(h, grid, sites=None):
    """(w, len(sites)) free spectral functions of `sites` (default: all), and h's eigensystem."""

    eig = diagonalize(h)
    eta = grid.eta
    weights = np.abs(eig.transform if sites is None else eig.transform[sites]) ** 2
    out = np.empty((grid.n_points, weights.shape[0]))
    for start in range(0, grid.n_points, _DYSON_BLOCK):
        blk = slice(start, start + _DYSON_BLOCK)
        lor = 2.0 * eta / ((grid.omegas[blk, None] - eig.energies[None, :]) ** 2 + eta**2)
        out[blk] = lor @ weights.T
    return out, eig


def _bath_groups(baths):
    """{bath: [site, ...]}, grouping sites whose baths are equal; None skipped."""

    groups = {}
    for i, bath in enumerate(baths):
        if bath is not None:
            groups.setdefault(bath, []).append(i)
    return groups


def dephasing_self_energy(h, baths, beta_sys, grid):
    """Born dephasing self-energy from frequency-domain convolution.

    Site-diagonal second-order self-energy of a density-coupled bath:
    the free site spectral function weighted by system occupations is
    convolved with the bath noise power on the uniform grid (trapezoid-
    weighted discrete convolution, one FFT convolution per term over all
    sites of a bath group),

        gamma_i(w) = (1/2pi) int dx A_i(x) [ (1-f(x)) C(w-x) + f(x) C(x-w) ]

    and the Keldysh part is the same combination with a relative minus sign
    (times -i). The level shift is gamma's Kramers-Kronig transform over the
    whole bath support; the transform commutes with the convolution, so it
    is the same sum with C(u) replaced by H(u) = P int C(nu)/(u - nu) d nu
    (noise_power_transform), the occupied term negated and the whole divided
    by 2pi. Sites with equal baths form a group, which samples C and H once
    on the difference grid. One group on every site of a ring (ring_orbit)
    is computed for site 0 alone as one site-uniform column; any other group
    is computed column by column. Returns a SelfEnergy.

    Every term is linear in the baths' alpha: J and S = J/tanh, H and the
    four convolutions. Scaling every alpha by r scales the result by r, bit
    for bit when r is a power of two (no rounding step sees a different
    mantissa), so a width sweep computes it once and scales it per width.
    """

    # the transform reads each bath's support
    baths = check_site_baths(baths, lambda b: isinstance(b, OhmicBath), h.n_sites)
    groups = _bath_groups(baths)
    orbit = ring_orbit(h, baths)
    a0, eig = _site_spectral_diag(h, grid, [0] if orbit else None)
    n_pts = grid.n_points
    hstep = grid.spacing
    if eig.energies.min() < grid.omega_min or eig.energies.max() > grid.omega_max:
        warnings.warn(
            "chain band extends beyond the frequency grid; the dephasing "
            "convolution is truncated",
            stacklevel=2,
        )

    f = fermi_occupation(grid.omegas, beta_sys)
    edge = np.ones(n_pts)
    edge[0] = edge[-1] = 0.5

    # difference grid of the convolution and the part of it that lands on w
    m = np.arange(-(n_pts - 1), n_pts) * hstep
    on_grid = slice(n_pts - 1, 2 * n_pts - 1)
    scale = hstep / (2.0 * np.pi)

    retarded = np.zeros((n_pts, a0.shape[1]), dtype=complex)
    kel = np.zeros_like(retarded)
    for bath, sites in groups.items():
        cols = [0] if orbit else sites
        c_diff, h_diff = noise_power_transform(bath, m)
        empty = a0[:, cols] * (1.0 - f)[:, None] * edge[:, None]
        occ = a0[:, cols] * f[:, None] * edge[:, None]
        conv_e = fft_convolve(empty, c_diff[:, None])[on_grid]
        conv_o = fft_convolve(occ, c_diff[::-1, None])[on_grid]
        kel[:, cols] = -1j * scale * (conv_e - conv_o)
        retarded.imag[:, cols] = -0.5 * (scale * (conv_e + conv_o))
        shift_e = fft_convolve(empty, h_diff[:, None])[on_grid]
        shift_o = fft_convolve(occ, h_diff[::-1, None])[on_grid]
        retarded.real[:, cols] = scale / (2.0 * np.pi) * (shift_e - shift_o)

    # a0, f, edge weights and the noise power are all nonnegative, so gamma
    # is too up to the FFT's roundoff, about 1e-16 of max gamma; RATE_FLOOR
    # catches anything worse. Measured on every shipped preset and sweep
    # width: no negative entry, smallest 4.1e-6 (fig2-upper)
    return SelfEnergy(grid=grid, retarded=retarded, keldysh=kel, n_sites=h.n_sites)


def tls_embedding_self_energy(baths, grid):
    """Embedding self-energy of per-site TLS ensembles or wide bands.

    Each TLS level enters as a Lorentzian-smeared pole,
    Sigma^+_ii = sum_s g_s^2/(w - e_s + i*smearing) with the smearing twice
    the grid spacing, which is the exact resolvent of the smeared level
    density (Hilbert transform and on-shell parts in one closed form). The
    Keldysh component weights the resulting rate with the bath thermal
    factor tanh(w/2 T_B); a wide band is the flat empty-band limit
    Sigma^+ = -i*rate/2, Sigma^K = -i*rate.
    """

    baths = check_site_baths(baths, lambda b: isinstance(b, (TlsBath, WideBandBath)))
    smearing = 2.0 * grid.spacing
    w = grid.omegas
    n = len(baths)
    sr_diag = np.zeros((grid.n_points, n), dtype=complex)
    sk_diag = np.zeros((grid.n_points, n), dtype=complex)
    for i, bath in enumerate(baths):
        if bath is None:
            continue
        if isinstance(bath, WideBandBath):
            sr_diag[:, i] = -0.5j * bath.rate
            sk_diag[:, i] = -1j * bath.rate
            continue
        eps = bath.energies
        g2 = bath.couplings**2
        sr = np.sum(g2[None, :] / (w[:, None] - eps[None, :] + 1j * smearing), axis=1)
        gamma = -2.0 * sr.imag
        tf = thermal_factor(w, inverse_temperature(bath.temperature))
        sr_diag[:, i] = sr
        sk_diag[:, i] = -1j * gamma * tf
    return SelfEnergy(grid=grid, retarded=sr_diag, keldysh=sk_diag)


def _chain_couplings(h):
    """Hoppings of A = -h^T, the off-diagonal part of omega + i*eta - h^T - Sigma^+.

    Returns (sub, sup, col, row) for the open chain of sites 0..N-2 and the
    closing site N-1: sub[i] = A[i+1, i] and sup[i] = A[i, i+1] inside the open
    chain, col = A[:N-1, N-1] and row = A[N-1, :N-1]. h must be tridiagonal
    plus the two ring corners (0, N-1) and (N-1, 0), which is every chain
    build_chain makes, hopping phases allowed; anything else is refused.
    """

    n = h.n_sites
    i, j = np.nonzero(h.matrix)
    reach = np.abs(i - j)
    if np.any((reach > 1) & (reach != n - 1)):
        raise ValueError("dyson_solve needs a chain: h tridiagonal plus the two ring corners")
    a = -h.matrix.T
    m = n - 1
    return np.diagonal(a, -1)[: m - 1], np.diagonal(a, 1)[: m - 1], a[:m, m], a[m, :m]


def dyson_solve(h, beta_sys, sigma, sites=None):
    """Dressed Green functions of the chain h under a site-diagonal self-energy.

    G^+ = (omega + i*eta - h - Sigma^+)^-1, G^- its hermitian conjugate, and
    G^K = G^+ (Sigma^K - 2i*eta*F_sys) G^-: the boundary term carries the
    grid broadening at F_sys = tanh(beta_sys*omega/2), which makes the
    sigma = 0 limit the bare equilibrium propagator and keeps the
    fluctuation-dissipation identity exact at matched temperatures. Only
    the entries between `sites` (default: every site) are returned, as
    (n_points, s, s) arrays indexed by position in `sites`. h must be a
    chain, tridiagonal plus the two ring corners (hopping phases allowed);
    any other h raises ValueError before any solve. Both routes run 512
    frequencies at a time: memory is the outputs plus O(512 N (s + 1)).

    A site-uniform Sigma^+ (one stored column, or vanishing) commutes with
    h: lattice.uniform_greens solves it in the eigenbasis, in
    O(N^3 + n_points N s^2), and at sigma = 0 gives ideal_greens bit for bit.
    Any other is solved on the band (_chain_rows), in O(n_points N (s + 1)):
    the rows G^+_i. solve A y = e_i, A = omega + i*eta - h^T - Sigma^+, by
    Thomas elimination on the open chain of sites 0..N-2, and a Schur
    complement on site N-1 closes the ring. Nothing is pivoted, which is
    safe for causal self-energies: with Im Sigma^+ <= 0 and eta > 0 the
    anti-hermitian part of A and of each leading block is diagonal and
    positive definite, so no pivot or Schur complement vanishes. A zero or
    non-finite pivot, Schur complement or z - sigma - E_k (only a non-causal
    Sigma^+ makes one) raises SingularFrequencyError at its first frequency.
    """

    grid = sigma.grid
    if sigma.n_sites != h.n_sites:
        raise ValueError("site counts disagree")
    if sites is not None and not all(0 <= i < h.n_sites for i in sites):
        raise ValueError("sites must lie on the chain")
    sub, sup, col, row = _chain_couplings(h)
    sr, sk = sigma.columns
    if sr.shape[1] == 1 or not (np.any(sr) or np.any(sk)):
        return uniform_greens(h, beta_sys, grid, sites, sr[:, 0], sk[:, 0])

    sites = list(range(h.n_sites)) if sites is None else list(sites)
    w = grid.omegas
    z = w + 1j * grid.eta
    boundary = 2j * grid.eta * thermal_factor(w, beta_sys)
    gr = np.empty((grid.n_points, len(sites), len(sites)), dtype=complex)
    gk = np.empty_like(gr)
    for start in range(0, grid.n_points, _DYSON_BLOCK):
        blk = slice(start, start + _DYSON_BLOCK)
        y = _chain_rows(h, (sub, sup, col, row), z[blk], sr[blk], sites)
        bad = ~np.isfinite(y).all(axis=(0, 2))
        if np.any(bad):
            raise SingularFrequencyError(w[blk][int(np.argmax(bad))])
        rows = y.transpose(1, 2, 0)  # rows[:, a, :] is the row G^+_{sites[a], .}
        kern = sk[blk] - boundary[blk, None]
        gr[blk] = rows[:, :, sites]
        np.matmul(rows * kern[:, None, :], np.conj(y.transpose(1, 0, 2)), out=gk[blk])
    return FreqGreens(grid=grid, retarded=gr, keldysh=gk)


def _chain_rows(h, couplings, z, sigma_r, sites):
    """y[i, :, a] = G^+_{sites[a], i} on a block of frequencies z = omega +
    i*eta, with Sigma^+ diagonals sigma_r (block, N): Thomas elimination on
    the open chain, then the Schur complement on site N-1 (see dyson_solve).
    A zero or non-finite pivot or Schur complement leaves non-finite
    entries at its frequency and at no other."""

    sub, sup, col, row = couplings
    n, s, m = h.n_sites, len(sites), h.n_sites - 1
    # diag[i] = A[i, i] per frequency, sites first so each row is contiguous
    diag = np.ascontiguousarray((z[:, None] - np.diagonal(h.matrix) - sigma_r).T)
    # x[i, :, a] is G^+_{sites[a], i}; x[:m, :, s] works on B^-1 col, where B
    # is the open-chain block A[:m, :m]
    x = np.zeros((n, z.size, s + 1), dtype=complex)
    x[sites, :, np.arange(s)] = 1.0
    x[:m, :, s] = col[:, None]
    inv = np.empty((m, z.size), dtype=complex)  # inverse pivots
    # a zero pivot or Schur complement divides by zero, and a non-finite one
    # is itself inf or nan; either leaves non-finite entries in y at that
    # frequency, and frequencies never mix, so dyson_solve's one finiteness
    # check on y reports all three
    with np.errstate(all="ignore"):
        for i in range(m):
            pivot = diag[i]
            if i:
                f = sub[i - 1] * inv[i - 1]
                pivot = pivot - f * sup[i - 1]
                x[i] -= f[:, None] * x[i - 1]
            inv[i] = 1.0 / pivot
        for i in range(m - 1, -1, -1):
            if i < m - 1:
                x[i] -= sup[i] * x[i + 1]
            x[i] *= inv[i][:, None]
        # close the ring: the Schur complement of B on site N-1 (row has at
        # most two nonzeros; at N = 1 there is no open chain and A is its own
        # Schur complement, at N = 2 col and row are the single bond)
        near = np.flatnonzero(row)
        coupled = np.tensordot(row[near], x[near], axes=1)  # row . B^-1 (units, col)
        schur = diag[m] - coupled[:, s]
        x[m, :, :s] = (x[m, :, :s] - coupled[:, :s]) / schur[:, None]
        x[:m, :, :s] -= x[:m, :, s, None] * x[m, None, :, :s]
    return x[:, :, :s]


def steady_state_greens(h, baths, beta_sys, grid, sites=None):
    """Convenience pipeline: self-energy, then the direct Dyson solve.

    baths holds one bath or None per site (check_site_baths). Bath types
    pick the self-energy: ohmic baths go through the dephasing convolution,
    TLS/wide-band baths through the embedding form. Returns (greens, sigma);
    greens covers `sites` only (default: every site), see dyson_solve.
    """

    known = (OhmicBath, TlsBath, WideBandBath)
    baths = check_site_baths(baths, lambda b: isinstance(b, known), h.n_sites)
    kinds = {type(b) for b in baths if b is not None}
    if not kinds:
        zero = np.zeros((grid.n_points, 1), dtype=complex)
        sigma = SelfEnergy(grid=grid, retarded=zero, keldysh=zero, n_sites=h.n_sites)
    elif kinds <= {OhmicBath}:
        sigma = dephasing_self_energy(h, baths, beta_sys, grid)
    elif kinds <= {TlsBath, WideBandBath}:
        sigma = tls_embedding_self_energy(baths, grid)
    else:
        raise ValueError("cannot mix dephasing and embedding baths in one solve")
    return dyson_solve(h, beta_sys, sigma, sites), sigma
