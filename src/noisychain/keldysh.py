"""Steady-state Keldysh solver on the frequency grid.

Each site couples to its own bath, so every self-energy here is
site-diagonal and is stored as its diagonal only: retarded and Keldysh
components of shape (n_points, n_sites), with the textbook sign layout
retarded = shift - i*gamma/2 (gamma >= 0) and an imaginary Keldysh part.
Advanced components are never stored; they are hermitian conjugates of the
retarded ones. The dressed Green functions come from a direct Dyson solve,
G^+ = (omega + i*eta - h - Sigma^+)^-1, whose Keldysh component carries an
explicit 2*eta boundary term at the system temperature so the bare limit is
recovered exactly when the self-energy vanishes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .baths import (
    OhmicBath,
    TlsBath,
    WideBandBath,
    noise_power,
    principal_value_transform,
    spectral_function,
    power_spectral_density,
)
from .errors import SingularFrequencyError
from .lattice import (
    FreqGreens,
    FreqGrid,
    diagonalize,
    fermi_occupation,
    ideal_greens,
    thermal_factor,
)

__all__ = [
    "SelfEnergy",
    "RateFunction",
    "extract_rates",
    "dephasing_self_energy",
    "dephasing_rate_function",
    "tls_embedding_self_energy",
    "dyson_solve",
    "spectral_weight",
    "steady_state_greens",
]

RATE_FLOOR = -1e-10


@dataclass
class SelfEnergy:
    """Site-diagonal self-energy sampled on a FreqGrid.

    retarded and keldysh are the per-site diagonals, complex arrays of shape
    (n_points, n_sites); off-diagonal entries cannot be represented.
    """

    grid: FreqGrid
    retarded: np.ndarray
    keldysh: np.ndarray

    def __post_init__(self):
        self.retarded = np.asarray(self.retarded, dtype=complex)
        self.keldysh = np.asarray(self.keldysh, dtype=complex)
        shape = self.retarded.shape
        if len(shape) != 2:
            raise ValueError("expected site diagonals of shape (n_points, n_sites)")
        if shape[0] != self.grid.n_points:
            raise ValueError("array length does not match grid.n_points")
        if self.keldysh.shape != shape:
            raise ValueError("component shapes disagree")

    @property
    def n_sites(self):
        return self.retarded.shape[1]


@dataclass
class RateFunction:
    """Frequency-resolved decay rate and level shift per site.

    gamma and shift are real arrays of shape (n_points, n_sites); gamma must
    stay above -1e-10 (tiny negative excursions are quadrature noise, more
    negative values indicate a sign-convention error upstream).
    """

    grid: FreqGrid
    gamma: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=float)
        self.shift = np.asarray(self.shift, dtype=float)
        if self.gamma.ndim != 2 or self.gamma.shape[0] != self.grid.n_points:
            raise ValueError("gamma must have shape (n_points, n_sites)")
        if self.shift.shape != self.gamma.shape:
            raise ValueError("gamma and shift shapes disagree")
        if np.min(self.gamma) < RATE_FLOOR:
            raise ValueError(
                f"negative rate {np.min(self.gamma):.3e} below the {RATE_FLOOR} floor"
            )

    @property
    def n_sites(self):
        return self.gamma.shape[1]

    def to_self_energy(self, thermal=None):
        """Rebuild the site-diagonal self-energy, shift - i*gamma/2.

        thermal, if given, is the bath thermal factor on the grid (array of
        shape (n_points,) or scalar) entering the Keldysh component
        -i*gamma*thermal; the default is the empty-band value 1.
        """

        sr_diag = self.shift - 0.5j * self.gamma
        if thermal is None:
            sk_diag = -1j * self.gamma
        else:
            thermal = np.asarray(thermal, dtype=float)
            sk_diag = -1j * self.gamma * (
                thermal[:, None] if thermal.ndim == 1 else thermal
            )
        return SelfEnergy(grid=self.grid, retarded=sr_diag, keldysh=sk_diag)


def extract_rates(sigma):
    """Decay rate and shift from a retarded self-energy.

    gamma = -2 Im Sigma^+ (positive for decay), shift = Re Sigma^+.
    """

    sr = sigma.retarded
    return RateFunction(grid=sigma.grid, gamma=-2.0 * sr.imag, shift=sr.real.copy())


def _site_spectral_diag(h, grid):
    """Site-diagonal free spectral function, sum of eta Lorentzians (w, n)."""

    eig = diagonalize(h)
    w = grid.omegas
    eta = grid.eta
    lor = 2.0 * eta / ((w[:, None] - eig.energies[None, :]) ** 2 + eta**2)
    weights = np.abs(eig.transform) ** 2  # (site, k)
    return lor @ weights.T, eig


def _tail_points(grid, baths):
    """Geometric tail grids flanking the main window, with trapezoid weights.

    The tails reach 12 cutoffs of the widest bath plus one window width
    beyond each edge. Spacing starts at the main grid spacing and grows by
    15% per cell so the 1/(omega - nu) kernel stays resolved near the
    junction while the far background is covered in O(100) points per side.
    """

    max_cut = max((b.cutoff for b in baths if b is not None), default=1.0)
    pad = 12.0 * max_cut + (grid.omega_max - grid.omega_min)
    h0 = grid.spacing
    steps = [h0]
    total = h0
    while total < pad:
        steps.append(min(steps[-1] * 1.15, pad / 4.0))
        total += steps[-1]
    offsets = np.cumsum(steps)
    right = grid.omega_max + offsets
    left = grid.omega_min - offsets[::-1]
    points = np.concatenate([left, right])
    wts = np.empty_like(points)
    n_side = offsets.size
    side = np.empty(n_side)
    # trapezoid weights for an open-ended side grid
    side[0] = 0.5 * (steps[0] + steps[1]) if n_side > 1 else steps[0]
    for i in range(1, n_side - 1):
        side[i] = 0.5 * (steps[i] + steps[i + 1])
    if n_side > 1:
        side[-1] = 0.5 * steps[-1]
    wts[n_side:] = side
    wts[:n_side] = side[::-1]
    return points, wts


def _shift_from_gamma(grid, gamma_main, tail_nu, tail_wts, gamma_tail):
    """Kramers-Kronig shift of rate profiles, tails included.

    Delta(omega) = (1/2pi) P int Gamma(nu)/(omega - nu) d nu, split into the
    on-grid principal-value transform plus the pole-free tail quadrature.
    Profiles are the columns of gamma_main (n_points, n) and gamma_tail
    (n_tail, n). Truncating to the output window instead would bias peak
    positions by a spurious log background whenever the rate profile is
    wider than the window, which it always is for ohmic baths.
    """

    main = np.stack(
        [principal_value_transform(col, grid.omegas) for col in gamma_main.T], axis=1
    )
    if tail_nu.size:
        kernel = 1.0 / (grid.omegas[:, None] - tail_nu[None, :])
        main = main + kernel @ (tail_wts[:, None] * gamma_tail)
    return main / (2.0 * np.pi)


def _bath_list(baths, n_sites, allowed, what):
    if baths is None or isinstance(baths, allowed):
        baths = [baths] * n_sites
    baths = list(baths)
    if len(baths) != n_sites:
        raise ValueError(f"need one {what} entry per site (or a single bath)")
    for b in baths:
        if b is not None and not isinstance(b, allowed):
            raise TypeError(f"unsupported bath type {type(b).__name__} for {what}")
    return baths


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
    convolved with the bath noise power on the uniform grid (plain
    trapezoid-weighted discrete convolution, no FFT),

        gamma_i(w) = (1/2pi) int dx A_i(x) [ (1-f(x)) C(w-x) + f(x) C(x-w) ]

    and the Keldysh part is the same combination with a relative minus sign
    (times -i). The level shift is the Kramers-Kronig transform of gamma
    with geometric tail grids so the wide ohmic background is not truncated
    at the output window. Sites with equal baths are computed together on
    (n_points, n_group) arrays, so the bath noise power is sampled once per
    distinct bath. Returns the diagonals as a SelfEnergy.
    """

    baths = _bath_list(baths, h.n_sites, OhmicBath, "dephasing")
    a0, eig = _site_spectral_diag(h, grid)
    w = grid.omegas
    n_pts = grid.n_points
    hstep = grid.spacing
    if eig.energies.min() < grid.omega_min or eig.energies.max() > grid.omega_max:
        warnings.warn(
            "chain band extends beyond the frequency grid; the dephasing "
            "convolution is truncated",
            stacklevel=2,
        )

    f = fermi_occupation(w, beta_sys)
    edge = np.ones(n_pts)
    edge[0] = edge[-1] = 0.5
    tail_nu, tail_wts = _tail_points(grid, baths)

    # difference grid of the convolution and the part of it that lands on w
    m = np.arange(-(n_pts - 1), n_pts) * hstep
    on_grid = slice(n_pts - 1, 2 * n_pts - 1)
    scale = hstep / (2.0 * np.pi)

    gamma = np.zeros((n_pts, h.n_sites))
    sk_diag = np.zeros((n_pts, h.n_sites), dtype=complex)
    shift = np.zeros((n_pts, h.n_sites))
    for bath, sites in _bath_groups(baths).items():
        c_diff = noise_power(bath, m)
        empty = a0[:, sites] * (1.0 - f)[:, None] * edge[:, None]
        occ = a0[:, sites] * f[:, None] * edge[:, None]
        conv_e = np.stack([np.convolve(col, c_diff)[on_grid] for col in empty.T], axis=1)
        conv_o = np.stack([np.convolve(col, c_diff[::-1])[on_grid] for col in occ.T], axis=1)
        g_main = scale * (conv_e + conv_o)
        # same convolution integral evaluated at the tail frequencies
        g_tail = np.empty((tail_nu.size, len(sites)))
        for start in range(0, tail_nu.size, 64):
            stop = min(start + 64, tail_nu.size)
            nu = tail_nu[start:stop, None]
            g_tail[start:stop] = scale * (
                (noise_power(bath, nu - w[None, :]) @ empty)
                + (noise_power(bath, w[None, :] - nu) @ occ)
            )
        gamma[:, sites] = g_main
        sk_diag[:, sites] = -1j * scale * (conv_e - conv_o)
        shift[:, sites] = _shift_from_gamma(grid, g_main, tail_nu, tail_wts, g_tail)

    # a0, f, edge weights and the noise power are all nonnegative, so the
    # discrete convolution cannot go negative even at roundoff level
    return SelfEnergy(grid=grid, retarded=shift - 0.5j * gamma, keldysh=sk_diag)


def dephasing_rate_function(h, baths, beta_sys, grid):
    """Closed-form eigenbasis dephasing rates, no grid convolution.

    gamma_i(w) = (1/2) sum_k |U_ik|^2 [ S(w - e_k) + F(e_k) J(w - e_k) ]
    with F the system thermal factor; the shift is the same Kramers-Kronig
    machinery as the convolution route. Agrees with dephasing_self_energy
    up to the eta smearing of the free spectral function.
    """

    baths = _bath_list(baths, h.n_sites, OhmicBath, "dephasing")
    eig = diagonalize(h)
    w = grid.omegas
    weights = np.abs(eig.transform) ** 2  # (site, k)
    f_k = thermal_factor(eig.energies, beta_sys)
    tail_nu, tail_wts = _tail_points(grid, baths)

    def closed_form(bath, sites, nu_grid):
        diff = nu_grid[:, None] - eig.energies[None, :]
        s = power_spectral_density(bath, diff)
        j = spectral_function(bath, diff)
        return 0.5 * ((s + j * f_k[None, :]) @ weights[sites].T)

    gamma = np.zeros((grid.n_points, h.n_sites))
    shift = np.zeros_like(gamma)
    for bath, sites in _bath_groups(baths).items():
        g_main = closed_form(bath, sites, w)
        g_tail = closed_form(bath, sites, tail_nu)
        gamma[:, sites] = g_main
        shift[:, sites] = _shift_from_gamma(grid, g_main, tail_nu, tail_wts, g_tail)
    return RateFunction(grid=grid, gamma=gamma, shift=shift)


def tls_embedding_self_energy(baths, grid, smearing=None):
    """Embedding self-energy of per-site TLS ensembles or wide bands.

    Each TLS level enters as a Lorentzian-smeared pole,
    Sigma^+_ii = sum_s g_s^2/(w - e_s + i*smearing), which is the exact
    resolvent of the smeared level density (Hilbert transform and on-shell
    parts in one closed form). The Keldysh component weights the resulting
    rate with the bath thermal factor tanh(w/2 T_B); a wide band is the
    flat empty-band limit Sigma^+ = -i*rate/2, Sigma^K = -i*rate.
    """

    if isinstance(baths, (TlsBath, WideBandBath)):
        raise TypeError("pass a sequence of baths, one entry per site")
    baths = _bath_list(baths, len(list(baths)), (TlsBath, WideBandBath), "embedding")
    if smearing is None:
        smearing = 2.0 * grid.spacing
    if not smearing > 0:
        raise ValueError("smearing must be positive")
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
        tf = thermal_factor(w, np.inf if bath.temperature == 0 else 1.0 / bath.temperature)
        sr_diag[:, i] = sr
        sk_diag[:, i] = -1j * gamma * tf
    return SelfEnergy(grid=grid, retarded=sr_diag, keldysh=sk_diag)


def dyson_solve(h, beta_sys, sigma):
    """Dressed Green functions of the chain h under a site-diagonal self-energy.

    Retarded: G^+ = (omega + i*eta - h - Sigma^+)^-1, solved directly on
    every grid point; the advanced component is its hermitian conjugate.
    Keldysh: G^K = G^+ (Sigma^K - 2i*eta*F_sys) G^-, where the boundary term
    carries the grid broadening at the system thermal factor
    F_sys = tanh(beta_sys*omega/2); it is what makes the sigma = 0 limit the
    bare equilibrium propagator and keeps the fluctuation-dissipation
    identity exact at matched temperatures. A vanishing self-energy returns
    ideal_greens(h, beta_sys, grid) itself.
    """

    grid = sigma.grid
    if sigma.n_sites != h.n_sites:
        raise ValueError("site counts disagree")
    if not (np.any(sigma.retarded) or np.any(sigma.keldysh)):
        return ideal_greens(h, beta_sys, grid)

    w = grid.omegas
    lhs = (w + 1j * grid.eta)[:, None, None] * np.eye(h.n_sites) - h.matrix
    np.einsum("wii->wi", lhs)[...] -= sigma.retarded
    try:
        gr = np.linalg.inv(lhs)
    except np.linalg.LinAlgError:
        for k in range(grid.n_points):
            try:
                np.linalg.inv(lhs[k])
            except np.linalg.LinAlgError:
                raise SingularFrequencyError(w[k]) from None
        raise
    bad = ~np.isfinite(gr).all(axis=(1, 2))
    if np.any(bad):
        raise SingularFrequencyError(w[int(np.argmax(bad))])
    kern = sigma.keldysh - (2j * grid.eta * thermal_factor(w, beta_sys))[:, None]
    gk = (gr * kern[:, None, :]) @ np.conj(np.swapaxes(gr, 1, 2))
    return FreqGreens(grid=grid, retarded=gr, keldysh=gk)


def spectral_weight(g):
    """Hermitian spectral function i(G^+ - G^-), shape (n_points, n, n)."""

    return 1j * (g.retarded - g.advanced)


def steady_state_greens(h, baths, beta_sys, grid, smearing=None):
    """Convenience pipeline: self-energy, then the direct Dyson solve.

    Bath types pick the self-energy: ohmic baths go through the dephasing
    convolution, TLS/wide-band baths through the embedding form. Returns
    (greens, sigma).
    """

    if isinstance(baths, (OhmicBath, TlsBath, WideBandBath)) or baths is None:
        baths = [baths] * h.n_sites
    baths = list(baths)
    kinds = {type(b) for b in baths if b is not None}
    if not kinds:
        zeros = np.zeros((grid.n_points, h.n_sites), dtype=complex)
        sigma = SelfEnergy(grid=grid, retarded=zeros, keldysh=zeros)
    elif kinds <= {OhmicBath}:
        sigma = dephasing_self_energy(h, baths, beta_sys, grid)
    elif kinds <= {TlsBath, WideBandBath}:
        sigma = tls_embedding_self_energy(baths, grid, smearing=smearing)
    else:
        raise ValueError("cannot mix dephasing and embedding baths in one solve")
    return dyson_solve(h, beta_sys, sigma), sigma
