"""Bath models: ohmic dephasing baths, two-level-system ensembles, wide bands.

Conventions. The coupling-weighted density J(omega) of the ohmic bath is odd
in omega, alpha*omega*exp(-|omega|/cutoff). The symmetrized power spectrum is
S(omega) = J(omega)*coth(omega/2T) with the analytic omega->0 limit 2*alpha*T
(T = 0 gives |J|). The full quantum noise power, which drives golden-rule
rates, is noise_power = (S + J)/2 = J*(n_bose + 1); it vanishes for
absorption out of a T = 0 bath.

All frequency arguments accept scalars or arrays.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OhmicBath",
    "TlsBath",
    "WideBandBath",
    "FlatNoise",
    "spectral_function",
    "power_spectral_density",
    "noise_power",
    "support_halfwidth",
    "principal_value_transform",
    "boson_correlators",
    "tls_spectral_density",
    "sample_tls_bath",
]


@dataclass(frozen=True)
class OhmicBath:
    """Ohmic bath with exponential cutoff at inverse temperature 1/T."""

    alpha: float
    cutoff: float
    temperature: float

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if not self.cutoff > 0:
            raise ValueError("cutoff must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be nonnegative")


@dataclass(frozen=True)
class TlsBath:
    """Finite collection of two-level systems, levels as (energy, coupling).

    Level energies must be positive and the bath temperature is capped at a
    tenth of the lowest level so the levels stay essentially unoccupied;
    the memory kernels in the time-domain solver rely on that regime.
    """

    levels: tuple
    temperature: float = 0.0

    def __post_init__(self):
        levels = tuple((float(e), float(g)) for e, g in self.levels)
        object.__setattr__(self, "levels", levels)
        if self.temperature < 0:
            raise ValueError("temperature must be nonnegative")
        if not levels:
            return  # empty bath: couples to nothing, any temperature
        emin = min(e for e, _ in levels)
        if emin <= 0:
            raise ValueError("level energies must be positive")
        if self.temperature > emin / 10.0 + 1e-15:
            raise ValueError(
                f"temperature {self.temperature:.3g} exceeds a tenth of the "
                f"lowest level energy {emin:.3g}"
            )

    @property
    def energies(self):
        return np.array([e for e, _ in self.levels], dtype=float)

    @property
    def couplings(self):
        return np.array([g for _, g in self.levels], dtype=float)


@dataclass(frozen=True)
class WideBandBath:
    """Structureless wide-band decay channel with constant rate."""

    rate: float

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("rate must be nonnegative")


@dataclass(frozen=True)
class FlatNoise:
    """Constant noise power over [-halfwidth, halfwidth]; zero outside.

    White-noise stub: symmetric, so the antisymmetric part J vanishes and
    detailed balance is that of an infinite-temperature bath. Used to pin
    the flat-spectrum limit of the Redfield generator against the dephasing
    Lindblad generator.
    """

    level: float
    halfwidth: float

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if not self.halfwidth > 0:
            raise ValueError("halfwidth must be positive")


def _beta(temperature):
    return np.inf if temperature == 0 else 1.0 / temperature


def spectral_function(bath, omega):
    """Antisymmetric coupling density J(omega)."""

    omega = np.asarray(omega, dtype=float)
    if isinstance(bath, OhmicBath):
        return bath.alpha * omega * np.exp(-np.abs(omega) / bath.cutoff)
    if isinstance(bath, FlatNoise):
        return np.zeros_like(omega)
    raise TypeError(f"no spectral function for {type(bath).__name__}")


def power_spectral_density(bath, omega):
    """Symmetrized power spectrum S(omega) = J*coth(omega/2T), even in omega.

    The omega -> 0 limit is taken analytically (2*alpha*T for the ohmic
    form); T = 0 collapses to |J|.
    """

    omega = np.asarray(omega, dtype=float)
    if isinstance(bath, FlatNoise):
        return np.where(np.abs(omega) <= bath.halfwidth, 2.0 * bath.level, 0.0)
    if not isinstance(bath, OhmicBath):
        raise TypeError(f"no power spectrum for {type(bath).__name__}")
    j = spectral_function(bath, omega)
    if bath.temperature == 0:
        return np.abs(j)
    x = 0.5 * omega / bath.temperature
    small = np.abs(x) < 1e-8
    xs = np.where(small, 1.0, x)
    ratio = np.where(small, 1.0, np.tanh(xs))
    # J/tanh with the smooth limit J'(0)/(beta/2) = 2*alpha*T*exp(-|w|/wc)
    limit = 2.0 * bath.alpha * bath.temperature * np.exp(
        -np.abs(omega) / bath.cutoff
    )
    return np.where(small, limit, j / ratio)


def noise_power(bath, omega):
    """Full quantum noise power C(omega) = (S + J)/2 = J*(n_bose + 1)."""

    omega = np.asarray(omega, dtype=float)
    if isinstance(bath, FlatNoise):
        return np.where(np.abs(omega) <= bath.halfwidth, bath.level, 0.0)
    return 0.5 * (power_spectral_density(bath, omega) + spectral_function(bath, omega))


def support_halfwidth(bath):
    """Half-width beyond which the bath's noise power is numerically zero."""

    if isinstance(bath, OhmicBath):
        return 45.0 * bath.cutoff + 10.0 * bath.temperature
    if isinstance(bath, FlatNoise):
        return bath.halfwidth
    raise TypeError(f"no support estimate for {type(bath).__name__}")


def principal_value_transform(values, omegas):
    """P integral of values(nu)/(omega - nu) d nu for omega on the same grid.

    Uniform-grid quadrature of the curvature-regularized integrand: off the
    pole (f(nu) - f(omega))/(omega - nu) with trapezoid weights, the pole
    cell contributing -f'(omega), plus the analytic f(omega)*log term for
    the constant part. The two endpoints use a half-cell-extended interval
    to keep the log finite; values in the outer few percent of the grid are
    less reliable, as is anything this close to the integration boundary.
    """

    f = np.asarray(values)
    omegas = np.asarray(omegas, dtype=float)
    n = omegas.size
    if f.shape != omegas.shape:
        raise ValueError("values and omegas must have the same shape")
    if n < 3:
        raise ValueError("need at least 3 grid points")
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


def boson_correlators(bath, grid):
    """Equilibrium boson correlators of an ohmic bath on a frequency grid.

    Returns 1x1 FreqGreens: retarded with Im = -J/2 and Re from the on-grid
    principal-value transform (advanced its conjugate), Keldysh -i*S. Warns
    when the grid stops short of ~5 cutoffs on either side, where the
    truncated transform starts to distort the real part.
    """

    from .lattice import FreqGreens

    if not isinstance(bath, OhmicBath):
        raise TypeError("boson_correlators expects an OhmicBath")
    w = grid.omegas
    if grid.omega_max < 5.0 * bath.cutoff or grid.omega_min > -5.0 * bath.cutoff:
        warnings.warn(
            "frequency grid spans less than 5 cutoffs; the Hilbert-transform "
            "real part will be truncated",
            stacklevel=2,
        )
    j = spectral_function(bath, w)
    s = power_spectral_density(bath, w)
    re_dr = principal_value_transform(j, w) / (2.0 * np.pi)
    dr = (re_dr - 0.5j * j)[:, None, None]
    dk = (-1j * s)[:, None, None].astype(complex)
    return FreqGreens(grid=grid, retarded=dr, keldysh=dk)


def tls_spectral_density(bath, omega, smearing):
    """Lorentzian-smeared coupling density of a two-level-system bath.

    Each level contributes 2*pi*g^2 times a unit-mass Lorentzian of
    half-width `smearing`, so a single level peaks at 2*g^2/smearing and the
    integral over d omega/(2 pi) recovers sum g^2.
    """

    if not isinstance(bath, TlsBath):
        raise TypeError("tls_spectral_density expects a TlsBath")
    if not smearing > 0:
        raise ValueError("smearing must be positive")
    omega = np.asarray(omega, dtype=float)
    eps = bath.energies
    g2 = bath.couplings**2
    lor = smearing / ((omega[..., None] - eps) ** 2 + smearing**2)
    return 2.0 * np.sum(g2 * lor, axis=-1)


def sample_tls_bath(target_rate, n_tls, band, seed, temperature=0.0):
    """Draw a deterministic TLS ensemble mimicking a flat band.

    Level energies are uniform over band = (lo, hi); couplings are equal,
    g^2 = target_rate*(hi - lo)/(2 pi n), so the band-averaged smeared
    density reproduces target_rate (up to edge leakage of order
    smearing/bandwidth). The (lo == hi) degenerate band collapses every
    level onto one energy with g^2 = target_rate/(2 pi n), keeping the
    integrated weight of the nominal unit band.
    """

    lo, hi = band
    if lo <= 0 or hi < lo:
        raise ValueError("band must satisfy 0 < lo <= hi")
    if n_tls < 1:
        raise ValueError("n_tls must be positive")
    if target_rate < 0:
        raise ValueError("target_rate must be nonnegative")
    rng = np.random.default_rng(seed)
    if hi > lo:
        energies = np.sort(rng.uniform(lo, hi, n_tls))
        g2 = target_rate * (hi - lo) / (2.0 * np.pi * n_tls)
    else:
        energies = np.full(n_tls, lo)
        g2 = target_rate / (2.0 * np.pi * n_tls)
    g = np.sqrt(g2)
    return TlsBath(
        levels=tuple((float(e), float(g)) for e in energies),
        temperature=temperature,
    )
