"""Bath correlators, closed-form dephasing rates and a white-noise bath that
only tests need.

plain_parts is OhmicBath.parts by its plain formulas, one new array per
operation; parts works the same operations out in place. boson_correlators
and tls_spectral_density are the frequency-domain views of an ohmic bath
and of a sampled two-level-system ensemble; the pipeline works
from bath.parts and the level list directly. dephasing_rate_function is the
eigenbasis closed form of the dephasing rates that
noisychain.keldysh.dephasing_self_energy reaches by grid convolution.
FlatNoise is white noise over a finite band; it evaluates its own spectrum
as a shipped bath does, so it plugs into noise_power and the Redfield
generator unchanged.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from noisychain.baths import OhmicBath, TlsBath
from noisychain.keldysh import RateFunction, _bath_groups
from noisychain.lattice import FreqGreens, thermal_factor
from quadrature_oracle import principal_value_direct


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

    @property
    def support(self):
        return self.halfwidth

    def parts(self, omega):
        """(S, J) = (2 level inside the band, 0 outside; 0 everywhere)."""

        omega = np.asarray(omega, dtype=float)
        s = np.where(np.abs(omega) <= self.halfwidth, 2.0 * self.level, 0.0)
        return s, np.zeros_like(omega)


def plain_parts(bath, omega):
    """(S, J) of an OhmicBath: J = alpha*omega*exp(-|omega|/cutoff) and
    S = J/tanh(omega/2T), |J| at T = 0, with the limit
    2*alpha*T*exp(-|omega|/cutoff) where |omega/2T| < 1e-8."""

    omega = np.asarray(omega, dtype=float)
    decay = np.exp(-np.abs(omega) / bath.cutoff)
    j = bath.alpha * omega * decay
    if bath.temperature == 0:
        return np.abs(j), j
    x = 0.5 * omega / bath.temperature
    small = np.abs(x) < 1e-8
    limit = 2.0 * bath.alpha * bath.temperature * decay
    return np.where(small, limit, j / np.tanh(np.where(small, 1.0, x))), j


def boson_correlators(bath, grid):
    """Equilibrium boson correlators of an ohmic bath on a frequency grid.

    Returns 1x1 FreqGreens: retarded with Im = -J/2 and Re from the on-grid
    principal-value transform (advanced its conjugate), Keldysh -i*S. Warns
    when the grid stops short of ~5 cutoffs on either side, where the
    truncated transform starts to distort the real part.
    """

    if not isinstance(bath, OhmicBath):
        raise TypeError("boson_correlators expects an OhmicBath")
    w = grid.omegas
    if grid.omega_max < 5.0 * bath.cutoff or grid.omega_min > -5.0 * bath.cutoff:
        warnings.warn(
            "frequency grid spans less than 5 cutoffs; the Hilbert-transform "
            "real part will be truncated",
            stacklevel=2,
        )
    s, j = bath.parts(w)
    re_dr = principal_value_direct(j, w) / (2.0 * np.pi)
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



def dephasing_rate_function(h, baths, beta_sys, grid):
    """Closed-form eigenbasis dephasing rates, no grid convolution.

    gamma_i(w) = (1/2) sum_k |U_ik|^2 [ S(w - e_k) + F(e_k) J(w - e_k) ]
    with F the system thermal factor; the shift is left at zero. Agrees with
    dephasing_self_energy up to the eta smearing of the free spectral
    function.
    """

    eig = h.eig
    weights = np.abs(eig.transform) ** 2  # (site, k)
    f_k = thermal_factor(eig.energies, beta_sys)
    gamma = np.zeros((grid.n_points, h.n_sites))
    for bath, sites in _bath_groups(baths).items():
        s, j = bath.parts(grid.omegas[:, None] - eig.energies[None, :])
        gamma[:, sites] = 0.5 * ((s + j * f_k[None, :]) @ weights[sites].T)
    return RateFunction(grid=grid, gamma=gamma, shift=np.zeros_like(gamma))
