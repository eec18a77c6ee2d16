"""Bath models: ohmic dephasing baths, two-level-system ensembles, wide bands.

Conventions. The coupling-weighted density J(omega) of the ohmic bath is odd
in omega, alpha*omega*exp(-|omega|/cutoff). The symmetrized power spectrum is
S(omega) = J(omega)*coth(omega/2T) with the analytic omega->0 limit 2*alpha*T
(T = 0 gives |J|). The full quantum noise power, which drives golden-rule
rates, is noise_power = (S + J)/2 = J*(n_bose + 1); it vanishes for
absorption out of a T = 0 bath.

A bath evaluates its own spectrum: OhmicBath.parts(omega) returns (S, J)
in one pass, OhmicBath.support the half-width beyond which both vanish
numerically, and noise_power, its Hilbert transform and the Redfield
generator read no more.

All frequency arguments accept scalars or arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "OhmicBath",
    "TlsBath",
    "WideBandBath",
    "check_site_baths",
    "noise_power",
    "inverse_temperature",
    "fft_convolve",
    "gauss_panels",
    "noise_power_transform",
    "principal_value_transform",
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

    @property
    def support(self):
        """Half-width beyond which the noise power is numerically zero."""

        return 45.0 * self.cutoff + 10.0 * self.temperature

    def parts(self, omega):
        """(S, J) at omega: J = alpha*omega*exp(-|omega|/cutoff) and
        S = J/tanh(omega/2T), |J| at T = 0.

        Both are worked out in place in two new arrays of omega's shape
        (omega is only read), with the operand order of the plain formulas,
        so S is even and J odd bit for bit. The omega -> 0 limit
        2*alpha*T*exp(-|omega|/cutoff) is built, in a third array, only
        where some |omega/2T| < 1e-8.
        """

        omega = np.asarray(omega, dtype=float)
        s = self._decay(omega)  # then x = omega/2T, then S
        j = np.multiply(self.alpha, omega, out=np.empty_like(omega))
        j *= s
        if self.temperature == 0:
            return np.abs(j, out=s), j
        np.multiply(0.5, omega, out=s)
        s /= self.temperature
        small = (s > -1e-8) & (s < 1e-8)  # |x| < 1e-8 without a float temporary
        near_zero = small.any()
        if near_zero:
            np.copyto(s, 1.0, where=small)
        np.tanh(s, out=s)
        np.divide(j, s, out=s)
        if near_zero:
            # J/tanh with the smooth limit J'(0)/(beta/2) = 2*alpha*T*exp(-|w|/wc)
            limit = self._decay(omega)
            limit *= 2.0 * self.alpha * self.temperature
            np.copyto(s, limit, where=small)
        return s, j

    def _decay(self, omega):
        """exp(-|omega|/cutoff) in a new array."""

        decay = np.abs(omega, out=np.empty_like(omega))
        np.negative(decay, out=decay)
        decay /= self.cutoff
        return np.exp(decay, out=decay)


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


def inverse_temperature(temperature):
    """Bath beta = 1/T, inf at T = 0."""

    return np.inf if temperature == 0 else 1.0 / temperature


def noise_power(bath, omega):
    """Full quantum noise power C(omega) = (S + J)/2 = J*(n_bose + 1), with S
    and J from one bath.parts pass; C(-omega) is bitwise (S - J)/2 of it."""

    s, j = bath.parts(omega)
    return 0.5 * (s + j)


def check_site_baths(baths, takes, n_sites=None):
    """The baths as a tuple, refused unless they are a list or tuple of
    n_sites entries (any count if None), each None or a bath that takes(bath)
    admits: a bare bath raises TypeError, a wrong count ValueError and a
    refused entry TypeError naming its type."""

    if not isinstance(baths, (list, tuple)):
        raise TypeError(f"pass a sequence of baths, one per site, not a {type(baths).__name__}")
    if n_sites is not None and len(baths) != n_sites:
        raise ValueError(f"need one bath entry per site: {len(baths)} for {n_sites} sites")
    for bath in baths:
        if bath is not None and not takes(bath):
            raise TypeError(f"unsupported bath type {type(bath).__name__}")
    return tuple(baths)


def _next_fast_len(n):
    """Smallest 5-smooth length 2^i 3^j 5^k that is at least n."""

    odds = [3**j * 5**k for j in range(n.bit_length()) for k in range(n.bit_length())
            if 3**j * 5**k < 2 * n]
    return min(odd << (-(-n // odd) - 1).bit_length() for odd in odds)


def fft_convolve(a, b):
    """Full linear convolution of a and b along axis 0, by FFT.

    a and b have the same number of dimensions; the other axes broadcast.
    The transforms run at the next 5-smooth length of the full output, real
    (rfft/irfft) for real inputs and complex (fft/ifft) otherwise, and the
    result is cut to the full length a.shape[0] + b.shape[0] - 1. On real
    inputs longer than one sample along axis 0 that is the path, and so the
    rounding, of scipy's fftconvolve(a, b, axes=0); complex inputs run at
    other lengths than scipy picks and agree with it to roundoff.
    """

    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[0] + b.shape[0] - 1
    size = _next_fast_len(n)
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        spectrum = np.fft.fft(a, size, axis=0) * np.fft.fft(b, size, axis=0)
        return np.fft.ifft(spectrum, size, axis=0)[:n]
    spectrum = np.fft.rfft(a, size, axis=0) * np.fft.rfft(b, size, axis=0)
    return np.fft.irfft(spectrum, size, axis=0)[:n]


def gauss_panels(edges, order):
    """Composite Gauss-Legendre rule with `order` nodes on every panel.

    edges (..., p + 1) are panel ends, ascending along the last axis.
    Returns nodes and weights of shape (..., p * order): each row integrates
    f as sum(weights * f(nodes), axis=-1). A zero-width panel weighs nothing.
    """

    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])[..., None]
    half = 0.5 * np.diff(edges, axis=-1)[..., None]
    shape = edges.shape[:-1] + (-1,)
    return (mid + half * x).reshape(shape), (half * w).reshape(shape)


def principal_value_transform(values, omegas):
    """P integral of values(nu)/(omega - nu) d nu for omega on the same grid.

    Uniform-grid quadrature of the curvature-regularized integrand: off the
    pole (f(nu) - f(omega))/(omega - nu) with trapezoid weights, the pole
    cell contributing -f'(omega), plus the analytic f(omega)*log term for
    the constant part. The two endpoints use a half-cell-extended interval
    to keep the log finite; values in the outer few percent of the grid are
    less reliable, as is anything this close to the integration boundary.

    The off-pole sum is a Toeplitz product in the grid index: with
    trapezoid weights w and k_m = 1/m (k_0 = 0) it equals
    (w f) * k - f (w * k), and both discrete convolutions run as one FFT
    convolution.
    """

    f = np.asarray(values)
    omegas = np.asarray(omegas, dtype=float)
    n = omegas.size
    if omegas.ndim != 1 or f.shape != omegas.shape:
        raise ValueError("values must have the shape (n,) of the n omegas")
    if n < 3:
        raise ValueError("need at least 3 grid points")
    h = omegas[1] - omegas[0]
    lo = omegas - omegas[0]
    hi = omegas[-1] - omegas
    lo[0] = hi[-1] = 0.5 * h
    log_term = np.log(lo / hi)

    weights = np.ones(n)
    weights[0] = weights[-1] = 0.5
    m = np.arange(-(n - 1), n, dtype=float)
    kernel = np.divide(1.0, m, out=np.zeros_like(m), where=m != 0)
    conv = fft_convolve(np.column_stack([weights * f, weights]), kernel[:, None])
    conv = conv[n - 1 : 2 * n - 1]
    pole = -h * weights * np.gradient(f, h)
    return conv[:, 0] - f * conv[:, 1] + pole + f * log_term


def noise_power_transform(bath, m):
    """Noise power C and its Hilbert transform H(u) = P int C(nu)/(u - nu) d nu
    on a uniform grid m symmetric about 0. H is the grid's own sum of
    (C(nu) - C(u))/(u - nu), principal_value_transform less its log term;
    plus C(u) log((L + u)/(L - u)), the subtracted constant over [-L, L] with
    L = bath.support (at least one cell past the grid); plus that regular
    integrand past either end of the grid out to L on 10-node Gauss-Legendre
    panels, the first one cell wide and flush with the end, each later one
    from a to 4a, summed 512 rows of m at a time."""

    h = m[1] - m[0]
    c = noise_power(bath, m)
    lo = m - m[0]
    hi = m[-1] - m
    lo[0] = hi[-1] = 0.5 * h
    big = max(bath.support, m[-1] + h)
    out = principal_value_transform(c, m) - c * np.log(lo / hi)
    out += c * np.log((big + m) / (big - m))
    edges = [m[-1], m[-1] + h]
    while edges[-1] < big:
        edges.append(min(4.0 * edges[-1], big))
    nu, w = gauss_panels(edges, 10)
    nu, w = np.concatenate([-nu[::-1], nu]), np.concatenate([w[::-1], w])
    c_nu = noise_power(bath, nu)
    for start in range(0, m.size, 512):
        blk = slice(start, start + 512)
        out[blk] += ((c_nu - c[blk, None]) / (m[blk, None] - nu)) @ w
    return c, out


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
