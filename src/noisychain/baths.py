"""Bath models: ohmic dephasing baths, two-level-system ensembles, wide bands.

Conventions. The coupling-weighted density J(omega) of the ohmic bath is odd
in omega, alpha*omega*exp(-|omega|/cutoff). The symmetrized power spectrum is
S(omega) = J(omega)*coth(omega/2T) with the analytic omega->0 limit 2*alpha*T
(T = 0 gives |J|). The full quantum noise power, which drives golden-rule
rates, is noise_power = (S + J)/2 = J*(n_bose + 1); it vanishes for
absorption out of a T = 0 bath.

A bath evaluates its own spectrum: OhmicBath.parts(omega) returns (S, J)
in one pass and OhmicBath.support the half-width beyond which both vanish
numerically; no caller reads more of a bath. The Hilbert transform H of
the noise power is computed here only: noise_power_transform on the Keldysh
self-energy's difference grid, and half_transform, Bloch-Redfield's
C/2 - (i/2pi) H (Breuer & Petruccione 2002, section 3.3), at register gaps.

All frequency arguments accept scalars or arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import FREQ_BLOCK

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
    "half_transform",
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
    """Full linear convolution of real arrays a and b along axis 0, by FFT.

    a and b have the same number of dimensions; the other axes broadcast.
    The real transforms (rfft/irfft) run at the next 5-smooth length of the
    full output, and the result is cut to the full length
    a.shape[0] + b.shape[0] - 1. On inputs longer than one sample along
    axis 0 that is the path, and so the rounding, of scipy's
    fftconvolve(a, b, axes=0). Complex input raises TypeError in rfft.
    """

    n = a.shape[0] + b.shape[0] - 1
    size = _next_fast_len(n)
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


def _grid_pv(f, h):
    """Trapezoid sum of (f(nu) - f(omega))/(omega - nu) over the uniform grid,
    spacing h, that the real samples f lie on, at every grid point; the pole
    cell adds -h w f'(omega). With trapezoid weights w and k_m = 1/m
    (k_0 = 0) the sum is the Toeplitz product (w f) * k - f (w * k), both
    convolutions one FFT convolution."""

    n = f.size
    weights = np.ones(n)
    weights[0] = weights[-1] = 0.5
    m = np.arange(-(n - 1), n, dtype=float)
    kernel = np.divide(1.0, m, out=np.zeros_like(m), where=m != 0)
    conv = fft_convolve(np.column_stack([weights * f, weights]), kernel[:, None])
    conv = conv[n - 1 : 2 * n - 1]
    return conv[:, 0] - f * conv[:, 1] - h * weights * np.gradient(f, h)


def noise_power_transform(bath, m):
    """Noise power C and its Hilbert transform H(u) = P int C(nu)/(u - nu) d nu
    on a uniform grid m symmetric about 0. H is the grid's own sum of
    (C(nu) - C(u))/(u - nu), _grid_pv; plus C(u) log((L + u)/(L - u)), the
    subtracted constant over [-L, L] with L = bath.support (at least one
    cell past the grid); plus that regular integrand past either end of the
    grid out to L on 10-node Gauss-Legendre panels, the first one cell wide
    and flush with the end, each later one from a to 4a, summed FREQ_BLOCK
    rows of m at a time. Its panel sum is not half_transform's: these nodes never
    land on a grid point, while a gap's own row can hold the gap."""

    h = m[1] - m[0]
    c = noise_power(bath, m)
    big = max(bath.support, m[-1] + h)
    out = _grid_pv(c, h)
    out += c * np.log((big + m) / (big - m))
    edges = [m[-1], m[-1] + h]
    while edges[-1] < big:
        edges.append(min(4.0 * edges[-1], big))
    nu, w = gauss_panels(edges, 10)
    nu, w = np.concatenate([-nu[::-1], nu]), np.concatenate([w[::-1], w])
    c_nu = noise_power(bath, nu)
    for start in range(0, m.size, FREQ_BLOCK):
        blk = slice(start, start + FREQ_BLOCK)
        out[blk] += ((c_nu - c[blk, None]) / (m[blk, None] - nu)) @ w
    return c, out


def half_transform(bath, gaps):
    """C(gap)/2 - (i/2pi) P int C(nu)/(gap - nu) d nu at every gap, rounded to 1e-12.

    The principal value is the regular integral of (C(nu) - C(gap))/(gap - nu)
    plus the analytic log term of the subtracted constant. The regular part
    runs on 16-node Gauss-Legendre panels split at the gap and at nu = 0,
    the kink of e^(-|nu|/cutoff), and halved 40 times toward it from the
    support's edges: that grades the rule onto the Bose factor's poles at
    2 pi i T k at any temperature.
    """

    half = bath.support
    keys, where = np.unique(np.round(gaps.ravel(), 12), return_inverse=True)
    grade = half * 0.5 ** np.arange(40)
    edges = np.tile(np.concatenate([-grade, [0.0], grade[::-1]]), (keys.size, 1))
    nu, w = gauss_panels(np.sort(np.column_stack([edges, np.clip(keys, -half, half)])), 16)
    c = noise_power(bath, np.column_stack([keys, nu]))  # C(gap), then C on the nodes
    d = keys[:, None] - nu
    regular = np.divide(c[:, 1:] - c[:, :1], d, out=np.zeros_like(nu), where=d != 0)
    pv = np.sum(w * regular, axis=1) + c[:, 0] * np.log(np.abs((keys + half) / (half - keys)))
    return (0.5 * c[:, 0] - 1j * pv / (2.0 * np.pi))[where].reshape(gaps.shape)


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
