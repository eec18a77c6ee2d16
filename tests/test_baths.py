"""Bath spectral functions, correlators, and the two-level-system sampler."""

import warnings

import numpy as np
import pytest
from scipy.signal import fftconvolve
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisychain import baths
from noisychain.baths import (
    OhmicBath,
    TlsBath,
    _grid_pv,
    _next_fast_len,
    fft_convolve,
    noise_power,
    sample_tls_bath,
)
from noisychain.lattice import FreqGrid
from bath_oracle import FlatNoise, boson_correlators, plain_parts, tls_spectral_density
from quadrature_oracle import principal_value_direct


def test_ohmic_coupling_density_value():
    bath = OhmicBath(alpha=0.1, cutoff=5.0, temperature=1.0)
    # alpha * omega * exp(-omega/cutoff) at omega = 1
    assert bath.parts(1.0)[1] == pytest.approx(0.08187307530779818, rel=1e-12)


def test_ohmic_coupling_density_is_odd():
    bath = OhmicBath(alpha=0.3, cutoff=2.0, temperature=0.5)
    w = np.linspace(-10.0, 10.0, 101)
    assert np.allclose(bath.parts(w)[1], -bath.parts(-w)[1])


def test_ohmic_power_spectrum_zero_frequency_limit():
    # S(0) = 2 * alpha * T, taken analytically rather than via coth overflow
    bath = OhmicBath(alpha=0.0125, cutoff=3.0, temperature=40.0)
    assert bath.parts(0.0)[0] == pytest.approx(1.0, rel=1e-12)
    assert bath.parts(1e-9)[0] == pytest.approx(1.0, rel=1e-6)


def test_ohmic_zero_temperature():
    bath = OhmicBath(alpha=0.2, cutoff=4.0, temperature=0.0)
    w = np.linspace(-8.0, 8.0, 41)
    s, j = bath.parts(w)
    assert np.allclose(s, np.abs(j))
    # absorption from an empty bath is forbidden at T = 0
    assert noise_power(bath, -1.0) == pytest.approx(0.0, abs=1e-15)


def test_detailed_balance():
    bath = OhmicBath(alpha=0.15, cutoff=5.0, temperature=2.0)
    beta = 0.5
    for w in (0.3, 1.0, 2.7):
        ratio = noise_power(bath, w) / noise_power(bath, -w)
        assert ratio == pytest.approx(np.exp(beta * w), rel=1e-10)


def test_flat_noise_levels():
    bath = FlatNoise(level=0.6, halfwidth=3.0)
    assert bath.parts(0.0)[0] == pytest.approx(1.2)
    assert noise_power(bath, 1.0) == pytest.approx(0.6)
    assert noise_power(bath, 10.0) == pytest.approx(0.0)


def test_bath_parameter_validation():
    with pytest.raises(ValueError):
        OhmicBath(alpha=-0.1, cutoff=1.0, temperature=1.0)
    with pytest.raises(ValueError):
        OhmicBath(alpha=0.1, cutoff=0.0, temperature=1.0)
    with pytest.raises(ValueError):
        OhmicBath(alpha=0.1, cutoff=1.0, temperature=-1.0)


def test_principal_value_fft_matches_direct_sum():
    # the grid's principal-value sum by FFT against the term-by-term sum
    # less its log term, on every grid point including both endpoints;
    # profiles: an off-center line, a wide odd ohmic shape, a profile that
    # is not small at either edge, and fig3's noise power (gamma2 = 0.4) on
    # the 14401-point difference grid that the self-energy convolves with.
    # Measured 2.8e-15, 3.4e-15, 3.0e-15 and 4.8e-13 of max|sum|; the last
    # is roundoff in removing, from the oracle, a log term 570 times the sum
    grid = np.linspace(0.2, 3.8, 2001)
    bath = OhmicBath(alpha=0.4 / 300.0, cutoff=800.0, temperature=300.0)
    diff = np.arange(-7200, 7201) * (3.6 / 7200)
    cases = [
        (grid, np.exp(-((grid - 1.1) / 0.2) ** 2)),
        (grid, grid * np.exp(-np.abs(grid) / 0.8)),
        (grid, 0.5 + np.sin(2.0 * grid)),
        (diff, noise_power(bath, diff)),
    ]
    for omegas, f in cases:
        h = omegas[1] - omegas[0]
        lo = omegas - omegas[0]
        hi = omegas[-1] - omegas
        lo[0] = hi[-1] = 0.5 * h
        ref = principal_value_direct(f, omegas) - f * np.log(lo / hi)
        mine = _grid_pv(f, h)
        assert mine.shape == f.shape
        assert np.max(np.abs(mine - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_fft_convolve_is_bitwise_fftconvolve():
    # the same transform lengths and calls as scipy's fftconvolve, so the
    # same bits: single profiles and (n, k) blocks against an (m, 1) kernel
    # at the sweep's 3601- and 7201-point sizes. The transforms are real, so
    # complex input is refused rather than losing its imaginary part
    rng = np.random.default_rng(5)
    cases = [
        (rng.normal(size=301), rng.normal(size=601)),
        (rng.normal(size=(3601, 40)), rng.normal(size=(7201, 1))),
        (rng.normal(size=(7201, 3)), rng.normal(size=(14401, 1))),
    ]
    for a, b in cases:
        mine = fft_convolve(a, b)
        ref = fftconvolve(a, b, axes=0)
        assert mine.shape[0] == a.shape[0] + b.shape[0] - 1
        assert mine.dtype == float
        assert np.array_equal(mine, ref)
    a, b = cases[0]
    for pair in ((a * (1 - 2j), b), (a, b * 1j)):
        with pytest.raises(TypeError):
            fft_convolve(*pair)


def test_next_fast_len_is_the_smallest_5_smooth_length():
    # against a brute-force search that strips the factors 2, 3 and 5
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for n in range(1, 2001):
        assert _next_fast_len(n) == next(m for m in range(n, 2 * n + 1) if smooth(m))


def test_tls_spectral_density_peak_and_weight():
    omegas = np.linspace(0.0, 4.0, 8001)
    bath = TlsBath(levels=((2.0, 0.3),))
    dens = tls_spectral_density(bath, omegas, smearing=0.02)
    i = int(np.argmin(np.abs(omegas - 2.0)))
    assert dens[i] == pytest.approx(2.0 * 0.3**2 / 0.02, rel=1e-6)
    weight = np.trapezoid(dens, omegas) / (2.0 * np.pi)
    assert weight == pytest.approx(0.3**2, rel=0.01)


def test_tls_sampler_is_deterministic():
    a = sample_tls_bath(0.3, 40, (1.0, 3.0), seed=7)
    b = sample_tls_bath(0.3, 40, (1.0, 3.0), seed=7)
    assert a.levels == b.levels
    c = sample_tls_bath(0.3, 40, (1.0, 3.0), seed=8)
    assert a.levels != c.levels


def test_tls_sampler_reproduces_target_rate():
    target = 0.3
    band = (1.0, 3.0)
    bath = sample_tls_bath(target, 40, band, seed=7)
    # total weight is exact by construction
    total = sum(g * g for _, g in bath.levels)
    assert total == pytest.approx(target * (band[1] - band[0]) / (2.0 * np.pi), rel=1e-12)
    # smeared density averages to the flat target inside the band
    w = np.linspace(1.2, 2.8, 401)
    dens = tls_spectral_density(bath, w, smearing=0.05)
    assert np.mean(dens) == pytest.approx(target, rel=0.10)


def test_tls_sampler_band_validation():
    with pytest.raises(ValueError):
        sample_tls_bath(0.3, 10, (0.0, 2.0), seed=1)
    with pytest.raises(ValueError):
        sample_tls_bath(0.3, 10, (3.0, 1.0), seed=1)
    with pytest.raises(ValueError):
        sample_tls_bath(-0.1, 10, (1.0, 2.0), seed=1)


def test_tls_bath_temperature_cap():
    # sampled levels only stay empty while k_B T is well below the band floor
    with pytest.raises(ValueError, match="temperature"):
        TlsBath(levels=((1.0, 0.1),), temperature=0.5)
    TlsBath(levels=((1.0, 0.1),), temperature=0.05)  # at the cap, fine


def test_boson_correlators_structure():
    bath = OhmicBath(alpha=0.05, cutoff=2.0, temperature=1.0)
    half = bath.support
    grid = FreqGrid(-half, half, 4001)
    corr = boson_correlators(bath, grid)
    w = grid.omegas
    sr = corr.retarded[:, 0, 0]
    # Im Sigma+ = -J/2, Keldysh = -i S
    assert np.allclose(sr.imag, -0.5 * bath.parts(w)[1], atol=1e-12)
    assert np.allclose(corr.keldysh[:, 0, 0],
                       -1j * bath.parts(w)[0], atol=1e-12)
    # odd Im part makes the dispersive Re part even in omega
    assert np.allclose(sr.real, sr.real[::-1], atol=1e-10)


def test_boson_correlators_narrow_grid_warns():
    bath = OhmicBath(alpha=0.05, cutoff=2.0, temperature=1.0)
    grid = FreqGrid(-4.0, 4.0, 201)  # 2 cutoffs per side, too narrow
    with pytest.warns(UserWarning):
        boson_correlators(bath, grid)


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(min_value=1e-3, max_value=1.0),
    cutoff=st.floats(min_value=0.1, max_value=20.0),
    temperature=st.floats(min_value=0.0, max_value=50.0),
    w=st.floats(min_value=-30.0, max_value=30.0),
)
@example(alpha=0.1, cutoff=2.0, temperature=0.0, w=0.7)
@example(alpha=0.1, cutoff=2.0, temperature=3.0, w=1e-9)  # |w/2T| < 1e-8
@example(alpha=0.1, cutoff=2.0, temperature=3.0, w=0.0)
def test_noise_power_nonnegative_and_symmetries(alpha, cutoff, temperature, w):
    # bitwise: the occupied terms of the dephasing self-energy read C(x - w)
    # and H(x - w) as c_diff[::-1] and H[::-1], the samples on the negated
    # difference grid; c_diff[::-1] is (S - J)/2 of the sample at w - x bit
    # for bit only through these identities, and H[::-1] is the transform of
    # that reflected profile
    bath = OhmicBath(alpha=alpha, cutoff=cutoff, temperature=temperature)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # coth overflow near w = 0 is benign
        s, j = bath.parts(w)
        s_neg, j_neg = bath.parts(-w)
        assert noise_power(bath, w) >= 0.0
        assert s_neg == s
        assert j_neg == -j
        assert noise_power(bath, -w) == 0.5 * (s - j)
        assert noise_power(bath, w) == 0.5 * (s + j)


def test_scalar_frequencies_match_the_array_path():
    # Python floats in, 0-d results out, bitwise the array path's entries;
    # 0.0 and 1e-9 take the small-|w/2T| limit
    for bath in (OhmicBath(alpha=0.2, cutoff=4.0, temperature=0.0),
                 OhmicBath(alpha=0.0125, cutoff=3.0, temperature=40.0)):
        for fn in (noise_power, lambda b, w: b.parts(w)[0], lambda b, w: b.parts(w)[1]):
            for w in (-1.0, 0.0, 1e-9, 2.5):
                value = fn(bath, w)
                assert np.shape(value) == ()
                assert float(value) == fn(bath, np.array([w, 1.0]))[0]


def test_parts_match_the_plain_formulas_bit_for_bit(monkeypatch):
    # parts works in place; the bits are those of the plain formulas on a
    # 64-row block of every frequency the fig3 bath transform samples (the
    # difference grid and the panel nodes out to the support), on Python
    # floats and 0-d arrays, at T = 0 and on both sides of |w/2T| = 1e-8
    # (|w| = 8e-7 at T = 40), and the frequencies passed in stay as they were
    grid = FreqGrid(0.2, 3.8, 3601)
    hot = OhmicBath(alpha=0.05 / 300.0, cutoff=800.0, temperature=300.0)
    cold = OhmicBath(alpha=0.2, cutoff=4.0, temperature=0.0)
    warm = OhmicBath(alpha=0.0125, cutoff=3.0, temperature=40.0)
    sampled = []
    monkeypatch.setattr(baths, "noise_power",
                        lambda bath, omega: sampled.append(omega) or noise_power(bath, omega))
    baths.noise_power_transform(hot, np.arange(-3600, 3601) * grid.spacing)
    monkeypatch.undo()
    values = np.concatenate(sampled)
    block = values[: values.size // 64 * 64].reshape(64, -1)
    assert values.size > 7201 and block.shape[1] >= 7201 // 64
    assert 0.9 * hot.support < np.max(values) < hot.support
    near_zero = np.array([[-9e-7, -8e-7, -7.9e-7, -1e-9, 0.0],
                          [1e-9, 7.9e-7, 8e-7, 9e-7, 2.5]])
    cases = [(hot, block), (cold, block), (warm, near_zero), (cold, near_zero)]
    cases += [(bath, w) for bath in (hot, cold, warm)
              for w in (-1.0, 0.0, 1e-9, 2.5, np.array(0.0), np.array(-0.7))]
    for bath, omega in cases:
        before = np.array(omega, copy=True)
        ref = plain_parts(bath, before)
        mine = bath.parts(omega)
        for a, b in zip(mine, ref):
            assert np.shape(a) == np.shape(b) == np.shape(omega)
            assert np.array_equal(a, b)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert np.array_equal(omega, before)
