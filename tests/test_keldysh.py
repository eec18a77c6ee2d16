"""Frequency-domain dressing: self-energies, Dyson solve, dressed identities."""

import numpy as np
import pytest

from noisychain.baths import OhmicBath, TlsBath, WideBandBath
from noisychain.errors import SingularFrequencyError
from noisychain.harness import find_spectral_peaks
from noisychain.keldysh import (
    RateFunction,
    SelfEnergy,
    dephasing_rate_function,
    dephasing_self_energy,
    dyson_solve,
    extract_rates,
    spectral_weight,
    steady_state_greens,
    tls_embedding_self_energy,
)
from noisychain.lattice import FreqGrid, build_chain, ideal_greens, thermal_factor


def _const_self_energy(grid, n, value):
    diag = np.full((grid.n_points, n), value, dtype=complex)
    return SelfEnergy(grid=grid, retarded=diag, keldysh=-1j * (-2.0 * diag.imag))


def test_extract_rates_sign_convention():
    grid = FreqGrid(-1.0, 1.0, 21)
    sigma = _const_self_energy(grid, 1, 0.3 - 0.05j)
    rates = extract_rates(sigma)
    assert np.allclose(rates.shift, 0.3)
    assert np.allclose(rates.gamma, 0.1)


def test_negative_rate_rejected():
    grid = FreqGrid(-1.0, 1.0, 21)
    gamma = np.full((21, 1), -1e-3)
    with pytest.raises(ValueError, match="negative rate"):
        RateFunction(grid=grid, gamma=gamma, shift=np.zeros_like(gamma))
    # quadrature-noise excursions above the floor pass
    RateFunction(grid=grid, gamma=np.full((21, 1), -1e-11), shift=np.zeros((21, 1)))


def test_rate_function_roundtrip():
    grid = FreqGrid(-2.0, 2.0, 41)
    gamma = 0.2 + 0.1 * np.cos(grid.omegas)[:, None]
    shift = 0.05 * grid.omegas[:, None]
    rates = RateFunction(grid=grid, gamma=gamma, shift=shift)
    back = extract_rates(rates.to_self_energy())
    assert np.allclose(back.gamma, gamma, atol=1e-14)
    assert np.allclose(back.shift, shift, atol=1e-14)
    # default Keldysh part carries the empty-band thermal factor 1
    sk = rates.to_self_energy().keldysh
    assert np.allclose(sk, -1j * gamma, atol=1e-14)
    tf = thermal_factor(grid.omegas, 2.0)
    sk_t = rates.to_self_energy(thermal=tf).keldysh
    assert np.allclose(sk_t, -1j * gamma * tf[:, None], atol=1e-14)


def test_self_energy_rejects_off_diagonal():
    # only per-site diagonals (n_points, n_sites) can be stored: a full
    # matrix carrying an off-diagonal, a wrong grid length or mismatched
    # components are refused by shape
    grid = FreqGrid(-1.0, 1.0, 11)
    sigma = _const_self_energy(grid, 2, -0.05j)
    full = np.zeros((11, 2, 2), dtype=complex)
    full[:, 0, 1] = 0.1
    with pytest.raises(ValueError, match="site diagonals"):
        SelfEnergy(grid=grid, retarded=full, keldysh=np.zeros_like(full))
    with pytest.raises(ValueError, match="n_points"):
        SelfEnergy(grid=grid, retarded=sigma.retarded[:5], keldysh=sigma.keldysh[:5])
    with pytest.raises(ValueError, match="disagree"):
        SelfEnergy(grid=grid, retarded=sigma.retarded, keldysh=sigma.keldysh[:, :1])


def test_dyson_zero_self_energy_is_identity():
    h = build_chain(3, 1.0, 0.5)
    grid = FreqGrid(-1.0, 3.0, 201)
    g0 = ideal_greens(h, 1.5, grid)
    sigma = _const_self_energy(grid, 3, 0.0)
    g = dyson_solve(h, 1.5, sigma)
    assert np.array_equal(g.retarded, g0.retarded)
    assert np.array_equal(g.keldysh, g0.keldysh)


def test_dyson_residual():
    # (w + i*eta - H - Sigma) G+ = 1 on every grid point
    h = build_chain(4, 0.5, 1.0)
    grid = FreqGrid(-2.0, 3.0, 501)
    sigma = _const_self_energy(grid, 4, 0.1 - 0.15j)
    g = dyson_solve(h, 2.0, sigma)
    w = grid.omegas
    eye = np.eye(4)
    lhs = (w[:, None, None] + 1j * grid.eta) * eye - h.matrix - sigma.retarded[:, :, None] * eye
    residual = np.max(np.abs(lhs @ g.retarded - eye))
    assert residual < 1e-8


def test_dyson_matches_textbook_route():
    # direct solve against (1 - G0 Sigma)^-1 G0 and the full Keldysh Dyson
    # equation G^K = (1 + G^+ S^+) G0^K (1 + S^- G^-) + G^+ S^K G^-, built
    # from the bare propagators, for a self-energy that varies by site
    n = 4
    h = build_chain(n, 0.5, 1.0, boundary="open")
    beta = 2.0
    grid = FreqGrid(-2.0, 3.0, 501)
    w = grid.omegas[:, None]
    site = np.arange(n)[None, :]
    gamma = 0.1 + 0.05 * site + 0.03 * np.cos(w + site)
    sr = 0.02 * site * w - 0.5j * gamma
    sk = -1j * gamma * np.tanh(0.3 * w + 0.1 * site)
    g = dyson_solve(h, beta, SelfEnergy(grid=grid, retarded=sr, keldysh=sk))

    g0 = ideal_greens(h, beta, grid)
    eye = np.eye(n)
    sr_m = sr[:, :, None] * eye
    gr = np.linalg.solve(eye - g0.retarded @ sr_m, g0.retarded)
    ga = np.conj(np.swapaxes(gr, 1, 2))
    gk = (eye + gr @ sr_m) @ g0.keldysh @ (eye + np.conj(sr_m) @ ga)
    gk += gr @ (sk[:, :, None] * eye) @ ga
    for mine, ref in ((g.retarded, gr), (g.keldysh, gk)):
        assert np.max(np.abs(mine - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_singular_frequency_reported():
    # self-energy tuned to cancel the free inverse propagator at one point
    h = build_chain(1, 0.0, 0.0, boundary="open")
    grid = FreqGrid(-1.0, 1.0, 41)
    k = 10
    diag = np.zeros((grid.n_points, 1), dtype=complex)
    diag[k, 0] = grid.omegas[k] + 1j * grid.eta
    sigma = SelfEnergy(grid=grid, retarded=diag, keldysh=np.zeros_like(diag))
    with pytest.raises(SingularFrequencyError) as err:
        dyson_solve(h, 1.0, sigma)
    assert err.value.omega == pytest.approx(grid.omegas[k])


def test_wideband_line_shape():
    # flat decay channel: Lorentzian at the level, FWHM = rate + 2*eta
    rate = 0.3
    h = build_chain(1, 1.0, 0.0, boundary="open")
    grid = FreqGrid(-1.0, 3.0, 2001, eta=0.01)
    g, _ = steady_state_greens(h, [WideBandBath(rate)], 1.0, grid)
    a = spectral_weight(g)[:, 0, 0].real
    peaks = find_spectral_peaks(grid.omegas, a)
    assert len(peaks) == 1
    assert peaks[0].position == pytest.approx(1.0, abs=grid.spacing)
    assert peaks[0].fwhm == pytest.approx(rate + 2.0 * grid.eta, rel=0.02)


def test_dressed_fluctuation_dissipation():
    # matched temperatures: G^K = (G+ - G-) tanh(beta w / 2) exactly
    h = build_chain(3, 2.0, 1.0)
    beta = 0.2
    bath = OhmicBath(alpha=0.01, cutoff=20.0, temperature=5.0)
    grid = FreqGrid(-1.0, 5.0, 1201)
    g, _ = steady_state_greens(h, [bath] * 3, beta, grid)
    expected = (g.retarded - g.advanced) * thermal_factor(grid.omegas, beta)[:, None, None]
    rel = np.max(np.abs(g.keldysh - expected)) / np.max(np.abs(g.keldysh))
    assert rel < 1e-12


def test_dressed_spectral_sum_rule():
    h = build_chain(3, 2.0, 1.0)
    bath = OhmicBath(alpha=0.01, cutoff=20.0, temperature=5.0)
    grid = FreqGrid(-1.0, 5.0, 1201)
    g, _ = steady_state_greens(h, [bath] * 3, 0.2, grid)
    a = spectral_weight(g)
    for i in range(3):
        norm = np.trapezoid(a[:, i, i].real, grid.omegas) / (2.0 * np.pi)
        assert norm == pytest.approx(1.0, abs=0.02)


def test_closed_form_rates_match_convolution():
    # eigenbasis closed form vs grid convolution, away from window edges
    h = build_chain(3, 2.0, 1.0)
    bath = OhmicBath(alpha=0.01, cutoff=20.0, temperature=5.0)
    grid = FreqGrid(-1.0, 5.0, 1201)
    conv = extract_rates(dephasing_self_energy(h, [bath] * 3, 0.2, grid))
    closed = dephasing_rate_function(h, [bath] * 3, 0.2, grid)
    sl = slice(60, 1141)
    scale = np.max(closed.gamma[sl])
    rel = np.max(np.abs(conv.gamma[sl] - closed.gamma[sl])) / scale
    assert rel < 0.01


def test_dephasing_groups_match_single_site_calls():
    # sites with equal baths are computed together; every column must match
    # a call that puts that site's bath on that site alone (equal cutoffs,
    # so both calls share one tail grid)
    h = build_chain(4, 2.0, 1.0, boundary="open")
    b1 = OhmicBath(alpha=0.01, cutoff=20.0, temperature=5.0)
    b2 = OhmicBath(alpha=0.03, cutoff=20.0, temperature=2.0)
    baths = [b1, b2, None, b1]
    grid = FreqGrid(-1.0, 5.0, 601)
    sigma = dephasing_self_energy(h, baths, 0.2, grid)
    for i, bath in enumerate(baths):
        alone = dephasing_self_energy(h, [bath if k == i else None for k in range(4)], 0.2, grid)
        for mine, ref in ((sigma.retarded, alone.retarded), (sigma.keldysh, alone.keldysh)):
            assert np.max(np.abs(mine[:, i] - ref[:, i])) <= 1e-12 * np.max(np.abs(ref[:, i]))
    assert not np.any(sigma.retarded[:, 2]) and not np.any(sigma.keldysh[:, 2])


def test_tls_embedding_single_pole():
    grid = FreqGrid(0.0, 2.0, 401)
    bath = TlsBath(levels=((1.0, 0.3),))
    sigma = tls_embedding_self_energy([bath], grid, smearing=0.05)
    expected = 0.09 / (grid.omegas - 1.0 + 0.05j)
    assert np.max(np.abs(sigma.retarded[:, 0] - expected)) < 1e-14


def test_tls_embedding_rejects_bare_bath():
    grid = FreqGrid(0.0, 2.0, 101)
    with pytest.raises(TypeError, match="sequence"):
        tls_embedding_self_energy(TlsBath(levels=((1.0, 0.3),)), grid)


def test_steady_state_rejects_mixed_bath_kinds():
    h = build_chain(2, 1.0, 0.5)
    grid = FreqGrid(-1.0, 3.0, 201)
    baths = [OhmicBath(alpha=0.1, cutoff=5.0, temperature=1.0), WideBandBath(0.2)]
    with pytest.raises(ValueError, match="mix"):
        steady_state_greens(h, baths, 1.0, grid)
