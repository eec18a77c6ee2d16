"""Frequency-domain dressing: self-energies, Dyson solve, dressed identities."""

import tracemalloc
import warnings

import numpy as np
import pytest

from noisychain import harness, keldysh, lattice, qme
from noisychain.baths import OhmicBath, TlsBath, WideBandBath, half_transform, noise_power_transform
from noisychain.errors import SingularFrequencyError
from noisychain.harness import _Plan, config_from_dict, find_spectral_peaks
from noisychain.kbe import MemorySelfEnergy, equal_time_occupations
from noisychain.keldysh import (
    RateFunction,
    SelfEnergy,
    dephasing_self_energy,
    dyson_solve,
    extract_rates,
    steady_state_greens,
    tls_embedding_self_energy,
)
from noisychain.lattice import (
    FreqGrid,
    HoppingHamiltonian,
    build_chain,
    thermal_factor,
)
from noisychain.presets import preset_config
from bath_oracle import FlatNoise, dephasing_rate_function
from dyson_oracle import eigenbasis_greens, ideal_greens, lu_dyson_solve, ring_site_greens
from quadrature_oracle import (
    born_sigma_direct,
    dephasing_convolutions_direct,
    dephasing_site_by_site,
)


def _const_self_energy(grid, n, value):
    diag = np.full((grid.n_points, n), value, dtype=complex)
    return SelfEnergy(grid=grid, retarded=diag, keldysh=-1j * (-2.0 * diag.imag))


def _rates_to_self_energy(rates, thermal=None):
    """Rebuild the site-diagonal self-energy shift - i*gamma/2 of a
    RateFunction; thermal, if given, is the bath thermal factor on the grid
    entering the Keldysh component -i*gamma*thermal (default: the empty-band
    value 1)."""

    sk_diag = -1j * rates.gamma
    if thermal is not None:
        sk_diag = sk_diag * np.asarray(thermal, dtype=float)[:, None]
    return SelfEnergy(grid=rates.grid, retarded=rates.shift - 0.5j * rates.gamma,
                      keldysh=sk_diag)


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
    back = extract_rates(_rates_to_self_energy(rates))
    assert np.allclose(back.gamma, gamma, atol=1e-14)
    assert np.allclose(back.shift, shift, atol=1e-14)
    # default Keldysh part carries the empty-band thermal factor 1
    sk = _rates_to_self_energy(rates).keldysh
    assert np.allclose(sk, -1j * gamma, atol=1e-14)
    tf = thermal_factor(grid.omegas, 2.0)
    sk_t = _rates_to_self_energy(rates, thermal=tf).keldysh
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
    # between a subset of sites: the bare propagators of those sites, which
    # are the matching entries of the full ones
    sites = [2, 0]
    g = dyson_solve(h, 1.5, sigma, sites)
    g0s = ideal_greens(h, 1.5, grid, sites)
    assert np.array_equal(g.retarded, g0s.retarded)
    assert np.array_equal(g.keldysh, g0s.keldysh)
    for mine, full in ((g.retarded, g0.retarded), (g.keldysh, g0.keldysh)):
        ref = full[:, sites][:, :, sites]
        assert np.max(np.abs(mine - ref)) <= 1e-12 * np.max(np.abs(ref))


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
    assert residual < 5e-15  # measured 6.3e-16


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


def test_pairs_only_dyson_matches_full_inverse():
    # the rows of G^+ for a few sites against the full inverse, with a
    # complex-hermitian h that is not symmetric (one hopping carries a
    # phase), a self-energy that varies by site and sites out of order
    n = 5
    m = build_chain(n, 0.5, 1.0).matrix.astype(complex)
    m[1, 2] *= np.exp(0.7j)
    m[2, 1] = np.conj(m[1, 2])
    h = HoppingHamiltonian(n, m)
    beta = 2.0
    grid = FreqGrid(-2.0, 3.0, 1201)
    w = grid.omegas[:, None]
    site = np.arange(n)[None, :]
    gamma = 0.1 + 0.05 * site + 0.03 * np.cos(w + site)
    sr = 0.02 * site * w - 0.5j * gamma
    sk = -1j * gamma * np.tanh(0.3 * w + 0.1 * site)
    sigma = SelfEnergy(grid=grid, retarded=sr, keldysh=sk)

    eye = np.eye(n)
    gr = np.linalg.inv((grid.omegas[:, None, None] + 1j * grid.eta) * eye - m - sr[:, :, None] * eye)
    kern = sk - 2j * grid.eta * thermal_factor(grid.omegas, beta)[:, None]
    gk = (gr * kern[:, None, :]) @ np.conj(np.swapaxes(gr, 1, 2))
    for sites in ([3, 0, 2], [4], None):
        g = dyson_solve(h, beta, sigma, sites)
        idx = list(range(n)) if sites is None else sites
        for mine, full in ((g.retarded, gr), (g.keldysh, gk)):
            ref = full[:, idx][:, :, idx]
            assert mine.shape == ref.shape
            assert np.max(np.abs(mine - ref)) <= 1e-12 * np.max(np.abs(ref))
    for sites in ([-1], [0, n]):
        with pytest.raises(ValueError, match="on the chain"):
            dyson_solve(h, beta, sigma, sites)


def test_one_site_solve_stays_small():
    # one site of a 40-site ring on the 7201-point sweep grid: a single
    # (n_points, 40, 40) complex array alone would take 187 MB. Measured
    # peak 62.9 MB, set by the self-energy; the Dyson solve adds 33 MB
    h = build_chain(40, 2.0, 1.0)
    grid = FreqGrid(0.2, 3.8, 7201)
    bath = OhmicBath(alpha=0.1 / 300.0, cutoff=800.0, temperature=300.0)
    tracemalloc.start()
    try:
        g, _ = steady_state_greens(h, [bath] * 40, 1.0 / 300.0, grid, sites=[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.retarded.shape == g.keldysh.shape == (grid.n_points, 1, 1)
    assert peak < 75e6


def test_singular_frequency_reported():
    # self-energy tuned to cancel the free inverse propagator at one point
    h = build_chain(1, 0.0, 0.0, boundary="open")
    grid = FreqGrid(-1.0, 1.0, 41)
    k = 10
    diag = np.zeros((grid.n_points, 1), dtype=complex)
    diag[k, 0] = grid.omegas[k] + 1j * grid.eta
    sigma = SelfEnergy(grid=grid, retarded=diag, keldysh=np.zeros_like(diag))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularFrequencyError) as err:
            dyson_solve(h, 1.0, sigma)
    assert err.value.omega == pytest.approx(grid.omegas[k])


def test_singular_frequency_reported_on_ring():
    # a 3-site ring (eps_k = 1, -1/2, -1/2) under a uniform Sigma^+ = z - eps
    # at one grid point, where z - h - Sigma^+ = eps - h is singular. The grid
    # and eps are dyadic, so every step is exact: at eps = 1 the open chain
    # of sites 0, 1 is regular and the Schur complement on site 2 is exactly
    # 0; at eps = -1/2 the open chain's second pivot is 0. No numpy warning
    # may escape either way
    h = build_chain(3, 0.0, 1.0)
    grid = FreqGrid(-1.0, 1.0, 33)
    k = 12
    z = grid.omegas[k] + 1j * grid.eta
    for eps in (1.0, -0.5):
        diag = np.full((grid.n_points, 3), -0.1j)
        diag[k] = z - eps
        sigma = SelfEnergy(grid=grid, retarded=diag, keldysh=-2j * diag.imag)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularFrequencyError) as err:
                dyson_solve(h, 1.0, sigma)
        assert err.value.omega == grid.omegas[k]


def test_ring_matches_closed_form_oracle():
    # site-uniform Sigma^+ on a ring: G^+_00 = (1/N) sum_k (z - eps_k - Sigma^+)^-1.
    # Sigma^+ is the fig3 dephasing self-energy of site 0 of the 40-site ring
    # at each width, on its 7201-point grid, put on every site. Measured
    # worst 8.6e-15 (N = 3, gamma2 = 0.05). Partial-pivoting LU was off by
    # 9.9e-9 at N = 80, gamma2 = 0.4, by 1.6e-6 at N = 160, gamma2 = 0.2, and
    # overflowed at N = 160, gamma2 = 0.4
    grid = FreqGrid(0.2, 3.8, 7201)
    beta = 1.0 / 300.0
    h40 = build_chain(40, 2.0, 1.0)
    for g2 in (0.05, 0.1, 0.2, 0.4):
        bath = OhmicBath(alpha=g2 / 300.0, cutoff=800.0, temperature=300.0)
        sr = dephasing_self_energy(h40, [bath] * 40, beta, grid).retarded[:, 0]
        ref_k = -2j * sr.imag  # any Keldysh part: only G^+ is checked
        for n in (3, 40, 80, 160):
            sigma = SelfEnergy(grid=grid, retarded=np.repeat(sr[:, None], n, axis=1),
                               keldysh=np.repeat(ref_k[:, None], n, axis=1))
            g = dyson_solve(build_chain(n, 2.0, 1.0), beta, sigma, sites=[0])
            ref = ring_site_greens(n, 2.0, 1.0, sr, grid)
            assert np.max(np.abs(g.retarded[:, 0, 0] - ref)) <= 1e-13 * np.max(np.abs(ref))


def _uniform_pair(grid, sr, sk, n):
    """A site-uniform self-energy stored as one column, and the same one
    stored per site, which dyson_solve takes on its band route."""

    one = SelfEnergy(grid=grid, retarded=sr[:, None], keldysh=sk[:, None], n_sites=n)
    per_site = SelfEnergy(grid=grid, retarded=np.repeat(sr[:, None], n, axis=1),
                          keldysh=np.repeat(sk[:, None], n, axis=1))
    assert one.retarded.shape == per_site.retarded.shape == (grid.n_points, n)
    assert one.columns[0].shape == (grid.n_points, 1)
    return one, per_site


def test_eigenbasis_route_matches_band_route():
    # one stored column is solved in the chain's eigenbasis, the same
    # self-energy stored per site by Thomas elimination and the ring's Schur
    # complement: on rings of 2 to 160 sites under a frequency-dependent
    # sigma, and on open chains under a uniform wide-band sigma (a uniform
    # sigma commutes with any h), both components at 1e-13 of their max.
    # Measured worst over every ring from 2 to 160 sites: 1.6e-14 (G^+) and
    # 2.0e-14 (G^K) at N = 160; 7.5e-15 on open chains
    beta = 2.0
    grid = FreqGrid(-2.0, 3.0, 1201)
    w = grid.omegas
    gamma = 0.1 + 0.03 * np.cos(w)
    cases = [(build_chain(n, 0.5, 1.0), 0.02 * w - 0.5j * gamma, -1j * gamma * np.tanh(0.3 * w))
             for n in (2, 3, 4, 7, 40, 80, 160)]
    rate = np.full(grid.n_points, 0.2)
    cases += [(build_chain(n, 0.5, 1.0, boundary="open"), -0.5j * rate, -1j * rate)
              for n in (2, 7, 40)]
    for h, sr, sk in cases:
        n = h.n_sites
        one, per_site = _uniform_pair(grid, sr, sk, n)
        for sites in ([0], [n - 1, 0, n // 2], None if n <= 7 else [1]):
            g = dyson_solve(h, beta, one, sites)
            ref = dyson_solve(h, beta, per_site, sites)
            for mine, full in ((g.retarded, ref.retarded), (g.keldysh, ref.keldysh)):
                assert mine.shape == full.shape
                assert np.max(np.abs(mine - full)) <= 1e-13 * np.max(np.abs(full))


def test_singular_frequency_reported_on_one_column():
    # a 2-site ring (eps_k = +-1, exact) under one stored column that is
    # z - eps at one grid point, where z - eps_k - sigma is exactly 0 for one
    # eigenvalue; the grid is dyadic. No numpy warning may escape
    h = build_chain(2, 0.0, 1.0)
    assert np.array_equal(np.linalg.eigvalsh(h.matrix), [-1.0, 1.0])
    grid = FreqGrid(-1.0, 1.0, 33)
    k = 12
    for eps in (1.0, -1.0):
        col = np.full((grid.n_points, 1), -0.1j)
        col[k] = grid.omegas[k] + 1j * grid.eta - eps
        sigma = SelfEnergy(grid=grid, retarded=col, keldysh=-2j * col.imag, n_sites=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularFrequencyError) as err:
                dyson_solve(h, 1.0, sigma, sites=[0])
        assert err.value.omega == grid.omegas[k]


def test_distribution_form_matches_retired_eigenbasis_route():
    # G^K = F_eff (G^+ - G^-) against the |D|^2 route it replaced,
    # (sigma^K - 2i*eta*F) U |D|^2 U^dag, at 1e-13 of max|G^K|: on every
    # ring from 2 to 160 sites under a frequency-dependent sigma, on open
    # chains under a uniform wide-band sigma, and on the 40-site ring under
    # fig3's dephasing sigma at its narrowest and widest widths. Measured
    # worst 9.2e-16 for G^K; G^+, the same product, agreed bit for bit
    beta = 2.0
    grid = FreqGrid(-2.0, 3.0, 1201)
    w = grid.omegas
    gamma = 0.1 + 0.03 * np.cos(w)
    cases = [(build_chain(n, 0.5, 1.0), beta, grid, 0.02 * w - 0.5j * gamma,
              -1j * gamma * np.tanh(0.3 * w)) for n in range(2, 161)]
    rate = np.full(grid.n_points, 0.2)
    cases += [(build_chain(n, 0.5, 1.0, boundary="open"), beta, grid, -0.5j * rate, -1j * rate)
              for n in (2, 7, 40)]
    fig3 = FreqGrid(0.2, 3.8, 7201)
    h40 = build_chain(40, 2.0, 1.0)
    for g2 in (0.05, 0.4):
        bath = OhmicBath(alpha=g2 / 300.0, cutoff=800.0, temperature=300.0)
        sr, sk = dephasing_self_energy(h40, [bath] * 40, 1.0 / 300.0, fig3).columns
        cases.append((h40, 1.0 / 300.0, fig3, sr[:, 0], sk[:, 0]))
    worst = 0.0
    for h, b, g, sr, sk in cases:
        n = h.n_sites
        one = SelfEnergy(grid=g, retarded=sr[:, None], keldysh=sk[:, None], n_sites=n)
        sites = [n - 1, 0, n // 2]
        mine = dyson_solve(h, b, one, sites)
        ref = eigenbasis_greens(h, b, g, sites, sr, sk)
        for new, old in ((mine.retarded, ref.retarded), (mine.keldysh, ref.keldysh)):
            worst = max(worst, np.max(np.abs(new - old)) / np.max(np.abs(old)))
    assert worst <= 1e-13


def test_singular_distribution_function_reported():
    # a non-causal uniform Sigma^+ with Im Sigma^+ = eta at one grid point:
    # there z - sigma - E_k is real and nonzero on the 2-site ring (eps_k =
    # +-1, exact; the point sits at -1/4 on the dyadic grid), so G^+ is
    # finite, but eta - Im Sigma^+ = 0 leaves F_eff non-finite. No numpy
    # warning may escape
    h = build_chain(2, 0.0, 1.0)
    grid = FreqGrid(-1.0, 1.0, 33)
    k = 12
    col = np.full((grid.n_points, 1), -0.1j)
    col[k] = 1j * grid.eta
    sigma = SelfEnergy(grid=grid, retarded=col, keldysh=-2j * col.imag, n_sites=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularFrequencyError) as err:
            dyson_solve(h, 1.0, sigma, sites=[0])
    assert err.value.omega == grid.omegas[k]


@pytest.mark.parametrize("presets, calls", [
    (["fig3-bottom"], 1),
    (["fig2-lower", "fig2-upper"], 2),
], ids=["dephasing-sweep", "register-spectra"])
def test_one_eigensolve_per_chain(tmp_path, monkeypatch, presets, calls):
    # the self-energy, every width's solve and the lindblad and register
    # engines all read the plan's h.eig, so each config diagonalizes its
    # chain once: the dephasing-sweep workload's fig3-bottom (3601 points,
    # two widths) and the register-spectra workload's two configs
    count = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: count.append(1) or eigh(a))
    for name in presets:
        raw = preset_config(name)
        if name == "fig3-bottom":
            raw["grid"]["n_points"] = 3601
            raw["sweep"]["gamma2"] = [0.05, 0.4]
        assert harness.run_experiment(config_from_dict(raw), out_root=tmp_path).ok
    assert len(count) == calls


def test_banded_solve_matches_refined_lu():
    # the band-structure solve against refined LU on open chains and rings
    # of 1, 2, 3 and 7 sites, with a self-energy that varies by site and
    # frequency, phases on an inner hopping and on the ring corner, and
    # every site or a few out of order; at N = 2 the corners are the bond.
    # Measured worst 1.8e-15
    beta = 2.0
    grid = FreqGrid(-2.0, 3.0, 601)
    w = grid.omegas[:, None]
    for n in (1, 2, 3, 7):
        site = np.arange(n)[None, :]
        gamma = 0.1 + 0.05 * site + 0.03 * np.cos(w + site)
        sr = 0.02 * site * w - 0.5j * gamma
        sk = -1j * gamma * np.tanh(0.3 * w + 0.1 * site)
        sigma = SelfEnergy(grid=grid, retarded=sr, keldysh=sk)
        for boundary in ("open", "periodic"):
            m = build_chain(n, 0.5, 1.0, boundary=boundary).matrix.astype(complex)
            if n > 2:
                m[1, 2] *= np.exp(0.7j)
                m[n - 1, 0] *= np.exp(-0.4j)
                m[2, 1], m[0, n - 1] = np.conj(m[1, 2]), np.conj(m[n - 1, 0])
            h = HoppingHamiltonian(n, m)
            for sites in (None, [n - 1, 0]):
                g = dyson_solve(h, beta, sigma, sites)
                ref = lu_dyson_solve(h, beta, sigma, sites)
                for mine, full in ((g.retarded, ref.retarded), (g.keldysh, ref.keldysh)):
                    assert mine.shape == full.shape
                    assert np.max(np.abs(mine - full)) <= 1e-12 * np.max(np.abs(full))


def test_blocked_solve_matches_refined_lu_across_block_edges():
    # the band solve runs in blocks of lattice.FREQ_BLOCK = 512 frequencies;
    # grids of one block less one point, exactly one, one plus one point
    # and three plus one (the last block then holds a single point), on a
    # 7-site ring and open chain, for one site and for every site.
    # FreqGrid admits no 1-point grid, so 2 points stand for the shortest
    beta = 2.0
    n = 7
    site = np.arange(n)[None, :]
    assert lattice.FREQ_BLOCK == 512
    for n_points in (2, 511, 512, 513, 1537):
        grid = FreqGrid(-2.0, 3.0, n_points)
        w = grid.omegas[:, None]
        gamma = 0.1 + 0.05 * site + 0.03 * np.cos(w + site)
        sigma = SelfEnergy(grid=grid, retarded=0.02 * site * w - 0.5j * gamma,
                           keldysh=-1j * gamma * np.tanh(0.3 * w + 0.1 * site))
        for boundary in ("open", "periodic"):
            h = build_chain(n, 0.5, 1.0, boundary=boundary)
            for sites in ([3], None):
                g = dyson_solve(h, beta, sigma, sites)
                ref = lu_dyson_solve(h, beta, sigma, sites)
                for mine, full in ((g.retarded, ref.retarded), (g.keldysh, ref.keldysh)):
                    assert mine.shape == full.shape
                    assert np.max(np.abs(mine - full)) <= 1e-12 * np.max(np.abs(full))


def test_singular_frequency_named_across_blocks():
    # a self-energy that cancels the free inverse propagator at points of
    # the second and third blocks only (512 frequencies each) and is causal
    # everywhere else: the error names the second block's first bad point,
    # not the first point of its block nor a point of the third
    h = build_chain(1, 0.0, 0.0, boundary="open")
    grid = FreqGrid(-1.0, 2.0, 1537)
    bad = [512 + 37, 512 + 300, 1024 + 5]
    diag = np.full((grid.n_points, 1), -0.1j)
    diag[bad, 0] = grid.omegas[bad] + 1j * grid.eta
    sigma = SelfEnergy(grid=grid, retarded=diag, keldysh=-2j * diag.imag)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularFrequencyError) as err:
            dyson_solve(h, 1.0, sigma)
    assert err.value.omega == grid.omegas[bad[0]]


@pytest.mark.parametrize("preset, n_sites, bound", [
    ("fig3-bottom", 40, 3.0e6),
    ("fig2-lower", None, 3.8e6),
    ("fig3-bottom", 400, 17.0e6),
    ("fig3-bottom", None, 4.8e6),
], ids=["dephasing-sweep", "fig2-lower", "ring-400", "fig3-bottom"])
def test_keldysh_runs_stay_within_traced_peaks(tmp_path, preset, n_sites, bound):
    # whole runs under tracemalloc: fig3-bottom's sweep at the benchmark's
    # grid (3601 points) and widths 0.05 and 0.4 on its 40-site ring and on
    # a 400-site ring, fig2-lower (keldysh and lindblad, N=5) and the
    # fig3-bottom preset itself (7201 points, four widths). Measured 2.45,
    # 3.11, 14.2 and 4.00 MB; the bounds are 1.2x those. numpy loads its fft
    # and polynomial modules on first use, which adds 0.4-0.8 MB of module
    # objects to a run that comes first in its process; they are loaded
    # before tracing starts, so every run is measured alike. While the shift
    # was the rate's transform on geometric tail grids these runs traced
    # 7.0, 7.6, 14.2 and 13.8 MB; before a uniform self-energy was one
    # column solved in the eigenbasis 12.8, 8.2-8.4 and 122 MB, and before
    # the band solve ran in blocks 26.3 and 18.0 MB. Each run also stays
    # within its config's memory rule
    raw = preset_config(preset)
    if n_sites:
        raw["system"]["n_sites"] = n_sites
        raw["grid"]["n_points"] = 3601
        raw["sweep"]["gamma2"] = [0.05, 0.4]
    cfg = config_from_dict(raw)
    np.fft, np.polynomial.legendre  # reading the attributes loads them
    tracemalloc.start()
    try:
        result = harness.run_experiment(cfg, out_root=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.ok
    assert peak < bound
    assert peak < harness._spectra_bytes(cfg)


def test_open_chain_run_stays_within_its_memory_rule(tmp_path):
    # every keldysh run on an ohmic bath diagonalizes h, open chains too, so
    # the rule charges h's dense eigensystem there as well: fig3-bottom on
    # an open 1000-site chain over 101 points and one width traced 42.7 MB,
    # 0.46 of its rule; without that term the rule was 29.0 MB
    raw = preset_config("fig3-bottom")
    raw["system"].update(n_sites=1000, boundary="open")
    raw["grid"]["n_points"] = 101
    raw["sweep"]["gamma2"] = [0.05]
    cfg = config_from_dict(raw)
    np.fft, np.polynomial.legendre  # reading the attributes loads them
    tracemalloc.start()
    try:
        result = harness.run_experiment(cfg, out_root=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.ok
    assert peak < harness._spectra_bytes(cfg)


def test_non_chain_hamiltonian_refused():
    # a next-nearest-neighbor hopping is neither a band entry nor a ring
    # corner; refused before any solve, also for a vanishing self-energy
    m = build_chain(5, 0.5, 1.0).matrix.copy()
    m[0, 2] = m[2, 0] = 0.1
    h = HoppingHamiltonian(5, m)
    grid = FreqGrid(-2.0, 3.0, 101)
    for value in (-0.05j, 0.0):
        with pytest.raises(ValueError, match="chain"):
            dyson_solve(h, 1.0, _const_self_energy(grid, 5, value))


def test_wideband_line_shape():
    # flat decay channel: Lorentzian at the level, FWHM = rate + 2*eta
    rate = 0.3
    h = build_chain(1, 1.0, 0.0, boundary="open")
    grid = FreqGrid(-1.0, 3.0, 2001, eta=0.01)
    g, _ = steady_state_greens(h, [WideBandBath(rate)], 1.0, grid)
    a = (1j * (g.retarded - g.advanced))[:, 0, 0].real
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
    a = 1j * (g.retarded - g.advanced)
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


def _match_single_site_calls(h, baths, beta, grid, sites):
    """Self-energy of `baths`, each column in `sites` pinned at 1e-12 of its
    max against a call that puts that site's bath on that site alone. One
    bathed site is never an orbit, so the lone call takes the per-site
    route."""

    sigma = dephasing_self_energy(h, baths, beta, grid)
    for i in sites:
        alone = [baths[i] if k == i else None for k in range(h.n_sites)]
        ref = dephasing_self_energy(h, alone, beta, grid)
        for mine, col in ((sigma.retarded, ref.retarded), (sigma.keldysh, ref.keldysh)):
            assert np.max(np.abs(mine[:, i] - col[:, i])) <= 1e-12 * np.max(np.abs(col[:, i]))
    return sigma


def test_dephasing_groups_match_single_site_calls():
    # sites with equal baths are computed together; every column must match
    # a call that puts that site's bath on that site alone. No group here is
    # one orbit, so each keeps the site-by-site route bit for bit: an open
    # chain, a ring with one site bath-less, and a ring with one perturbed
    # onsite entry built by hand
    b1 = OhmicBath(alpha=0.01, cutoff=20.0, temperature=5.0)
    b2 = OhmicBath(alpha=0.03, cutoff=20.0, temperature=2.0)
    grid = FreqGrid(-1.0, 5.0, 601)
    ring = build_chain(4, 2.0, 1.0)
    bumped = ring.matrix.copy()
    bumped[2, 2] += 1e-9
    for h, baths in ((build_chain(4, 2.0, 1.0, boundary="open"), [b1, b2, None, b1]),
                     (ring, [b1, b1, None, b1]),
                     (HoppingHamiltonian(4, bumped), [b1] * 4)):
        sigma = _match_single_site_calls(h, baths, 0.2, grid, range(4))
        retarded, kel = dephasing_site_by_site(h, baths, 0.2, grid)
        assert np.array_equal(sigma.retarded, retarded) and np.array_equal(sigma.keldysh, kel)
        for i, bath in enumerate(baths):
            if bath is None:
                assert not np.any(sigma.retarded[:, i]) and not np.any(sigma.keldysh[:, i])


@pytest.mark.parametrize("preset, gamma2", [
    ("fig2-lower", None),
    ("fig2-upper", None),
    *[(name, g2) for name in ("fig3-top", "fig3-bottom") for g2 in (0.05, 0.4)],
])
def test_ring_orbit_matches_single_site_calls(preset, gamma2):
    # a bath on every site of a uniform ring is one orbit: site 0's column
    # is computed and broadcast, and each column stays within 1e-12 of its
    # max of that site's own per-site column (measured at most 1.2e-13 on
    # every site and sweep width)
    plan = _Plan(config_from_dict(preset_config(preset)))
    cfg = plan.cfg
    n = cfg.system.n_sites
    baths = plan.site_baths
    if gamma2 is not None:
        baths = [OhmicBath(alpha=gamma2 / cfg.bath.temperature, cutoff=cfg.bath.cutoff,
                           temperature=cfg.bath.temperature)] * n
    sigma = _match_single_site_calls(plan.h, baths, cfg.system.beta, plan.grid,
                                     sorted({0, 1, n // 2, n - 1}))
    for part in (sigma.retarded, sigma.keldysh):
        assert np.array_equal(part, np.repeat(part[:, :1], n, axis=1))


def test_dephasing_convolutions_match_direct_sums():
    # the four FFT convolutions against one np.convolve per site column, of
    # the noise power C and of its transform H (and H[::-1]): the rate is
    # -2 Im Sigma^+, the shift Re Sigma^+, the Keldysh diagonal as is
    h = build_chain(4, 2.0, 1.0, boundary="open")
    bath = OhmicBath(alpha=0.01, cutoff=20.0, temperature=5.0)
    grid = FreqGrid(-1.0, 5.0, 1201)
    sigma = dephasing_self_energy(h, [bath] * 4, 0.2, grid)
    gamma, shift, keldysh = dephasing_convolutions_direct(h, bath, 0.2, grid)
    for mine, ref in ((-2.0 * sigma.retarded.imag, gamma), (sigma.retarded.real, shift),
                      (sigma.keldysh, keldysh)):
        scale = np.max(np.abs(ref), axis=0)
        assert np.all(np.max(np.abs(mine - ref), axis=0) <= 1e-12 * scale)


# the preset baths: fig2-upper's, fig2-lower's and fig3's at two sweep widths,
# each with its preset grid (omega_min, omega_max, n_points)
_PRESET_BATHS = {
    "fig2-upper": (OhmicBath(alpha=0.002, cutoff=4.0, temperature=0.2), (0.0, 4.0, 1601)),
    "fig2-lower": (OhmicBath(alpha=0.1 / 300.0, cutoff=800.0, temperature=300.0),
                   (0.0, 4.0, 4001)),
    "fig3-0.05": (OhmicBath(alpha=0.05 / 300.0, cutoff=800.0, temperature=300.0),
                  (0.2, 3.8, 7201)),
    "fig3-0.4": (OhmicBath(alpha=0.4 / 300.0, cutoff=800.0, temperature=300.0),
                 (0.2, 3.8, 7201)),
}


@pytest.mark.parametrize("name, bound", [
    ("fig2-upper", 1.3e-3),
    ("fig2-lower", 1.0e-3),
    ("fig3-0.05", 5.5e-4),
    ("fig3-0.4", 5.5e-4),
])
def test_born_self_energy_matches_exact_first_order(name, bound):
    # one empty level at eps = 2 (beta_sys = inf) on each preset bath and
    # grid, against the exact first-order self-energy by direct quadrature
    # over the whole bath support: at the eight points at either end of the
    # window and every 25th point between. Measured, as fractions of
    # max|Sigma|: Re 1.07e-3, 8.2e-4 and 4.6e-4 (both fig3 widths), Im
    # 1.11e-3, 9.6e-4 and 5.3e-4; the bounds are about 1.2x the larger.
    # That is the eta floor: the free Lorentzian is cut at the window edge.
    # With the shift taken as the rate's transform on geometric tail grids
    # the Re error was 9.1e-2 to 9.3e-2, next to the window edges
    bath, (lo, hi, n) = _PRESET_BATHS[name]
    grid = FreqGrid(lo, hi, n)
    h = build_chain(1, 2.0, 0.0, boundary="open")
    sigma = dephasing_self_energy(h, [bath], np.inf, grid).retarded[:, 0]
    idx = np.r_[0:8, 8 : n - 8 : 25, n - 8 : n]
    ref = born_sigma_direct(bath, 2.0, grid.eta, grid.omegas[idx])
    err = sigma[idx] - ref
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(err.real)) < bound * scale
    assert np.max(np.abs(err.imag)) < bound * scale


@pytest.mark.parametrize("name, bound", [
    ("fig2-upper", 6e-7),
    ("fig2-lower", 2e-8),
    ("fig3-0.4", 3e-9),
])
def test_noise_power_transform_matches_half_transform(name, bound):
    # the bath transform H on the difference grid against Bloch-Redfield's
    # half-sided transform C/2 - (i/2pi) H, every 37th point and both ends.
    # Measured, as fractions of max|C/2 - (i/2pi) H|: 4.4e-7 (fig2-upper,
    # at the kink of C at 0), 1.25e-8 and 1.7e-9
    bath, (lo, hi, n) = _PRESET_BATHS[name]
    m = np.arange(-(n - 1), n) * ((hi - lo) / (n - 1))
    c, transform = noise_power_transform(bath, m)
    idx = np.r_[0 : m.size : 37, m.size - 1]
    ref = half_transform(bath, m[idx])
    mine = 0.5 * c[idx] - 1j * transform[idx] / (2.0 * np.pi)
    assert np.max(np.abs(mine - ref)) < bound * np.max(np.abs(ref))


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_dephasing_self_energy_is_linear_in_alpha(boundary):
    # every term is linear in alpha, so scaling it by 2^k scales both
    # diagonals bit for bit: on a uniform ring (one orbit, site 0 broadcast)
    # and on an open chain (one column per site)
    h = build_chain(6, 2.0, 1.0, boundary=boundary)
    grid = FreqGrid(-1.0, 5.0, 601)

    def sigma(alpha):
        bath = OhmicBath(alpha=alpha, cutoff=20.0, temperature=5.0)
        return dephasing_self_energy(h, [bath] * 6, 0.2, grid)

    base = sigma(0.01)
    broadcast = np.array_equal(base.retarded, np.repeat(base.retarded[:, :1], 6, axis=1))
    assert broadcast == (boundary == "periodic")
    for k in (-3, 1, 2, 5):
        scaled = sigma(0.01 * 2.0**k)
        assert np.array_equal(scaled.retarded, 2.0**k * base.retarded)
        assert np.array_equal(scaled.keldysh, 2.0**k * base.keldysh)


def _sweep_greens(monkeypatch, raw, out):
    """(greens per width, dephasing_self_energy calls) of a sweep run
    through the harness, the greens caught on their way to the writer."""

    plan = _Plan(config_from_dict(raw))
    caught, calls = [], []
    write, self_energy = harness._write_spectra, keldysh.dephasing_self_energy

    def catch(path, omegas, greens, pairs, sites):
        caught.append(greens)
        return write(path, omegas, greens, pairs, sites)

    def count(*args):
        calls.append(args)
        return self_energy(*args)

    monkeypatch.setattr(harness, "_write_spectra", catch)
    monkeypatch.setattr(keldysh, "dephasing_self_energy", count)
    harness._run_sweep(plan, out)
    return plan, caught, len(calls)


def _width_greens(plan, gamma2):
    cfg = plan.cfg
    bath = OhmicBath(alpha=gamma2 / cfg.bath.temperature, cutoff=cfg.bath.cutoff,
                     temperature=cfg.bath.temperature)
    return steady_state_greens(plan.h, [bath] * cfg.system.n_sites, cfg.system.beta,
                               plan.grid, sites=harness._pair_sites(cfg.grid.pairs))[0]


@pytest.mark.parametrize("preset", ["fig3-top", "fig3-bottom"])
def test_sweep_scales_one_self_energy_bit_for_bit(monkeypatch, tmp_path, preset):
    # the shipped widths are power-of-two multiples of the first, so the
    # scaled self-energy gives each width's own Dyson solve bit for bit, and
    # the four widths compute the self-energy once
    raw = preset_config(preset)
    plan, caught, calls = _sweep_greens(monkeypatch, raw, tmp_path)
    assert calls == 1 and len(caught) == len(raw["sweep"]["gamma2"]) == 4
    monkeypatch.undo()
    for g2, greens in zip(raw["sweep"]["gamma2"], caught):
        ref = _width_greens(plan, g2)
        assert np.array_equal(greens.retarded, ref.retarded)
        assert np.array_equal(greens.keldysh, ref.keldysh)


def test_sweep_scaling_at_any_ratio_is_roundoff(monkeypatch, tmp_path):
    # widths that are no power-of-two multiple of the first scale sigma by
    # a rounded ratio: measured at most 3.7e-15 of max|G^R| and 1.4e-13 of
    # max|G^K| on fig3-top and fig3-bottom, bounded here with a margin of 7
    raw = preset_config("fig3-top")
    raw["sweep"]["gamma2"] = [0.05, 0.07, 0.3, 0.45]
    plan, caught, calls = _sweep_greens(monkeypatch, raw, tmp_path)
    assert calls == 1
    monkeypatch.undo()
    for g2, greens in zip(raw["sweep"]["gamma2"][1:], caught[1:]):
        ref = _width_greens(plan, g2)
        for mine, theirs, bound in ((greens.retarded, ref.retarded, 2.5e-14),
                                    (greens.keldysh, ref.keldysh, 1e-12)):
            assert 0 < np.max(np.abs(mine - theirs)) <= bound * np.max(np.abs(theirs))


def test_tls_embedding_single_pole():
    grid = FreqGrid(0.0, 2.0, 401)
    bath = TlsBath(levels=((1.0, 0.3),))
    sigma = tls_embedding_self_energy([bath], grid)
    # the pole sits at +2i times the grid spacing
    expected = 0.09 / (grid.omegas - 1.0 + 2.0 * grid.spacing * 1j)
    assert np.max(np.abs(sigma.retarded[:, 0] - expected)) < 1e-14


_PAIR = build_chain(2, 1.0, 0.5)
_BAND = FreqGrid(-1.0, 3.0, 101)
# each engine entry point on a two-site chain: (run it on baths, a bath it
# takes, a bath it refuses); a closure or a self-energy of the wrong site
# count is refused where it meets the chain
_ENTRY_POINTS = {
    "steady_state_greens": (lambda baths: steady_state_greens(_PAIR, baths, 1.0, _BAND),
                            OhmicBath(alpha=0.1, cutoff=5.0, temperature=1.0),
                            FlatNoise(level=0.1, halfwidth=10.0)),
    "tls_embedding_self_energy": (
        lambda baths: dyson_solve(_PAIR, 1.0, tls_embedding_self_energy(baths, _BAND)),
        TlsBath(levels=((1.0, 0.3),)), OhmicBath(alpha=0.1, cutoff=5.0, temperature=1.0)),
    "bloch_redfield_generator": (lambda baths: qme.bloch_redfield_generator(_PAIR, baths),
                                 FlatNoise(level=0.1, halfwidth=10.0), TlsBath(levels=())),
    "exact_tls_evolve": (lambda baths: qme.exact_tls_evolve(_PAIR, baths, 0, [0.0, 0.1]),
                         TlsBath(levels=((1.0, 0.3),)), WideBandBath(0.1)),
    "MemorySelfEnergy": (
        lambda baths: equal_time_occupations(_PAIR, MemorySelfEnergy(baths), 0, 0.1, 0.01),
        WideBandBath(0.1), OhmicBath(alpha=0.1, cutoff=5.0, temperature=1.0)),
}


@pytest.mark.parametrize("refusal", ["bare", "length", "kind"])
@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_engines_take_one_bath_per_site(entry, refusal):
    # every entry point takes one bath (or None) per site and refuses a
    # bare bath, a wrong site count and a bath kind it cannot run, naming
    # the kind; with one bath per site it runs
    run, good, bad = _ENTRY_POINTS[entry]
    run([good, None])
    baths, error, match = {
        "bare": (good, TypeError, "sequence"),
        "length": ([good] * 3, ValueError, "site"),
        "kind": ([good, bad], TypeError, type(bad).__name__),
    }[refusal]
    with pytest.raises(error, match=match):
        run(baths)


def test_steady_state_rejects_mixed_bath_kinds():
    h = build_chain(2, 1.0, 0.5)
    grid = FreqGrid(-1.0, 3.0, 201)
    baths = [OhmicBath(alpha=0.1, cutoff=5.0, temperature=1.0), WideBandBath(0.2)]
    with pytest.raises(ValueError, match="mix"):
        steady_state_greens(h, baths, 1.0, grid)
