"""Two-time integrator: decay laws, memory kernels, guards, late-time spectra."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisychain import qme
from noisychain.baths import TlsBath, WideBandBath, sample_tls_bath
from noisychain.errors import CapacityError
from noisychain.harness import (
    _Plan,
    config_from_dict,
    find_spectral_peaks,
    read_artifact,
    run_experiment,
)
from noisychain.kbe import (
    MEMORY_CAP_BYTES,
    MemorySelfEnergy,
    _start,
    equal_time_occupations,
    stream_bytes,
)
from noisychain.lattice import FreqGrid, build_chain
from noisychain.presets import preset_config

from kbe_oracle import (
    analytic_gk,
    excited,
    kbe_integrate,
    keldysh_kernels,
    late_time_spectrum,
    occupations,
    per_site_memory_rows,
    wide_bands,
)


def _lone_site():
    return build_chain(1, 0.0, 0.0, boundary="open")


def _fig4_top(seed):
    """Chain, memory closure, t_max and dt of fig4-top at TLS seed `seed`."""

    raw = preset_config("fig4-top")
    raw["seed"] = seed
    plan = _Plan(config_from_dict(raw))
    return plan.h, plan.kbe_sigma, raw["time"]["t_max"], raw["time"]["dt"]


def _narrow_band():
    # one qubit in a broad flat band of 200 weakly coupled levels
    h = build_chain(1, 2.5, 0.0, boundary="open")
    return h, sample_tls_bath(0.05, 200, (0.5, 4.5), seed=2)


def _uneven_chain(temperatures=(0.0, 0.0)):
    """Three open sites: one level on site 0, none on site 1, three on site
    2, the baths at the given temperatures."""

    h = build_chain(3, 0.5, 1.0, boundary="open")
    baths = [
        TlsBath(levels=((1.0, 0.1),), temperature=temperatures[0]),
        None,
        TlsBath(levels=((0.8, 0.05), (1.2, 0.07), (1.6, 0.04)), temperature=temperatures[1]),
    ]
    return h, baths




def test_markov_exponential_decay():
    gamma = 1.0
    run = kbe_integrate(_lone_site(), wide_bands([gamma]), 0, 2.0, 1e-3)
    t = run.t_grid
    n, _ = occupations(run)
    assert np.max(np.abs(n[:, 0] - np.exp(-gamma * t))) < 1e-6
    # retarded propagator envelope decays at half the population rate
    gr = np.abs(run.retarded[:, 0, 0, 0])
    assert np.max(np.abs(gr - np.exp(-0.5 * gamma * t))) < 1e-6


def test_matches_commuting_closed_form():
    h = build_chain(3, 0.0, 1.0)
    rates = [0.3, 0.3, 0.3]
    run = kbe_integrate(h, wide_bands(rates), 0, 2.0, 0.01)
    m = run.n_times
    worst = 0.0
    for i, j in ((m - 1, m - 1), (m - 1, m // 2), (m // 2, m // 4), (m - 1, 0)):
        ref = analytic_gk(h, rates, 0, run.t_grid[i], run.t_grid[j])
        worst = max(worst, float(np.max(np.abs(run.keldysh_at(i, j) - ref))))
    assert worst < 1e-4


def test_closed_form_requires_commuting_rates():
    h = build_chain(3, 0.0, 1.0)
    with pytest.raises(ValueError, match="commute"):
        analytic_gk(h, [0.5, 0.1, 0.1], 0, 1.0, 0.5)


def test_closed_form_time_ordering():
    h = build_chain(2, 0.0, 1.0)
    a = analytic_gk(h, [0.2, 0.2], 0, 1.0, 0.4)
    b = analytic_gk(h, [0.2, 0.2], 0, 0.4, 1.0)
    assert np.allclose(b, -a.conj().T, atol=1e-14)


def test_single_tls_rabi_oscillation():
    # one qubit resonant with one TLS: occupation cos^2(g t)
    h = build_chain(1, 1.0, 0.0, boundary="open")
    bath = TlsBath(levels=((1.0, 0.05),))
    n = equal_time_occupations(h, MemorySelfEnergy([bath]), 0, 20.0, 0.01)
    t_grid = 0.01 * np.arange(n.shape[0])
    assert np.max(np.abs(n[:, 0] - np.cos(0.05 * t_grid) ** 2)) < 5e-5


def test_memory_kernels_single_level():
    bath = TlsBath(levels=((1.0, 0.1),))
    sigma = MemorySelfEnergy([bath, None])
    sr = sigma.kernels(0.1, 31)
    sk = keldysh_kernels(sigma, 0.1, 31)
    lags = 0.1 * np.arange(31)
    expected = -0.01j * np.exp(-1j * lags)
    assert np.allclose(sr[:, 0], expected, atol=1e-14)
    # empty levels at T = 0: hole factor 1, Keldysh kernel equals retarded
    assert np.allclose(sk[:, 0], sr[:, 0], atol=1e-14)
    assert not np.any(sr[:, 1]) and not np.any(sk[:, 1])


def test_kernel_envelope_tracks_flat_band():
    # many levels across a band: |kernel(0)| = rate * width / 2pi, fast decay
    width = 2.0
    bath = sample_tls_bath(0.1, 200, (1.5, 3.5), seed=5)
    sigma = MemorySelfEnergy([bath])
    sr = sigma.kernels(0.01, 4001)
    env = np.abs(sr[:, 0])
    assert env[0] == pytest.approx(0.1 * width / (2.0 * np.pi), rel=1e-12)
    # dephased tail: beyond a few inverse bandwidths the envelope is small
    tail = env[int(10.0 / width / 0.01):]
    assert np.sqrt(np.mean(tail**2)) < 0.20 * env[0]


def test_empty_bath_matches_zero_rate():
    h = build_chain(2, 0.5, 1.0)
    mem = kbe_integrate(h, MemorySelfEnergy([TlsBath(levels=()),
                                                   TlsBath(levels=())]),
                        0, 1.0, 0.01)
    mark = kbe_integrate(h, wide_bands([0.0, 0.0]), 0, 1.0, 0.01)
    assert np.max(np.abs(mem.keldysh - mark.keldysh)) < 1e-8
    # closed system: total occupation conserved
    _, n_tot = occupations(mem)
    assert np.max(np.abs(n_tot - 1.0)) < 1e-8


def test_stability_guard():
    h = build_chain(1, 10.0, 0.0, boundary="open")
    with pytest.raises(ValueError, match="dt"):
        kbe_integrate(h, wide_bands([0.1]), 0, 10.0, 0.1)


def test_memory_capacity_guard():
    # wide bands keep no levels, yet the (m, n) occupations and output grow
    # with the time count: a 40-site chain over 5 10^7 steps (about 69 GB)
    # is refused before any step. The pre-step check is called alone, so
    # that a regression fails the test instead of starting the job
    h = build_chain(40, 0.0, 1.0)
    with pytest.raises(CapacityError, match="GB"):
        _start(h, wide_bands([0.1] * 40), 0, 1e6, 0.02)
    # the memory closure's kernel table grows as m levels: one site with a
    # dense two-level ensemble over 4 10^4 steps (about 5.1 GB) is refused too
    h = build_chain(1, 2.0, 0.0, boundary="open")
    bath = sample_tls_bath(0.05, 4000, (1.5, 2.5), seed=1)
    with pytest.raises(CapacityError, match="GB"):
        _start(h, MemorySelfEnergy([bath]), 0, 800.0, 0.02)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        kbe_integrate(_lone_site(), wide_bands([0.1]), 0, 1.05, 0.1)
    with pytest.raises(ValueError):
        kbe_integrate(_lone_site(), wide_bands([0.1]), 0, -1.0, 0.1)


def test_stream_diagonal_matches_collected_plane():
    # on wide bands the lag series is Heun's step of dR/dt = (-i h - Gamma/2) R,
    # which is the oracle's quadratic one-step propagator, so the shipped
    # occupations are |R(t, 0)[:, site]|^2 of the oracle's retarded plane to
    # roundoff (measured 2.9e-15 over the three start sites, bound with a
    # 3.4x margin). The oracle's Keldysh diagonal steps its own equation and
    # differs by its O(dt^2) gap (measured 4.2e-5)
    h, baths = _uneven_chain()
    sigma = wide_bands([0.3, 0.1, 0.2])
    for site in range(3):
        occ = equal_time_occupations(h, sigma, site, 2.0, 0.02)
        plane = kbe_integrate(h, sigma, site, 2.0, 0.02)
        assert occ.shape == (101, 3)
        assert np.max(np.abs(occ - np.abs(plane.retarded[:, 0, :, site]) ** 2)) < 1e-14
        assert np.max(np.abs(occ - occupations(plane)[0])) < 1e-4
    # the memory closure reads the occupations off the retarded lag series
    # (Langreth rule) while the oracle steps the Keldysh rows: the two
    # discretize differently and agree to their O(dt^2) gap (measured
    # 4.70e-5, bound with a 2.1x margin). Halving dt cuts each route's
    # error against the exact solve by about four (measured 3.98 for the
    # shipped route, 4.02 for the oracle)
    sigma = MemorySelfEnergy(baths)
    errors = []
    for dt in (0.02, 0.01):
        shipped = equal_time_occupations(h, sigma, 1, 2.0, dt)
        plane = kbe_integrate(h, sigma, 1, 2.0, dt)
        oracle, _ = occupations(plane)
        exact = qme.exact_tls_evolve(h, baths, 1, plane.t_grid)[:, :3]
        if dt == 0.02:
            assert np.max(np.abs(shipped - oracle)) < 1e-4
        errors.append([np.max(np.abs(shipped - exact)), np.max(np.abs(oracle - exact))])
    ratios = np.divide(*errors)
    assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios


def test_warm_bath_lesser_term_matches_oracle():
    # at the TlsBath temperature cap, a tenth of each bath's lowest level,
    # the levels hold f up to 4.5e-5 and feed the chain back through the
    # lesser kernel. The shipped route adds this as the f-weighted sum of
    # squares, the oracle steps it into the Keldysh rows; the retarded
    # function does not depend on temperature, so warm minus cold isolates
    # the term (up to 1.2e-6 here, nowhere negative). The two routes agree
    # on it to an O(dt^2) gap of 1.04e-4 of its size, bound with a 1.9x
    # margin; uneven level counts, site 1 without a bath
    h, cold = _uneven_chain()
    _, warm = _uneven_chain((0.1, 0.08))
    shipped, oracle = [], []
    for baths in (warm, cold):
        sigma = MemorySelfEnergy(baths)
        shipped.append(equal_time_occupations(h, sigma, 1, 2.0, 0.02))
        oracle.append(occupations(kbe_integrate(h, sigma, 1, 2.0, 0.02))[0])
    d_shipped = shipped[0] - shipped[1]
    d_oracle = oracle[0] - oracle[1]
    size = np.max(np.abs(d_oracle))
    assert size > 1e-6 and np.all(d_shipped >= 0.0)
    assert np.max(np.abs(d_shipped - d_oracle)) < 2e-4 * size


def test_two_time_accessors():
    h = build_chain(2, 0.0, 1.0)
    run = kbe_integrate(h, wide_bands([0.1, 0.1]), 0, 1.0, 0.05)
    # retarded vanishes for t < t'; Keldysh mirrors anti-hermitially
    assert not np.any(run.retarded_at(3, 7))
    assert np.allclose(run.keldysh_at(3, 7), -run.keldysh_at(7, 3).conj().T,
                       atol=1e-14)


def test_occupations_stay_physical():
    h = build_chain(4, 1.0, 0.8)
    run = kbe_integrate(h, wide_bands([0.2] * 4), 1, 8.0, 0.02)
    n, n_tot = occupations(run)
    # excursions below zero sit at the integrator's O(dt^2) error scale
    assert np.all(n > -1e-4) and np.all(n < 1.0 + 1e-4)
    # pure decay channels: the total can only go down
    assert np.all(np.diff(n_tot) < 1e-12)


def test_late_time_spectrum_line():
    # relaxed single level: Lorentzian at the level, window-limited width
    gamma = 0.25
    run = kbe_integrate(_lone_site(), wide_bands([gamma]), 0, 40.0, 0.04)
    grid = FreqGrid(-2.0, 2.0, 801)
    spec = late_time_spectrum(run, grid)
    a = (1j * (spec.retarded - spec.advanced))[:, 0, 0].real
    peaks = find_spectral_peaks(grid.omegas, a)
    assert len(peaks) == 1
    assert peaks[0].position == pytest.approx(0.0, abs=grid.spacing)
    # the cos^2 window broadens the bare gamma; bracket rather than pin
    assert gamma < peaks[0].fwhm < 2.0 * gamma


def test_late_time_distribution_handoff():
    # empty decay channels drain the site; the final slice then satisfies
    # the empty-band relation K = (G+ - G-), window broadening cancelling
    run = kbe_integrate(_lone_site(), wide_bands([0.25]), 0, 40.0, 0.04)
    grid = FreqGrid(-2.0, 2.0, 801)
    spec = late_time_spectrum(run, grid)
    diff = spec.keldysh - (spec.retarded - spec.advanced)
    rel = np.max(np.abs(diff)) / np.max(np.abs(spec.keldysh))
    assert rel < 1e-2


def test_narrow_band_crossover_to_markov():
    # broad flat band at weak coupling: structured environment relaxes the
    # qubit at the flat-band golden-rule rate
    h, bath = _narrow_band()
    n = equal_time_occupations(h, MemorySelfEnergy([bath]), 0, 16.0, 0.01)
    t_grid = 0.01 * np.arange(n.shape[0])
    dev = np.max(np.abs(n[:, 0] - np.exp(-0.05 * t_grid)))
    assert dev < 0.05
    # the exact single-excitation solve on the same 200 levels: the memory
    # kernel tracks it to its O(dt^2) error (measured 6.8e-5, bound with a
    # 1.5x margin), far inside the golden-rule gap above
    exact = qme.exact_tls_evolve(h, [bath], 0, t_grid)
    assert np.max(np.abs(n[:, 0] - exact[:, 0])) < 1e-4


def test_initial_state_validation():
    # the excitation must sit on the chain, checked before any step; at
    # t = 0 it fills its site and leaves the others empty
    h = build_chain(3, 0.0, 1.0)
    for closure in (wide_bands([0.1] * 3), MemorySelfEnergy([None] * 3)):
        for site in (-1, 3):
            with pytest.raises(ValueError, match="outside chain"):
                equal_time_occupations(h, closure, site, 1.0, 0.01)
        occ = equal_time_occupations(h, closure, 1, 1.0, 0.01)
        assert np.array_equal(occ[0], [0.0, 1.0, 0.0])


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    rate=st.floats(min_value=0.0, max_value=0.5),
    site=st.integers(min_value=0, max_value=2),
)
def test_integrator_keeps_occupations_bounded(n, rate, site):
    h = build_chain(n, 0.5, 0.5)
    run = kbe_integrate(h, wide_bands([rate] * n), site % n, 2.0, 0.02)
    occ, n_tot = occupations(run)
    assert np.all(occ > -1e-4) and np.all(occ < 1.0 + 1e-4)
    assert np.all(np.diff(n_tot) < 1e-10)


def test_memory_closure_converges_at_second_order():
    # fig4-top against the exact solve at its preset dt, dt/2 and dt/4:
    # each halving cuts the kernel's error by about four (measured 7.45e-5,
    # 1.89e-5 and 4.75e-6; ratios 3.94 and 3.97), the second order the
    # module promises
    h, sigma, t_max, dt = _fig4_top(42)
    errors = []
    for step in (dt, dt / 2, dt / 4):
        n = equal_time_occupations(h, sigma, 0, t_max, step)
        exact = qme.exact_tls_evolve(h, sigma.baths, 0, step * np.arange(n.shape[0]))
        errors.append(np.max(np.abs(n - exact[:, :h.n_sites])))
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios


def test_wide_band_matches_lindblad_at_second_order():
    # on fig4-bottom's ring the wide band and lindblad_occupations solve the
    # same equation, dM/dt = -i[h, M] - gamma1 M, the latter exactly, so the
    # gap is Heun's error on the lag series: measured 1.394e-4, 3.484e-5 and
    # 8.709e-6 at dt 0.04, 0.02 and 0.01 from every start site, 4.00 per
    # halving. The preset's step is bounded with a 7.6% margin
    raw = preset_config("fig4-bottom")
    plan = _Plan(config_from_dict(raw))
    errors = []
    for dt in (0.04, 0.02, 0.01):
        worst = 0.0
        for site in range(plan.h.n_sites):
            n = equal_time_occupations(plan.h, plan.kbe_sigma, site, raw["time"]["t_max"], dt)
            ref = qme.lindblad_occupations(plan.h, raw["bath"]["rate"], 0.0, site,
                                           dt * np.arange(n.shape[0]))
            worst = max(worst, float(np.max(np.abs(n - ref))))
        errors.append(worst)
    assert errors[0] < 1.5e-4, errors
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios


def test_mixed_closure_matches_its_parts():
    # a wide band, no bath and a two-level bath on three uncoupled sites:
    # each site evolves as it does alone. With site 0 excited, site 2 fills
    # only through its bath's occupied levels, by the warm minus the cold
    # lone run (up to 4.4e-7 here), so the stepped columns, 0 and 2, are
    # not the first two. Measured gaps 0 and 5.6e-17
    chain = build_chain(3, 0.5, 0.0, boundary="open")
    one = build_chain(1, 0.5, 0.0, boundary="open")
    wide = WideBandBath(0.3)
    levels = ((0.8, 0.05), (1.2, 0.07))
    cold = equal_time_occupations(one, MemorySelfEnergy([TlsBath(levels)]), 0, 2.0, 0.02)
    alone = equal_time_occupations(one, MemorySelfEnergy([wide]), 0, 2.0, 0.02)
    zero = 0.0 * cold
    for tls in (TlsBath(levels), TlsBath(levels, temperature=0.08)):
        sigma = MemorySelfEnergy([wide, None, tls])
        lone = equal_time_occupations(one, MemorySelfEnergy([tls]), 0, 2.0, 0.02)
        first = equal_time_occupations(chain, sigma, 0, 2.0, 0.02)
        last = equal_time_occupations(chain, sigma, 2, 2.0, 0.02)
        assert np.max(np.abs(first - np.c_[alone, zero, lone - cold])) <= 1e-15
        assert np.max(np.abs(last - np.c_[zero, zero, lone])) <= 1e-15


def test_fig4_top_occupations_stay_nonnegative(tmp_path):
    # TLS seed 286046148 is where the stepped Keldysh rows dipped furthest
    # below zero (-6.1e-6 at site 0, t = 8.41, at the old dt 2^-6). The
    # shipped route writes every occupation as a sum of squares with
    # nonnegative weights, so its artifact stays in [0, 1]
    raw = preset_config("fig4-top")
    raw["seed"] = 286046148
    raw["engines"] = ["kbe"]
    result = run_experiment(config_from_dict(raw), out_root=tmp_path)
    occ = read_artifact(result.run_dir / "kbe_trajectory.csv")["columns"]["occupation"]
    assert occ.min() >= 0.0 and occ.max() <= 1.0


@pytest.mark.parametrize("preset", ["fig4-top", "fig4-bottom"])
def test_artifact_occupations_are_the_stepper_sums(tmp_path, preset):
    # the artifact writes the stepper's occupations cell for cell, digits
    # below 1e-16 included, and the Keldysh diagonal as i (2 n - 1)
    raw = preset_config(preset)
    raw["engines"] = ["kbe"]
    cfg = config_from_dict(raw)
    plan = _Plan(cfg)
    occ = equal_time_occupations(plan.h, plan.kbe_sigma, cfg.initial.excited_site,
                                 cfg.time.t_max, cfg.time.dt)
    kel = 1j * (2.0 * occ - 1.0)
    result = run_experiment(cfg, out_root=tmp_path)
    cells = (result.run_dir / "kbe_trajectory.csv").read_text().splitlines()[1:]
    for col, values in ((2, occ), (3, kel.real), (4, kel.imag)):
        assert [row.split(",")[col] for row in cells] == ["%.12e" % v for v in values.ravel()]
    if preset == "fig4-top":
        assert 0 < occ[occ > 0].min() < 1e-20  # the digits (1 + Im K) / 2 would lose


def test_oracle_retarded_rows_are_lag_only():
    # the lag series rests on R(t_i, t_j) = R(t_{i-j}, 0): h and the kernels
    # are time-independent and the retarded equation never reads the
    # initial state. The per-site oracle, which steps whole rows, keeps it
    # to roundoff on fig4-top's span at twice its step, 641 rows (measured
    # 6.5e-17, bound with a 3x margin), and bit for bit on the narrow band
    chain, bath = _narrow_band()
    narrow = (chain, MemorySelfEnergy([bath]), 1.0, 0.01)
    h, sigma, t_max, dt = _fig4_top(286046148)
    coarse = (h, sigma, t_max, 2 * dt)
    for (h, sigma, t_max, dt), bound in ((coarse, 2e-16), (narrow, 0.0)):
        m, f0 = _start(h, sigma, 0, t_max, dt), excited(h.n_sites, 0)
        col0 = np.empty((m, h.n_sites, h.n_sites), dtype=complex)
        worst = 0.0
        for i, (ret, _) in enumerate(per_site_memory_rows(h.matrix, sigma, f0, m, dt)):
            col0[i] = ret[0]
            worst = max(worst, float(np.max(np.abs(ret - col0[i::-1]))))
        assert worst <= bound


def test_memory_rule_counts_padded_levels():
    # the memory sums pad every site to the largest level count, so one
    # dense site among 19 bare ones costs 20 dense sites: about 3.6 GB
    # here, refused by the pre-step check, though the dense site alone
    # would take 0.3 GB. The check is called alone so that a regression
    # fails the test instead of allocating the job
    h = build_chain(20, 2.0, 0.5, boundary="open")
    baths = [sample_tls_bath(0.05, 100_000, (1.5, 2.5), seed=1)] + [None] * 19
    assert stream_bytes(1, 101, 100_000) < MEMORY_CAP_BYTES
    with pytest.raises(CapacityError, match="GB"):
        _start(h, MemorySelfEnergy(baths), 0, 1.0, 0.01)


def test_stream_bytes_bounds_traced_peak():
    # the working-set rule bounds what a real run allocates: fig4-top
    # (measured 0.52 of the rule), a short narrow-band run (0.76), two
    # sites with 100 levels each, where the first site's phase table must
    # be freed before the last one's is built (0.75), five sites whose ten
    # levels are all occupied, so every column and its level sums are
    # stepped (0.39), and the short one-site jobs where the scratch that
    # does not grow with the time count sets the peak: one level over 51
    # and 101 times (0.07 each) and 100 levels over 51 times (0.69).
    # Wide bands on 1 and 5 sites over 51 and 501 times and on 20 and 40
    # sites over 501 times, which keep no level axis: 0.08 to 0.67
    chain, bath = _narrow_band()
    one = build_chain(1, 2.5, 0.0, boundary="open")
    short = [(one, MemorySelfEnergy([sample_tls_bath(0.05, k, (0.5, 4.5), seed=2)]),
              t_max, 0.01) for k, t_max in ((1, 0.5), (1, 1.0), (100, 0.5))]
    pair = build_chain(2, 2.5, 0.1, boundary="open")
    two = MemorySelfEnergy([sample_tls_bath(0.05, 100, (0.5, 4.5), seed=s) for s in (2, 3)])
    warm = MemorySelfEnergy([sample_tls_bath(0.05, 10, (1.5, 2.5), seed=s, temperature=0.15)
                                   for s in range(5)])
    wide = [(build_chain(n, 0.0, 1.0, boundary="open"), wide_bands(np.full(n, 0.2)),
             t_max, 0.01) for n, t_max in ((1, 0.5), (1, 5.0), (5, 0.5), (5, 5.0),
                                           (20, 5.0), (40, 5.0))]
    for h, sigma, t_max, dt in (_fig4_top(42),
                                (chain, MemorySelfEnergy([bath]), 2.0, 0.01),
                                (pair, two, 2.0, 0.01),
                                (build_chain(5, 2.0, 0.5, boundary="open"), warm, 2.0, 0.01),
                                *short, *wide):
        m = int(round(t_max / dt)) + 1
        tracemalloc.start()
        try:
            kel = 1j * (2.0 * equal_time_occupations(h, sigma, 0, t_max, dt) - 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stream_bytes(h.n_sites, m, sigma.levels), (h.n_sites, m, peak)
