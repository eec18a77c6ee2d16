"""Spin-register master equations and the exact few-level reference."""

import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import quad
from hypothesis import given, settings
from hypothesis import strategies as st

from noisychain import qme
from noisychain.baths import OhmicBath, TlsBath, half_transform, noise_power
from noisychain.errors import CapacityError
from noisychain.harness import _Plan, config_from_dict
from noisychain.lattice import FreqGreens, FreqGrid, HoppingHamiltonian, build_chain
from noisychain.presets import preset_config

from bath_oracle import FlatNoise
from register_oracle import (
    LindbladGenerator,
    assembled_superoperator,
    global_redfield_superoperator,
    jw_fermion,
    lindblad_evolve,
    null_steady_state,
    regression_correlator,
    resolvent_greens,
    sector_bases,
    sector_hamiltonian,
    spin_hamiltonian,
    steady_state,
)


def test_fermion_anticommutators():
    n = 4
    dim = 2**n
    ops = [jw_fermion(i, n) for i in range(n)]
    eye = np.eye(dim)
    for i in range(n):
        for j in range(n):
            acc = ops[i] @ ops[j].conj().T + ops[j].conj().T @ ops[i]
            expected = eye if i == j else 0.0
            assert np.max(np.abs(acc - expected)) < 1e-12
            acc2 = ops[i] @ ops[j] + ops[j] @ ops[i]
            assert np.max(np.abs(acc2)) < 1e-12


def test_spin_register_spectrum_is_subset_sums():
    h = build_chain(4, 0.7, 1.1)
    single = np.linalg.eigvalsh(h.matrix)
    many = np.linalg.eigvalsh(spin_hamiltonian(h))
    subset_sums = sorted(
        sum(single[i] for i in range(4) if mask >> i & 1) for mask in range(16)
    )
    assert np.allclose(np.sort(many), subset_sums, atol=1e-10)


def test_single_site_dephasing_rate():
    # coherence of one spin decays at exactly gamma2star
    gen = LindbladGenerator(n_sites=1, hamiltonian=np.zeros((2, 2)),
                            gamma1=0.0, gamma2star=0.3)
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    t = np.linspace(0.0, 5.0, 26)
    rhos = lindblad_evolve(gen, plus, t)
    coh = rhos[:, 0, 1].real
    assert np.max(np.abs(coh - 0.5 * np.exp(-0.3 * t))) < 1e-10


def test_single_site_decay_rates():
    # excited population decays at gamma1, coherence at gamma1/2
    gen = LindbladGenerator(n_sites=1, hamiltonian=np.zeros((2, 2)),
                            gamma1=0.4, gamma2star=0.0)
    rho0 = np.array([[0.3, 0.4], [0.4, 0.7]], dtype=complex)
    t = np.linspace(0.0, 5.0, 26)
    rhos = lindblad_evolve(gen, rho0, t)
    assert np.max(np.abs(rhos[:, 1, 1].real - 0.7 * np.exp(-0.4 * t))) < 1e-10
    assert np.max(np.abs(rhos[:, 0, 1] - 0.4 * np.exp(-0.2 * t))) < 1e-10


def test_zero_rates_reduce_to_unitary():
    h = build_chain(3, 0.5, 1.0)
    hs = spin_hamiltonian(h)
    gen = LindbladGenerator(n_sites=3, hamiltonian=hs, gamma1=0.0, gamma2star=0.0)
    rng = np.random.default_rng(3)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho0 = m @ m.conj().T
    rho0 /= np.trace(rho0).real
    t_grid = np.linspace(0.0, 4.0, 41)
    rhos = lindblad_evolve(gen, rho0, t_grid)
    worst = 0.0
    for k, t in enumerate(t_grid):
        u = sla.expm(-1j * hs * t)
        worst = max(worst, float(np.max(np.abs(rhos[k] - u @ rho0 @ u.conj().T))))
    assert worst < 1e-8


def test_flat_noise_redfield_is_dephasing_lindblad():
    # white noise: the Redfield generator collapses to pure dephasing at
    # half the noise level
    h = build_chain(2, 1.0, 0.6)
    level = 0.4
    br = qme.bloch_redfield_generator(h, [FlatNoise(level=level, halfwidth=1e8)] * 2)
    lb = LindbladGenerator(n_sites=2, hamiltonian=spin_hamiltonian(h),
                           gamma1=0.0, gamma2star=level / 2.0)
    assert np.max(np.abs(assembled_superoperator(br) - lb.superoperator())) < 1e-8


def test_steady_state_routes_agree():
    gen = LindbladGenerator(
        n_sites=2, hamiltonian=spin_hamiltonian(build_chain(2, 0.5, 0.6)),
        gamma1=0.3, gamma2star=0.1)
    rho_w = steady_state(gen, np.eye(4) / 4.0, warmup_time=80.0)
    rho_n, ev = null_steady_state(gen)
    assert abs(ev) < 1e-10
    assert np.max(np.abs(rho_w - rho_n)) < 1e-8
    # decay-only fixed point is the vacuum
    assert rho_n[0, 0].real == pytest.approx(1.0, abs=1e-8)


def test_regression_correlator_equal_time():
    gen = LindbladGenerator(
        n_sites=2, hamiltonian=spin_hamiltonian(build_chain(2, 0.5, 0.6)),
        gamma1=0.0, gamma2star=0.25)
    rho_ss, _ = null_steady_state(gen)
    a = jw_fermion(0, 2)
    b = a.conj().T
    tau = np.linspace(0.0, 2.0, 21)
    fwd, rev = regression_correlator(gen, rho_ss, a, b, tau)
    direct = np.trace(a @ b @ rho_ss)
    assert fwd[0] == pytest.approx(direct, abs=1e-12)
    assert rev[0] == pytest.approx(direct, abs=1e-12)


def test_regression_correlator_needs_zero_start():
    gen = LindbladGenerator(n_sites=1, hamiltonian=np.zeros((2, 2)),
                            gamma1=0.1, gamma2star=0.0)
    a = jw_fermion(0, 1)
    with pytest.raises(ValueError):
        regression_correlator(gen, np.eye(2) / 2.0, a, a.conj().T,
                                  np.linspace(1.0, 2.0, 11))


def test_dephased_site_line_shape():
    # single dephased level: line at the onsite energy, hermitian spectral
    # weight, near-unit weight (the Lorentzian tails past the grid eat a few
    # percent); white noise at 0.4 is pure dephasing at gamma2star = 0.2
    h = build_chain(1, 1.0, 0.0, boundary="open")
    gen = qme.bloch_redfield_generator(h, [FlatNoise(level=0.4, halfwidth=1e8)])
    grid = FreqGrid(-1.0, 3.0, 2001)
    gg = qme.qme_greens(gen, (0, 0), grid)
    assert gg.retarded.shape == (grid.n_points, 1, 1)
    a = 1j * (gg.retarded - gg.advanced)
    assert np.max(np.abs(a - np.conj(np.swapaxes(a, 1, 2)))) < 1e-12
    diag = a[:, 0, 0].real
    assert grid.omegas[int(np.argmax(diag))] == pytest.approx(1.0, abs=grid.spacing)
    norm = np.trapezoid(diag, grid.omegas) / (2.0 * np.pi)
    assert 0.85 < norm < 1.05


_COMPONENTS = (
    ("retarded", lambda g: g.retarded),
    ("keldysh", lambda g: g.keldysh),
    ("spectral", lambda g: 1j * (g.retarded - g.advanced)),
)


def test_single_particle_route_matches_register_oracle():
    # the N x N closure against the brute-force register: spectra from the
    # identity start (gamma1 = 0) and from a warmup long enough to reach the
    # vacuum (gamma1 T = 40), then occupations with decay and dephasing
    n = 4
    h = build_chain(n, 0.3, 1.0, boundary="open")
    hs = spin_hamiltonian(h)
    grid = FreqGrid(-3.0, 3.0, 301)
    for g1, warmup in ((0.0, 1.0), (0.2, 200.0)):
        gen = LindbladGenerator(n_sites=n, hamiltonian=hs, gamma1=g1, gamma2star=0.15)
        rho = steady_state(gen, np.eye(2**n) / 2**n, warmup)
        both = resolvent_greens(gen, rho, (0, 1), grid)
        for pair, keep in (((0, 0), [0]), ((0, 1), [0, 1])):
            ref = FreqGreens(grid, *(x[:, keep][:, :, keep] for x in (both.retarded, both.keldysh)))
            got = qme.lindblad_greens(h, g1, 0.15, pair, grid)
            assert got.retarded.shape == ref.retarded.shape
            scale = np.max(np.abs(ref.retarded))
            for name, component in _COMPONENTS:
                err = np.max(np.abs(component(got) - component(ref))) / scale
                assert err <= 1e-12, (g1, pair, name, err)

    gen = LindbladGenerator(n_sites=n, hamiltonian=hs, gamma1=0.2, gamma2star=0.15)
    t = np.linspace(0.0, 8.0, 81)
    c_ops = [jw_fermion(i, n) for i in range(n)]
    psi = c_ops[1].conj().T[:, 0]
    rhos = lindblad_evolve(gen, np.outer(psi, psi.conj()), t)
    ref = np.einsum("kab,iba->ki", rhos, [c.conj().T @ c for c in c_ops]).real
    got = qme.lindblad_occupations(h, 0.2, 0.15, 1, t)
    assert np.max(np.abs(got - ref)) <= 1e-12

    with pytest.raises(ValueError, match="nonnegative"):
        qme.lindblad_occupations(h, 0.1, -0.1, 0, t)


def test_eigen_route_matches_stepping_oracle():
    # the one-eigendecomposition resolvent sums against expm warmup plus one
    # direct linear solve per frequency, on every secular / Lamb-shift variant.
    # The slowest decay rate is 6.5e-3, so the oracle's warmup of 6000 leaves
    # its slow modes below roundoff (3000 left 3.4e-11): measured 6e-14 to
    # 2e-13 of max|G^R|
    n = 3
    h = build_chain(n, 0.2, 1.0, boundary="open")
    bath = OhmicBath(alpha=0.05, cutoff=2.0, temperature=0.3)
    grid = FreqGrid(-3.0, 3.0, 241)
    sites = (2, 0, 1)
    for secular in (False, True):
        for lamb_shift in (True, False):
            gen = qme.bloch_redfield_generator(h, [bath] * n, secular=secular,
                                               lamb_shift=lamb_shift)
            got = qme.qme_greens(gen, sites, grid)
            rho = steady_state(gen, np.eye(2**n) / 2**n, 6000.0)
            ref = resolvent_greens(gen, rho, sites, grid)
            scale = np.max(np.abs(ref.retarded))
            for name, component in _COMPONENTS:
                err = np.max(np.abs(component(got) - component(ref))) / scale
                assert err <= 1e-12, (secular, lamb_shift, name, err)

    # a Jordan block has no eigenbasis: refused, naming the conditioning;
    # the two-site (1, 1) sector block is the first one larger than 1 x 1
    def jordan(n_bra, n_ket):
        size = math.comb(2, n_bra) * math.comb(2, n_ket)
        return -np.eye(size) + np.diag(np.ones(size - 1), 1)

    bases = sector_bases(2)
    stub = SimpleNamespace(n_sites=2, bases=bases, transforms=[np.eye(b.size) for b in bases],
                           labels=[np.zeros(b.size, dtype=int) for b in bases], eigen_block=jordan)
    with pytest.raises(np.linalg.LinAlgError, match=r"block \(1, 1\).*cond\(V\)"):
        qme.qme_greens(stub, (0,), grid)


def test_stationary_blocks_are_zero_modes():
    # each (k, k) block of the steady state is annihilated by its generator
    # block to roundoff (measured 1.2e-16) and keeps the identity state's
    # trace d_k / 2^N (measured 1.2e-13, from inverting fig2-upper's
    # eigenvectors at cond(V) 123), on fig2-upper and every n = 3 secular /
    # Lamb-shift variant
    plan = _fig2_upper_plan()
    h = build_chain(3, 0.2, 1.0, boundary="open")
    bath = OhmicBath(alpha=0.05, cutoff=2.0, temperature=0.3)
    gens = [qme.bloch_redfield_generator(plan.h, plan.site_baths)]
    gens += [qme.bloch_redfield_generator(h, [bath] * 3, secular=secular, lamb_shift=lamb_shift)
             for secular in (False, True) for lamb_shift in (True, False)]
    for gen in gens:
        n = gen.n_sites
        rho = qme._stationary_state(gen)
        for k, basis in enumerate(gen.bases):
            block = gen.transforms[k] @ rho[k] @ gen.transforms[k].conj().T
            residual = np.max(np.abs(gen.block(k, k) @ block.reshape(-1)))
            assert residual <= 1e-14, (n, k, residual)
            assert abs(np.trace(block) - basis.size / 2**n) <= 1e-12, (n, k)


def test_gap_table_shared_across_equal_baths(monkeypatch):
    # one gap table per distinct bath, and lambda_ops bit-identical to
    # building each site's bath on its own, with and without Lamb shifts
    tables = []
    monkeypatch.setattr(qme, "half_transform",
                        lambda bath, gaps: tables.append(bath) or half_transform(bath, gaps))
    cold = OhmicBath(alpha=0.002, cutoff=4.0, temperature=0.2)
    hot = OhmicBath(alpha=0.01, cutoff=2.0, temperature=1.0)
    for n, lamb_shift in ((5, False), (5, True)):
        h = build_chain(n, 0.0, 1.0)

        def single(i, bath):
            baths = [None] * n
            baths[i] = bath
            return qme.bloch_redfield_generator(h, baths, lamb_shift=lamb_shift).lambda_ops[0]

        refs = {(i, b): single(i, b) for i in range(n) for b in (cold, hot)}
        mixed = ([cold, hot, None] + [cold, hot])[:n]
        equal = [OhmicBath(alpha=0.002, cutoff=4.0, temperature=0.2) for _ in range(n)]
        for baths, n_tables in (([cold] * n, 1), (equal, 1), (mixed, 2)):
            tables.clear()
            gen = qme.bloch_redfield_generator(h, baths, lamb_shift=lamb_shift)
            want = [refs[(i, b)] for i, b in enumerate(baths) if b is not None]
            assert len(gen.lambda_ops) == len(want)
            for got, ref in zip(gen.lambda_ops, want):
                assert len(got) == len(ref) == n + 1  # one block per sector
                for got_k, ref_k in zip(got, ref):
                    assert np.array_equal(got_k, ref_k)
            assert len(tables) == (n_tables if lamb_shift else 0)


def _fig2_upper_plan():
    return _Plan(config_from_dict(preset_config("fig2-upper")))


def test_half_transform_matches_tight_quad():
    # the Gauss-Legendre panels against adaptive quadrature run to 1e-13 with
    # the kink at nu = 0 and the gap as breakpoints, on the 13 distinct
    # fig2-upper gaps: measured 4.7e-16 of max|PV|, bound 2e-15. The quad
    # the table used to run (default tolerance, no kink) was off by 2.1e-7
    plan = _fig2_upper_plan()
    bath = plan.site_baths[0]
    half = bath.support
    energies = [np.linalg.eigvalsh(sector_hamiltonian(plan.h, basis))
                for basis in sector_bases(plan.h.n_sites)]
    keys = np.unique(np.round(np.concatenate([np.subtract.outer(e, e).ravel()
                                              for e in energies]), 12))
    assert keys.size == 13
    ref = []
    for key in keys:
        c_key = float(noise_power(bath, key))

        def regular(nu, key=key, c_key=c_key):
            return 0.0 if nu == key else (float(noise_power(bath, nu)) - c_key) / (key - nu)

        pv, _ = quad(regular, -half, half, points=sorted({0.0, key}), limit=2000,
                     epsabs=1e-13, epsrel=1e-13)
        pv += c_key * np.log(abs((key + half) / (half - key)))
        ref.append(0.5 * c_key - 1j * pv / (2.0 * np.pi))
    ref = np.array(ref)
    got = half_transform(bath, keys)
    assert np.max(np.abs(got - ref)) <= 2e-15 * np.max(np.abs(ref.imag))


def test_expm_matches_scipy():
    # the Pade scaling-and-squaring port against scipy's expm, relative to
    # max|exp|: the lindblad_occupations generators at N = 5, 20 and 40 on
    # fig4-bottom's step (measured 1.1e-16 to 3.4e-16), the fig2-upper (1, 1)
    # Redfield block on that step and on a degree-13 step halved and squared
    # (4.4e-16, 1.3e-15), and a dephased dimer at its exceptional point, where
    # cond(V) of the generator is 6.5e7 and an eigendecomposition step is off
    # by 9.0e-10 (1.1e-16). Bound 4e-15 on all
    generators = []
    capture = lambda lv, v, t_grid, keep: generators.append(lv) or v[None, keep]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qme, "_propagate", capture)
        for n in (5, 20, 40):
            qme.lindblad_occupations(build_chain(n, 0.0, 1.0), 0.25, 0.0, 0, [0.0])
        qme.lindblad_occupations(build_chain(2, 0.0, 1.0, boundary="open"), 0.0, 1.0, 0, [0.0])
        dimer = generators.pop()
    steps = [lv * 0.04 for lv in generators]
    plan = _fig2_upper_plan()
    block = qme.bloch_redfield_generator(plan.h, plan.site_baths).block(1, 1)
    steps += [block * 0.04, block * 10.0, dimer * 0.1]
    assert np.linalg.norm(block * 10.0, 1) > 5.371920351148152  # beyond theta_13
    assert np.linalg.cond(np.linalg.eig(dimer)[1]) > 1e7
    for a in steps:
        ref = sla.expm(a)
        assert np.max(np.abs(qme._expm(a) - ref)) <= 4e-15 * np.max(np.abs(ref))


def test_lindblad_trajectory_peak_within_memory_rule():
    # the harness admits lindblad trajectories of N sites over n_t times at
    # 160 N^4 + 16 n_t N^2 bytes; a 20-site run peaks at 0.70 of that on
    # fig4-bottom's step (Pade degree 5) and at 0.90 on steps of degree 9 and 13
    n, n_t = 20, 11
    h = build_chain(n, 0.0, 1.0)
    for dt in (0.04, 0.5, 2.0):
        tracemalloc.start()
        try:
            qme.lindblad_occupations(h, 0.25, 0.1, 0, np.arange(n_t) * dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 160 * n**4 + 16 * n_t * n**2, dt


def test_sector_generator_matches_global_eigenbasis_oracle():
    # the per-sector build from bitstrings, assembled, against one global
    # eigh of the Kronecker-built register, a 4^N gap table and a 4^N kron
    # sum, on every secular / Lamb-shift variant; entries between different
    # particle-number sectors are exactly zero
    bath = OhmicBath(alpha=0.05, cutoff=2.0, temperature=0.3)
    plan = _fig2_upper_plan()
    for h, baths in ((build_chain(3, 0.2, 1.0, boundary="open"), [bath] * 3),
                     (plan.h, plan.site_baths)):
        n = h.n_sites
        number = np.array([bin(i).count("1") for i in range(2**n)])
        sector = (number[:, None] * (n + 1) + number[None, :]).reshape(-1)
        across = sector[:, None] != sector[None, :]
        for secular in (False, True):
            for lamb_shift in (True, False):
                gen = qme.bloch_redfield_generator(h, baths, secular=secular,
                                                   lamb_shift=lamb_shift)
                got = assembled_superoperator(gen)
                ref = global_redfield_superoperator(h, baths, secular=secular,
                                                    lamb_shift=lamb_shift)
                err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
                assert err <= 1e-12, (n, secular, lamb_shift, err)
                assert not np.any(got[across])


def test_spectra_never_build_the_full_generator(monkeypatch):
    # fig2-upper spectra come from the 2N + 1 sector blocks that regression
    # reaches, (k, k) and (k + 1, k), each built once in the sector
    # eigenbases; no 4^N matrix. On the ring every block splits into five
    # momentum-transfer groups, so no eigendecomposition exceeds 20 x 20; on
    # an open chain the largest is a whole 100 x 100 block
    calls, sizes = [], []
    block = qme.BlochRedfieldGenerator.eigen_block
    monkeypatch.setattr(qme.BlochRedfieldGenerator, "eigen_block",
                        lambda self, *key: calls.append(key) or block(self, *key))
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: sizes.append(a.shape) or eig(a))
    plan = _fig2_upper_plan()
    grid = FreqGrid(-3.0, 3.0, 201)
    n = plan.h.n_sites
    open_chain = build_chain(n, 0.0, 1.0, boundary="open")
    for h, largest in ((plan.h, 20), (open_chain, 100)):
        gen = qme.bloch_redfield_generator(h, plan.site_baths)
        calls.clear()
        sizes.clear()
        got = qme.qme_greens(gen, (0, 1), grid)
        assert sorted(calls) == sorted([(k, k) for k in range(n + 1)]
                                       + [(k + 1, k) for k in range(n)])
        assert max(sizes) == (largest, largest)
        assert got.retarded.shape == (grid.n_points, 2, 2)
        assert np.all(np.isfinite(got.retarded)) and np.all(np.isfinite(got.keldysh))


def _ring_generators():
    # rings of 2 to 5 sites, one bath on every site, every secular /
    # Lamb-shift variant: every sector block splits into momentum groups
    bath = OhmicBath(alpha=0.05, cutoff=2.0, temperature=0.3)
    for n in range(2, 6):
        for secular in (False, True):
            for lamb_shift in (True, False):
                yield qme.bloch_redfield_generator(build_chain(n, 0.2, 1.0), [bath] * n,
                                                   secular=secular, lamb_shift=lamb_shift)


def test_momentum_groups_match_whole_blocks():
    # one eigendecomposition per momentum-transfer group against the same
    # generator with every label zeroed, one per whole sector block, on
    # G^R and G^K of every pair, (0, 2) included, relative to each pair's
    # max|G|: measured 9.7e-16 to 3.2e-14
    grid = FreqGrid(-3.0, 3.0, 241)
    for gen in _ring_generators():
        assert any(np.any(labels) for labels in gen.labels)
        whole = replace(gen, labels=[np.zeros_like(labels) for labels in gen.labels])
        sites = (0, 1, 2)[:gen.n_sites]
        got, ref = qme.qme_greens(gen, sites, grid), qme.qme_greens(whole, sites, grid)
        for name, component in _COMPONENTS[:2]:
            for i in range(len(sites)):
                for j in range(len(sites)):
                    want = component(ref)[:, i, j]
                    err = np.max(np.abs(component(got)[:, i, j] - want)) / np.max(np.abs(want))
                    assert err <= 1e-12, (gen.n_sites, name, (i, j), err)


def test_generator_conserves_momentum_transfer():
    # entries of the (k, k) and (k + 1, k) eigenbasis blocks between
    # coherences of different momentum transfer are roundoff: measured at
    # most 5.6e-18 of the block's 1-norm, on the rings above and fig2-upper
    plan = _fig2_upper_plan()
    gens = list(_ring_generators()) + [qme.bloch_redfield_generator(plan.h, plan.site_baths)]
    for gen in gens:
        n = gen.n_sites
        for key in [(k, k) for k in range(n + 1)] + [(k + 1, k) for k in range(n)]:
            lv = gen.eigen_block(*key)
            transfer = ((gen.labels[key[0]][:, None] - gen.labels[key[1]][None, :]) % n).ravel()
            across = transfer[:, None] != transfer[None, :]
            if np.any(across):
                assert np.max(np.abs(lv[across])) <= 1e-15 * np.linalg.norm(lv, 1), (n, key)


def _phase_ring():
    # five-site ring with a hopping phase of 0.7 on the wrap bond and random
    # on-site energies: complex entries and every Jordan-Wigner sign
    m = build_chain(5, 0.0, 1.0).matrix.astype(complex)
    m[0, 4] *= np.exp(0.7j)
    m[4, 0] = np.conj(m[0, 4])
    m[np.diag_indices(5)] = np.random.default_rng(7).normal(size=5)
    return HoppingHamiltonian(5, m)


def test_sectors_and_fermions_are_register_slices():
    # the bitstring builds against the Kronecker-built register, bit for bit
    chains = [build_chain(n, 0.3, 1.0, boundary) for n in range(1, 6)
              for boundary in ("open", "periodic")]
    for h in chains + [_phase_ring()]:
        n = h.n_sites
        hs = spin_hamiltonian(h)
        bases = sector_bases(n)
        assert sum(b.size for b in bases) == 2**n
        for basis in bases:
            assert np.array_equal(sector_hamiltonian(h, basis), hs[np.ix_(basis, basis)])
        # the Slater sectors: the same register indices, and orthonormal
        # eigenvectors of each sector's Hamiltonian (measured 7.1e-16 and 3.1e-15)
        for got, e, v, basis in zip(*qme._slater_sectors(h, False)[:3], bases):
            assert np.array_equal(got, basis)
            assert np.max(np.abs(sector_hamiltonian(h, basis) @ v - v * e)) <= 1e-14
            assert np.max(np.abs(v.conj().T @ v - np.eye(basis.size))) <= 1e-14
        for p in range(n):
            assert np.array_equal(qme._annihilator(p, n), jw_fermion(p, n))


def test_redfield_occupations_match_register_route():
    # the (1, 1) block against the 4^N generator stepped from c_s^dag|0>,
    # from every start site, on an open chain and on fig2-upper's ring
    plan = _fig2_upper_plan()
    bath = OhmicBath(alpha=0.05, cutoff=2.0, temperature=0.3)
    t = np.linspace(0.0, 8.0, 41)
    for h, baths in ((build_chain(3, 0.2, 1.0, boundary="open"), [bath] * 3),
                     (plan.h, plan.site_baths)):
        n = h.n_sites
        cs = [jw_fermion(i, n) for i in range(n)]
        kets = [c.conj().T[:, 0] for c in cs]
        starts = np.stack([np.outer(k, k.conj()) for k in kets])
        numbers = [c.conj().T @ c for c in cs]
        for secular in (False, True):
            gen = qme.bloch_redfield_generator(h, baths, secular=secular)
            rhos = lindblad_evolve(gen, starts, t)
            for s in range(n):
                ref = np.einsum("kab,iba->ki", rhos[:, s], numbers).real
                got = qme.redfield_occupations(gen, s, t)
                assert got.shape == (t.size, n)
                err = np.max(np.abs(got - ref))
                assert err <= 1e-12, (n, secular, s, err)
    with pytest.raises(ValueError, match="outside chain"):
        qme.redfield_occupations(gen, n, t)


def test_exact_tls_rabi():
    h = build_chain(1, 1.0, 0.0, boundary="open")
    bath = TlsBath(levels=((1.0, 0.2),))
    t = np.linspace(0.0, 10.0, 201)
    occ = qme.exact_tls_evolve(h, [bath], 0, t)
    assert occ.shape == (t.size, 2)
    assert np.max(np.abs(occ[:, 0] - np.cos(0.2 * t) ** 2)) < 1e-10
    # single excitation: the total is conserved exactly
    assert np.max(np.abs(occ.sum(axis=1) - 1.0)) < 1e-12


def test_exact_tls_rejects_multi_excitation():
    # the one excitation must start on a chain site; refused before any solve
    h = build_chain(2, 1.0, 0.0, boundary="open")
    for site in (-1, 2):
        with pytest.raises(ValueError, match="outside chain"):
            qme.exact_tls_evolve(h, [TlsBath(levels=()), TlsBath(levels=())], site,
                                 np.linspace(0.0, 1.0, 11))


def test_generator_validation():
    with pytest.raises(ValueError):
        LindbladGenerator(n_sites=2, hamiltonian=np.zeros((2, 2)),
                          gamma1=0.1, gamma2star=0.0)
    with pytest.raises(ValueError):
        LindbladGenerator(n_sites=2, hamiltonian=np.zeros((4, 4)),
                          gamma1=-0.1, gamma2star=0.0)
    with pytest.raises(ValueError):
        LindbladGenerator(n_sites=2, hamiltonian=np.zeros((4, 4)),
                          gamma1=np.array([0.1, 0.2, 0.3]), gamma2star=0.0)


def test_evolve_validates_state_and_grid():
    gen = LindbladGenerator(n_sites=1, hamiltonian=np.zeros((2, 2)),
                            gamma1=0.1, gamma2star=0.0)
    good = np.eye(2) / 2.0
    with pytest.raises(ValueError, match="hermitian"):
        lindblad_evolve(gen, np.array([[0.5, 0.3], [0.0, 0.5]]), np.linspace(0, 1, 5))
    with pytest.raises(ValueError, match="trace"):
        lindblad_evolve(gen, 2.0 * good, np.linspace(0, 1, 5))
    with pytest.raises(ValueError, match="uniform"):
        lindblad_evolve(gen, good, np.array([0.0, 0.1, 0.3]))


def test_register_capacity_guards():
    with pytest.raises(CapacityError):
        qme.bloch_redfield_generator(build_chain(6, 1.0, 0.5),
                                     [FlatNoise(level=0.1, halfwidth=1e6)] * 6)
    with pytest.raises(CapacityError):
        jw_fermion(0, 13)


@settings(max_examples=10, deadline=None)
@given(
    onsite=st.floats(min_value=-1.0, max_value=1.0),
    hopping=st.floats(min_value=0.0, max_value=1.0),
    gamma1=st.floats(min_value=0.0, max_value=0.5),
    gamma2star=st.floats(min_value=0.0, max_value=0.5),
)
def test_evolution_preserves_state_structure(onsite, hopping, gamma1, gamma2star):
    h = build_chain(2, onsite, hopping)
    gen = LindbladGenerator(n_sites=2, hamiltonian=spin_hamiltonian(h),
                            gamma1=gamma1, gamma2star=gamma2star)
    rho0 = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    rhos = lindblad_evolve(gen, rho0, np.linspace(0.0, 3.0, 16))
    for rho in rhos:
        assert abs(np.trace(rho).real - 1.0) < 1e-9
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-9
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-8
