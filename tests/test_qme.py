"""Spin-register master equations and the exact few-level reference."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from noisychain import qme
from noisychain.baths import FlatNoise, OhmicBath, TlsBath
from noisychain.errors import CapacityError
from noisychain.harness import _Plan, config_from_dict
from noisychain.lattice import FreqGreens, FreqGrid, build_chain
from noisychain.presets import preset_config

from register_oracle import (
    LindbladGenerator,
    global_redfield_superoperator,
    null_steady_state,
    regression_correlator,
    resolvent_greens,
    steady_state,
)


def test_fermion_anticommutators():
    n = 4
    dim = 2**n
    ops = [qme.jw_fermion(i, n) for i in range(n)]
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
    many = np.linalg.eigvalsh(qme.spin_hamiltonian(h))
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
    rhos = qme.lindblad_evolve(gen, plus, t)
    coh = rhos[:, 0, 1].real
    assert np.max(np.abs(coh - 0.5 * np.exp(-0.3 * t))) < 1e-10


def test_single_site_decay_rates():
    # excited population decays at gamma1, coherence at gamma1/2
    gen = LindbladGenerator(n_sites=1, hamiltonian=np.zeros((2, 2)),
                            gamma1=0.4, gamma2star=0.0)
    rho0 = np.array([[0.3, 0.4], [0.4, 0.7]], dtype=complex)
    t = np.linspace(0.0, 5.0, 26)
    rhos = qme.lindblad_evolve(gen, rho0, t)
    assert np.max(np.abs(rhos[:, 1, 1].real - 0.7 * np.exp(-0.4 * t))) < 1e-10
    assert np.max(np.abs(rhos[:, 0, 1] - 0.4 * np.exp(-0.2 * t))) < 1e-10


def test_zero_rates_reduce_to_unitary():
    h = build_chain(3, 0.5, 1.0)
    hs = qme.spin_hamiltonian(h)
    gen = LindbladGenerator(n_sites=3, hamiltonian=hs, gamma1=0.0, gamma2star=0.0)
    rng = np.random.default_rng(3)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho0 = m @ m.conj().T
    rho0 /= np.trace(rho0).real
    t_grid = np.linspace(0.0, 4.0, 41)
    rhos = qme.lindblad_evolve(gen, rho0, t_grid)
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
    br = qme.bloch_redfield_generator(h, FlatNoise(level=level, halfwidth=1e8))
    lb = LindbladGenerator(n_sites=2, hamiltonian=qme.spin_hamiltonian(h),
                           gamma1=0.0, gamma2star=level / 2.0)
    assert np.max(np.abs(br.superoperator() - lb.superoperator())) < 1e-8


def test_steady_state_routes_agree():
    gen = LindbladGenerator(
        n_sites=2, hamiltonian=qme.spin_hamiltonian(build_chain(2, 0.5, 0.6)),
        gamma1=0.3, gamma2star=0.1)
    rho_w = steady_state(gen, np.eye(4) / 4.0, warmup_time=80.0)
    rho_n, ev = null_steady_state(gen)
    assert abs(ev) < 1e-10
    assert np.max(np.abs(rho_w - rho_n)) < 1e-8
    # decay-only fixed point is the vacuum
    assert rho_n[0, 0].real == pytest.approx(1.0, abs=1e-8)


def test_regression_correlator_equal_time():
    gen = LindbladGenerator(
        n_sites=2, hamiltonian=qme.spin_hamiltonian(build_chain(2, 0.5, 0.6)),
        gamma1=0.0, gamma2star=0.25)
    rho_ss, _ = null_steady_state(gen)
    a = qme.jw_fermion(0, 2)
    b = a.conj().T
    tau = np.linspace(0.0, 2.0, 21)
    fwd, rev = regression_correlator(gen, rho_ss, a, b, tau)
    direct = np.trace(a @ b @ rho_ss)
    assert fwd[0] == pytest.approx(direct, abs=1e-12)
    assert rev[0] == pytest.approx(direct, abs=1e-12)


def test_regression_correlator_needs_zero_start():
    gen = LindbladGenerator(n_sites=1, hamiltonian=np.zeros((2, 2)),
                            gamma1=0.1, gamma2star=0.0)
    a = qme.jw_fermion(0, 1)
    with pytest.raises(ValueError):
        regression_correlator(gen, np.eye(2) / 2.0, a, a.conj().T,
                                  np.linspace(1.0, 2.0, 11))


def test_dephased_site_line_shape():
    # single dephased level: line at the onsite energy, hermitian spectral
    # weight, near-unit weight (the Lorentzian tails past the grid eat a few
    # percent); white noise at 0.4 is pure dephasing at gamma2star = 0.2
    h = build_chain(1, 1.0, 0.0, boundary="open")
    gen = qme.bloch_redfield_generator(h, FlatNoise(level=0.4, halfwidth=1e8))
    grid = FreqGrid(-1.0, 3.0, 2001)
    gg = qme.qme_greens(gen, (0, 0), 50.0, grid)
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
    hs = qme.spin_hamiltonian(h)
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
    c_ops = [qme.jw_fermion(i, n) for i in range(n)]
    psi = c_ops[1].conj().T[:, 0]
    rhos = qme.lindblad_evolve(gen, np.outer(psi, psi.conj()), t)
    ref = np.einsum("kab,iba->ki", rhos, [c.conj().T @ c for c in c_ops]).real
    got = qme.lindblad_occupations(h, 0.2, 0.15, 1, t)
    assert np.max(np.abs(got - ref)) <= 1e-12

    with pytest.raises(ValueError, match="nonnegative"):
        qme.lindblad_occupations(h, 0.1, -0.1, 0, t)


def test_eigen_route_matches_stepping_oracle():
    # the one-eigendecomposition resolvent sums against expm warmup plus one
    # direct linear solve per frequency, on every secular / Lamb-shift variant
    n = 3
    h = build_chain(n, 0.2, 1.0, boundary="open")
    bath = OhmicBath(alpha=0.05, cutoff=2.0, temperature=0.3)
    grid = FreqGrid(-3.0, 3.0, 241)
    sites = (2, 0, 1)
    for secular in (False, True):
        for lamb_shift in (True, False):
            gen = qme.bloch_redfield_generator(h, bath, secular=secular, lamb_shift=lamb_shift)
            got = qme.qme_greens(gen, sites, 3000.0, grid)
            rho = steady_state(gen, np.eye(2**n) / 2**n, 3000.0)
            ref = resolvent_greens(gen, rho, sites, grid)
            scale = np.max(np.abs(ref.retarded))
            for name, component in _COMPONENTS:
                err = np.max(np.abs(component(got) - component(ref))) / scale
                assert err <= 1e-10, (secular, lamb_shift, name, err)

    # a Jordan block has no eigenbasis: refused, naming the conditioning;
    # the two-site (1, 1) sector block is the first one larger than 1 x 1
    def jordan(n_bra, n_ket):
        size = math.comb(2, n_bra) * math.comb(2, n_ket)
        return -np.eye(size) + np.diag(np.ones(size - 1), 1)

    stub = SimpleNamespace(n_sites=2, block=jordan)
    with pytest.raises(np.linalg.LinAlgError, match=r"block \(1, 1\).*cond\(V\)"):
        qme.qme_greens(stub, (0,), 1.0, grid)


def test_gap_table_shared_across_equal_baths(monkeypatch):
    # one gap table per distinct bath, and lambda_ops bit-identical to
    # building each site's bath on its own; the half transforms are costly
    # at N = 5, so the Lamb-shifted tables run on N = 3
    tables = []
    half_transform = qme._half_transform
    monkeypatch.setattr(qme, "_half_transform",
                        lambda bath, gaps: tables.append(bath) or half_transform(bath, gaps))
    cold = OhmicBath(alpha=0.002, cutoff=4.0, temperature=0.2)
    hot = OhmicBath(alpha=0.01, cutoff=2.0, temperature=1.0)
    for n, lamb_shift in ((5, False), (3, True)):
        h = build_chain(n, 0.0, 1.0)

        def single(i, bath):
            baths = [None] * n
            baths[i] = bath
            return qme.bloch_redfield_generator(h, baths, lamb_shift=lamb_shift).lambda_ops[0]

        refs = {(i, b): single(i, b) for i in range(n) for b in (cold, hot)}
        mixed = ([cold, hot, None] + [cold, hot])[:n]
        equal = [OhmicBath(alpha=0.002, cutoff=4.0, temperature=0.2) for _ in range(n)]
        for baths, n_tables in ((cold, 1), (equal, 1), (mixed, 2)):
            tables.clear()
            gen = qme.bloch_redfield_generator(h, baths, lamb_shift=lamb_shift)
            per_site = baths if isinstance(baths, list) else [baths] * n
            want = [refs[(i, b)] for i, b in enumerate(per_site) if b is not None]
            assert len(gen.lambda_ops) == len(want)
            for got, ref in zip(gen.lambda_ops, want):
                assert len(got) == len(ref) == n + 1  # one block per sector
                for got_k, ref_k in zip(got, ref):
                    assert np.array_equal(got_k, ref_k)
            assert len(tables) == (n_tables if lamb_shift else 0)


def _fig2_upper_plan():
    return _Plan(config_from_dict(preset_config("fig2-upper")))


def test_sector_generator_matches_global_eigenbasis_oracle():
    # the per-sector build against one global eigh, 4^N gap table and 4^N
    # kron sum, on every secular / Lamb-shift variant; entries between
    # different particle-number sectors are exactly zero
    bath = OhmicBath(alpha=0.05, cutoff=2.0, temperature=0.3)
    plan = _fig2_upper_plan()
    for h, baths in ((build_chain(3, 0.2, 1.0, boundary="open"), bath),
                     (plan.h, plan.site_baths)):
        n = h.n_sites
        number = np.array([bin(i).count("1") for i in range(2**n)])
        sector = (number[:, None] * (n + 1) + number[None, :]).reshape(-1)
        across = sector[:, None] != sector[None, :]
        for secular in (False, True):
            for lamb_shift in (True, False):
                gen = qme.bloch_redfield_generator(h, baths, secular=secular,
                                                   lamb_shift=lamb_shift)
                got = gen.superoperator()
                ref = global_redfield_superoperator(h, baths, secular=secular,
                                                    lamb_shift=lamb_shift)
                err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
                assert err <= 1e-12, (n, secular, lamb_shift, err)
                assert not np.any(got[across])


def test_spectra_never_build_the_full_generator(monkeypatch):
    # fig2-upper spectra come from sector blocks alone
    def refuse(self):
        raise AssertionError("4^N superoperator built on the spectra path")

    monkeypatch.setattr(qme.BlochRedfieldGenerator, "superoperator", refuse)
    plan = _fig2_upper_plan()
    gen = qme.bloch_redfield_generator(plan.h, plan.site_baths)
    grid = FreqGrid(-3.0, 3.0, 201)
    got = qme.qme_greens(gen, (0, 1), plan.cfg.qme.warmup_time, grid)
    assert got.retarded.shape == (grid.n_points, 2, 2)
    assert np.all(np.isfinite(got.retarded)) and np.all(np.isfinite(got.keldysh))


def test_exact_tls_rabi():
    h = build_chain(1, 1.0, 0.0, boundary="open")
    bath = TlsBath(levels=((1.0, 0.2),))
    t = np.linspace(0.0, 10.0, 201)
    traj = qme.exact_tls_evolve(h, [bath], 0, t)
    assert np.max(np.abs(traj.qubit_occupations[:, 0] - np.cos(0.2 * t) ** 2)) < 1e-10
    # single excitation: the total is conserved exactly
    assert np.max(np.abs(traj.total - 1.0)) < 1e-12


def test_exact_tls_rejects_multi_excitation():
    from noisychain.kbe import InitialState

    h = build_chain(2, 1.0, 0.0, boundary="open")
    # preparation hamiltonian -1 everywhere: a sharp Fermi sea fills both sites
    ini = InitialState(ini_matrix=-np.eye(2))
    with pytest.raises(ValueError, match="single-excitation"):
        qme.exact_tls_evolve(h, [TlsBath(levels=()), TlsBath(levels=())], ini,
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
        qme.lindblad_evolve(gen, np.array([[0.5, 0.3], [0.0, 0.5]]), np.linspace(0, 1, 5))
    with pytest.raises(ValueError, match="trace"):
        qme.lindblad_evolve(gen, 2.0 * good, np.linspace(0, 1, 5))
    with pytest.raises(ValueError, match="uniform"):
        qme.lindblad_evolve(gen, good, np.array([0.0, 0.1, 0.3]))


def test_register_capacity_guards():
    with pytest.raises(CapacityError):
        qme.bloch_redfield_generator(build_chain(6, 1.0, 0.5),
                                     FlatNoise(level=0.1, halfwidth=1e6))
    with pytest.raises(CapacityError):
        qme.jw_fermion(0, 13)


@settings(max_examples=10, deadline=None)
@given(
    onsite=st.floats(min_value=-1.0, max_value=1.0),
    hopping=st.floats(min_value=0.0, max_value=1.0),
    gamma1=st.floats(min_value=0.0, max_value=0.5),
    gamma2star=st.floats(min_value=0.0, max_value=0.5),
)
def test_evolution_preserves_state_structure(onsite, hopping, gamma1, gamma2star):
    h = build_chain(2, onsite, hopping)
    gen = LindbladGenerator(n_sites=2, hamiltonian=qme.spin_hamiltonian(h),
                            gamma1=gamma1, gamma2star=gamma2star)
    rho0 = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    rhos = qme.lindblad_evolve(gen, rho0, np.linspace(0.0, 3.0, 16))
    for rho in rhos:
        assert abs(np.trace(rho).real - 1.0) < 1e-9
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-9
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-8
