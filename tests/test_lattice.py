"""Chain Hamiltonians, frequency grids, and the bath-free Green functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisychain.lattice import (
    EigenDecomposition,
    FreqGrid,
    FreqGreens,
    HoppingHamiltonian,
    build_chain,
    diagonalize,
    fermi_occupation,
    ideal_greens,
    thermal_factor,
)


def test_ring_spectrum_matches_cosine_band():
    # 4-site ring at half hopping t = g/2: energies g*cos(2*pi*j/4)
    h = build_chain(4, 0.0, 1.0)
    eig = diagonalize(h)
    assert np.allclose(np.sort(eig.energies), [-1.0, 0.0, 0.0, 1.0], atol=1e-12)

    h = build_chain(4, 1.0, 1.0)
    eig = diagonalize(h)
    assert np.allclose(np.sort(eig.energies), [0.0, 1.0, 1.0, 2.0], atol=1e-12)


def test_ring_spectrum_eight_sites():
    h = build_chain(8, 2.0, 1.0)
    expected = np.sort(2.0 + np.cos(2.0 * np.pi * np.arange(8) / 8))
    assert np.allclose(np.sort(diagonalize(h).energies), expected, atol=1e-12)


def test_open_chain_spectrum():
    n = 5
    h = build_chain(n, 0.7, 1.2, boundary="open")
    j = np.arange(1, n + 1)
    expected = np.sort(0.7 + 1.2 * np.cos(np.pi * j / (n + 1)))
    assert np.allclose(np.sort(diagonalize(h).energies), expected, atol=1e-12)


def test_small_ring_edge_cases():
    # single-site ring folds the bond back onto the diagonal
    h1 = build_chain(1, 0.5, 0.8)
    assert h1.matrix[0, 0] == pytest.approx(0.5 + 0.8)
    # two-site ring doubles the single bond
    h2 = build_chain(2, 0.0, 0.8)
    assert np.allclose(np.sort(diagonalize(h2).energies), [-0.8, 0.8], atol=1e-12)


def test_nonhermitian_matrix_rejected():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="hermitian"):
        HoppingHamiltonian(2, m)


def test_bad_boundary_rejected():
    with pytest.raises(ValueError, match="boundary"):
        build_chain(3, 0.0, 1.0, boundary="twisted")


def test_freq_grid_validation():
    with pytest.raises(ValueError):
        FreqGrid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        FreqGrid(1.0, 1.0, 11)
    with pytest.raises(ValueError, match="eta"):
        FreqGrid(0.0, 1.0, 11, eta=0.05)  # spacing 0.1, needs >= 0.2


def test_freq_grid_defaults():
    grid = FreqGrid(-1.0, 1.0, 201)
    assert grid.spacing == pytest.approx(0.01)
    assert grid.eta == pytest.approx(4.0 * grid.spacing)
    assert grid.omegas[0] == -1.0 and grid.omegas[-1] == 1.0


def test_free_resolvent_pole():
    # lone level at zero: G+(0) = -i/eta
    h = build_chain(1, 0.0, 0.0, boundary="open")
    grid = FreqGrid(-1.0, 1.0, 401, eta=0.02)
    g = ideal_greens(h, 1.0, grid)
    i0 = grid.n_points // 2
    assert g.retarded[i0, 0, 0] == pytest.approx(-1j / 0.02, rel=1e-12)


def test_free_spectral_sum_rule():
    h = build_chain(3, 0.0, 1.0)
    grid = FreqGrid(-8.0, 8.0, 4001)
    g = ideal_greens(h, 2.0, grid)
    spectral = 1j * (g.retarded - g.advanced)
    for i in range(3):
        norm = np.trapezoid(spectral[:, i, i].real, grid.omegas) / (2.0 * np.pi)
        assert norm == pytest.approx(1.0, abs=0.02)


def test_thermal_factor_identities():
    w = np.linspace(-3.0, 3.0, 11)
    tf = thermal_factor(w, 2.5)
    assert np.allclose(tf, np.tanh(1.25 * w))
    assert np.allclose(fermi_occupation(w, 2.5), 0.5 * (1.0 - tf))
    # zero temperature limit is the step function
    assert np.allclose(thermal_factor(w, np.inf), np.sign(w))
    with pytest.raises(ValueError):
        thermal_factor(w, 0.0)
    with pytest.raises(ValueError):
        thermal_factor(w, -1.0)


def test_diagonalize_gauge_is_deterministic():
    h = build_chain(6, 1.0, 0.7)
    a = diagonalize(h)
    b = diagonalize(h)
    assert np.array_equal(a.transform, b.transform)
    # pinned gauge: the dominant component of each eigenvector is real positive
    for k in range(6):
        idx = int(np.argmax(np.abs(a.transform[:, k])))
        pivot = a.transform[idx, k]
        assert abs(pivot.imag) < 1e-14 and pivot.real > 0


def test_eigendecomposition_reconstructs():
    h = build_chain(5, 0.3, 0.9, boundary="open")
    eig = diagonalize(h)
    u = eig.transform
    assert np.max(np.abs((u * eig.energies) @ u.conj().T - h.matrix)) < 1e-12


def test_freq_greens_shape_checks():
    grid = FreqGrid(0.0, 1.0, 11)
    zeros = np.zeros((11, 2, 2), dtype=complex)
    with pytest.raises(ValueError):
        FreqGreens(grid=grid, retarded=zeros[:5], keldysh=zeros[:5])
    with pytest.raises(ValueError):
        FreqGreens(grid=grid, retarded=zeros, keldysh=zeros[:, :1, :1])


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=9),
    onsite=st.floats(min_value=-3.0, max_value=3.0),
    hopping=st.floats(min_value=0.0, max_value=2.0),
    boundary=st.sampled_from(["periodic", "open"]),
)
def test_chain_spectra_stay_inside_band(n, onsite, hopping, boundary):
    h = build_chain(n, onsite, hopping, boundary=boundary)
    assert np.max(np.abs(h.matrix - h.matrix.conj().T)) == 0.0
    energies = diagonalize(h).energies
    assert np.all(np.isreal(energies))
    # nearest-neighbor dispersion is confined to [onsite - g, onsite + g]
    assert np.all(energies >= onsite - hopping - 1e-9)
    assert np.all(energies <= onsite + hopping + 1e-9)
