"""Acceptance gate: one test per deliverable behavior, at stated tolerances.

Each test is self-contained and runs its scenario end to end, so the -v
report reads as a one-line verdict per behavior. Budgets are generous
wall-clock ceilings, asserted only to catch runaway regressions.
"""

import json
import math
import time

import numpy as np
import pytest

from noisychain import qme
from noisychain.baths import OhmicBath, power_spectral_density
from noisychain.harness import config_from_dict, find_spectral_peaks, read_artifact, run_experiment
from noisychain.kbe import InitialState, kbe_integrate, markov_self_energy
from noisychain.keldysh import (
    dephasing_self_energy,
    extract_rates,
    spectral_weight,
    steady_state_greens,
)
from noisychain.lattice import FreqGrid, build_chain, thermal_factor
from noisychain.presets import preset_config

from kbe_oracle import analytic_gk
from register_oracle import LindbladGenerator


def _run_preset(name, tmp_path, **kwargs):
    cfg = config_from_dict(preset_config(name))
    return run_experiment(cfg, out_root=tmp_path, **kwargs)


def _metrics_by_name(result):
    out = {}
    for report in result.reports:
        for m in report.metrics:
            out.setdefault(m.name, []).append(m)
    return out


def _occupations_by_site(artifact):
    cols = artifact["columns"]
    sites = list(dict.fromkeys(cols["site"]))
    t = None
    occ = {}
    for s in sites:
        sel = cols["site"] == s
        t = cols["t"][sel]
        occ[s] = cols["occupation"][sel]
    return t, occ


def test_dephasing_rate_matches_golden_rule():
    # one qubit against a hot ohmic bath: the on-shell decay rate equals
    # the classical noise floor S(0)/2 within 1 percent
    started = time.monotonic()
    eps = 1.0
    bath = OhmicBath(alpha=0.002, cutoff=50.0, temperature=100.0 * eps)
    h = build_chain(1, eps, 0.0, boundary="open")
    grid = FreqGrid(0.0, 2.0, 1601)
    rates = extract_rates(dephasing_self_energy(h, [bath], 1.0 / 100.0, grid))
    i = int(np.argmin(np.abs(grid.omegas - eps)))
    target = 0.5 * float(power_spectral_density(bath, 0.0))
    assert rates.gamma[i, 0] == pytest.approx(target, rel=0.01)
    assert time.monotonic() - started < 5.0


def test_hot_flat_noise_master_equation_reproduces_dressed_spectra(tmp_path):
    # five dephased qubits, noise flat on the system scale: regression
    # spectra track the dressed solver's lines in position (one grid
    # spacing) and width (the preset's 1 percent: both carry the same eta
    # Lorentzian), on- and off-diagonal
    started = time.monotonic()
    result = _run_preset("fig2-lower", tmp_path)
    assert result.ok, result.engine_errors or [
        line for r in result.reports for line in r.summary_lines()
    ]
    metrics = _metrics_by_name(result)
    spacing = 4.0 / 4000
    for tag in ("0-0", "0-1"):
        (pos,) = metrics[f"peak-position:{tag}"]
        assert pos.value <= spacing, pos
        (width,) = metrics[f"fwhm-ratio:{tag}"]
        assert width.tolerance == 0.01 and width.passed, width
        assert width.value <= 0.01, width
    assert time.monotonic() - started < 300.0


def test_cold_structured_noise_redfield_matches_dressed_positions(tmp_path):
    # low temperature, narrow ohmic bath: Redfield lines track the dressed
    # solver within one grid spacing in position and within the preset's
    # 10 percent in width
    started = time.monotonic()
    result = _run_preset("fig2-upper", tmp_path)
    assert result.ok, result.engine_errors or [
        line for r in result.reports for line in r.summary_lines()
    ]
    metrics = _metrics_by_name(result)
    spacing = 4.0 / 1600
    for tag in ("0-0", "0-1"):
        (pos,) = metrics[f"peak-position:{tag}"]
        assert pos.value <= spacing, pos
        (width,) = metrics[f"fwhm-ratio:{tag}"]
        assert width.tolerance == 0.10 and width.passed, width
        assert width.value <= 0.10, width
    assert time.monotonic() - started < 300.0


def test_linewidth_sweep_merges_peaks_and_tightens_with_size(tmp_path):
    # broadening sweep on 20- and 40-site rings: resolved peak counts only
    # drop as the width grows, fall below the distinct-level count once the
    # width exceeds the smallest level gap, and the longer ring resolves a
    # smaller fraction of its levels at every width
    started = time.monotonic()
    top = _run_preset("fig3-top", tmp_path / "a")
    bottom = _run_preset("fig3-bottom", tmp_path / "b")
    assert not top.engine_errors and not bottom.engine_errors

    counts = {}
    for label, result, n_sites in (("n20", top, 20), ("n40", bottom, 40)):
        cols = {}
        import csv

        with open(result.run_dir / "peak_counts.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["gamma2", "n_peaks"]
        widths = [float(r[0]) for r in rows[1:]]
        n_peaks = [int(r[1]) for r in rows[1:]]
        assert widths == [0.05, 0.1, 0.2, 0.4]
        counts[label] = n_peaks

        levels = np.linalg.eigvalsh(build_chain(n_sites, 2.0, 1.0).matrix)
        distinct = np.unique(np.round(levels, 9))
        gaps = np.diff(distinct)
        min_gap = float(np.min(gaps))
        # merging can only reduce the count
        assert all(b <= a for a, b in zip(n_peaks, n_peaks[1:])), n_peaks
        for g2, cnt in zip(widths, n_peaks):
            assert cnt <= len(distinct)
            if g2 > min_gap:
                assert cnt < len(distinct), (label, g2, cnt)
        counts[label + "_distinct"] = len(distinct)

    for i in range(4):
        frac20 = counts["n20"][i] / counts["n20_distinct"]
        frac40 = counts["n40"][i] / counts["n40_distinct"]
        assert frac40 < frac20, (i, frac20, frac40)
    assert time.monotonic() - started < 120.0


def test_two_time_integrator_tracks_markovian_decay(tmp_path):
    # five qubits with flat decay channels, one excitation: the two-time
    # integrator and the master equation agree to 1e-2 in occupation over
    # five decay times, and the total occupation never grows
    started = time.monotonic()
    result = _run_preset("fig4-bottom", tmp_path)
    assert result.ok, result.engine_errors or [
        line for r in result.reports for line in r.summary_lines()
    ]
    arts = {f: read_artifact(result.run_dir / f) for f in result.artifacts}
    kbe_art = arts["kbe_trajectory.csv"]
    lind_art = arts["lindblad_trajectory.csv"]
    t, occ_k = _occupations_by_site(kbe_art)
    _, occ_l = _occupations_by_site(lind_art)
    assert t[-1] == pytest.approx(5.0 / 0.25)
    assert t[1] - t[0] == pytest.approx(1e-2 / 0.25)
    dev = max(
        float(np.max(np.abs(occ_k[s] - occ_l[s]))) for s in occ_k
    )
    assert dev <= 1e-2, dev
    n_tot = np.sum([occ_k[s] for s in occ_k], axis=0)
    assert np.all(np.diff(n_tot) <= 1e-12)
    assert time.monotonic() - started < 120.0


def test_integrator_converges_to_commuting_closed_form():
    # uniform decay commuting with the ring: integrator error against the
    # closed form is below 1e-4 and shrinks at second order when dt halves
    started = time.monotonic()
    h = build_chain(3, 0.0, 1.0)
    rates = [0.3, 0.3, 0.3]
    ini = InitialState.single_site(3, 0)

    def max_err(dt):
        run = kbe_integrate(h, markov_self_energy(rates), ini, 2.0, dt)
        m = run.n_times
        spots = ((m - 1, m - 1), (m - 1, m // 2), (m // 2, m // 4), (m - 1, 0))
        worst = 0.0
        for i, j in spots:
            ref = analytic_gk(h, rates, ini, run.t_grid[i], run.t_grid[j])
            worst = max(worst, float(np.max(np.abs(run.keldysh_at(i, j) - ref))))
        return worst

    coarse = max_err(0.01)
    fine = max_err(0.005)
    assert coarse <= 1e-4, coarse
    ratio = coarse / fine
    assert 3.5 <= ratio <= 4.5, ratio
    assert time.monotonic() - started < 120.0


def test_structural_invariants_hold():
    started = time.monotonic()

    # canonical anticommutation on the spin register
    n = 5
    ops = [qme.jw_fermion(i, n) for i in range(n)]
    eye = np.eye(2**n)
    for i in range(n):
        for j in range(n):
            acc = ops[i] @ ops[j].conj().T + ops[j].conj().T @ ops[i]
            assert np.max(np.abs(acc - (eye if i == j else 0.0))) < 1e-12
            assert np.max(np.abs(ops[i] @ ops[j] + ops[j] @ ops[i])) < 1e-12

    # dressed component identities at matched temperatures
    h = build_chain(3, 2.0, 1.0)
    beta = 0.2
    bath = OhmicBath(alpha=0.01, cutoff=20.0, temperature=5.0)
    grid = FreqGrid(-1.0, 5.0, 1201)
    g, _ = steady_state_greens(h, [bath] * 3, beta, grid)
    assert np.max(np.abs(g.advanced - np.conj(np.swapaxes(g.retarded, 1, 2)))) < 1e-10
    assert np.max(np.abs(g.keldysh + np.conj(np.swapaxes(g.keldysh, 1, 2)))) < 1e-10

    # diagonal spectral weight: nonnegative, unit integral to 2 percent
    a = spectral_weight(g)
    for i in range(3):
        diag = a[:, i, i].real
        assert np.min(diag) >= -1e-10
        norm = np.trapezoid(diag, grid.omegas) / (2.0 * np.pi)
        assert norm == pytest.approx(1.0, abs=0.02)

    # fluctuation-dissipation at matched temperatures, relative 1e-6
    expected = (g.retarded - g.advanced) * thermal_factor(grid.omegas, beta)[:, None, None]
    rel = np.max(np.abs(g.keldysh - expected)) / np.max(np.abs(g.keldysh))
    assert rel < 1e-6, rel

    # master-equation evolution preserves the trace to 1e-10
    gen = LindbladGenerator(
        n_sites=3, hamiltonian=qme.spin_hamiltonian(h), gamma1=0.2, gamma2star=0.3)
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[5, 5] = 1.0
    rhos = qme.lindblad_evolve(gen, rho0, np.linspace(0.0, 4.0, 41))
    traces = np.einsum("tii->t", rhos).real
    assert np.max(np.abs(traces - 1.0)) < 1e-10

    assert time.monotonic() - started < 60.0


def test_exact_reference_run_reports_deviation(tmp_path):
    # five qubits tunneling into ten sampled levels: the two-time
    # integrator, the exact single-excitation solve, and the master
    # equation all complete, and the run reports their deviations
    started = time.monotonic()
    result = _run_preset("fig4-top", tmp_path)
    assert result.engine_errors == {}, result.engine_errors
    assert {
        "kbe_trajectory.csv",
        "exact_tls_trajectory.csv",
        "lindblad_trajectory.csv",
    } <= set(result.artifacts)
    assert result.reports, "expected cross-engine comparison reports"
    assert (result.run_dir / "report.json").exists()
    report = json.loads((result.run_dir / "report.json").read_text())
    devs = [
        m["value"]
        for entry in report
        for m in entry["metrics"]
        if m["name"] == "trajectory-deviation"
    ]
    assert devs and all(math.isfinite(v) for v in devs)
    assert time.monotonic() - started < 600.0
