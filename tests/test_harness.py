"""Config validation, artifacts, peak detection, comparisons, CLI wiring."""

import copy
import json

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from noisychain import qme
from noisychain.cli import main
from noisychain.errors import ConfigError
from noisychain.harness import (
    CONFIG_VERSION,
    ENGINES,
    OUT_ENV_VAR,
    compare_artifacts,
    config_from_dict,
    find_spectral_peaks,
    load_config,
    peak_table_from_csv,
    read_artifact,
    resolve_out_root,
    run_experiment,
)
from noisychain.presets import preset_config, preset_names


def _tiny_trajectory_config(**overrides):
    raw = {
        "version": CONFIG_VERSION,
        "name": "tiny",
        "system": {"n_sites": 2, "onsite": 0.0, "hopping": 1.0},
        "bath": {"kind": "wideband", "rate": 0.25},
        "engines": ["kbe", "lindblad"],
        "time": {"t_max": 2.0, "dt": 0.05},
        "compare": {"tolerance": {"trajectory": 0.05}},
        "seed": 3,
    }
    raw.update(overrides)
    return raw


def _lorentzian(w, center, width):
    return (width / 2.0) / ((w - center) ** 2 + (width / 2.0) ** 2) / np.pi * 2.0 * np.pi


def _write_spectra(path, omega, spectral, pair="0-0"):
    lines = ["omega,pair,re_retarded,im_retarded,re_keldysh,im_keldysh,spectral"]
    for w, s in zip(omega, spectral):
        lines.append(f"{w:.12e},{pair},0.0,0.0,0.0,0.0,{s:.12e}")
    path.write_text("\n".join(lines) + "\n")


def test_yaml_roundtrip(tmp_path):
    raw = _tiny_trajectory_config()
    p = tmp_path / "tiny.yaml"
    p.write_text(yaml.safe_dump(raw))
    cfg = load_config(p)
    assert cfg.name == "tiny"
    assert cfg.system.n_sites == 2
    assert cfg.engines == ("kbe", "lindblad")
    assert cfg.time.dt == 0.05
    assert cfg.tolerances == {"trajectory": 0.05}
    assert cfg.seed == 3


def test_unknown_field_is_named():
    raw = _tiny_trajectory_config()
    raw["system"]["flavor"] = "up"
    with pytest.raises(ConfigError, match="system.flavor"):
        config_from_dict(raw)
    raw2 = _tiny_trajectory_config(typo_section={"a": 1})
    with pytest.raises(ConfigError, match="typo_section"):
        config_from_dict(raw2)


def test_version_required_and_checked():
    raw = _tiny_trajectory_config()
    del raw["version"]
    with pytest.raises(ConfigError, match="version"):
        config_from_dict(raw)
    raw["version"] = 99
    with pytest.raises(ConfigError, match="version"):
        config_from_dict(raw)


def test_engine_section_cross_rules():
    raw = _tiny_trajectory_config(engines=["keldysh"])
    with pytest.raises(ConfigError, match="grid"):
        config_from_dict(raw)  # keldysh without a grid section
    raw = _tiny_trajectory_config(engines=["kbe"],
                                  bath={"kind": "ohmic", "alpha": 0.1,
                                        "cutoff": 5.0, "temperature": 1.0})
    with pytest.raises(ConfigError, match="bath.kind"):
        config_from_dict(raw)  # two-time integrator rejects ohmic baths
    raw = _tiny_trajectory_config(engines=["exact_tls"])
    with pytest.raises(ConfigError, match="bath.kind"):
        config_from_dict(raw)  # exact reference needs a tls bath
    raw = _tiny_trajectory_config()
    del raw["time"]
    with pytest.raises(ConfigError, match="time"):
        config_from_dict(raw)


def test_sweep_rules():
    base = {
        "version": 1,
        "name": "sw",
        "system": {"n_sites": 4, "onsite": 2.0, "hopping": 1.0},
        "bath": {"kind": "ohmic", "cutoff": 800.0, "temperature": 300.0},
        "engines": ["keldysh"],
        "grid": {"omega_min": 0.0, "omega_max": 4.0, "n_points": 401,
                 "pairs": [[0, 0]]},
        "sweep": {"gamma2": [0.1, 0.2]},
    }
    config_from_dict(copy.deepcopy(base))
    bad = copy.deepcopy(base)
    bad["bath"]["alpha"] = 0.1
    with pytest.raises(ConfigError, match="alpha"):
        config_from_dict(bad)
    bad = copy.deepcopy(base)
    bad["engines"] = ["keldysh", "lindblad"]
    with pytest.raises(ConfigError, match="engines"):
        config_from_dict(bad)
    for widths in ([], ["x"], [True], [0.1, float("nan")]):
        bad = copy.deepcopy(base)
        bad["sweep"]["gamma2"] = widths
        with pytest.raises(ConfigError, match="sweep.gamma2"):
            config_from_dict(bad)
    # pair entries are site indices: integers, never bools or fractions
    for pair in ([0.7, 1.9], [True, 1], ["a", 1], [0, None]):
        bad = copy.deepcopy(base)
        bad["grid"]["pairs"] = [pair]
        with pytest.raises(ConfigError, match="grid.pairs"):
            config_from_dict(bad)
    ok = copy.deepcopy(base)
    ok["grid"]["pairs"] = [[1.0, 2]]
    assert config_from_dict(ok).grid.pairs == ((1, 2),)


def test_register_caps_rejected_before_any_output(tmp_path, capsys):
    # register engines beyond their site caps fail validation, so the
    # keldysh engine listed first never writes a run directory
    for preset, cap in (("fig2-lower", qme.SPARSE_MAX_SITES),
                        ("fig2-upper", qme.DENSE_MAX_SITES)):
        raw = preset_config(preset)
        raw["system"]["n_sites"] = cap
        config_from_dict(copy.deepcopy(raw))
        raw["system"]["n_sites"] = cap + 1
        with pytest.raises(ConfigError, match="system.n_sites"):
            config_from_dict(copy.deepcopy(raw))
        path = tmp_path / f"{preset}.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / f"out-{preset}"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "system.n_sites" in capsys.readouterr().err
        assert not out.exists()


def test_all_presets_validate():
    names = preset_names()
    assert len(names) == 6
    for name in names:
        cfg = config_from_dict(preset_config(name))
        assert cfg.name == name
        assert all(e in ENGINES for e in cfg.engines)
    with pytest.raises(KeyError, match="fig2-lower"):
        preset_config("no-such-preset")


def test_find_peaks_single_lorentzian():
    w = np.linspace(-4.0, 4.0, 4001)
    y = _lorentzian(w, 0.7, 0.2)
    peaks = find_spectral_peaks(w, y)
    assert len(peaks) == 1
    spacing = w[1] - w[0]
    assert peaks[0].position == pytest.approx(0.7, abs=spacing)
    assert peaks[0].fwhm == pytest.approx(0.2, rel=0.05)


def test_find_peaks_unresolved_width_is_nan():
    # shoulder never drops to half height on the clipped side
    w = np.linspace(0.0, 1.0, 501)
    y = _lorentzian(w, 0.05, 0.4)
    peaks = find_spectral_peaks(w, y, window=1)
    assert len(peaks) == 1
    assert np.isnan(peaks[0].fwhm)


def test_find_peaks_counts_ideal_chain():
    from noisychain.lattice import FreqGrid, build_chain, ideal_greens

    h = build_chain(20, 2.0, 1.0)
    grid = FreqGrid(0.2, 3.8, 3601)
    g = ideal_greens(h, 1.0 / 300.0, grid)
    a = (1j * (g.retarded - g.advanced))[:, 0, 0].real
    count = len(find_spectral_peaks(grid.omegas, a))
    # the ring folds 20 sites onto 11 distinct levels
    assert 1 <= count <= 11


def test_peak_table_rectifies_cross_pairs(tmp_path):
    w = np.linspace(-4.0, 4.0, 2001)
    y = -_lorentzian(w, 0.5, 0.3)  # sign lobe, as cross spectra produce
    p = tmp_path / "x_spectra.csv"
    _write_spectra(p, w, y, pair="0-1")
    tables = peak_table_from_csv(p)
    assert list(tables) == ["0-1"]
    assert len(tables["0-1"]) == 1
    assert tables["0-1"][0].position == pytest.approx(0.5, abs=w[1] - w[0])


def test_read_artifact_schemas(tmp_path):
    p = tmp_path / "r_rates.csv"
    p.write_text("omega,site,gamma,shift\n0.0,0,1.0e-1,2.0e-2\n0.1,0,1.1e-1,2.1e-2\n")
    art = read_artifact(p)
    assert art["kind"] == "rates"
    assert art["columns"]["gamma"].tolist() == [0.1, 0.11]
    assert art["columns"]["site"].tolist() == ["0", "0"]
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="schema"):
        read_artifact(bad)


def test_compare_identical_spectra_passes(tmp_path):
    w = np.linspace(-2.0, 2.0, 1001)
    y = _lorentzian(w, 0.0, 0.25)
    a, b = tmp_path / "a_spectra.csv", tmp_path / "b_spectra.csv"
    _write_spectra(a, w, y)
    _write_spectra(b, w, y)
    report = compare_artifacts(a, b, tolerances={"position": "grid", "fwhm": 0.1})
    assert report.passed
    values = {m.name: m.value for m in report.metrics}
    assert any("position" in k and v == 0.0 for k, v in values.items())


def test_compare_shifted_spectra_fails(tmp_path):
    w = np.linspace(-2.0, 2.0, 1001)
    a, b = tmp_path / "a_spectra.csv", tmp_path / "b_spectra.csv"
    _write_spectra(a, w, _lorentzian(w, 0.0, 0.25))
    _write_spectra(b, w, _lorentzian(w, 0.3, 0.25))
    report = compare_artifacts(b, a, tolerances={"position": 0.01})
    assert not report.passed
    assert any("[FAIL]" in line for line in report.summary_lines())


def test_compare_kind_mismatch_raises(tmp_path):
    s = tmp_path / "s_spectra.csv"
    _write_spectra(s, np.linspace(-1, 1, 101), np.ones(101))
    t = tmp_path / "t_trajectory.csv"
    t.write_text("t,site,occupation,re_keldysh,im_keldysh\n0.0,0,1.0,0.0,0.0\n")
    with pytest.raises(ValueError, match="kind"):
        compare_artifacts(s, t)


def test_run_experiment_trajectory_roundtrip(tmp_path):
    cfg = config_from_dict(_tiny_trajectory_config())
    result = run_experiment(cfg, out_root=tmp_path / "out")
    assert result.ok
    assert result.engine_errors == {}
    assert (result.run_dir / "manifest.json").exists()
    assert (result.run_dir / "report.json").exists()
    manifest = json.loads((result.run_dir / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert "config_sha256" in manifest and len(manifest["config_sha256"]) == 64
    arts = [read_artifact(result.run_dir / f) for f in result.artifacts]
    assert {a["kind"] for a in arts} == {"trajectory"}
    assert len(result.reports) == 1 and result.reports[0].passed


def test_rerun_bodies_are_byte_identical(tmp_path):
    cfg = config_from_dict(_tiny_trajectory_config())
    r1 = run_experiment(cfg, out_root=tmp_path / "one")
    r2 = run_experiment(cfg, out_root=tmp_path / "two")
    assert r1.artifacts == r2.artifacts
    for fname in r1.artifacts:
        assert (r1.run_dir / fname).read_bytes() == (r2.run_dir / fname).read_bytes()


def test_partial_engine_failure_keeps_artifacts(tmp_path):
    raw = {
        "version": 1,
        "name": "partial",
        "system": {"n_sites": 5, "onsite": 2.0, "hopping": 0.5},
        "bath": {"kind": "tls", "target_rate": 0.25, "n_tls": 3,
                 "band": [1.5, 2.5]},
        "engines": ["kbe", "exact_tls"],
        "time": {"t_max": 1.0, "dt": 0.01},
        "seed": 42,
    }
    result = run_experiment(config_from_dict(raw), out_root=tmp_path)
    # 5 qubits + 15 sampled levels exceed the exact solver's register cap;
    # the integrator's artifact must survive the sibling failure
    assert not result.ok
    assert list(result.engine_errors) == ["exact_tls"]
    assert "CapacityError" in result.engine_errors["exact_tls"]
    assert any("kbe" in f for f in result.artifacts)
    manifest = json.loads((result.run_dir / "manifest.json").read_text())
    assert manifest["engine_errors"] == result.engine_errors


def test_out_root_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv(OUT_ENV_VAR, raising=False)
    assert resolve_out_root() == __import__("pathlib").Path("noisychain-out")
    monkeypatch.setenv(OUT_ENV_VAR, str(tmp_path / "env"))
    assert resolve_out_root() == tmp_path / "env"
    assert resolve_out_root(cfg_out=str(tmp_path / "cfg")) == tmp_path / "cfg"
    assert resolve_out_root(cfg_out=str(tmp_path / "cfg"),
                            cli_out=str(tmp_path / "cli")) == tmp_path / "cli"


def test_cli_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in preset_names():
        assert name in out


def test_cli_run_and_peaks(tmp_path, capsys):
    cfg_path = tmp_path / "tiny.yaml"
    cfg_path.write_text(yaml.safe_dump(_tiny_trajectory_config()))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()

    w = np.linspace(-2.0, 2.0, 1001)
    spath = tmp_path / "one_spectra.csv"
    _write_spectra(spath, w, _lorentzian(w, 0.4, 0.2))
    assert main(["peaks", str(spath)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "pair,position,height,fwhm"
    assert "0-0" in out


def test_cli_exit_codes(tmp_path, capsys):
    w = np.linspace(-2.0, 2.0, 1001)
    a, b = tmp_path / "a_spectra.csv", tmp_path / "b_spectra.csv"
    _write_spectra(a, w, _lorentzian(w, 0.0, 0.2))
    _write_spectra(b, w, _lorentzian(w, 0.3, 0.2))
    assert main(["compare", str(a), str(b), "--tolerance", "position=0.01"]) == 1
    capsys.readouterr()
    assert main(["run", "--config", "no-such-preset"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["compare", str(a), str(bad)]) == 2
    capsys.readouterr()
    assert main(["compare", str(a), str(b), "--tolerance", "bogus=1"]) == 2


@settings(max_examples=25, deadline=None)
@given(
    centers=st.lists(
        st.floats(min_value=-7.0, max_value=7.0), min_size=1, max_size=4,
        unique_by=lambda c: round(c / 1.5),
    )
)
def test_separated_peaks_are_all_found(centers):
    # unique_by buckets of 1.5 keep every pair at least ~8 widths apart
    centers = sorted(centers)
    if any(b - a < 1.2 for a, b in zip(centers, centers[1:])):
        return
    w = np.linspace(-10.0, 10.0, 4001)
    y = sum(_lorentzian(w, c, 0.15) for c in centers)
    peaks = find_spectral_peaks(w, y)
    assert len(peaks) == len(centers)
    for got, want in zip(sorted(p.position for p in peaks), centers):
        assert got == pytest.approx(want, abs=0.05)
