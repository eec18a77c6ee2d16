"""Config validation, artifacts, peak detection, comparisons, CLI wiring."""

import ast
import copy
import csv
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

import noisychain
from noisychain import harness, qme
from noisychain.cli import main
from noisychain.errors import CapacityError, ConfigError
from noisychain.harness import (
    CONFIG_VERSION,
    ENGINES,
    OUT_ENV_VAR,
    SCHEMAS,
    TEXT_COLUMNS,
    ExperimentConfig,
    _Plan,
    _prominent_maxima,
    _write_table,
    compare_artifacts,
    config_from_dict,
    find_spectral_peaks,
    load_config,
    peak_table_from_csv,
    read_artifact,
    resolve_out_root,
    run_experiment,
)
from noisychain.kbe import MEMORY_CAP_BYTES, stream_bytes
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


def test_malformed_yaml_is_a_config_error(tmp_path, capsys):
    # yaml is imported inside its two readers, so both error branches run here
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: [tiny\n")
    with pytest.raises(ConfigError, match="not valid YAML") as exc:
        load_config(bad)
    assert exc.value.field == "<root>"
    out = tmp_path / "o"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
    assert "not valid YAML" in capsys.readouterr().err
    assert not out.exists()
    w = np.linspace(-2.0, 2.0, 101)
    a = tmp_path / "a_spectra.csv"
    _write_spectra(a, w, _lorentzian(w, 0.0, 0.2))
    assert main(["compare", str(a), str(a), "--tolerance", "position=[1"]) == 2
    assert "compare.tolerance.position" in capsys.readouterr().err


def _set(raw, path, value):
    """raw with the dotted field path set to value, creating sections."""

    *sections, key = path.split(".")
    for name in sections:
        if not isinstance(raw.get(name), dict):
            raw[name] = {}
        raw = raw[name]
    raw[key] = value


def test_unknown_field_is_named():
    raw = _tiny_trajectory_config()
    raw["system"]["flavor"] = "up"
    with pytest.raises(ConfigError, match="system.flavor"):
        config_from_dict(raw)
    raw2 = _tiny_trajectory_config(typo_section={"a": 1})
    with pytest.raises(ConfigError, match="typo_section"):
        config_from_dict(raw2)
    # every float is finite (beta may be inf), zero steps and bools are
    # rejected, and each rejection names its field
    nan, inf = float("nan"), float("inf")
    for preset, path, value in (
        ("fig4-bottom", "time.dt", 0), ("fig4-bottom", "time.t_max", nan),
        ("fig4-bottom", "time.dt", inf), ("fig4-bottom", "bath.rate", nan),
        ("fig2-lower", "system.onsite", nan), ("fig2-lower", "system.hopping", inf),
        ("fig2-lower", "bath.temperature", nan), ("fig2-lower", "bath.alpha", nan),
        ("fig2-lower", "bath.alpha", inf), ("fig2-lower", "grid.eta", nan),
        ("fig2-lower", "compare.tolerance.fwhm", inf), ("fig2-lower", "system.beta", -inf),
        ("fig2-lower", "bath.rate", 0.1), ("fig4-top", "bath.band", [nan, 2.0]),
        ("fig4-top", "bath.band", [True, 2]), ("fig3-top", "sweep.gamma2", [0.1, inf]),
    ):
        bad = preset_config(preset)
        _set(bad, path, value)
        with pytest.raises(ConfigError, match=path):
            _Plan(config_from_dict(bad))
    # t_max/dt is bounded: both fields are finite, but their ratio overflows
    # (first case) or would build a time grid of millions of steps (second)
    for t_max, dt in ((1e300, 1e-300), (2e6, 1.0)):
        bad = preset_config("fig4-bottom")
        bad["time"] = {"t_max": t_max, "dt": dt}
        with pytest.raises(ConfigError, match="time.dt"):
            _Plan(config_from_dict(bad))
    # a null value counts as omitted
    raw = preset_config("fig4-top")
    for path in ("system.beta", "qme.gamma1", "bath.temperature", "name", "initial"):
        _set(raw, path, None)
    cfg = config_from_dict(raw)
    assert (cfg.system.beta, cfg.qme.gamma1, cfg.bath.temperature) == (float("inf"), None, 0.0)
    assert (cfg.name, cfg.initial.excited_site) == ("experiment", 0)


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
    raw = preset_config("fig2-upper")
    assert raw["qme"] == {}
    config_from_dict(raw)  # the register steady state needs no knob


_BATHS = {
    "ohmic": {"kind": "ohmic", "alpha": 0.05, "cutoff": 5.0, "temperature": 1.0},
    "tls": {"kind": "tls", "target_rate": 0.2, "n_tls": 2, "band": [0.5, 1.5]},
    "wideband": {"kind": "wideband", "rate": 0.2},
}
_SECTIONS = {
    "grid": {"grid": {"omega_min": -3.0, "omega_max": 3.0, "n_points": 121}},
    "time": {"time": {"t_max": 0.2, "dt": 0.01}},
}
_SPECTRA = (["{e}"], ["{e}_spectra.csv"])
_DYNAMICS = (["{e}-dynamics"], ["{e}_trajectory.csv"])
_BOTH = (["{e}", "{e}-dynamics"], ["{e}_spectra.csv", "{e}_trajectory.csv"])
_KELDYSH = (["keldysh"], ["keldysh_rates.csv", "keldysh_spectra.csv"])
_TRAJECTORY = (["{e}"], ["{e}_trajectory.csv"])
# (engine, sections) -> bath kind -> the ConfigError field, or the job
# labels and artifact names of the run
_CAPABILITIES = {
    ("keldysh", ()): dict.fromkeys(_BATHS, "grid"),
    ("keldysh", ("grid",)): dict.fromkeys(_BATHS, _KELDYSH),
    ("keldysh", ("time",)): dict.fromkeys(_BATHS, "grid"),
    ("keldysh", ("grid", "time")): dict.fromkeys(_BATHS, _KELDYSH),
    ("kbe", ()): dict.fromkeys(_BATHS, "time"),
    ("kbe", ("grid",)): dict.fromkeys(_BATHS, "time"),
    ("kbe", ("time",)): {"ohmic": "bath.kind", "tls": _TRAJECTORY, "wideband": _TRAJECTORY},
    ("kbe", ("grid", "time")): {"ohmic": "bath.kind", "tls": _TRAJECTORY,
                                "wideband": _TRAJECTORY},
    ("lindblad", ()): dict.fromkeys(_BATHS, "engines"),
    ("lindblad", ("grid",)): dict.fromkeys(_BATHS, _SPECTRA),
    ("lindblad", ("time",)): dict.fromkeys(_BATHS, _DYNAMICS),
    ("lindblad", ("grid", "time")): dict.fromkeys(_BATHS, _BOTH),
    ("blochredfield", ()): dict.fromkeys(_BATHS, "engines"),
    ("blochredfield", ("grid",)): {"ohmic": _SPECTRA, "tls": "bath.kind",
                                   "wideband": "bath.kind"},
    ("blochredfield", ("time",)): {"ohmic": _DYNAMICS, "tls": "bath.kind",
                                   "wideband": "bath.kind"},
    ("blochredfield", ("grid", "time")): {"ohmic": _BOTH, "tls": "bath.kind",
                                          "wideband": "bath.kind"},
    ("exact_tls", ()): dict.fromkeys(_BATHS, "time"),
    ("exact_tls", ("grid",)): dict.fromkeys(_BATHS, "time"),
    ("exact_tls", ("time",)): {"ohmic": "bath.kind", "tls": _TRAJECTORY,
                               "wideband": "bath.kind"},
    ("exact_tls", ("grid", "time")): {"ohmic": "bath.kind", "tls": _TRAJECTORY,
                                      "wideband": "bath.kind"},
}


def test_engine_capability_matrix(tmp_path):
    # every engine on every set of sections and every bath kind: the config
    # is refused naming the expected field, or it runs the expected jobs
    # and writes the expected artifacts
    assert {e for e, _ in _CAPABILITIES} == set(ENGINES)
    for (engine, sections), by_bath in _CAPABILITIES.items():
        for kind, expected in by_bath.items():
            raw = {"version": 1, "name": f"{engine}-{'-'.join(sections)}-{kind}",
                   "system": {"n_sites": 2, "onsite": 0.0, "hopping": 1.0, "boundary": "open"},
                   "bath": _BATHS[kind], "engines": [engine]}
            for section in sections:
                raw.update(copy.deepcopy(_SECTIONS[section]))
            case = (engine, sections, kind)
            if isinstance(expected, str):
                with pytest.raises(ConfigError) as info:
                    config_from_dict(raw)
                assert info.value.field == expected, case
                continue
            cfg = config_from_dict(raw)
            labels, artifacts = ([s.format(e=engine) for s in part] for part in expected)
            assert [job[0] for job in harness._engine_jobs(_Plan(cfg))] == labels, case
            result = run_experiment(cfg, out_root=tmp_path)
            assert not result.engine_errors, case
            assert result.artifacts == artifacts, case


def test_readme_schema_block_parses():
    # the README's config schema runs through the field tables, so a field
    # that is removed or renamed while still documented fails here. Only the
    # sections are parsed: the block shows every section at once, sweep next
    # to bath.alpha included, which the cross-section rules refuse
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```yaml\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    harness._parse(yaml.safe_load(blocks[0]), "", harness.ExperimentConfig)


def test_qme_numbers_rejected():
    # rates are checked before any engine runs. Spectra need no correlation
    # window and the steady state no warmup, so tau_max, d_tau and
    # warmup_time are unknown fields
    base = preset_config("fig2-upper")
    config_from_dict(copy.deepcopy(base))
    for key, value in (("gamma1", -0.1), ("gamma2star", -0.1), ("tau_max", 0.0),
                       ("tau_max", -5.0), ("d_tau", 0.0), ("d_tau", -0.2),
                       ("warmup_time", -1.0), ("warmup_time", float("nan")),
                       ("warmup_time", float("inf")), ("gamma1", float("inf")),
                       ("tau_max", 1.0)):
        bad = copy.deepcopy(base)
        bad["qme"][key] = value
        with pytest.raises(ConfigError, match=f"qme.{key}"):
            config_from_dict(bad)
    ok = copy.deepcopy(base)
    ok["qme"].update(gamma1=0.0, gamma2star=0.0)
    config_from_dict(ok)


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
    for widths in ([], ["x"], ["0.1"], [True], [0.1, float("nan")]):
        bad = copy.deepcopy(base)
        bad["sweep"]["gamma2"] = widths
        with pytest.raises(ConfigError, match="sweep.gamma2"):
            config_from_dict(bad)
    # pair entries are site indices: integers, never bools or fractions
    for pair in ([0.7, 1.9], [True, 1], ["a", 1], ["0", "1"], [0, None]):
        bad = copy.deepcopy(base)
        bad["grid"]["pairs"] = [pair]
        with pytest.raises(ConfigError, match="grid.pairs"):
            config_from_dict(bad)
    ok = copy.deepcopy(base)
    ok["grid"]["pairs"] = [[1.0, 2]]
    assert config_from_dict(ok).grid.pairs == ((1, 2),)
    # a quoted number is a string, never read as the number it spells
    for key, value in (("n_sites", "4"), ("beta", "inf")):
        bad = copy.deepcopy(base)
        bad["system"][key] = value
        with pytest.raises(ConfigError, match=f"system.{key}"):
            config_from_dict(bad)


def test_sweep_widths_sharing_a_file_name_rejected_before_any_output(tmp_path, capsys):
    # widths name their spectra by %g, so 0.1 and 0.1000001 would both
    # write keldysh_spectra_gamma2_0.1.csv
    raw = preset_config("fig3-top")
    for widths in ([0.1, 0.1000001, 0.4], [0.2, 0.2]):
        raw["sweep"]["gamma2"] = widths
        with pytest.raises(ConfigError, match="sweep.gamma2.*gamma2_0.[12].csv"):
            config_from_dict(raw)
    path = tmp_path / "clash.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "sweep.gamma2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    raw["sweep"]["gamma2"] = [0.1, 0.100001, 0.4]  # %g keeps 6 digits: 0.100001
    config_from_dict(raw)


def test_register_caps_rejected_before_any_output(tmp_path, capsys):
    # the register engine beyond its site cap fails validation, so the
    # keldysh engine listed first never writes a run directory
    raw = preset_config("fig2-upper")
    raw["system"]["n_sites"] = qme.DENSE_MAX_SITES
    config_from_dict(copy.deepcopy(raw))
    raw["system"]["n_sites"] = qme.DENSE_MAX_SITES + 1
    with pytest.raises(ConfigError, match="system.n_sites"):
        config_from_dict(copy.deepcopy(raw))
    path = tmp_path / "fig2-upper.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out-fig2-upper"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "system.n_sites" in capsys.readouterr().err
    assert not out.exists()
    # the lindblad engine has no register and no site cap
    raw = preset_config("fig2-lower")
    raw["system"]["n_sites"] = 40
    raw["engines"] = ["lindblad"]
    path = tmp_path / "fig2-lower.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out-fig2-lower"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    spectra = read_artifact(out / "fig2-lower" / "lindblad_spectra.csv")
    assert spectra["columns"]["omega"].size == 2 * raw["grid"]["n_points"]


def test_lindblad_trajectory_memory_rejected_before_any_output(tmp_path, capsys):
    # the dense N^2 x N^2 trajectory generator is sized against the memory
    # cap at validation, so the kbe engine listed first never writes
    raw = preset_config("fig4-bottom")
    raw["system"]["n_sites"] = 40
    config_from_dict(copy.deepcopy(raw))
    raw["system"]["n_sites"] = 80
    with pytest.raises(ConfigError, match="system.n_sites"):
        config_from_dict(copy.deepcopy(raw))
    # over 10^6 steps the kept (n_t, N) diagonal and the artifact
    # dominate: 50 sites need about 3.4 GB (40 sites, 3.6 GB while the
    # artifact term charged 64 B a row, now 2.3 GB, fit)
    long_run = copy.deepcopy(raw)
    long_run["engines"] = ["lindblad"]
    long_run["system"]["n_sites"] = 50
    long_run["time"] = {"t_max": 1000.0, "dt": 0.001}
    with pytest.raises(ConfigError, match="system.n_sites"):
        config_from_dict(long_run)
    path = tmp_path / "fig4-bottom.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out-fig4-bottom"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "system.n_sites" in capsys.readouterr().err
    assert not out.exists()


def test_grid_size_rejected_before_any_output(tmp_path, capsys):
    # the spectra engines' frequency tables are sized at validation, naming
    # grid.n_points: a million-point keldysh grid on fig2-lower's 5 sites
    # as an open chain (about 6.9 GB) is refused before any engine writes,
    # while the master-equation engines alone need far less and validate.
    # On the preset's ring keldysh keeps one self-energy column, 2.4 GB by
    # the rule, and validates
    raw = preset_config("fig2-lower")
    raw["grid"]["n_points"] = 100_000
    config_from_dict(copy.deepcopy(raw))
    raw["grid"]["n_points"] = 1_000_000
    config_from_dict(copy.deepcopy(raw))
    raw["system"]["boundary"] = "open"
    with pytest.raises(ConfigError, match="grid.n_points"):
        config_from_dict(copy.deepcopy(raw))
    path = tmp_path / "fig2-lower.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out-fig2-lower"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "grid.n_points" in capsys.readouterr().err
    assert not out.exists()
    raw["engines"] = ["lindblad"]
    config_from_dict(copy.deepcopy(raw))


def test_ring_spectra_rule_charges_one_self_energy_column():
    # keldysh on an ohmic ring keeps one self-energy column, so its rule
    # charges 1.5 kB per point and h's dense eigensystem instead of 250 B
    # per point and site: fig3-bottom on 1000 sites over 20001 points is
    # 0.74 GB by the rule and validates (a 1000-site ring traced 54 MB over
    # 2001 and 3601 points). The same chain open keeps a column per site,
    # 5.7 GB by the rule, and is refused
    raw = preset_config("fig3-bottom")
    raw["system"]["n_sites"] = 1000
    raw["grid"]["n_points"] = 20001
    cfg = config_from_dict(copy.deepcopy(raw))
    assert harness._spectra_bytes(cfg) < 0.75e9
    raw["system"]["boundary"] = "open"
    with pytest.raises(ConfigError, match="grid.n_points"):
        config_from_dict(raw)


def test_blochredfield_dynamics_conserve_the_excitation(tmp_path):
    # fig2-upper's baths acting on one excitation: the sigma^z couplings
    # conserve particle number, so the occupations stay in [0, 1] and sum
    # to one
    raw = preset_config("fig2-upper")
    raw["engines"] = ["blochredfield"]
    del raw["grid"]
    raw["time"] = {"t_max": 20.0, "dt": 0.04}
    result = run_experiment(config_from_dict(raw), out_root=tmp_path)
    assert result.engine_errors == {}
    assert result.artifacts == ["blochredfield_trajectory.csv"]
    cols = read_artifact(result.run_dir / "blochredfield_trajectory.csv")["columns"]
    occ = cols["occupation"].reshape(-1, raw["system"]["n_sites"])
    assert occ.shape[0] == 501
    assert np.all((occ >= 0.0) & (occ <= 1.0))
    assert np.max(np.abs(occ.sum(axis=1) - 1.0)) <= 1e-10


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
    from dyson_oracle import ideal_greens
    from noisychain.lattice import FreqGrid, build_chain

    h = build_chain(20, 2.0, 1.0)
    grid = FreqGrid(0.2, 3.8, 3601)
    g = ideal_greens(h, 1.0 / 300.0, grid)
    a = (1j * (g.retarded - g.advanced))[:, 0, 0].real
    count = len(find_spectral_peaks(grid.omegas, a))
    # the ring folds 20 sites onto 11 distinct levels
    assert 1 <= count <= 11


def test_prominent_maxima_match_find_peaks():
    # index for index against scipy's find_peaks: seeded random curves,
    # integer-valued ones full of plateaus, flat tops touching either end,
    # constant and monotone curves and the shortest curve with an interior
    rng = np.random.default_rng(11)
    curves = [
        np.array([1.0, 1.0, 0.0, 2.0, 2.0]),
        np.array([0.0, 3.0, 3.0, 3.0]),
        np.array([3.0, 3.0, 1.0, 2.0, 0.0]),
        np.full(9, 0.5),
        np.arange(12.0),
        np.arange(12.0)[::-1],
        np.array([0.0, 1.0, 0.0]),
        np.array([1.0, 0.0, 1.0]),
        np.array([2.0, 2.0, 2.0]),
    ]
    for n in (3, 4, 5, 17, 200):
        for _ in range(60):
            curves.append(rng.normal(size=n))
            curves.append(rng.integers(0, 4, size=n).astype(float))
            curves.append(np.round(rng.normal(size=n), 1))
    for y in curves:
        for p in (0.0, 0.1, 0.5, 1.0, 2.5):
            assert _prominent_maxima(y, p) == list(find_peaks(y, prominence=p)[0]), (y, p)


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
    for text, match in (("a,b\n1,2\n", "schema"), ("", "empty file"),
                        ("omega,site,gamma,shift\n", "no data rows"),
                        ("omega,site,gamma,shift\n0.0,%s,1.0,2.0\n" % ("7" * 16), "16 or more")):
        bad.write_text(text)
        with pytest.raises(ValueError, match=match):
            read_artifact(bad)


def test_write_table_round_trips_every_kind(tmp_path):
    for kind, header in SCHEMAS.items():
        columns = {
            name: ["0", "1", "12"] if name in TEXT_COLUMNS else [0.5, -1.25, 3.0e-7 * k]
            for k, name in enumerate(header)
        }
        path = tmp_path / f"{kind}.csv"
        _write_table(path, kind, [columns])
        art = read_artifact(path)
        assert art["kind"] == kind
        assert list(art["columns"]) == list(header)
        for name, values in columns.items():
            assert art["columns"][name].tolist() == values, (kind, name)


def test_write_table_bytes(tmp_path):
    path = tmp_path / "r_rates.csv"
    _write_table(path, "rates", [{
        "omega": [-0.0, 1e-300], "site": ["0", "17"], "gamma": [-1.5e300, 2.0],
        "shift": np.array([0.25, -3.0]),
    }])
    assert path.read_bytes() == (
        b"omega,site,gamma,shift\n"
        b"-0.000000000000e+00,0,-1.500000000000e+300,2.500000000000e-01\n"
        b"1.000000000000e-300,17,2.000000000000e+00,-3.000000000000e+00\n"
    )


def test_write_table_blocks_keep_the_bytes(tmp_path, monkeypatch):
    # the writer formats rows block by block; block edges inside the table
    # (3-row blocks over 7 rows of 5 sites) change no byte of the file
    t = np.linspace(0.0, 0.6, 7)
    occ = np.random.default_rng(3).random((7, 5))
    whole = tmp_path / "whole_trajectory.csv"
    harness._write_trajectory(whole, t, occ)
    monkeypatch.setattr(harness, "_WRITE_BLOCK", 3)
    blocked = tmp_path / "blocked_trajectory.csv"
    harness._write_trajectory(blocked, t, occ)
    assert blocked.read_bytes() == whole.read_bytes()
    assert len(whole.read_bytes().splitlines()) == 1 + 7 * 5


def _csv_write(path, kind, columns):
    # reference writer: the csv module, one formatted cell at a time
    names = SCHEMAS[kind]
    cells = [[str(v) for v in columns[name]] if name in TEXT_COLUMNS
             else ["%.12e" % v for v in np.asarray(columns[name], dtype=float).tolist()]
             for name in names]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(names)
        w.writerows(zip(*cells))


def _csv_read(path):
    # reference reader: the csv module, one parsed cell at a time
    with open(path, newline="") as fh:
        header, *body = list(csv.reader(fh))
    return {name: np.array([r[k] for r in body]) if name in TEXT_COLUMNS
            else np.array([r[k] for r in body], dtype=float)
            for k, name in enumerate(header)}


def test_artifact_io_matches_csv_module(tmp_path):
    # the block writer and the loadtxt reader give the bytes and arrays of
    # the per-cell csv-module route, for every kind and for one-row files
    rng = np.random.default_rng(11)
    odd = [-0.0, 1e-300, -1.5e300, 5e-324, np.inf, -np.inf, np.nan]
    for kind, names in SCHEMAS.items():
        for n_rows in (1, 40):
            columns = {}
            for name in names:
                if name in TEXT_COLUMNS:
                    columns[name] = [f"{k % 13}-{k % 3}" if name == "pair" else str(k * 7)
                                     for k in range(n_rows)]
                else:
                    vals = rng.normal(size=n_rows) * 10.0 ** rng.integers(-20, 20, n_rows)
                    vals[: len(odd)] = odd[:n_rows]
                    columns[name] = vals
            ours, ref = tmp_path / f"{kind}_{n_rows}.csv", tmp_path / f"ref_{kind}_{n_rows}.csv"
            _write_table(ours, kind, [columns])
            _csv_write(ref, kind, columns)
            assert ours.read_bytes() == ref.read_bytes(), (kind, n_rows)
            art, expect = read_artifact(ours), _csv_read(ref)
            assert art["kind"] == kind and list(art["columns"]) == list(names)
            for name in names:
                got = art["columns"][name]
                assert got.shape == (n_rows,) and got.dtype == expect[name].dtype, (kind, name)
                assert np.array_equal(got, expect[name], equal_nan=name not in TEXT_COLUMNS)


def _e12_lines(x):
    # the encoder's cells of x, one per line, its NUL padding dropped
    words = np.zeros((x.size, 6), dtype=np.uint32)
    harness._e12_words(x, words[:, :5])
    cells = words.view(np.uint8)
    cells[:, -1] = ord("\n")
    return cells[cells != 0].tobytes().decode().splitlines()


def _assert_percent_e12(x):
    x = np.asarray(x, dtype=float).ravel()
    want = ["%.12e" % v for v in x.tolist()]
    got = _e12_lines(x)
    wrong = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not wrong, wrong[:5]


def _neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


def test_e12_encoder_matches_percent_format(tmp_path, monkeypatch):
    # every cell of the array encoder is the cell of "%.12e" % v: random
    # values over every decimal exponent, the 13-digit ties (k + 1/2) 10^j
    # (exact in binary for j = 0 ... 3, the nearest double elsewhere), the
    # powers of ten and the values that round into the next decade with
    # their one-ulp neighbours (these cover the edges of the fast path,
    # exponents -32 ... 34 with one exact scaling from -10 up),
    # subnormals, +-0, +-inf and nan, and every float column that one run
    # of each preset writes
    rng = np.random.default_rng(23)
    n = 100_000
    with np.errstate(over="ignore"):
        spread = (rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 10.0, n)
                  * 10.0 ** rng.integers(-320, 309, n))
    digits = rng.integers(10**12, 10**13, 40)
    ties = [float(f"{k}5e{j - 1}") for k in digits for j in range(-40, 41)]
    ties += [(float(k) + 0.5) * 10.0**j for k in digits for j in range(4)]
    powers = [float(f"1e{j}") for j in range(-323, 309)]
    carries = [float(f"9.9999999999995e{j}") for j in range(-310, 308)]
    edges = np.concatenate([rng.uniform(1.0, 10.0, 1000) * float(f"1e{j}")
                            for j in (-33, -32, -11, -10, 34, 35)])
    subnormals = rng.integers(1, 2**52, 1000).astype(np.uint64).view(np.float64)
    odd = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
           1.7976931348623157e308]
    for x in (spread, ties, _neighbours(powers), _neighbours(carries), _neighbours(edges),
              subnormals, -subnormals, odd):
        _assert_percent_e12(x)

    columns = {}  # (artifact, float column) -> its blocks

    def collect(path, kind, blocks):
        blocks = list(blocks)
        for block in blocks:
            for name in SCHEMAS[kind]:
                if name not in TEXT_COLUMNS:
                    columns.setdefault((path, name), []).append(block[name])
        _write_table(path, kind, blocks)

    monkeypatch.setattr(harness, "_write_table", collect)
    for name in preset_names():
        run_experiment(config_from_dict(preset_config(name)), out_root=tmp_path)
    assert len(columns) == 100  # six presets, 21 artifacts
    for blocks in columns.values():
        _assert_percent_e12(np.concatenate(blocks))


def test_integer_labels_match_csv_module(tmp_path):
    # site columns arrive as integer arrays and are written from their
    # digits: one- to four-digit indices, zero included, give the bytes of
    # str() per cell
    site = np.concatenate([np.tile(np.arange(12), 3), [0, 7, 10, 99, 100, 1005]])
    columns = {"omega": np.linspace(-1.0, 1.0, site.size), "site": site,
               "gamma": np.full(site.size, 0.25), "shift": -np.arange(site.size) / 3.0}
    ours, ref = tmp_path / "ours_rates.csv", tmp_path / "ref_rates.csv"
    _write_table(ours, "rates", [columns])
    _csv_write(ref, "rates", columns)
    assert ours.read_bytes() == ref.read_bytes()


def test_trajectory_write_stays_within_its_artifact_term(tmp_path):
    # the artifact term that every trajectory engine's memory rule adds
    # bounds a real write: the engine's occupations and one block of
    # columns and cell tables. 20001 times of 5 sites make 24 blocks;
    # measured 0.37 of the term (the occupations take 8 B a row against the
    # rule's 32, a block 318 B per block row against its 600; 0.24 when the
    # term charged 64 B a row)
    n_t, n = 20001, 5
    assert n_t * n > 3 * harness._WRITE_BLOCK
    t = np.linspace(0.0, 200.0, n_t)
    u = np.random.default_rng(5).random((n_t, n))
    tracemalloc.start()
    try:
        occ = 0.5 * (1.0 + (2.0 * u - 1.0))
        harness._write_trajectory(tmp_path / "kbe_trajectory.csv", t, occ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < harness._artifact_bytes(n_t, n)


def test_trajectory_comparison_stays_within_its_read_back_rule(tmp_path, monkeypatch):
    # comparing two trajectories reads both files back at once. Over 200001
    # times of 5 sites, 10^6 rows a file, that peaks at 0.77 of the rule
    # (123 MB; 209 MB when labels were parsed as 16-character text), and
    # validation charges it to a config that compares trajectories, naming
    # time.t_max: fig4-bottom over these times, whose kbe and lindblad
    # rules stay below the read-back's
    n_t, n = 200001, 5
    t = np.linspace(0.0, 8000.0, n_t)
    rng = np.random.default_rng(6)
    a, b = tmp_path / "a_trajectory.csv", tmp_path / "b_trajectory.csv"
    harness._write_trajectory(a, t, rng.random((n_t, n)))
    harness._write_trajectory(b, t, rng.random((n_t, n)))
    tracemalloc.start()
    try:
        report = compare_artifacts(a, b, {"trajectory": 1.0})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.metrics[0].note == f"{n} shared site(s)"
    assert peak < harness._readback_bytes(n_t, n)
    raw = preset_config("fig4-bottom")
    raw["time"]["t_max"] = (n_t - 1) * raw["time"]["dt"]
    config_from_dict(copy.deepcopy(raw))
    monkeypatch.setattr(harness, "MEMORY_CAP_BYTES", harness._readback_bytes(n_t, n) - 1)
    with pytest.raises(ConfigError, match="time.t_max") as info:
        config_from_dict(raw)
    assert "comparing trajectories of 5 sites" in str(info.value)


def test_spectra_comparison_stays_within_its_rule(tmp_path):
    # a run that compares two spectra reads both files back at once, one
    # row per point and pair: fig2-upper's lindblad and blochredfield
    # spectra on all 25 pairs of its 5 sites over 20001 points peak at
    # 95 MB under tracemalloc, 93 MB of it in the comparison. That is 0.43
    # of the spectra rule (0.61 before the rule counted the artifact's
    # columns and fixed costs, 35 MB before it counted the read-back)
    raw = preset_config("fig2-upper")
    raw["engines"] = ["lindblad", "blochredfield"]
    raw["grid"]["pairs"] = [[i, j] for i in range(5) for j in range(5)]
    raw["grid"]["n_points"] = 20001
    cfg = config_from_dict(raw)
    tracemalloc.start()
    try:
        result = run_experiment(cfg, out_root=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not result.engine_errors and len(result.reports) == 1
    assert peak < harness._spectra_bytes(cfg)


@pytest.mark.parametrize("engine", ["lindblad", "blochredfield"])
@pytest.mark.parametrize("n_points", [101, 1601])
def test_master_equation_spectra_stay_within_their_rule(tmp_path, engine, n_points):
    # fig2-upper with one master-equation engine, warm: the rule charges the
    # artifact's columns and one write block, and blochredfield's resolvent
    # tables, beside the per-point tables. Measured 0.13 and 1.85 MB for
    # lindblad (0.05 and 0.53 of the rule) and 1.01 and 3.83 MB for
    # blochredfield (0.17 and 0.55); a rule of 64 s^2 + 32 N bytes per point
    # alone counted 0.04 and 0.67 MB
    raw = preset_config("fig2-upper")
    raw["engines"] = [engine]
    raw["grid"]["n_points"] = n_points
    cfg = config_from_dict(raw)
    run_experiment(cfg, out_root=tmp_path / "warm")
    tracemalloc.start()
    try:
        result = run_experiment(cfg, out_root=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.ok
    assert peak < harness._spectra_bytes(cfg)


def _keldysh_tls_config(n_points, n_tls):
    return {"version": 1, "name": "keldysh-tls",
            "system": {"n_sites": 5, "onsite": 2.0, "hopping": 0.5, "boundary": "open"},
            "bath": {"kind": "tls", "target_rate": 0.2, "n_tls": n_tls, "band": [1.0, 3.0]},
            "engines": ["keldysh"],
            "grid": {"omega_min": 0.0, "omega_max": 4.0, "n_points": n_points,
                     "pairs": [[0, 0], [0, 1]]}}


@pytest.mark.parametrize("n_points, n_tls", [(2001, 2000), (4001, 1000)])
def test_keldysh_tls_spectra_stay_within_their_rule(tmp_path, n_points, n_tls):
    # keldysh on tls baths builds complex (n_points, n_tls) pole tables one
    # site at a time, which the spectra rule counts at 32 B per point and
    # level: a 5-site run peaks at 130 MB, 0.93 and 0.84 of the rule on
    # these shapes, where the rule without the tables counted 13 and 26 MB
    cfg = config_from_dict(_keldysh_tls_config(n_points, n_tls))
    tracemalloc.start()
    try:
        result = run_experiment(cfg, out_root=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not result.engine_errors
    assert peak < harness._spectra_bytes(cfg)


def test_keldysh_tls_spectra_over_the_cap_rejected_before_any_allocation():
    # 10^4 TLS per site on 20001 points are 6.4 GB of pole tables: refused
    # by validation, naming grid.n_points, before any table is built
    raw = _keldysh_tls_config(20001, 10_000)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="grid.n_points") as info:
            config_from_dict(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.field == "grid.n_points"
    assert peak < 100_000


def test_labels_keep_file_order(tmp_path):
    # distinct pairs and sites come in the order the file first names them
    assert harness._labels(np.array(["3-4", "0-0", "3-4", "10-1", "0-0"])) == ["3-4", "0-0", "10-1"]
    omega = np.linspace(0.0, 4.0, 401)
    curves = {"1-1": _lorentzian(omega, 1.0, 0.1), "0-0": _lorentzian(omega, 3.0, 0.1)}
    columns = {name: np.zeros(2 * omega.size) for name in SCHEMAS["spectra"]}
    columns.update(omega=np.tile(omega, 2), pair=np.repeat(list(curves), omega.size),
                   spectral=np.concatenate(list(curves.values())))
    path = tmp_path / "x_spectra.csv"
    _write_table(path, "spectra", [columns])
    table = peak_table_from_csv(path)
    assert list(table) == ["1-1", "0-0"]
    assert [round(p.position, 2) for tag in table for p in table[tag]] == [1.0, 3.0]


def test_compare_unresolved_widths(tmp_path):
    # two lines so close that the dip between them stays above half height
    w = np.linspace(-2.0, 2.0, 1001)
    y = _lorentzian(w, -0.15, 0.25) + _lorentzian(w, 0.15, 0.25)
    assert [math.isnan(p.fwhm) for p in find_spectral_peaks(w, y)] == [True, True]
    a, b = tmp_path / "a_spectra.csv", tmp_path / "b_spectra.csv"
    _write_spectra(a, w, y)
    _write_spectra(b, w, y)

    def fwhm_metric(**tolerances):
        report = compare_artifacts(a, b, tolerances=tolerances)
        return next(m for m in report.metrics if m.name == "fwhm-ratio:0-0")

    info = fwhm_metric()
    assert info.to_dict()["value"] is None
    assert info.passed is None
    assert info.note == "2 unresolved width(s) skipped"
    assert fwhm_metric(fwhm=0.1).passed is False


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


def test_manifest_versions_leave_out_scipy(tmp_path):
    # no package code depends on scipy, which only the test extra installs
    result = run_experiment(config_from_dict(_tiny_trajectory_config()), out_root=tmp_path)
    manifest = json.loads((result.run_dir / "manifest.json").read_text())
    assert sorted(manifest["versions"]) == ["noisychain", "numpy", "python"]
    # the source that ran, not whichever distribution is installed
    assert manifest["versions"]["noisychain"] == noisychain.__version__


def test_version_matches_pyproject():
    # the package version is written twice; this pins the copies together
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["version"] == noisychain.__version__


def test_rerun_bodies_are_byte_identical(tmp_path):
    cfg = config_from_dict(_tiny_trajectory_config())
    r1 = run_experiment(cfg, out_root=tmp_path / "one")
    r2 = run_experiment(cfg, out_root=tmp_path / "two")
    assert r1.artifacts == r2.artifacts
    for fname in r1.artifacts:
        assert (r1.run_dir / fname).read_bytes() == (r2.run_dir / fname).read_bytes()


def test_rerun_clears_only_the_previous_artifacts(tmp_path):
    # a sweep over two widths, then over two others, into one out root: only
    # the second run's spectra stay, next to a file no manifest names
    raw = {
        "version": 1,
        "name": "sw",
        "system": {"n_sites": 4, "onsite": 2.0, "hopping": 1.0},
        "bath": {"kind": "ohmic", "cutoff": 800.0, "temperature": 300.0},
        "engines": ["keldysh"],
        "grid": {"omega_min": 0.0, "omega_max": 4.0, "n_points": 401,
                 "pairs": [[0, 0]]},
        "sweep": {"gamma2": [0.05, 0.1]},
    }
    first = run_experiment(config_from_dict(copy.deepcopy(raw)), out_root=tmp_path)
    assert "keldysh_spectra_gamma2_0.05.csv" in first.artifacts
    (first.run_dir / "notes.txt").write_text("kept\n")
    raw["sweep"]["gamma2"] = [0.2, 0.4]
    second = run_experiment(config_from_dict(raw), out_root=tmp_path)
    assert second.run_dir == first.run_dir
    on_disk = sorted(p.name for p in second.run_dir.iterdir())
    assert on_disk == sorted(second.artifacts + ["manifest.json", "notes.txt"])
    assert second.artifacts == [
        "keldysh_spectra_gamma2_0.2.csv", "keldysh_spectra_gamma2_0.4.csv", "peak_counts.csv"
    ]
    assert (second.run_dir / "notes.txt").read_text() == "kept\n"
    # the previous report goes with the artifacts it compared
    both = run_experiment(config_from_dict(_tiny_trajectory_config()), out_root=tmp_path)
    assert "report.json" in json.loads((both.run_dir / "manifest.json").read_text())["artifacts"]
    alone = run_experiment(config_from_dict(_tiny_trajectory_config(engines=["kbe"])),
                           out_root=tmp_path)
    assert sorted(p.name for p in alone.run_dir.iterdir()) == ["kbe_trajectory.csv", "manifest.json"]


def test_partial_engine_failure_keeps_artifacts(tmp_path, monkeypatch):
    def out_of_room(*args, **kwargs):
        raise CapacityError("no room for the exact solver")

    monkeypatch.setattr(qme, "exact_tls_evolve", out_of_room)
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
    # the exact solver fails at run time; the integrator's artifact must
    # survive the sibling failure
    assert not result.ok
    assert list(result.engine_errors) == ["exact_tls"]
    assert "CapacityError" in result.engine_errors["exact_tls"]
    assert any("kbe" in f for f in result.artifacts)
    manifest = json.loads((result.run_dir / "manifest.json").read_text())
    assert manifest["engine_errors"] == result.engine_errors


def test_exact_tls_size_checked_before_any_output(tmp_path, capsys):
    # three TLS per site is 20 levels: every engine of fig4-top runs; a
    # level count whose dense eigensystem exceeds the memory cap is refused
    # at validation, naming bath.n_tls, before kbe (listed first) writes
    raw = preset_config("fig4-top")
    raw["bath"]["n_tls"] = 3
    result = run_experiment(config_from_dict(copy.deepcopy(raw)), out_root=tmp_path / "ok")
    assert result.ok and result.engine_errors == {}
    assert "exact_tls_trajectory.csv" in result.artifacts
    raw["bath"]["n_tls"] = 4000
    with pytest.raises(ConfigError, match="bath.n_tls"):
        config_from_dict(copy.deepcopy(raw))
    path = tmp_path / "fig4-top.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out-fig4-top"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "bath.n_tls" in capsys.readouterr().err
    assert not out.exists()


def test_kbe_memory_checked_before_any_output(tmp_path, capsys):
    # the kbe working set and its trajectory artifact are sized at
    # validation, naming time.t_max: a 50-site wide-band run over 10^6
    # steps fits the cap in the integrator (1.7 GB) but not with its
    # artifact (about 3.3 GB), so it is refused before any engine writes and
    # before any large array exists; 20 sites fit
    raw = preset_config("fig4-bottom")
    raw["engines"] = ["kbe"]
    raw["time"] = {"t_max": 1000.0, "dt": 0.001}
    raw["system"]["n_sites"] = 20
    config_from_dict(copy.deepcopy(raw))
    raw["system"]["n_sites"] = 50
    assert stream_bytes(50, 1_000_001, 1) < MEMORY_CAP_BYTES
    path = tmp_path / "fig4-bottom.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out-fig4-bottom"
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="time.t_max"):
            config_from_dict(copy.deepcopy(raw))
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "time.t_max" in capsys.readouterr().err
    assert not out.exists()
    assert peak < 20e6


def test_kbe_step_checked_before_any_output(tmp_path, capsys):
    # the integrator's step guard runs when the plan is built: fig4-top at
    # dt = 0.05 is refused, naming time.dt, before exact_tls or lindblad
    # write their trajectories
    raw = preset_config("fig4-top")
    raw["time"]["dt"] = 0.05
    cfg = config_from_dict(copy.deepcopy(raw))
    with pytest.raises(ConfigError, match="time.dt") as info:
        run_experiment(cfg, out_root=tmp_path / "runs")
    assert "too coarse" in str(info.value) and "need dt <=" in str(info.value)
    assert not (tmp_path / "runs").exists()
    path = tmp_path / "fig4-top.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out-fig4-top"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "time.dt" in capsys.readouterr().err
    assert not out.exists()


def test_kbe_long_memory_run_validates():
    # fig4-top over four times its preset span: the full two-time planes
    # would need about 21 GB, the kbe working set about 1.6 MB
    raw = preset_config("fig4-top")
    raw["time"]["t_max"] = 40.0
    cfg = config_from_dict(raw)
    assert cfg.time.t_max == 40.0


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
    rates = tmp_path / "keldysh_rates.csv"
    rates.write_text("omega,site,gamma,shift\n0.0,0,1.0e-1,2.0e-2\n")
    assert main(["compare", str(rates), str(rates)]) == 2
    assert "no comparison defined" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # engines run one after the other
        main(["run", "--config", "fig4-bottom", "--jobs", "2", "--out", str(tmp_path / "j")])
    assert exc.value.code == 2
    capsys.readouterr()
    for flags in (["--tolerance", "bogus=1"], ["--tolerance", "fwhm=nan"],
                  ["--tolerance", "position=-1"], ["--window", "2"], ["--prominence", "7"]):
        assert main(["compare", str(a), str(b), *flags]) == 2
        assert "config field" in capsys.readouterr().err
    assert main(["peaks", str(a), "--window", "2"]) == 2
    assert "peaks.window" in capsys.readouterr().err
    # the --seed override obeys the seed rule of the config table
    out = tmp_path / "seeded"
    assert main(["run", "--config", "fig4-top", "--seed", "-1", "--out", str(out)]) == 2
    assert "'seed'" in capsys.readouterr().err
    assert not out.exists()
    # a run name is one directory below the output root, never a path
    for name in ("../escape", "", ".", "..", "a/b", "a\\b"):
        path = tmp_path / "named.yaml"
        path.write_text(yaml.safe_dump(_tiny_trajectory_config(name=name)))
        out = tmp_path / "runs" / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "'name'" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


def _schema_paths(cls, prefix=""):
    for f in fields(cls):
        if f.metadata:
            yield prefix + f.name
            if is_dataclass(f.metadata["kind"]):
                yield from _schema_paths(f.metadata["kind"], f"{prefix}{f.name}.")


_ROOT_KEYS = {f.name for f in fields(ExperimentConfig) if f.metadata}


# hostile values only: no large integers, so no case allocates much or runs long
@settings(max_examples=400, deadline=None)
@given(
    preset=st.sampled_from(preset_names()),
    path=st.sampled_from(sorted(_schema_paths(ExperimentConfig))),
    value=st.sampled_from([float("nan"), float("inf"), float("-inf"), -1, 0, True, "1",
                           None, [], {}, [1]]),
)
def test_mutated_preset_validates_or_names_a_field(preset, path, value):
    raw = preset_config(preset)
    _set(raw, path, copy.deepcopy(value))
    try:
        _Plan(config_from_dict(raw))
    except ConfigError as exc:
        assert exc.field.split(".")[0] in _ROOT_KEYS, exc


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


def test_every_exported_name_resolves():
    # a stale __all__ entry fails only at `import *`: resolve every name the
    # package and each of its modules exports
    modules = [
        importlib.import_module(f"noisychain.{path.stem}")
        for path in sorted(Path(noisychain.__file__).parent.glob("*.py"))
        if path.stem != "__init__"
    ]
    exporting = [m for m in [noisychain, *modules] if hasattr(m, "__all__")]
    assert len(exporting) >= 8
    for module in exporting:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        assert len(set(module.__all__)) == len(module.__all__), module.__name__


def test_every_top_level_definition_is_used_in_src():
    # code that only tests call belongs in tests/: every top-level function
    # and class of the package is named somewhere in src/ outside its own
    # definition. Strings in __all__ and the names an import binds are not
    # uses, so a re-export alone does not count
    trees = [ast.parse(path.read_text())
             for path in Path(noisychain.__file__).parent.glob("*.py")]
    uses = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, set()).add(node)
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, set()).add(node)
    unused = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                inside = set(ast.walk(node))
                if not uses.get(node.name, set()) - inside:
                    unused.append(node.name)
    assert not unused


def test_import_leaves_out_signal_and_stats():
    # the package and its CLI load neither scipy.signal nor scipy.stats,
    # which together cost more start-up time than most runs take; scipy.sparse
    # is loaded anyway by scipy.integrate, so the source itself is checked for
    # imports of all three. Nor do they load yaml (read only for a config
    # file or a --tolerance value) or importlib.metadata
    banned = ("scipy.sparse", "scipy.signal", "scipy.stats")
    for path in Path(noisychain.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            for name in names:
                assert not any(name == b or name.startswith(b + ".") for b in banned), \
                    (path.name, name)
    src = str(Path(noisychain.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import noisychain, noisychain.cli; "
        "print(sorted(m for m in ('scipy.signal', 'scipy.stats', 'yaml', 'importlib.metadata') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_package_runs_without_scipy(tmp_path):
    # scipy is a test oracle only: no module of the package imports it, not
    # even inside a function, and with every scipy import blocked the package,
    # its CLI and a fig2-upper plus a fig4-top run load no scipy module. Those
    # runs load no yaml or importlib.metadata either, so neither was merely
    # put off from import time into the run
    for path in Path(noisychain.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n == "scipy" or n.startswith("scipy.") for n in names), \
                (path.name, names)
    src = str(Path(noisychain.__file__).parents[1])
    code = f"""
import sys

class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{{name}} is blocked")

sys.meta_path.insert(0, Blocker())
sys.path.insert(0, {src!r})
import noisychain, noisychain.cli
for preset in ("fig2-upper", "fig4-top"):
    assert noisychain.cli.main(["run", "--config", preset, "--out", {str(tmp_path)!r}]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
print(sorted(m for m in ("yaml", "importlib.metadata") if m in sys.modules))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-2:] == ["[]", "[]"]
    assert {p.name for p in tmp_path.iterdir()} == {"fig2-upper", "fig4-top"}


def test_scripts_call_run_experiment_by_its_signature():
    scripts = sorted((Path(__file__).parents[1] / "scripts").glob("*.py"))
    assert scripts
    signature = inspect.signature(run_experiment)
    calls = 0
    for path in scripts:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) != "run_experiment":
                continue
            calls += 1
            # raises TypeError on a keyword run_experiment does not take
            signature.bind(*node.args, **{k.arg: k.value for k in node.keywords})
    assert calls
    src = str(Path(noisychain.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    for path in scripts:
        out = subprocess.run(
            [sys.executable, str(path), "--help"], capture_output=True, text=True, env=env
        )
        assert out.returncode == 0, (path.name, out.stderr)
