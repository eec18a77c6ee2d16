"""Config validation, artifacts, peak detection, comparisons, CLI wiring."""

import copy
import json
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from noisychain import qme
from noisychain.cli import main
from noisychain.errors import CapacityError, ConfigError
from noisychain.harness import (
    CONFIG_VERSION,
    ENGINES,
    OUT_ENV_VAR,
    ExperimentConfig,
    _Plan,
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
    del raw["qme"]["warmup_time"]
    with pytest.raises(ConfigError, match="qme.warmup_time"):
        config_from_dict(raw)  # the register steady state needs a warmup


def test_qme_numbers_rejected():
    # rates and the warmup are checked before any engine runs; a negative
    # warmup would grow the decaying modes. Spectra need no correlation
    # window, so tau_max and d_tau are unknown fields
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
    ok["qme"].update(gamma1=0.0, gamma2star=0.0, warmup_time=0.0)
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
    path = tmp_path / "fig4-bottom.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out-fig4-bottom"
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
