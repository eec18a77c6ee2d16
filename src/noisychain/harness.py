"""Config-driven experiment harness.

A run turns one validated config into CSV artifacts plus a manifest and,
when several engines produce the same kind of artifact, a comparison
report. Configs are YAML with nested sections (schema version 1, documented
in the README); every parameter is checked against the owning module's
preconditions before any computation starts, so an invalid config never
leaves half-written artifacts behind.

Artifact kinds and their schemas:
  spectra     omega, pair, re_retarded, im_retarded, re_keldysh,
              im_keldysh, spectral          (one row per frequency and pair)
  trajectory  t, site, occupation, re_keldysh, im_keldysh
  rates       omega, site, gamma, shift
All floats are written as %.12e so reruns with the same config and seed
produce byte-identical bodies; wall-clock information lives only in the
manifest. Frequencies and times are in units of the hopping.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import importlib.metadata
import json
import math
import platform
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml
from scipy.signal import find_peaks

from . import qme
from .baths import OhmicBath, TlsBath, WideBandBath, noise_power, sample_tls_bath
from .errors import ConfigError
from .kbe import (
    InitialState,
    kbe_integrate,
    markov_self_energy,
    occupations,
    tls_memory_self_energy,
)
from .keldysh import extract_rates, spectral_weight, steady_state_greens
from .lattice import FreqGrid, build_chain

__all__ = [
    "ENGINES",
    "ExperimentConfig",
    "config_from_dict",
    "load_config",
    "run_experiment",
    "RunResult",
    "Peak",
    "find_spectral_peaks",
    "peak_table_from_csv",
    "read_artifact",
    "Metric",
    "ComparisonReport",
    "compare_artifacts",
    "resolve_out_root",
]

ENGINES = ("keldysh", "kbe", "lindblad", "blochredfield", "exact_tls")
CONFIG_VERSION = 1
OUT_ENV_VAR = "NOISYCHAIN_OUT"

_REQUIRED = object()


# ---------------------------------------------------------------- config --


def _coerce(val, kind, field):
    """val as kind, else a ConfigError naming field; bools are never numbers."""

    try:
        if kind is float:
            if isinstance(val, bool):
                raise TypeError
            return float(val)
        if kind is int:
            if isinstance(val, bool) or (
                isinstance(val, float) and not float(val).is_integer()
            ):
                raise TypeError
            return int(val)
        if not isinstance(val, kind):
            raise TypeError
        return val
    except (TypeError, ValueError):
        raise ConfigError(field, f"expected {kind.__name__}, got {val!r}") from None


def _get(section, path, key, kind, default=_REQUIRED, choices=None):
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return default
    val = _coerce(section[key], kind, f"{path}.{key}")
    if choices is not None and val not in choices:
        raise ConfigError(f"{path}.{key}", f"must be one of {sorted(choices)}")
    return val


def _reject_unknown(section, path, known):
    for key in section:
        if key not in known:
            raise ConfigError(f"{path}.{key}", "unknown field")


def _section(raw, path, key, required=False):
    sec = raw.get(key)
    if sec is None:
        if required:
            raise ConfigError(f"{path}{key}", "missing required section")
        return None
    if not isinstance(sec, dict):
        raise ConfigError(f"{path}{key}", "must be a mapping")
    return sec


@dataclass
class SystemConfig:
    n_sites: int
    onsite: float
    hopping: float
    boundary: str = "periodic"
    beta: float = math.inf


@dataclass
class BathConfig:
    kind: str
    alpha: float = None
    cutoff: float = None
    temperature: float = 0.0
    target_rate: float = None
    n_tls: int = None
    band: tuple = None
    rate: float = None


@dataclass
class GridConfig:
    omega_min: float
    omega_max: float
    n_points: int
    eta: float = None
    pairs: tuple = ((0, 0), (0, 1))


@dataclass
class TimeConfig:
    t_max: float
    dt: float


@dataclass
class InitialConfig:
    excited_site: int = 0


@dataclass
class QmeConfig:
    gamma1: float = None
    gamma2star: float = None
    tau_max: float = None
    d_tau: float = None
    warmup_time: float = None
    secular: bool = False
    lamb_shift: bool = True


@dataclass
class PeaksConfig:
    prominence: float = 0.01
    window: int = 3


@dataclass
class ExperimentConfig:
    name: str
    system: SystemConfig
    bath: BathConfig
    engines: tuple
    grid: GridConfig = None
    time: TimeConfig = None
    initial: InitialConfig = field(default_factory=InitialConfig)
    qme: QmeConfig = field(default_factory=QmeConfig)
    peaks: PeaksConfig = field(default_factory=PeaksConfig)
    tolerances: dict = field(default_factory=dict)
    sweep_gamma2: tuple = None
    seed: int = 0
    out: str = None
    raw: dict = None


def _parse_system(raw):
    sec = _section(raw, "", "system", required=True)
    _reject_unknown(sec, "system", {"n_sites", "onsite", "hopping", "boundary", "beta"})
    cfg = SystemConfig(
        n_sites=_get(sec, "system", "n_sites", int),
        onsite=_get(sec, "system", "onsite", float),
        hopping=_get(sec, "system", "hopping", float),
        boundary=_get(
            sec, "system", "boundary", str, "periodic", choices={"periodic", "open"}
        ),
        beta=_get(sec, "system", "beta", float, math.inf),
    )
    if cfg.n_sites < 1:
        raise ConfigError("system.n_sites", "must be at least 1")
    if not cfg.beta > 0:
        raise ConfigError("system.beta", "must be positive (inf allowed)")
    return cfg


def _parse_bath(raw, sweeping):
    sec = _section(raw, "", "bath", required=True)
    kind = _get(sec, "bath", "kind", str, choices={"ohmic", "tls", "wideband"})
    if kind == "ohmic":
        _reject_unknown(sec, "bath", {"kind", "alpha", "cutoff", "temperature"})
        alpha = sec.get("alpha")
        if alpha is None and not sweeping:
            raise ConfigError("bath.alpha", "missing required field")
        if alpha is not None:
            alpha = _get(sec, "bath", "alpha", float)
            if alpha < 0:
                raise ConfigError("bath.alpha", "must be nonnegative")
        return BathConfig(
            kind=kind,
            alpha=alpha,
            cutoff=_get(sec, "bath", "cutoff", float),
            temperature=_get(sec, "bath", "temperature", float, 0.0),
        )
    if kind == "tls":
        _reject_unknown(sec, "bath", {"kind", "target_rate", "n_tls", "band", "temperature"})
        band = sec.get("band")
        if (
            not isinstance(band, (list, tuple))
            or len(band) != 2
            or not all(isinstance(x, (int, float)) for x in band)
        ):
            raise ConfigError("bath.band", "must be a [lo, hi] pair of numbers")
        return BathConfig(
            kind=kind,
            target_rate=_get(sec, "bath", "target_rate", float),
            n_tls=_get(sec, "bath", "n_tls", int),
            band=(float(band[0]), float(band[1])),
            temperature=_get(sec, "bath", "temperature", float, 0.0),
        )
    _reject_unknown(sec, "bath", {"kind", "rate"})
    return BathConfig(kind=kind, rate=_get(sec, "bath", "rate", float))


def _parse_grid(raw):
    sec = _section(raw, "", "grid")
    if sec is None:
        return None
    _reject_unknown(sec, "grid", {"omega_min", "omega_max", "n_points", "eta", "pairs"})
    pairs = sec.get("pairs", [[0, 0], [0, 1]])
    if not isinstance(pairs, (list, tuple)) or not pairs:
        raise ConfigError("grid.pairs", "must be a nonempty list of [i, j] pairs")
    cooked = []
    for p in pairs:
        if not isinstance(p, (list, tuple)) or len(p) != 2:
            raise ConfigError("grid.pairs", f"bad pair {p!r}, expected [i, j]")
        cooked.append(tuple(_coerce(v, int, "grid.pairs") for v in p))
    eta = sec.get("eta")
    return GridConfig(
        omega_min=_get(sec, "grid", "omega_min", float),
        omega_max=_get(sec, "grid", "omega_max", float),
        n_points=_get(sec, "grid", "n_points", int),
        eta=None if eta is None else _get(sec, "grid", "eta", float),
        pairs=tuple(cooked),
    )


def _parse_time(raw):
    sec = _section(raw, "", "time")
    if sec is None:
        return None
    _reject_unknown(sec, "time", {"t_max", "dt"})
    return TimeConfig(
        t_max=_get(sec, "time", "t_max", float), dt=_get(sec, "time", "dt", float)
    )


def _parse_qme(raw):
    sec = _section(raw, "", "qme")
    if sec is None:
        return QmeConfig()
    _reject_unknown(
        sec,
        "qme",
        {"gamma1", "gamma2star", "tau_max", "d_tau", "warmup_time", "secular", "lamb_shift"},
    )
    opt = lambda key: (
        None if sec.get(key) is None else _get(sec, "qme", key, float)
    )
    return QmeConfig(
        gamma1=opt("gamma1"),
        gamma2star=opt("gamma2star"),
        tau_max=opt("tau_max"),
        d_tau=opt("d_tau"),
        warmup_time=opt("warmup_time"),
        secular=_get(sec, "qme", "secular", bool, False),
        lamb_shift=_get(sec, "qme", "lamb_shift", bool, True),
    )


def _parse_tolerances(raw):
    sec = _section(raw, "", "compare")
    if sec is None:
        return {}
    _reject_unknown(sec, "compare", {"tolerance"})
    tol = sec.get("tolerance") or {}
    if not isinstance(tol, dict):
        raise ConfigError("compare.tolerance", "must be a mapping")
    known = {"position", "fwhm", "trajectory", "sumrule"}
    out = {}
    for key, val in tol.items():
        if key not in known:
            raise ConfigError(f"compare.tolerance.{key}", "unknown tolerance")
        if key == "position" and val == "grid":
            out[key] = "grid"
        elif isinstance(val, (int, float)) and not isinstance(val, bool) and val >= 0:
            out[key] = float(val)
        else:
            what = "a nonnegative number or 'grid'" if key == "position" else "a nonnegative number"
            raise ConfigError(f"compare.tolerance.{key}", f"must be {what}")
    return out


def config_from_dict(raw, name=None):
    """Validate a raw config mapping into an ExperimentConfig.

    Raises ConfigError naming the offending field. Cross-section rules
    (which engines need which sections, bath-kind restrictions) are
    enforced here; numeric preconditions of the physics modules are
    enforced by building the module objects in the run plan.
    """

    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a mapping")
    known = {
        "version",
        "name",
        "system",
        "bath",
        "engines",
        "grid",
        "time",
        "initial",
        "qme",
        "peaks",
        "compare",
        "sweep",
        "seed",
        "out",
    }
    _reject_unknown(raw, "<root>", known)
    version = _get(raw, "<root>", "version", int)
    if version != CONFIG_VERSION:
        raise ConfigError("version", f"unsupported config version {version}")
    name = _get(raw, "<root>", "name", str, name or "experiment")

    engines = raw.get("engines")
    if not isinstance(engines, (list, tuple)) or not engines:
        raise ConfigError("engines", "must be a nonempty list")
    for e in engines:
        if e not in ENGINES:
            raise ConfigError("engines", f"unknown engine {e!r}; known: {list(ENGINES)}")
    if len(set(engines)) != len(engines):
        raise ConfigError("engines", "engines listed twice")
    engines = tuple(engines)

    sweep = _section(raw, "", "sweep")
    sweep_gamma2 = None
    if sweep is not None:
        _reject_unknown(sweep, "sweep", {"gamma2"})
        vals = sweep.get("gamma2")
        if not isinstance(vals, (list, tuple)) or not vals:
            raise ConfigError("sweep.gamma2", "must be a nonempty list of widths")
        sweep_gamma2 = tuple(_coerce(v, float, "sweep.gamma2") for v in vals)
        if not all(v > 0 for v in sweep_gamma2):
            raise ConfigError("sweep.gamma2", "widths must be positive")

    system = _parse_system(raw)
    bath = _parse_bath(raw, sweeping=sweep_gamma2 is not None)
    grid = _parse_grid(raw)
    time_cfg = _parse_time(raw)

    init_sec = _section(raw, "", "initial")
    initial = InitialConfig()
    if init_sec is not None:
        _reject_unknown(init_sec, "initial", {"excited_site"})
        initial = InitialConfig(
            excited_site=_get(init_sec, "initial", "excited_site", int, 0)
        )
    if not 0 <= initial.excited_site < system.n_sites:
        raise ConfigError("initial.excited_site", "outside the chain")

    qme_cfg = _parse_qme(raw)
    peaks_sec = _section(raw, "", "peaks")
    peaks = PeaksConfig()
    if peaks_sec is not None:
        _reject_unknown(peaks_sec, "peaks", {"prominence", "window"})
        peaks = PeaksConfig(
            prominence=_get(peaks_sec, "peaks", "prominence", float, 0.01),
            window=_get(peaks_sec, "peaks", "window", int, 3),
        )
    if not 0 < peaks.prominence < 1:
        raise ConfigError("peaks.prominence", "must be in (0, 1)")
    if peaks.window < 1 or peaks.window % 2 == 0:
        raise ConfigError("peaks.window", "must be an odd positive integer")

    tolerances = _parse_tolerances(raw)
    seed = _get(raw, "<root>", "seed", int, 0)
    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out", "must be a string path")

    cfg = ExperimentConfig(
        name=name,
        system=system,
        bath=bath,
        engines=engines,
        grid=grid,
        time=time_cfg,
        initial=initial,
        qme=qme_cfg,
        peaks=peaks,
        tolerances=tolerances,
        sweep_gamma2=sweep_gamma2,
        seed=seed,
        out=out,
        raw=copy.deepcopy(raw),
    )
    _cross_validate(cfg)
    return cfg


def _cross_validate(cfg):
    needs_grid = {"keldysh"}
    needs_time = {"kbe", "exact_tls"}
    for e in cfg.engines:
        if e in needs_grid and cfg.grid is None:
            raise ConfigError("grid", f"engine '{e}' needs the grid section")
        if e in needs_time and cfg.time is None:
            raise ConfigError("time", f"engine '{e}' needs the time section")
        if e in ("lindblad", "blochredfield") and cfg.grid is None and cfg.time is None:
            raise ConfigError("engines", f"engine '{e}' needs a grid or time section")
    if "kbe" in cfg.engines and cfg.bath.kind == "ohmic":
        raise ConfigError(
            "bath.kind", "the two-time integrator takes wideband or tls baths only"
        )
    if "exact_tls" in cfg.engines and cfg.bath.kind != "tls":
        raise ConfigError("bath.kind", "exact_tls needs a tls bath")
    if "blochredfield" in cfg.engines and cfg.bath.kind != "ohmic":
        raise ConfigError("bath.kind", "blochredfield needs an ohmic bath")
    if cfg.sweep_gamma2 is not None:
        if cfg.bath.kind != "ohmic":
            raise ConfigError("sweep", "width sweeps need an ohmic bath")
        if cfg.bath.temperature <= 0:
            raise ConfigError("bath.temperature", "width sweeps need T > 0")
        if tuple(cfg.engines) != ("keldysh",):
            raise ConfigError("engines", "width sweeps run the keldysh engine only")
        if cfg.bath.alpha is not None:
            raise ConfigError("bath.alpha", "leave alpha unset when sweeping widths")
    register_caps = {"lindblad": qme.SPARSE_MAX_SITES, "blochredfield": qme.DENSE_MAX_SITES}
    for e, cap in register_caps.items():
        if e in cfg.engines and cfg.system.n_sites > cap:
            raise ConfigError(
                "system.n_sites", f"engine '{e}' runs registers of at most {cap} sites"
            )
    for e in ("lindblad", "blochredfield"):
        if e in cfg.engines and cfg.grid is not None:
            for key in ("tau_max", "d_tau", "warmup_time"):
                if getattr(cfg.qme, key) is None:
                    raise ConfigError(
                        f"qme.{key}", f"required for '{e}' spectra"
                    )
    if cfg.grid is not None:
        for i, j in cfg.grid.pairs:
            if not (0 <= i < cfg.system.n_sites and 0 <= j < cfg.system.n_sites):
                raise ConfigError("grid.pairs", f"pair ({i}, {j}) outside the chain")


def load_config(path):
    """Load and validate a YAML config file."""

    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError("<root>", f"not valid YAML: {exc}")
    return config_from_dict(raw, name=path.stem)


# ------------------------------------------------------------------ plan --


class _Plan:
    """Module objects built from a config, constructed before any output.

    Building these runs every owning module's own validation, which is the
    'validate before computing' contract. Engine functions only consume
    prebuilt objects.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        sys_cfg = cfg.system
        try:
            self.h = build_chain(
                sys_cfg.n_sites, sys_cfg.onsite, sys_cfg.hopping, sys_cfg.boundary
            )
        except ValueError as exc:
            raise ConfigError("system", str(exc))
        self.grid = None
        if cfg.grid is not None:
            try:
                self.grid = FreqGrid(
                    cfg.grid.omega_min,
                    cfg.grid.omega_max,
                    cfg.grid.n_points,
                    eta=cfg.grid.eta,
                )
            except ValueError as exc:
                raise ConfigError("grid", str(exc))
        self.t_grid = None
        if cfg.time is not None:
            steps = cfg.time.t_max / cfg.time.dt
            if cfg.time.dt <= 0 or cfg.time.t_max <= 0:
                raise ConfigError("time", "t_max and dt must be positive")
            if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
                raise ConfigError("time.t_max", "must be an integer multiple of dt")
            self.t_grid = np.arange(int(round(steps)) + 1) * cfg.time.dt
        try:
            self.site_baths = self._build_baths(cfg.bath, cfg.seed, sys_cfg.n_sites)
        except ValueError as exc:
            raise ConfigError("bath", str(exc))

    def _build_baths(self, bc, seed, n_sites):
        if bc.kind == "ohmic":
            if bc.alpha is None:
                return None  # sweeps build per-width baths on the fly
            bath = OhmicBath(alpha=bc.alpha, cutoff=bc.cutoff, temperature=bc.temperature)
            return [bath] * n_sites
        if bc.kind == "wideband":
            return [WideBandBath(rate=bc.rate)] * n_sites
        # one independent TLS draw per site, reproducible from the run seed
        return [
            sample_tls_bath(
                bc.target_rate, bc.n_tls, bc.band, seed=seed + i, temperature=bc.temperature
            )
            for i in range(n_sites)
        ]

    def gamma_rates(self):
        """(gamma1, gamma2star) for the Lindblad candidate, per D-ledger rules:
        explicit config values win, otherwise derived from the bath kind."""

        bc = self.cfg.bath
        g1 = self.cfg.qme.gamma1
        g2 = self.cfg.qme.gamma2star
        if g1 is None:
            if bc.kind == "wideband":
                g1 = bc.rate
            elif bc.kind == "tls":
                g1 = bc.target_rate
            else:
                g1 = 0.0
        if g2 is None:
            if bc.kind == "ohmic":
                bath = OhmicBath(alpha=bc.alpha, cutoff=bc.cutoff, temperature=bc.temperature)
                g2 = 0.5 * float(noise_power(bath, np.array([0.0]))[0])
            else:
                g2 = 0.0
        return float(g1), float(g2)


# ------------------------------------------------------------- artifacts --


def _fmt(x):
    return f"{float(x):.12e}"


def _writer(fh):
    return csv.writer(fh, lineterminator="\n")


def _write_spectra_csv(path, omegas, pairs, retarded, keldysh, spectral):
    # retarded/keldysh/spectral are dicts pair -> complex/real arrays
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(
            ["omega", "pair", "re_retarded", "im_retarded", "re_keldysh", "im_keldysh", "spectral"]
        )
        for pair in pairs:
            tag = f"{pair[0]}-{pair[1]}"
            ret = retarded[pair]
            kel = keldysh[pair]
            spe = spectral[pair]
            for k in range(omegas.size):
                w.writerow(
                    [
                        _fmt(omegas[k]),
                        tag,
                        _fmt(ret[k].real),
                        _fmt(ret[k].imag),
                        _fmt(kel[k].real),
                        _fmt(kel[k].imag),
                        _fmt(spe[k]),
                    ]
                )


def _write_trajectory_csv(path, t_grid, occ, keldysh_diag):
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["t", "site", "occupation", "re_keldysh", "im_keldysh"])
        for k in range(t_grid.size):
            for site in range(occ.shape[1]):
                kd = keldysh_diag[k, site]
                w.writerow(
                    [_fmt(t_grid[k]), str(site), _fmt(occ[k, site]), _fmt(kd.real), _fmt(kd.imag)]
                )


def _write_rates_csv(path, rates):
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["omega", "site", "gamma", "shift"])
        omegas = rates.grid.omegas
        for k in range(omegas.size):
            for site in range(rates.gamma.shape[1]):
                w.writerow(
                    [
                        _fmt(omegas[k]),
                        str(site),
                        _fmt(rates.gamma[k, site]),
                        _fmt(rates.shift[k, site]),
                    ]
                )


def read_artifact(path):
    """Read a CSV artifact into {'kind', 'columns': dict of arrays}.

    Raises ValueError on an unrecognized schema. pair/site columns come
    back as string arrays, everything else as floats.
    """

    path = Path(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name}: empty file")
    header = rows[0]
    schemas = {
        "spectra": ["omega", "pair", "re_retarded", "im_retarded", "re_keldysh", "im_keldysh", "spectral"],
        "trajectory": ["t", "site", "occupation", "re_keldysh", "im_keldysh"],
        "rates": ["omega", "site", "gamma", "shift"],
    }
    kind = next((k for k, cols in schemas.items() if header == cols), None)
    if kind is None:
        raise ValueError(f"{path.name}: unrecognized schema {header}")
    body = rows[1:]
    if not body:
        raise ValueError(f"{path.name}: no data rows")
    cols = {}
    text_cols = {"pair", "site"}
    for idx, name in enumerate(header):
        raw = [r[idx] for r in body]
        cols[name] = np.array(raw) if name in text_cols else np.array(raw, dtype=float)
    return {"kind": kind, "columns": cols, "path": str(path)}


# ----------------------------------------------------------------- peaks --


@dataclass
class Peak:
    position: float
    height: float
    fwhm: float  # NaN when not resolved down to half height


def _smooth(y, window):
    if window <= 1:
        return np.asarray(y, dtype=float)
    return np.convolve(y, np.ones(window) / window, mode="same")


def _half_crossing(omega, ys, start, half, step):
    i = start
    while True:
        j = i + step
        if j < 0 or j >= ys.size:
            return math.nan
        if ys[j] <= half:
            frac = (ys[i] - half) / (ys[i] - ys[j])
            return omega[i] + frac * (omega[j] - omega[i])
        if ys[j] > ys[i]:  # climbing a neighboring feature before half height
            return math.nan
        i = j


def find_spectral_peaks(omega, values, prominence=0.01, window=3, signed=False):
    """Deterministic peak table of a sampled spectrum.

    Candidates are strict local maxima of the window-smoothed curve with
    topographic prominence at least `prominence` times the curve maximum;
    positions get a 3-point parabolic refinement. signed=True rectifies the
    input first (cross spectra carry sign lobes). FWHM by linear
    interpolation of the half-maximum crossings walking outward; NaN when a
    side never reaches half height before climbing again.
    """

    omega = np.asarray(omega, dtype=float)
    y = np.asarray(values, dtype=float)
    if signed:
        y = np.abs(y)
    ys = _smooth(y, window)
    top = ys.max()
    if not np.isfinite(top) or top <= 0:
        return []
    idx, _ = find_peaks(ys, prominence=prominence * top)
    out = []
    for p in idx:
        y0, y1, y2 = ys[p - 1], ys[p], ys[p + 1]
        denom = y0 - 2.0 * y1 + y2
        off = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
        if not -1.0 < off < 1.0:
            off = 0.0
        spacing = omega[1] - omega[0]
        half = y1 / 2.0
        left = _half_crossing(omega, ys, p, half, -1)
        right = _half_crossing(omega, ys, p, half, +1)
        fwhm = right - left if math.isfinite(left) and math.isfinite(right) else math.nan
        out.append(Peak(position=float(omega[p] + off * spacing), height=float(y1), fwhm=fwhm))
    return out


def peak_table_from_csv(path, prominence=0.01, window=3):
    """Peak tables per pair from a spectra CSV: {pair_tag: [Peak, ...]}.

    Off-diagonal pairs are rectified before detection (their spectral
    weight is signed).
    """

    art = read_artifact(path)
    if art["kind"] != "spectra":
        raise ValueError(f"{Path(path).name}: peaks needs a spectra artifact")
    cols = art["columns"]
    tables = {}
    for tag in dict.fromkeys(cols["pair"]):  # preserve file order
        sel = cols["pair"] == tag
        i, j = tag.split("-")
        tables[tag] = find_spectral_peaks(
            cols["omega"][sel],
            cols["spectral"][sel],
            prominence=prominence,
            window=window,
            signed=i != j,
        )
    return tables


# --------------------------------------------------------------- engines --


def _spectra_from_freq_greens(greens, pairs):
    a = spectral_weight(greens)
    ret, kel, spe = {}, {}, {}
    for i, j in pairs:
        ret[(i, j)] = greens.retarded[:, i, j]
        kel[(i, j)] = greens.keldysh[:, i, j]
        spe[(i, j)] = a[:, i, j].real
    return ret, kel, spe


def _run_keldysh(plan, run_dir):
    cfg = plan.cfg
    pairs = cfg.grid.pairs
    if cfg.sweep_gamma2 is None:
        greens, sigma = steady_state_greens(
            plan.h, plan.site_baths, cfg.system.beta, plan.grid
        )
        ret, kel, spe = _spectra_from_freq_greens(greens, pairs)
        files = ["keldysh_spectra.csv"]
        _write_spectra_csv(run_dir / files[0], plan.grid.omegas, pairs, ret, kel, spe)
        _write_rates_csv(run_dir / "keldysh_rates.csv", extract_rates(sigma))
        files.append("keldysh_rates.csv")
        return files

    files = []
    counts = []
    for g2 in cfg.sweep_gamma2:
        bath = OhmicBath(
            alpha=g2 / cfg.bath.temperature,
            cutoff=cfg.bath.cutoff,
            temperature=cfg.bath.temperature,
        )
        greens, _ = steady_state_greens(
            plan.h, [bath] * cfg.system.n_sites, cfg.system.beta, plan.grid
        )
        ret, kel, spe = _spectra_from_freq_greens(greens, pairs)
        name = f"keldysh_spectra_gamma2_{g2:g}.csv"
        _write_spectra_csv(run_dir / name, plan.grid.omegas, pairs, ret, kel, spe)
        files.append(name)
        i0, j0 = pairs[0]
        table = find_spectral_peaks(
            plan.grid.omegas,
            spe[pairs[0]],
            prominence=cfg.peaks.prominence,
            window=cfg.peaks.window,
            signed=i0 != j0,
        )
        counts.append((g2, len(table)))
    with open(run_dir / "peak_counts.csv", "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["gamma2", "n_peaks"])
        for g2, cnt in counts:
            w.writerow([_fmt(g2), str(cnt)])
    files.append("peak_counts.csv")
    return files


def _qme_generator(plan, kind):
    cfg = plan.cfg
    if kind == "blochredfield":
        return qme.bloch_redfield_generator(
            plan.h,
            plan.site_baths,
            secular=cfg.qme.secular,
            lamb_shift=cfg.qme.lamb_shift,
        )
    g1, g2 = plan.gamma_rates()
    hs = qme.spin_hamiltonian(plan.h)
    return qme.LindbladGenerator(
        n_sites=cfg.system.n_sites, hamiltonian=hs, gamma1=g1, gamma2star=g2
    )


def _run_qme_spectra(plan, run_dir, kind):
    cfg = plan.cfg
    gen = _qme_generator(plan, kind)
    tau = np.arange(0.0, cfg.qme.tau_max + 1e-9 * cfg.qme.d_tau, cfg.qme.d_tau)
    results = []  # (sites tuple, QmeGreens) computed so far, reused across pairs
    ret, kel, spe = {}, {}, {}
    ordered = sorted(cfg.grid.pairs, key=lambda p: p[0] == p[1])
    for i, j in ordered:
        hit = None
        for res in results:
            if i in res.sites and j in res.sites:
                hit = res
                break
        if hit is None:
            hit = qme.qme_greens(gen, (i, j), tau, cfg.qme.warmup_time, plan.grid)
            results.append(hit)
        a = hit.sites.index(i)
        b = hit.sites.index(j)
        ret[(i, j)] = hit.retarded[:, a, b]
        kel[(i, j)] = hit.keldysh[:, a, b]
        spe[(i, j)] = hit.spectral[:, a, b].real
    name = f"{kind}_spectra.csv"
    _write_spectra_csv(run_dir / name, plan.grid.omegas, cfg.grid.pairs, ret, kel, spe)
    return [name]


def _equal_time_keldysh(occ):
    # K_ii(t, t) = -i (1 - 2 n_i)
    return 1j * (2.0 * occ - 1.0)


def _run_qme_trajectory(plan, run_dir, kind):
    cfg = plan.cfg
    n = cfg.system.n_sites
    gen = _qme_generator(plan, kind)
    c_ops = [qme.jw_fermion(i, n) for i in range(n)]
    dim = 2**n
    vac = np.zeros(dim)
    vac[0] = 1.0
    psi = c_ops[cfg.initial.excited_site].conj().T @ vac
    rho0 = np.outer(psi, psi.conj())
    rhos = qme.lindblad_evolve(gen, rho0, plan.t_grid)
    numbers = [c.conj().T @ c for c in c_ops]
    occ = np.empty((plan.t_grid.size, n))
    for k, rho in enumerate(rhos):
        for i, num in enumerate(numbers):
            occ[k, i] = float(np.real(np.trace(num @ rho)))
    name = f"{kind}_trajectory.csv"
    _write_trajectory_csv(run_dir / name, plan.t_grid, occ, _equal_time_keldysh(occ))
    return [name]


def _run_kbe(plan, run_dir):
    cfg = plan.cfg
    if cfg.bath.kind == "wideband":
        sigma = markov_self_energy(np.full(cfg.system.n_sites, cfg.bath.rate))
    else:
        sigma = tls_memory_self_energy(plan.site_baths)
    ini = InitialState.single_site(cfg.system.n_sites, cfg.initial.excited_site)
    greens = kbe_integrate(plan.h, sigma, ini, cfg.time.t_max, cfg.time.dt)
    occ, _ = occupations(greens)
    idx = np.arange(greens.n_times)
    kel_diag = np.einsum("tii->ti", greens.keldysh[idx, idx])
    _write_trajectory_csv(run_dir / "kbe_trajectory.csv", greens.t_grid, occ, kel_diag)
    return ["kbe_trajectory.csv"]


def _run_exact_tls(plan, run_dir):
    cfg = plan.cfg
    traj = qme.exact_tls_evolve(
        plan.h, plan.site_baths, cfg.initial.excited_site, plan.t_grid
    )
    occ = traj.qubit_occupations
    _write_trajectory_csv(
        run_dir / "exact_tls_trajectory.csv", plan.t_grid, occ, _equal_time_keldysh(occ)
    )
    return ["exact_tls_trajectory.csv"]


def _engine_jobs(plan):
    cfg = plan.cfg
    jobs = []
    for e in cfg.engines:
        if e == "keldysh":
            jobs.append((e, lambda rd, p=plan: _run_keldysh(p, rd)))
        elif e == "kbe":
            jobs.append((e, lambda rd, p=plan: _run_kbe(p, rd)))
        elif e == "exact_tls":
            jobs.append((e, lambda rd, p=plan: _run_exact_tls(p, rd)))
        else:
            if cfg.grid is not None:
                jobs.append(
                    (e, lambda rd, p=plan, k=e: _run_qme_spectra(p, rd, k))
                )
            if cfg.time is not None:
                jobs.append(
                    (e + "-dynamics", lambda rd, p=plan, k=e: _run_qme_trajectory(p, rd, k))
                )
    return jobs


# --------------------------------------------------------------- compare --


@dataclass
class Metric:
    name: str
    file_a: str
    file_b: str
    value: float
    tolerance: float = None
    passed: bool = None  # None: informational, no tolerance configured
    note: str = ""

    def to_dict(self):
        return {
            "name": self.name,
            "file_a": self.file_a,
            "file_b": self.file_b,
            "value": None if math.isnan(self.value) else self.value,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "note": self.note,
        }


@dataclass
class ComparisonReport:
    file_a: str
    file_b: str
    kind: str
    metrics: list

    @property
    def passed(self):
        return all(m.passed is not False for m in self.metrics)

    def to_dict(self):
        return {
            "file_a": self.file_a,
            "file_b": self.file_b,
            "kind": self.kind,
            "passed": self.passed,
            "metrics": [m.to_dict() for m in self.metrics],
        }

    def summary_lines(self):
        lines = [f"compare {Path(self.file_a).name} vs {Path(self.file_b).name} [{self.kind}]"]
        for m in self.metrics:
            status = "info" if m.passed is None else ("PASS" if m.passed else "FAIL")
            tol = "" if m.tolerance is None else f" (tol {m.tolerance:g})"
            note = f"  {m.note}" if m.note else ""
            val = "nan" if math.isnan(m.value) else f"{m.value:.6g}"
            lines.append(f"  [{status}] {m.name} = {val}{tol}{note}")
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return lines


def _metric(name, a, b, value, tol, note=""):
    passed = None
    if tol is not None:
        passed = bool(value <= tol) if not math.isnan(value) else False
    return Metric(
        name=name, file_a=a, file_b=b, value=float(value), tolerance=tol, passed=passed, note=note
    )


def _grid_spacing(omega):
    uniq = np.unique(omega)
    return float(uniq[1] - uniq[0]) if uniq.size > 1 else 0.0


def _compare_spectra(art_a, art_b, tolerances, prominence, window):
    a_cols, b_cols = art_a["columns"], art_b["columns"]
    name_a, name_b = art_a["path"], art_b["path"]
    spacing = max(_grid_spacing(a_cols["omega"]), _grid_spacing(b_cols["omega"]))
    tol_pos = tolerances.get("position")
    if tol_pos == "grid":
        tol_pos = spacing
    tol_fwhm = tolerances.get("fwhm")
    tol_sum = tolerances.get("sumrule")
    metrics = []
    pairs_a = list(dict.fromkeys(a_cols["pair"]))
    pairs_b = set(dict.fromkeys(b_cols["pair"]))
    shared = [t for t in pairs_a if t in pairs_b]
    if not shared:
        raise ValueError("no shared pairs between the spectra artifacts")
    for tag in shared:
        i, j = tag.split("-")
        signed = i != j
        sel_a = a_cols["pair"] == tag
        sel_b = b_cols["pair"] == tag
        peaks_a = find_spectral_peaks(
            a_cols["omega"][sel_a], a_cols["spectral"][sel_a], prominence, window, signed
        )
        peaks_b = find_spectral_peaks(
            b_cols["omega"][sel_b], b_cols["spectral"][sel_b], prominence, window, signed
        )
        if len(peaks_a) != len(peaks_b):
            metrics.append(
                _metric(
                    f"peak-position:{tag}",
                    name_a,
                    name_b,
                    math.inf,
                    tol_pos,
                    note=f"peak counts differ: {len(peaks_a)} vs {len(peaks_b)}",
                )
            )
            continue
        if not peaks_a:
            metrics.append(
                _metric(f"peak-position:{tag}", name_a, name_b, 0.0, tol_pos, note="no peaks")
            )
            continue
        pos_dev = max(
            abs(pa.position - pb.position) for pa, pb in zip(peaks_a, peaks_b)
        )
        metrics.append(
            _metric(
                f"peak-position:{tag}",
                name_a,
                name_b,
                pos_dev,
                tol_pos,
                note=f"{len(peaks_a)} peaks, grid spacing {spacing:g}",
            )
        )
        ratios = [
            abs(pa.fwhm / pb.fwhm - 1.0)
            for pa, pb in zip(peaks_a, peaks_b)
            if math.isfinite(pa.fwhm) and math.isfinite(pb.fwhm) and pb.fwhm > 0
        ]
        skipped = len(peaks_a) - len(ratios)
        note = f"{skipped} unresolved width(s) skipped" if skipped else ""
        value = max(ratios) if ratios else math.nan
        if not ratios and tol_fwhm is None:
            metrics.append(
                Metric(
                    name=f"fwhm-ratio:{tag}",
                    file_a=name_a,
                    file_b=name_b,
                    value=math.nan,
                    note=note or "no resolved widths",
                )
            )
        else:
            metrics.append(
                _metric(f"fwhm-ratio:{tag}", name_a, name_b, value, tol_fwhm, note)
            )
        if not signed:
            for art, fname in ((art_a, name_a), (art_b, name_b)):
                cols = art["columns"]
                sel = cols["pair"] == tag
                om = cols["omega"][sel]
                residual = abs(np.trapezoid(cols["spectral"][sel], om) / (2.0 * np.pi) - 1.0)
                metrics.append(
                    _metric(f"sum-rule:{tag}:{Path(fname).name}", name_a, name_b, residual, tol_sum)
                )
    return metrics


def _compare_trajectories(art_a, art_b, tolerances):
    a_cols, b_cols = art_a["columns"], art_b["columns"]
    name_a, name_b = art_a["path"], art_b["path"]
    sites_a = list(dict.fromkeys(a_cols["site"]))
    sites_b = set(dict.fromkeys(b_cols["site"]))
    shared = [s for s in sites_a if s in sites_b]
    if not shared:
        raise ValueError("no shared sites between the trajectory artifacts")
    tol_traj = tolerances.get("trajectory")
    dev = 0.0
    for site in shared:
        sel_a = a_cols["site"] == site
        sel_b = b_cols["site"] == site
        ta, tb = a_cols["t"][sel_a], b_cols["t"][sel_b]
        if ta.size != tb.size or np.max(np.abs(ta - tb)) > 1e-9:
            raise ValueError("trajectory artifacts use different time grids")
        dev = max(dev, float(np.max(np.abs(a_cols["occupation"][sel_a] - b_cols["occupation"][sel_b]))))
    return [
        _metric(
            "trajectory-deviation",
            name_a,
            name_b,
            dev,
            tol_traj,
            note=f"{len(shared)} shared site(s)",
        )
    ]


def compare_artifacts(path_a, path_b, tolerances=None, prominence=0.01, window=3):
    """Compare two CSV artifacts of the same kind into a ComparisonReport.

    tolerances maps metric families to bounds: 'position' (absolute, or the
    string 'grid' for one spacing of the coarser grid), 'fwhm' (relative
    width mismatch), 'trajectory' (absolute occupation deviation),
    'sumrule' (relative sum-rule residual). Families without a configured
    tolerance are reported as informational and never fail the comparison.
    Raises ValueError on schema mismatch.
    """

    tolerances = dict(tolerances or {})
    art_a = read_artifact(path_a)
    art_b = read_artifact(path_b)
    if art_a["kind"] != art_b["kind"]:
        raise ValueError(
            f"artifact kinds differ: {art_a['kind']} vs {art_b['kind']}"
        )
    if art_a["kind"] == "spectra":
        metrics = _compare_spectra(art_a, art_b, tolerances, prominence, window)
    elif art_a["kind"] == "trajectory":
        metrics = _compare_trajectories(art_a, art_b, tolerances)
    else:
        raise ValueError(f"no comparison defined for {art_a['kind']} artifacts")
    return ComparisonReport(
        file_a=str(path_a), file_b=str(path_b), kind=art_a["kind"], metrics=metrics
    )


# ------------------------------------------------------------------- run --


@dataclass
class RunResult:
    run_dir: Path
    artifacts: list
    reports: list
    engine_errors: dict

    @property
    def ok(self):
        return not self.engine_errors and all(r.passed for r in self.reports)


def resolve_out_root(cfg_out=None, cli_out=None):
    import os

    if cli_out:
        return Path(cli_out)
    if cfg_out:
        return Path(cfg_out)
    env = os.environ.get(OUT_ENV_VAR)
    if env:
        return Path(env)
    return Path("noisychain-out")


def _canonical_config(cfg):
    raw = copy.deepcopy(cfg.raw) if cfg.raw is not None else {}
    raw["name"] = cfg.name
    raw["seed"] = cfg.seed
    return raw


def _versions():
    import scipy

    try:
        own = importlib.metadata.version("noisychain")
    except importlib.metadata.PackageNotFoundError:
        own = "unknown"
    return {
        "noisychain": own,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def run_experiment(cfg, out_root=None, seed=None, jobs=1):
    """Run every engine of a validated config; write artifacts and reports.

    Returns a RunResult. Engine failures do not abort the other engines:
    the failure text lands in the manifest and in RunResult.engine_errors,
    finished artifacts stay on disk.
    """

    if seed is not None:
        cfg = copy.deepcopy(cfg)
        cfg.seed = int(seed)
    plan = _Plan(cfg)  # validates everything before any file is written
    run_dir = resolve_out_root(cfg.out, out_root) / cfg.name
    run_dir.mkdir(parents=True, exist_ok=True)

    jobs_list = _engine_jobs(plan)
    artifacts = {}
    errors = {}

    def invoke(item):
        label, fn = item
        return label, fn(run_dir)

    if jobs > 1 and len(jobs_list) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(invoke, item): item[0] for item in jobs_list}
            for fut, label in futures.items():
                try:
                    _, files = fut.result()
                    artifacts[label] = files
                except Exception as exc:
                    errors[label] = f"{type(exc).__name__}: {exc}"
    else:
        for item in jobs_list:
            try:
                _, files = invoke(item)
                artifacts[item[0]] = files
            except Exception as exc:
                errors[item[0]] = f"{type(exc).__name__}: {exc}"

    reports = []
    if cfg.sweep_gamma2 is None:
        by_kind = {}
        for label, _ in jobs_list:
            for fname in artifacts.get(label, ()):
                if fname.endswith("_rates.csv"):
                    continue
                kind = "spectra" if "_spectra" in fname else "trajectory"
                by_kind.setdefault(kind, []).append(fname)
        for kind, files in by_kind.items():
            first = files[0]
            for other in files[1:]:
                reports.append(
                    compare_artifacts(
                        run_dir / first,
                        run_dir / other,
                        tolerances=cfg.tolerances,
                        prominence=cfg.peaks.prominence,
                        window=cfg.peaks.window,
                    )
                )
    if reports:
        with open(run_dir / "report.json", "w") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2)
            fh.write("\n")

    flat = [f for files in artifacts.values() for f in files]
    config_dict = _canonical_config(cfg)
    canon = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    manifest = {
        "config": config_dict,
        "config_sha256": hashlib.sha256(canon.encode()).hexdigest(),
        "seed": cfg.seed,
        "versions": _versions(),
        "created": datetime.now(timezone.utc).isoformat(),
        "artifacts": sorted(flat) + (["report.json"] if reports else []),
        "engine_errors": errors,
    }
    with open(run_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")

    return RunResult(
        run_dir=run_dir, artifacts=sorted(flat), reports=reports, engine_errors=errors
    )
