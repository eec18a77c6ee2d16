"""Config-driven experiment harness.

A run turns one validated config into CSV artifacts plus a manifest and,
when several engines produce the same kind of artifact, a comparison
report. Configs are YAML with nested sections (schema version 1, documented
in the README). Each section is a frozen dataclass whose fields declare
their type, default and bounds once, in a `_spec`; one parser, `_parse`,
checks every section against that table, `_cross_validate` adds the rules
that span sections, and the run plan builds every module object. So an
invalid config is rejected, naming its field, before any computation
starts, and never leaves half-written artifacts behind.

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
import numbers
import platform
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from types import UnionType

import numpy as np
import yaml
from scipy.signal import find_peaks

from . import qme
from .baths import OhmicBath, TlsBath, WideBandBath, noise_power, sample_tls_bath
from .errors import ConfigError
from .kbe import (
    MEMORY_CAP_BYTES,
    InitialState,
    kbe_integrate,
    markov_self_energy,
    occupations,
    tls_memory_self_energy,
)
from .keldysh import extract_rates, steady_state_greens
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
# time-grid cap: every trajectory engine writes one CSV row per step and
# site, so a million steps is already hundreds of MB of artifact per run
MAX_TIME_STEPS = 1_000_000

_REQUIRED = object()


# ---------------------------------------------------------------- config --


def _spec(kind, default=_REQUIRED, check=None, kinds=None):
    """A config field: its kind (see _coerce), its default (none: required),
    a (predicate, rule) check on the coerced value, and the bath kinds that
    take it. Floats must be finite; a field whose default is inf may be inf."""

    meta = {"kind": kind, "default": default, "check": check, "kinds": kinds}
    if default is _REQUIRED:
        return field(metadata=meta)
    return field(default=default, metadata=meta)


def _one_of(*choices):
    return (lambda v: v in choices, f"one of {list(choices)}")


_POSITIVE = (lambda v: v > 0, "positive")
_NONNEGATIVE = (lambda v: v >= 0, "nonnegative")


def _coerce(val, kind, field, inf_ok=False):
    """val as kind, else a ConfigError naming field.

    kind is a type, a union of types, a config section class, [t] for a
    nonempty list of t, or (t, t, ...) for a list of exactly that many
    entries; lists come back as tuples. Bools and strings are never numbers,
    and a float is finite unless inf_ok lets it be +inf.
    """

    if isinstance(kind, (list, tuple)):
        n = len(val) if isinstance(val, (list, tuple)) else 0
        if n == 0 or isinstance(kind, tuple) and n != len(kind):
            what = "a nonempty list" if isinstance(kind, list) else f"a list of {len(kind)}"
            raise ConfigError(field, f"expected {what}, got {val!r}")
        kinds = kind * n if isinstance(kind, list) else kind
        return tuple(_coerce(v, k, field) for v, k in zip(val, kinds))
    if is_dataclass(kind):
        return _parse(val, field, kind)
    if isinstance(kind, UnionType):
        for k in kind.__args__:
            try:
                return _coerce(val, k, field, inf_ok)
            except ConfigError:
                pass
    elif kind in (int, float):
        if isinstance(val, numbers.Real) and not isinstance(val, bool):
            if kind is int and (isinstance(val, numbers.Integral) or float(val).is_integer()):
                return int(val)
            if kind is float and (math.isfinite(val) or inf_ok and val == math.inf):
                return float(val)
    elif isinstance(val, kind):
        return val
    name = "finite float" if kind is float and not inf_ok else getattr(kind, "__name__", kind)
    raise ConfigError(field, f"expected {name}, got {val!r}")


def _checked(spec, val, where):
    """val coerced by a field table entry and held to its check."""

    val = _coerce(val, spec["kind"], where, inf_ok=spec["default"] == math.inf)
    if spec["check"] is not None and not spec["check"][0](val):
        raise ConfigError(where, f"must be {spec['check'][1]}")
    return val


def _parse(section, path, cls):
    """The cls instance that a raw mapping describes, by cls's field table.

    Rejects unknown keys and missing required fields; a null value counts as
    omitted. Every value goes through _coerce and its check. A field whose
    kinds leave out the section's `kind` may not be given.
    """

    if not isinstance(section, dict):
        raise ConfigError(path or "<root>", "must be a mapping")
    specs = {f.name: f.metadata for f in fields(cls) if f.metadata}
    prefix = f"{path}." if path else ""
    for key in section:
        if key not in specs:
            raise ConfigError(f"{prefix}{key}", "unknown field")
    values = {}
    for name, spec in specs.items():
        val, default, where = section.get(name), spec["default"], prefix + name
        taken = spec["kinds"] is None or values["kind"] in spec["kinds"]
        if val is None:
            if default is _REQUIRED and taken:
                raise ConfigError(where, "missing required field")
            values[name] = None if default is _REQUIRED else default
            continue
        if not taken:
            raise ConfigError(where, f"unknown field for {path} kind {values['kind']!r}")
        values[name] = _checked(spec, val, where)
    return cls(**values)


@dataclass(frozen=True, kw_only=True)
class SystemConfig:
    n_sites: int = _spec(int, check=_POSITIVE)
    onsite: float = _spec(float)
    hopping: float = _spec(float)
    boundary: str = _spec(str, "periodic", _one_of("periodic", "open"))
    beta: float = _spec(float, math.inf, (lambda v: v > 0, "positive (inf allowed)"))


@dataclass(frozen=True, kw_only=True)
class BathConfig:
    kind: str = _spec(str, check=_one_of("ohmic", "tls", "wideband"))
    # required unless sweeping widths, which is a cross-section rule
    alpha: float = _spec(float, None, _NONNEGATIVE, kinds=("ohmic",))
    cutoff: float = _spec(float, check=_POSITIVE, kinds=("ohmic",))
    temperature: float = _spec(float, 0.0, _NONNEGATIVE, kinds=("ohmic", "tls"))
    target_rate: float = _spec(float, check=_NONNEGATIVE, kinds=("tls",))
    n_tls: int = _spec(int, check=_POSITIVE, kinds=("tls",))
    band: tuple = _spec(
        (float, float), check=(lambda b: 0 < b[0] <= b[1], "[lo, hi] with 0 < lo <= hi"),
        kinds=("tls",),
    )
    rate: float = _spec(float, check=_NONNEGATIVE, kinds=("wideband",))


@dataclass(frozen=True, kw_only=True)
class GridConfig:
    omega_min: float = _spec(float)
    omega_max: float = _spec(float)
    n_points: int = _spec(int, check=(lambda v: v >= 2, "at least 2"))
    eta: float = _spec(float, None, _POSITIVE)  # None: four grid spacings
    pairs: tuple = _spec([(int, int)], ((0, 0), (0, 1)))


@dataclass(frozen=True, kw_only=True)
class TimeConfig:
    t_max: float = _spec(float, check=_POSITIVE)
    dt: float = _spec(float, check=_POSITIVE)


@dataclass(frozen=True, kw_only=True)
class InitialConfig:
    excited_site: int = _spec(int, 0)


@dataclass(frozen=True, kw_only=True)
class QmeConfig:
    gamma1: float = _spec(float, None, _NONNEGATIVE)  # None: derived from the bath
    gamma2star: float = _spec(float, None, _NONNEGATIVE)
    warmup_time: float = _spec(float, None, _NONNEGATIVE)
    secular: bool = _spec(bool, False)
    lamb_shift: bool = _spec(bool, True)


@dataclass(frozen=True, kw_only=True)
class PeaksConfig:
    prominence: float = _spec(float, 0.01, (lambda v: 0 < v < 1, "in (0, 1)"))
    window: int = _spec(int, 3, (lambda v: v >= 1 and v % 2 == 1, "an odd positive integer"))


@dataclass(frozen=True, kw_only=True)
class ToleranceConfig:
    position: float | str = _spec(  # 'grid': one grid spacing
        float | str, None,
        (lambda v: v == "grid" if isinstance(v, str) else v >= 0, "nonnegative or 'grid'"),
    )
    fwhm: float = _spec(float, None, _NONNEGATIVE)
    trajectory: float = _spec(float, None, _NONNEGATIVE)
    sumrule: float = _spec(float, None, _NONNEGATIVE)

    def given(self):
        """The tolerances that are set, by metric family."""

        return {k: v for k, v in vars(self).items() if v is not None}


@dataclass(frozen=True, kw_only=True)
class CompareConfig:
    tolerance: ToleranceConfig = _spec(ToleranceConfig, ToleranceConfig())


@dataclass(frozen=True, kw_only=True)
class SweepConfig:
    gamma2: tuple = _spec([float], check=(lambda v: min(v) > 0, "positive widths"))


def _plain_name(name):
    return name not in ("", ".", "..") and "/" not in name and "\\" not in name


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    version: int = _spec(int, check=(lambda v: v == CONFIG_VERSION, f"{CONFIG_VERSION}"))
    name: str = _spec(
        str, "experiment", (_plain_name, "a directory name: no '/' or '\\', not '', '.' or '..'")
    )
    system: SystemConfig = _spec(SystemConfig)
    bath: BathConfig = _spec(BathConfig)
    engines: tuple = _spec(
        [str],
        check=(lambda v: set(v) <= set(ENGINES) and len(set(v)) == len(v),
               f"distinct engines from {list(ENGINES)}"),
    )
    grid: GridConfig = _spec(GridConfig, None)
    time: TimeConfig = _spec(TimeConfig, None)
    initial: InitialConfig = _spec(InitialConfig, InitialConfig())
    qme: QmeConfig = _spec(QmeConfig, QmeConfig())
    peaks: PeaksConfig = _spec(PeaksConfig, PeaksConfig())
    compare: CompareConfig = _spec(CompareConfig, CompareConfig())
    sweep: SweepConfig = _spec(SweepConfig, None)
    seed: int = _spec(int, 0, _NONNEGATIVE)
    out: str = _spec(str, None)
    raw: dict = None  # the mapping as given; the manifest records it

    @property
    def tolerances(self):
        return self.compare.tolerance.given()

    @property
    def sweep_gamma2(self):
        return None if self.sweep is None else self.sweep.gamma2


def config_from_dict(raw, name=None):
    """Validate a raw config mapping into an ExperimentConfig.

    Every field is checked against its section's field table, then the
    cross-section rules (which engines need which sections and bath kinds,
    site and memory caps) are enforced. Raises ConfigError naming the
    offending field. Numeric preconditions of the physics modules are
    enforced again by building the module objects in the run plan. `name`
    is the default run name, used when the mapping gives none.
    """

    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a mapping")
    named = raw if raw.get("name") is not None else {**raw, "name": name}
    cfg = replace(_parse(named, "", ExperimentConfig), raw=copy.deepcopy(raw))
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
    if cfg.time is not None and cfg.time.t_max / cfg.time.dt > MAX_TIME_STEPS:
        raise ConfigError(
            "time.dt", f"t_max/dt = {cfg.time.t_max / cfg.time.dt:.3g} exceeds "
            f"{MAX_TIME_STEPS} steps"
        )
    if not 0 <= cfg.initial.excited_site < cfg.system.n_sites:
        raise ConfigError("initial.excited_site", "outside the chain")
    if "kbe" in cfg.engines and cfg.bath.kind == "ohmic":
        raise ConfigError(
            "bath.kind", "the two-time integrator takes wideband or tls baths only"
        )
    if "exact_tls" in cfg.engines and cfg.bath.kind != "tls":
        raise ConfigError("bath.kind", "exact_tls needs a tls bath")
    if "blochredfield" in cfg.engines and cfg.bath.kind != "ohmic":
        raise ConfigError("bath.kind", "blochredfield needs an ohmic bath")
    if cfg.sweep is None and cfg.bath.kind == "ohmic" and cfg.bath.alpha is None:
        raise ConfigError("bath.alpha", "missing required field")
    if cfg.sweep is not None:
        if cfg.bath.kind != "ohmic":
            raise ConfigError("sweep", "width sweeps need an ohmic bath")
        if cfg.bath.temperature <= 0:
            raise ConfigError("bath.temperature", "width sweeps need T > 0")
        if tuple(cfg.engines) != ("keldysh",):
            raise ConfigError("engines", "width sweeps run the keldysh engine only")
        if cfg.bath.alpha is not None:
            raise ConfigError("bath.alpha", "leave alpha unset when sweeping widths")
    # lindblad trajectories peak at about 10 dense N^2 x N^2 complex matrices
    # (the generator and expm work): measured 9.8, 8.8 and 9.0 times 16 N^4
    # bytes at N = 20, 30 and 40
    need = 10 * 16 * cfg.system.n_sites**4
    if "lindblad" in cfg.engines and cfg.time is not None and need > MEMORY_CAP_BYTES:
        raise ConfigError(
            "system.n_sites",
            f"lindblad trajectories of {cfg.system.n_sites} sites need about "
            f"{need / 1e9:.1f} GB (cap {MEMORY_CAP_BYTES / 1e9:.0f} GB)",
        )
    # exact_tls peaks at about 4 dense (d, d) float eigensystems plus 3
    # complex (n_t, d) amplitude tables, d = N (1 + n_tls): measured 4.0 and
    # 3.0 times 8 d^2 and 16 n_t d bytes at d = 105 to 5005, n_t = 641 to 100001
    if "exact_tls" in cfg.engines:
        d = cfg.system.n_sites * (1 + cfg.bath.n_tls)
        need = 32 * d * d + 48 * (cfg.time.t_max / cfg.time.dt + 1) * d
        if need > MEMORY_CAP_BYTES:
            raise ConfigError(
                "bath.n_tls",
                f"exact_tls on {d} levels needs about {need / 1e9:.1f} GB "
                f"(cap {MEMORY_CAP_BYTES / 1e9:.0f} GB)",
            )
    if "blochredfield" in cfg.engines and cfg.system.n_sites > qme.DENSE_MAX_SITES:
        raise ConfigError(
            "system.n_sites",
            f"engine 'blochredfield' runs registers of at most {qme.DENSE_MAX_SITES} sites",
        )
    if "blochredfield" in cfg.engines and cfg.grid is not None and cfg.qme.warmup_time is None:
        raise ConfigError("qme.warmup_time", "required for 'blochredfield' spectra")
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


def _spectra_from_freq_greens(greens, pairs, sites):
    # greens covers `sites` only; entries are indexed by position in it
    ret, kel, spe = {}, {}, {}
    for i, j in pairs:
        a, b = sites.index(i), sites.index(j)
        ret[(i, j)] = greens.retarded[:, a, b]
        kel[(i, j)] = greens.keldysh[:, a, b]
        spe[(i, j)] = (1j * (greens.retarded[:, a, b] - np.conj(greens.retarded[:, b, a]))).real
    return ret, kel, spe


def _pair_sites(pairs):
    # every spectra engine solves for these sites only
    return list(dict.fromkeys(s for pair in pairs for s in pair))


def _run_keldysh(plan, run_dir):
    cfg = plan.cfg
    pairs = cfg.grid.pairs
    sites = _pair_sites(pairs)
    if cfg.sweep_gamma2 is None:
        greens, sigma = steady_state_greens(
            plan.h, plan.site_baths, cfg.system.beta, plan.grid, sites=sites
        )
        ret, kel, spe = _spectra_from_freq_greens(greens, pairs, sites)
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
            plan.h, [bath] * cfg.system.n_sites, cfg.system.beta, plan.grid, sites=sites
        )
        ret, kel, spe = _spectra_from_freq_greens(greens, pairs, sites)
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


def _redfield_generator(plan):
    return qme.bloch_redfield_generator(
        plan.h,
        plan.site_baths,
        secular=plan.cfg.qme.secular,
        lamb_shift=plan.cfg.qme.lamb_shift,
    )


def _run_qme_spectra(plan, run_dir, kind):
    pairs = plan.cfg.grid.pairs
    sites = _pair_sites(pairs)
    if kind == "lindblad":
        g1, g2 = plan.gamma_rates()
        greens = qme.lindblad_greens(plan.h, g1, g2, sites, plan.grid)
    else:
        greens = qme.qme_greens(_redfield_generator(plan), sites, plan.cfg.qme.warmup_time,
                                plan.grid)
    name = f"{kind}_spectra.csv"
    _write_spectra_csv(run_dir / name, plan.grid.omegas, pairs,
                       *_spectra_from_freq_greens(greens, pairs, sites))
    return [name]


def _equal_time_keldysh(occ):
    # K_ii(t, t) = -i (1 - 2 n_i)
    return 1j * (2.0 * occ - 1.0)


def _register_occupations(plan):
    n = plan.cfg.system.n_sites
    c_ops = [qme.jw_fermion(i, n) for i in range(n)]
    vac = np.zeros(2**n)
    vac[0] = 1.0
    psi = c_ops[plan.cfg.initial.excited_site].conj().T @ vac
    rhos = qme.lindblad_evolve(_redfield_generator(plan), np.outer(psi, psi.conj()), plan.t_grid)
    numbers = [c.conj().T @ c for c in c_ops]
    return np.einsum("kab,iba->ki", rhos, numbers).real


def _run_qme_trajectory(plan, run_dir, kind):
    if kind == "lindblad":
        g1, g2 = plan.gamma_rates()
        occ = qme.lindblad_occupations(
            plan.h, g1, g2, plan.cfg.initial.excited_site, plan.t_grid
        )
    else:
        occ = _register_occupations(plan)
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
        spec = {f.name: f.metadata for f in fields(ExperimentConfig)}["seed"]
        cfg = replace(cfg, seed=_checked(spec, seed, "seed"))
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
