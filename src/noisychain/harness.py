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

ENGINES says which artifact kinds each engine computes and on which bath
kinds; the engine rules of `_cross_validate` and a run's jobs (spectra,
width sweep or trajectory) derive from it.

Every artifact is a CSV of one kind, and SCHEMAS holds each kind's header:
one writer writes them all and read_artifact tells the kinds apart by it.
All floats are written as %.12e so reruns with the same config and seed
produce byte-identical bodies; wall-clock information lives only in the
manifest. The writer encodes a block of rows at a time as numpy arrays:
a float's 13 digits are |x| scaled by exact powers of ten and rounded to
an integer, kept only where the scaling error provably cannot change that
rounding or the decade. Every other cell (near-ties, inf, nan, subnormals,
exponents outside -32 ... 34) is formatted by % itself, so every cell is
byte for byte "%.12e" % v. Frequencies and times are in units of the
hopping.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import numbers
import platform
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from types import UnionType

import numpy as np

from . import __version__, qme
from .baths import OhmicBath, WideBandBath, noise_power, sample_tls_bath
from .errors import ConfigError
from .kbe import (
    MEMORY_CAP_BYTES,
    MemorySelfEnergy,
    check_step,
    equal_time_occupations,
    stream_bytes,
)
from .keldysh import SelfEnergy, dyson_solve, extract_rates, steady_state_greens
from .lattice import FREQ_BLOCK, FreqGrid, build_chain

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
    "SCHEMAS",
    "TEXT_COLUMNS",
    "Metric",
    "ComparisonReport",
    "compare_artifacts",
    "resolve_out_root",
]

_BATH_KINDS = ("ohmic", "tls", "wideband")
# engine -> the artifact kinds it computes and the bath kinds it runs on;
# it computes spectra on the grid section and trajectories on the time
# section (_SECTION), each when the config gives that section
_Engine = namedtuple("_Engine", "kinds baths")
ENGINES = {
    "keldysh": _Engine(("spectra",), _BATH_KINDS),
    "kbe": _Engine(("trajectory",), ("tls", "wideband")),
    "lindblad": _Engine(("spectra", "trajectory"), _BATH_KINDS),
    "blochredfield": _Engine(("spectra", "trajectory"), ("ohmic",)),
    "exact_tls": _Engine(("trajectory",), ("tls",)),
}
_SECTION = {"spectra": "grid", "trajectory": "time"}
CONFIG_VERSION = 1
OUT_ENV_VAR = "NOISYCHAIN_OUT"
# time-grid cap: every trajectory engine writes one CSV row per step and
# site, so a million steps is already hundreds of MB of artifact per run
MAX_TIME_STEPS = 1_000_000

# artifact kind -> CSV header; columns outside TEXT_COLUMNS hold floats
SCHEMAS = {
    "spectra": ("omega", "pair", "re_retarded", "im_retarded", "re_keldysh", "im_keldysh",
                "spectral"),  # one row per frequency and pair, pair by pair
    "trajectory": ("t", "site", "occupation", "re_keldysh", "im_keldysh"),
    "rates": ("omega", "site", "gamma", "shift"),
    "peak_counts": ("gamma2", "n_peaks"),
}
TEXT_COLUMNS = {"pair", "site", "n_peaks"}
# rows the artifact writer encodes at a time
_WRITE_BLOCK = 4096

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
    kind: str = _spec(str, check=_one_of(*_BATH_KINDS))
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


def _computing(cfg, kind):
    """The engines of cfg that compute `kind` artifacts, in config order."""

    return [e for e in cfg.engines if kind in ENGINES[e].kinds and getattr(cfg, _SECTION[kind])]


def _cross_validate(cfg):
    for e in cfg.engines:
        sections, baths = [_SECTION[k] for k in ENGINES[e].kinds], ENGINES[e].baths
        if not any(getattr(cfg, s) for s in sections):
            raise ConfigError(sections[0] if len(sections) == 1 else "engines",
                              f"engine '{e}' needs a {' or '.join(sections)} section")
        if cfg.bath.kind not in baths:
            raise ConfigError("bath.kind", f"engine '{e}' runs on {' or '.join(baths)} baths only")
    if cfg.time is not None and cfg.time.t_max / cfg.time.dt > MAX_TIME_STEPS:
        raise ConfigError(
            "time.dt", f"t_max/dt = {cfg.time.t_max / cfg.time.dt:.3g} exceeds "
            f"{MAX_TIME_STEPS} steps"
        )
    if not 0 <= cfg.initial.excited_site < cfg.system.n_sites:
        raise ConfigError("initial.excited_site", "outside the chain")
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
        names = [_sweep_file(g2) for g2 in cfg.sweep_gamma2]
        clash = [name for name in names if names.count(name) > 1]
        if clash:
            raise ConfigError("sweep.gamma2", f"two widths would both write {clash[0]}")
    # memory rules, each naming the field that sets it; a trajectory engine's
    # rule adds its artifact (`_artifact_bytes`). Whole runs under
    # tracemalloc peak at 0.15 and 0.14 of the kbe rule on 10 and 40
    # wide-band sites over 300001 and 20001 times, 0.65 for kbe alone on
    # fig4-top, 0.81 and 0.86 for exact_tls on it over 10^5 times and one
    # site over 10^6, and 0.61 and 0.77 of the largest rule for fig4-top and
    # fig4-bottom over 200001 times (kbe and lindblad, compared: 124 MB)
    n = cfg.system.n_sites
    n_t = cfg.time.t_max / cfg.time.dt + 1 if cfg.time is not None else 0
    artifact = _artifact_bytes(n_t, n)
    # lindblad trajectories peak at up to 9 dense N^2 x N^2 complex matrices
    # (the generator, its step and the Pade work of qme._expm): whole runs
    # measured 7.0 times 16 N^4 bytes at N = 20, 30 and 40 on the presets'
    # step (degree 5) and 9.05 at N = 30 on steps that take degree 9 or 13;
    # the propagation keeps the complex (n_t, N) diagonal. Whole runs
    # measured 0.48 to 0.68 of this rule at N = 1 to 30 over 2001 to 10^6
    # times (0.63 on one site over 10^6)
    if "lindblad" in _computing(cfg, "trajectory"):
        _check_memory("system.n_sites", f"lindblad trajectories of {n} sites",
                      160 * n**4 + 16 * n_t * n + artifact)
    # exact_tls peaks at about 4 dense (d, d) float eigensystems plus 3
    # complex (n_t, d) amplitude tables, d = N (1 + n_tls): measured 4.0 and
    # 3.0 times 8 d^2 and 16 n_t d bytes at d = 105 to 5005, n_t = 641 to 100001
    if "exact_tls" in cfg.engines:
        d = n * (1 + cfg.bath.n_tls)
        _check_memory("bath.n_tls", f"exact_tls on {d} levels",
                      32 * d * d + 48 * n_t * d + artifact)
    if "kbe" in cfg.engines:
        levels = cfg.bath.n_tls if cfg.bath.kind == "tls" else 0
        _check_memory("time.t_max", f"kbe on {n} sites",
                      stream_bytes(n, n_t, levels) + artifact, "; shorten t_max or increase dt")
    # the trajectory comparison runs after the engines have freed theirs
    if len(_computing(cfg, "trajectory")) > 1:
        _check_memory("time.t_max", f"comparing trajectories of {n} sites",
                      _readback_bytes(n_t, n), "; shorten t_max or increase dt")
    if "blochredfield" in cfg.engines and n > qme.DENSE_MAX_SITES:
        raise ConfigError("system.n_sites", "engine 'blochredfield' runs registers of "
                          f"at most {qme.DENSE_MAX_SITES} sites")
    if cfg.grid is not None:
        for i, j in cfg.grid.pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ConfigError("grid.pairs", f"pair ({i}, {j}) outside the chain")
    if _computing(cfg, "spectra"):
        _check_memory("grid.n_points", f"spectra on {cfg.grid.n_points} points",
                      _spectra_bytes(cfg))


def _spectra_bytes(cfg):
    """Traced-memory rule of a run's spectra, by grid point. Spectra hold a
    few (n_points, s, s) tables of the s pair sites and (n_points, N) site
    rows. keldysh adds bath tables and self-energy diagonals, one column per
    site except on an ohmic ring; tls baths add one site's complex
    (n_points, n_tls) pole tables, ohmic baths h's dense eigensystem, open
    or ring. lindblad and blochredfield add the artifact's columns, 120 B
    per point and pair, and one write block; blochredfield also qme_greens'
    two FREQ_BLOCK-frequency resolvent tables over C(2N, N - 1) modes. Traced
    peaks per point: keldysh 2.6, 3.2, 4.5 and 7.1 kB at N = 5, 10, 20 and
    40 on open chains and 0.5-1.4 kB on rings of 5 to 400 sites (plus
    49-57 B per N^2 at N = 700 and 1000), pairs (0, 0) and (0, 1), one or
    four sweep widths, 2001 to 32001 points; an open 1000-site chain over
    101 points peaked at 0.46 of the rule. Warm fig2-upper runs over 101 to
    20001 points: lindblad 0.05-0.70 of the rule at s = 2, 5 and 10,
    blochredfield 0.17-0.69 at s = 2 and 5. A run that compares two or more
    spectra reads both files back at once, 240 B per point and pair:
    compare_artifacts measured 186-194 B over 1 to 25 pairs and 4001 to
    100001 points."""

    n = cfg.system.n_sites
    s = len(_pair_sites(cfg.grid.pairs))
    engines = _computing(cfg, "spectra")
    ohmic = "keldysh" in engines and cfg.bath.kind == "ohmic"
    ring = ohmic and cfg.system.boundary == "periodic"
    per_point = 64 * s * s + 32 * n
    fixed = 64 * n * n if ohmic else 0
    if "keldysh" in engines:  # n_tls is None off tls baths
        per_point += 1500 if ring else 4800 + 250 * n + 32 * (cfg.bath.n_tls or 0)
    if {"lindblad", "blochredfield"} & set(engines):
        per_point += 120 * len(cfg.grid.pairs)
        fixed += 600 * _WRITE_BLOCK
    if "blochredfield" in engines:
        fixed += 32 * FREQ_BLOCK * math.comb(2 * n, n - 1)
    if len(engines) > 1:
        per_point += 240 * len(cfg.grid.pairs)
    return per_point * cfg.grid.n_points + fixed


def _artifact_bytes(n_t, n):
    """Traced-memory rule of writing an (n_t, n) trajectory: 32 B per (time,
    site) row, twice the occupations (8 B) and time grid (8 B a time point,
    a row on one site), and 600 B per row of one _WRITE_BLOCK for a block's
    columns, cells and temporaries (318 B measured). Writes peak at 0.37 of
    the rule over 24 blocks of 5 sites, 0.33 over 49 blocks of one site."""

    return 32 * n_t * n + 600 * _WRITE_BLOCK


def _readback_bytes(n_t, n):
    """Traced-memory rule of comparing two (n_t, n) trajectories: both
    files are read back at once, 48 B a row each as parsed (four floats
    and a 16-byte label) plus the labels as text and the comparison's
    masks. compare_artifacts measured 122-138 B a row over 10^6 rows of
    1, 5 and 40 sites."""

    return 160 * n_t * n


def _check_memory(name, what, need, hint=""):
    if need > MEMORY_CAP_BYTES:
        raise ConfigError(name, f"{what} would take about {need / 1e9:.1f} GB "
                                f"(cap {MEMORY_CAP_BYTES / 1e9:.0f} GB){hint}")


def load_config(path):
    """Load and validate a YAML config file."""

    import yaml  # here, not at module level: preset runs parse no YAML

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
        self.kbe_sigma = None
        if "kbe" in cfg.engines:
            self.kbe_sigma = MemorySelfEnergy(self.site_baths)
            try:
                check_step(self.h, self.kbe_sigma, cfg.time.dt)
            except ValueError as exc:
                raise ConfigError("time.dt", str(exc))

    def _build_baths(self, bc, seed, n_sites):
        if bc.kind == "ohmic":
            if bc.alpha is None:
                return None  # sweeps build the bath of their first width
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
        """(gamma1, gamma2star) of the lindblad engine. A rate that the qme
        section gives is taken as is; otherwise gamma1 is the bath's decay
        rate (the wide band's rate, the tls target rate, 0 on an ohmic bath)
        and gamma2star half the ohmic bath's noise power at zero frequency
        (0 on the other kinds)."""

        bc, g1, g2 = self.cfg.bath, self.cfg.qme.gamma1, self.cfg.qme.gamma2star
        if g1 is None:  # the fields of the other bath kinds are None
            g1 = bc.rate if bc.kind == "wideband" else bc.target_rate or 0.0
        if g2 is None and bc.kind == "ohmic":  # never a sweep: sweeps run keldysh only
            g2 = 0.5 * float(noise_power(self.site_baths[0], np.array([0.0]))[0])
        return float(g1), float(g2 or 0.0)


# ------------------------------------------------------------- artifacts --


def _write_table(path, kind, blocks):
    """Write a `kind` artifact: its header, then the rows of each block, a
    mapping from header name to equal-length columns (a whole table is one
    block). Floats are written as %.12e, text columns as given (str of each
    entry). Rows are encoded _WRITE_BLOCK at a time into a NUL-padded byte
    table with one fixed-width slot per cell and its separator; dropping
    the NULs leaves those rows' bytes, so no formatted cell outlives its
    rows. Float cells come from `_e12_words`, byte for byte the cells of
    "%.12e" % v."""

    names = SCHEMAS[kind]
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        for block in blocks:
            cols = [np.asarray(block[name]) if name in TEXT_COLUMNS
                    else np.asarray(block[name], dtype=float) for name in names]
            for start in range(0, len(cols[0]), _WRITE_BLOCK):
                cells = [_text_cells(col[start:start + _WRITE_BLOCK]) if name in TEXT_COLUMNS
                         else col[start:start + _WRITE_BLOCK] for name, col in zip(names, cols)]
                # slots are whole uint32 words: a float takes 5 words and one
                # more for its separator, a text cell its bytes and a separator
                widths = [24 if c.ndim == 1 else -(-(c.shape[1] + 1) // 4) * 4 for c in cells]
                ends = np.cumsum(widths)
                row = np.zeros(ends[-1], dtype=np.uint8)
                row[ends - 1] = ord(",")
                row[-1] = ord("\n")
                table = np.empty((len(cells[0]), row.size), dtype=np.uint8)
                table[:] = row
                for cell, end, width in zip(cells, ends, widths):
                    at = end - width
                    if cell.ndim == 1:
                        _e12_words(cell, table.view(np.uint32)[:, at // 4:at // 4 + 5])
                    else:
                        table[:, at:at + cell.shape[1]] = cell
                fh.write(table[table != 0])


def _byte_words(cells):
    # equal-length ASCII cells, one per 4 bytes, as uint32 words in byte order
    return np.frombuffer("".join(cells).encode(), dtype=np.uint32)


# Tables of the %.12e encoder, indexed by i = 34 - e for the decimal exponents
# e = 34 ... -32 of its fast path. 10^k is exact for 0 <= k <= 22, so
# |x| 10^(12 - e) is one exact scaling, or two below e = -10
_POW10 = np.array([float(f"1e{k}") for k in range(23)])
_SCALE_K = np.arange(67) - 22
_SCALE_MUL = _POW10[np.clip(_SCALE_K, 0, 22)]
_SCALE_MUL2 = _POW10[np.clip(_SCALE_K - 22, 0, 22)]
_SCALE_DIV = _POW10[np.clip(-_SCALE_K, 0, 22)]
_EXPONENT = _byte_words("e%+03d" % (34 - i) for i in range(67))
_LEAD = _byte_words("\0" + sign + str(digit) + "." for sign in "\0-" for digit in range(10))
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_QUADS = np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()


def _e12_words(x, cells):
    """Write "%.12e" % v for each v of the float array x into cells, its
    (x.size, 5) uint32 words, byte for byte and NUL-padded.

    With e = floor(log10 |x|), s = |x| 10^(12 - e) by exact powers of ten
    and d = rint(s), the cell is sign, d's 13 digits with a point after
    the first, and e. The scaling rounds at most twice, so s is within
    0.003 of the exact value below 2^44, and a cell with 10^12 <= s,
    d < 10^13 and |s - d| < 0.49 has the correctly rounded digits in the
    right decade. Every other cell (near-ties, exponents log10 misjudged
    or outside -32 ... 34, inf, nan, subnormals) is formatted by % itself;
    +-0 takes the fast path.
    """

    a = np.abs(x)
    with np.errstate(all="ignore"):
        e = np.log10(a, out=np.zeros_like(a), where=a > 0)
        i = np.clip(34.0 - np.floor(e, out=e), 0, 66, out=e).astype(np.intp)
        s = a * _SCALE_MUL[i]
        s *= _SCALE_MUL2[i]
        s /= _SCALE_DIV[i]
        d = np.rint(s)
        ok = (s >= 1e12) & (d < 1e13) & (np.abs(s - d) < 0.49) | (a == 0)
    d[~ok] = 0.0
    # the digits in float: every quotient below is floored exactly
    lead = np.floor(d / 1e12)
    d -= lead * 1e12
    hi = np.floor(d / 1e8)
    d -= hi * 1e8
    mid = np.floor(d / 1e4)
    d -= mid * 1e4
    lead += 10 * np.signbit(x)
    cells[:, 0] = _LEAD[lead.astype(np.intp)]
    cells[:, 1] = _QUADS[hi.astype(np.intp)]
    cells[:, 2] = _QUADS[mid.astype(np.intp)]
    cells[:, 3] = _QUADS[d.astype(np.intp)]
    cells[:, 4] = _EXPONENT[i]
    slow = np.flatnonzero(~ok)
    if slow.size:
        text = np.array(["%.12e" % v for v in x[slow].tolist()], dtype="S20")
        cells[slow] = text.view(np.uint32).reshape(slow.size, 5)


def _text_cells(col):
    """(col.size, width) uint8 cells of a text column, NUL-padded: the
    digits of nonnegative integers, else the UTF-8 bytes of str(v)."""

    if col.dtype.kind in "iu" and col.min() >= 0:
        place = 10 ** np.arange(len(str(col.max())) - 1, -1, -1)
        cells = (col[:, None] // place % 10 + ord("0")).astype(np.uint8)
        cells[(col[:, None] < place) & (place > 1)] = 0
        return cells
    col = np.ascontiguousarray(col.astype(str, copy=False))
    codes = col.view(np.uint32).reshape(col.size, -1)  # NUL-padded code points
    if codes.max(initial=0) < 128:
        return codes.astype(np.uint8)
    return np.char.encode(col, "utf-8").view(np.uint8).reshape(col.size, -1)


def _site_blocks(kind, axis, tables):
    """Blocks of a `kind` artifact with a row per axis value and site, the
    site index changing fastest; tables maps the other columns to
    (axis.size, n_sites) arrays. Each block is built from a slice of axis
    rows, about _WRITE_BLOCK rows, so no whole-artifact column is made."""

    n = next(iter(tables.values())).shape[1]
    step = max(1, _WRITE_BLOCK // n)
    for start in range(0, len(axis), step):
        rows = slice(start, start + step)
        block = {name: table[rows].ravel() for name, table in tables.items()}
        block[SCHEMAS[kind][0]] = np.repeat(axis[rows], n)
        block["site"] = np.tile(np.arange(n), len(axis[rows]))
        yield block


def _write_trajectory(path, t_grid, occ):
    """Occupation trajectory artifact; its Keldysh columns are the equal-time
    diagonal K_ii(t, t) = -i (1 - 2 n_i) of the occupations, block by block."""

    def blocks():
        for block in _site_blocks("trajectory", t_grid, {"occupation": occ}):
            keldysh = 1j * (2.0 * block["occupation"] - 1.0)
            yield {**block, "re_keldysh": keldysh.real, "im_keldysh": keldysh.imag}

    _write_table(path, "trajectory", blocks())


def read_artifact(path):
    """Read a CSV artifact into {'kind', 'columns': dict of arrays}.

    The kind is the SCHEMAS entry whose header the file has; raises
    ValueError on any other header. TEXT_COLUMNS come back as string
    arrays, everything else as floats.
    """

    path = Path(path)
    with open(path, newline="") as fh:
        header = fh.readline()
        if not header:
            raise ValueError(f"{path.name}: empty file")
        header = tuple(header.rstrip("\r\n").split(","))
        kind = next((k for k, cols in SCHEMAS.items() if header == cols), None)
        if kind is None:
            raise ValueError(f"{path.name}: unrecognized schema {list(header)}")
        if not fh.readline():
            raise ValueError(f"{path.name}: no data rows")
    # text cells are short ASCII labels (site indices, "i-j" pairs and
    # counts), read as bytes; loadtxt reads the file by its path, which
    # makes no Python object per line
    dtype = [(name, "S16" if name in TEXT_COLUMNS else float) for name in header]
    body = np.loadtxt(path, delimiter=",", dtype=dtype, ndmin=1, skiprows=1)
    cols = {}
    for name in header:
        col = body[name]
        if name in TEXT_COLUMNS:
            width = max(1, int(np.char.str_len(col).max()))
            if width >= 16:
                raise ValueError(f"{path.name}: a '{name}' cell is 16 or more characters long")
            # loadtxt stores text as Latin-1, so each byte is its code point
            codes = np.ascontiguousarray(col).view(np.uint8).reshape(col.size, 16)[:, :width]
            col = codes.astype(np.uint32).view(f"U{width}").ravel()
        cols[name] = col
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


def _prominent_maxima(y, min_prominence):
    """Indices of the local maxima of y with prominence >= min_prominence.

    A maximum is a sample, or a flat top of equal samples, with a strict
    rise before it and a strict fall after it, so the end samples never
    qualify; a flat top from left to right is reported at (left + right) // 2.
    Its prominence is its height minus the higher of its two bases, a base
    being the minimum between the top and the nearest strictly higher sample
    on that side, or the array end. This is the rule, index for index, of
    scipy's find_peaks(y, prominence=min_prominence).
    """

    rise = y[:-1] < y[1:]
    fall = y[:-1] > y[1:]
    steps = np.flatnonzero(y[:-1] != y[1:])  # flat runs lie between these steps
    before, after = steps[:-1], steps[1:]
    tops = rise[before] & fall[after]
    peaks = []
    for left, right in zip(before[tops] + 1, after[tops]):
        top = y[left]
        higher = np.flatnonzero(~(y[:left] <= top))
        lo = higher[-1] + 1 if higher.size else 0
        higher = np.flatnonzero(~(y[right + 1 :] <= top))
        hi = right + 1 + higher[0] if higher.size else y.size
        if top - max(y[lo : left + 1].min(), y[right:hi].min()) >= min_prominence:
            peaks.append((left + right) // 2)
    return peaks


def find_spectral_peaks(omega, values, prominence=0.01, window=3, signed=False):
    """Deterministic peak table of a sampled spectrum.

    Candidates are the local maxima of the window-smoothed curve, a flat
    top counting once at its midpoint and the two end samples never, whose
    topographic prominence is at least `prominence` times the curve maximum:
    the height above the higher of the two bases, each base the minimum
    between the maximum and the nearest strictly higher sample on that side
    (or the end of the curve). Positions get a 3-point parabolic
    refinement. signed=True rectifies the input first (cross spectra carry
    sign lobes). FWHM by linear interpolation of the half-maximum crossings
    walking outward; NaN when a side never reaches half height before
    climbing again.
    """

    omega = np.asarray(omega, dtype=float)
    y = np.asarray(values, dtype=float)
    if signed:
        y = np.abs(y)
    ys = _smooth(y, window)
    top = ys.max()
    if not np.isfinite(top) or top <= 0:
        return []
    out = []
    for p in _prominent_maxima(ys, prominence * top):
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


def _pair_curve(cols, tag):
    """(omega, spectral, signed) of one pair of spectra columns; a cross
    pair's spectral weight is signed."""

    sel = cols["pair"] == tag
    i, j = tag.split("-")
    return cols["omega"][sel], cols["spectral"][sel], i != j


def _pair_peaks(cols, tag, prominence, window):
    omega, spectral, signed = _pair_curve(cols, tag)
    return find_spectral_peaks(omega, spectral, prominence, window, signed)


def peak_table_from_csv(path, prominence=0.01, window=3):
    """Peak tables per pair from a spectra CSV: {pair_tag: [Peak, ...]}.

    Off-diagonal pairs are rectified before detection (their spectral
    weight is signed).
    """

    art = read_artifact(path)
    if art["kind"] != "spectra":
        raise ValueError(f"{Path(path).name}: peaks needs a spectra artifact")
    cols = art["columns"]
    return {tag: _pair_peaks(cols, tag, prominence, window) for tag in _labels(cols["pair"])}


def _labels(col):
    """The distinct labels of a text column, in file order."""

    labels, first = np.unique(col, return_index=True)
    return labels[np.argsort(first)].tolist()


# --------------------------------------------------------------- engines --


def _pair_sites(pairs):
    # every spectra engine solves for these sites only
    return list(dict.fromkeys(s for pair in pairs for s in pair))


def _write_spectra(path, omegas, greens, pairs, sites):
    """Spectra artifact of greens, which covers `sites` only (entries are
    indexed by position in it); returns the columns it wrote."""

    per_pair = []
    for i, j in pairs:
        a, b = sites.index(i), sites.index(j)
        ret, kel = greens.retarded[:, a, b], greens.keldysh[:, a, b]
        spectral = (1j * (ret - np.conj(greens.retarded[:, b, a]))).real
        per_pair.append((omegas, np.full(omegas.size, f"{i}-{j}"), ret.real, ret.imag,
                         kel.real, kel.imag, spectral))
    columns = dict(zip(SCHEMAS["spectra"], map(np.concatenate, zip(*per_pair))))
    _write_table(path, "spectra", [columns])
    return columns


def _sweep_file(gamma2):
    return f"keldysh_spectra_gamma2_{gamma2:g}.csv"


def _run_spectra(plan, run_dir, engine):
    cfg, sites = plan.cfg, _pair_sites(plan.cfg.grid.pairs)
    if engine == "keldysh":
        greens, sigma = steady_state_greens(plan.h, plan.site_baths, cfg.system.beta, plan.grid,
                                            sites=sites)
    elif engine == "lindblad":
        greens = qme.lindblad_greens(plan.h, *plan.gamma_rates(), sites, plan.grid)
    else:
        greens = qme.qme_greens(_redfield_generator(plan), sites, plan.grid)
    name = f"{engine}_spectra.csv"
    _write_spectra(run_dir / name, plan.grid.omegas, greens, cfg.grid.pairs, sites)
    files = {name: "spectra"}
    if engine == "keldysh":
        rates = extract_rates(sigma)
        _write_table(run_dir / "keldysh_rates.csv", "rates", _site_blocks(
            "rates", rates.grid.omegas, {"gamma": rates.gamma, "shift": rates.shift}))
        files["keldysh_rates.csv"] = "rates"
    return files


def _run_sweep(plan, run_dir):
    # the Born self-energy is linear in alpha = gamma2 / T: it is computed
    # at the first width and its stored columns scaled by alpha / alpha_first
    # for the others (bit for bit at power-of-two ratios, as every shipped width)
    cfg = plan.cfg
    pairs = cfg.grid.pairs
    sites = _pair_sites(pairs)
    files = {}
    counts = []
    alphas = [g2 / cfg.bath.temperature for g2 in cfg.sweep_gamma2]
    bath = OhmicBath(alpha=alphas[0], cutoff=cfg.bath.cutoff, temperature=cfg.bath.temperature)
    greens, sigma = steady_state_greens(
        plan.h, [bath] * cfg.system.n_sites, cfg.system.beta, plan.grid, sites=sites
    )
    for i, g2 in enumerate(cfg.sweep_gamma2):
        if i:
            r = alphas[i] / alphas[0]
            scaled = SelfEnergy(plan.grid, *(r * c for c in sigma.columns), sigma.n_sites)
            greens = dyson_solve(plan.h, cfg.system.beta, scaled, sites)
        name = _sweep_file(g2)
        columns = _write_spectra(run_dir / name, plan.grid.omegas, greens, pairs, sites)
        files[name] = "spectra"
        tag = "{}-{}".format(*pairs[0])
        counts.append(len(_pair_peaks(columns, tag, cfg.peaks.prominence, cfg.peaks.window)))
    _write_table(run_dir / "peak_counts.csv", "peak_counts",
                 [{"gamma2": cfg.sweep_gamma2, "n_peaks": [str(c) for c in counts]}])
    files["peak_counts.csv"] = "peak_counts"
    return files


def _run_trajectory(plan, run_dir, engine):
    cfg, site, t = plan.cfg, plan.cfg.initial.excited_site, plan.t_grid
    if engine == "kbe":
        occ = equal_time_occupations(plan.h, plan.kbe_sigma, site, cfg.time.t_max, cfg.time.dt)
    elif engine == "exact_tls":
        occ = qme.exact_tls_evolve(plan.h, plan.site_baths, site, t)[:, :plan.h.n_sites]
    elif engine == "lindblad":
        occ = qme.lindblad_occupations(plan.h, *plan.gamma_rates(), site, t)
    else:
        occ = qme.redfield_occupations(_redfield_generator(plan), site, t)
    _write_trajectory(run_dir / f"{engine}_trajectory.csv", t, occ)
    return {f"{engine}_trajectory.csv": "trajectory"}


def _redfield_generator(plan):
    return qme.bloch_redfield_generator(plan.h, plan.site_baths, secular=plan.cfg.qme.secular,
                                        lamb_shift=plan.cfg.qme.lamb_shift)


def _engine_jobs(plan):
    """(label, function, args) per engine job, in config order. A job runs
    function(plan, run_dir, *args), which writes its artifacts into run_dir
    and returns {file name: kind}. An engine runs a job per artifact kind it
    computes (_computing): _run_spectra (keldysh adds its rates), or
    _run_sweep over swept widths, and _run_trajectory, which is labelled
    `<engine>-dynamics` when the engine computes spectra too."""

    cfg, jobs = plan.cfg, []
    for e in cfg.engines:
        if e in _computing(cfg, "spectra"):
            jobs.append((e, _run_sweep, ()) if cfg.sweep else (e, _run_spectra, (e,)))
        if e in _computing(cfg, "trajectory"):
            label = f"{e}-dynamics" if "spectra" in ENGINES[e].kinds else e
            jobs.append((label, _run_trajectory, (e,)))
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
        return {**asdict(self), "value": None if math.isnan(self.value) else self.value}


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
    pairs_b = set(_labels(b_cols["pair"]))
    shared = [t for t in _labels(a_cols["pair"]) if t in pairs_b]
    if not shared:
        raise ValueError("no shared pairs between the spectra artifacts")
    for tag in shared:
        peaks_a = _pair_peaks(a_cols, tag, prominence, window)
        peaks_b = _pair_peaks(b_cols, tag, prominence, window)
        if len(peaks_a) != len(peaks_b):
            value, note = math.inf, f"peak counts differ: {len(peaks_a)} vs {len(peaks_b)}"
        elif not peaks_a:
            value, note = 0.0, "no peaks"
        else:
            value = max(abs(pa.position - pb.position) for pa, pb in zip(peaks_a, peaks_b))
            note = f"{len(peaks_a)} peaks, grid spacing {spacing:g}"
        metrics.append(_metric(f"peak-position:{tag}", name_a, name_b, value, tol_pos, note))
        if len(peaks_a) != len(peaks_b) or not peaks_a:  # nothing to match widths on
            continue
        ratios = [
            abs(pa.fwhm / pb.fwhm - 1.0)
            for pa, pb in zip(peaks_a, peaks_b)
            if math.isfinite(pa.fwhm) and math.isfinite(pb.fwhm) and pb.fwhm > 0
        ]
        skipped = len(peaks_a) - len(ratios)
        note = f"{skipped} unresolved width(s) skipped" if skipped else ""
        value = max(ratios) if ratios else math.nan
        metrics.append(_metric(f"fwhm-ratio:{tag}", name_a, name_b, value, tol_fwhm, note))
        for cols, fname in ((a_cols, name_a), (b_cols, name_b)):
            om, spectral, signed = _pair_curve(cols, tag)
            if signed:  # cross pairs carry no sum rule
                break
            residual = abs(np.trapezoid(spectral, om) / (2.0 * np.pi) - 1.0)
            metrics.append(
                _metric(f"sum-rule:{tag}:{Path(fname).name}", name_a, name_b, residual, tol_sum)
            )
    return metrics


def _compare_trajectories(art_a, art_b, tolerances):
    a_cols, b_cols = art_a["columns"], art_b["columns"]
    name_a, name_b = art_a["path"], art_b["path"]
    sites_b = set(_labels(b_cols["site"]))
    shared = [s for s in _labels(a_cols["site"]) if s in sites_b]
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
    return {
        "noisychain": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _clear_previous_run(run_dir):
    """Delete the files that the run dir's previous manifest names, and no other.

    A rerun into the same directory with other settings (say, other sweep
    widths) would otherwise leave the last run's artifacts beside the new
    ones. Files the manifest does not list, and names that point outside
    the run dir, are left alone.
    """

    try:
        previous = json.loads((run_dir / "manifest.json").read_text())
    except (FileNotFoundError, ValueError):
        return
    for name in previous.get("artifacts", []) if isinstance(previous, dict) else []:
        path = run_dir / str(name)
        if path.parent == run_dir and path.is_file():
            path.unlink()


def run_experiment(cfg, out_root=None, seed=None):
    """Run every engine of a validated config; write artifacts and reports.

    Engines run one after the other, in config order. Returns a RunResult.
    Engine failures do not abort the other engines: the failure text lands
    in the manifest and in RunResult.engine_errors, finished artifacts stay
    on disk. Outside width sweeps, the first artifact of each compared kind
    (spectra, trajectory) is compared with every later one of that kind.
    """

    if seed is not None:
        spec = {f.name: f.metadata for f in fields(ExperimentConfig)}["seed"]
        cfg = replace(cfg, seed=_checked(spec, seed, "seed"))
    plan = _Plan(cfg)  # validates everything before any file is written
    run_dir = resolve_out_root(cfg.out, out_root) / cfg.name
    run_dir.mkdir(parents=True, exist_ok=True)
    _clear_previous_run(run_dir)

    artifacts = {}  # file name -> kind, in the order the engines wrote them
    errors = {}
    for label, function, args in _engine_jobs(plan):
        try:
            artifacts.update(function(plan, run_dir, *args))
        except Exception as exc:
            errors[label] = f"{type(exc).__name__}: {exc}"

    reports = []
    if cfg.sweep_gamma2 is None:
        by_kind = {}
        for fname, kind in artifacts.items():
            if kind in ("spectra", "trajectory"):
                by_kind.setdefault(kind, []).append(fname)
        for first, *others in by_kind.values():
            for other in others:
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

    config_dict = _canonical_config(cfg)
    canon = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    manifest = {
        "config": config_dict,
        "config_sha256": hashlib.sha256(canon.encode()).hexdigest(),
        "seed": cfg.seed,
        "versions": _versions(),
        "created": datetime.now(timezone.utc).isoformat(),
        "artifacts": sorted(artifacts) + (["report.json"] if reports else []),
        "engine_errors": errors,
    }
    with open(run_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")

    return RunResult(
        run_dir=run_dir, artifacts=sorted(artifacts), reports=reports, engine_errors=errors
    )
