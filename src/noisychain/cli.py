"""Command-line front end.

Verbs: run a config or shipped preset, compare two CSV artifacts, list the
peaks of a spectra artifact, list the shipped presets. Exit codes: 0 on
success, 1 when an engine fails or a toleranced comparison fails, 2 on a
config or schema error (the message names the offending field).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError
from .harness import (
    OUT_ENV_VAR,
    CompareConfig,
    PeaksConfig,
    ToleranceConfig,
    _parse,
    compare_artifacts,
    config_from_dict,
    load_config,
    peak_table_from_csv,
    run_experiment,
)
from .presets import DESCRIPTIONS, preset_config, preset_names


def _tolerances(items):
    """KEY=VALUE items, each value read as YAML, through the tolerance table."""

    raw = {}
    for item in items or ():
        key, sep, val = item.partition("=")
        if not sep:
            raise ConfigError("--tolerance", f"expected key=value, got {item!r}")
        import yaml  # here, not at module level: a run without --tolerance reads no YAML

        try:
            raw[key] = yaml.safe_load(val)
        except yaml.YAMLError:
            raise ConfigError(f"compare.tolerance.{key}", f"not a YAML value: {val!r}")
    return _parse(raw, "compare.tolerance", ToleranceConfig)


def _peaks(args):
    return _parse({"prominence": args.prominence, "window": args.window}, "peaks", PeaksConfig)


def _resolve_config(ref):
    path = Path(ref)
    if path.exists():
        return load_config(path)
    if ref in preset_names():
        return config_from_dict(preset_config(ref))
    raise ConfigError(
        "--config", f"{ref!r} is neither a file nor a shipped preset"
    )


def _cmd_run(args):
    cfg = _resolve_config(args.config)
    tol = replace(cfg.compare.tolerance, **_tolerances(args.tolerance).given())
    cfg = replace(cfg, compare=CompareConfig(tolerance=tol))
    result = run_experiment(cfg, out_root=args.out, seed=args.seed)
    print(f"run dir: {result.run_dir}")
    for name in result.artifacts:
        print(f"  wrote {name}")
    for report in result.reports:
        for line in report.summary_lines():
            print(line)
    for label, msg in result.engine_errors.items():
        print(f"engine {label} failed: {msg}", file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_compare(args):
    opts = _peaks(args)
    report = compare_artifacts(
        args.file_a,
        args.file_b,
        tolerances=_tolerances(args.tolerance).given(),
        prominence=opts.prominence,
        window=opts.window,
    )
    for line in report.summary_lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_peaks(args):
    opts = _peaks(args)
    tables = peak_table_from_csv(args.file, prominence=opts.prominence, window=opts.window)
    print("pair,position,height,fwhm")
    for tag, peaks in tables.items():
        for p in peaks:
            fwhm = "nan" if math.isnan(p.fwhm) else f"{p.fwhm:.12e}"
            print(f"{tag},{p.position:.12e},{p.height:.12e},{fwhm}")
    return 0


def _cmd_list_presets(args):
    for name in preset_names():
        print(f"{name:14s} {DESCRIPTIONS.get(name, '')}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="noisychain",
        description="Spectra and relaxation dynamics of dissipative tight-binding chains.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="run a config file or shipped preset")
    run.add_argument(
        "--config", required=True, metavar="PATH|PRESET",
        help="YAML config file, or the name of a shipped preset",
    )
    run.add_argument(
        "--out", default=None, metavar="DIR",
        help=f"output root (default: config, then ${OUT_ENV_VAR}, then ./noisychain-out)",
    )
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument(
        "--tolerance", action="append", metavar="KEY=VALUE",
        help="override a comparison tolerance (position/fwhm/trajectory/sumrule; "
        "position accepts 'grid' for one grid spacing); repeatable",
    )
    run.set_defaults(handler=_cmd_run)

    cmp_ = sub.add_parser("compare", help="compare two CSV artifacts of the same kind")
    cmp_.add_argument("file_a")
    cmp_.add_argument("file_b")
    cmp_.add_argument("--tolerance", action="append", metavar="KEY=VALUE")
    cmp_.set_defaults(handler=_cmd_compare)

    peaks = sub.add_parser("peaks", help="peak table of a spectra artifact, as CSV")
    peaks.add_argument("file")
    peaks.set_defaults(handler=_cmd_peaks)
    for verb in (cmp_, peaks):
        verb.add_argument("--prominence", type=float, help="minimum prominence as a "
                          "fraction of the curve maximum (default 0.01)")
        verb.add_argument("--window", type=int, help="odd smoothing window (default 3)")

    lp = sub.add_parser("list-presets", help="list the shipped presets")
    lp.set_defaults(handler=_cmd_list_presets)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
