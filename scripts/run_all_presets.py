#!/usr/bin/env python3
"""Run every shipped preset and print one summary line per comparison.

Each preset runs under tracemalloc, and its line gives the wall time and
the traced peak of its run_experiment call. Under it goes the 12-character
sha256 prefix of every CSV artifact it wrote, so two runs are
byte-identical when a diff of their `sha256` lines is empty:

    diff <(run_all_presets.py --out a | grep sha256) <(... --out b | grep sha256)

With --against DIR, the output root of an earlier run, each CSV gets a
`moved` line: "identical" when the bytes match the file in DIR, else the
largest move of each float column, scaled by values in DIR. A spectra
column is scaled by its pair's max|G^R| (re_retarded, im_retarded,
spectral) or max|G^K| (re_keldysh, im_keldysh), so roundoff in a column
that is zero in exact arithmetic, such as re_keldysh of a diagonal pair,
reads as roundoff; any other column is scaled by its own max|value|. A
preset's report.json gets a line too: "identical" when every comparison
metric has the same value as in DIR, else the largest move. An artifact
that DIR's manifest lists and this run did not write gets a `moved` line
too. The script exits 1 when any file's bytes moved, however little, or
a file is missing from DIR or from this run.

Each preset takes 0.1-0.3 s under tracing; fig2-upper peaks highest, at
4.0 MB, then fig2-lower at 3.9 MB and the two sweep presets at 3.6 MB, and
the whole script, imports and tracing included, runs in 1.4 s on a 2-core
Xeon with numpy 2.4.
"""

import argparse
import hashlib
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from noisychain.harness import TEXT_COLUMNS, config_from_dict, read_artifact, run_experiment
from noisychain.presets import preset_config, preset_names


def _pair_scales(cols):
    """{spectra column: per-row scale}, the max|G^R| or max|G^K| of the
    row's pair in the spectra columns `cols`."""

    _, row = np.unique(cols["pair"], return_inverse=True)
    scales = {}
    for part, names in (("retarded", ("re_retarded", "im_retarded", "spectral")),
                        ("keldysh", ("re_keldysh", "im_keldysh"))):
        peak = np.zeros(row.max() + 1)
        np.maximum.at(peak, row, np.hypot(cols[f"re_{part}"], cols[f"im_{part}"]))
        scales.update(dict.fromkeys(names, peak[row]))
    return scales


def moves(path, ref):
    """'identical', or the largest move per float column of `path` against
    `ref`, scaled by values in `ref` as the module docstring says."""

    if path.read_bytes() == ref.read_bytes():
        return "identical"
    new, old = read_artifact(path)["columns"], read_artifact(ref)["columns"]
    scales = _pair_scales(old) if "pair" in old else {}
    parts = []
    for name, col in new.items():
        if name in TEXT_COLUMNS or name not in old:
            continue
        if col.shape != old[name].shape:
            parts.append(f"{name} {old[name].size} -> {col.size} rows")
            continue
        scale = scales.get(name, np.max(np.abs(old[name])))
        move = np.abs(col - old[name]) / np.where(scale > 0, scale, 1.0)
        parts.append(f"{name} {np.max(move):.2e}")
    return ", ".join(parts)


def _metric_values(path):
    # {(file a, file b, metric): value}, files by name: run dirs differ
    return {(Path(r["file_a"]).name, Path(r["file_b"]).name, m["name"]): m["value"]
            for r in json.loads(path.read_text()) for m in r["metrics"]}


def metric_moves(path, ref):
    """'identical' when every report.json metric of `path` has its value in
    `ref`, else the largest move and how many metrics moved."""

    new, old = _metric_values(path), _metric_values(ref)
    if new == old:
        return "identical"
    keys = new.keys() | old.keys()
    changed = [k for k in keys if k not in new or k not in old or new[k] != old[k]]
    summary = f"{len(changed)} of {len(keys)} metrics moved"
    numeric = [k for k in changed if None not in (new.get(k), old.get(k))]
    if not numeric:
        return summary
    k = max(numeric, key=lambda k: abs(new[k] - old[k]))
    return (f"{summary}, largest {k[2]} ({k[0]} vs {k[1]}): {old[k]:.12g} -> "
            f"{new[k]:.12g}, |move| {abs(new[k] - old[k]):.2e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="noisychain-out", help="output root")
    ap.add_argument("--only", nargs="*", default=None, help="subset of preset names")
    ap.add_argument("--against", default=None,
                    help="output root of an earlier run to report artifact moves against")
    args = ap.parse_args()

    names = args.only or preset_names()
    failed, moved = [], []
    for name in names:
        cfg = config_from_dict(preset_config(name))
        tracemalloc.start()
        try:
            t0 = time.time()
            res = run_experiment(cfg, out_root=args.out)
            wall = time.time() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        status = "ok" if res.ok else "FAILED"
        print(f"{name:14s} {wall:6.1f}s  {peak / 1e6:6.1f} MB  {status}  -> {res.run_dir}")
        checked = []  # (file, how to compare it with its copy in DIR)
        for fname in res.artifacts:
            if fname.endswith(".csv"):
                digest = hashlib.sha256((res.run_dir / fname).read_bytes()).hexdigest()
                print(f"    sha256 {digest[:12]}  {name}/{fname}")
                checked.append((fname, moves))
        if res.reports:
            checked.append(("report.json", metric_moves))
        for fname, compare in checked if args.against else ():
            ref = Path(args.against, name, fname)
            how = compare(res.run_dir / fname, ref) if ref.is_file() else "missing from DIR"
            print(f"    moved  {name}/{fname}: {how}")
            if how != "identical":
                moved.append(f"{name}/{fname}")
        ref = Path(args.against or "", name, "manifest.json")
        listed = json.loads(ref.read_text())["artifacts"] if args.against and ref.is_file() else []
        for fname in sorted(set(listed) - {f for f, _ in checked}):
            print(f"    moved  {name}/{fname}: missing from this run")
            moved.append(f"{name}/{fname}")
        for rep in res.reports:
            for line in rep.summary_lines():
                print(f"    {line}")
        for label, msg in res.engine_errors.items():
            print(f"    engine {label} failed: {msg}")
        if not res.ok:
            failed.append(name)
    if failed:
        print(f"failed presets: {', '.join(failed)}")
    if moved:
        print(f"moved against {args.against}: {', '.join(moved)}")
    return 1 if failed or moved else 0


if __name__ == "__main__":
    sys.exit(main())
