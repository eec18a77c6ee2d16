#!/usr/bin/env python3
"""Run every shipped preset and print one summary line per comparison.

Under each preset line goes the 12-character sha256 prefix of every CSV
artifact it wrote, so two runs are byte-identical when a diff of their
`sha256` lines is empty:

    diff <(run_all_presets.py --out a | grep sha256) <(... --out b | grep sha256)

With --against DIR, the output root of an earlier run, each CSV that DIR
also holds gets a `moved` line: "identical" when the bytes match, else the
largest move of each float column as a share of that column's max|value|
in DIR.

The two sweep presets dominate the runtime; everything else finishes in
seconds. Expect a couple of minutes total.
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from noisychain.harness import TEXT_COLUMNS, config_from_dict, read_artifact, run_experiment
from noisychain.presets import preset_config, preset_names


def moves(path, ref):
    """'identical', or the largest move per float column of `path` against
    `ref` as a share of the ref column's max|value|."""

    if path.read_bytes() == ref.read_bytes():
        return "identical"
    new, old = read_artifact(path)["columns"], read_artifact(ref)["columns"]
    parts = []
    for name, col in new.items():
        if name in TEXT_COLUMNS or name not in old:
            continue
        if col.shape != old[name].shape:
            parts.append(f"{name} {old[name].size} -> {col.size} rows")
            continue
        scale = np.max(np.abs(old[name]))
        move = np.max(np.abs(col - old[name]))
        parts.append(f"{name} {move / scale if scale else move:.2e}")
    return ", ".join(parts)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="noisychain-out", help="output root")
    ap.add_argument("--only", nargs="*", default=None, help="subset of preset names")
    ap.add_argument("--against", default=None,
                    help="output root of an earlier run to report artifact moves against")
    args = ap.parse_args()

    names = args.only or preset_names()
    failed = []
    for name in names:
        cfg = config_from_dict(preset_config(name))
        t0 = time.time()
        res = run_experiment(cfg, out_root=args.out)
        wall = time.time() - t0
        status = "ok" if res.ok else "FAILED"
        print(f"{name:14s} {wall:6.1f}s  {status}  -> {res.run_dir}")
        for fname in res.artifacts:
            if fname.endswith(".csv"):
                digest = hashlib.sha256((res.run_dir / fname).read_bytes()).hexdigest()
                print(f"    sha256 {digest[:12]}  {name}/{fname}")
                if args.against and (ref := Path(args.against, name, fname)).is_file():
                    print(f"    moved  {name}/{fname}: {moves(res.run_dir / fname, ref)}")
        for rep in res.reports:
            for line in rep.summary_lines():
                print(f"    {line}")
        for label, msg in res.engine_errors.items():
            print(f"    engine {label} failed: {msg}")
        if not res.ok:
            failed.append(name)
    if failed:
        print(f"failed presets: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
