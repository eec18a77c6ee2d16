#!/usr/bin/env python3
"""Peak-count staircase of a chain spectrum under growing dephasing.

Runs the two shipped resolution sweeps (20 and 40 sites) and prints how
many lines the site spectrum resolves at each dephasing width. The count
must fall monotonically as lines merge; the larger chain starts higher
and collapses sooner because its level spacing is half as wide.
"""

import argparse
import sys

from noisychain.harness import config_from_dict, read_artifact, run_experiment
from noisychain.presets import preset_config


def staircase(run_dir):
    cols = read_artifact(run_dir / "peak_counts.csv")["columns"]
    return [(float(g2), int(n)) for g2, n in zip(cols["gamma2"], cols["n_peaks"])]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="noisychain-out", help="output root")
    args = ap.parse_args()

    tables = {}
    for name in ("fig3-top", "fig3-bottom"):
        cfg = config_from_dict(preset_config(name))
        res = run_experiment(cfg, out_root=args.out)
        if res.engine_errors:
            print(f"{name}: {res.engine_errors}", file=sys.stderr)
            return 1
        tables[name] = staircase(res.run_dir)

    widths = [g for g, _ in tables["fig3-top"]]
    print("dephasing width   peaks (N=20)   peaks (N=40)")
    for k, g in enumerate(widths):
        n20 = tables["fig3-top"][k][1]
        n40 = tables["fig3-bottom"][k][1]
        print(f"{g:15.2f} {n20:14d} {n40:14d}")
    for name, tab in tables.items():
        counts = [n for _, n in tab]
        if counts != sorted(counts, reverse=True):
            print(f"{name}: peak count not monotone: {counts}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
