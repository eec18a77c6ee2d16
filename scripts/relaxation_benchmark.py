#!/usr/bin/env python3
"""Occupation-dynamics benchmark: two-time integrator vs candidate theories.

Two setups. Against a flat wide-band continuum the memoryless two-time
integrator and the decay Lindblad equation must agree to about a percent.
Against a handful of sampled tunneling levels per site the memory-kernel
integrator tracks the exact register evolution while the best Markovian
candidate drifts by an order of magnitude more; the deviations are printed
so the gap is visible, no pass bound is applied there.
"""

import argparse
import sys

from noisychain.harness import config_from_dict, run_experiment
from noisychain.presets import preset_config


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="noisychain-out", help="output root")
    args = ap.parse_args()

    bad = False
    for name in ("fig4-bottom", "fig4-top"):
        cfg = config_from_dict(preset_config(name))
        res = run_experiment(cfg, out_root=args.out)
        print(f"{name} -> {res.run_dir}")
        for rep in res.reports:
            for line in rep.summary_lines():
                print(f"  {line}")
        for label, msg in res.engine_errors.items():
            print(f"  engine {label} failed: {msg}", file=sys.stderr)
        bad = bad or not res.ok
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
