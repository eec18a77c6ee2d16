"""Benchmark workloads: the config dicts one workload runs for a given seed.

Each workload is a list of shipped presets with a few inputs drawn from the
seed. The seed moves inputs, never cost: it picks between inputs that run
the same code on arrays of the same shapes.

- dephasing-sweep: fig3-bottom (keldysh, N=40 ring) with two sweep widths,
  one drawn from each side of where the lines merge, on a grid of
  SWEEP_POINTS instead of the preset's 7201 points over the same window.
  The halved grid keeps every stage of the keldysh path and the N=40 Dyson
  solve while one width takes about 9 s instead of 23 s (2-core machine),
  so that repeated runs of all three workloads fit in about an hour. On this
  grid the peak count falls from 17 and 13 at widths 0.05 and 0.1 to 7 and
  2 at widths 0.2 and 0.4.
- register-spectra: fig2-lower (keldysh vs lindblad) and fig2-upper
  (keldysh vs blochredfield) on the N=5 ring. The seed picks the site pair
  (s, s) and (s, s+1); the ring's translation symmetry makes every choice
  equally expensive and equally comparable.
- tls-relaxation: fig4-top (kbe vs exact_tls vs lindblad) over the TLS
  environments the seed draws, and fig4-bottom (kbe vs lindblad) started
  from the ring site the seed picks.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("dephasing-sweep", "register-spectra", "tls-relaxation")

SWEEP_NARROW = (0.05, 0.1)  # fig3 widths below the merge
SWEEP_WIDE = (0.2, 0.4)  # fig3 widths above it
SWEEP_POINTS = 3601


def configs(workload, seed):
    """Config dicts (preset schema) that one iteration of `workload` runs."""

    from noisychain.presets import preset_config

    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "dephasing-sweep":
        cfg = preset_config("fig3-bottom")
        cfg["grid"]["n_points"] = SWEEP_POINTS
        cfg["sweep"]["gamma2"] = [
            float(rng.choice(SWEEP_NARROW)),
            float(rng.choice(SWEEP_WIDE)),
        ]
        return [cfg]
    if workload == "register-spectra":
        out = []
        for name in ("fig2-lower", "fig2-upper"):
            cfg = preset_config(name)
            n = cfg["system"]["n_sites"]
            s = int(rng.integers(n))
            cfg["grid"]["pairs"] = [[s, s], [s, (s + 1) % n]]
            out.append(cfg)
        return out
    if workload == "tls-relaxation":
        top = preset_config("fig4-top")
        top["seed"] = int(rng.integers(2**31))
        bottom = preset_config("fig4-bottom")
        bottom["initial"]["excited_site"] = int(rng.integers(bottom["system"]["n_sites"]))
        return [top, bottom]
    raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
