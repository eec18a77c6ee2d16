"""Shipped experiment presets.

Each preset is a complete config dict (same schema as a YAML config file)
with numerics chosen so the documented runtime budgets hold on a laptop.
Dephasing strengths are quoted through the golden-rule width: an ohmic bath
at temperature T with coupling alpha gives a flat noise floor S(0) = 2 alpha T,
hence a spectral linewidth S(0)/2 = alpha T in units of the hopping.
"""

from __future__ import annotations

import copy

__all__ = ["PRESETS", "preset_config", "preset_names"]


def _spectrum_chain(alpha, cutoff, temperature, beta, n_points, engines, qme, tol):
    return {
        "version": 1,
        "system": {
            "n_sites": 5,
            "onsite": 2.0,
            "hopping": 1.0,
            "boundary": "periodic",
            "beta": beta,
        },
        "bath": {
            "kind": "ohmic",
            "alpha": alpha,
            "cutoff": cutoff,
            "temperature": temperature,
        },
        "engines": engines,
        "grid": {
            "omega_min": 0.0,
            "omega_max": 4.0,
            "n_points": n_points,
            "pairs": [[0, 0], [0, 1]],
        },
        "qme": qme,
        "compare": {"tolerance": tol},
        "seed": 1,
    }


PRESETS = {
    # N=5 chain against a hot, nearly flat dephasing bath: the Keldysh
    # spectrum and the dephasing Lindblad spectrum must agree peak by peak,
    # in position and, since both lines carry the same eta Lorentzian on top
    # of the same dephasing width, in width to 1 percent.
    "fig2-lower": _spectrum_chain(
        alpha=0.1 / 300.0,
        cutoff=800.0,
        temperature=300.0,
        beta=1.0 / 300.0,
        n_points=4001,
        engines=["keldysh", "lindblad"],
        qme={},
        tol={"position": "grid", "fwhm": 0.01},
    ),
    # cold ohmic bath, structured noise: Bloch-Redfield against Keldysh.
    # Both spectra are resolvents at omega + i eta, so their lines carry the
    # same eta Lorentzian on top of the physical width, and positions and
    # widths must both line up.
    "fig2-upper": {
        **_spectrum_chain(
            alpha=0.002,
            cutoff=4.0,
            temperature=0.2,
            beta=5.0,
            n_points=1601,
            engines=["keldysh", "blochredfield"],
            qme={},
            tol={"position": "grid", "fwhm": 0.10},
        ),
        "peaks": {"prominence": 0.05, "window": 3},
    },
    # resolution sweep: one A_00 spectrum per dephasing width, plus the
    # peak-count table showing lines merging as the width grows past the
    # level spacing
    "fig3-top": {
        "version": 1,
        "system": {
            "n_sites": 20,
            "onsite": 2.0,
            "hopping": 1.0,
            "boundary": "periodic",
            "beta": 1.0 / 300.0,
        },
        "bath": {"kind": "ohmic", "alpha": None, "cutoff": 800.0, "temperature": 300.0},
        "sweep": {"gamma2": [0.05, 0.1, 0.2, 0.4]},
        "engines": ["keldysh"],
        "grid": {
            "omega_min": 0.2,
            "omega_max": 3.8,
            "n_points": 7201,
            "pairs": [[0, 0]],
        },
        "seed": 1,
    },
    "fig3-bottom": None,  # filled below: same sweep at doubled system size
    # transient decay into a flat continuum: the memoryless two-time
    # integrator against the relaxation Lindblad equation; they differ by
    # 1.39e-4 from every start site of the ring, 7.2 times inside the bound
    "fig4-bottom": {
        "version": 1,
        "system": {"n_sites": 5, "onsite": 0.0, "hopping": 1.0, "boundary": "periodic"},
        "bath": {"kind": "wideband", "rate": 0.25},
        "engines": ["kbe", "lindblad"],
        "time": {"t_max": 20.0, "dt": 0.04},
        "initial": {"excited_site": 0},
        "compare": {"tolerance": {"trajectory": 1.0e-3}},
        "seed": 1,
    },
    # structured environment: two sampled tunneling levels per qubit. The
    # memory-kernel integrator, the exact register evolution, and a
    # relaxation Lindblad candidate all run; deviations are reported
    # without a pass bound (the point is how far the Markovian candidate
    # drifts while the kernel tracks the exact result). At dt = 2^-7 the
    # kernel's O(dt^2) error against the exact solve is 7.4e-5
    "fig4-top": {
        "version": 1,
        "system": {"n_sites": 5, "onsite": 2.0, "hopping": 0.5, "boundary": "open"},
        "bath": {
            "kind": "tls",
            "target_rate": 0.25,
            "n_tls": 2,
            "band": [1.5, 2.5],
            "temperature": 0.0,
        },
        "engines": ["kbe", "exact_tls", "lindblad"],
        "time": {"t_max": 10.0, "dt": 0.0078125},
        "initial": {"excited_site": 0},
        "qme": {"gamma1": 0.25},
        "seed": 42,
    },
}

PRESETS["fig3-bottom"] = copy.deepcopy(PRESETS["fig3-top"])
PRESETS["fig3-bottom"]["system"]["n_sites"] = 40

DESCRIPTIONS = {
    "fig2-lower": "N=5 chain, hot flat dephasing: Keldysh vs Lindblad spectra",
    "fig2-upper": "N=5 chain, cold ohmic bath: Keldysh vs Bloch-Redfield spectra",
    "fig3-top": "N=20 resolution sweep over dephasing widths, peak-count table",
    "fig3-bottom": "N=40 resolution sweep over dephasing widths, peak-count table",
    "fig4-bottom": "N=5 wide-band decay: two-time integrator vs Lindblad occupations",
    "fig4-top": "5 qubits + sampled TLS pairs: memory kernel vs exact vs Lindblad",
}


def preset_names():
    return sorted(PRESETS)


def preset_config(name):
    """Deep copy of a preset config dict, with its name filled in."""

    if name not in PRESETS:
        known = ", ".join(preset_names())
        raise KeyError(f"unknown preset {name!r}; shipped presets: {known}")
    cfg = copy.deepcopy(PRESETS[name])
    cfg["name"] = name
    return cfg
