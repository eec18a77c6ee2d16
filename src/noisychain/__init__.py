"""Spectra and relaxation dynamics of dissipative tight-binding chains.

Frequency-domain pipeline: build_chain -> bath objects -> steady_state_greens
-> spectral_weight / extract_rates. Time-domain pipeline:
equal_time_occupations and equal_time_keldysh (the site occupations and the
equal-time Keldysh diagonal after one site is excited, under wide-band
decay or sampled memory kernels), or the master-equation evolvers in qme.
The harness module runs validated configs end to end and the CLI
(`noisychain`) wraps it; shipped example setups live in presets.
"""

from importlib.metadata import PackageNotFoundError, version

from .baths import (
    FlatNoise,
    OhmicBath,
    TlsBath,
    WideBandBath,
    noise_power,
    power_spectral_density,
    sample_tls_bath,
    spectral_function,
)
from .errors import CapacityError, ConfigError, SingularFrequencyError
from .harness import (
    ComparisonReport,
    ExperimentConfig,
    compare_artifacts,
    config_from_dict,
    find_spectral_peaks,
    load_config,
    run_experiment,
)
from .kbe import (
    equal_time_keldysh,
    equal_time_occupations,
    markov_self_energy,
    tls_memory_self_energy,
)
from .keldysh import (
    RateFunction,
    SelfEnergy,
    dyson_solve,
    extract_rates,
    spectral_weight,
    steady_state_greens,
)
from .lattice import FreqGreens, FreqGrid, build_chain, ideal_greens
from .presets import preset_config, preset_names
from .qme import (
    bloch_redfield_generator,
    exact_tls_evolve,
    qme_greens,
)

try:
    __version__ = version("noisychain")
except PackageNotFoundError:
    __version__ = "0.1.0"

__all__ = [
    "__version__",
    "FlatNoise",
    "OhmicBath",
    "TlsBath",
    "WideBandBath",
    "noise_power",
    "power_spectral_density",
    "sample_tls_bath",
    "spectral_function",
    "CapacityError",
    "ConfigError",
    "SingularFrequencyError",
    "ComparisonReport",
    "ExperimentConfig",
    "compare_artifacts",
    "config_from_dict",
    "find_spectral_peaks",
    "load_config",
    "run_experiment",
    "equal_time_keldysh",
    "equal_time_occupations",
    "markov_self_energy",
    "tls_memory_self_energy",
    "RateFunction",
    "SelfEnergy",
    "dyson_solve",
    "extract_rates",
    "spectral_weight",
    "steady_state_greens",
    "FreqGreens",
    "FreqGrid",
    "build_chain",
    "ideal_greens",
    "preset_config",
    "preset_names",
    "bloch_redfield_generator",
    "exact_tls_evolve",
    "qme_greens",
]
