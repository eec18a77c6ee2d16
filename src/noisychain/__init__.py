"""Spectra and relaxation dynamics of dissipative tight-binding chains.

Frequency-domain pipeline: build_chain -> one bath (or None) per site ->
steady_state_greens -> extract_rates. Time-domain pipeline:
equal_time_occupations on a MemorySelfEnergy (the site occupations after one
site is excited, under wide-band decay or sampled memory kernels), or the
master-equation evolvers in qme.
The harness module runs validated configs end to end and the CLI
(`noisychain`) wraps it; shipped example setups live in presets.
"""

__version__ = "0.1.0"  # before the submodule imports: harness reads it

from .baths import (
    OhmicBath,
    TlsBath,
    WideBandBath,
    noise_power,
    sample_tls_bath,
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
from .kbe import MemorySelfEnergy, equal_time_occupations
from .keldysh import (
    RateFunction,
    SelfEnergy,
    dyson_solve,
    extract_rates,
    steady_state_greens,
)
from .lattice import FreqGreens, FreqGrid, build_chain
from .presets import preset_config, preset_names
from .qme import (
    bloch_redfield_generator,
    exact_tls_evolve,
    qme_greens,
)

__all__ = [
    "__version__",
    "OhmicBath",
    "TlsBath",
    "WideBandBath",
    "noise_power",
    "sample_tls_bath",
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
    "MemorySelfEnergy",
    "equal_time_occupations",
    "RateFunction",
    "SelfEnergy",
    "dyson_solve",
    "extract_rates",
    "steady_state_greens",
    "FreqGreens",
    "FreqGrid",
    "build_chain",
    "preset_config",
    "preset_names",
    "bloch_redfield_generator",
    "exact_tls_evolve",
    "qme_greens",
]
