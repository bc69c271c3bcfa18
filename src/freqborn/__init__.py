"""freqborn: relative-frequency expansion of N-copy states with concentration diagnostics.

Importing the package imports none of its modules: each name in ``__all__``
is looked up in its home module when it is first read (PEP 562).  So
``python -m freqborn.cli`` reaches the CLI before anything loads numpy, and
the CLI chooses how numpy loads.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "LOG_ZERO",
    "SingleCopyState",
    "FrequencyDecomposition",
    "MomentReport",
    "decompose_two_level",
    "decompose_multilevel",
    "total_mass",
    "frequency_moments",
    "brute_force_decompose",
    "compositions",
    "WindowMass",
    "LocalizationVerdict",
    "chebyshev_bound",
    "window_masses",
    "convergence_scan",
    "check_localization",
    "GridWavefunction",
    "Region",
    "read_wavefunction_csv",
    "region_probability",
    "region_frequency_analysis",
    "finite_run_distribution",
    "outer_frequency_check",
    "surprise_index",
    "CapacityError",
    "ContractError",
    "NormalizationError",
    "__version__",
]

# The names of __all__ but __version__, by home module.
_EXPORTS = {
    "combinatorics": ("LOG_ZERO",),
    "concentration": ("WindowMass", "LocalizationVerdict", "chebyshev_bound", "window_masses",
                      "convergence_scan", "check_localization"),
    "continuum": ("GridWavefunction", "Region", "read_wavefunction_csv", "region_probability",
                  "region_frequency_analysis"),
    "decomposition": ("SingleCopyState", "FrequencyDecomposition", "MomentReport", "decompose_two_level",
                      "decompose_multilevel", "total_mass", "frequency_moments", "brute_force_decompose",
                      "compositions"),
    "errors": ("CapacityError", "ContractError", "NormalizationError"),
    "finite_run": ("finite_run_distribution", "outer_frequency_check", "surprise_index"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
