"""freqborn: relative-frequency expansion of N-copy states with concentration diagnostics."""

from .combinatorics import LOG_ZERO
from .concentration import (
    LocalizationVerdict,
    WindowMass,
    chebyshev_bound,
    check_localization,
    convergence_scan,
    window_masses,
)
from .continuum import (
    GridWavefunction,
    Region,
    read_wavefunction_csv,
    region_frequency_analysis,
    region_probability,
)
from .decomposition import (
    FrequencyDecomposition,
    MomentReport,
    SingleCopyState,
    brute_force_decompose,
    compositions,
    decompose_multilevel,
    decompose_two_level,
    frequency_moments,
    total_mass,
)
from .errors import CapacityError, ContractError, NormalizationError
from .finite_run import finite_run_distribution, outer_frequency_check, surprise_index

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
