"""EIS experiment design toolkit.

Simulate impedance spectra of a generalized Randles cell model, fit the
eleven circuit parameters by weighted complex nonlinear least squares,
bound their variances through the Fisher information matrix, and adjust
measurement frequencies to shrink the joint uncertainty ellipsoid.
"""

from .circuit import (
    N_PARAMETERS,
    PARAMETER_NAMES,
    ParameterVector,
    jacobian,
    model_polar,
)
from .design import (
    AdjustmentStep,
    AdjustmentTrace,
    DesignConfig,
    run_design,
)
from .estimation import (
    FitResult,
    fit_wcnls,
    initialize,
)
from .exceptions import (
    DesignError,
    DomainError,
    EisoptError,
    FitError,
    InitializationError,
    SingularInformationError,
    SpectrumFormatError,
)
from .fixtures import FIXTURES, STATE_A, STATE_B, get_fixture
from .frequency import (
    FrequencyGrid,
    log_spaced,
    log_spaced_inclusive,
    reduce_ppd,
    total_time,
)
from .information import (
    FisherMatrix,
    UncertaintyReport,
    crlb,
    ellipsoid_log_volume,
    fisher,
    fisher_contributions,
    uncertainty_report,
)
from .measurement import (
    ErrorStructure,
    Spectrum,
    load_spectrum,
    save_spectrum,
    sigma_at,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "N_PARAMETERS",
    "PARAMETER_NAMES",
    "ParameterVector",
    "jacobian",
    "model_polar",
    "AdjustmentStep",
    "AdjustmentTrace",
    "DesignConfig",
    "run_design",
    "FitResult",
    "fit_wcnls",
    "initialize",
    "DesignError",
    "DomainError",
    "EisoptError",
    "FitError",
    "InitializationError",
    "SingularInformationError",
    "SpectrumFormatError",
    "FIXTURES",
    "STATE_A",
    "STATE_B",
    "get_fixture",
    "FrequencyGrid",
    "log_spaced",
    "log_spaced_inclusive",
    "reduce_ppd",
    "total_time",
    "FisherMatrix",
    "UncertaintyReport",
    "crlb",
    "ellipsoid_log_volume",
    "fisher",
    "fisher_contributions",
    "uncertainty_report",
    "ErrorStructure",
    "Spectrum",
    "load_spectrum",
    "save_spectrum",
    "sigma_at",
    "synthesize",
    "__version__",
]
