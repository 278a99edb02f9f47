"""Two-ray fading with independently fluctuating specular components.

Closed-form channel statistics (MGF/PDF/CDF), a physical Monte Carlo
sampler with the related comparison models, link-performance metrics
(average BER, outage), and an empirical-CDF fitting harness built on a
log-domain Kolmogorov-Smirnov statistic.
"""

from .params import (
    M_SHAPE_MAX,
    IftrParams,
    ModulationSpec,
    SpecularDecomposition,
    ValidationError,
    amplitudes_from_params,
    family_params,
    params_from_amplitudes,
    params_from_json,
    params_to_json,
)
from .laplace import (
    LaplaceInversionConfig,
    ToleranceWarning,
    laplace_invert_cdf,
    laplace_invert_density,
    phi2_multi_rate,
)
from .specfun import ConvergenceError
from .stats import (
    ApproximationWarning,
    DistributionDomain,
    cdf,
    cdf_asymptotic_slope,
    convergence_abscissa,
    mgf,
    mgf_integer_m1,
    pdf,
    rician_shadowed_pdf,
)

__version__ = "0.1.0"

__all__ = [
    "M_SHAPE_MAX",
    "IftrParams",
    "SpecularDecomposition",
    "ModulationSpec",
    "ValidationError",
    "params_from_amplitudes",
    "amplitudes_from_params",
    "family_params",
    "params_from_json",
    "params_to_json",
    "LaplaceInversionConfig",
    "ToleranceWarning",
    "laplace_invert_density",
    "laplace_invert_cdf",
    "phi2_multi_rate",
    "ConvergenceError",
    "ApproximationWarning",
    "DistributionDomain",
    "mgf",
    "mgf_integer_m1",
    "rician_shadowed_pdf",
    "pdf",
    "cdf",
    "cdf_asymptotic_slope",
    "convergence_abscissa",
    "__version__",
]
