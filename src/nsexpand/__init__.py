"""Slow-decay expansions, truncated simulation and decay-rate verification
for forced, zero-average periodic flows.

The pieces, bottom to top: `spectral` (fields and mode-wise operators),
`fieldpoly` (field-valued time polynomials and the resolvent solve),
`expansion` (the level recursion), `galerkin` (integrating-factor RK4 on the
flow's support closure), `analysis` (norm and remainder series, rate fits,
certificates), `scenario` + `cli` (scenario files and the nse-expand driver).
The package exports the names its demos and README use; everything else is
imported from its module.
"""

from .analysis import (
    DecayCertificate,
    certificate_check,
    fit_rate,
    fit_resonant_constant,
    norm_series,
    rate_claim_passes,
    remainder_series,
)
from .expansion import ForceExpansion, build_expansion
from .fieldpoly import FieldPolynomial, assemble, level_support, poly_bilinear
from .galerkin import SolverConfig, Trajectory, integrate
from .spectral import (
    NormSpec,
    SpectralField,
    bilinear,
    bilinear_norm_ratio,
    eigenvalue,
    eigenvalues_up_to,
    inner,
    leray_project,
    norm,
)
