"""Slow-decay expansions, truncated simulation and decay-rate verification
for forced, zero-average periodic flows.

The pieces, bottom to top: `spectral` (fields and mode-wise operators),
`fieldpoly` (field-valued time polynomials and the resolvent solve),
`expansion` (the level recursion), `galerkin` (integrating-factor RK4 on a
mode ball), `analysis` (norm series, energy ledger, rate fits, certificates),
`scenario` + `cli` (scenario files and the nse-expand driver).
"""

from .analysis import (
    CertificateReport,
    DecayCertificate,
    NormSeries,
    RateFit,
    ResonantConstantFit,
    certificate_check,
    energy_ledger,
    fit_rate,
    fit_resonant_constant,
    norm_series,
    rate_claim_passes,
    remainder_series,
    tail_window,
)
from .expansion import (
    ExpansionResult,
    ForceExpansion,
    LevelEquationError,
    build_expansion,
    check_resonant_data,
    expansion_residual,
    finite_approximation_plan,
    level_source,
    solve_level,
)
from .fieldpoly import (
    DegreeCapError,
    FieldPolynomial,
    assemble,
    level_support,
    poly_bilinear,
    resolvent_solve,
)
from .galerkin import (
    BlowupError,
    SolverConfig,
    Trajectory,
    evaluate_force,
    integrate,
)
from .scenario import Scenario, load_scenario
from .serialize import ScenarioError
from .spectral import (
    NormSpec,
    SpectralField,
    bilinear,
    bilinear_norm_ratio,
    eigenspace_project,
    eigenvalue,
    eigenvalues_up_to,
    inner,
    is_representative,
    leray_project,
    norm,
    truncate,
)

__version__ = "0.1.0"
