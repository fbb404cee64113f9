"""Max-sliced Wasserstein distances on Euclidean spaces and truncated
Gaussian-kernel feature embeddings, with Monte Carlo rate experiments and
evaluators for the matching theoretical bounds."""

from .bounds import (
    BoundParams,
    concentration_bound,
    expectation_bound_exp_decay,
    expectation_bound_finite,
    expectation_bound_poly_decay,
)
from .errors import (
    ConfigError,
    DomainError,
    MswError,
    NumericError,
    ScaleError,
    SpecError,
    UnsupportedDimensionError,
)
from .harness import (
    ExperimentConfig,
    Overlay,
    RateCurve,
    RatioTable,
    emit,
    fit_loglog_slope,
    load_rate_curve,
    run_rate_experiment,
    run_ratio_experiment,
)
from .maxsliced import (
    MswResult,
    OptimizerOpts,
    msw_empirical,
    msw_grid_oracle,
    msw_vs_analytic,
    wasserstein_full,
)
from .measures import (
    Gaussian,
    ParetoProduct,
    RkhsPushforward,
    RngStream,
    moment_bound,
    moment_empirical,
    sample,
)
from .ot1d import (
    AnalyticCdf1d,
    empirical_law,
    gaussian_law,
    project,
    w1d_empirical,
    w1d_vs_cdf,
)
from .ratio import (
    RatioStatResult,
    ratio_fixed_direction,
    ratio_sup,
    ratio_tail_bound,
    shatter_count,
    vc_bound,
)
from .rkhs import (
    AssumptionReport,
    KernelSpec,
    SpectrumReport,
    check_assumptions,
    check_spectrum,
    eigenfunction,
    eigenvalue,
    eigenvalue_bounds,
    eigenvalues,
    feature_coords,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
