"""Max-sliced Wasserstein distances on Euclidean spaces and truncated
Gaussian-kernel feature embeddings, with Monte Carlo rate experiments and
evaluators for the matching theoretical bounds.

Every public name is loaded on first use (PEP 562): `import msw` loads no
submodule and no numpy, and `msw.sample` imports msw.measures when read.
"""

import importlib

# submodule -> the public names it defines; the submodules are public names too
_EXPORTS = {
    "bounds": ("BoundParams", "expectation_bound_exp_decay", "expectation_bound_finite",
               "expectation_bound_poly_decay", "ratio_tail_bound", "vc_bound"),
    "errors": ("ConfigError", "DomainError", "MswError", "NumericError", "ScaleError",
               "SpecError", "UnsupportedDimensionError"),
    "harness": ("ExperimentConfig", "Overlay", "RateCurve", "RatioTable", "emit",
                "fit_loglog_slope", "load_rate_curve", "run_rate_experiment",
                "run_ratio_experiment"),
    "maxsliced": ("MswResult", "OptimizerOpts", "msw_empirical", "msw_grid_oracle",
                  "msw_vs_analytic", "wasserstein_full"),
    "measures": ("Gaussian", "ParetoProduct", "RkhsPushforward", "RngStream", "sample"),
    "ot1d": ("AnalyticCdf1d", "project", "w1d_empirical", "w1d_vs_cdf"),
    "ratio": ("RatioStatResult", "ratio_fixed_direction", "ratio_sup", "shatter_count"),
    "rkhs": ("AssumptionReport", "KernelSpec", "SpectrumReport", "check_assumptions",
             "check_spectrum", "eigenvalue", "eigenvalue_bounds", "eigenvalues",
             "feature_coords"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    # nothing is stored here: each read goes to the submodule, so a name that
    # is rebound there (a test's monkeypatch, a tracer) is seen at once
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
